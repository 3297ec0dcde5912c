#ifndef NDE_IMPORTANCE_WAVES_H_
#define NDE_IMPORTANCE_WAVES_H_

#include <cstddef>
#include <functional>

#include "common/progress.h"
#include "common/status.h"
#include "importance/estimator_options.h"

namespace nde {

/// The wave schedule of one estimator run. Tasks [0, tasks) run in fixed
/// waves of `wave_size` consecutive indices, so wave boundaries — and with
/// them progress, convergence and abort points — never depend on the thread
/// count. The three names keep traces, /profilez and allocation phases
/// stable per estimator.
struct WavePlan {
  size_t tasks = 0;
  size_t wave_size = 1;
  /// Progress phase; also names the cancel status ("<phase> cancelled") and
  /// the abort log line.
  const char* phase = "";
  /// Span label of the wave's TryParallelFor.
  const char* label = "";
  /// Allocation phase of the coordinator's side of each wave.
  const char* alloc_phase = "";
};

/// What RunWaves did. Folded waves always form the prefix [0, tasks_done).
struct WaveRun {
  size_t tasks_done = 0;
  /// Largest worker count any wave fanned out over.
  size_t threads_used = 1;
  /// True when a cancel, a task error or a pool fault stopped the run (a
  /// fold asking to stop is not an abort).
  bool aborted = false;
  /// Why the run aborted; OK otherwise.
  Status abort_cause;
};

/// Runs one task on a worker. A non-OK status fails the task's wave.
using WaveBody = std::function<Status(size_t task)>;

/// Folds the clean wave [wave_begin, wave_end) on the coordinating thread.
/// `update` is non-null only when options.progress is set; the fold fills it
/// (the driver sets `phase`) and the driver then reports it. Returns true to
/// stop the run after this wave (convergence).
using WaveFold = std::function<bool(size_t wave_begin, size_t wave_end,
                                    ProgressUpdate* update)>;

/// The one wave loop behind every wave-parallel estimator (DESIGN.md §8).
/// Per wave, in order: the cooperative-cancel check, then `body` for each
/// task over TryParallelFor, then the first task error in index order (a
/// failed wave is discarded whole, before its fold), then `fold`, then the
/// progress callback. Each wave is timed into the job-labeled
/// `estimator.wave_ms` histogram. On abort the driver counts
/// `estimator.aborted`, marks health degraded and logs one warning; the
/// estimator decides what its partial result is.
WaveRun RunWaves(const WavePlan& plan, const EstimatorOptions& options,
                 const WaveBody& body, const WaveFold& fold);

}  // namespace nde

#endif  // NDE_IMPORTANCE_WAVES_H_
