#ifndef NDE_IMPORTANCE_WAVES_H_
#define NDE_IMPORTANCE_WAVES_H_

#include <cstddef>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/progress.h"
#include "common/status.h"
#include "importance/estimator_options.h"

namespace nde {

/// Waves in flight at once: while the coordinator waits for and folds wave
/// w, the workers already run wave w + 1 (DESIGN.md §8).
inline constexpr size_t kWavesInFlight = 2;

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
  /// Span label of each wave's error scan, fold and progress report on the
  /// coordinating thread; the workers' `parallel_worker` spans carry it as
  /// their `label` arg.
  const char* label = "";
  /// Allocation phase of the coordinator's side of each wave.
  const char* alloc_phase = "";
};

/// What RunWaves did. Folded waves always form the prefix [0, tasks_done).
struct WaveRun {
  size_t tasks_done = 0;
  /// Worker count the waves fanned out over (1 until a wave finished).
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
/// Tasks run on one ClaimLoop per run whose window keeps at most
/// kWavesInFlight waves open (one while any failpoint is armed). Per wave,
/// on the coordinating thread and in order: the cooperative-cancel check,
/// moving the window to the next wave, waiting for this wave's tasks (a
/// `wave_wait` span), the first task error in index order (a failed wave is
/// discarded whole, before its fold), then `fold`, then the progress
/// callback. The interval between wave completions lands in the
/// job-labeled `estimator.wave_ms` histogram. Work run ahead of a stop is
/// drained and dropped. On abort the driver counts `estimator.aborted`,
/// marks health degraded and logs one warning; the estimator decides what
/// its partial result is.
WaveRun RunWaves(const WavePlan& plan, const EstimatorOptions& options,
                 const WaveBody& body, const WaveFold& fold);

/// Slots in the driver's per-task rings: every task that can be in flight at
/// once, i.e. kWavesInFlight × wave_size when the run has workers to run
/// ahead on, one wave inline, and never more than the run's tasks.
size_t WaveRingSize(const WavePlan& plan, const EstimatorOptions& options);

/// RunWaves with per-task buffers owned by the driver: a ring of
/// WaveRingSize copies of `blank`. Task t's body gets its slot, which no
/// other task in flight shares; the fold gets its wave's slots, in task
/// order.
template <typename Slot>
WaveRun RunWaves(
    const WavePlan& plan, const EstimatorOptions& options, const Slot& blank,
    const std::type_identity_t<std::function<Status(size_t task, Slot& slot)>>&
        body,
    const std::type_identity_t<std::function<bool(
        size_t wave_begin, size_t wave_end, std::span<const Slot> slots,
        ProgressUpdate* update)>>& fold) {
  std::vector<Slot> ring(WaveRingSize(plan, options), blank);
  // The ring holds whole waves, and waves start at multiples of wave_size,
  // so a wave's slots are contiguous.
  return RunWaves(
      plan, options,
      [&](size_t task) { return body(task, ring[task % ring.size()]); },
      [&](size_t wave_begin, size_t wave_end, ProgressUpdate* update) {
        return fold(wave_begin, wave_end,
                    std::span<const Slot>(ring).subspan(
                        wave_begin % ring.size(), wave_end - wave_begin),
                    update);
      });
}

}  // namespace nde

#endif  // NDE_IMPORTANCE_WAVES_H_
