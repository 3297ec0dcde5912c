#include "importance/waves.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/parallel.h"
#include "telemetry/health.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"

namespace nde {

WaveRun RunWaves(const WavePlan& plan, const EstimatorOptions& options,
                 const WaveBody& body, const WaveFold& fold) {
  WaveRun run;
  // One status slot per task of a wave; every task overwrites its slot.
  std::vector<Status> errors(std::min(plan.wave_size, plan.tasks));
  for (size_t wave_begin = 0; wave_begin < plan.tasks;
       wave_begin += plan.wave_size) {
    // Cancellation is polled here only, on the coordinating thread, so a
    // cancelled run keeps exactly the waves a smaller budget would have run.
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      run.aborted = true;
      run.abort_cause = Status::Cancelled(std::string(plan.phase) +
                                          " cancelled");
      break;
    }
    size_t wave_end = std::min(wave_begin + plan.wave_size, plan.tasks);
    telemetry::AllocationScope wave_alloc(plan.alloc_phase);
    int64_t wave_start_us = telemetry::Enabled() ? telemetry::NowMicros() : 0;
    Result<size_t> used = TryParallelFor(
        wave_begin, wave_end,
        [&](size_t task) { errors[task - wave_begin] = body(task); },
        options.num_threads, plan.label);
    if (!used.ok()) {
      run.aborted = true;
      run.abort_cause = used.status();
      break;
    }
    run.threads_used = std::max(run.threads_used, *used);
    if (telemetry::Enabled()) {
      telemetry::MetricsRegistry::Global()
          .GetHistogramWithLabels("estimator.wave_ms",
                                  telemetry::CurrentJobLabels())
          .Record(static_cast<double>(telemetry::NowMicros() -
                                      wave_start_us) /
                  1000.0);
    }
    // The first error in index order wins, whatever failed first in wall
    // time, so the abort cause is schedule-invariant.
    for (size_t i = 0; i < wave_end - wave_begin && !run.aborted; ++i) {
      if (!errors[i].ok()) {
        run.aborted = true;
        run.abort_cause = errors[i];
      }
    }
    if (run.aborted) break;

    ProgressUpdate update;
    update.phase = plan.phase;
    bool stop =
        fold(wave_begin, wave_end, options.progress ? &update : nullptr);
    run.tasks_done = wave_end;
    if (options.progress) options.progress(update);
    if (stop) break;
  }
  if (run.aborted) {
    NDE_METRIC_COUNT("estimator.aborted", 1);
    telemetry::SetDegraded(run.abort_cause.ToString());
    NDE_LOG(WARNING) << plan.phase << " aborted after " << run.tasks_done
                     << "/" << plan.tasks
                     << " tasks: " << run.abort_cause.ToString();
  }
  return run;
}

}  // namespace nde
