#include "importance/waves.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/parallel.h"
#include "telemetry/health.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

/// Workers of a run: never more than a wave has tasks.
size_t WaveThreads(const WavePlan& plan, const EstimatorOptions& options) {
  return PlannedNumThreads(std::min(plan.wave_size, plan.tasks),
                           options.num_threads);
}

}  // namespace

size_t WaveRingSize(const WavePlan& plan, const EstimatorOptions& options) {
  size_t waves = WaveThreads(plan, options) > 1 ? kWavesInFlight : 1;
  return std::min(waves * plan.wave_size, plan.tasks);
}

WaveRun RunWaves(const WavePlan& plan, const EstimatorOptions& options,
                 const WaveBody& body, const WaveFold& fold) {
  WaveRun run;
  // One status slot per task in flight; task t owns slot t % size until its
  // wave is scanned, and every task overwrites its slot.
  std::vector<Status> errors(WaveRingSize(plan, options));
  const size_t threads = WaveThreads(plan, options);
  ClaimLoop loop(
      0, plan.tasks,
      [&](size_t task) { errors[task % errors.size()] = body(task); },
      threads, plan.label);
  int64_t last_wave_us = telemetry::Enabled() ? telemetry::NowMicros() : 0;
  for (size_t wave_begin = 0; wave_begin < plan.tasks;
       wave_begin += plan.wave_size) {
    // Cancellation is polled here only, on the coordinating thread before
    // the window moves, so a cancelled run keeps exactly the waves a smaller
    // budget would have run.
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      run.aborted = true;
      run.abort_cause = Status::Cancelled(std::string(plan.phase) +
                                          " cancelled");
      break;
    }
    size_t wave_end = std::min(wave_begin + plan.wave_size, plan.tasks);
    // Run ahead by a wave, except while a failpoint is armed: ordinal
    // failpoints (#N) count hits in wall-time order, and must see every hit
    // of a wave before any hit of the next.
    size_t waves_open = failpoint::AnyArmed() ? 1 : kWavesInFlight;
    loop.Open(wave_begin + waves_open * plan.wave_size);
    telemetry::AllocationScope wave_alloc(plan.alloc_phase);
    try {
      NDE_TRACE_SPAN("wave_wait", "importance");
      loop.Wait(wave_end);
    } catch (...) {
      run.aborted = true;
      run.abort_cause = CaughtExceptionStatus(plan.label);
      break;
    }
    run.threads_used = threads;
    if (telemetry::Enabled()) {
      int64_t now_us = telemetry::NowMicros();
      telemetry::MetricsRegistry::Global()
          .GetHistogramWithLabels("estimator.wave_ms",
                                  telemetry::CurrentJobLabels())
          .Record(static_cast<double>(now_us - last_wave_us) / 1000.0);
      last_wave_us = now_us;
    }
    NDE_TRACE_SPAN_VAR(span, plan.label, "importance");
    NDE_SPAN_ARG(span, "tasks", static_cast<int64_t>(wave_end - wave_begin));
    NDE_SPAN_ARG(span, "threads", static_cast<int64_t>(threads));
    // The first error in index order wins, whatever failed first in wall
    // time, so the abort cause is schedule-invariant.
    for (size_t task = wave_begin; task < wave_end && !run.aborted; ++task) {
      const Status& error = errors[task % errors.size()];
      if (!error.ok()) {
        run.aborted = true;
        run.abort_cause = error;
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
