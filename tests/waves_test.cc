// The run-ahead wave driver (importance/waves.h): while the coordinator
// waits for and folds wave w, the workers already run wave w + 1. These tests
// pin what that must not change — values, counts, progress and abort points
// at any thread count — and what it must guarantee: no shared ring slot, no
// trace of work run past a stop, and a typed end when a worker dies.

#include "importance/waves.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/status.h"
#include "importance/game_values.h"
#include "importance/utility.h"

namespace nde {
namespace {

constexpr size_t kWave = 16;

WavePlan Plan(size_t tasks) {
  return {.tasks = tasks,
          .wave_size = kWave,
          .phase = "waves_test",
          .label = "waves_test",
          .alloc_phase = "waves_test"};
}

/// A synthetic game defined by an arbitrary set function.
class LambdaUtility : public UtilityFunction {
 public:
  LambdaUtility(size_t n, std::function<double(const std::vector<size_t>&)> fn)
      : n_(n), fn_(std::move(fn)) {}
  double Evaluate(const std::vector<size_t>& subset) const override {
    return fn_(subset);
  }
  size_t num_units() const override { return n_; }

 private:
  size_t n_;
  std::function<double(const std::vector<size_t>&)> fn_;
};

/// v(S) = sqrt(sum of (i + 1) over S): not additive, so the sampled
/// marginals vary and the standard errors shrink as samples accumulate.
double SqrtValue(const std::vector<size_t>& subset) {
  double v = 0.0;
  for (size_t i : subset) v += static_cast<double>(i + 1);
  return std::sqrt(v);
}

struct FailpointGuard {
  FailpointGuard() {
    failpoint::DisarmAll();
    failpoint::ResetStats();
  }
  ~FailpointGuard() {
    failpoint::DisarmAll();
    failpoint::ResetStats();
  }
};

/// Runs `fn` on a thread of its own and fails the test binary if it has not
/// returned within `seconds`: a hung driver cannot be joined, so the only
/// way to report it is to stop the process.
template <typename Fn>
auto WithinDeadline(Fn fn, int seconds) {
  std::packaged_task<decltype(fn())()> task(std::move(fn));
  auto result = task.get_future();
  std::thread runner(std::move(task));
  if (result.wait_for(std::chrono::seconds(seconds)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "run did not end within %d s: the driver hangs\n",
                 seconds);
    std::fflush(stderr);
    std::abort();
  }
  runner.join();
  return result.get();
}

/// Everything an estimate and its progress sequence expose, with doubles as
/// bit patterns, so EXPECT_EQ means bit-identical.
struct Observed {
  std::vector<uint64_t> values;
  std::vector<uint64_t> std_errors;
  size_t evaluations = 0;
  bool aborted = false;
  std::vector<std::tuple<std::string, size_t, size_t, size_t, uint64_t>>
      progress;
  bool operator==(const Observed&) const = default;
};

void RecordProgress(EstimatorOptions* options, Observed* observed) {
  options->progress = [observed](const ProgressUpdate& update) {
    observed->progress.emplace_back(
        update.phase, update.completed, update.total,
        update.utility_evaluations,
        std::bit_cast<uint64_t>(update.max_std_error));
  };
}

void RecordEstimate(const ImportanceEstimate& estimate, Observed* observed) {
  for (double v : estimate.values) {
    observed->values.push_back(std::bit_cast<uint64_t>(v));
  }
  for (double v : estimate.std_errors) {
    observed->std_errors.push_back(std::bit_cast<uint64_t>(v));
  }
  observed->evaluations = estimate.utility_evaluations;
  observed->aborted = estimate.aborted_early;
}

/// Max std error reported at the third wave of a tolerance-0 run: as a
/// tolerance it stops the run at or before that wave.
template <typename Options, typename Estimator>
double ThirdWaveError(Options options, Estimator estimate) {
  Observed pilot;
  options.num_threads = 1;
  options.convergence_tolerance = 0.0;
  RecordProgress(&options, &pilot);
  EXPECT_TRUE(estimate(options).ok());
  EXPECT_GE(pilot.progress.size(), 4u);
  return std::bit_cast<double>(std::get<4>(pilot.progress.at(2)));
}

TEST(WavesTest, ConvergingTmcIsIdenticalAtAnyThreadCount) {
  LambdaUtility game(9, SqrtValue);
  TmcShapleyOptions options;
  options.num_permutations = 320;
  options.truncation_tolerance = 0.0;
  options.seed = 17;
  auto estimate = [&game](const TmcShapleyOptions& o) {
    return TmcShapleyValues(game, o);
  };
  options.convergence_tolerance = ThirdWaveError(options, estimate);
  ASSERT_GT(options.convergence_tolerance, 0.0);

  Observed reference;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Observed observed;
    TmcShapleyOptions run = options;
    run.num_threads = threads;
    RecordProgress(&run, &observed);
    RecordEstimate(estimate(run).value(), &observed);
    if (threads == 1) {
      reference = observed;
      // Converged: the run stopped before its budget.
      ASSERT_FALSE(reference.progress.empty());
      EXPECT_LE(std::get<1>(reference.progress.back()), 3 * 32u);
      continue;
    }
    EXPECT_EQ(observed, reference) << "threads=" << threads;
  }
}

TEST(WavesTest, ConvergingBanzhafIsIdenticalAtAnyThreadCount) {
  LambdaUtility game(12, SqrtValue);
  BanzhafOptions options;
  options.num_samples = 2000;
  options.seed = 23;
  auto estimate = [&game](const BanzhafOptions& o) {
    return BanzhafValues(game, o);
  };
  options.convergence_tolerance = ThirdWaveError(options, estimate);
  ASSERT_GT(options.convergence_tolerance, 0.0);

  Observed reference;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Observed observed;
    BanzhafOptions run = options;
    run.num_threads = threads;
    RecordProgress(&run, &observed);
    RecordEstimate(estimate(run).value(), &observed);
    if (threads == 1) {
      reference = observed;
      ASSERT_FALSE(reference.progress.empty());
      EXPECT_LE(std::get<1>(reference.progress.back()), 3 * 128u);
      continue;
    }
    EXPECT_EQ(observed, reference) << "threads=" << threads;
  }
}

/// A driver run whose task t stores sqrt(t + 0.5) in its slot and whose fold
/// sums the slots in task order. Task 31, the last of wave 1, is slow, so the
/// workers run wave 2 while wave 1 is still finishing; `fail` (if set) makes
/// its task fail.
struct SummedRun {
  WaveRun run;
  double sum = 0.0;
  std::vector<size_t> folds;
};

SummedRun RunSummed(size_t tasks, size_t threads,
                    const std::function<Status(size_t)>& fail) {
  EstimatorOptions options;
  options.num_threads = threads;
  SummedRun out;
  out.run = RunWaves<double>(
      Plan(tasks), options, 0.0,
      [&](size_t task, double& slot) -> Status {
        if (task == 31) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (fail) {
          NDE_RETURN_IF_ERROR(fail(task));
        }
        slot = std::sqrt(static_cast<double>(task) + 0.5);
        return Status::OK();
      },
      [&](size_t, size_t wave_end, std::span<const double> slots,
          ProgressUpdate*) {
        for (double v : slots) out.sum += v;
        out.folds.push_back(wave_end);
        return false;
      });
  return out;
}

TEST(WavesTest, ErrorInTheRunAheadWaveKeepsTheCleanPrefix) {
  SummedRun budget = RunSummed(32, 1, nullptr);
  ASSERT_FALSE(budget.run.aborted);
  for (int rep = 0; rep < 200; ++rep) {
    SummedRun planted = RunSummed(80, 4, [](size_t task) {
      return task == 37 ? Status::Internal("planted in wave 2") : Status::OK();
    });
    ASSERT_TRUE(planted.run.aborted) << "rep " << rep;
    EXPECT_EQ(planted.run.abort_cause.message(), "planted in wave 2");
    EXPECT_EQ(planted.run.tasks_done, 32u) << "rep " << rep;
    EXPECT_EQ(std::bit_cast<uint64_t>(planted.sum),
              std::bit_cast<uint64_t>(budget.sum))
        << "rep " << rep;
    EXPECT_EQ(planted.folds, budget.folds) << "rep " << rep;
  }
}

TEST(WavesTest, ExceptionInTheRunAheadWaveKeepsTheCleanPrefix) {
  SummedRun budget = RunSummed(32, 1, nullptr);
  for (int rep = 0; rep < 200; ++rep) {
    SummedRun planted = RunSummed(80, 4, [](size_t task) -> Status {
      if (task == 37) {
        throw failpoint::InjectedFault(Status::Unavailable("worker down"));
      }
      return Status::OK();
    });
    ASSERT_TRUE(planted.run.aborted) << "rep " << rep;
    EXPECT_EQ(planted.run.abort_cause.code(), StatusCode::kUnavailable);
    EXPECT_EQ(planted.run.tasks_done, 32u) << "rep " << rep;
    EXPECT_EQ(std::bit_cast<uint64_t>(planted.sum),
              std::bit_cast<uint64_t>(budget.sum))
        << "rep " << rep;
  }
}

TEST(WavesTest, RunAheadStartsTheNextWaveBeforeTheFold) {
  for (bool armed : {false, true}) {
    FailpointGuard guard;
    // Armed on a site the run never reaches, this only switches run-ahead
    // off: ordinal failpoints need wall-time hit order to follow the waves.
    if (armed) {
      ASSERT_TRUE(failpoint::Arm("csv.open=error(internal:unused)").ok());
    }
    EstimatorOptions options;
    options.num_threads = 4;
    std::atomic<size_t> folded{0};
    std::atomic<size_t> started_ahead{0};
    WaveRun run = RunWaves(
        Plan(6 * kWave), options,
        [&](size_t task) -> Status {
          if (task / kWave > folded.load()) started_ahead.fetch_add(1);
          return Status::OK();
        },
        [&](size_t, size_t wave_end, ProgressUpdate*) {
          // A slow fold: with run-ahead the next wave is done by now.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          folded.store(wave_end / kWave);
          return false;
        });
    EXPECT_FALSE(run.aborted);
    if (armed) {
      EXPECT_EQ(started_ahead.load(), 0u);
    } else {
      EXPECT_GT(started_ahead.load(), 0u);
    }
  }
}

TEST(WavesTest, OrdinalFailpointCountsHitsWaveByWave) {
  // One evaluation per task, and the last task of wave 0 is slow. Hit 16
  // must still be wave 0's own: while a failpoint is armed no task of wave
  // 1 starts before wave 0 is folded, so wave 0 fails and nothing folds.
  FailpointGuard guard;
  ASSERT_TRUE(
      failpoint::Arm("utility.evaluate=error(internal:hit 16)#16x1").ok());
  LambdaUtility game(4, SqrtValue);
  EstimatorOptions options;
  options.num_threads = 4;
  WaveRun run = RunWaves(
      Plan(4 * kWave), options,
      [&](size_t task) -> Status {
        if (task == kWave - 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return game.TryEvaluate({task % 4}).status();
      },
      [](size_t, size_t, ProgressUpdate*) { return false; });
  EXPECT_TRUE(run.aborted);
  EXPECT_EQ(run.abort_cause.message(), "hit 16");
  EXPECT_EQ(run.tasks_done, 0u);
}

TEST(WavesTest, NoTwoTasksInFlightShareASlot) {
  struct Tagged {
    size_t task = SIZE_MAX;
  };
  std::mutex mu;
  std::set<const Tagged*> in_use;
  std::set<const Tagged*> seen;
  bool shared = false;
  EstimatorOptions options;
  options.num_threads = 8;
  WaveRun run = RunWaves<Tagged>(
      Plan(200), options, Tagged{},
      [&](size_t task, Tagged& slot) -> Status {
        {
          std::lock_guard<std::mutex> lock(mu);
          shared |= !in_use.insert(&slot).second;
          seen.insert(&slot);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50 + task % 7));
        slot.task = task;
        std::lock_guard<std::mutex> lock(mu);
        in_use.erase(&slot);
        return Status::OK();
      },
      [&](size_t wave_begin, size_t, std::span<const Tagged> slots,
          ProgressUpdate*) {
        // A finished task keeps its slot until its wave is folded.
        for (size_t k = 0; k < slots.size(); ++k) {
          EXPECT_EQ(slots[k].task, wave_begin + k);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return false;
      });
  EXPECT_FALSE(run.aborted);
  EXPECT_EQ(run.tasks_done, 200u);
  EXPECT_FALSE(shared);
  EXPECT_EQ(seen.size(), kWavesInFlight * kWave);
}

TEST(WavesTest, RingHoldsOneWaveInline) {
  EstimatorOptions options;
  options.num_threads = 1;
  EXPECT_EQ(WaveRingSize(Plan(200), options), kWave);
  options.num_threads = 4;
  EXPECT_EQ(WaveRingSize(Plan(200), options), kWavesInFlight * kWave);
  EXPECT_EQ(WaveRingSize(Plan(20), options), 20u);
}

TEST(WavesTest, KilledWorkerEndsTypedWithinADeadline) {
  FailpointGuard guard;
  // The second pool task dequeued is killed: one of the run's four workers.
  ASSERT_TRUE(
      failpoint::Arm("threadpool.task=error(unavailable:worker down)#2x1")
          .ok());
  LambdaUtility game(12, SqrtValue);
  BanzhafOptions options;
  options.num_samples = 2000;
  options.num_threads = 4;
  Result<ImportanceEstimate> result = WithinDeadline(
      [&] { return BanzhafValues(game, options); }, 30);
  // Where the run stops depends on when the worker died, never whether.
  Status cause = result.ok() ? result->abort_cause : result.status();
  EXPECT_TRUE(!result.ok() || result->aborted_early);
  EXPECT_EQ(cause.code(), StatusCode::kUnavailable);
  EXPECT_EQ(cause.message(), "worker down");
}

TEST(WavesTest, FaultInTheRunAheadWaveEndsTypedWithinADeadline) {
  // No failpoint armed, so run-ahead is on; the fault kills a body of wave
  // 2 while the coordinator waits for wave 1.
  SummedRun run = WithinDeadline(
      [] {
        return RunSummed(10 * kWave, 4, [](size_t task) -> Status {
          if (task >= 2 * kWave) {
            throw failpoint::InjectedFault(Status::Unavailable("pool down"));
          }
          return Status::OK();
        });
      },
      30);
  EXPECT_TRUE(run.run.aborted);
  EXPECT_EQ(run.run.abort_cause.code(), StatusCode::kUnavailable);
  EXPECT_EQ(run.run.tasks_done, 2 * kWave);
}

TEST(WavesTest, BetaShapleyCancelledAfterWaveOneMatchesOneThread) {
  // The progress hook after wave 1 sleeps, so at 4 threads the workers run
  // wave 2 to the end (writing units 16..31) before the cancel lands.
  std::atomic<size_t> evaluations{0};
  LambdaUtility game(40, [&evaluations](const std::vector<size_t>& subset) {
    evaluations.fetch_add(1, std::memory_order_relaxed);
    return SqrtValue(subset);
  });
  auto cancelled_run = [&](size_t threads) {
    BetaShapleyOptions options;
    options.samples_per_unit = 8;
    options.num_threads = threads;
    options.seed = 25;
    std::atomic<bool> cancel{false};
    options.cancel = &cancel;
    options.progress = [&cancel](const ProgressUpdate&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cancel.store(true, std::memory_order_relaxed);
    };
    evaluations.store(0);
    return BetaShapleyValues(game, options).value();
  };
  ImportanceEstimate one = cancelled_run(1);
  EXPECT_EQ(evaluations.load(), 16u * 2u * 8u);
  ImportanceEstimate four = cancelled_run(4);
  EXPECT_GT(evaluations.load(), 16u * 2u * 8u) << "wave 2 did not run ahead";

  Observed expected, observed;
  RecordEstimate(one, &expected);
  RecordEstimate(four, &observed);
  EXPECT_EQ(observed, expected);
  EXPECT_TRUE(four.aborted_early);
  EXPECT_EQ(four.abort_cause.code(), StatusCode::kCancelled);
  for (size_t i = 16; i < 40; ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(four.values[i]), 0u) << "unit " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(four.std_errors[i]), 0u) << "unit " << i;
  }
}

}  // namespace
}  // namespace nde
