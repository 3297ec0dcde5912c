#ifndef NDE_COMMON_PARALLEL_H_
#define NDE_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace nde {

/// --- Thread-count policy ----------------------------------------------------
///
/// Every parallel entry point takes a `num_threads` knob where 0 means "use
/// the process-wide default". The default starts at HardwareConcurrency()
/// and can be overridden once (e.g. by the CLI's global `--threads N` flag).

/// std::thread::hardware_concurrency(), clamped to at least 1.
size_t HardwareConcurrency();

/// The process-wide default worker count used when a caller passes 0.
size_t DefaultNumThreads();

/// Overrides DefaultNumThreads(); passing 0 restores HardwareConcurrency().
void SetDefaultNumThreads(size_t num_threads);

/// Maps a caller-supplied `num_threads` (0 = default) to a concrete count.
size_t ResolveNumThreads(size_t num_threads);

/// The worker count ParallelFor will actually use for `range` items: never
/// more threads than items, never fewer than 1. Exposed so estimators can
/// report `num_threads_used` without duplicating the policy.
size_t PlannedNumThreads(size_t range, size_t num_threads);

/// --- ThreadPool -------------------------------------------------------------

/// Fixed-size FIFO thread pool: no work stealing, no task priorities — tasks
/// run in submission order, each on whichever worker frees up first.
///
/// Lifetime contract: the destructor *drains* the pool — every task submitted
/// before destruction runs to completion before the workers are joined.
///
/// Error contract: a task that throws does not take down the process; the
/// first exception is captured and re-thrown by the next WaitIdle() call
/// (an exception still pending at destruction is dropped).
///
/// Telemetry: submissions and pops update the `parallel.queue_depth` gauge,
/// each executed task bumps `parallel.tasks_executed` and records a
/// "pool_task" trace span on its worker thread, so `--trace` output shows
/// per-worker occupancy.
///
/// Trace-context propagation: Submit captures the submitting thread's
/// TraceContext (common/trace_context.h) and installs it around the task on
/// the worker, so spans/logs/metrics emitted by pool work attach to the
/// submitter's trace and job. ParallelFor inherits this automatically (its
/// workers are pool tasks; the single-thread path runs inline on the caller).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = DefaultNumThreads()). `on_error`, if
  /// set, runs on the worker right after a task's exception is latched, so a
  /// caller blocked on state of its own learns that a task died.
  explicit ThreadPool(size_t num_threads = 0,
                      std::function<void()> on_error = nullptr);

  /// Drains the queue (all submitted tasks run), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called after destruction has begun.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running, then re-throws
  /// the first exception any task raised since the last WaitIdle().
  void WaitIdle();

  size_t num_threads() const { return workers_.size(); }

  /// Tasks currently queued (not yet claimed by a worker).
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for tasks
  std::condition_variable idle_cv_;  ///< WaitIdle waits here
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_tasks_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  std::function<void()> on_error_;
};

/// --- ClaimLoop --------------------------------------------------------------

/// The one claim loop behind ParallelFor and the estimators' wave driver:
/// runs `body(i)` for i in [begin, end), with indices claimed in increasing
/// order from a shared cursor, but never at or past a *window limit* the
/// caller raises with Open(). Wait(upto) blocks until every index below
/// `upto` has finished, so a caller can fold a finished prefix while the
/// workers already run the indices after it.
///
/// With more than one thread the workers are the tasks of a private
/// ThreadPool created once per loop; each records one `parallel_worker` span
/// carrying `label` as an arg. With one thread there is no pool: Wait runs
/// the indices below `upto` inline on the calling thread, in one
/// `parallel_worker` span.
///
/// Failure: a body exception, or a pool task killed before it ran (the
/// `threadpool.task` failpoint), stops further claims, and Wait lets the
/// running bodies finish before it decides. A killed worker fails that Wait
/// with its fault. A body exception fails the first Wait whose prefix holds
/// its index (the lowest failed index wins), so a failure past the prefix
/// surfaces at a later Wait. Wait never blocks on an index that a dead
/// worker would have run, and the last Wait (upto == end) also reports a
/// worker killed after the work was done.
///
/// The destructor stops claims and drains: bodies already running finish,
/// unclaimed indices never run, and a failure nobody waited for is dropped.
class ClaimLoop {
 public:
  ClaimLoop(size_t begin, size_t end, std::function<void(size_t)> body,
            size_t threads, const char* label);
  ~ClaimLoop();

  ClaimLoop(const ClaimLoop&) = delete;
  ClaimLoop& operator=(const ClaimLoop&) = delete;

  /// Lets the workers claim indices below `limit` (clamped to `end`). The
  /// limit only ever grows; a smaller value is ignored.
  void Open(size_t limit);

  /// Blocks until every index in [begin, upto) has finished; `upto` must not
  /// exceed the window limit. Throws as the failure rules above say.
  void Wait(size_t upto);

 private:
  void Work();
  void Fail();

  const size_t begin_;
  const size_t end_;
  const std::function<void(size_t)> body_;
  const char* const label_;

  std::mutex mu_;
  std::condition_variable claim_cv_;  ///< workers wait here for the window
  std::condition_variable done_cv_;   ///< Wait waits here for its prefix
  size_t limit_;                      ///< indices < limit_ may be claimed
  size_t next_;                       ///< next index to claim
  size_t done_;                       ///< every index < done_ has finished
  size_t wait_for_ = 0;               ///< prefix Wait blocks on (0: none)
  std::vector<bool> finished_;        ///< per index, past the done prefix
  bool stopped_ = false;  ///< a failure or the destructor ended claims
  bool failed_ = false;   ///< a body threw or a worker was killed
  size_t failed_at_ = SIZE_MAX;    ///< lowest index whose body threw
  std::exception_ptr body_error_;  ///< what it threw

  std::unique_ptr<ThreadPool> pool_;  ///< last: its workers use the above
};

/// --- ParallelFor ------------------------------------------------------------

/// Runs `body(i)` for every i in [begin, end) across up to `num_threads`
/// workers (0 = DefaultNumThreads()); returns the worker count actually used.
/// This is a ClaimLoop whose window is the whole range. Indices are claimed
/// dynamically, so the *assignment* of indices to threads is
/// nondeterministic — determinism is the caller's job: write results into
/// storage addressed by `i` and reduce sequentially afterwards, and results
/// are bit-for-bit independent of the thread count.
///
/// An exception thrown by `body` stops further index claims; once all
/// workers stop, the one of the lowest failed index is re-thrown on the
/// calling thread. With one thread (or a single-item range) the body runs
/// inline on the calling thread.
///
/// `label` names the coordinator's trace span and the workers' `label` arg.
size_t ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body,
                   size_t num_threads = 0, const char* label = "parallel_for");

/// The typed Status of the exception being handled; call only inside a catch
/// block. An injected fault (failpoint::InjectedFault) returns the Status it
/// carries, and any other exception becomes Status::Internal naming `label`
/// and the exception text.
Status CaughtExceptionStatus(const char* label);

/// ParallelFor with the exception path converted by CaughtExceptionStatus
/// (e.g. the `threadpool.task` failpoint killing a worker task returns the
/// injected Status). The pool still drains fully before this returns — no
/// task is left running. On success, returns the worker count used, like
/// ParallelFor.
Result<size_t> TryParallelFor(size_t begin, size_t end,
                              const std::function<void(size_t)>& body,
                              size_t num_threads = 0,
                              const char* label = "parallel_for");

/// --- SeedSequence -----------------------------------------------------------

/// Derives statistically independent per-task RNG streams from one base seed
/// by splitmix64-mixing `seed ⊕ g(task_index)`. Task index — not thread id —
/// keys the stream, so a task draws the same randomness no matter which
/// worker runs it or how many workers exist: the foundation of the parallel
/// estimators' "same (seed), any thread count → identical results" contract.
class SeedSequence {
 public:
  explicit SeedSequence(uint64_t base_seed) : base_seed_(base_seed) {}

  /// A decorrelated 64-bit seed for task `task_index`.
  uint64_t SeedFor(uint64_t task_index) const;

  /// Convenience: an Rng seeded with SeedFor(task_index). Construct it on the
  /// thread that will draw from it (Rng is single-thread-owned in debug
  /// builds).
  Rng RngFor(uint64_t task_index) const { return Rng(SeedFor(task_index)); }

  uint64_t base_seed() const { return base_seed_; }

 private:
  uint64_t base_seed_;
};

}  // namespace nde

#endif  // NDE_COMMON_PARALLEL_H_
