#include "common/parallel.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

std::atomic<size_t> g_default_num_threads{0};  ///< 0 = hardware concurrency

}  // namespace

size_t HardwareConcurrency() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t DefaultNumThreads() {
  size_t configured = g_default_num_threads.load(std::memory_order_relaxed);
  return configured == 0 ? HardwareConcurrency() : configured;
}

void SetDefaultNumThreads(size_t num_threads) {
  g_default_num_threads.store(num_threads, std::memory_order_relaxed);
}

size_t ResolveNumThreads(size_t num_threads) {
  return num_threads == 0 ? DefaultNumThreads() : num_threads;
}

size_t PlannedNumThreads(size_t range, size_t num_threads) {
  return std::max<size_t>(1, std::min(ResolveNumThreads(num_threads), range));
}

ThreadPool::ThreadPool(size_t num_threads, std::function<void()> on_error)
    : on_error_(std::move(on_error)) {
  size_t count = ResolveNumThreads(num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  NDE_CHECK(task != nullptr);
  // Explicit context hop: capture the submitter's TraceContext so spans,
  // logs, and labeled metrics produced by the worker attribute to the
  // submitting request/job. Purely observational (the wrapper adds no
  // synchronization and never touches task results), so the bit-determinism
  // contract is unaffected. Tasks submitted outside any context skip the
  // wrapper entirely.
  if (HasTraceContext()) {
    task = [context = CurrentTraceContext(),
            inner = std::move(task)]() mutable {
      ScopedTraceContext scope(std::move(context));
      inner();
    };
  }
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    NDE_CHECK(!shutdown_) << "Submit after ThreadPool destruction began";
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  NDE_METRIC_GAUGE_SET("parallel.queue_depth", depth);
  (void)depth;  // Only consumed by the metric when telemetry is compiled in.
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_tasks_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return !queue_.empty() || shutdown_; });
      // Drain-on-destruction: keep popping until the queue is empty even
      // after shutdown began; only an empty queue ends the loop.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_tasks_;
      NDE_METRIC_GAUGE_SET("parallel.queue_depth", queue_.size());
    }
    {
      NDE_TRACE_SPAN("pool_task", "parallel");
      try {
        // Chaos hook: an armed `threadpool.task` failpoint kills this task
        // before it runs. The throw lands in the pool's normal error latch,
        // so injection exercises exactly the propagation path a real task
        // exception takes (rethrown by the next WaitIdle).
        if (failpoint::AnyArmed()) {
          failpoint::Outcome fp = failpoint::Fire("threadpool.task");
          if (fp.fired()) throw failpoint::InjectedFault(fp.status);
        }
        task();
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (first_error_ == nullptr) first_error_ = std::current_exception();
        }
        if (on_error_) on_error_();
      }
      NDE_METRIC_COUNT("parallel.tasks_executed", 1);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_tasks_;
      if (queue_.empty() && active_tasks_ == 0) idle_cv_.notify_all();
    }
  }
}

ClaimLoop::ClaimLoop(size_t begin, size_t end,
                     std::function<void(size_t)> body, size_t threads,
                     const char* label)
    : begin_(begin),
      end_(std::max(begin, end)),
      body_(std::move(body)),
      label_(label),
      limit_(begin),
      next_(begin),
      done_(begin) {
  if (threads <= 1) return;
  finished_.resize(end_ - begin_);
  // The pool's error hook only fires for a worker killed before it ran:
  // Work catches body exceptions itself, to keep their index.
  pool_ = std::make_unique<ThreadPool>(threads, [this] { Fail(); });
  for (size_t t = 0; t < threads; ++t) pool_->Submit([this] { Work(); });
}

ClaimLoop::~ClaimLoop() {
  if (pool_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  claim_cv_.notify_all();
  pool_.reset();  // Drains: running bodies finish, then the workers join.
}

void ClaimLoop::Open(size_t limit) {
  limit = std::min(limit, end_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (limit <= limit_) return;
    limit_ = limit;
  }
  claim_cv_.notify_all();
}

void ClaimLoop::Wait(size_t upto) {
  if (pool_ == nullptr) {
    NDE_CHECK_LE(upto, limit_);
    if (next_ >= upto) return;
    // The work a pool worker would do, under the same span name, so the
    // caller's span around Wait stays the time spent waiting.
    NDE_TRACE_SPAN_VAR(span, "parallel_worker", "parallel");
    NDE_SPAN_ARG(span, "label", std::string(label_));
    while (next_ < upto) body_(next_++);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  NDE_CHECK_LE(upto, limit_);
  wait_for_ = upto;
  done_cv_.wait(lock, [&] { return done_ >= upto || failed_; });
  wait_for_ = 0;
  if (!failed_ && upto < end_) return;
  // Claims are over: every index is done, or a failure stopped them. Drain
  // the workers, which surfaces a worker the pool killed before it ran.
  lock.unlock();
  pool_->WaitIdle();
  lock.lock();
  // Indices are claimed in order and claimed bodies finish, so a body
  // failure past this prefix leaves the prefix complete: it surfaces at the
  // first Wait whose prefix holds it, whatever failed first in wall time.
  if (failed_at_ < upto) std::rethrow_exception(body_error_);
}

void ClaimLoop::Work() {
  // A name of its own, so summing spans by name counts the coordinator's
  // span once instead of once per worker.
  NDE_TRACE_SPAN_VAR(worker_span, "parallel_worker", "parallel");
  NDE_SPAN_ARG(worker_span, "label", std::string(label_));
  size_t executed = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    claim_cv_.wait(
        lock, [this] { return stopped_ || next_ < limit_ || next_ == end_; });
    if (stopped_ || next_ == end_) break;
    size_t i = next_++;
    lock.unlock();
    try {
      body_(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> guard(mu_);
        if (i < failed_at_) {
          failed_at_ = i;
          body_error_ = std::current_exception();
        }
      }
      Fail();
      return;
    }
    lock.lock();
    ++executed;
    finished_[i - begin_] = true;
    while (done_ < end_ && finished_[done_ - begin_]) ++done_;
    if (wait_for_ != 0 && done_ >= wait_for_) done_cv_.notify_one();
  }
  lock.unlock();
  NDE_SPAN_ARG(worker_span, "tasks_executed", static_cast<int64_t>(executed));
}

void ClaimLoop::Fail() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    failed_ = true;
  }
  claim_cv_.notify_all();
  done_cv_.notify_all();
}

size_t ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body, size_t num_threads,
                   const char* label) {
  if (end <= begin) return 1;
  size_t threads = PlannedNumThreads(end - begin, num_threads);
  NDE_TRACE_SPAN_VAR(span, label, "parallel");
  NDE_SPAN_ARG(span, "tasks", static_cast<int64_t>(end - begin));
  NDE_SPAN_ARG(span, "threads", static_cast<int64_t>(threads));
  ClaimLoop loop(begin, end, body, threads, label);
  loop.Open(end);
  loop.Wait(end);  // Re-throws the first body exception, if any.
  return threads;
}

Status CaughtExceptionStatus(const char* label) {
  try {
    throw;
  } catch (const failpoint::InjectedFault& fault) {
    return fault.status();
  } catch (const std::exception& e) {
    return Status::Internal(
        StrFormat("parallel task '%s' failed: %s", label, e.what()));
  } catch (...) {
    return Status::Internal(StrFormat(
        "parallel task '%s' failed with a non-exception throw", label));
  }
}

Result<size_t> TryParallelFor(size_t begin, size_t end,
                              const std::function<void(size_t)>& body,
                              size_t num_threads, const char* label) {
  try {
    return ParallelFor(begin, end, body, num_threads, label);
  } catch (...) {
    return CaughtExceptionStatus(label);
  }
}

uint64_t SeedSequence::SeedFor(uint64_t task_index) const {
  // Mix seed ⊕ (odd-constant · index) through two splitmix64 rounds: nearby
  // task indices land in unrelated regions of splitmix64's state space, so
  // per-task xoshiro streams seeded from this are mutually independent.
  uint64_t state = base_seed_ ^ (0x9e3779b97f4a7c15ULL * (task_index + 1));
  internal::SplitMix64(&state);
  return internal::SplitMix64(&state);
}

}  // namespace nde
