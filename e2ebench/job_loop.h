#ifndef NDE_E2EBENCH_JOB_LOOP_H_
#define NDE_E2EBENCH_JOB_LOOP_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "nde/job_api.h"
#include "telemetry/http_exporter.h"
#include "workload.h"

namespace nde {
namespace e2e {

/// A JobManager mounted on an HttpExporter bound to 127.0.0.1, with an
/// optional record of the time JobManager::HandleHttp takes per request.
class JobServer {
 public:
  /// Time spent in HandleHttp for one request.
  struct HandlerSample {
    bool post = false;
    int64_t handle_ns = 0;
    int64_t end_trace_us = 0;  ///< telemetry::NowMicros() at return
  };

  explicit JobServer(size_t num_workers);
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Binds an ephemeral port and starts serving.
  Status Start();
  uint16_t port() const { return exporter_.port(); }
  JobManager& manager() { return manager_; }

  /// While on, every HandleHttp call appends a HandlerSample.
  void set_recording(bool on) { recording_.store(on); }
  /// Removes and returns the samples recorded so far.
  std::vector<HandlerSample> TakeSamples();

 private:
  JobManager manager_;
  std::atomic<bool> recording_{false};
  std::mutex mu_;
  std::vector<HandlerSample> samples_;  ///< guarded by mu_
  /// Declared last: destroyed (stopped) before the handler's targets.
  telemetry::HttpExporter exporter_;
};

/// The POST /jobs body for one op of `spec` over `input`.
std::string JobBody(const WorkloadSpec& spec, const WorkloadInput& input);

/// Closed loop: one generator thread keeps this many jobs outstanding and
/// polls each at a fixed interval.
constexpr size_t kJobsOutstanding = 4;
constexpr int64_t kPollIntervalNs = 5'000'000;

struct JobLoopOptions {
  /// No new job is submitted at or after this steady-clock time...
  int64_t submit_until_ns = 0;
  /// ...nor once this many were submitted (0 = no cap).
  size_t max_jobs = 0;
  /// Record per-request timings (client round trip, HandleHttp time) and
  /// per-job queue wait / execution from the job's `pool_task` span.
  /// Requires telemetry to be on for the span part.
  bool traced = false;
};

/// One job, from its POST to the first poll that read a final state.
struct JobRecord {
  std::string id;
  size_t input = 0;
  bool ok = false;
  double op_ms = 0.0;
  int64_t posted_trace_us = 0;  ///< HandleHttp return of its POST (traced)
};

struct JobLoopResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<JobRecord> jobs;  ///< jobs that got an id
  double wall_s = 0.0;          ///< first POST to last final poll
  // Traced only.
  std::vector<double> submit_ms;      ///< HandleHttp per POST
  std::vector<double> poll_ms;        ///< HandleHttp per GET
  std::vector<double> transport_ms;   ///< round trip minus HandleHttp
  std::vector<double> queue_wait_ms;  ///< POST handled -> job task start
  std::vector<double> exec_ms;        ///< job task duration
  size_t polls = 0;
};

/// Runs a closed loop of jobs over `inputs` (round robin) against `server`,
/// checking each finished job's ranked rows and values against the input's
/// reference. Any transport error, 4xx/5xx, error/cancelled state or
/// mismatch counts as failed.
JobLoopResult RunJobLoop(JobServer* server,
                         const std::vector<WorkloadInput>& inputs,
                         const std::vector<std::string>& bodies,
                         const JobLoopOptions& options);

}  // namespace e2e
}  // namespace nde

#endif  // NDE_E2EBENCH_JOB_LOOP_H_
