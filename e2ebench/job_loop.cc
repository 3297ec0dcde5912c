#include "job_loop.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include "common/json.h"
#include "http_client.h"
#include "ledger.h"
#include "telemetry/trace.h"

namespace nde {
namespace e2e {

namespace {

JobApiOptions ManagerOptions(size_t num_workers) {
  JobApiOptions options;
  options.num_workers = num_workers;
  return options;
}

/// Ranked rows and values of a done snapshot equal the reference, bit for
/// bit (the API prints doubles in shortest round-trip form).
bool MatchesReference(const json::Value& snapshot,
                      const TableRunResult& reference) {
  const json::Value* result = snapshot.Find("result");
  if (result == nullptr) return false;
  const json::Value* rows = result->Find("ranked_rows");
  const json::Value* values = result->Find("values");
  if (rows == nullptr || values == nullptr ||
      rows->items().size() != reference.ranked_rows.size() ||
      values->items().size() != reference.estimate.values.size()) {
    return false;
  }
  for (size_t i = 0; i < rows->items().size(); ++i) {
    if (std::strtoull(rows->items()[i].raw().c_str(), nullptr, 10) !=
        reference.ranked_rows[i]) {
      return false;
    }
  }
  for (size_t i = 0; i < values->items().size(); ++i) {
    double value = std::strtod(values->items()[i].raw().c_str(), nullptr);
    if (std::memcmp(&value, &reference.estimate.values[i], sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

struct InFlight {
  JobRecord record;
  int64_t posted_ns = 0;
  int64_t next_poll_ns = 0;
};

/// A job that has not reached a final state this long after its POST is
/// failed, so a stuck server cannot hang the benchmark.
constexpr int64_t kJobTimeoutNs = 60'000'000'000;

}  // namespace

JobServer::JobServer(size_t num_workers)
    : manager_(ManagerOptions(num_workers)) {}

JobServer::~JobServer() { exporter_.Stop(); }

Status JobServer::Start() {
  // Inline CSVs of the larger tables exceed the 1 MiB default body cap.
  exporter_.set_max_body_bytes(size_t{64} << 20);
  exporter_.SetHandler([this](const telemetry::HttpRequest& request) {
    if (!recording_.load(std::memory_order_relaxed)) {
      return manager_.HandleHttp(request);
    }
    int64_t start = NowNs();
    std::string response = manager_.HandleHttp(request);
    HandlerSample sample;
    sample.post = request.method == "POST";
    sample.handle_ns = NowNs() - start;
    sample.end_trace_us = telemetry::NowMicros();
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(sample);
    return response;
  });
  return exporter_.Start(0);
}

std::vector<JobServer::HandlerSample> JobServer::TakeSamples() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HandlerSample> out;
  out.swap(samples_);
  return out;
}

std::string JobBody(const WorkloadSpec& spec, const WorkloadInput& input) {
  Result<std::map<std::string, std::string>> options =
      OpOptions(spec, input.estimator_seed, spec.num_threads);
  std::string body = "{\"algorithm\":\"" + spec.algorithm +
                     "\",\"label\":\"" + spec.label + "\",\"csv\":\"" +
                     telemetry::JsonEscape(input.csv) + "\",\"options\":{";
  bool first = true;
  if (options.ok()) {
    for (const auto& [key, value] : *options) {
      body += (first ? "\"" : ",\"") + key + "\":\"" + value + "\"";
      first = false;
    }
  }
  return body + "}}";
}

JobLoopResult RunJobLoop(JobServer* server,
                         const std::vector<WorkloadInput>& inputs,
                         const std::vector<std::string>& bodies,
                         const JobLoopOptions& options) {
  JobLoopResult out;
  std::vector<InFlight> inflight;
  size_t next_input = 0;
  int64_t loop_start = NowNs();
  int64_t last_final = loop_start;
  uint16_t port = server->port();
  server->TakeSamples();
  server->set_recording(options.traced);

  // Client round trip, paired with the server's HandleHttp sample for the
  // same request (the server handles requests one at a time, in order).
  auto call = [&](const std::string& method, const std::string& target,
                  const std::string& body,
                  JobServer::HandlerSample* sample) -> Result<HttpResponse> {
    int64_t start = NowNs();
    Result<HttpResponse> response = HttpCall(port, method, target, body);
    int64_t rtt = NowNs() - start;
    if (!options.traced) return response;
    std::vector<JobServer::HandlerSample> samples = server->TakeSamples();
    if (samples.size() == 1) {
      *sample = samples[0];
      std::vector<double>& layer = sample->post ? out.submit_ms : out.poll_ms;
      layer.push_back(static_cast<double>(sample->handle_ns) / 1e6);
      out.transport_ms.push_back(
          static_cast<double>(rtt - sample->handle_ns) / 1e6);
    }
    return response;
  };

  auto submit = [&] {
    size_t input = next_input++ % inputs.size();
    ++out.attempted;
    InFlight job;
    job.record.input = input;
    job.posted_ns = NowNs();
    JobServer::HandlerSample sample;
    Result<HttpResponse> response = call("POST", "/jobs", bodies[input],
                                         &sample);
    if (!response.ok() || response->status != 202) {
      ++out.failed;
      std::fprintf(stderr, "POST /jobs failed: %s\n",
                   response.ok() ? response->body.c_str()
                                 : response.status().ToString().c_str());
      return;
    }
    Result<json::Value> doc = json::Parse(response->body);
    const json::Value* id = doc.ok() ? doc->Find("id") : nullptr;
    if (id == nullptr || !id->is_string()) {
      ++out.failed;
      return;
    }
    job.record.id = id->as_string();
    job.record.posted_trace_us = sample.end_trace_us;
    job.next_poll_ns = job.posted_ns + kPollIntervalNs;
    inflight.push_back(std::move(job));
  };

  auto may_submit = [&] {
    return NowNs() < options.submit_until_ns &&
           (options.max_jobs == 0 || out.attempted < options.max_jobs);
  };

  for (;;) {
    while (inflight.size() < kJobsOutstanding && may_submit()) submit();
    if (inflight.empty()) break;
    auto due = std::min_element(inflight.begin(), inflight.end(),
                                [](const InFlight& a, const InFlight& b) {
                                  return a.next_poll_ns < b.next_poll_ns;
                                });
    int64_t wait = due->next_poll_ns - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    InFlight& job = *due;
    JobServer::HandlerSample sample;
    Result<HttpResponse> response =
        call("GET", "/jobs/" + job.record.id, "", &sample);
    ++out.polls;
    int64_t now = NowNs();
    std::string state;
    Result<json::Value> doc = json::Parse(
        response.ok() && response->status == 200 ? response->body : "");
    if (doc.ok() && doc->Find("state") != nullptr) {
      state = doc->Find("state")->as_string();
    }
    if ((state == "queued" || state == "running") &&
        now - job.posted_ns < kJobTimeoutNs) {
      job.next_poll_ns = std::max(job.next_poll_ns + kPollIntervalNs,
                                  now);
      continue;
    }
    job.record.op_ms = static_cast<double>(now - job.posted_ns) / 1e6;
    job.record.ok = state == "done" &&
                    MatchesReference(*doc, inputs[job.record.input].reference);
    if (!job.record.ok) {
      ++out.failed;
      std::fprintf(stderr, "job %s ended in state '%s'%s\n",
                   job.record.id.c_str(), state.c_str(),
                   state == "done" ? " with a result that differs from the "
                                     "in-process reference"
                                   : "");
    }
    last_final = now;
    out.jobs.push_back(std::move(job.record));
    inflight.erase(due);
  }
  server->set_recording(false);
  out.wall_s = static_cast<double>(last_final - loop_start) / 1e9;

  if (options.traced) {
    // Each job runs as one task of the manager's worker pool. The pool_task
    // span opens before the task installs the job's trace context, so it is
    // found as the pool_task on the thread, and around the time, of the
    // job's earliest span.
    std::vector<telemetry::TraceEvent> events =
        telemetry::TraceBuffer::Global().Snapshot();
    std::sort(events.begin(), events.end(),
              [](const telemetry::TraceEvent& a,
                 const telemetry::TraceEvent& b) { return a.ts_us < b.ts_us; });
    std::map<uint32_t, std::vector<const telemetry::TraceEvent*>> pool_tasks;
    std::map<std::pair<uint64_t, uint64_t>,
             std::vector<const telemetry::TraceEvent*>>
        by_trace;
    for (const telemetry::TraceEvent& event : events) {
      if (event.name == "pool_task") {
        pool_tasks[event.tid].push_back(&event);
      } else {
        by_trace[{event.trace_id_hi, event.trace_id_lo}].push_back(&event);
      }
    }
    auto job_task = [&](const JobSnapshot& snapshot)
        -> const telemetry::TraceEvent* {
      auto spans = by_trace.find(
          {snapshot.trace.trace_id_hi, snapshot.trace.trace_id_lo});
      if (spans == by_trace.end()) return nullptr;
      for (const telemetry::TraceEvent* span : spans->second) {
        for (const telemetry::TraceEvent* task : pool_tasks[span->tid]) {
          if (task->ts_us <= span->ts_us &&
              span->ts_us + span->dur_us <= task->ts_us + task->dur_us) {
            return task;
          }
        }
      }
      return nullptr;
    };
    for (const JobRecord& record : out.jobs) {
      Result<JobSnapshot> snapshot = server->manager().Get(record.id);
      if (!snapshot.ok() || record.posted_trace_us == 0) continue;
      const telemetry::TraceEvent* task = job_task(*snapshot);
      if (task == nullptr) continue;
      // A task that started before its POST's HandleHttp returned did not
      // wait at all.
      out.queue_wait_ms.push_back(
          static_cast<double>(
              std::max<int64_t>(task->ts_us - record.posted_trace_us, 0)) /
          1e3);
      out.exec_ms.push_back(static_cast<double>(task->dur_us) / 1e3);
    }
  }
  return out;
}

}  // namespace e2e
}  // namespace nde
