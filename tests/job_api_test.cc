// The async importance-job API (src/nde/job_api.h): submit/poll/cancel
// lifecycle, HTTP request handling, bounded-queue backpressure (429), error
// isolation (a failing job flips /healthz without poisoning later jobs), and
// RunReport artifacts. Uses a test-registered blocking algorithm to make
// queue states deterministic.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/json.h"
#include "common/status.h"
#include "common/trace_context.h"
#include "nde/job_api.h"
#include "nde/registry.h"
#include "telemetry/health.h"
#include "telemetry/http_exporter.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "json_checker.h"

namespace nde {
namespace {

/// Inline CSV small enough for fast jobs but big enough for the 1-in-5
/// validation split to be non-empty.
const char kCsv[] =
    "a,b,label\n"
    "1,2,0\n2,1,1\n3,3,0\n4,1,1\n5,2,0\n"
    "1,3,1\n2,2,0\n3,1,1\n4,4,0\n5,1,1\n"
    "1,1,0\n2,4,1\n3,2,0\n4,2,1\n5,3,0\n"
    "1,4,1\n2,3,0\n3,4,1\n4,3,0\n5,4,1\n";

JobRequest QuickRequest() {
  JobRequest request;
  request.algorithm = "knn_shapley";
  request.label = "label";
  request.csv_data = kCsv;
  request.options = {{"k", "3"}};
  return request;
}

/// Polls until the job leaves queued/running (all jobs here finish fast).
JobSnapshot AwaitDone(const JobManager& manager, const std::string& id) {
  for (int i = 0; i < 2000; ++i) {
    JobSnapshot snapshot = manager.Get(id).value();
    if (snapshot.state != JobState::kQueued &&
        snapshot.state != JobState::kRunning) {
      return snapshot;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "job " << id << " never finished";
  return manager.Get(id).value();
}

TEST(JobApiTest, SubmitPollResultLifecycle) {
  JobManager manager;
  Result<std::string> id = manager.Submit(QuickRequest());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  JobSnapshot done = AwaitDone(manager, *id);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_TRUE(done.error.ok());
  EXPECT_EQ(done.algorithm, "knn_shapley");
  // 20 rows -> 16 train / 4 validation under the engine's 1-in-5 split.
  EXPECT_EQ(done.train_rows, 16u);
  EXPECT_EQ(done.valid_rows, 4u);
  EXPECT_EQ(done.estimate.values.size(), 16u);
  EXPECT_EQ(done.ranked_rows.size(), 16u);
  EXPECT_EQ(done.progress_completed, done.progress_total);
}

TEST(JobApiTest, SubmitValidatesUpFront) {
  JobManager manager;

  JobRequest no_source = QuickRequest();
  no_source.csv_data.clear();
  EXPECT_EQ(manager.Submit(no_source).status().code(),
            StatusCode::kInvalidArgument);

  JobRequest both = QuickRequest();
  both.csv_path = "/tmp/x.csv";
  EXPECT_EQ(manager.Submit(both).status().code(),
            StatusCode::kInvalidArgument);

  JobRequest unknown_algorithm = QuickRequest();
  unknown_algorithm.algorithm = "nope";
  EXPECT_EQ(manager.Submit(unknown_algorithm).status().code(),
            StatusCode::kNotFound);

  JobRequest bad_option = QuickRequest();
  bad_option.options = {{"k", "zero"}};
  EXPECT_EQ(manager.Submit(bad_option).status().code(),
            StatusCode::kInvalidArgument);

  JobRequest unknown_option = QuickRequest();
  unknown_option.options = {{"num_permutations", "8"}};
  EXPECT_EQ(manager.Submit(unknown_option).status().code(),
            StatusCode::kNotFound);

  EXPECT_EQ(manager.Get("job-99").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Cancel("job-99").code(), StatusCode::kNotFound);
}

/// A registry algorithm that blocks until its cancel flag rises — the only
/// way to hold a worker deterministically for queue/cancel tests.
class BlockingAlgorithm : public AlgorithmInstance {
 public:
  BlockingAlgorithm()
      : AlgorithmInstance("test_blocking", "blocks until cancelled") {}
  Result<ImportanceEstimate> Run(const RunInput&) const override {
    while (!cancel_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Cancelled("cancelled mid-run");
  }
};

void EnsureBlockingRegistered() {
  static bool once = [] {
    Status registered = AlgorithmRegistry::Global().Register(
        []() { return std::make_unique<BlockingAlgorithm>(); });
    return registered.ok();
  }();
  ASSERT_TRUE(once);
}

JobRequest BlockingRequest() {
  JobRequest request = QuickRequest();
  request.algorithm = "test_blocking";
  request.options.clear();
  return request;
}

TEST(JobApiTest, FullQueueRefusesWithResourceExhausted) {
  EnsureBlockingRegistered();
  JobApiOptions options;
  options.num_workers = 1;
  options.max_queued = 1;
  JobManager manager(options);

  // First job occupies the single worker; wait until it actually runs so the
  // queue accounting is deterministic.
  std::string running = manager.Submit(BlockingRequest()).value();
  for (int i = 0; i < 2000 && manager.Get(running).value().state !=
                                  JobState::kRunning;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(manager.Get(running).value().state, JobState::kRunning);

  // Second fills the queue; third must bounce with backpressure.
  std::string queued = manager.Submit(BlockingRequest()).value();
  Result<std::string> refused = manager.Submit(BlockingRequest());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  // Cancel both: the queued job only advances once the worker reaches it, so
  // the runner must be released first.
  ASSERT_TRUE(manager.Cancel(queued).ok());
  ASSERT_TRUE(manager.Cancel(running).ok());
  JobSnapshot stopped = AwaitDone(manager, running);
  EXPECT_EQ(stopped.state, JobState::kCancelled);
  JobSnapshot cancelled = AwaitDone(manager, queued);
  EXPECT_EQ(cancelled.state, JobState::kCancelled);
  EXPECT_EQ(cancelled.error.code(), StatusCode::kCancelled);
  EXPECT_TRUE(cancelled.estimate.values.empty());

  // With the queue drained, a new submission is accepted again.
  Result<std::string> retried = manager.Submit(QuickRequest());
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
}

TEST(JobApiTest, DestructorCancelsOutstandingJobs) {
  EnsureBlockingRegistered();
  JobApiOptions options;
  options.num_workers = 1;
  options.max_queued = 4;
  {
    JobManager manager(options);
    manager.Submit(BlockingRequest()).value();
    manager.Submit(BlockingRequest()).value();
    // Destructor must cancel the runner and the queued job and drain.
  }
  SUCCEED();
}

TEST(JobApiTest, FailingJobDegradesHealthAndLaterSuccessRestoresIt) {
  telemetry::SetHealthy();
  failpoint::DisarmAll();
  // Every utility evaluation fails: the estimator aborts on the first wave
  // and the job must surface the injected error, not a partial result.
  ASSERT_TRUE(failpoint::Arm("utility.evaluate=error(io_error:disk gone)").ok());

  JobManager manager;
  JobRequest failing = QuickRequest();
  failing.algorithm = "loo";
  failing.options = {{"max_retries", "0"}};
  std::string id = manager.Submit(failing).value();
  JobSnapshot failed = AwaitDone(manager, id);
  failpoint::DisarmAll();

  EXPECT_EQ(failed.state, JobState::kError);
  EXPECT_FALSE(failed.error.ok());
  EXPECT_TRUE(failed.estimate.values.empty());
  EXPECT_FALSE(telemetry::IsHealthy());

  // The manager keeps serving: a clean job succeeds and restores /healthz.
  std::string clean = manager.Submit(QuickRequest()).value();
  JobSnapshot done = AwaitDone(manager, clean);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_TRUE(telemetry::IsHealthy());
}

TEST(JobApiTest, KnnShapleyPoolFaultEndsInError) {
  telemetry::SetHealthy();
  failpoint::DisarmAll();
  failpoint::ResetStats();
  // 60 rows -> 12 validation points: two 8-point chunks, so the KNN wave
  // fans out over pool tasks. Hit 1 is the job's own Execute task on the
  // manager's pool; every later pool task (the KNN chunks) is killed.
  JobRequest request = QuickRequest();
  std::string csv = kCsv;
  std::string rows = csv.substr(csv.find('\n') + 1);
  request.csv_data = csv + rows + rows;
  request.options = {{"k", "3"}, {"num_threads", "4"}};
  ASSERT_TRUE(
      failpoint::Arm("threadpool.task=error(unavailable:pool down)#2").ok());

  JobManager manager;
  std::string id = manager.Submit(request).value();
  // AwaitDone's poll deadline fails the test if the job is stuck running.
  JobSnapshot failed = AwaitDone(manager, id);
  failpoint::DisarmAll();
  failpoint::ResetStats();

  EXPECT_EQ(failed.state, JobState::kError);
  EXPECT_EQ(failed.error.code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.error.message().find("pool down"), std::string::npos);
  EXPECT_TRUE(failed.estimate.values.empty());
  telemetry::SetHealthy();
}

TEST(JobApiTest, WritesRunReportArtifact) {
  JobApiOptions options;
  options.artifact_dir = ::testing::TempDir() + "nde_job_artifacts";
  JobManager manager(options);
  std::string id = manager.Submit(QuickRequest()).value();
  JobSnapshot done = AwaitDone(manager, id);
  ASSERT_EQ(done.state, JobState::kDone);
  ASSERT_FALSE(done.artifact_path.empty());

  std::FILE* f = std::fopen(done.artifact_path.c_str(), "r");
  ASSERT_NE(f, nullptr) << done.artifact_path;
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  JsonChecker checker(contents);
  EXPECT_TRUE(checker.Valid());
  EXPECT_NE(contents.find("knn_shapley"), std::string::npos);
}

// --- HTTP face ---------------------------------------------------------------

std::string StatusLine(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string Body(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

telemetry::HttpRequest Request(const std::string& method,
                               const std::string& target,
                               const std::string& body = "") {
  telemetry::HttpRequest request;
  request.method = method;
  request.target = target;
  // Mirror the wire parser: the query string arrives split off the target.
  size_t query = request.target.find('?');
  if (query != std::string::npos) {
    request.query = request.target.substr(query + 1);
    request.target.resize(query);
  }
  request.body = body;
  return request;
}

TEST(JobApiHttpTest, AlgorithmzServesTheCatalog) {
  JobManager manager;
  std::string response = manager.HandleHttp(Request("GET", "/algorithmz"));
  EXPECT_NE(StatusLine(response).find("200"), std::string::npos);
  std::string body = Body(response);
  JsonChecker checker(body);
  EXPECT_TRUE(checker.Valid());
  EXPECT_NE(body.find("\"tmc_shapley\""), std::string::npos);
  EXPECT_NE(body.find("\"num_permutations\""), std::string::npos);

  std::string post = manager.HandleHttp(Request("POST", "/algorithmz"));
  EXPECT_NE(StatusLine(post).find("405"), std::string::npos);
}

TEST(JobApiHttpTest, PostPollFetchLifecycle) {
  JobManager manager;
  std::string body =
      "{\"algorithm\":\"knn_shapley\",\"label\":\"label\",\"csv\":";
  // JSON-encode the CSV payload.
  std::string csv;
  for (char c : std::string(kCsv)) {
    if (c == '\n') {
      csv += "\\n";
    } else {
      csv += c;
    }
  }
  body += "\"" + csv + "\",\"options\":{\"k\":3}}";

  std::string response = manager.HandleHttp(Request("POST", "/jobs", body));
  ASSERT_NE(StatusLine(response).find("202"), std::string::npos) << response;
  json::Value accepted = json::Parse(Body(response)).value();
  const json::Value* id = accepted.Find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(accepted.Find("state")->as_string(), "queued");

  // Poll over HTTP until done.
  std::string job_path = "/jobs/" + id->as_string();
  json::Value snapshot = json::Value::Null();
  for (int i = 0; i < 2000; ++i) {
    std::string poll = manager.HandleHttp(Request("GET", job_path));
    ASSERT_NE(StatusLine(poll).find("200"), std::string::npos);
    snapshot = json::Parse(Body(poll)).value();
    const std::string& state = snapshot.Find("state")->as_string();
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(snapshot.Find("state")->as_string(), "done");
  const json::Value* result = snapshot.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("values")->items().size(), 16u);
  EXPECT_EQ(result->Find("ranked_rows")->items().size(), 16u);
  EXPECT_EQ(result->Find("train_rows")->as_number(), 16.0);

  // The job list mentions it; summaries omit the result payload.
  std::string list = manager.HandleHttp(Request("GET", "/jobs"));
  EXPECT_NE(Body(list).find(id->as_string()), std::string::npos);
  EXPECT_EQ(Body(list).find("\"values\""), std::string::npos);
}

TEST(JobApiHttpTest, DoneJobServesFullResultAfterReleasingItsCsv) {
  // A job drops its inline CSV once parsed; everything a client reads from
  // a finished job must come from the parsed results alone.
  JobManager manager;
  std::string id = manager.Submit(QuickRequest()).value();
  JobSnapshot done = AwaitDone(manager, id);
  ASSERT_EQ(done.state, JobState::kDone);

  std::string poll = manager.HandleHttp(Request("GET", "/jobs/" + id));
  ASSERT_NE(StatusLine(poll).find("200"), std::string::npos) << poll;
  json::Value snapshot = json::Parse(Body(poll)).value();
  EXPECT_EQ(snapshot.Find("state")->as_string(), "done");
  const json::Value* result = snapshot.Find("result");
  ASSERT_NE(result, nullptr);
  const auto& values = result->Find("values")->items();
  ASSERT_EQ(values.size(), done.estimate.values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i].as_number(), done.estimate.values[i]) << i;
  }
  const auto& ranked = result->Find("ranked_rows")->items();
  ASSERT_EQ(ranked.size(), done.ranked_rows.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].as_number(), static_cast<double>(done.ranked_rows[i]));
  }
  EXPECT_EQ(result->Find("train_rows")->as_number(), 16.0);

  std::vector<JobSnapshot> listed = manager.List();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].id, id);
  EXPECT_EQ(listed[0].state, JobState::kDone);
  EXPECT_EQ(listed[0].estimate.values, done.estimate.values);
  EXPECT_EQ(listed[0].ranked_rows, done.ranked_rows);
  std::string list = manager.HandleHttp(Request("GET", "/jobs"));
  EXPECT_NE(Body(list).find(id), std::string::npos);
}

TEST(JobApiHttpTest, BadRequestsGetStructuredErrors) {
  JobManager manager;

  std::string malformed = manager.HandleHttp(Request("POST", "/jobs", "{"));
  EXPECT_NE(StatusLine(malformed).find("400"), std::string::npos);
  EXPECT_NE(Body(malformed).find("\"error\""), std::string::npos);

  std::string unknown_field = manager.HandleHttp(Request(
      "POST", "/jobs",
      "{\"algorithm\":\"loo\",\"label\":\"y\",\"csv\":\"x\",\"oops\":1}"));
  EXPECT_NE(StatusLine(unknown_field).find("400"), std::string::npos);

  std::string unknown_algorithm = manager.HandleHttp(Request(
      "POST", "/jobs",
      "{\"algorithm\":\"nope\",\"label\":\"y\",\"csv\":\"a,y\\n1,0\\n\"}"));
  EXPECT_NE(StatusLine(unknown_algorithm).find("404"), std::string::npos);
  EXPECT_NE(Body(unknown_algorithm).find("not_found"), std::string::npos);

  std::string missing_job = manager.HandleHttp(Request("GET", "/jobs/job-9"));
  EXPECT_NE(StatusLine(missing_job).find("404"), std::string::npos);

  std::string bad_method = manager.HandleHttp(Request("PUT", "/jobs"));
  EXPECT_NE(StatusLine(bad_method).find("405"), std::string::npos);
}

TEST(JobApiHttpTest, FullQueueAnswers429) {
  EnsureBlockingRegistered();
  JobApiOptions options;
  options.num_workers = 1;
  options.max_queued = 1;
  JobManager manager(options);

  std::string running = manager.Submit(BlockingRequest()).value();
  for (int i = 0; i < 2000 && manager.Get(running).value().state !=
                                  JobState::kRunning;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  manager.Submit(BlockingRequest()).value();

  std::string body =
      "{\"algorithm\":\"test_blocking\",\"label\":\"label\",\"csv\":\"a\"}";
  std::string refused = manager.HandleHttp(Request("POST", "/jobs", body));
  EXPECT_NE(StatusLine(refused).find("429"), std::string::npos) << refused;
  EXPECT_NE(Body(refused).find("resource_exhausted"), std::string::npos);
}

TEST(JobApiHttpTest, DeleteCancelsARunningJob) {
  EnsureBlockingRegistered();
  JobManager manager;
  std::string id = manager.Submit(BlockingRequest()).value();
  for (int i = 0; i < 2000 &&
                  manager.Get(id).value().state != JobState::kRunning;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::string response = manager.HandleHttp(Request("DELETE", "/jobs/" + id));
  EXPECT_NE(StatusLine(response).find("200"), std::string::npos);

  JobSnapshot stopped = AwaitDone(manager, id);
  EXPECT_EQ(stopped.state, JobState::kCancelled);
  std::string poll = manager.HandleHttp(Request("GET", "/jobs/" + id));
  EXPECT_NE(Body(poll).find("\"cancelled\""), std::string::npos);
}

// --- Trace-context round-trip ------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "";
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  return contents;
}

TEST(JobApiHttpTest, ExternalTraceparentRoundTripsThroughEveryJobView) {
  telemetry::SetEnabled(true);
  telemetry::TraceBuffer::Global().Clear();
  JobApiOptions options;
  options.artifact_dir = ::testing::TempDir() + "nde_trace_artifacts";
  JobManager manager(options);
  telemetry::HttpExporter exporter;
  exporter.SetHandler([&manager](const telemetry::HttpRequest& request) {
    return manager.HandleHttp(request);
  });

  std::string csv;
  for (char c : std::string(kCsv)) {
    csv += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  std::string body =
      "{\"algorithm\":\"knn_shapley\",\"label\":\"label\",\"csv\":\"" + csv +
      "\",\"options\":{\"k\":3}}";

  // Submit through the Dispatch ingress with an externally minted traceparent.
  const std::string kTraceId = "4bf92f3577b34da6a3ce929d0e0e4736";
  telemetry::HttpRequest post = Request("POST", "/jobs", body);
  post.traceparent = "00-" + kTraceId + "-00f067aa0ba902b7-01";
  std::string response = exporter.Dispatch(post);
  ASSERT_NE(StatusLine(response).find("202"), std::string::npos) << response;
  std::string id = json::Parse(Body(response)).value().Find("id")->as_string();

  JobSnapshot done = AwaitDone(manager, id);
  ASSERT_EQ(done.state, JobState::kDone) << done.error.ToString();
  EXPECT_EQ(TraceIdHex(done.trace), kTraceId);

  // The external id propagated verbatim into the poll JSON...
  std::string poll = Body(manager.HandleHttp(Request("GET", "/jobs/" + id)));
  EXPECT_NE(poll.find("\"trace_id\":\"" + kTraceId + "\""), std::string::npos)
      << poll;

  // ...the span view (estimator/pool spans recorded under the job's trace,
  // with parent linkage fields)...
  std::string tracez =
      manager.HandleHttp(Request("GET", "/jobs/" + id + "/tracez"));
  EXPECT_NE(StatusLine(tracez).find("200"), std::string::npos);
  std::string tracez_body = Body(tracez);
  EXPECT_TRUE(JsonChecker(tracez_body).Valid()) << tracez_body;
  EXPECT_NE(tracez_body.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos)
      << tracez_body;
#if NDE_TELEMETRY_ENABLED
  // Span macros compile out with NDE_TELEMETRY=OFF; the view itself (and
  // the trace id on it) must work either way.
  EXPECT_NE(tracez_body.find("\"spans\":[{"), std::string::npos)
      << "job left no spans in the trace buffer: " << tracez_body;
  EXPECT_NE(tracez_body.find("\"parent_span_id\""), std::string::npos);
#endif

  // ...the folded flamegraph view...
  std::string folded = manager.HandleHttp(
      Request("GET", "/jobs/" + id + "/tracez?folded=1"));
  EXPECT_NE(StatusLine(folded).find("200"), std::string::npos);
  EXPECT_NE(folded.find("text/plain"), std::string::npos);

  // ...the wave timeline...
  std::string eventz =
      manager.HandleHttp(Request("GET", "/jobs/" + id + "/eventz"));
  EXPECT_NE(StatusLine(eventz).find("200"), std::string::npos);
  std::string eventz_body = Body(eventz);
  EXPECT_TRUE(JsonChecker(eventz_body).Valid()) << eventz_body;
  EXPECT_NE(eventz_body.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos)
      << eventz_body;
  EXPECT_NE(eventz_body.find("\"waves\":[{\"wave\":1,"), std::string::npos)
      << eventz_body;

  // ...the RunReport artifact and its sibling events file on disk.
  ASSERT_FALSE(done.artifact_path.empty());
  std::string report = ReadWholeFile(done.artifact_path);
  EXPECT_NE(report.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos)
      << done.artifact_path;
  std::string events_file =
      ReadWholeFile(options.artifact_dir + "/" + id + ".events.json");
  EXPECT_TRUE(JsonChecker(events_file).Valid()) << events_file;
  EXPECT_NE(events_file.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos);

  // Unknown views 404 without disturbing the job.
  std::string unknown =
      manager.HandleHttp(Request("GET", "/jobs/" + id + "/nope"));
  EXPECT_NE(StatusLine(unknown).find("404"), std::string::npos);

  telemetry::SetEnabled(false);
  telemetry::TraceBuffer::Global().Clear();
}

TEST(JobApiTest, JobsWithoutIngressContextMintTheirOwnTrace) {
  JobManager manager;
  std::string id = manager.Submit(QuickRequest()).value();
  JobSnapshot done = AwaitDone(manager, id);
  ASSERT_EQ(done.state, JobState::kDone);
  // Even without a caller-supplied traceparent every job owns a nonzero
  // trace id, so logs/metrics attribution never silently degrades.
  EXPECT_TRUE(done.trace.has_trace());
  EXPECT_EQ(done.trace.job_id, id);
  EXPECT_EQ(done.trace.algorithm, "knn_shapley");
}

// --- Finished-job retention -------------------------------------------------

constexpr size_t kRetained = JobManager::kMaxFinishedJobs;

JobApiOptions Workers(size_t num_workers) {
  JobApiOptions options;
  options.num_workers = num_workers;
  return options;
}

void AwaitRunning(const JobManager& manager, const std::string& id) {
  for (int i = 0; i < 2000 &&
                  manager.Get(id).value().state != JobState::kRunning;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(manager.Get(id).value().state, JobState::kRunning);
}

/// Waits for `id` to finish through List(), which, unlike Get, leaves the
/// job unread: a client that has not polled yet.
void AwaitFinishedUnread(const JobManager& manager, const std::string& id) {
  for (int i = 0; i < 2000; ++i) {
    for (const JobSnapshot& snapshot : manager.List()) {
      if (snapshot.id == id && snapshot.state != JobState::kQueued &&
          snapshot.state != JobState::kRunning) {
        return;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "job " << id << " never finished";
}

/// Runs `count` quick jobs one after another, each polled until done.
std::vector<std::string> RunReadJobs(JobManager& manager, size_t count) {
  std::vector<std::string> ids;
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(manager.Submit(QuickRequest()).value());
    EXPECT_EQ(AwaitDone(manager, ids.back()).state, JobState::kDone);
  }
  return ids;
}

std::vector<std::string> ListedIds(const JobManager& manager) {
  std::vector<std::string> ids;
  for (const JobSnapshot& snapshot : manager.List()) ids.push_back(snapshot.id);
  return ids;
}

bool IsEvicted(const Status& status) {
  return status.code() == StatusCode::kNotFound &&
         status.message().find("was evicted") != std::string::npos;
}

TEST(JobRetentionTest, EarliestFinishedJobIsEvictedFirst) {
  JobManager manager(Workers(1));
  std::vector<std::string> ids = RunReadJobs(manager, kRetained + 2);
  EXPECT_TRUE(IsEvicted(manager.Get(ids[0]).status()));
  EXPECT_TRUE(IsEvicted(manager.Get(ids[1]).status()));
  EXPECT_TRUE(manager.Get(ids[2]).ok());
  EXPECT_TRUE(manager.Get(ids.back()).ok());
  std::vector<std::string> listed = ListedIds(manager);
  ASSERT_EQ(listed.size(), kRetained);
  EXPECT_EQ(listed.front(), ids[2]);
  EXPECT_EQ(listed.back(), ids.back());
  // An id never issued is unknown, not evicted.
  Status unknown = manager.Get("job-999999").status();
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  EXPECT_FALSE(IsEvicted(unknown)) << unknown.message();
  EXPECT_FALSE(IsEvicted(manager.Get("job-01").status()));
}

TEST(JobRetentionTest, SlowPollerKeepsItsResultWhileOthersCollectTheirs) {
  JobManager manager(Workers(1));
  std::string slow = manager.Submit(QuickRequest()).value();
  AwaitFinishedUnread(manager, slow);
  // More than kMaxFinishedJobs quick jobs finish and are read after it.
  std::vector<std::string> quick = RunReadJobs(manager, kRetained + 2);
  EXPECT_TRUE(IsEvicted(manager.Get(quick[0]).status()));
  EXPECT_TRUE(IsEvicted(manager.Get(quick[1]).status()));
  EXPECT_TRUE(IsEvicted(manager.Get(quick[2]).status()));
  EXPECT_TRUE(manager.Get(quick[3]).ok());
  // The slow poller finally reads its result; from then on it is the
  // earliest finished job already read, so the next finish evicts it.
  Result<JobSnapshot> late = manager.Get(slow);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(late->state, JobState::kDone);
  EXPECT_FALSE(late->estimate.values.empty());
  RunReadJobs(manager, 1);
  EXPECT_TRUE(IsEvicted(manager.Get(slow).status()));
  EXPECT_TRUE(manager.Get(quick[3]).ok());
}

TEST(JobRetentionTest, UnreadJobsStayBoundedOverManyJobs) {
  JobManager manager(Workers(1));
  std::vector<std::string> ids;
  for (size_t i = 0; i < kRetained + 20; ++i) {
    ids.push_back(manager.Submit(QuickRequest()).value());
    AwaitFinishedUnread(manager, ids.back());
    EXPECT_LE(manager.List().size(), kRetained);
  }
  // With nothing read, the earliest finished go.
  EXPECT_TRUE(IsEvicted(manager.Get(ids[19]).status()));
  EXPECT_TRUE(manager.Get(ids[20]).ok());
}

TEST(JobRetentionTest, QueuedAndRunningJobsSurviveEviction) {
  EnsureBlockingRegistered();
  JobManager manager(Workers(2));
  std::string blocker1 = manager.Submit(BlockingRequest()).value();
  AwaitRunning(manager, blocker1);
  std::vector<std::string> quick = RunReadJobs(manager, kRetained + 1);
  EXPECT_TRUE(IsEvicted(manager.Get(quick[0]).status()));
  EXPECT_EQ(manager.Get(blocker1).value().state, JobState::kRunning);

  // Both workers blocked: the next two jobs wait in the queue, and the
  // second is cancelled before it can start.
  std::string blocker2 = manager.Submit(BlockingRequest()).value();
  AwaitRunning(manager, blocker2);
  std::string queued = manager.Submit(QuickRequest()).value();
  std::string cancelled = manager.Submit(QuickRequest()).value();
  ASSERT_TRUE(manager.Cancel(cancelled).ok());
  EXPECT_EQ(manager.Get(queued).value().state, JobState::kQueued);

  // Releasing blocker1 finishes three jobs on its worker in turn (blocker1,
  // queued, cancelled), each evicting the earliest finished job read.
  ASSERT_TRUE(manager.Cancel(blocker1).ok());
  JobSnapshot last = AwaitDone(manager, cancelled);
  EXPECT_EQ(last.state, JobState::kCancelled);
  EXPECT_EQ(last.error.message(), "job cancelled before it started");
  EXPECT_EQ(manager.Get(queued).value().state, JobState::kDone);
  EXPECT_EQ(manager.Get(blocker2).value().state, JobState::kRunning);
  Result<JobSnapshot> unread = manager.Get(blocker1);
  ASSERT_TRUE(unread.ok()) << unread.status().ToString();
  EXPECT_EQ(unread->state, JobState::kCancelled);
  for (size_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(IsEvicted(manager.Get(quick[i]).status())) << quick[i];
  }
  EXPECT_TRUE(manager.Get(quick[4]).ok());

  ASSERT_TRUE(manager.Cancel(blocker2).ok());
  EXPECT_EQ(AwaitDone(manager, blocker2).state, JobState::kCancelled);
  EXPECT_TRUE(IsEvicted(manager.Get(quick[4]).status()));
  std::vector<std::string> listed = ListedIds(manager);
  ASSERT_EQ(listed.size(), kRetained);
  EXPECT_EQ(listed.front(), blocker1);
  EXPECT_EQ(std::vector<std::string>(listed.end() - 4, listed.end()),
            (std::vector<std::string>{quick.back(), blocker2, queued,
                                      cancelled}));
}

TEST(JobRetentionTest, EvictedIdAnswers404OnEveryViewAndKeepsArtifacts) {
  JobApiOptions options = Workers(1);
  options.artifact_dir = ::testing::TempDir() + "nde_job_retention";
  JobManager manager(options);
  std::vector<std::string> ids = RunReadJobs(manager, kRetained + 1);
  const std::string evicted = "/jobs/" + ids[0];
  for (const auto& [method, target] :
       std::vector<std::pair<std::string, std::string>>{
           {"GET", evicted},
           {"DELETE", evicted},
           {"GET", evicted + "/tracez"},
           {"GET", evicted + "/tracez?folded=1"},
           {"GET", evicted + "/eventz"}}) {
    std::string response = manager.HandleHttp(Request(method, target));
    EXPECT_NE(StatusLine(response).find("404"), std::string::npos)
        << method << " " << target << ": " << response;
    EXPECT_NE(Body(response).find("was evicted"), std::string::npos)
        << method << " " << target << ": " << response;
  }
  std::string list = Body(manager.HandleHttp(Request("GET", "/jobs")));
  EXPECT_EQ(list.find("\"" + ids[0] + "\""), std::string::npos) << list;
  EXPECT_NE(list.find("\"" + ids[1] + "\""), std::string::npos) << list;
  EXPECT_NE(list.find("\"" + ids.back() + "\""), std::string::npos) << list;
  // The evicted job's RunReport and wave timeline stay on disk.
  EXPECT_FALSE(ReadWholeFile(options.artifact_dir + "/" + ids[0] + ".json")
                   .empty());
  EXPECT_FALSE(
      ReadWholeFile(options.artifact_dir + "/" + ids[0] + ".events.json")
          .empty());
}

}  // namespace
}  // namespace nde
