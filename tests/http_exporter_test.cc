#include "telemetry/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/trace_context.h"
#include "importance/game_values.h"
#include "importance/utility.h"
#include "json_checker.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"

namespace nde {
namespace {

// One blocking HTTP GET against 127.0.0.1:port; returns the raw response
// bytes ("" on connect failure).
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

// --- Socket-free router coverage: every endpoint, deterministically. --------

TEST(HttpExporterRoutingTest, HealthzIsOk) {
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /healthz HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_EQ(Body(response), "ok\n");
}

TEST(HttpExporterRoutingTest, MetricsIsPrometheusText) {
  telemetry::MetricsRegistry::Global()
      .GetCounter("http_test.scraped")
      .Increment();
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /metrics HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_NE(response.find("text/plain"), std::string::npos) << response;
  std::string body = Body(response);
  // Prometheus exposition: names mapped to [a-zA-Z0-9_:], HELP/TYPE lines.
  EXPECT_NE(body.find("# TYPE http_test_scraped counter"), std::string::npos)
      << body;
  EXPECT_NE(body.find("http_test_scraped "), std::string::npos) << body;
}

TEST(HttpExporterRoutingTest, VarzIsValidJson) {
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /varz HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  std::string body = Body(response);
  ASSERT_FALSE(body.empty());
  if (body.back() == '\n') body.pop_back();
  EXPECT_TRUE(JsonChecker(body).Valid()) << body;
}

TEST(HttpExporterRoutingTest, TracezIsValidJson) {
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /tracez HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  std::string body = Body(response);
  ASSERT_FALSE(body.empty());
  if (body.back() == '\n') body.pop_back();
  EXPECT_TRUE(JsonChecker(body).Valid()) << body;
}

TEST(HttpExporterRoutingTest, QueryStringsAreStripped) {
  std::string response = telemetry::HttpExporter::HandleRequest(
      "GET /healthz?probe=1 HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_EQ(Body(response), "ok\n");
}

TEST(HttpExporterRoutingTest, VarzMergesFailpointCounters) {
  // /varz must export failpoint hit/fire counters alongside the ordinary
  // metrics: arm a point, hit it, and pin the JSON keys.
  ASSERT_TRUE(failpoint::Arm("http_varz.pin=error(unavailable:pin)").ok());
  ASSERT_TRUE(failpoint::Fire("http_varz.pin").fired());
  failpoint::DisarmAll();

  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /varz HTTP/1.1");
  std::string body = Body(response);
  EXPECT_NE(body.find("\"failpoint.http_varz.pin.hits\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"failpoint.http_varz.pin.fires\""), std::string::npos)
      << body;
  // Name-sorted export: the counters object must list the failpoint keys in
  // lexicographic order (fires before hits).
  size_t fires = body.find("failpoint.http_varz.pin.fires");
  size_t hits = body.find("failpoint.http_varz.pin.hits");
  EXPECT_LT(fires, hits);
}

TEST(HttpExporterRoutingTest, ProfilezServesTextAndFoldedStacks) {
  telemetry::Profiler& profiler = telemetry::Profiler::Global();
  profiler.Reset();
  telemetry::SetEnabled(true);
  ASSERT_TRUE(profiler.Start().ok());
  { telemetry::ScopedSpan span("profilez_frame"); }
  profiler.Stop();
  telemetry::SetEnabled(false);

  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /profilez HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  EXPECT_NE(Body(response).find("profilez_frame"), std::string::npos)
      << Body(response);

  // ?folded=1 downloads raw folded stacks: exactly the "stack count" lines.
  std::string folded = telemetry::HttpExporter::HandleRequest(
      "GET /profilez?folded=1 HTTP/1.1");
  EXPECT_EQ(folded.rfind("HTTP/1.1 200", 0), 0u) << folded;
  std::string body = Body(folded);
  ASSERT_EQ(body.rfind("profilez_frame ", 0), 0u) << body;
  ASSERT_EQ(body.back(), '\n') << body;
  std::string count = body.substr(std::string("profilez_frame ").size());
  count.pop_back();
  EXPECT_FALSE(count.empty()) << body;
  EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos) << body;
  profiler.Reset();
  telemetry::TraceBuffer::Global().Clear();
}

TEST(HttpExporterRoutingTest, UnknownPathIs404AndNonGetIs405) {
  EXPECT_EQ(telemetry::HttpExporter::HandleRequest("GET /nope HTTP/1.1")
                .rfind("HTTP/1.1 404", 0),
            0u);
  EXPECT_EQ(telemetry::HttpExporter::HandleRequest("POST /metrics HTTP/1.1")
                .rfind("HTTP/1.1 405", 0),
            0u);
  EXPECT_EQ(
      telemetry::HttpExporter::HandleRequest("").rfind("HTTP/1.1 4", 0), 0u)
      << "garbage request lines must still get an error response";
}

TEST(HttpExporterRoutingTest, EveryRequestCountsInTheRegistry) {
  telemetry::Counter& requests =
      telemetry::MetricsRegistry::Global().GetCounter(
          "http_exporter.requests");
  uint64_t before = requests.value();
  telemetry::HttpExporter::HandleRequest("GET /healthz HTTP/1.1");
  telemetry::HttpExporter::HandleRequest("GET /nope HTTP/1.1");
  EXPECT_EQ(requests.value(), before + 2);
}

// --- Real sockets: the ISSUE acceptance scenario. ---------------------------

TEST(HttpExporterTest, ServesScrapesWhileAnEstimatorRuns) {
  telemetry::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start(0).ok());
  ASSERT_TRUE(exporter.running());
  uint16_t port = exporter.port();
  ASSERT_NE(port, 0);

  // Profile the run too: spans only exist with telemetry on, and the
  // profiler must be running for ScopedSpan to aggregate them.
  telemetry::SetEnabled(true);
  telemetry::Profiler::Global().Reset();
  ASSERT_TRUE(telemetry::Profiler::Global().Start().ok());

  // A deliberately slow game keeps the estimator busy on another thread
  // while we scrape.
  class SlowGame : public UtilityFunction {
   public:
    double Evaluate(const std::vector<size_t>& subset) const override {
      double sum = 0.0;
      for (size_t i : subset) sum += static_cast<double>(i + 1);
      // Slow enough that the whole estimate spans tens of milliseconds, so
      // the scrapes below land mid-run.
      for (int spin = 0; spin < 2000; ++spin) {
        sum = std::sqrt(sum * sum + 1e-9);
      }
      return std::sqrt(sum);
    }
    size_t num_units() const override { return 12; }
  };
  SlowGame game;
  ImportanceEstimate estimate;
  std::thread estimator([&game, &estimate] {
    TmcShapleyOptions options;
    options.num_permutations = 96;
    options.seed = 5;
    estimate = TmcShapleyValues(game, options).value();
  });

  std::string health = HttpGet(port, "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200", 0), 0u) << health;
  EXPECT_EQ(Body(health), "ok\n");

  std::string metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_NE(Body(metrics).find("# TYPE"), std::string::npos);

  // /profilez answers mid-run; a wave appears only once it closes, so only
  // the transport and shape are asserted here.
  std::string profilez = HttpGet(port, "/profilez");
  EXPECT_EQ(profilez.rfind("HTTP/1.1 200", 0), 0u) << profilez;
  EXPECT_EQ(Body(profilez).rfind("profiler:", 0), 0u) << Body(profilez);

  std::string missing = HttpGet(port, "/definitely-not-here");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404", 0), 0u);

  estimator.join();
  EXPECT_EQ(estimate.values.size(), 12u);
  telemetry::Profiler::Global().Stop();
#if NDE_TELEMETRY_ENABLED
  // Every tmc wave span closed while profiling, so the exact profile holds
  // them. (Without telemetry compiled in there are no spans to observe.)
  EXPECT_NE(telemetry::Profiler::Global().FoldedStacks().find("tmc"),
            std::string::npos)
      << telemetry::Profiler::Global().FoldedStacks();
#endif
  telemetry::Profiler::Global().Reset();
  telemetry::SetEnabled(false);

  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  EXPECT_EQ(exporter.port(), 0);
  exporter.Stop();  // Idempotent.
  EXPECT_TRUE(HttpGet(port, "/healthz").empty())
      << "stopped server must not answer";
}

TEST(HttpExporterTest, StartTwiceFailsAndRestartWorks) {
  telemetry::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start(0).ok());
  EXPECT_FALSE(exporter.Start(0).ok()) << "double Start must fail";
  uint16_t first_port = exporter.port();
  exporter.Stop();
  ASSERT_TRUE(exporter.Start(0).ok());
  EXPECT_NE(exporter.port(), 0);
  std::string health = HttpGet(exporter.port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200", 0), 0u);
  (void)first_port;
  exporter.Stop();
}

// --- Request bodies and the handler hook (the job-API transport). -----------

/// One blocking request with an arbitrary method and body.
std::string HttpSend(uint16_t port, const std::string& method,
                     const std::string& path, const std::string& body) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n"
                        "Content-Length: " + std::to_string(body.size()) +
                        "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpExporterTest, HandlerReceivesMethodTargetAndBody) {
  telemetry::HttpExporter exporter;
  exporter.SetHandler([](const telemetry::HttpRequest& request) {
    return telemetry::MakeHttpResponse(
        200, "OK", "text/plain",
        request.method + " " + request.target + " [" + request.body + "]\n");
  });
  ASSERT_TRUE(exporter.Start(0).ok());
  uint16_t port = exporter.port();

  std::string response = HttpSend(port, "POST", "/jobs", "hello body");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_EQ(Body(response), "POST /jobs [hello body]\n");

  // The handler owns /jobs/<id> and /algorithmz too...
  EXPECT_EQ(Body(HttpSend(port, "DELETE", "/jobs/job-1", "")),
            "DELETE /jobs/job-1 []\n");
  EXPECT_EQ(Body(HttpGet(port, "/algorithmz")), "GET /algorithmz []\n");
  // ...but never the built-in observability endpoints.
  std::string health = HttpGet(port, "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_EQ(Body(health), "ok\n");
  exporter.Stop();
}

TEST(HttpExporterTest, OversizedBodyIs413) {
  telemetry::HttpExporter exporter;
  exporter.SetHandler([](const telemetry::HttpRequest&) {
    return telemetry::MakeHttpResponse(200, "OK", "text/plain", "unreached\n");
  });
  exporter.set_max_body_bytes(16);
  ASSERT_TRUE(exporter.Start(0).ok());
  uint16_t port = exporter.port();

  std::string big(17, 'x');
  std::string response = HttpSend(port, "POST", "/jobs", big);
  EXPECT_EQ(response.rfind("HTTP/1.1 413", 0), 0u) << response;

  std::string small(16, 'x');
  std::string accepted = HttpSend(port, "POST", "/jobs", small);
  EXPECT_EQ(accepted.rfind("HTTP/1.1 200", 0), 0u) << accepted;
  exporter.Stop();
}

TEST(HttpExporterTest, MalformedContentLengthIs400) {
  telemetry::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start(0).ok());
  uint16_t port = exporter.port();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string request =
      "POST /jobs HTTP/1.1\r\nContent-Length: lots\r\n\r\nx";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[1024];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u) << response;
  exporter.Stop();
}

TEST(HttpExporterRoutingTest, DispatchWithoutHandlerMatchesHandleRequest) {
  // The GET surface must be byte-identical whether a request arrives through
  // the legacy request-line entry point or the structured dispatch path.
  // (/metrics and /varz are excluded only because their bodies embed the
  // ever-incrementing request counter.)
  for (const char* path : {"/healthz", "/nope", "/jobs", "/algorithmz"}) {
    telemetry::HttpRequest request;
    request.method = "GET";
    request.target = path;
    telemetry::HttpExporter exporter;
    EXPECT_EQ(exporter.Dispatch(request),
              telemetry::HttpExporter::HandleRequest(
                  std::string("GET ") + path + " HTTP/1.1"))
        << path;
  }
}

// --- Tracing ingress and per-endpoint latency --------------------------------

TEST(HttpExporterRoutingTest, DispatchAdoptsValidTraceparentAndMintsOtherwise) {
  telemetry::HttpExporter exporter;
  exporter.SetHandler([](const telemetry::HttpRequest&) {
    return telemetry::MakeHttpResponse(
        200, "OK", "text/plain", TraceIdHex(CurrentTraceContext()) + "\n");
  });
  telemetry::HttpRequest request;
  request.method = "POST";
  request.target = "/jobs";
  request.traceparent =
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
  EXPECT_EQ(Body(exporter.Dispatch(request)),
            "4bf92f3577b34da6a3ce929d0e0e4736\n");
  // An invalid header is never adopted: a fresh nonzero context is minted.
  request.traceparent = "not-a-traceparent";
  std::string minted = Body(exporter.Dispatch(request));
  ASSERT_EQ(minted.size(), 33u) << minted;
  EXPECT_NE(minted, "4bf92f3577b34da6a3ce929d0e0e4736\n");
  EXPECT_NE(minted, std::string(32, '0') + "\n");
  // The ingress context is uninstalled again once the dispatch returns.
  EXPECT_FALSE(HasTraceContext());
}

TEST(HttpExporterRoutingTest, DispatchRecordsLabeledRequestLatency) {
  telemetry::HttpExporter exporter;
  telemetry::HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  exporter.Dispatch(request);
  request.target = "/jobs/job-123";  // id-bearing, no handler mounted -> 404
  exporter.Dispatch(request);

  telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  // Labeled series collapse job ids to a fixed route-shape vocabulary, and
  // the unlabeled aggregate counts every dispatch.
  EXPECT_GE(snapshot.histograms
                .at("http.request_us{status=\"2xx\",target=\"/healthz\"}")
                .count,
            1u);
  EXPECT_GE(snapshot.histograms
                .at("http.request_us{status=\"4xx\",target=\"/jobs/<id>\"}")
                .count,
            1u);
  EXPECT_GE(snapshot.histograms.at("http.request_us").count, 2u);

  // Pinned Prometheus rendering: labeled samples merge their labels with the
  // le=/quantile= extras, under a single TYPE declaration per family.
  std::string prom = telemetry::MetricsRegistry::Global().ToPrometheusText();
  EXPECT_NE(
      prom.find("http_request_us_count{status=\"2xx\",target=\"/healthz\"}"),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("http_request_us_bucket{status=\"2xx\","
                      "target=\"/healthz\",le=\"+Inf\"}"),
            std::string::npos)
      << prom;
  size_t first = prom.find("# TYPE http_request_us histogram");
  ASSERT_NE(first, std::string::npos) << prom;
  EXPECT_EQ(prom.find("# TYPE http_request_us histogram", first + 1),
            std::string::npos);
}

TEST(HttpExporterTest, TraceparentHeaderIsCapturedFromTheWire) {
  telemetry::HttpExporter exporter;
  exporter.SetHandler([](const telemetry::HttpRequest& request) {
    return telemetry::MakeHttpResponse(200, "OK", "text/plain",
                                       "[" + request.traceparent + "]\n");
  });
  ASSERT_TRUE(exporter.Start(0).ok());
  uint16_t port = exporter.port();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
  // Mixed-case header name: HTTP headers are case-insensitive on the wire.
  std::string request =
      "POST /jobs HTTP/1.1\r\nHost: localhost\r\nTraceparent: " + tp +
      "\r\nContent-Length: 2\r\n\r\nhi";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[1024];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(Body(response), "[" + tp + "]\n") << response;
  exporter.Stop();
}

TEST(HttpExporterRoutingTest, JobPathsWithoutHandlerAre404) {
  // Without a mounted job manager the serving paths fall through to the
  // pre-existing 404, not a crash or an empty response.
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /jobs HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 404", 0), 0u);
  EXPECT_EQ(Body(response),
            "unknown path; try /healthz /metrics /varz /tracez /profilez\n");
}

}  // namespace
}  // namespace nde
