// util/telemetry + the TimeSeries recorder + util/bench_compare: Prometheus
// exposition golden checks, ring-buffer wraparound, 4-thread concurrent
// appends (the TSan CI job races these, ctest -L obs), an HTTP smoke test
// against a live server on an ephemeral port, and the bench_diff gate's
// pass/fail fixtures.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/bench_compare.hpp"
#include "util/metrics.hpp"
#include "util/socket_io.hpp"
#include "util/telemetry.hpp"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>
#define ADARNET_TEST_SOCKETS 1
#endif

namespace metrics = adarnet::util::metrics;
namespace telemetry = adarnet::util::telemetry;
namespace bc = adarnet::util::bench_compare;

namespace {

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

#ifdef ADARNET_TEST_SOCKETS
// Minimal blocking HTTP GET against 127.0.0.1:port; returns the full
// response (status line + headers + body), or "" on connect failure.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}
#endif

// --- TimeSeries -------------------------------------------------------------

TEST(TimeSeries, WraparoundKeepsNewestOldestFirst) {
  metrics::TimeSeries ts(4);
  for (int i = 0; i < 6; ++i) ts.append(i, 10.0 * i);
  EXPECT_EQ(ts.capacity(), 4u);
  EXPECT_EQ(ts.total(), 6u);
  EXPECT_EQ(ts.size(), 4u);
  const auto pts = ts.snapshot();
  ASSERT_EQ(pts.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(pts[static_cast<std::size_t>(i)].x, 2.0 + i);
    EXPECT_DOUBLE_EQ(pts[static_cast<std::size_t>(i)].y, 10.0 * (2 + i));
  }
}

TEST(TimeSeries, PartialFillSnapshotsInOrder) {
  metrics::TimeSeries ts(8);
  ts.append(1.0, 1.5);
  ts.append(2.0, 2.5);
  const auto pts = ts.snapshot();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].x, 1.0);
  EXPECT_DOUBLE_EQ(pts[1].x, 2.0);
  ts.reset();
  EXPECT_EQ(ts.total(), 0u);
  EXPECT_EQ(ts.snapshot().size(), 0u);
}

TEST(TimeSeries, ConcurrentAppendAndSnapshot) {
  metrics::TimeSeries& ts = metrics::series("test.telemetry.race", 256);
  ts.reset();
  constexpr int kThreads = 4;
  constexpr int kAppends = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ts, t] {
      for (int i = 0; i < kAppends; ++i) {
        ts.append(t * kAppends + i, 1.0);
      }
    });
  }
  // A concurrent reader: every snapshot must be internally consistent
  // (bounded size, all-ones payloads) no matter how it interleaves.
  workers.emplace_back([&ts] {
    for (int i = 0; i < 200; ++i) {
      const auto pts = ts.snapshot();
      ASSERT_LE(pts.size(), 256u);
      for (const auto& p : pts) ASSERT_DOUBLE_EQ(p.y, 1.0);
    }
  });
  for (auto& w : workers) w.join();
  EXPECT_EQ(ts.total(), static_cast<std::uint64_t>(kThreads) * kAppends);
  EXPECT_EQ(ts.size(), 256u);
}

TEST(TimeSeries, RegistryRejectsKindMismatch) {
  metrics::counter("test.telemetry.kind.counter");
  EXPECT_THROW(metrics::series("test.telemetry.kind.counter"),
               std::logic_error);
  metrics::series("test.telemetry.kind.series");
  EXPECT_THROW(metrics::gauge("test.telemetry.kind.series"),
               std::logic_error);
}

TEST(TimeSeries, SeriesJsonHoldsPoints) {
  metrics::TimeSeries& ts = metrics::series("test.telemetry.json", 16);
  ts.reset();
  ts.append(1.0, 0.25);
  ts.append(2.0, 0.125);
  const std::string json = metrics::series_json();
  EXPECT_TRUE(contains(json, "\"test.telemetry.json\""));
  EXPECT_TRUE(contains(json, "[1, 0.25]"));
  EXPECT_TRUE(contains(json, "[2, 0.125]"));
  EXPECT_TRUE(contains(json, "\"capacity\": 16"));
}

// --- Prometheus exposition --------------------------------------------------

TEST(Prometheus, GoldenRendering) {
  metrics::counter("test.prom.counter").add(42);
  metrics::gauge("test.prom.gauge").set(2.5);
  metrics::histogram("test.prom.hist").observe(3);
  metrics::histogram("test.prom.hist").observe(900);

  const std::string text = metrics::prometheus_text();
  // Sanitised name + original dotted name as a label.
  EXPECT_TRUE(contains(text, "# TYPE adarnet_test_prom_counter counter"));
  EXPECT_TRUE(contains(
      text, "adarnet_test_prom_counter{name=\"test.prom.counter\"} 42"));
  EXPECT_TRUE(contains(text, "# TYPE adarnet_test_prom_gauge gauge"));
  EXPECT_TRUE(
      contains(text, "adarnet_test_prom_gauge{name=\"test.prom.gauge\"} 2.5"));
  // Histogram: cumulative le-buckets, +Inf, _sum and _count series.
  EXPECT_TRUE(contains(text, "# TYPE adarnet_test_prom_hist histogram"));
  EXPECT_TRUE(contains(text, "adarnet_test_prom_hist_bucket{"));
  EXPECT_TRUE(contains(text, "le=\"+Inf\"} 2"));
  EXPECT_TRUE(contains(text, "adarnet_test_prom_hist_sum{"));
  EXPECT_TRUE(contains(text, "adarnet_test_prom_hist_count{"));
  // Every sample line ends in a parseable value; spot-check structure: no
  // unsanitised dots in metric names (label values may keep them).
  for (std::size_t pos = 0; (pos = text.find("\nadarnet_", pos)) !=
                            std::string::npos;
       ++pos) {
    const std::size_t brace = text.find('{', pos);
    const std::size_t name_end = std::min(brace, text.find(' ', pos));
    ASSERT_NE(name_end, std::string::npos);
    const std::string name = text.substr(pos + 1, name_end - pos - 1);
    EXPECT_EQ(name.find('.'), std::string::npos) << name;
  }
}

TEST(Prometheus, ExemplarsOnlyInOpenMetrics) {
  metrics::histogram("test.prom.exemplar").observe(5, 0xabcdef12u);

  // Classic 0.0.4 text: exemplars are illegal there and would abort a
  // standard Prometheus scrape, so none may appear (and no "# EOF").
  const std::string classic = metrics::prometheus_text();
  EXPECT_TRUE(contains(classic, "adarnet_test_prom_exemplar_bucket"));
  EXPECT_FALSE(contains(classic, " # {"));
  EXPECT_FALSE(contains(classic, "# EOF"));

  const std::string om = metrics::prometheus_text(/*openmetrics=*/true);
  EXPECT_TRUE(contains(om, " # {trace_id=\"00000000abcdef12\"} 5"));
  ASSERT_GE(om.size(), 6u);
  EXPECT_EQ(om.compare(om.size() - 6, 6, "# EOF\n"), 0)
      << "OpenMetrics exposition must end with # EOF";
}

// --- HTTP server ------------------------------------------------------------

#ifdef ADARNET_TEST_SOCKETS

TEST(TelemetryHttp, ServesEndpointsOnEphemeralPort) {
  ASSERT_FALSE(telemetry::running());  // opt-in: nothing runs by default
  metrics::counter("test.http.counter").add(7);
  metrics::series("test.http.series", 8).append(1.0, 2.0);

  ASSERT_TRUE(telemetry::start(0));  // ephemeral port
  const int port = telemetry::bound_port();
  ASSERT_GT(port, 0);
  EXPECT_FALSE(telemetry::start(0));  // second start refuses

  const std::string health = http_get(port, "/healthz");
  EXPECT_TRUE(contains(health, "200 OK"));
  EXPECT_TRUE(contains(health, "\"status\": \"ok\""));

  const std::string prom = http_get(port, "/metrics");
  EXPECT_TRUE(contains(prom, "text/plain; version=0.0.4"));
  EXPECT_TRUE(contains(prom, "adarnet_test_http_counter"));

  const std::string snap = http_get(port, "/snapshot.json");
  EXPECT_TRUE(contains(snap, "application/json"));
  EXPECT_TRUE(contains(snap, "\"test.http.counter\": 7"));

  const std::string series = http_get(port, "/series.json");
  EXPECT_TRUE(contains(series, "\"test.http.series\""));
  EXPECT_TRUE(contains(series, "[1, 2]"));

  EXPECT_TRUE(contains(http_get(port, "/nope"), "404 Not Found"));
  EXPECT_GE(telemetry::request_count(), 5);

  telemetry::stop();
  EXPECT_FALSE(telemetry::running());
  EXPECT_EQ(telemetry::bound_port(), 0);
  // The port is released: a fresh server can bind again.
  ASSERT_TRUE(telemetry::start(0));
  telemetry::stop();
}

// Regression: a client that connects and never sends a byte used to wedge
// the single-threaded acceptor forever. With per-connection
// SO_RCVTIMEO/SO_SNDTIMEO the stalled peer costs at most the timeout and
// the next request is served.
TEST(TelemetryHttp, StalledClientDoesNotWedgeAcceptor) {
  namespace socket_io = adarnet::util::socket_io;
  telemetry::detail::set_io_timeout_ms(200);
  ASSERT_TRUE(telemetry::start(0));
  const int port = telemetry::bound_port();
  ASSERT_GT(port, 0);

  // The stalled client: connect, send nothing. The acceptor's read on this
  // connection times out after 200 ms.
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::connect(stalled, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Served despite the stalled peer ahead of it in the accept queue. The
  // http_get blocks until the acceptor reaches it — a wedge here hangs the
  // test (and the suite timeout flags it) instead of passing by luck.
  const std::string health = http_get(port, "/healthz");
  EXPECT_TRUE(contains(health, "200 OK"));

  ::close(stalled);
  telemetry::stop();
  telemetry::detail::set_io_timeout_ms(2000);
}

// A request past the acceptor's byte bound — here one whose
// Content-Length claims a megabyte — is refused with 413 from its header
// alone, and the next request is served.
TEST(TelemetryHttp, OversizeRequestRefusedWithoutWedgingAcceptor) {
  namespace socket_io = adarnet::util::socket_io;
  ASSERT_TRUE(telemetry::start(0));
  const int port = telemetry::bound_port();
  ASSERT_GT(port, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  ASSERT_TRUE(socket_io::send_all(
      fd, "POST /metrics HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n"));
  std::string reply;
  char buf[4096];
  for (ssize_t n; (n = socket_io::recv_retry(fd, buf, sizeof(buf))) > 0;) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_TRUE(contains(reply, "413 Content Too Large")) << reply;

  EXPECT_TRUE(contains(http_get(port, "/healthz"), "200 OK"));
  telemetry::stop();
}

// socket_io EINTR discipline: a signal delivered mid-recv (installed
// without SA_RESTART, so the syscall really returns EINTR) must not drop
// the request; recv_retry keeps waiting and returns the payload.
TEST(SocketIo, RecvRetrySurvivesEintr) {
  namespace socket_io = adarnet::util::socket_io;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: recv returns EINTR
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  std::string got;
  std::thread reader([&] {
    char buf[16];
    const ssize_t n = socket_io::recv_retry(sv[0], buf, sizeof(buf));
    if (n > 0) got.assign(buf, static_cast<std::size_t>(n));
  });
  // Interrupt the blocked recv a few times, then deliver the payload.
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::pthread_kill(reader.native_handle(), SIGUSR1);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(::send(sv[1], "ping", 4, 0), 4);
  reader.join();
  EXPECT_EQ(got, "ping");

  ::sigaction(SIGUSR1, &old, nullptr);
  ::close(sv[0]);
  ::close(sv[1]);
}

// send_all must hand the whole payload over short writes: push well past
// the socket buffer while a slow reader drains, and compare byte counts.
TEST(SocketIo, SendAllDeliversAcrossShortWrites) {
  namespace socket_io = adarnet::util::socket_io;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string payload(1 << 20, 'x');
  std::size_t received = 0;
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      const ssize_t n = socket_io::recv_retry(sv[0], buf, sizeof(buf));
      if (n <= 0) break;
      received += static_cast<std::size_t>(n);
    }
  });
  EXPECT_TRUE(socket_io::send_all(sv[1], payload));
  ::shutdown(sv[1], SHUT_WR);
  reader.join();
  EXPECT_EQ(received, payload.size());
  ::close(sv[0]);
  ::close(sv[1]);
}

#endif  // ADARNET_TEST_SOCKETS

TEST(TelemetryRoutes, RespondHandlesMethodsAndPaths) {
  // Socketless route checks via the response builder itself.
  EXPECT_TRUE(contains(telemetry::detail::respond("POST", "/metrics"),
                       "405 Method Not Allowed"));
  EXPECT_TRUE(
      contains(telemetry::detail::respond("GET", "/unknown"), "404"));
  const std::string metrics_rsp =
      telemetry::detail::respond("GET", "/metrics");
  EXPECT_TRUE(contains(metrics_rsp, "200 OK"));
  EXPECT_TRUE(contains(metrics_rsp, "Content-Length: "));
  EXPECT_TRUE(contains(telemetry::detail::respond("HEAD", "/healthz"),
                       "200 OK"));
}

TEST(TelemetryRoutes, MetricsContentNegotiatesOpenMetrics) {
  metrics::histogram("test.route.exemplar").observe(9, 0x77u);

  const std::string classic = telemetry::detail::respond("GET", "/metrics");
  EXPECT_TRUE(contains(classic, "text/plain; version=0.0.4"));
  EXPECT_FALSE(contains(classic, " # {trace_id"));

  const std::string om = telemetry::detail::respond(
      "GET", "/metrics", "application/openmetrics-text; version=1.0.0");
  EXPECT_TRUE(contains(om, "Content-Type: application/openmetrics-text"));
  EXPECT_TRUE(contains(om, " # {trace_id=\"0000000000000077\"} 9"));
  EXPECT_TRUE(contains(om, "# EOF"));

  // Accept negotiation only affects /metrics; JSON endpoints ignore it.
  EXPECT_TRUE(contains(telemetry::detail::respond(
                           "GET", "/healthz", "application/openmetrics-text"),
                       "application/json"));
}

TEST(TelemetryRoutes, HeaderValueLookupIsCaseInsensitive) {
  const std::string req =
      "GET /metrics HTTP/1.1\r\nHost: x\r\n"
      "ACCEPT: \t application/openmetrics-text\r\n\r\n";
  EXPECT_EQ(telemetry::detail::header_value(req, "accept"),
            "application/openmetrics-text");
  EXPECT_EQ(telemetry::detail::header_value(req, "Accept"),
            "application/openmetrics-text");
  EXPECT_EQ(telemetry::detail::header_value(req, "user-agent"), "");
  EXPECT_EQ(telemetry::detail::header_value("GET / HTTP/1.1", "accept"), "");
  // A header name that prefixes another must not match it.
  EXPECT_EQ(telemetry::detail::header_value(req, "acc"), "");
}

TEST(TelemetryEnv, PortParseFailsClosed) {
  // A typo must not open a socket: read as a number prefix, "off" would
  // serve an ephemeral port and "9464x" port 9464.
  for (const char* bad : {"off", "9464x", "-1", "70000", "", " 9464", "+80",
                          "99999999999999999999"}) {
    int port = 123;
    EXPECT_FALSE(telemetry::detail::parse_port(bad, &port)) << bad;
    EXPECT_EQ(port, 123) << bad;
  }
  int port = -1;
  ASSERT_TRUE(telemetry::detail::parse_port("0", &port));
  EXPECT_EQ(port, 0);  // ephemeral
  ASSERT_TRUE(telemetry::detail::parse_port("9464", &port));
  EXPECT_EQ(port, 9464);
  ASSERT_TRUE(telemetry::detail::parse_port("65535", &port));
  EXPECT_EQ(port, 65535);
}

// --- bench_compare (the bench_diff gate) ------------------------------------

TEST(BenchCompare, FlattenNestedNumericLeaves) {
  std::map<std::string, double> out;
  std::string error;
  ASSERT_TRUE(bc::flatten_json(
      R"({"a": 1.5, "b": {"c.d": 2, "list": [3, 4]}, "s": "x", "t": true})",
      out, &error))
      << error;
  EXPECT_DOUBLE_EQ(out.at("a"), 1.5);
  EXPECT_DOUBLE_EQ(out.at("b/c.d"), 2.0);
  EXPECT_DOUBLE_EQ(out.at("b/list/0"), 3.0);
  EXPECT_DOUBLE_EQ(out.at("b/list/1"), 4.0);
  EXPECT_EQ(out.count("s"), 0u);

  std::map<std::string, double> bad;
  EXPECT_FALSE(bc::flatten_json("{\"a\": }", bad, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BenchCompare, ClassifiesKeys) {
  using bc::KeyClass;
  EXPECT_EQ(bc::classify("roofline/by_size/conv.forward.hw16/gflops_per_s"),
            KeyClass::kThroughput);
  EXPECT_EQ(bc::classify("solver/cells_per_s"), KeyClass::kThroughput);
  EXPECT_EQ(bc::classify("speedup_vs_direct"), KeyClass::kThroughput);
  EXPECT_EQ(bc::classify("roofline/totals/nn.gemm/flops"),
            KeyClass::kPortable);
  EXPECT_EQ(bc::classify("roofline/totals/nn.gemm/arithmetic_intensity"),
            KeyClass::kPortable);
  EXPECT_EQ(bc::classify("wall_s"), KeyClass::kIgnored);
  EXPECT_EQ(bc::classify("metrics/gauges/nn.gemm.gflops_per_s"),
            KeyClass::kIgnored);
  // Serving-bench keys: QPS gates like any throughput number, the accept
  // bits gate exactly even under --portable-only, raw latencies do not
  // gate at all (the p99_bounded bit folds the machine in via a same-run
  // ratio).
  EXPECT_EQ(bc::classify("qps"), KeyClass::kThroughput);
  EXPECT_EQ(bc::classify("accept/no_deadlock"), KeyClass::kPortable);
  EXPECT_EQ(bc::classify("accept/shed_before_queue_growth"),
            KeyClass::kPortable);
  EXPECT_EQ(bc::classify("admitted_p99_ms"), KeyClass::kIgnored);
}

TEST(BenchCompare, PassesWithinToleranceFailsBeyond) {
  const std::map<std::string, double> baseline = {
      {"roofline/by_size/k/gflops_per_s", 100.0},
      {"roofline/by_size/k/flops", 1000.0},
  };
  bc::Options opt;  // 15% tolerance

  // 10% slower: within tolerance. Faster: always fine.
  std::map<std::string, double> current = baseline;
  current["roofline/by_size/k/gflops_per_s"] = 90.0;
  EXPECT_TRUE(bc::compare(baseline, current, opt).pass);
  current["roofline/by_size/k/gflops_per_s"] = 250.0;
  EXPECT_TRUE(bc::compare(baseline, current, opt).pass);

  // The acceptance fixture: a synthetic 20% throughput regression fails.
  current["roofline/by_size/k/gflops_per_s"] = 80.0;
  const bc::Report report = bc::compare(baseline, current, opt);
  EXPECT_FALSE(report.pass);
  EXPECT_TRUE(contains(report.to_string(), "REGRESSION"));
  EXPECT_TRUE(contains(report.to_string(), "FAIL"));

  // --portable-only ignores the throughput drop...
  bc::Options portable;
  portable.portable_only = true;
  EXPECT_TRUE(bc::compare(baseline, current, portable).pass);
  // ...but still fails on roofline-model drift and on missing keys.
  current["roofline/by_size/k/gflops_per_s"] = 100.0;
  current["roofline/by_size/k/flops"] = 1100.0;
  EXPECT_FALSE(bc::compare(baseline, current, portable).pass);
  current.erase("roofline/by_size/k/flops");
  const bc::Report missing = bc::compare(baseline, current, portable);
  EXPECT_FALSE(missing.pass);
  ASSERT_EQ(missing.missing.size(), 1u);
  EXPECT_EQ(missing.missing[0], "roofline/by_size/k/flops");
}

TEST(BenchCompare, ReportsNewKeysWithoutFailing) {
  const std::map<std::string, double> baseline = {
      {"roofline/by_size/k/flops", 10.0}};
  std::map<std::string, double> current = baseline;
  current["roofline/by_size/k2/flops"] = 20.0;
  const bc::Report report = bc::compare(baseline, current, bc::Options{});
  EXPECT_TRUE(report.pass);
  ASSERT_EQ(report.added.size(), 1u);
  EXPECT_EQ(report.added[0], "roofline/by_size/k2/flops");
}

}  // namespace
