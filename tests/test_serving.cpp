// The hardened serving layer (DESIGN.md §13, ctest -L serving): CancelToken
// semantics, request parsing, concurrent inference on worker replicas, the
// bounded-admission 503 path, deterministic deadline degradation, chaos
// faults (worker crash, queue storm, stalled client), and cooperative
// shutdown. The TSan CI job races the whole suite with fault injection
// enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adarnet/model.hpp"
#include "data/cases.hpp"
#include "data/normalize.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/serving.hpp"
#include "util/socket_io.hpp"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define ADARNET_TEST_SOCKETS 1
#endif

namespace {

using adarnet::util::CancelToken;
namespace fault = adarnet::util::fault;
namespace serving = adarnet::util::serving;
namespace socket_io = adarnet::util::socket_io;

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

// --- concurrent inference ---------------------------------------------------

// Two serving workers run AdarNet::infer at once, each on its own model
// replica, exactly as worker_loop does. The GEMM/conv scratch arena is per
// calling thread, so neither inference touches the other's bump pointer:
// both match a serial run bit for bit, and the TSan job races exactly this.
TEST(ConcurrentInference, TwoReplicasOnTwoThreadsMatchSerial) {
  adarnet::field::FlowField lr(32, 64);
  for (int i = 0; i < lr.ny(); ++i) {
    for (int j = 0; j < lr.nx(); ++j) {
      const double x = static_cast<double>(j) / lr.nx();
      const double y = static_cast<double>(i) / lr.ny();
      lr.U(i, j) = 1.0 + 0.3 * std::sin(6.28 * x) * y;
      lr.V(i, j) = 0.1 * std::cos(6.28 * y);
      lr.p(i, j) = 0.5 * (1.0 - x);
      lr.nuTilda(i, j) = 1e-4 * y * (1.0 - y);
    }
  }
  auto replica = [&lr] {
    adarnet::util::Rng rng(7);
    adarnet::core::AdarNetConfig cfg;
    cfg.ph = 8;
    cfg.pw = 8;
    auto model = std::make_unique<adarnet::core::AdarNet>(cfg, rng);
    model->stats() = adarnet::data::NormStats::fit({lr});
    return model;
  };
  const adarnet::core::InferenceResult reference = replica()->infer(lr);

  constexpr int kRounds = 3;
  std::vector<adarnet::core::InferenceResult> results[2];
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      auto model = replica();
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }  // start together
      for (int r = 0; r < kRounds; ++r) results[w].push_back(model->infer(lr));
    });
  }
  for (std::thread& t : workers) t.join();

  for (int w = 0; w < 2; ++w) {
    ASSERT_EQ(results[w].size(), static_cast<std::size_t>(kRounds));
    for (const adarnet::core::InferenceResult& got : results[w]) {
      ASSERT_EQ(got.patches.size(), reference.patches.size());
      for (std::size_t k = 0; k < got.patches.size(); ++k) {
        const auto& a = got.patches[k];
        const auto& b = reference.patches[k];
        ASSERT_EQ(a.level, b.level) << "worker " << w << " patch " << k;
        for (int c = 0; c < 4; ++c) {
          const auto& ga = a.values.channel(c);
          const auto& gb = b.values.channel(c);
          ASSERT_EQ(ga.size(), gb.size());
          ASSERT_TRUE(std::equal(ga.data(), ga.data() + ga.size(), gb.data()))
              << "worker " << w << " patch " << k << " channel " << c;
        }
      }
    }
  }
}

// --- CancelToken ------------------------------------------------------------

TEST(CancelToken, DefaultNeverExpires) {
  CancelToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_GT(token.remaining_seconds(), 1e20);
}

TEST(CancelToken, CancelIsSticky) {
  CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.expired());
  EXPECT_TRUE(token.expired());  // still
}

TEST(CancelToken, DeadlineExpiresAndClampsRemaining) {
  CancelToken token;
  token.set_deadline_after(0.03);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.expired());
  EXPECT_LE(token.remaining_seconds(), 0.03 + 1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(token.expired());
  EXPECT_DOUBLE_EQ(token.remaining_seconds(), 0.0);
}

TEST(CancelToken, PastDeadlineExpiresImmediately) {
  CancelToken token;
  token.set_deadline_after(-1.0);
  EXPECT_TRUE(token.expired());
}

TEST(CancelToken, ChainedParentFlagCancels) {
  std::atomic<bool> shutdown{false};
  CancelToken token;
  token.chain(&shutdown);
  EXPECT_FALSE(token.expired());
  shutdown.store(true);
  EXPECT_TRUE(token.expired());
}

// --- request parsing --------------------------------------------------------

TEST(SolveRequestParse, DefaultsAndFullBody) {
  serving::SolveRequest req;
  EXPECT_EQ(serving::parse_solve_request("{\"case\": \"channel\"}", req), "");
  EXPECT_EQ(req.case_name, "channel");
  EXPECT_DOUBLE_EQ(req.deadline_s, 0.0);  // server default applies

  serving::SolveRequest full;
  const std::string body =
      "{\"case\": \"naca0012\", \"re\": 2.5e4, \"deadline_ms\": 1500, "
      "\"max_outer\": 300, \"tol\": 1e-3}";
  EXPECT_EQ(serving::parse_solve_request(body, full), "");
  EXPECT_EQ(full.case_name, "naca0012");
  EXPECT_DOUBLE_EQ(full.re, 2.5e4);
  EXPECT_DOUBLE_EQ(full.deadline_s, 1.5);
  EXPECT_EQ(full.max_outer, 300);
  EXPECT_DOUBLE_EQ(full.tol, 1e-3);
}

TEST(SolveRequestParse, RejectsBadValues) {
  serving::SolveRequest req;
  EXPECT_NE(serving::parse_solve_request("{\"case\": \"vortex\"}", req), "");
  EXPECT_NE(serving::parse_solve_request(
                "{\"case\": \"channel\", \"re\": -5}", req),
            "");
  EXPECT_NE(serving::parse_solve_request(
                "{\"case\": \"channel\", \"deadline_ms\": -1}", req),
            "");
  EXPECT_NE(serving::parse_solve_request(
                "{\"case\": \"channel\", \"tol\": 0}", req),
            "");
  EXPECT_NE(serving::parse_solve_request(
                "{\"case\": \"channel\", \"max_outer\": 0}", req),
            "");
  // Reflected unknown names cannot break the 400 body's JSON string.
  serving::SolveRequest inj;
  const std::string err =
      serving::parse_solve_request("{\"case\": \"a\\\"b\"}", inj);
  EXPECT_NE(err, "");
  EXPECT_EQ(err.find('"'), std::string::npos);
}

#ifdef ADARNET_TEST_SOCKETS

// --- live-server fixture ----------------------------------------------------

// Tiny grid + low iteration cap: a full solve takes tens of milliseconds,
// so the suite stays fast while still running the real pipeline.
serving::ServingConfig tiny_config() {
  serving::ServingConfig cfg;
  cfg.wall_preset = adarnet::data::GridPreset{8, 32, 4, 4};
  cfg.body_preset = adarnet::data::GridPreset{8, 32, 4, 4};
  cfg.workers = 2;
  cfg.queue_capacity = 2;
  cfg.io_timeout_ms = 300;
  cfg.solver.max_outer = 20;
  cfg.solver.tol = 5e-4;
  return cfg;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string http(int port, const std::string& verb, const std::string& path,
                 const std::string& body = "") {
  const int fd = connect_loopback(port);
  if (fd < 0) return "";
  std::string msg = verb + " " + path + " HTTP/1.1\r\nHost: t\r\n";
  if (!body.empty()) {
    msg += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  msg += "\r\n" + body;
  if (!socket_io::send_all(fd, msg)) {
    ::close(fd);
    return "";
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = socket_io::recv_retry(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override {
    fault::reset();
    if (server_ != nullptr) server_->stop();
  }

  int start(serving::ServingConfig cfg) {
    server_ = std::make_unique<serving::Server>(cfg);
    EXPECT_TRUE(server_->start());
    return server_->bound_port();
  }

  std::unique_ptr<serving::Server> server_;
};

TEST_F(ServingTest, HealthStatsAndRouting) {
  const int port = start(tiny_config());
  EXPECT_TRUE(contains(http(port, "GET", "/healthz"), "200 OK"));
  const std::string stats = http(port, "GET", "/stats.json");
  EXPECT_TRUE(contains(stats, "\"queue_capacity\": 2"));
  EXPECT_TRUE(contains(http(port, "GET", "/nope"), "404"));
  EXPECT_TRUE(contains(http(port, "DELETE", "/solve"), "405"));
  EXPECT_TRUE(contains(http(port, "POST", "/solve", "{\"case\": \"x\"}"),
                       "400 Bad Request"));
}

TEST_F(ServingTest, SolveReturnsConvergedSummary) {
  auto cfg = tiny_config();
  cfg.solver.max_outer = 400;
  const int port = start(cfg);
  const std::string r =
      http(port, "POST", "/solve", "{\"case\": \"channel\", \"re\": 500}");
  EXPECT_TRUE(contains(r, "200 OK"));
  EXPECT_TRUE(contains(r, "\"service_stage\": \"full\""));
  EXPECT_TRUE(contains(r, "\"cancelled\": false"));
  EXPECT_TRUE(contains(r, "\"deadline_hit\": true"));
  EXPECT_FALSE(contains(r, "nan"));
  const auto stats = server_->stats();
  EXPECT_EQ(stats.stage_full, 1);
  EXPECT_EQ(stats.deadline_misses, 0);
}

TEST_F(ServingTest, QueueStormShedsWith503RetryAfter) {
  auto cfg = tiny_config();
  cfg.retry_after_s = 7;
  const int port = start(cfg);
  fault::arm("serving.queue.storm", {0, -1, 0});
  const std::string r =
      http(port, "POST", "/solve", "{\"case\": \"channel\", \"re\": 500}");
  EXPECT_TRUE(contains(r, "503 Service Unavailable"));
  EXPECT_TRUE(contains(r, "Retry-After: 7"));
  EXPECT_TRUE(contains(r, "\"retry_after_s\": 7"));
  fault::reset();
  // Shedding is stateless: the very next request is admitted and served.
  EXPECT_TRUE(contains(http(port, "GET", "/healthz"), "200 OK"));
  const auto stats = server_->stats();
  EXPECT_GE(stats.shed, 1);
  EXPECT_EQ(stats.max_queue_depth, 1);
}

// Overload the real admission path (no faults): more concurrent clients
// than queue + workers can hold must shed the excess with 503s while every
// admitted request completes, and the queue high-water stays at capacity.
TEST_F(ServingTest, OverloadShedsInsteadOfBuffering) {
  auto cfg = tiny_config();
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  const int port = start(cfg);
  fault::arm("solver.outer.stall", {0, -1, 10});  // each solve >= 200 ms

  constexpr int kClients = 12;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0}, shed{0}, other{0};
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      const std::string r =
          http(port, "POST", "/solve", "{\"case\": \"channel\", \"re\": 500}");
      if (contains(r, "200 OK")) {
        ++ok;
      } else if (contains(r, "503")) {
        ++shed;
      } else {
        ++other;
      }
    });
  }
  for (auto& c : clients) c.join();
  fault::reset();

  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(shed.load(), 0);  // the storm exceeded queue + in-flight
  EXPECT_GT(ok.load(), 0);    // admitted work was served, not dropped
  EXPECT_EQ(ok.load() + shed.load(), kClients);
  const auto stats = server_->stats();
  EXPECT_LE(stats.max_queue_depth, cfg.queue_capacity);
}

// Deterministic deadline degradation: EMA seeded at 10 s tells admission a
// full solve cannot fit a 150 ms deadline, so the request runs capped; the
// stall fault guarantees the token expires mid-solve and the response is
// the degraded-but-finite best iterate with both stages recorded.
TEST_F(ServingTest, ShortDeadlineDegradesToFiniteBestIterate) {
  auto cfg = tiny_config();
  cfg.assumed_full_solve_s = 10.0;
  cfg.solver.max_outer = 1000;
  const int port = start(cfg);
  fault::arm("solver.outer.stall", {0, -1, 20});
  const std::string r = http(
      port, "POST", "/solve",
      "{\"case\": \"channel\", \"re\": 500, \"deadline_ms\": 150}");
  fault::reset();

  EXPECT_TRUE(contains(r, "200 OK"));
  EXPECT_TRUE(contains(r, "\"service_stage\": \"capped\""));
  EXPECT_TRUE(contains(r, "\"cancelled\": true"));
  EXPECT_TRUE(contains(r, "\"converged\": false"));
  EXPECT_TRUE(contains(r, "\"fallback_stage\": "));
  EXPECT_FALSE(contains(r, "nan"));
  EXPECT_FALSE(contains(r, "inf"));
  const auto stats = server_->stats();
  EXPECT_EQ(stats.stage_capped, 1);
  EXPECT_GE(stats.cancelled, 1);
}

// A deadline too short for any solver work falls through to the analytic
// freestream rung (empty cache), still a finite 200.
TEST_F(ServingTest, NearZeroBudgetServesFreestream) {
  auto cfg = tiny_config();
  cfg.assumed_full_solve_s = 10.0;
  const int port = start(cfg);
  const std::string r = http(
      port, "POST", "/solve",
      "{\"case\": \"channel\", \"re\": 500, \"deadline_ms\": 5}");
  EXPECT_TRUE(contains(r, "200 OK"));
  EXPECT_TRUE(contains(r, "\"service_stage\": \"freestream\""));
  EXPECT_TRUE(contains(r, "\"iterations\": 0"));
  EXPECT_FALSE(contains(r, "nan"));
  EXPECT_EQ(server_->stats().stage_freestream, 1);
}

// ...and once a solve has populated the cache, the same near-zero budget
// serves the cached summary instead.
TEST_F(ServingTest, NearZeroBudgetPrefersCachedResult) {
  const int port = start(tiny_config());
  const std::string warm =
      http(port, "POST", "/solve", "{\"case\": \"channel\", \"re\": 500}");
  ASSERT_TRUE(contains(warm, "200 OK"));
  const std::string r = http(
      port, "POST", "/solve",
      "{\"case\": \"channel\", \"re\": 500, \"deadline_ms\": 5}");
  EXPECT_TRUE(contains(r, "200 OK"));
  EXPECT_TRUE(contains(r, "\"service_stage\": \"cached\""));
  EXPECT_TRUE(contains(r, "\"cache\": true"));
  EXPECT_EQ(server_->stats().stage_cached, 1);
}

// Worker-crash chaos: the injected throw mid-dispatch degrades that one
// request to a 500; the worker thread survives and keeps serving.
TEST_F(ServingTest, WorkerCrashDegradesRequestAndServerContinues) {
  const int port = start(tiny_config());
  fault::arm("serving.worker.crash", {0, 1, 0});
  const std::string r =
      http(port, "POST", "/solve", "{\"case\": \"channel\", \"re\": 500}");
  fault::reset();
  EXPECT_TRUE(contains(r, "500 Internal Server Error"));
  EXPECT_TRUE(contains(r, "worker-crash"));

  // Same workers, next request: full service.
  const std::string after =
      http(port, "POST", "/solve", "{\"case\": \"channel\", \"re\": 500}");
  EXPECT_TRUE(contains(after, "200 OK"));
  const auto stats = server_->stats();
  EXPECT_EQ(stats.worker_crashes, 1);
}

// Slow-client chaos on the serving socket: a connection that never sends
// costs one worker at most io_timeout_ms (408), and other clients are
// served meanwhile by the remaining worker.
TEST_F(ServingTest, StalledClientTimesOutWithoutWedgingWorkers) {
  const int port = start(tiny_config());
  const int stalled = connect_loopback(port);
  ASSERT_GE(stalled, 0);

  EXPECT_TRUE(contains(http(port, "GET", "/healthz"), "200 OK"));

  // The stalled connection resolves as a 408 within the io timeout.
  std::string got;
  char buf[512];
  for (;;) {
    const ssize_t n = socket_io::recv_retry(stalled, buf, sizeof(buf));
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
  }
  ::close(stalled);
  EXPECT_TRUE(contains(got, "408 Request Timeout"));
  EXPECT_GE(server_->stats().stalled_reads, 1);
  EXPECT_TRUE(contains(http(port, "GET", "/healthz"), "200 OK"));
}

// Cooperative shutdown under load: stop() flips the chained cancel flag,
// so an in-flight stalled solve returns its best iterate instead of
// holding the join; no thread is killed and stop() completes promptly.
TEST_F(ServingTest, StopCancelsInFlightSolvesCooperatively) {
  auto cfg = tiny_config();
  cfg.solver.max_outer = 100000;
  const int port = start(cfg);
  fault::arm("solver.outer.stall", {0, -1, 10});  // ~17 min uninterrupted

  std::thread client([port] {
    (void)http(port, "POST", "/solve", "{\"case\": \"channel\", \"re\": 500}");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const auto t0 = std::chrono::steady_clock::now();
  server_->stop();
  const double stop_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(stop_s, 10.0);  // cancelled cooperatively, not solved to the cap
  EXPECT_FALSE(server_->running());
  client.join();
  fault::reset();
  EXPECT_GE(server_->stats().cancelled, 0);  // snapshot readable post-stop
}

TEST_F(ServingTest, StartStopIsIdempotentAndRebindable) {
  auto cfg = tiny_config();
  const int port = start(cfg);
  EXPECT_GT(port, 0);
  EXPECT_FALSE(server_->start());  // second start refuses
  server_->stop();
  server_->stop();  // safe to call twice
  EXPECT_TRUE(server_->start());   // port released, fresh bind works
  EXPECT_GT(server_->bound_port(), 0);
}

// The /solve responses counted in /stats.json's trailing-60s window.
long long window_requests(int port) {
  const std::string stats = http(port, "GET", "/stats.json");
  const std::string key = "\"requests\": ";
  const std::size_t win = stats.find("\"window_60s\"");
  const std::size_t at = stats.find(key, win);
  if (win == std::string::npos || at == std::string::npos) return -1;
  return std::stoll(stats.substr(at + key.size()));
}

// The SLO window belongs to its server: a restarted server and a second
// server in the same process start from an empty window.
TEST_F(ServingTest, SloWindowIsPerServerAndRestartsWithIt) {
  const std::string solve = "{\"case\": \"channel\", \"re\": 500}";
  const auto cfg = tiny_config();
  const int port = start(cfg);
  EXPECT_EQ(window_requests(port), 0);
  EXPECT_TRUE(contains(http(port, "POST", "/solve", solve), "200 OK"));
  EXPECT_EQ(window_requests(port), 1);

  server_->stop();
  ASSERT_TRUE(server_->start());
  const int again = server_->bound_port();
  EXPECT_EQ(window_requests(again), 0);
  EXPECT_TRUE(contains(http(again, "POST", "/solve", solve), "200 OK"));
  EXPECT_EQ(window_requests(again), 1);

  serving::Server other(cfg);
  ASSERT_TRUE(other.start());
  EXPECT_EQ(window_requests(other.bound_port()), 0);
  EXPECT_TRUE(
      contains(http(other.bound_port(), "POST", "/solve", solve), "200 OK"));
  EXPECT_EQ(window_requests(other.bound_port()), 1);
  other.stop();
}

// --- socket_io request reader ----------------------------------------------

TEST(SocketIoHttp, ReadsRequestWithContentLength) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string msg =
      "POST /solve HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody";
  ASSERT_TRUE(socket_io::send_all(sv[1], msg));
  std::string out;
  EXPECT_EQ(socket_io::read_http_request(sv[0], out, 4096),
            socket_io::ReadResult::kOk);
  EXPECT_TRUE(contains(out, "POST /solve"));
  EXPECT_TRUE(contains(out, "body"));
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(SocketIoHttp, RejectsOversizedRequest) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string msg = "POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n" +
                          std::string(600, 'x');
  ASSERT_TRUE(socket_io::send_all(sv[1], msg));
  std::string out;
  EXPECT_EQ(socket_io::read_http_request(sv[0], out, 512),
            socket_io::ReadResult::kTooLarge);
  ::close(sv[0]);
  ::close(sv[1]);
}

#endif  // ADARNET_TEST_SOCKETS

}  // namespace
