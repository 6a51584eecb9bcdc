// Load generator + chaos matrix for the hardened serving layer
// (DESIGN.md §13). Not a paper figure: this bench regenerates the
// robustness evidence the ISSUE acceptance demands — overload sheds with
// 503s instead of queue growth, admitted requests stay near their
// deadline-free latency, a too-short deadline degrades to a finite answer,
// and the chaos faults (worker crash, queue storm, stalled client) leave
// the server serving.
//
// Phases:
//   warm      teach the EMA + cache with sequential solves
//   baseline  sequential, deadline-free: p50/p99 reference latency
//   overload  4x queue capacity concurrent clients with a 2x-p99 deadline:
//             shed rate, admitted p50/p99, QPS, queue high-water, RSS
//   deadline  solver.outer.stall + short deadline: degraded-but-finite
//   chaos     serving.worker.crash / serving.queue.storm / stalled client
//   observe   flight-recorder audit (DESIGN.md §15): every shed and every
//             deadline-expired request is retained, a storm request's
//             chrome://tracing doc is served via GET /trace/<id>.json, and
//             per-request phase sums track the request wall within 5%;
//             the recorder state is dumped next to BENCH_serving.json for
//             CI artifact upload on failure
//
// Emits BENCH_serving.json with accept/* bits gated exactly by
// bench_diff --portable-only (machine dependence folded in via same-run
// ratios and slack). Knobs: ADARNET_BENCH_SHRINK (default 4),
// ADARNET_BENCH_SERVING_REQUESTS (baseline count, default 8),
// ADARNET_BENCH_SERVING_MAX_OUTER (per-solve cap, default 40).
#include "common.hpp"

#if defined(_WIN32)
int main() {
  std::printf("bench_serving: POSIX sockets unavailable; skipped\n");
  return 0;
}
#else

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <thread>
#include <vector>

#include "util/fault.hpp"
#include "util/reqctx.hpp"
#include "util/serving.hpp"
#include "util/socket_io.hpp"
#include "util/telemetry.hpp"

namespace {

using namespace adarnet;

struct HttpReply {
  bool ok = false;      ///< transport-level success (connected, got bytes)
  int status = 0;       ///< HTTP status code (0 when !ok)
  std::string body;
  double seconds = 0.0;  ///< connect-to-close wall time
};

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

HttpReply request(int port, const std::string& verb, const std::string& path,
                  const std::string& body) {
  HttpReply reply;
  util::WallTimer timer;
  const int fd = connect_loopback(port);
  if (fd < 0) return reply;
  std::string msg = verb + " " + path + " HTTP/1.1\r\nHost: l\r\n";
  if (!body.empty()) {
    msg += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  msg += "\r\n" + body;
  if (!util::socket_io::send_all(fd, msg)) {
    ::close(fd);
    return reply;
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = util::socket_io::recv_retry(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.body.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  reply.seconds = timer.seconds();
  if (reply.body.size() > 12 && reply.body.rfind("HTTP/1.1 ", 0) == 0) {
    reply.ok = true;
    reply.status = std::atoi(reply.body.c_str() + 9);
  }
  return reply;
}

HttpReply solve(int port, double deadline_ms) {
  std::string body = "{\"case\": \"channel\", \"re\": 2500";
  if (deadline_ms > 0.0) {
    body += ", \"deadline_ms\": " + util::json::number(deadline_ms);
  }
  body += "}";
  return request(port, "POST", "/solve", body);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t at = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(at, v.size() - 1)];
}

/// VmHWM (peak RSS) in MiB from /proc/self/status; 0 where unsupported.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

bool body_has(const HttpReply& r, const std::string& needle) {
  return r.body.find(needle) != std::string::npos;
}

/// The value of a quoted string field in the reply body ("" if absent).
std::string body_field(const HttpReply& r, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = r.body.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = r.body.find('"', start);
  if (end == std::string::npos) return "";
  return r.body.substr(start, end - start);
}

}  // namespace

int main() {
  using util::serving::Server;
  using util::serving::ServingConfig;

  const int baseline_n = bench::env_int("ADARNET_BENCH_SERVING_REQUESTS", 8);

  ServingConfig cfg;
  cfg.wall_preset = bench::wall_preset();
  cfg.body_preset = bench::body_preset();
  cfg.workers = 2;
  cfg.queue_capacity = 4;
  cfg.io_timeout_ms = 300;
  cfg.solver.tol = 5e-4;
  cfg.solver.max_outer = bench::env_int("ADARNET_BENCH_SERVING_MAX_OUTER", 40);

  util::metrics::reset();
  util::fault::reset();
  util::reqctx::recorder().clear();
  // The telemetry server is the contract surface for GET /trace/<id>.json:
  // the overload-trace accept bit below fetches a storm request's span tree
  // through it, exactly as an operator would.
  if (!util::telemetry::running()) util::telemetry::start(0);
  const int tport = util::telemetry::bound_port();
  util::WallTimer run_timer;
  Server server(cfg);
  if (!server.start()) {
    std::fprintf(stderr, "bench_serving: could not start server\n");
    return 1;
  }
  const int port = server.bound_port();

  // --- warm: teach the EMA and fill the (channel, Re=2500) cache entry ----
  for (int i = 0; i < 2; ++i) {
    const HttpReply r = solve(port, 0.0);
    if (!r.ok || r.status != 200) {
      std::fprintf(stderr, "bench_serving: warm request failed (%d)\n",
                   r.status);
      return 1;
    }
  }

  // --- baseline: sequential, deadline-free --------------------------------
  std::vector<double> base_lat;
  for (int i = 0; i < baseline_n; ++i) {
    const HttpReply r = solve(port, 0.0);
    if (r.ok && r.status == 200) base_lat.push_back(r.seconds);
  }
  const double base_p50 = percentile(base_lat, 0.5);
  const double base_p99 = percentile(base_lat, 0.99);
  const double rss_before_mb = peak_rss_mb();

  // --- overload: 4x queue capacity concurrent, deadline 2x baseline p99 ---
  const int storm_n = 4 * (cfg.queue_capacity + cfg.workers);
  const double storm_deadline_ms = std::max(2.0 * base_p99 * 1e3, 100.0);
  std::mutex mu;
  std::vector<double> admitted_lat;
  std::vector<HttpReply> admitted;
  std::vector<std::string> storm_ids;          // trace ids of 200 responses
  std::vector<std::string> storm_expired_ids;  // ... that blew the deadline
  long long shed = 0, failed = 0, deadline_hits = 0;
  util::WallTimer storm_timer;
  {
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(storm_n));
    for (int i = 0; i < storm_n; ++i) {
      clients.emplace_back([&, i] {
        const HttpReply r = solve(port, storm_deadline_ms);
        std::lock_guard<std::mutex> lock(mu);
        if (!r.ok) {
          ++failed;
        } else if (r.status == 503) {
          ++shed;
        } else if (r.status == 200) {
          admitted_lat.push_back(r.seconds);
          if (body_has(r, "\"deadline_hit\": true")) ++deadline_hits;
          const std::string id = body_field(r, "trace_id");
          if (!id.empty()) {
            storm_ids.push_back(id);
            if (body_has(r, "\"deadline_hit\": false")) {
              storm_expired_ids.push_back(id);
            }
          }
          admitted.push_back(r);
        } else {
          ++failed;
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double storm_s = storm_timer.seconds();
  const double adm_p50 = percentile(admitted_lat, 0.5);
  const double adm_p99 = percentile(admitted_lat, 0.99);
  const double rss_after_mb = peak_rss_mb();

  // --- observability: pull a storm request's trace through telemetry ------
  // The contract the ISSUE gates: a request completed during the overload
  // phase can be explained end to end via GET /trace/<id>.json as a
  // chrome://tracing document (metadata + complete events).
  bool overload_trace_ok = false;
  for (const std::string& id : storm_ids) {
    const HttpReply t = request(tport, "GET", "/trace/" + id + ".json", "");
    if (t.ok && t.status == 200 && body_has(t, "\"traceEvents\"") &&
        body_has(t, "\"ph\": \"X\"") && body_has(t, id)) {
      overload_trace_ok = true;
      break;
    }
  }

  // --- deadline: stall-injected solve against a short deadline ------------
  // Each outer iteration sleeps 20 ms; a 150 ms deadline expires a few
  // iterations in, so the response must be the degraded-but-finite path.
  util::fault::arm("solver.outer.stall", {0, -1, 20});
  const HttpReply degraded = solve(port, 150.0);
  util::fault::reset();
  bool degraded_finite =
      degraded.ok && degraded.status == 200 &&
      !body_has(degraded, "nan") && !body_has(degraded, "inf") &&
      (body_has(degraded, "\"cancelled\": true") ||
       !body_has(degraded, "\"service_stage\": \"full\""));

  // --- chaos matrix --------------------------------------------------------
  util::fault::arm("serving.worker.crash", {0, 1, 0});
  const HttpReply crashed = solve(port, 0.0);
  util::fault::reset();
  const HttpReply after_crash = request(port, "GET", "/healthz", "");
  const bool crash_recovered = crashed.ok && crashed.status == 500 &&
                               after_crash.status == 200 &&
                               server.stats().worker_crashes >= 1;

  util::fault::arm("serving.queue.storm", {0, -1, 0});
  const HttpReply stormed = solve(port, 0.0);
  util::fault::reset();
  const bool storm_sheds = stormed.ok && stormed.status == 503 &&
                           body_has(stormed, "retry_after_s");

  bool stalled_timed_out = false;
  {
    // A client that connects and never sends must cost one io_timeout, not
    // a wedged worker: the read times out (408) and the next probe works.
    util::WallTimer stall_timer;
    const int fd = connect_loopback(port);
    if (fd >= 0) {
      char buf[256];
      while (util::socket_io::recv_retry(fd, buf, sizeof(buf)) > 0) {
      }
      ::close(fd);
      stalled_timed_out = stall_timer.seconds() <
                          10.0 * (cfg.io_timeout_ms * 1e-3) + 1.0;
    }
    const HttpReply probe = request(port, "GET", "/healthz", "");
    stalled_timed_out = stalled_timed_out && probe.status == 200;
  }

  const HttpReply final_health = request(port, "GET", "/healthz", "");
  server.stop();
  const auto stats = server.stats();

  // --- flight recorder + attribution verification --------------------------
  auto& rec = util::reqctx::recorder();
  const auto rec_sums = rec.summaries();
  long long rec_shed = 0, rec_expired = 0, rec_expired_retained = 0;
  for (const auto& s : rec_sums) {
    if (s.shed) ++rec_shed;
    if (s.deadline_expired && !s.shed) {
      ++rec_expired;
      if (rec.has_trace(s.trace_id)) ++rec_expired_retained;
    }
  }
  // Every deadline-expired storm response the *clients* saw must still be
  // retrievable as a full trace (tail retention, not sampling luck).
  bool storm_expired_retained = true;
  for (const std::string& id : storm_expired_ids) {
    std::uint64_t tid64 = 0;
    if (!util::reqctx::parse_trace_id(id, &tid64) || !rec.has_trace(tid64)) {
      storm_expired_retained = false;
    }
  }
  const HttpReply reqs_doc = request(tport, "GET", "/requests.json", "");
  const bool requests_endpoint_ok =
      reqs_doc.ok && reqs_doc.status == 200 &&
      body_has(reqs_doc, "\"recorded\"") &&
      body_has(reqs_doc, "\"requests\"");
  const bool recorder_keeps_tail =
      rec_shed >= shed && rec_expired == rec_expired_retained &&
      storm_expired_retained && overload_trace_ok && requests_endpoint_ok;

  // Attribution honesty: for every completed (200, non-shed) request the
  // recorder saw, the per-phase sum — many independent on-thread timers —
  // must land within 5% + 2 ms of the one outer admission-to-finish wall.
  long long attr_checked = 0, attr_failed = 0;
  double attr_max_rel = 0.0;
  for (const auto& s : rec_sums) {
    if (s.shed || s.http_status != 200 || s.wall_s <= 0.0) continue;
    ++attr_checked;
    const double err = std::abs(s.wall_s - s.attributed_seconds());
    if (err > 0.05 * s.wall_s + 2e-3) ++attr_failed;
    attr_max_rel = std::max(attr_max_rel, err / s.wall_s);
  }
  const bool attribution_ok = attr_checked > 0 && attr_failed == 0;

  // Always drop the recorder state next to BENCH_serving.json: on an
  // accept-bit failure CI uploads these as artifacts, so the worst requests
  // arrive with the red build instead of needing a repro.
  bench::write_json("serving_requests.json", rec.requests_json(512));
  {
    std::vector<util::reqctx::RequestSummary> by_wall(rec_sums.begin(),
                                                      rec_sums.end());
    std::sort(by_wall.begin(), by_wall.end(),
              [](const util::reqctx::RequestSummary& a,
                 const util::reqctx::RequestSummary& b) {
                return a.wall_s > b.wall_s;
              });
    int written = 0;
    for (const auto& s : by_wall) {
      if (written >= 3) break;
      std::string trace_doc;
      if (rec.trace_json(s.trace_id, &trace_doc)) {
        bench::write_json(
            "serving_trace_worst" + std::to_string(written) + ".json",
            trace_doc);
        ++written;
      }
    }
  }

  // --- accept bits ---------------------------------------------------------
  // no_deadlock: every phase completed, the final liveness probe answered,
  // and stop() returned (a wedged worker would hang the join above).
  const bool no_deadlock = final_health.status == 200 && !server.running();
  const bool bounded_queue = stats.max_queue_depth <= cfg.queue_capacity;
  // Overload must shed at admission while the queue high-water stays within
  // its bound — the 503s are the evidence that excess load was refused
  // rather than buffered.
  const bool shed_before_growth = shed > 0 && bounded_queue && failed == 0;
  // Admitted p99 vs the same run's deadline-free p99 (ratio + slack folds
  // in the machine): queue wait is capped by the deadline-driven
  // degradation ladder, so 2x + scheduling slack holds even under TSan.
  const bool p99_bounded =
      adm_p99 <= 2.0 * std::max(base_p99, 0.05) + 0.5;
  const bool rss_bounded = rss_after_mb - rss_before_mb < 512.0;

  const double shed_rate =
      static_cast<double>(shed) / static_cast<double>(storm_n);
  const double deadline_hit_rate =
      admitted_lat.empty()
          ? 0.0
          : static_cast<double>(deadline_hits) /
                static_cast<double>(admitted_lat.size());
  const double qps =
      storm_s > 0.0 ? static_cast<double>(storm_n) / storm_s : 0.0;

  util::Table table({"phase", "metric", "value"});
  table.add_row({"baseline", "p50_ms", util::json::number(base_p50 * 1e3)});
  table.add_row({"baseline", "p99_ms", util::json::number(base_p99 * 1e3)});
  table.add_row({"overload", "admitted_p50_ms",
                 util::json::number(adm_p50 * 1e3)});
  table.add_row({"overload", "admitted_p99_ms",
                 util::json::number(adm_p99 * 1e3)});
  table.add_row({"overload", "shed_rate", util::json::number(shed_rate)});
  table.add_row({"overload", "qps", util::json::number(qps)});
  table.add_row({"overload", "deadline_hit_rate",
                 util::json::number(deadline_hit_rate)});
  bench::emit(table, "bench_serving");

  bench::JsonObject accept;
  accept.add("no_deadlock", no_deadlock ? 1.0 : 0.0)
      .add("bounded_queue", bounded_queue ? 1.0 : 0.0)
      .add("shed_before_queue_growth", shed_before_growth ? 1.0 : 0.0)
      .add("p99_bounded", p99_bounded ? 1.0 : 0.0)
      .add("rss_bounded", rss_bounded ? 1.0 : 0.0)
      .add("deadline_degraded_finite", degraded_finite ? 1.0 : 0.0)
      .add("worker_crash_recovered", crash_recovered ? 1.0 : 0.0)
      .add("storm_shed", storm_sheds ? 1.0 : 0.0)
      .add("stalled_client_timeout", stalled_timed_out ? 1.0 : 0.0)
      .add("recorder_keeps_tail", recorder_keeps_tail ? 1.0 : 0.0)
      .add("attribution_sums_to_wall", attribution_ok ? 1.0 : 0.0);

  bench::JsonObject doc;
  doc.add("bench", "serving")
      .add("workers", cfg.workers)
      .add("queue_capacity", cfg.queue_capacity)
      .add("overload_clients", storm_n)
      .add("baseline_p50_ms", base_p50 * 1e3)
      .add("baseline_p99_ms", base_p99 * 1e3)
      .add("admitted_p50_ms", adm_p50 * 1e3)
      .add("admitted_p99_ms", adm_p99 * 1e3)
      .add("qps", qps)
      .add("shed_rate", shed_rate)
      .add("deadline_hit_rate", deadline_hit_rate)
      .add("rss_peak_mb", rss_after_mb)
      .add("shed", shed)
      .add("admitted", static_cast<long long>(admitted_lat.size()))
      .add("max_queue_depth", stats.max_queue_depth)
      .add("worker_crashes", stats.worker_crashes)
      .add("stalled_reads", stats.stalled_reads)
      .add_raw("accept", accept.str());

  // Machine-independent attribution contract (gated exactly by
  // bench_diff --portable-only, like accept/): the phase partition size,
  // the gate tolerances, and the two verdicts. Raw measurements stay in
  // attribution_ms/ below, which bench_diff ignores.
  bench::JsonObject attribution;
  attribution
      .add("phase_count", static_cast<long long>(util::reqctx::kPhaseCount))
      .add("tolerance_rel", 0.05)
      .add("tolerance_abs_ms", 2.0)
      .add("sums_to_wall", attribution_ok ? 1.0 : 0.0)
      .add("recorder_keeps_tail", recorder_keeps_tail ? 1.0 : 0.0);
  doc.add_raw("serving.attribution", attribution.str());

  bench::JsonObject attr_diag;
  attr_diag.add("checked", attr_checked)
      .add("failed", attr_failed)
      .add("max_rel_err", attr_max_rel)
      .add("recorded", rec.recorded())
      .add("traces_retained", rec.traces_retained())
      .add("traces_evicted", rec.traces_evicted())
      .add("shed_recorded", rec_shed)
      .add("deadline_expired_recorded", rec_expired);
  doc.add_raw("attribution_ms", attr_diag.str());
  // No roofline section: how much NN work ran depends on how many requests
  // were admitted (nondeterministic under load), so its flop/byte counts
  // must not become exact-gated keys. The metrics/ snapshot is classified
  // kIgnored, the accept/ bits carry the gate.
  doc.add("wall_s", run_timer.seconds())
      .add_raw("metrics", adarnet::util::metrics::snapshot_json());
  bench::write_json("BENCH_serving.json", doc.str());

  const bool all_accept = no_deadlock && bounded_queue && shed_before_growth &&
                          p99_bounded && rss_bounded && degraded_finite &&
                          crash_recovered && storm_sheds &&
                          stalled_timed_out && recorder_keeps_tail &&
                          attribution_ok;
  std::printf("bench_serving: %s (shed %lld/%d, admitted p99 %.0f ms vs "
              "baseline p99 %.0f ms)\n",
              all_accept ? "all accept bits pass" : "ACCEPT BIT FAILED",
              shed, storm_n, adm_p99 * 1e3, base_p99 * 1e3);
  return all_accept ? 0 : 1;
}

#endif  // _WIN32
