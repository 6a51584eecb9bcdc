#include "util/serving.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <list>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/reqctx.hpp"
#include "util/rng.hpp"
#include "util/socket_io.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

#ifdef ADARNET_SERVING_SOCKETS
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace adarnet::util::serving {

const char* to_string(ServiceStage stage) {
  switch (stage) {
    case ServiceStage::kFull: return "full";
    case ServiceStage::kCapped: return "capped";
    case ServiceStage::kCached: return "cached";
    case ServiceStage::kFreestream: return "freestream";
  }
  return "unknown";
}

namespace {

// Fixed service policy (DESIGN.md §13).
constexpr int kCacheCapacity = 32;      // LRU entries, (case, Re-bucket) keys
constexpr double kMaxDeadlineS = 300.0; // requested deadlines are clamped
constexpr double kMinSolveS = 0.02;     // below this remaining budget, skip
                                        // the solver (cached / freestream)
constexpr double kFullHeadroom = 1.2;   // full solve only when remaining >
                                        // headroom * EMA(full-solve seconds)
constexpr int kRecorderSlowest = 16;    // slowest-N traces always retained
constexpr int kRecorderSampleEvery = 16;  // head-sample 1 in K boring ones
constexpr unsigned kModelSeed = 2023;   // model replica init seed

// --- flat-JSON request parsing ---------------------------------------------
// The request body is a flat JSON object of string/number fields. This is a
// targeted scanner for that shape (quoted keys, number or quoted-string
// values), not a general JSON parser — util/bench_compare owns the general
// reader, but it drops string leaves, which /solve needs for "case".

bool find_raw_value(const std::string& body, const std::string& key,
                    std::string& out) {
  const std::string needle = "\"" + key + "\"";
  std::size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  at += needle.size();
  while (at < body.size() && (body[at] == ' ' || body[at] == '\t')) ++at;
  if (at >= body.size() || body[at] != ':') return false;
  ++at;
  while (at < body.size() &&
         (body[at] == ' ' || body[at] == '\t' || body[at] == '\n' ||
          body[at] == '\r')) {
    ++at;
  }
  if (at >= body.size()) return false;
  if (body[at] == '"') {
    const std::size_t end = body.find('"', at + 1);
    if (end == std::string::npos) return false;
    out = body.substr(at + 1, end - at - 1);
    return true;
  }
  std::size_t end = at;
  while (end < body.size() && body[end] != ',' && body[end] != '}' &&
         body[end] != '\n' && body[end] != '\r' && body[end] != ' ') {
    ++end;
  }
  out = body.substr(at, end - at);
  return !out.empty();
}

bool parse_number(const std::string& raw, double& out) {
  char* end = nullptr;
  out = std::strtod(raw.c_str(), &end);
  return end != raw.c_str() && std::isfinite(out);
}

using socket_io::http_response;

// --- response summaries -----------------------------------------------------

// The response payload: a summary of the solved state, small enough to
// cache and to ship in one write. (Full-field export stays an io/vtk
// concern; the service contract is the summary + quality/degradation
// metadata.)
struct Summary {
  bool converged = false;
  bool cancelled = false;
  int iterations = 0;
  double residual = 0.0;
  double umax = 0.0;   ///< max speed over the solved composite field
  double umean = 0.0;  ///< mean speed over the solved composite field
  bool finite = true;
  std::string fallback = "none";  ///< pipeline rung (core::FallbackStage)
};

Summary summarize(const core::PipelineResult& r) {
  Summary s;
  s.converged = r.converged;
  s.cancelled = r.cancelled;
  s.iterations = r.ps_iterations;
  s.residual = r.residual;
  s.fallback = core::to_string(r.fallback_stage);
  double umax = 0.0;
  double sum = 0.0;
  long long n = 0;
  const auto& u_patches = r.solution.channel(0);
  const auto& v_patches = r.solution.channel(1);
  for (std::size_t k = 0; k < u_patches.size(); ++k) {
    const auto& u = u_patches[k];
    const auto& v = v_patches[k];
    for (std::size_t i = 0; i < u.size(); ++i) {
      const double speed = std::sqrt(u[i] * u[i] + v[i] * v[i]);
      if (!std::isfinite(speed)) {
        s.finite = false;
        continue;
      }
      umax = std::max(umax, speed);
      sum += speed;
      ++n;
    }
  }
  s.umax = umax;
  s.umean = n > 0 ? sum / static_cast<double>(n) : 0.0;
  return s;
}

std::string summary_json(const SolveRequest& req, ServiceStage stage,
                         const Summary& s, bool deadline_hit, bool from_cache,
                         double queue_s, double solve_s,
                         const std::string& trace_id) {
  std::string out = "{";
  out += "\"case\": \"" + req.case_name + "\"";
  if (!trace_id.empty()) out += ", \"trace_id\": \"" + trace_id + "\"";
  out += ", \"re\": " + json::number(req.re);
  out += ", \"service_stage\": \"" + std::string(to_string(stage)) + "\"";
  out += ", \"fallback_stage\": \"" + s.fallback + "\"";
  out += std::string(", \"converged\": ") + (s.converged ? "true" : "false");
  out += std::string(", \"cancelled\": ") + (s.cancelled ? "true" : "false");
  out += std::string(", \"deadline_hit\": ") + (deadline_hit ? "true" : "false");
  out += std::string(", \"cache\": ") + (from_cache ? "true" : "false");
  out += ", \"iterations\": " + std::to_string(s.iterations);
  out += ", \"residual\": " + json::number(s.residual);
  out += ", \"umax\": " + json::number(s.umax);
  out += ", \"umean\": " + json::number(s.umean);
  out += ", \"queue_s\": " + json::number(queue_s);
  out += ", \"solve_s\": " + json::number(solve_s);
  out += "}\n";
  return out;
}

}  // namespace

std::string parse_solve_request(const std::string& body, SolveRequest& req) {
  std::string raw;
  if (find_raw_value(body, "case", raw)) {
    req.case_name = raw;
  }
  if (find_raw_value(body, "re", raw)) {
    double v = 0.0;
    if (!parse_number(raw, v) || v < 1.0 || v > 1e9) {
      return "re must be a number in [1, 1e9]";
    }
    req.re = v;
  }
  if (find_raw_value(body, "deadline_ms", raw)) {
    double v = 0.0;
    if (!parse_number(raw, v) || v < 0.0) {
      return "deadline_ms must be a non-negative number";
    }
    req.deadline_s = v * 1e-3;
  }
  if (find_raw_value(body, "max_outer", raw)) {
    double v = 0.0;
    if (!parse_number(raw, v) || v < 1.0 || v > 1e6) {
      return "max_outer must be a number in [1, 1e6]";
    }
    req.max_outer = static_cast<int>(v);
  }
  if (find_raw_value(body, "tol", raw)) {
    double v = 0.0;
    if (!parse_number(raw, v) || v <= 0.0 || v > 1.0) {
      return "tol must be a number in (0, 1]";
    }
    req.tol = v;
  }
  static const char* kCases[] = {"channel", "flat_plate", "cylinder",
                                 "naca0012", "naca1412"};
  for (const char* name : kCases) {
    if (req.case_name == name) return "";
  }
  // The reason lands inside a JSON string in the 400 body: reflect the
  // unknown name with JSON-breaking characters blanked, in single quotes.
  std::string shown = req.case_name.substr(0, 32);
  for (char& c : shown) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      c = '_';
    }
  }
  return "unknown case '" + shown +
         "' (channel|flat_plate|cylinder|naca0012|naca1412)";
}

#ifdef ADARNET_SERVING_SOCKETS

// ---------------------------------------------------------------------------

struct Server::Impl {
  explicit Impl(ServingConfig config) : cfg(std::move(config)) {}

  ServingConfig cfg;

  std::mutex lifecycle_mu;  // guards start/stop transitions
  std::atomic<bool> running{false};
  // Chained into every request token: flipping it cooperatively cancels
  // all in-flight solves, so stop() never waits for a full solve.
  std::atomic<bool> shutting_down{false};
  int listen_fd = -1;
  std::atomic<int> port{0};
  std::thread acceptor;
  std::vector<std::thread> workers;

  struct Conn {
    int fd = -1;
    CancelToken::Clock::time_point accepted;
  };
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Conn> queue;

  // Monotonic counters (relaxed: they are diagnostics, not synchronisation).
  std::atomic<long long> n_accepted{0}, n_admitted{0}, n_shed{0},
      n_responses{0}, n_solves{0}, n_deadline_miss{0}, n_cancelled{0},
      n_crashes{0}, n_stalled{0};
  std::atomic<long long> n_stage[4] = {};
  std::atomic<int> max_depth{0};

  // Trailing-60s window / SLO bookkeeping. start_tp anchors the window
  // time axis; last_slo_us throttles gauge recomputation to ~1/s. The
  // window's points belong to this server and restart with it (start()
  // resets them); their rings are preallocated, so the shed path
  // allocates nothing.
  CancelToken::Clock::time_point start_tp{};
  std::atomic<std::int64_t> last_slo_us{0};
  metrics::TimeSeries win_requests, win_good, win_shed, win_deadline;

  // EMA of full-solve wall seconds, driving the degradation decision.
  std::mutex ema_mu;
  double ema_full_s = 0.0;

  // LRU result cache keyed by (case, log-Re bucket).
  struct CacheEntry {
    std::string key;
    Summary summary;
  };
  std::mutex cache_mu;
  std::list<CacheEntry> lru;
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache;

  // --- cache ----------------------------------------------------------------

  static std::string cache_key(const SolveRequest& req) {
    // 16 buckets per Re decade: close-enough scenarios share an entry.
    const long long bucket =
        std::llround(std::log10(std::max(req.re, 1.0)) * 16.0);
    return req.case_name + "/" + std::to_string(bucket);
  }

  bool cache_get(const std::string& key, Summary& out) {
    std::lock_guard<std::mutex> lock(cache_mu);
    const auto it = cache.find(key);
    if (it == cache.end()) return false;
    lru.splice(lru.begin(), lru, it->second);
    out = it->second->summary;
    return true;
  }

  void cache_put(const std::string& key, const Summary& summary) {
    std::lock_guard<std::mutex> lock(cache_mu);
    const auto it = cache.find(key);
    if (it != cache.end()) {
      it->second->summary = summary;
      lru.splice(lru.begin(), lru, it->second);
      return;
    }
    lru.push_front(CacheEntry{key, summary});
    cache[key] = lru.begin();
    while (static_cast<int>(lru.size()) > kCacheCapacity) {
      cache.erase(lru.back().key);
      lru.pop_back();
    }
  }

  // --- admission ------------------------------------------------------------

  void acceptor_loop() {
    while (running.load(std::memory_order_acquire)) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (!running.load(std::memory_order_acquire)) break;
        continue;  // transient accept failure (EINTR etc.)
      }
      n_accepted.fetch_add(1, std::memory_order_relaxed);
      socket_io::set_io_timeout(fd, cfg.io_timeout_ms);

      // Bounded admission: the only buffering between accept and a worker
      // is this fixed-capacity queue. Full (or a storm fault) means an
      // immediate 503 + Retry-After — the shed path allocates nothing and
      // never blocks on the queue, so overload degrades throughput for
      // *new* requests while admitted ones keep their deadline budget.
      const bool storm = fault::fires("serving.queue.storm");
      bool pushed = false;
      std::size_t depth = 0;
      if (!storm) {
        std::lock_guard<std::mutex> lock(queue_mu);
        if (static_cast<int>(queue.size()) < cfg.queue_capacity) {
          queue.push_back(Conn{fd, CancelToken::Clock::now()});
          depth = queue.size();
          pushed = true;
        }
      }
      if (pushed) {
        n_admitted.fetch_add(1, std::memory_order_relaxed);
        int seen = max_depth.load(std::memory_order_relaxed);
        while (static_cast<int>(depth) > seen &&
               !max_depth.compare_exchange_weak(seen,
                                                static_cast<int>(depth))) {
        }
        metrics::gauge("serving.queue.depth")
            .set(static_cast<double>(depth));
        queue_cv.notify_one();
        continue;
      }
      n_shed.fetch_add(1, std::memory_order_relaxed);
      metrics::counter("serving.shed").add();
      const std::string retry_after =
          "Retry-After: " + std::to_string(cfg.retry_after_s) + "\r\n";
      socket_io::send_all(
          fd, http_response("503 Service Unavailable",
                            "{\"error\": \"overloaded\", \"retry_after_s\": " +
                                std::to_string(cfg.retry_after_s) + "}\n",
                            "application/json", retry_after));
      ::close(fd);
      n_responses.fetch_add(1, std::memory_order_relaxed);
      // Shed requests are the tail the flight recorder exists for: record
      // a summary (no context ever existed — the shed path must stay
      // allocation-light) and a window point so the 60 s shed rate and the
      // SLO burn see refused load.
      if (cfg.recorder_depth > 0) {
        reqctx::RequestSummary s;
        s.trace_id = reqctx::next_trace_id();
        s.http_status = 503;
        s.service_stage = "shed";
        s.shed = true;
        s.start_us = trace::detail::now_us();
        s.end_us = s.start_us;
        reqctx::recorder().record_summary(s);
      }
      record_window_shed();
      maybe_update_slo();
    }
  }

  // --- workers --------------------------------------------------------------

  // Per-worker state: a model replica (AdarNet::infer mutates workspaces,
  // so replicas keep workers lock-free) sized to the served patch shape.
  struct WorkerCtx {
    std::unique_ptr<core::AdarNet> model;
  };

  void worker_loop() {
    WorkerCtx ctx;
    {
      util::Rng rng(kModelSeed);
      core::AdarNetConfig mcfg;
      mcfg.ph = cfg.wall_preset.ph;
      mcfg.pw = cfg.wall_preset.pw;
      ctx.model = std::make_unique<core::AdarNet>(mcfg, rng);
    }
    while (true) {
      Conn conn;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [this] {
          return !queue.empty() || !running.load(std::memory_order_acquire);
        });
        if (queue.empty()) return;  // stopped and drained
        conn = queue.front();
        queue.pop_front();
        metrics::gauge("serving.queue.depth")
            .set(static_cast<double>(queue.size()));
      }
      // Request-scoped observability (DESIGN.md §15): the context is born
      // here, charged the queue wait, and bound to this thread for the
      // request, so every trace::Span below lands in its tree and every
      // scope's phase time in its attribution. recorder_depth == 0
      // disarms the whole path (no context, and the span gate stays cold
      // for this thread).
      std::unique_ptr<reqctx::RequestContext> rctx;
      if (cfg.recorder_depth > 0) {
        rctx = std::make_unique<reqctx::RequestContext>(
            reqctx::next_trace_id());
        const double queue_s =
            std::chrono::duration<double>(CancelToken::Clock::now() -
                                          conn.accepted)
                .count();
        rctx->add_phase(reqctx::Phase::kQueue, queue_s);
        // Anchor the trace at admission, not at worker pop, so the queue
        // wait renders at the front of the timeline.
        rctx->meta.start_us -=
            std::llround(std::max(queue_s, 0.0) * 1e6);
      }
      ReqOutcome out;
      bool crashed = false;
      {
        reqctx::Scope scope(rctx.get());
        // The worker guard: a crash mid-dispatch (fault-injected or real)
        // degrades this request to a 500 and the worker lives on.
        // handle_conn never throws after closing the fd, so the fd here is
        // always live.
        try {
          handle_conn(conn, ctx, rctx.get(), out);
        } catch (const std::exception& e) {
          crashed = true;
          out.status = 500;
          n_crashes.fetch_add(1, std::memory_order_relaxed);
          metrics::counter("serving.worker.crashes").add();
          ADR_LOG_WARN << "serving: worker crashed mid-request (" << e.what()
                       << "); degrading to 500 and continuing";
          socket_io::send_all(
              conn.fd, http_response("500 Internal Server Error",
                                     "{\"error\": \"worker-crash\", "
                                     "\"degraded\": true}\n"));
          ::close(conn.fd);
          n_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }  // unbinding settles the request's phase attribution
      if (out.solve_path || crashed) {
        finish_request(conn, out, crashed, rctx.get());
      }
      maybe_update_slo();
    }
  }

  // Per-request outcome channel between handle_conn/handle_solve and the
  // finish/window bookkeeping in worker_loop.
  struct ReqOutcome {
    bool solve_path = false;      ///< routed to POST /solve
    int status = 0;               ///< HTTP status written (0 = none)
    bool deadline_expired = false;
  };

  void handle_conn(const Conn& conn, WorkerCtx& ctx,
                   reqctx::RequestContext* rctx, ReqOutcome& out) {
    std::string response;
    bool routed = false;
    {
      std::string raw;
      socket_io::ReadResult read;
      {
        static constexpr trace::Site kRead{"serving.read", nullptr,
                                           reqctx::Phase::kRead};
        const trace::Span read_span(kRead);
        read = socket_io::read_http_request(conn.fd, raw, 64 * 1024);
      }
      if (read != socket_io::ReadResult::kOk) {
        if (read == socket_io::ReadResult::kTimeout) {
          n_stalled.fetch_add(1, std::memory_order_relaxed);
          metrics::counter("serving.stalled_reads").add();
          out.status = 408;
          response = http_response(
              "408 Request Timeout",
              "{\"error\": \"request read timed out\"}\n");
        } else if (read == socket_io::ReadResult::kTooLarge) {
          out.status = 413;
          response = http_response("413 Content Too Large",
                                   "{\"error\": \"request too large\"}\n");
        }
      } else {
        const auto [method, target] = socket_io::parse_request_line(raw);
        const std::size_t query = target.find('?');
        const std::string path =
            query == std::string::npos ? target : target.substr(0, query);

        routed = true;
        if (path == "/healthz" && (method == "GET" || method == "HEAD")) {
          out.status = 200;
          response = http_response("200 OK", "{\"status\": \"ok\"}\n");
        } else if (path == "/stats.json" &&
                   (method == "GET" || method == "HEAD")) {
          out.status = 200;
          response = http_response("200 OK", stats_json());
        } else if (path == "/solve" && method == "POST") {
          out.solve_path = true;
          std::size_t header_end = raw.find("\r\n\r\n");
          std::size_t skip = 4;
          if (header_end == std::string::npos) {
            header_end = raw.find("\n\n");
            skip = 2;
          }
          const std::string body = header_end == std::string::npos
                                       ? ""
                                       : raw.substr(header_end + skip);
          // Its self time — everything the parse, pipeline, inference and
          // solver scopes below do not cover (LR set-up, normalisation
          // fit, summary, cache) — is the request's pipeline glue.
          static constexpr trace::Site kSolve{
              "serving.solve", nullptr, reqctx::Phase::kPipelineGlue};
          const trace::Span solve_span(kSolve);
          response = handle_solve(body, conn, ctx, rctx, out);
        } else if (path == "/solve" || path == "/healthz" ||
                   path == "/stats.json") {
          out.status = 405;
          response = http_response("405 Method Not Allowed",
                                   "{\"error\": \"method not allowed\"}\n");
        } else {
          out.status = 404;
          response =
              http_response("404 Not Found", "{\"error\": \"not found\"}\n");
        }
      }
    }
    {
      static constexpr trace::Site kRespond{"serving.respond", nullptr,
                                            reqctx::Phase::kRespond};
      const trace::Span respond_span(kRespond);
      if (!response.empty()) socket_io::send_all(conn.fd, response);
      ::close(conn.fd);
    }
    n_responses.fetch_add(1, std::memory_order_relaxed);
    if (routed) metrics::counter("serving.requests").add();
  }

  // Builds the /solve response. Throwing (the injected worker crash) is
  // only legal before any response bytes are written — the worker guard
  // turns it into a 500 on the still-open socket.
  std::string handle_solve(const std::string& body, const Conn& conn,
                           WorkerCtx& ctx, reqctx::RequestContext* rctx,
                           ReqOutcome& out) {
    // Request parse + case-spec construction. Event-free: a request's span
    // tree keeps its serving.read/solve/respond shape.
    static constexpr trace::Site kParse{"serving.parse", nullptr,
                                        reqctx::Phase::kParse, false};
    trace::Span parse_span(kParse);
    SolveRequest req;
    const std::string err = parse_solve_request(body, req);
    if (!err.empty()) {
      out.status = 400;
      return http_response("400 Bad Request",
                           "{\"error\": \"" + err + "\"}\n");
    }
    const std::string tid =
        rctx != nullptr ? reqctx::trace_id_hex(rctx->trace_id())
                        : std::string();
    if (rctx != nullptr) {
      rctx->meta.case_name = req.case_name;
      rctx->meta.re = req.re;
    }

    // The deadline runs from *admission*: queue wait spends the budget, so
    // a request that waited too long degrades instead of starting a solve
    // it can no longer finish.
    const double deadline_s =
        std::min(req.deadline_s > 0.0 ? req.deadline_s : cfg.default_deadline_s,
                 kMaxDeadlineS);
    CancelToken token;
    token.chain(&shutting_down);
    token.set_deadline(conn.accepted +
                       std::chrono::duration_cast<CancelToken::Clock::duration>(
                           std::chrono::duration<double>(deadline_s)));
    const double queue_s = std::chrono::duration<double>(
                               CancelToken::Clock::now() - conn.accepted)
                               .count();

    if (fault::fires("serving.worker.crash")) {
      throw std::runtime_error("injected worker crash (serving.worker.crash)");
    }

    mesh::CaseSpec spec;
    if (req.case_name == "channel") {
      spec = data::channel_case(req.re, cfg.wall_preset);
    } else if (req.case_name == "flat_plate") {
      spec = data::flat_plate_case(req.re, cfg.wall_preset);
    } else if (req.case_name == "cylinder") {
      spec = data::cylinder_case(req.re, cfg.body_preset);
    } else if (req.case_name == "naca0012") {
      spec = data::naca0012_case(req.re, cfg.body_preset);
    } else {
      spec = data::naca1412_case(req.re, cfg.body_preset);
    }
    parse_span.stop();

    // --- the service degradation ladder ------------------------------------
    const double remaining = token.remaining_seconds();
    double ema = 0.0;
    {
      std::lock_guard<std::mutex> lock(ema_mu);
      if (ema_full_s == 0.0) ema_full_s = cfg.assumed_full_solve_s;
      ema = ema_full_s;
    }
    ServiceStage stage = ServiceStage::kFull;
    if (remaining <= kMinSolveS) {
      Summary cached;
      if (cache_get(cache_key(req), cached)) {
        out.status = 200;
        record_stage(ServiceStage::kCached, rctx);
        record_deadline(token, out, rctx);
        return http_response(
            "200 OK", summary_json(req, ServiceStage::kCached, cached,
                                   !token.expired(), true, queue_s, 0.0,
                                   tid));
      }
      stage = ServiceStage::kFreestream;
    } else if (ema > 0.0 && remaining < kFullHeadroom * ema) {
      stage = ServiceStage::kCapped;
    }

    if (stage == ServiceStage::kFreestream) {
      // O(1) analytic fallback: the freestream state the solver would be
      // seeded from — finite, honest about its quality (converged false,
      // residual 1 by definition of the normalised defect at freestream).
      Summary s;
      s.converged = false;
      s.cancelled = token.expired();
      s.iterations = 0;
      s.residual = 1.0;
      s.umax = spec.u_ref;
      s.umean = spec.u_ref;
      out.status = 200;
      if (rctx != nullptr) rctx->meta.cancelled = s.cancelled;
      record_stage(stage, rctx);
      record_deadline(token, out, rctx);
      return http_response("200 OK",
                           summary_json(req, stage, s, !token.expired(),
                                        false, queue_s, 0.0, tid));
    }

    // --- DNN + physics solve (full or capped budget) ------------------------
    core::PipelineConfig pcfg;
    pcfg.lr_solver = cfg.solver;
    pcfg.ps_solver = cfg.solver;
    pcfg.cancel = &token;
    // The LR solve below runs outside run_adarnet_pipeline (so the field
    // can be reused for the per-request normalisation fit); it needs the
    // token on its own config.
    pcfg.lr_solver.cancel = &token;
    if (req.tol > 0.0) {
      pcfg.lr_solver.tol = req.tol;
      pcfg.ps_solver.tol = req.tol;
    }
    if (req.max_outer > 0) {
      pcfg.lr_solver.max_outer = req.max_outer;
      pcfg.ps_solver.max_outer = req.max_outer;
    }
    if (stage == ServiceStage::kCapped) {
      // Budget the outer iterations by the remaining fraction of a typical
      // full solve. The token still guards the tail, so an optimistic cap
      // costs at most one extra iteration past the deadline.
      const double scale = remaining / std::max(ema, 1e-9);
      const auto budget = [&](int base) {
        const int scaled = static_cast<int>(static_cast<double>(base) * scale);
        return std::clamp(scaled, 8, base);
      };
      pcfg.lr_solver.max_outer = budget(pcfg.lr_solver.max_outer);
      pcfg.ps_solver.max_outer = budget(pcfg.ps_solver.max_outer);
    }

    n_solves.fetch_add(1, std::memory_order_relaxed);
    WallTimer solve_timer;
    solver::SolveStats lr_stats;
    field::FlowField lr = data::solve_lr(spec, pcfg.lr_solver, &lr_stats);
    ctx.model->stats() = data::NormStats::fit({lr});
    const core::PipelineResult result = core::run_adarnet_pipeline(
        *ctx.model, spec, pcfg, lr, solve_timer.seconds(),
        lr_stats.iterations);
    const double solve_s = solve_timer.seconds();

    Summary s = summarize(result);
    if (result.cancelled || lr_stats.cancelled) {
      s.cancelled = true;
      n_cancelled.fetch_add(1, std::memory_order_relaxed);
      metrics::counter("serving.cancelled").add();
    }

    // Learn the cost of a *full* uncancelled solve; degraded runs would
    // bias the estimate optimistic and re-promote work the deadline can't
    // afford.
    if (stage == ServiceStage::kFull && !s.cancelled) {
      std::lock_guard<std::mutex> lock(ema_mu);
      ema_full_s = ema_full_s == 0.0 ? solve_s
                                     : 0.7 * ema_full_s + 0.3 * solve_s;
    }
    if (s.finite && s.iterations > 0) {
      cache_put(cache_key(req), s);
    }
    out.status = 200;
    if (rctx != nullptr) rctx->meta.cancelled = s.cancelled;
    record_stage(stage, rctx);
    record_deadline(token, out, rctx);
    return http_response("200 OK",
                         summary_json(req, stage, s, !token.expired(), false,
                                      queue_s, solve_s, tid));
  }

  void record_stage(ServiceStage stage, reqctx::RequestContext* rctx) {
    n_stage[static_cast<int>(stage)].fetch_add(1, std::memory_order_relaxed);
    metrics::counter(std::string("serving.stage.") + to_string(stage)).add();
    if (rctx != nullptr) rctx->meta.service_stage = to_string(stage);
  }

  // NB: the /solve JSON reports "deadline_hit": true when the response made
  // its deadline (call sites pass !token.expired()); the recorder summary
  // stores the opposite-sense deadline_expired flag. Both come from here.
  void record_deadline(const CancelToken& token, ReqOutcome& out,
                       reqctx::RequestContext* rctx) {
    const bool expired = token.expired();
    out.deadline_expired = expired;
    if (rctx != nullptr) rctx->meta.deadline_expired = expired;
    if (expired) {
      n_deadline_miss.fetch_add(1, std::memory_order_relaxed);
      metrics::counter("serving.deadline_miss").add();
    }
  }

  // --- windowed rates + SLO (DESIGN.md §15) --------------------------------
  // Each finished /solve (and each shed) lands one point in a
  // metrics::TimeSeries keyed by seconds-since-start; readers count the
  // points inside the trailing 60 s. Under sustained overload the ring
  // capacity degrades the window to "the most recent N events", which still
  // orders the burn rate correctly.

  double now_s() const {
    return std::chrono::duration<double>(CancelToken::Clock::now() -
                                         start_tp)
        .count();
  }

  void record_window_request(double wall_s, bool good,
                             bool deadline_expired) {
    const double t = now_s();
    win_requests.append(t, wall_s);
    win_good.append(t, good ? 1.0 : 0.0);
    if (deadline_expired) win_deadline.append(t, 1.0);
  }

  void record_window_shed() { win_shed.append(now_s(), 1.0); }

  struct WindowStats {
    double span_s = 0.0;      ///< min(uptime, 60 s)
    long long requests = 0;   ///< /solve responses in the window
    long long good = 0;       ///< ... that met the SLO
    long long shed = 0;       ///< 503s at admission in the window
    long long deadline_misses = 0;
    double qps = 0.0;         ///< offered load: (requests + shed) / span
    double shed_rate = 0.0;
    double deadline_miss_rate = 0.0;
    double good_rate = 1.0;   ///< good / offered (shed counts against it)
    double burn_rate = 0.0;   ///< (1 - good_rate) / (1 - availability)
  };

  WindowStats window_stats() {
    WindowStats w;
    const double now = now_s();
    const double lo = now - 60.0;
    for (const auto& p : win_requests.snapshot()) {
      if (p.x >= lo) ++w.requests;
    }
    for (const auto& p : win_good.snapshot()) {
      if (p.x >= lo && p.y > 0.5) ++w.good;
    }
    for (const auto& p : win_shed.snapshot()) {
      if (p.x >= lo) ++w.shed;
    }
    for (const auto& p : win_deadline.snapshot()) {
      if (p.x >= lo) ++w.deadline_misses;
    }
    w.span_s = std::clamp(now, 1e-9, 60.0);
    const long long offered = w.requests + w.shed;
    w.qps = static_cast<double>(offered) / w.span_s;
    if (offered > 0) {
      w.shed_rate =
          static_cast<double>(w.shed) / static_cast<double>(offered);
      w.good_rate =
          static_cast<double>(w.good) / static_cast<double>(offered);
    }
    if (w.requests > 0) {
      w.deadline_miss_rate = static_cast<double>(w.deadline_misses) /
                             static_cast<double>(w.requests);
    }
    w.burn_rate = (1.0 - w.good_rate) /
                  std::max(1e-9, 1.0 - cfg.slo_availability);
    return w;
  }

  void maybe_update_slo() {
    const std::int64_t now_us = trace::detail::now_us();
    std::int64_t last = last_slo_us.load(std::memory_order_relaxed);
    if (now_us - last < 1000000 &&
        last != 0) {  // at most ~1 recompute per second
      return;
    }
    if (!last_slo_us.compare_exchange_strong(last, now_us,
                                             std::memory_order_relaxed)) {
      return;  // another thread is on it
    }
    const WindowStats w = window_stats();
    metrics::gauge("serving.window.qps").set(w.qps);
    metrics::gauge("serving.window.shed_rate").set(w.shed_rate);
    metrics::gauge("serving.window.deadline_miss_rate")
        .set(w.deadline_miss_rate);
    metrics::gauge("serving.slo.good_rate").set(w.good_rate);
    metrics::gauge("serving.slo.burn_rate").set(w.burn_rate);
  }

  // Request epilogue: latency histogram (with the trace id as an
  // OpenMetrics exemplar), window point, and the flight-recorder hand-off.
  // Runs for every /solve and every worker crash; plain GETs stay out of
  // the request-flow accounting.
  void finish_request(const Conn& conn, const ReqOutcome& out, bool crashed,
                      reqctx::RequestContext* rctx) {
    const double wall_s = std::chrono::duration<double>(
                              CancelToken::Clock::now() - conn.accepted)
                              .count();
    const bool good = out.status == 200 && !out.deadline_expired &&
                      wall_s * 1e3 <= cfg.slo_latency_ms;
    metrics::histogram("serving.latency.ns")
        .observe(std::llround(wall_s * 1e9),
                 rctx != nullptr ? rctx->trace_id() : 0);
    record_window_request(wall_s, good, out.deadline_expired);
    if (rctx != nullptr) {
      rctx->meta.wall_s = wall_s;
      rctx->meta.http_status = out.status;
      rctx->meta.worker_crash = crashed;
      rctx->finalize(trace::detail::now_us());
      reqctx::recorder().record(std::move(*rctx));
    }
  }

  std::string stats_json() {
    const ServerStats s = snapshot();
    std::string out = "{";
    out += "\"accepted\": " + std::to_string(s.accepted);
    out += ", \"admitted\": " + std::to_string(s.admitted);
    out += ", \"shed\": " + std::to_string(s.shed);
    out += ", \"responses\": " + std::to_string(s.responses);
    out += ", \"solves\": " + std::to_string(s.solves);
    out += ", \"deadline_misses\": " + std::to_string(s.deadline_misses);
    out += ", \"cancelled\": " + std::to_string(s.cancelled);
    out += ", \"worker_crashes\": " + std::to_string(s.worker_crashes);
    out += ", \"stalled_reads\": " + std::to_string(s.stalled_reads);
    out += ", \"max_queue_depth\": " + std::to_string(s.max_queue_depth);
    out += ", \"queue_capacity\": " + std::to_string(cfg.queue_capacity);
    out += ", \"stages\": {\"full\": " + std::to_string(s.stage_full);
    out += ", \"capped\": " + std::to_string(s.stage_capped);
    out += ", \"cached\": " + std::to_string(s.stage_cached);
    out += ", \"freestream\": " + std::to_string(s.stage_freestream);
    out += "}";
    const WindowStats w = window_stats();
    out += ", \"window_60s\": {";
    out += "\"span_s\": " + json::number(w.span_s);
    out += ", \"requests\": " + std::to_string(w.requests);
    out += ", \"shed\": " + std::to_string(w.shed);
    out += ", \"deadline_misses\": " + std::to_string(w.deadline_misses);
    out += ", \"qps\": " + json::number(w.qps);
    out += ", \"shed_rate\": " + json::number(w.shed_rate);
    out += ", \"deadline_miss_rate\": " + json::number(w.deadline_miss_rate);
    out += ", \"good_rate\": " + json::number(w.good_rate);
    out += ", \"burn_rate\": " + json::number(w.burn_rate);
    out += "}}\n";
    return out;
  }

  ServerStats snapshot() const {
    ServerStats s;
    s.accepted = n_accepted.load(std::memory_order_relaxed);
    s.admitted = n_admitted.load(std::memory_order_relaxed);
    s.shed = n_shed.load(std::memory_order_relaxed);
    s.responses = n_responses.load(std::memory_order_relaxed);
    s.solves = n_solves.load(std::memory_order_relaxed);
    s.deadline_misses = n_deadline_miss.load(std::memory_order_relaxed);
    s.cancelled = n_cancelled.load(std::memory_order_relaxed);
    s.worker_crashes = n_crashes.load(std::memory_order_relaxed);
    s.stalled_reads = n_stalled.load(std::memory_order_relaxed);
    s.stage_full = n_stage[0].load(std::memory_order_relaxed);
    s.stage_capped = n_stage[1].load(std::memory_order_relaxed);
    s.stage_cached = n_stage[2].load(std::memory_order_relaxed);
    s.stage_freestream = n_stage[3].load(std::memory_order_relaxed);
    s.max_queue_depth = max_depth.load(std::memory_order_relaxed);
    return s;
  }
};

Server::Server(ServingConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Server::~Server() { stop(); }

bool Server::start() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.lifecycle_mu);
  if (im.running.load(std::memory_order_acquire)) return false;
  if (im.cfg.port < 0 || im.cfg.port > 65535) return false;
  if (im.cfg.workers < 1 || im.cfg.queue_capacity < 1) return false;
  if (im.cfg.wall_preset.ph != im.cfg.body_preset.ph ||
      im.cfg.wall_preset.pw != im.cfg.body_preset.pw) {
    ADR_LOG_WARN << "serving: wall/body patch shapes differ; one model "
                    "replica cannot serve both";
    return false;
  }

  int bound = 0;
  const int fd = socket_io::listen_loopback(im.cfg.port, 64, &bound);
  if (fd < 0) return false;
  im.port.store(bound, std::memory_order_release);
  im.listen_fd = fd;
  im.start_tp = CancelToken::Clock::now();
  im.last_slo_us.store(0, std::memory_order_relaxed);
  for (metrics::TimeSeries* s :
       {&im.win_requests, &im.win_good, &im.win_shed, &im.win_deadline}) {
    s->reset();
  }
  if (im.cfg.recorder_depth > 0) {
    reqctx::FlightRecorder::Config rc;
    rc.summary_capacity = std::max(512, 2 * im.cfg.recorder_depth);
    rc.trace_capacity = im.cfg.recorder_depth;
    rc.slowest = kRecorderSlowest;
    rc.sample_every = kRecorderSampleEvery;
    reqctx::recorder().configure(rc);
  }
  metrics::gauge("serving.slo.latency_objective_ms")
      .set(im.cfg.slo_latency_ms);
  metrics::gauge("serving.slo.availability_objective")
      .set(im.cfg.slo_availability);
  im.shutting_down.store(false, std::memory_order_release);
  im.running.store(true, std::memory_order_release);
  im.acceptor = std::thread([&im] { im.acceptor_loop(); });
  im.workers.reserve(static_cast<std::size_t>(im.cfg.workers));
  for (int w = 0; w < im.cfg.workers; ++w) {
    im.workers.emplace_back([&im] { im.worker_loop(); });
  }
  ADR_LOG_INFO << "serving: http://127.0.0.1:"
               << im.port.load(std::memory_order_acquire) << " ("
               << im.cfg.workers << " workers, queue "
               << im.cfg.queue_capacity << ", POST /solve)";
  return true;
}

void Server::stop() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.lifecycle_mu);
  if (!im.running.load(std::memory_order_acquire)) return;
  // Order matters: flip the chained-cancel flag first so in-flight solves
  // wind down cooperatively while the listener drains.
  im.shutting_down.store(true, std::memory_order_release);
  im.running.store(false, std::memory_order_release);
  ::shutdown(im.listen_fd, SHUT_RDWR);
  ::close(im.listen_fd);
  im.queue_cv.notify_all();
  if (im.acceptor.joinable()) im.acceptor.join();
  im.listen_fd = -1;  // after the join: the acceptor reads it until it exits
  for (std::thread& w : im.workers) {
    if (w.joinable()) w.join();
  }
  im.workers.clear();
  im.port.store(0, std::memory_order_release);
}

bool Server::running() const {
  return impl_->running.load(std::memory_order_acquire);
}

int Server::bound_port() const {
  return impl_->port.load(std::memory_order_acquire);
}

const ServingConfig& Server::config() const { return impl_->cfg; }

ServerStats Server::stats() const { return impl_->snapshot(); }

#else  // !ADARNET_SERVING_SOCKETS

struct Server::Impl {
  explicit Impl(ServingConfig config) : cfg(std::move(config)) {}
  ServingConfig cfg;
};

Server::Server(ServingConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}
Server::~Server() = default;
bool Server::start() { return false; }
void Server::stop() {}
bool Server::running() const { return false; }
int Server::bound_port() const { return 0; }
const ServingConfig& Server::config() const { return impl_->cfg; }
ServerStats Server::stats() const { return {}; }

#endif  // ADARNET_SERVING_SOCKETS

}  // namespace adarnet::util::serving
