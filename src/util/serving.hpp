// Hardened flow-as-a-service on top of the POSIX-socket machinery
// (DESIGN.md §13).
//
// POST a scenario (case id + Re + solver knobs), get back the solved flow
// summary. The design is robustness-first: a service that sheds load
// predictably beats one that is fast until it wedges.
//
//   * Bounded admission queue. Accepted connections enter a fixed-capacity
//     queue; when it is full the acceptor answers 503 + Retry-After
//     immediately and closes — never unbounded buffering, so memory under
//     a storm is the queue capacity times one fd-sized entry.
//   * Deadlines + cooperative cancellation. Every request carries a
//     deadline measured from *admission* (queue wait counts). The worker
//     stamps a util::CancelToken and threads it through PipelineConfig /
//     SolverConfig, where it is checked at pipeline rung boundaries, per
//     outer SIMPLE iteration, and per multigrid V-cycle — a timed-out
//     request returns its best iterate (finite field, converged = false,
//     residuals reported) instead of holding a worker hostage. No thread
//     is ever killed.
//   * Graceful degradation ladder for the service itself. On deadline
//     pressure the worker downgrades the work it attempts:
//         full      DNN + solve to convergence (the paper's pipeline)
//         capped    DNN + iteration budget scaled to the remaining time
//         cached    content-addressed result for (case, Re-bucket)
//         freestream  analytic freestream summary, O(1)
//     The stage is recorded in the response ("service_stage") next to the
//     pipeline's own fallback_stage, and a per-case EMA of full-solve
//     wall time drives the downgrade decision.
//   * Fault hooks. serving.worker.crash (worker throws mid-dispatch; the
//     worker survives and the request degrades) and serving.queue.storm
//     (admission behaves as if the queue were full) compose with the
//     solver-side sites for chaos testing (tests/test_serving.cpp,
//     bench/bench_serving.cpp).
//
// Endpoints (loopback only, like the telemetry server):
//   POST /solve       {"case": "channel", "re": 2500, "deadline_ms": 500,
//                      "max_outer": 400, "tol": 5e-4}  (all but case/re
//                      optional) -> solution summary JSON, including the
//                      request's "trace_id" — feed it to the telemetry
//                      server's GET /trace/<id>.json to explain the request
//   GET  /healthz     liveness
//   GET  /stats.json  admission/shed/stage counters + queue depth, plus
//                     trailing-60s rates (QPS, shed, deadline hits) and
//                     the SLO good/burn rates under "window_60s"
#pragma once

#if !defined(_WIN32)
#define ADARNET_SERVING_SOCKETS 1
#endif

#include <memory>
#include <string>

#include "adarnet/pipeline.hpp"
#include "data/cases.hpp"

namespace adarnet::util::serving {

/// Which rung of the *service* degradation ladder produced a response
/// (orthogonal to core::FallbackStage, which tracks the pipeline's own
/// hand-off ladder within a solve).
enum class ServiceStage : int {
  kFull = 0,    ///< DNN + solve with the configured budget
  kCapped,      ///< DNN + iteration budget scaled to the remaining time
  kCached,      ///< cached result for (case, Re-bucket), no solve
  kFreestream,  ///< analytic freestream summary, no solve
};

/// Human-readable stage name ("full", "capped", "cached", "freestream").
const char* to_string(ServiceStage stage);

/// Server tuning. Defaults serve the paper-scale wall/body presets; tests
/// and the bench shrink them.
struct ServingConfig {
  int port = 0;              ///< 0 = ephemeral (bound_port() after start)
  int workers = 2;           ///< worker threads (each owns a model replica)
  int queue_capacity = 8;    ///< bounded admission queue; beyond = 503
  int retry_after_s = 1;     ///< Retry-After header on shed responses
  int io_timeout_ms = 2000;  ///< per-connection SO_RCVTIMEO/SO_SNDTIMEO

  double default_deadline_s = 30.0;  ///< when the request names none
  double assumed_full_solve_s = 0.0;  ///< seeds the EMA (0 = first full
                                      ///< solve measures it)

  // Request-scoped observability (DESIGN.md §15). Every admitted /solve
  // request gets a RequestContext (trace id, span tree, per-phase wall
  // attribution) and lands in the process flight recorder, which the
  // telemetry server exposes as GET /requests.json + /trace/<id>.json.
  int recorder_depth = 256;        ///< retained full span trees; 0 disarms
                                   ///< per-request tracing + recording

  // SLO objective behind the serving.slo.* gauges: a response is "good"
  // when it is 200, did not blow its deadline, and finished inside the
  // latency objective; burn rate = (1 - good_rate) / (1 - availability)
  // over the trailing 60 s window (1.0 = burning exactly the error budget).
  double slo_latency_ms = 1000.0;  ///< latency objective per response
  double slo_availability = 0.99;  ///< availability objective in (0, 1)

  data::GridPreset wall_preset = data::paper_wall_preset();
  data::GridPreset body_preset = data::paper_body_preset();
  solver::SolverConfig solver;     ///< base solver budget (max_outer, tol)
};

/// Monotonic counters snapshot (test/bench introspection without HTTP).
struct ServerStats {
  long long accepted = 0;        ///< connections accepted
  long long admitted = 0;        ///< entered the queue
  long long shed = 0;            ///< 503'd at admission (full or storm)
  long long responses = 0;       ///< responses written (any status)
  long long solves = 0;          ///< requests that ran the pipeline
  long long deadline_misses = 0; ///< responses produced after expiry
  long long cancelled = 0;       ///< solves cut short by their token
  long long worker_crashes = 0;  ///< faults caught by the worker guard
  long long stalled_reads = 0;   ///< request reads that hit the timeout
  long long stage_full = 0;
  long long stage_capped = 0;
  long long stage_cached = 0;
  long long stage_freestream = 0;
  int max_queue_depth = 0;       ///< high-water mark (<= queue_capacity)
};

/// One parsed POST /solve request (exposed for tests).
struct SolveRequest {
  std::string case_name = "channel";  ///< channel | flat_plate | cylinder |
                                      ///< naca0012 | naca1412
  double re = 2.5e3;
  double deadline_s = 0.0;  ///< 0 = server default
  int max_outer = 0;        ///< 0 = server default
  double tol = 0.0;         ///< 0 = server default
};

/// Parses the flat-JSON body of POST /solve. Returns "" and fills `req`
/// on success, else a reason string for the 400 response.
std::string parse_solve_request(const std::string& body, SolveRequest& req);

/// The multi-worker inference service. start()/stop() are thread-safe;
/// stop() cancels in-flight solves cooperatively (chained tokens), drains
/// the queue with instant degraded responses, and joins every thread.
class Server {
 public:
  explicit Server(ServingConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1 and spawns the acceptor + workers. False if already
  /// running or the socket cannot be opened.
  bool start();

  /// Cooperative shutdown: no thread kills, in-flight requests finish
  /// degraded. Safe to call twice.
  void stop();

  [[nodiscard]] bool running() const;
  [[nodiscard]] int bound_port() const;
  [[nodiscard]] const ServingConfig& config() const;
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace adarnet::util::serving
