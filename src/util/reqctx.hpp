// Request-scoped observability context + tail-sampling flight recorder
// (DESIGN.md §15).
//
// A RequestContext carries a 64-bit trace id, a span tree, per-phase wall
// attribution, and per-request counter deltas for one serving request. The
// serving layer creates one at admission and binds it to the worker thread
// with a reqctx::Scope: every trace::Span event on that thread lands in
// its span tree and its phases are the thread's scope phase-table delta
// over the binding, so a completed request can be explained in isolation
// even when many requests ran concurrently.
//
// Disarmed cost: trace::Span consults a single process-wide relaxed atomic
// (the span gate, armed while tracing is enabled OR any thread has a bound
// context) — the same discipline as ADARNET_METRICS=0. A context is only
// ever touched from the thread it is bound to; the flight recorder takes a
// mutex only at request completion.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace adarnet::util::reqctx {

/// Wall-attribution phases for one request; they partition the request
/// wall (DESIGN.md §15). Each is the self time of the trace::Span scopes
/// declared with it, except kQueue, charged by hand from admission.
enum class Phase : int {
  kQueue = 0,     ///< accept → worker pop
  kRead,          ///< socket read of the HTTP request
  kParse,         ///< request parse + case-spec construction
  kInfer,         ///< AdarNet forward pass(es)
  kMomentum,      ///< solver momentum phase (summed over solves)
  kRhieChow,      ///< solver Rhie–Chow interpolation
  kPressure,      ///< solver pressure correction
  kSa,            ///< Spalart–Allmaras transport
  kGhosts,        ///< ghost/halo exchange
  kSolverGlue,    ///< solve self time (workspace, residual eval, …)
  kPipelineGlue,  ///< pipeline + serving self time (composite build, …)
  kRespond,       ///< summary/cache/JSON build + socket write
  kCount
};
constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

/// Nanoseconds of scope self time per phase (trace::phase_table()).
using PhaseTable = std::array<std::int64_t, kPhaseCount>;

/// Stable lower_snake name for JSON keys ("queue", "momentum", ...).
const char* to_string(Phase p);

/// One node of a request's span tree. `name` must be a string literal (the
/// same contract as trace::Span). dur_us is -1 while the span is open.
struct SpanNode {
  const char* name;
  std::int64_t start_us;
  std::int64_t dur_us;
  int parent;  ///< index into the tree, -1 for roots
};

/// Named per-request counter delta (solver iterations, MG cycles, ...).
struct CounterDelta {
  const char* name;
  long long delta;
};

/// Request outcome + attribution summary kept for every recorded request
/// (the flight recorder's ring of these backs GET /requests.json).
struct RequestSummary {
  std::uint64_t trace_id = 0;
  std::string case_name = "-";  ///< "-" until the request is parsed
  double re = 0.0;
  int http_status = 0;
  std::string service_stage;   ///< serving::to_string(ServiceStage)
  std::string fallback_stage;  ///< pipeline fallback ladder outcome
  bool shed = false;
  bool deadline_expired = false;  ///< produced after its deadline passed
  bool cancelled = false;
  bool worker_crash = false;
  bool retained = false;       ///< full span tree kept (GET /trace/<id>.json)
  double wall_s = 0.0;         ///< admission → response written
  double phase_s[kPhaseCount] = {};
  std::int64_t start_us = 0;   ///< trace::detail::now_us() clock
  std::int64_t end_us = 0;

  double attributed_seconds() const {
    double s = 0.0;
    for (double p : phase_s) s += p;
    return s;
  }
};

/// Per-request observability state. Thread-confined: only the thread the
/// context is bound to (via Scope) may touch it; completion hands it to the
/// flight recorder by value under the recorder lock.
class RequestContext {
 public:
  explicit RequestContext(std::uint64_t trace_id);

  std::uint64_t trace_id() const { return meta.trace_id; }

  /// Adds wall seconds to a phase (the queue charge; every other phase
  /// arrives from the thread's phase table while the context is bound).
  void add_phase(Phase p, double seconds) {
    if (seconds > 0.0) meta.phase_s[static_cast<int>(p)] += seconds;
  }
  double phase_seconds(Phase p) const {
    return meta.phase_s[static_cast<int>(p)];
  }

  /// Aggregates a named counter delta. `name` must be a string literal.
  void count(const char* name, long long delta);

  const std::vector<SpanNode>& spans() const { return spans_; }
  const std::vector<CounterDelta>& counters() const { return counters_; }
  /// Spans dropped once the per-request tree cap was reached.
  long long dropped_spans() const { return dropped_spans_; }

  /// Closes any still-open spans at `end_us` (crash/exception unwind can
  /// skip destructors on the trace path; the tree must still render).
  void finalize(std::int64_t end_us);

  /// Outcome metadata; filled in by the serving layer as the request moves
  /// through admission → parse → solve → respond.
  RequestSummary meta;

 private:
  friend struct detail_access;
  static constexpr std::size_t kMaxSpans = 1024;
  std::vector<SpanNode> spans_;
  std::vector<CounterDelta> counters_;
  int open_ = -1;  ///< innermost open span, -1 at root
  long long dropped_spans_ = 0;
  PhaseTable bound_at_{};  ///< the thread's phase table when last bound
};

/// The context bound to the calling thread, or nullptr.
RequestContext* current();

/// RAII binding of a context to the calling thread; the thread's
/// phase-table delta over the binding lands in meta.phase_s. Nesting
/// restores the previous binding; binding nullptr temporarily unbinds
/// (used by code that must not attribute, e.g. background flushers).
class Scope {
 public:
  explicit Scope(RequestContext* ctx);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  RequestContext* prev_;
};

/// Process-unique nonzero trace id (splitmix64 over a seeded counter).
std::uint64_t next_trace_id();
/// 16-char lowercase hex rendering / strict parse of a trace id.
std::string trace_id_hex(std::uint64_t id);
bool parse_trace_id(const std::string& hex, std::uint64_t* id);

namespace detail {
/// Span gate: nonzero while global tracing is enabled or any thread has a
/// bound context. trace::Span's disarmed path is exactly one relaxed load
/// of this. Zero-initialised before any dynamic initialiser runs.
inline constinit std::atomic<int> g_span_gate{0};

/// Called by util::trace when the global enable flag flips.
void gate_trace_enabled(bool on);

/// Opens/closes a node in the calling thread's bound context. open_span
/// returns the node index, or -1 when no context is bound (or the tree is
/// full). Only called from trace::Span behind the span gate.
int open_span(const char* name, std::int64_t start_us);
void close_span(int index, std::int64_t end_us);
}  // namespace detail

/// True while any span could need recording (tracing enabled or a context
/// bound somewhere). One relaxed load; this is the disarmed fast path.
inline bool armed() {
  return detail::g_span_gate.load(std::memory_order_relaxed) != 0;
}

// ---------------------------------------------------------------------------
// Flight recorder

/// Bounded tail-sampling store of completed requests. Every recorded
/// request contributes a RequestSummary to a bounded ring (newest first in
/// GET /requests.json). Full span trees are retained for the interesting
/// tail only — every shed, deadline-expired, cancelled, or worker-crash
/// request, the slowest-N seen so far, and a 1-in-K head sample — up to
/// `trace_capacity`, evicting least-interesting-oldest-first (DESIGN.md
/// §15). GET /trace/<id>.json renders a retained tree as a chrome://tracing
/// document.
class FlightRecorder {
 public:
  struct Config {
    int summary_capacity = 512;  ///< recent-summaries ring
    int trace_capacity = 256;    ///< retained full span trees
    int slowest = 16;            ///< slowest-N always retained
    int sample_every = 16;       ///< head-sample 1 in K uninteresting
  };

  void configure(const Config& cfg);
  Config config() const;

  /// Records a completed (or shed) request. Moves the span tree out of the
  /// context; the context is dead afterwards.
  void record(RequestContext&& ctx);
  /// Summary-only record for requests that never got a context (shed at
  /// admission).
  void record_summary(const RequestSummary& summary);

  /// JSON for GET /requests.json: newest-first summaries + totals.
  std::string requests_json(std::size_t limit = 128) const;
  /// JSON for GET /trace/<id>.json; false when the id was never recorded
  /// or its tree was not retained/evicted.
  bool trace_json(std::uint64_t trace_id, std::string* out) const;

  /// Introspection (tests, bench).
  std::vector<RequestSummary> summaries() const;
  bool has_trace(std::uint64_t trace_id) const;
  long long recorded() const;
  long long traces_retained() const;
  long long traces_evicted() const;
  void clear();

 private:
  struct Retained {
    // Retention class: 2 = interesting (shed/deadline/cancel/crash),
    // 1 = slowest-N, 0 = head sample. Eviction removes the lowest class,
    // oldest first.
    int klass = 0;
    std::uint64_t seq = 0;
    RequestSummary summary;
    std::vector<SpanNode> spans;
    std::vector<CounterDelta> counters;
  };

  void push_summary_locked(const RequestSummary& summary);
  void retain_locked(int klass, RequestSummary summary,
                     std::vector<SpanNode> spans,
                     std::vector<CounterDelta> counters);
  void evict_excess_locked();
  int classify_locked(const RequestSummary& summary);

  mutable std::mutex mu_;
  Config cfg_;
  std::vector<RequestSummary> ring_;  ///< circular, ring_pos_ = next slot
  std::size_t ring_pos_ = 0;
  bool ring_full_ = false;
  std::vector<Retained> traces_;
  std::vector<double> slowest_walls_;  ///< min-heap of the N slowest walls
  std::uint64_t seq_ = 0;
  long long recorded_ = 0;
  long long evicted_ = 0;
};

/// The process-wide recorder behind the telemetry endpoints.
FlightRecorder& recorder();

}  // namespace adarnet::util::reqctx
