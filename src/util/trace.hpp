// The one timing scope (DESIGN.md §9, §15). A trace::Span reads the
// steady clock once on entry and once on exit and hands that duration to
// every sink: its site's inclusive ".ns" counter, the calling thread's
// per-phase table (self time, in its site's reqctx::Phase or the enclosing
// scope's), and — only when armed, one relaxed load — a chrome://tracing
// event plus a node in the bound request's span tree, unless its site is
// event-free (the per-iteration solver and multigrid scopes).
// SolveStats::phase_seconds, the solver.<phase>.ns counters and a
// request's phase attribution are deltas of that table.
//
// Tracing: ADARNET_TRACE=<path> (or "1" for "adarnet_trace.json") writes
// the timeline at exit and on flush(); set_path() does so
// programmatically. Event names reuse the metric naming scheme.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/metrics.hpp"
#include "util/reqctx.hpp"

namespace adarnet::util::trace {

/// Site phase meaning "the enclosing scope's phase" (no phase at top level).
inline constexpr reqctx::Phase kInherit = reqctx::Phase::kCount;

/// Static description of one scope: its name and where its time goes.
/// Give each call site one with static storage, so the counter lookup
/// happens once.
struct Site {
  const char* name;                        ///< event name (a literal)
  metrics::Counter* ns = nullptr;          ///< inclusive ".ns" counter
  reqctx::Phase phase = kInherit;          ///< slot for the self time
  bool events = true;                      ///< false: never records events
};

class Span;

namespace detail {
/// Reads ADARNET_TRACE once at static-init time (sets the output path).
bool env_enabled();
inline std::atomic<bool> g_enabled{env_enabled()};

/// The calling thread's innermost open scope and its phase table.
inline constinit thread_local Span* t_top = nullptr;
inline constinit thread_local reqctx::PhaseTable t_phase_ns{};

/// Steady-clock nanoseconds (the scope clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Microseconds since an arbitrary process-stable epoch (event clock).
std::int64_t now_us();

/// Armed-path halves of a scope: open the bound request's span node
/// (returns its index, -1 when none), then record the chrome event and
/// close the node.
int open_events(const char* name, std::int64_t start_ns);
void close_events(const char* name, std::int64_t start_ns,
                  std::int64_t end_ns, int node);
}  // namespace detail

/// True while events are being recorded to the global timeline.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// The calling thread's phase table: nanoseconds of scope self time per
/// reqctx::Phase since the thread started. Take deltas.
inline reqctx::PhaseTable phase_table() { return detail::t_phase_ns; }

/// Enables tracing to `path` (empty disables). Overrides ADARNET_TRACE.
void set_path(const std::string& path);

/// The current output path ("" when tracing is disabled).
std::string path();

/// Writes all recorded events to the output path as a chrome://tracing
/// JSON document ({"traceEvents": [...]}) and returns whether the file was
/// written. Idempotent: keeps the events, rewrites the whole file. Runs
/// automatically at process exit when tracing is enabled.
bool flush();

/// Drops all recorded events (tests).
void clear();

/// Number of events recorded so far.
std::size_t event_count();

/// Caps the global event buffer: once `n` events are held, further spans
/// are dropped (counted in `trace.dropped_events` and dropped_count())
/// instead of growing the buffer for the life of a long-running server.
/// 0 means unbounded. Defaults to ADARNET_TRACE_MAX_EVENTS (a number,
/// "0", or "unlimited"; an unparseable value fails closed to the 1M
/// default with a warning — a typo must not unbound the buffer).
void set_max_events(std::size_t n);
std::size_t max_events();

/// Events dropped at the cap since process start (clear() resets it).
long long dropped_count();

/// RAII timing scope over the enclosing block (see the file comment).
/// Scopes nest strictly per thread.
class Span {
 public:
  explicit Span(const Site& site)
      : name_(site.name),
        ns_(site.ns),
        parent_(detail::t_top),
        phase_(site.phase != kInherit || parent_ == nullptr
                   ? site.phase
                   : parent_->phase_) {
    detail::t_top = this;
    start_ns_ = detail::now_ns();
    if (site.events && reqctx::armed()) {  // disarmed: this one load
      armed_ = true;
      node_ = detail::open_events(name_, start_ns_);
    }
  }
  /// An event scope with no counter or phase of its own; `name` must
  /// outlive it (string literals in practice).
  explicit Span(const char* name) : Span(Site{name}) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the scope now instead of at the end of the block and returns its
  /// inclusive seconds (the same measurement every sink received). Only
  /// the thread's innermost open scope may stop; later calls return the
  /// same value.
  double stop() {
    if (open_) {
      open_ = false;
      const std::int64_t end_ns = detail::now_ns();
      dur_ns_ = end_ns - start_ns_;
      if (phase_ != kInherit) {
        detail::t_phase_ns[static_cast<int>(phase_)] += dur_ns_ - child_ns_;
      }
      if (parent_ != nullptr) parent_->child_ns_ += dur_ns_;
      detail::t_top = parent_;
      if (ns_ != nullptr) ns_->add(dur_ns_);
      if (armed_) detail::close_events(name_, start_ns_, end_ns, node_);
    }
    return static_cast<double>(dur_ns_) * 1e-9;
  }

 private:
  const char* name_;
  metrics::Counter* ns_;
  Span* parent_;
  reqctx::Phase phase_;  ///< resolved slot; kInherit = none
  bool open_ = true;
  bool armed_ = false;
  int node_ = -1;        ///< index in the bound request's span tree
  std::int64_t start_ns_ = 0;
  std::int64_t child_ns_ = 0;  ///< inclusive time of nested scopes
  std::int64_t dur_ns_ = 0;
};

}  // namespace adarnet::util::trace
