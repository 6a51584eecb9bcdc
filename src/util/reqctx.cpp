#include "util/reqctx.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "util/json.hpp"
#include "util/trace.hpp"

namespace adarnet::util::reqctx {

namespace {

thread_local RequestContext* t_current = nullptr;

void append_bool(std::string& out, bool v) { out += v ? "true" : "false"; }

}  // namespace

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kQueue: return "queue";
    case Phase::kRead: return "read";
    case Phase::kParse: return "parse";
    case Phase::kInfer: return "infer";
    case Phase::kMomentum: return "momentum";
    case Phase::kRhieChow: return "rhie_chow";
    case Phase::kPressure: return "pressure";
    case Phase::kSa: return "sa";
    case Phase::kGhosts: return "ghosts";
    case Phase::kSolverGlue: return "solver_glue";
    case Phase::kPipelineGlue: return "pipeline_glue";
    case Phase::kRespond: return "respond";
    case Phase::kCount: break;
  }
  return "?";
}

RequestContext::RequestContext(std::uint64_t trace_id) {
  meta.trace_id = trace_id;
  meta.start_us = trace::detail::now_us();
  spans_.reserve(64);
  counters_.reserve(16);
}

void RequestContext::count(const char* name, long long delta) {
  for (CounterDelta& c : counters_) {
    if (c.name == name || std::strcmp(c.name, name) == 0) {
      c.delta += delta;
      return;
    }
  }
  counters_.push_back(CounterDelta{name, delta});
}

void RequestContext::finalize(std::int64_t end_us) {
  for (SpanNode& n : spans_) {
    if (n.dur_us < 0) n.dur_us = std::max<std::int64_t>(0, end_us - n.start_us);
  }
  open_ = -1;
  meta.end_us = end_us;
}

struct detail_access {
  static int open(RequestContext& ctx, const char* name,
                  std::int64_t start_us) {
    if (ctx.spans_.size() >= RequestContext::kMaxSpans) {
      ++ctx.dropped_spans_;
      return -1;
    }
    ctx.spans_.push_back(SpanNode{name, start_us, -1, ctx.open_});
    ctx.open_ = static_cast<int>(ctx.spans_.size()) - 1;
    return ctx.open_;
  }
  static void close(RequestContext& ctx, int index, std::int64_t end_us) {
    if (index < 0 || index >= static_cast<int>(ctx.spans_.size())) return;
    SpanNode& n = ctx.spans_[static_cast<std::size_t>(index)];
    n.dur_us = std::max<std::int64_t>(0, end_us - n.start_us);
    ctx.open_ = n.parent;
  }
  static void take(RequestContext& ctx, std::vector<SpanNode>* spans,
                   std::vector<CounterDelta>* counters) {
    spans->swap(ctx.spans_);
    counters->swap(ctx.counters_);
  }
  // Books the calling thread's phase-table delta since the context was
  // (re)bound and restarts the delta from now.
  static void settle(RequestContext& ctx) {
    const PhaseTable now = trace::phase_table();
    for (int p = 0; p < kPhaseCount; ++p) {
      const std::size_t i = static_cast<std::size_t>(p);
      ctx.meta.phase_s[p] +=
          static_cast<double>(now[i] - ctx.bound_at_[i]) * 1e-9;
    }
    ctx.bound_at_ = now;
  }
  static void rebind(RequestContext& ctx) {
    ctx.bound_at_ = trace::phase_table();
  }
};

RequestContext* current() { return t_current; }

Scope::Scope(RequestContext* ctx) : prev_(t_current) {
  if (prev_ != nullptr) detail_access::settle(*prev_);
  if (ctx != nullptr) detail_access::rebind(*ctx);
  t_current = ctx;
  if (ctx != nullptr && prev_ == nullptr) {
    detail::g_span_gate.fetch_add(1, std::memory_order_relaxed);
  } else if (ctx == nullptr && prev_ != nullptr) {
    detail::g_span_gate.fetch_sub(1, std::memory_order_relaxed);
  }
}

Scope::~Scope() {
  if (t_current != nullptr) detail_access::settle(*t_current);
  if (prev_ != nullptr) detail_access::rebind(*prev_);
  if (t_current != nullptr && prev_ == nullptr) {
    detail::g_span_gate.fetch_sub(1, std::memory_order_relaxed);
  } else if (t_current == nullptr && prev_ != nullptr) {
    detail::g_span_gate.fetch_add(1, std::memory_order_relaxed);
  }
  t_current = prev_;
}

std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t seed = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  // splitmix64 over a seeded counter: process-unique, well mixed, cheap.
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ULL *
                 (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z != 0 ? z : 1;
}

std::string trace_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return std::string(buf);
}

bool parse_trace_id(const std::string& hex, std::uint64_t* id) {
  if (hex.empty() || hex.size() > 16) return false;
  std::uint64_t v = 0;
  for (char c : hex) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  if (v == 0) return false;
  *id = v;
  return true;
}

namespace detail {

void gate_trace_enabled(bool on) {
  g_span_gate.fetch_add(on ? 1 : -1, std::memory_order_relaxed);
}

int open_span(const char* name, std::int64_t start_us) {
  RequestContext* ctx = t_current;
  if (ctx == nullptr) return -1;
  return detail_access::open(*ctx, name, start_us);
}

void close_span(int index, std::int64_t end_us) {
  RequestContext* ctx = t_current;
  if (ctx == nullptr || index < 0) return;
  detail_access::close(*ctx, index, end_us);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Flight recorder

void FlightRecorder::configure(const Config& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  cfg_ = cfg;
  cfg_.summary_capacity = std::max(1, cfg_.summary_capacity);
  cfg_.trace_capacity = std::max(1, cfg_.trace_capacity);
  cfg_.slowest = std::max(0, cfg_.slowest);
  cfg_.sample_every = std::max(1, cfg_.sample_every);
  // Re-linearise the summary ring against the (possibly changed) capacity:
  // push/summaries index modulo the capacity and the vector size
  // respectively, so a wrapped ring under a different cap would scramble
  // ordering and a shrunk cap would leave stale slots alive forever.
  // Rebuild oldest-first, trim to the newest `cap` entries, reset the
  // cursor.
  const std::size_t cap = static_cast<std::size_t>(cfg_.summary_capacity);
  if (!ring_.empty() && (ring_full_ || ring_.size() > cap)) {
    std::vector<RequestSummary> linear;
    linear.reserve(std::min(ring_.size(), cap));
    const std::size_t n = ring_.size();
    const std::size_t keep = std::min(n, cap);
    const std::size_t oldest = ring_full_ ? ring_pos_ : 0;
    for (std::size_t i = n - keep; i < n; ++i) {
      linear.push_back(ring_[(oldest + i) % n]);
    }
    ring_.swap(linear);
    ring_full_ = ring_.size() == cap;
    ring_pos_ = ring_.size() % cap;
  }
  evict_excess_locked();
}

FlightRecorder::Config FlightRecorder::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cfg_;
}

void FlightRecorder::push_summary_locked(const RequestSummary& summary) {
  const std::size_t cap = static_cast<std::size_t>(cfg_.summary_capacity);
  if (ring_.size() < cap) {
    ring_.push_back(summary);
    ring_pos_ = ring_.size() % cap;
    ring_full_ = ring_.size() == cap;
  } else {
    ring_[ring_pos_] = summary;
    ring_pos_ = (ring_pos_ + 1) % cap;
    ring_full_ = true;
  }
  ++recorded_;
}

int FlightRecorder::classify_locked(const RequestSummary& summary) {
  if (summary.shed || summary.deadline_expired || summary.cancelled ||
      summary.worker_crash) {
    return 2;
  }
  if (cfg_.slowest > 0) {
    // Min-heap of the N slowest walls seen: a new wall that beats the heap
    // minimum is "slow" and ratchets the threshold up.
    const std::size_t n = static_cast<std::size_t>(cfg_.slowest);
    if (slowest_walls_.size() < n) {
      slowest_walls_.push_back(summary.wall_s);
      std::push_heap(slowest_walls_.begin(), slowest_walls_.end(),
                     std::greater<double>());
      return 1;
    }
    if (summary.wall_s > slowest_walls_.front()) {
      std::pop_heap(slowest_walls_.begin(), slowest_walls_.end(),
                    std::greater<double>());
      slowest_walls_.back() = summary.wall_s;
      std::push_heap(slowest_walls_.begin(), slowest_walls_.end(),
                     std::greater<double>());
      return 1;
    }
  }
  if (recorded_ % cfg_.sample_every == 0) return 0;
  return -1;
}

void FlightRecorder::retain_locked(int klass, RequestSummary summary,
                                   std::vector<SpanNode> spans,
                                   std::vector<CounterDelta> counters) {
  Retained r;
  r.klass = klass;
  r.seq = seq_++;
  r.summary = std::move(summary);
  r.spans = std::move(spans);
  r.counters = std::move(counters);
  traces_.push_back(std::move(r));
  evict_excess_locked();
}

void FlightRecorder::evict_excess_locked() {
  while (traces_.size() > static_cast<std::size_t>(cfg_.trace_capacity)) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < traces_.size(); ++i) {
      const Retained& a = traces_[i];
      const Retained& b = traces_[victim];
      if (a.klass < b.klass || (a.klass == b.klass && a.seq < b.seq)) {
        victim = i;
      }
    }
    traces_.erase(traces_.begin() + static_cast<std::ptrdiff_t>(victim));
    ++evicted_;
  }
}

void FlightRecorder::record(RequestContext&& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  const int klass = classify_locked(ctx.meta);
  ctx.meta.retained = klass >= 0;
  push_summary_locked(ctx.meta);
  if (klass >= 0) {
    std::vector<SpanNode> spans;
    std::vector<CounterDelta> counters;
    detail_access::take(ctx, &spans, &counters);
    retain_locked(klass, ctx.meta, std::move(spans), std::move(counters));
  }
}

void FlightRecorder::record_summary(const RequestSummary& summary) {
  std::lock_guard<std::mutex> lock(mu_);
  RequestSummary copy = summary;
  const int klass = classify_locked(copy);
  copy.retained = klass >= 0;
  push_summary_locked(copy);
  if (klass >= 0) retain_locked(klass, copy, {}, {});
}

std::vector<RequestSummary> FlightRecorder::summaries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RequestSummary> out;
  out.reserve(ring_.size());
  if (ring_full_) {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(ring_pos_ + i) % ring_.size()]);
    }
  } else {
    out = ring_;
  }
  return out;
}

bool FlightRecorder::has_trace(std::uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Retained& r : traces_) {
    if (r.summary.trace_id == trace_id) return true;
  }
  return false;
}

long long FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

long long FlightRecorder::traces_retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<long long>(traces_.size());
}

long long FlightRecorder::traces_evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  ring_pos_ = 0;
  ring_full_ = false;
  traces_.clear();
  slowest_walls_.clear();
  recorded_ = 0;
  evicted_ = 0;
  seq_ = 0;
}

namespace {

void append_summary_json(std::string& out, const RequestSummary& s) {
  out += "{\"trace_id\": \"";
  out += trace_id_hex(s.trace_id);
  out += "\", \"case\": \"";
  out += json::escape(s.case_name);
  out += "\", \"re\": ";
  out += json::number(s.re);
  out += ", \"status\": ";
  out += json::number(s.http_status);
  out += ", \"service_stage\": \"";
  out += json::escape(s.service_stage);
  out += "\", \"fallback_stage\": \"";
  out += json::escape(s.fallback_stage);
  out += "\", \"shed\": ";
  append_bool(out, s.shed);
  out += ", \"deadline_expired\": ";
  append_bool(out, s.deadline_expired);
  out += ", \"cancelled\": ";
  append_bool(out, s.cancelled);
  out += ", \"worker_crash\": ";
  append_bool(out, s.worker_crash);
  out += ", \"retained\": ";
  append_bool(out, s.retained);
  out += ", \"wall_ms\": ";
  out += json::number(s.wall_s * 1e3);
  out += ", \"attributed_ms\": ";
  out += json::number(s.attributed_seconds() * 1e3);
  out += ", \"phases_ms\": {";
  for (int p = 0; p < kPhaseCount; ++p) {
    if (p != 0) out += ", ";
    out += "\"";
    out += to_string(static_cast<Phase>(p));
    out += "\": ";
    out += json::number(s.phase_s[p] * 1e3);
  }
  out += "}";
  if (s.retained) {
    out += ", \"trace\": \"/trace/";
    out += trace_id_hex(s.trace_id);
    out += ".json\"";
  }
  out += "}";
}

}  // namespace

std::string FlightRecorder::requests_json(std::size_t limit) const {
  std::vector<RequestSummary> all = summaries();
  long long rec, ret, evc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec = recorded_;
    ret = static_cast<long long>(traces_.size());
    evc = evicted_;
  }
  std::string out = "{\"recorded\": ";
  out += json::number(static_cast<double>(rec));
  out += ", \"traces_retained\": ";
  out += json::number(static_cast<double>(ret));
  out += ", \"traces_evicted\": ";
  out += json::number(static_cast<double>(evc));
  out += ", \"requests\": [";
  // Newest first.
  std::size_t count = 0;
  for (std::size_t i = all.size(); i-- > 0 && count < limit; ++count) {
    if (count != 0) out += ",";
    out += "\n  ";
    append_summary_json(out, all[i]);
  }
  out += "\n]}\n";
  return out;
}

bool FlightRecorder::trace_json(std::uint64_t trace_id,
                                std::string* out) const {
  Retained rec;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Retained& r : traces_) {
      if (r.summary.trace_id == trace_id) {
        rec = r;
        found = true;
        break;
      }
    }
  }
  if (!found) return false;
  const RequestSummary& s = rec.summary;
  const std::int64_t wall_us =
      std::max<std::int64_t>(s.end_us - s.start_us,
                             static_cast<std::int64_t>(s.wall_s * 1e6));

  std::vector<std::string> events;
  events.push_back(
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"adarnet_serve\"}}");
  events.push_back(
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"tid\": 1, \"args\": {\"name\": \"request " +
      trace_id_hex(s.trace_id) + "\"}}");

  // Root event covering the whole request, carrying outcome + attribution.
  {
    std::string e = "{\"name\": \"request ";
    e += json::escape(s.case_name);
    e += "\", \"cat\": \"request\", \"ph\": \"X\", \"ts\": ";
    e += std::to_string(s.start_us);
    e += ", \"dur\": ";
    e += std::to_string(std::max<std::int64_t>(wall_us, 1));
    e += ", \"pid\": 1, \"tid\": 1, \"args\": {\"trace_id\": \"";
    e += trace_id_hex(s.trace_id);
    e += "\", \"status\": ";
    e += json::number(s.http_status);
    e += ", \"service_stage\": \"";
    e += json::escape(s.service_stage);
    e += "\", \"fallback_stage\": \"";
    e += json::escape(s.fallback_stage);
    e += "\", \"shed\": ";
    append_bool(e, s.shed);
    e += ", \"deadline_expired\": ";
    append_bool(e, s.deadline_expired);
    e += ", \"worker_crash\": ";
    append_bool(e, s.worker_crash);
    for (int p = 0; p < kPhaseCount; ++p) {
      e += ", \"";
      e += to_string(static_cast<Phase>(p));
      e += "_ms\": ";
      e += json::number(s.phase_s[p] * 1e3);
    }
    for (const CounterDelta& c : rec.counters) {
      e += ", \"";
      e += json::escape(c.name);
      e += "\": ";
      e += json::number(static_cast<double>(c.delta));
    }
    e += "}}";
    events.push_back(std::move(e));
  }

  // Synthetic queue-phase event: no span runs while the request waits in
  // the admission queue, but the wait is the first thing to see in a
  // timeline. start_us is already rebased to admission time (serving
  // charges the queue wait before binding the context), so the queue
  // slice starts at start_us and the first worker span begins where it
  // ends — all inside the root request event.
  const std::int64_t queue_us = static_cast<std::int64_t>(
      s.phase_s[static_cast<int>(Phase::kQueue)] * 1e6);
  if (queue_us > 0) {
    std::string e =
        "{\"name\": \"queue\", \"cat\": \"phase\", \"ph\": \"X\", \"ts\": ";
    e += std::to_string(s.start_us);
    e += ", \"dur\": ";
    e += std::to_string(queue_us);
    e += ", \"pid\": 1, \"tid\": 1}";
    events.push_back(std::move(e));
  }

  for (const SpanNode& n : rec.spans) {
    std::string e = "{\"name\": \"";
    e += json::escape(n.name);
    e += "\", \"cat\": \"span\", \"ph\": \"X\", \"ts\": ";
    e += std::to_string(n.start_us);
    e += ", \"dur\": ";
    e += std::to_string(std::max<std::int64_t>(n.dur_us, 0));
    e += ", \"pid\": 1, \"tid\": 1}";
    events.push_back(std::move(e));
  }

  std::string doc = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) doc += ",";
    doc += "\n  ";
    doc += events[i];
  }
  doc += "\n], \"displayTimeUnit\": \"ms\"}\n";
  *out = doc;
  return true;
}

FlightRecorder& recorder() {
  static FlightRecorder* r = new FlightRecorder();  // leaked: outlives atexit
  return *r;
}

}  // namespace adarnet::util::reqctx
