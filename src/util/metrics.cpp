#include "util/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/json.hpp"
#include "util/telemetry.hpp"

namespace adarnet::util::metrics {

namespace detail {

bool env_enabled() {
  // Piggy-back the telemetry autostart on the metrics env probe: this
  // initializer runs before main in every binary that touches metrics, so
  // ADARNET_TELEMETRY_PORT works without per-binary wiring (and costs one
  // getenv when unset).
  telemetry::detail::autostart_from_env();
  const char* v = std::getenv("ADARNET_METRICS");
  if (v == nullptr) return true;
  const std::string s(v);
  return !(s == "0" || s == "off" || s == "OFF" || s == "false");
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void Gauge::max(double v) {
  if (!enabled()) return;
  double cur = v_.load(std::memory_order_relaxed);
  while (v > cur &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

int Histogram::bucket_of(long long v) {
  if (v <= 0) return 0;
  int b = 0;
  for (unsigned long long u = static_cast<unsigned long long>(v); u != 0;
       u >>= 1) {
    ++b;
  }
  return b;  // 1 + floor(log2 v)
}

long long Histogram::bucket_upper(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= kBuckets - 1) return std::numeric_limits<long long>::max();
  return (1LL << bucket) - 1;
}

void Histogram::observe(long long v) {
  if (!enabled()) return;
  const int b = bucket_of(v);
  buckets_[static_cast<std::size_t>(b)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(std::max(v, 0LL), std::memory_order_relaxed);
  long long cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::observe(long long v, std::uint64_t exemplar_id) {
  if (!enabled()) return;
  observe(v);
  if (exemplar_id != 0) {
    const std::size_t b = static_cast<std::size_t>(bucket_of(v));
    exemplar_value_[b].store(std::max(v, 0LL), std::memory_order_relaxed);
    exemplar_id_[b].store(exemplar_id, std::memory_order_relaxed);
  }
}

double Histogram::mean() const {
  const long long n = count();
  return n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
}

long long Histogram::quantile(double q) const {
  const long long n = count();
  if (n <= 0) return 0;
  const long long rank = static_cast<long long>(q * static_cast<double>(n));
  long long seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bucket_count(b);
    if (seen > rank) return bucket_upper(b);
  }
  return max_value();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  for (auto& e : exemplar_id_) e.store(0, std::memory_order_relaxed);
  for (auto& e : exemplar_value_) e.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void TimeSeries::append(double x, double y) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ring_[static_cast<std::size_t>(head_ % ring_.size())] = Point{x, y};
  ++head_;
}

std::uint64_t TimeSeries::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

std::size_t TimeSeries::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(head_, ring_.size()));
}

std::vector<TimeSeries::Point> TimeSeries::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(head_, ring_.size()));
  std::vector<Point> out;
  out.reserve(n);
  const std::uint64_t first = head_ - n;
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(ring_[static_cast<std::size_t>((first + k) % ring_.size())]);
  }
  return out;
}

void TimeSeries::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
}

namespace {

// Registry: name -> one instrument. Locked only on lookup (call sites
// cache the reference) and on snapshot/reset, never on the update path.
struct Instrument {
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
  std::unique_ptr<TimeSeries> series;
};

std::mutex g_mutex;
std::map<std::string, Instrument>& registry() {
  static std::map<std::string, Instrument>* r =
      new std::map<std::string, Instrument>();  // leaked: outlives atexit users
  return *r;
}

[[noreturn]] void kind_mismatch(const std::string& name) {
  throw std::logic_error("metrics: instrument '" + name +
                         "' already registered with a different kind");
}

}  // namespace

Counter& counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  Instrument& ins = registry()[name];
  if (ins.gauge || ins.histogram || ins.series) kind_mismatch(name);
  if (!ins.counter) ins.counter = std::make_unique<Counter>();
  return *ins.counter;
}

Gauge& gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  Instrument& ins = registry()[name];
  if (ins.counter || ins.histogram || ins.series) kind_mismatch(name);
  if (!ins.gauge) ins.gauge = std::make_unique<Gauge>();
  return *ins.gauge;
}

Histogram& histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  Instrument& ins = registry()[name];
  if (ins.counter || ins.gauge || ins.series) kind_mismatch(name);
  if (!ins.histogram) ins.histogram = std::make_unique<Histogram>();
  return *ins.histogram;
}

TimeSeries& series(const std::string& name, std::size_t capacity) {
  std::lock_guard<std::mutex> lock(g_mutex);
  Instrument& ins = registry()[name];
  if (ins.counter || ins.gauge || ins.histogram) kind_mismatch(name);
  if (!ins.series) ins.series = std::make_unique<TimeSeries>(capacity);
  return *ins.series;
}

void reset() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& [name, ins] : registry()) {
    if (ins.counter) ins.counter->reset();
    if (ins.gauge) ins.gauge->reset();
    if (ins.histogram) ins.histogram->reset();
    if (ins.series) ins.series->reset();
  }
}

std::vector<SnapshotEntry> snapshot() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<SnapshotEntry> out;
  out.reserve(registry().size());
  for (const auto& [name, ins] : registry()) {
    if (ins.series) continue;  // history, not a scalar: see series_json()
    SnapshotEntry e;
    e.name = name;
    if (ins.counter) {
      e.kind = SnapshotEntry::Kind::kCounter;
      e.count = ins.counter->value();
    } else if (ins.gauge) {
      e.kind = SnapshotEntry::Kind::kGauge;
      e.value = ins.gauge->value();
    } else if (ins.histogram) {
      e.kind = SnapshotEntry::Kind::kHistogram;
      e.count = ins.histogram->count();
      e.sum = ins.histogram->sum();
      e.value = ins.histogram->mean();
      e.max = ins.histogram->max_value();
      e.p50 = ins.histogram->quantile(0.5);
      e.p95 = ins.histogram->quantile(0.95);
    }
    out.push_back(std::move(e));
  }
  return out;  // std::map iteration: already name-sorted
}

std::string snapshot_json() {
  const auto entries = snapshot();
  std::string counters, gauges, histograms;
  for (const SnapshotEntry& e : entries) {
    std::string key = "\"";
    key += json::escape(e.name);
    key += "\": ";
    switch (e.kind) {
      case SnapshotEntry::Kind::kCounter:
        if (!counters.empty()) counters += ", ";
        counters += key + std::to_string(e.count);
        break;
      case SnapshotEntry::Kind::kGauge:
        if (!gauges.empty()) gauges += ", ";
        gauges += key + json::number(e.value);
        break;
      case SnapshotEntry::Kind::kHistogram:
        if (!histograms.empty()) histograms += ", ";
        histograms += key + "{\"count\": " + std::to_string(e.count) +
                      ", \"sum\": " + std::to_string(e.sum) +
                      ", \"mean\": " + json::number(e.value) +
                      ", \"max\": " + std::to_string(e.max) +
                      ", \"p50\": " + std::to_string(e.p50) +
                      ", \"p95\": " + std::to_string(e.p95) + "}";
        break;
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

std::string series_json() {
  // Collect name -> (capacity, total, points) under the registry lock but
  // snapshot each ring via its own mutex, so appends stall for one point
  // copy at most.
  std::vector<std::pair<std::string, const TimeSeries*>> all;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (const auto& [name, ins] : registry()) {
      if (ins.series) all.emplace_back(name, ins.series.get());
    }
  }
  std::string out = "{\"series\": {";
  bool first_series = true;
  for (const auto& [name, ts] : all) {
    if (!first_series) out += ", ";
    first_series = false;
    out += '"';
    out += json::escape(name);
    out += "\": {\"capacity\": ";
    out += std::to_string(ts->capacity());
    out += ", \"total\": ";
    out += std::to_string(ts->total());
    out += ", \"points\": [";
    bool first = true;
    for (const TimeSeries::Point& p : ts->snapshot()) {
      if (!first) out += ", ";
      first = false;
      out += '[';
      out += json::number(p.x);
      out += ", ";
      out += json::number(p.y);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:] only; everything else
// (the dots of the internal scheme) maps to '_'.
std::string prometheus_name(const std::string& name) {
  std::string out = "adarnet_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_label_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string prometheus_text(bool openmetrics) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::string out;
  for (const auto& [name, ins] : registry()) {
    if (ins.series) continue;  // exposed via /series.json only
    const std::string pname = prometheus_name(name);
    const std::string label =
        "{name=\"" + prometheus_label_escape(name) + "\"}";
    if (ins.counter) {
      out += "# TYPE " + pname + " counter\n";
      out += pname + label + " " + std::to_string(ins.counter->value()) + "\n";
    } else if (ins.gauge) {
      out += "# TYPE " + pname + " gauge\n";
      out += pname + label + " " + json::number(ins.gauge->value()) + "\n";
    } else if (ins.histogram) {
      const Histogram& h = *ins.histogram;
      out += "# TYPE " + pname + " histogram\n";
      long long cumulative = 0;
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        const long long in_bucket = h.bucket_count(b);
        if (in_bucket == 0) continue;
        cumulative += in_bucket;
        out += pname + "_bucket{name=\"" + prometheus_label_escape(name) +
               "\",le=\"" + std::to_string(Histogram::bucket_upper(b)) +
               "\"} " + std::to_string(cumulative);
        // OpenMetrics exemplar: ties this bucket to a concrete request in
        // the flight recorder (GET /trace/<id>.json). Exemplars are
        // illegal in the classic 0.0.4 text format — a '#' after the
        // sample value aborts a standard Prometheus scrape — so they are
        // emitted only when the scraper negotiated OpenMetrics.
        const std::uint64_t ex = openmetrics ? h.exemplar_id(b) : 0;
        if (ex != 0) {
          char hex[17];
          std::snprintf(hex, sizeof(hex), "%016llx",
                        static_cast<unsigned long long>(ex));
          out += " # {trace_id=\"";
          out += hex;
          out += "\"} " + std::to_string(h.exemplar_value(b));
        }
        out += "\n";
      }
      out += pname + "_bucket{name=\"" + prometheus_label_escape(name) +
             "\",le=\"+Inf\"} " + std::to_string(h.count()) + "\n";
      out += pname + "_sum" + label + " " + std::to_string(h.sum()) + "\n";
      out += pname + "_count" + label + " " + std::to_string(h.count()) +
             "\n";
    }
  }
  if (openmetrics) out += "# EOF\n";
  return out;
}

}  // namespace adarnet::util::metrics
