// Process-wide metrics registry: named counters, gauges, and log-scale
// histograms shared by every layer of the framework (trainer, model
// inference, pipeline, solver). The benches snapshot the registry into
// their BENCH_*.json files so one document attributes the end-to-end wall
// time to named stages (DESIGN.md §9 documents the naming scheme).
//
// Discipline mirrors util/fault: the hot path is lock-free and the
// disabled path is a single relaxed atomic load. Instruments are looked up
// by name once (call sites cache the returned reference, typically in a
// function-local static); after that an update is one relaxed atomic RMW,
// safe from any thread and cheap enough for per-solve / per-batch sites —
// per-cell loops should still aggregate locally and publish once.
//
// Enable/disable: on by default; ADARNET_METRICS=0 (or "off") in the
// environment disables the process, set_enabled() toggles at runtime.
// Disabling freezes updates but keeps registered instruments readable.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace adarnet::util::metrics {

namespace detail {
/// Reads ADARNET_METRICS once at static-init time (default: enabled).
bool env_enabled();
inline std::atomic<bool> g_enabled{env_enabled()};
}  // namespace detail

/// True while metric updates are being recorded.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Toggles recording process-wide (overrides the ADARNET_METRICS default).
void set_enabled(bool on);

/// Monotonic counter. Durations are counted in integer nanoseconds by
/// convention (name suffix ".ns", fed by trace::Span scopes) so no
/// floating-point atomics are needed.
class Counter {
 public:
  void add(long long delta = 1) {
    if (enabled()) v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] long long value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

/// Last-write-wins scalar (plus a monotonic-max helper).
class Gauge {
 public:
  void set(double v) {
    if (enabled()) v_.store(v, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if larger (high-water marks).
  void max(double v);
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-scale histogram of non-negative integer observations. Bucket 0
/// holds the value 0; bucket k >= 1 holds [2^(k-1), 2^k). Exponential
/// buckets keep the array tiny while spanning nanoseconds-to-minutes
/// durations and 0-to-thousands occupancy counts alike.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // 0, then one per bit of long long

  /// Bucket index of `v` (negatives clamp to bucket 0).
  static int bucket_of(long long v);
  /// Inclusive upper bound of `bucket`'s value range.
  static long long bucket_upper(int bucket);

  void observe(long long v);
  /// Observes `v` and stamps its bucket's exemplar with `exemplar_id` (a
  /// request trace id; 0 leaves the previous exemplar in place). Exemplars
  /// are last-write-wins per bucket and surface only in the OpenMetrics
  /// flavour of the exposition (prometheus_text(true)), linking a latency
  /// bucket to a concrete request in the flight recorder (DESIGN.md §15);
  /// the classic 0.0.4 text format stays exemplar-free. The id and
  /// value stores are independent relaxed atomics: a scrape racing two
  /// observers can pair an id with the other observation's value — both
  /// are genuine exemplars of the same bucket, so the tear is benign.
  void observe(long long v, std::uint64_t exemplar_id);
  [[nodiscard]] std::uint64_t exemplar_id(int bucket) const {
    return exemplar_id_[static_cast<std::size_t>(bucket)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] long long exemplar_value(int bucket) const {
    return exemplar_value_[static_cast<std::size_t>(bucket)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] long long count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long long sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long long max_value() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long long bucket_count(int bucket) const {
    return buckets_[static_cast<std::size_t>(bucket)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const;
  /// Upper bound of the bucket holding quantile `q` in [0, 1] (0 if empty).
  [[nodiscard]] long long quantile(double q) const;
  void reset();

 private:
  std::array<std::atomic<long long>, kBuckets> buckets_{};
  std::array<std::atomic<std::uint64_t>, kBuckets> exemplar_id_{};
  std::array<std::atomic<long long>, kBuckets> exemplar_value_{};
  std::atomic<long long> count_{0};
  std::atomic<long long> sum_{0};
  std::atomic<long long> max_{0};
};

/// Fixed-capacity ring buffer of (x, y) points — the convergence
/// time-series recorder behind the telemetry server's /series.json. Unlike
/// the scalar instruments above it keeps *history*: per-outer-iteration
/// solver residuals, per-epoch training losses, per-run pipeline outcomes.
/// Appends and snapshots serialise on a private mutex; the critical section
/// is two double stores and a counter bump, and the recording cadence is
/// per-iteration / per-epoch (never per-cell), so the lock stays cold.
class TimeSeries {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  struct Point {
    double x = 0.0;
    double y = 0.0;
  };

  explicit TimeSeries(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity > 0 ? capacity : 1) {}
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  /// Records one point; once full, the oldest point is overwritten.
  void append(double x, double y);

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Points appended over the series' lifetime (>= size()).
  [[nodiscard]] std::uint64_t total() const;
  /// Points currently held (<= capacity()).
  [[nodiscard]] std::size_t size() const;
  /// The retained points, oldest first.
  [[nodiscard]] std::vector<Point> snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<Point> ring_;
  std::uint64_t head_ = 0;  // total appends; head_ % capacity is next slot
};

/// Looks up (registering on first use) the named instrument. The returned
/// reference is stable for the process lifetime; cache it at the call site.
/// Requesting an existing name with a different instrument kind throws.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// Looks up (registering on first use) the named time-series. `capacity`
/// applies only on first registration.
TimeSeries& series(const std::string& name,
                   std::size_t capacity = TimeSeries::kDefaultCapacity);

/// Zeroes every registered instrument (registration survives). Benches
/// call this to scope a snapshot to one run; tests call it in SetUp.
void reset();

/// One registry entry in a snapshot, values read with relaxed loads.
struct SnapshotEntry {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  long long count = 0;   ///< counter value / histogram observation count
  double value = 0.0;    ///< gauge value / histogram mean
  long long sum = 0;     ///< histogram sum
  long long max = 0;     ///< histogram max observation
  long long p50 = 0;     ///< histogram median bucket upper bound
  long long p95 = 0;     ///< histogram p95 bucket upper bound
};

/// All registered instruments, sorted by name.
std::vector<SnapshotEntry> snapshot();

/// The snapshot as one JSON object: {"counters": {name: value, ...},
/// "gauges": {...}, "histograms": {name: {count, sum, mean, max, p50,
/// p95}, ...}}. Benches embed this in their BENCH_*.json documents.
/// Time-series are not included (see series_json()).
std::string snapshot_json();

/// Every registered time-series as one JSON object:
/// {"series": {name: {"capacity": c, "total": t, "points": [[x, y], ...]},
/// ...}} — the payload of the telemetry server's /series.json.
std::string series_json();

/// The registry rendered in Prometheus text exposition format — the
/// payload of the telemetry server's /metrics. Metric names are sanitised
/// ("solver.ns" -> adarnet_solver_ns) and the original dotted name is
/// kept in a `name` label so Prometheus series cross-reference DESIGN.md's
/// naming scheme verbatim. Histograms render as cumulative le-buckets at
/// the log-scale bucket upper bounds.
///
/// With `openmetrics` false (the default) the output is the classic text
/// format (version 0.0.4) and carries NO exemplars — they are illegal
/// there and break standard Prometheus parsers. With `openmetrics` true
/// the output is OpenMetrics 1.0: histogram buckets carry their
/// `# {trace_id="..."} value` exemplars and the exposition ends with the
/// mandatory `# EOF` marker. The telemetry server picks the flavour from
/// the scrape's Accept header.
std::string prometheus_text(bool openmetrics = false);

}  // namespace adarnet::util::metrics
