// util/metrics + util/trace: registry correctness, the disabled no-op
// path, snapshot JSON well-formedness, trace-file validity, and 4-thread
// concurrent updates (the TSan CI job races these, ctest -L obs).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace metrics = adarnet::util::metrics;
namespace trace = adarnet::util::trace;

namespace {

// --- a minimal JSON structural validator -----------------------------------
// Recursive-descent over objects / arrays / strings / numbers / literals.
// Returns true iff the whole document is one well-formed JSON value. Small
// on purpose: the tests need "is this parseable", not a DOM.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-' || peek() == '+') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Finds `"key": <number>` and returns the number (0 + failure otherwise).
bool json_number_at(const std::string& doc, const std::string& key,
                    double* out) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = doc.find(needle);
  if (at == std::string::npos) return false;
  *out = std::atof(doc.c_str() + at + needle.size());
  return true;
}

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(true);
    metrics::reset();
  }
  void TearDown() override {
    metrics::set_enabled(true);
    metrics::reset();
  }
};

}  // namespace

TEST_F(MetricsTest, CounterAccumulatesAndResets) {
  metrics::Counter& c = metrics::counter("obs.test.counter");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.add(1'500'000'000LL);  // ns convention: 1.5 s
  EXPECT_EQ(c.value(), 42 + 1'500'000'000LL);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(MetricsTest, RegistryReturnsStableReferences) {
  metrics::Counter& a = metrics::counter("obs.test.stable");
  metrics::Counter& b = metrics::counter("obs.test.stable");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7);
}

TEST_F(MetricsTest, KindMismatchThrows) {
  metrics::counter("obs.test.kind");
  EXPECT_THROW(metrics::gauge("obs.test.kind"), std::logic_error);
  EXPECT_THROW(metrics::histogram("obs.test.kind"), std::logic_error);
}

TEST_F(MetricsTest, GaugeSetAndMax) {
  metrics::Gauge& g = metrics::gauge("obs.test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.max(1.0);  // smaller: no change
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds 0; bucket k >= 1 holds [2^(k-1), 2^k).
  EXPECT_EQ(metrics::Histogram::bucket_of(0), 0);
  EXPECT_EQ(metrics::Histogram::bucket_of(-5), 0);
  EXPECT_EQ(metrics::Histogram::bucket_of(1), 1);
  EXPECT_EQ(metrics::Histogram::bucket_of(2), 2);
  EXPECT_EQ(metrics::Histogram::bucket_of(3), 2);
  EXPECT_EQ(metrics::Histogram::bucket_of(4), 3);
  EXPECT_EQ(metrics::Histogram::bucket_of(7), 3);
  EXPECT_EQ(metrics::Histogram::bucket_of(8), 4);
  EXPECT_EQ(metrics::Histogram::bucket_upper(0), 0);
  EXPECT_EQ(metrics::Histogram::bucket_upper(1), 1);
  EXPECT_EQ(metrics::Histogram::bucket_upper(2), 3);
  EXPECT_EQ(metrics::Histogram::bucket_upper(3), 7);
}

TEST_F(MetricsTest, HistogramStatistics) {
  metrics::Histogram& h = metrics::histogram("obs.test.hist");
  for (long long v : {0LL, 1LL, 2LL, 3LL, 100LL}) h.observe(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 106);
  EXPECT_EQ(h.max_value(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 5.0);
  EXPECT_EQ(h.bucket_count(0), 1);  // the 0
  EXPECT_EQ(h.bucket_count(1), 1);  // the 1
  EXPECT_EQ(h.bucket_count(2), 2);  // 2 and 3
  // Median lands in bucket 2 (upper bound 3); p95 in the bucket of 100.
  EXPECT_EQ(h.quantile(0.5), 3);
  EXPECT_EQ(h.quantile(0.95),
            metrics::Histogram::bucket_upper(
                metrics::Histogram::bucket_of(100)));
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.quantile(0.5), 0);
}

TEST_F(MetricsTest, DisabledPathIsANoOp) {
  metrics::Counter& c = metrics::counter("obs.test.disabled");
  metrics::Histogram& h = metrics::histogram("obs.test.disabled.hist");
  metrics::Gauge& g = metrics::gauge("obs.test.disabled.gauge");
  metrics::set_enabled(false);
  EXPECT_FALSE(metrics::enabled());
  c.add(100);
  h.observe(100);
  g.set(100.0);
  g.max(100.0);
  { trace::Span t(trace::Site{"obs.test.disabled.scope", &c}); }
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  metrics::set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 1);
}

TEST_F(MetricsTest, SnapshotReflectsRegisteredInstruments) {
  metrics::counter("obs.test.snap.counter").add(3);
  metrics::gauge("obs.test.snap.gauge").set(1.5);
  metrics::histogram("obs.test.snap.hist").observe(4);
  const auto entries = metrics::snapshot();
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const auto& e : entries) {
    if (e.name == "obs.test.snap.counter") {
      saw_counter = true;
      EXPECT_EQ(e.kind, metrics::SnapshotEntry::Kind::kCounter);
      EXPECT_EQ(e.count, 3);
    } else if (e.name == "obs.test.snap.gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(e.value, 1.5);
    } else if (e.name == "obs.test.snap.hist") {
      saw_hist = true;
      EXPECT_EQ(e.count, 1);
      EXPECT_EQ(e.sum, 4);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST_F(MetricsTest, SnapshotJsonRoundTrips) {
  metrics::counter("obs.test.json.counter").add(42);
  metrics::gauge("obs.test.json.gauge").set(2.25);
  metrics::histogram("obs.test.json.hist").observe(5);
  const std::string doc = metrics::snapshot_json();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  double v = 0.0;
  ASSERT_TRUE(json_number_at(doc, "obs.test.json.counter", &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
  ASSERT_TRUE(json_number_at(doc, "obs.test.json.gauge", &v));
  EXPECT_DOUBLE_EQ(v, 2.25);
  EXPECT_NE(doc.find("\"obs.test.json.hist\": {\"count\": 1"),
            std::string::npos)
      << doc;
}

TEST_F(MetricsTest, ConcurrentUpdatesAreExact) {
  // 4 threads hammering one counter and one histogram; relaxed atomics
  // must lose no updates. The TSan CI job races this at OMP_NUM_THREADS=4.
  metrics::Counter& c = metrics::counter("obs.test.race.counter");
  metrics::Histogram& h = metrics::histogram("obs.test.race.hist");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(t + 1);
        // Registry lookups from multiple threads must also be safe.
        metrics::counter("obs.test.race.lookup").add();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<long long>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<long long>(kThreads) * kPerThread);
  EXPECT_EQ(h.max_value(), kThreads);
  EXPECT_EQ(metrics::counter("obs.test.race.lookup").value(),
            static_cast<long long>(kThreads) * kPerThread);
}

// --- tracing ----------------------------------------------------------------

namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::clear();
    trace::set_path("");  // disabled until a test opts in
  }
  void TearDown() override {
    trace::set_path("");
    trace::clear();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  EXPECT_FALSE(trace::enabled());
  { trace::Span span("obs.test.disabled"); }
  EXPECT_EQ(trace::event_count(), 0u);
}

TEST_F(TraceTest, FlushWritesChromeTracingJson) {
  const std::string path = "test_trace_out.json";
  trace::set_path(path);
  EXPECT_TRUE(trace::enabled());
  {
    trace::Span outer("obs.test.outer");
    trace::Span inner("obs.test.inner");
  }
  EXPECT_EQ(trace::event_count(), 2u);
  ASSERT_TRUE(trace::flush());
  const std::string doc = slurp(path);
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"obs.test.outer\""), std::string::npos);
  EXPECT_NE(doc.find("\"obs.test.inner\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, ConcurrentSpansAllRecorded) {
  const std::string path = "test_trace_race.json";
  trace::set_path(path);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        trace::Span span("obs.test.race");
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(trace::event_count(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  ASSERT_TRUE(trace::flush());
  EXPECT_TRUE(JsonChecker(slurp(path)).valid());
  std::remove(path.c_str());
}

TEST_F(TraceTest, FlushDuringSpansNeverTearsTheFile) {
  // Regression test for the flush race: flush() used to serialise the
  // event buffer straight into the output stream while other threads kept
  // appending, so a reader (or a crash) could observe a file missing its
  // closing "]". flush() now snapshots the buffer and renames a fully
  // written temp file into place, so every observation of the path is a
  // complete JSON document — checked here by re-reading it between
  // flushes while 4 threads hammer spans.
  const std::string path = "test_trace_flush_race.json";
  trace::set_path(path);
  // Workers record a *bounded* number of spans (the buffer is unbounded,
  // and each flush serialises all of it — an open-ended spinner would blow
  // the test up quadratically) while the main thread keeps flushing and
  // re-reading the file for as long as they run.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&running] {
      for (int i = 0; i < kPerThread; ++i) {
        trace::Span span("obs.test.flush.race");
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  int flushes = 0;
  while (running.load(std::memory_order_acquire) > 0 || flushes == 0) {
    ASSERT_TRUE(trace::flush());
    ++flushes;
    const std::string doc = slurp(path);
    ASSERT_FALSE(doc.empty());
    ASSERT_TRUE(JsonChecker(doc).valid())
        << "torn trace file, flush " << flushes;
    if (flushes >= 200) break;  // plenty of interleavings either way
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(trace::event_count(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  ASSERT_TRUE(trace::flush());
  EXPECT_TRUE(JsonChecker(slurp(path)).valid());
  std::remove(path.c_str());
}

// --- one JSON writer (util/json.hpp) ------------------------------------------

namespace {

// True when a JSON string literal in `doc` holds a raw byte below 0x20
// (JSON requires those escaped; bytes between literals are whitespace).
bool raw_control_byte_in_string(const std::string& doc) {
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (!in_string) {
      in_string = c == '"';
    } else if (c == '\\') {
      ++i;  // the escaped byte
    } else if (c == '"') {
      in_string = false;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

// A name holding a quote, a backslash, a newline and a raw 0x01 byte, and
// how every document must spell it.
constexpr char kNastyName[] = "obs.test.\"q\\b\nn\x01z";
constexpr char kNastyEscaped[] = "obs.test.\\\"q\\\\b\\nn\\u0001z";

}  // namespace

TEST_F(TraceTest, ControlBytesAreEscapedInEveryJsonDocument) {
  metrics::counter(kNastyName).add(1);
  const std::string snapshot = metrics::snapshot_json();
  EXPECT_FALSE(raw_control_byte_in_string(snapshot));
  EXPECT_NE(snapshot.find(kNastyEscaped), std::string::npos);
  EXPECT_TRUE(JsonChecker(snapshot).valid());

  const std::string path = "test_trace_escape.json";
  trace::set_path(path);
  { trace::Span span(kNastyName); }
  ASSERT_TRUE(trace::flush());
  const std::string timeline = slurp(path);
  std::remove(path.c_str());
  EXPECT_FALSE(raw_control_byte_in_string(timeline));
  EXPECT_NE(timeline.find(kNastyEscaped), std::string::npos);
  EXPECT_TRUE(JsonChecker(timeline).valid());

  adarnet::util::reqctx::FlightRecorder recorder;
  adarnet::util::reqctx::RequestSummary summary;
  summary.trace_id = 1;
  summary.case_name = kNastyName;
  recorder.record_summary(summary);
  const std::string listing = recorder.requests_json();
  EXPECT_FALSE(raw_control_byte_in_string(listing));
  EXPECT_NE(listing.find(kNastyEscaped), std::string::npos);
  EXPECT_TRUE(JsonChecker(listing).valid());
}
