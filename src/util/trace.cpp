#include "util/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/metrics.hpp"

namespace adarnet::util::trace {

namespace {

std::size_t env_max_events() {
  constexpr std::size_t kDefault = 1u << 20;  // ~24 MB of events
  const char* v = std::getenv("ADARNET_TRACE_MAX_EVENTS");
  if (v == nullptr || v[0] == '\0') return kDefault;
  // Unbounded is an explicit opt-in ("unlimited" or a literal "0"), never
  // the result of a typo: an unparseable value fails closed to the default
  // so a long-running server keeps its memory bound.
  if (std::strcmp(v, "unlimited") == 0) return 0;
  char* end = nullptr;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || n < 0) {
    std::fprintf(stderr,
                 "adarnet: unparseable ADARNET_TRACE_MAX_EVENTS=\"%s\"; "
                 "using default %zu\n",
                 v, kDefault);
    return kDefault;
  }
  return static_cast<std::size_t>(n);  // 0 = explicit unbounded
}

std::atomic<std::size_t> g_max_events{env_max_events()};
std::atomic<long long> g_dropped{0};

struct Event {
  const char* name;
  std::int64_t ts_us;
  std::int64_t dur_us;
  std::uint32_t tid;
};

// Buffer + path, locked on record/flush only (never on the disabled path).
std::mutex g_mutex;
std::vector<Event>& events() {
  static std::vector<Event>* v = new std::vector<Event>();  // outlives atexit
  return *v;
}
std::string& out_path() {
  static std::string* p = new std::string();
  return *p;
}

std::uint32_t thread_tid() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}

void flush_at_exit() { flush(); }

void register_atexit() {
  static bool once = [] {
    std::atexit(flush_at_exit);
    return true;
  }();
  (void)once;
}

// Records one complete event (slow path; locks the event buffer).
void record(const char* name, std::int64_t ts_us, std::int64_t dur_us) {
  const std::uint32_t tid = thread_tid();
  const std::size_t cap = g_max_events.load(std::memory_order_relaxed);
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (cap != 0 && events().size() >= cap) {
      dropped = true;
    } else {
      events().push_back(Event{name, ts_us, dur_us, tid});
      register_atexit();
    }
  }
  if (dropped) {
    // Counted outside g_mutex: metrics has its own registry lock and must
    // never nest inside the trace buffer lock.
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    static metrics::Counter& drops = metrics::counter("trace.dropped_events");
    drops.add(1);
  }
}

std::int64_t to_us(std::int64_t ns) {
  static const std::int64_t epoch_ns = detail::now_ns();
  return (ns - epoch_ns) / 1000;
}

}  // namespace

namespace detail {

bool env_enabled() {
  const char* v = std::getenv("ADARNET_TRACE");
  if (v == nullptr || v[0] == '\0' ||
      (v[0] == '0' && v[1] == '\0')) {
    return false;
  }
  out_path() = (v[0] == '1' && v[1] == '\0') ? "adarnet_trace.json" : v;
  register_atexit();  // a trace-enabled run always produces the file
  reqctx::detail::gate_trace_enabled(true);  // arm the shared span gate
  return true;
}

std::int64_t now_us() { return to_us(now_ns()); }

int open_events(const char* name, std::int64_t start_ns) {
  return reqctx::detail::open_span(name, to_us(start_ns));
}

void close_events(const char* name, std::int64_t start_ns,
                  std::int64_t end_ns, int node) {
  const std::int64_t start_us = to_us(start_ns);
  const std::int64_t end_us = to_us(end_ns);
  if (enabled()) record(name, start_us, end_us - start_us);
  if (node >= 0) reqctx::detail::close_span(node, end_us);
}

}  // namespace detail

void set_path(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    out_path() = path;
  }
  const bool on = !path.empty();
  const bool was =
      detail::g_enabled.exchange(on, std::memory_order_relaxed);
  if (on != was) reqctx::detail::gate_trace_enabled(on);
  if (on) register_atexit();
}

std::string path() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return out_path();
}

bool flush() {
  // Snapshot the buffer + path under the record lock, then serialise and
  // write OUTSIDE it: holding g_mutex across file I/O stalled every span
  // completion for the duration of the write, and a flush racing process
  // exit could leave a torn document (truncated events, missing closing
  // "]"). The document is written to "<path>.tmp" and renamed into place,
  // so a reader — or a concurrent flush — only ever sees a complete file.
  std::string path;
  std::vector<Event> snapshot;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (out_path().empty()) return false;
    path = out_path();
    snapshot = events();
  }

  std::string doc = "{\"traceEvents\": [";
  bool first = true;
  for (const Event& e : snapshot) {
    if (!first) doc += ",";
    first = false;
    doc += "\n  {\"name\": \"";
    doc += json::escape(e.name);
    doc += "\", \"cat\": \"adarnet\", \"ph\": \"X\", \"ts\": ";
    doc += std::to_string(e.ts_us);
    doc += ", \"dur\": ";
    doc += std::to_string(e.dur_us);
    doc += ", \"pid\": 1, \"tid\": ";
    doc += std::to_string(e.tid);
    doc += "}";
  }
  doc += "\n], \"displayTimeUnit\": \"ms\"}\n";

  // One flush writes at a time: two concurrent flushes sharing a .tmp file
  // would interleave just like the original race.
  static std::mutex* write_mutex = new std::mutex();
  std::lock_guard<std::mutex> write_lock(*write_mutex);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << doc;
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mutex);
  events().clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::size_t event_count() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return events().size();
}

void set_max_events(std::size_t n) {
  g_max_events.store(n, std::memory_order_relaxed);
}

std::size_t max_events() {
  return g_max_events.load(std::memory_order_relaxed);
}

long long dropped_count() {
  return g_dropped.load(std::memory_order_relaxed);
}

}  // namespace adarnet::util::trace
