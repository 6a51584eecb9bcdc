#include "util/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/json.hpp"

namespace adarnet::util {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::once_flag g_env_once;

// JSON-lines sink state, guarded by the emit mutex (records are rare
// relative to the metrics hot paths; one lock per record is fine).
std::mutex& emit_mutex() {
  static std::mutex* mu = new std::mutex();  // leaked: outlives atexit users
  return *mu;
}

struct JsonSink {
  std::string path;
  std::FILE* file = nullptr;  // lazily opened in append mode
};
JsonSink& json_sink() {
  static JsonSink* s = new JsonSink();
  return *s;
}

const char* level_name_lower(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void init_from_env() {
  if (const char* env = std::getenv("ADARNET_LOG_LEVEL")) {
    g_level.store(parse_log_level(env));
  }
  if (const char* env = std::getenv("ADARNET_LOG_JSON")) {
    std::lock_guard<std::mutex> lock(emit_mutex());
    json_sink().path = env;
  }
}

}  // namespace

LogLevel log_level() {
  std::call_once(g_env_once, init_from_env);
  return g_level.load();
}

void set_log_level(LogLevel level) {
  std::call_once(g_env_once, init_from_env);
  g_level.store(level);
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return LogLevel::kInfo;
}

void set_json_log_path(const std::string& path) {
  std::call_once(g_env_once, init_from_env);
  std::lock_guard<std::mutex> lock(emit_mutex());
  JsonSink& sink = json_sink();
  if (sink.file != nullptr && sink.path != path) {
    std::fclose(sink.file);
    sink.file = nullptr;
  }
  sink.path = path;
}

std::string json_log_path() {
  std::call_once(g_env_once, init_from_env);
  std::lock_guard<std::mutex> lock(emit_mutex());
  return json_sink().path;
}

namespace detail {

void emit(LogLevel level, const std::string& message) {
  // Format the whole record first, then write it with ONE fwrite under the
  // lock: stderr is unbuffered by default, so a multi-part fprintf from
  // concurrent OpenMP regions interleaves mid-line without this.
  std::string line = "[adarnet ";
  char head[8];
  std::snprintf(head, sizeof(head), "%-5s", level_name(level));
  line += head;
  line += "] ";
  line += message;
  line += '\n';

  std::lock_guard<std::mutex> lock(emit_mutex());
  std::fwrite(line.data(), 1, line.size(), stderr);

  JsonSink& sink = json_sink();
  if (sink.path.empty()) return;
  if (sink.file == nullptr) {
    sink.file = std::fopen(sink.path.c_str(), "a");
    if (sink.file == nullptr) {
      sink.path.clear();  // unusable path: disable instead of retrying
      return;
    }
  }
  const long long ts_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const std::string record = "{\"ts_us\": " + std::to_string(ts_us) +
                             ", \"level\": \"" + level_name_lower(level) +
                             "\", \"msg\": \"" + json::escape(message) +
                             "\"}\n";
  std::fwrite(record.data(), 1, record.size(), sink.file);
  std::fflush(sink.file);
}

}  // namespace detail

}  // namespace adarnet::util
