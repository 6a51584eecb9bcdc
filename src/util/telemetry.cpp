#include "util/telemetry.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/reqctx.hpp"
#include "util/socket_io.hpp"
#include "util/timer.hpp"

#if !defined(_WIN32)
#include <sys/socket.h>
#include <unistd.h>
#define ADARNET_TELEMETRY_SOCKETS 1
#endif

namespace adarnet::util::telemetry {

namespace {

std::mutex g_mutex;             // guards start/stop transitions
std::atomic<bool> g_running{false};
std::atomic<int> g_port{0};
std::atomic<long long> g_requests{0};
int g_listen_fd = -1;
std::thread g_thread;
WallTimer g_uptime;
// Per-connection SO_RCVTIMEO/SO_SNDTIMEO: a client that connects and never
// sends (or never reads) costs the single-threaded acceptor at most this
// long instead of wedging it forever. Tests shrink it to keep the stalled-
// client regression fast.
std::atomic<int> g_io_timeout_ms{2000};

#ifdef ADARNET_TELEMETRY_SOCKETS

// The endpoints are header-only GETs: a request past this many bytes, or
// claiming a body that would take it there, is refused with 413.
constexpr std::size_t kMaxRequestBytes = 8 * 1024;

void handle_client(int fd) {
  // read_http_request retries EINTR (a signal mid-read must not drop the
  // request) and runs under the per-connection timeouts set by the
  // acceptor, so a stalled peer resolves as a timeout, not a wedged
  // server. A peer that stalls or closes early gets no reply.
  std::string raw;
  std::string response;
  switch (socket_io::read_http_request(fd, raw, kMaxRequestBytes)) {
    case socket_io::ReadResult::kOk: {
      const socket_io::RequestLine line = socket_io::parse_request_line(raw);
      response = detail::respond(line.method, line.target,
                                 detail::header_value(raw, "accept"));
      break;
    }
    case socket_io::ReadResult::kTooLarge:
      response = socket_io::http_response("413 Content Too Large",
                                          "request too large\n", "text/plain");
      break;
    default:
      break;
  }
  // Counted before the reply goes out, so a client holding its reply
  // always finds itself in request_count().
  g_requests.fetch_add(1, std::memory_order_relaxed);
  if (!response.empty()) socket_io::send_all(fd, response);
  ::close(fd);
}

void acceptor_loop(int listen_fd) {
  while (g_running.load(std::memory_order_acquire)) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (!g_running.load(std::memory_order_acquire)) break;
      continue;  // transient accept failure (EINTR etc.)
    }
    socket_io::set_io_timeout(client,
                              g_io_timeout_ms.load(std::memory_order_relaxed));
    handle_client(client);
  }
}

void stop_at_exit() { stop(); }

#endif  // ADARNET_TELEMETRY_SOCKETS

}  // namespace

bool start(int port) {
#ifdef ADARNET_TELEMETRY_SOCKETS
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_running.load(std::memory_order_acquire)) return false;
  if (port < 0 || port > 65535) return false;

  int bound = 0;
  const int fd = socket_io::listen_loopback(port, 16, &bound);
  if (fd < 0) return false;
  g_port.store(bound, std::memory_order_release);
  g_listen_fd = fd;
  g_uptime.reset();
  g_running.store(true, std::memory_order_release);
  g_thread = std::thread(acceptor_loop, fd);
  static bool atexit_once = [] {
    std::atexit(stop_at_exit);
    return true;
  }();
  (void)atexit_once;
  ADR_LOG_INFO << "telemetry: serving http://127.0.0.1:"
               << g_port.load(std::memory_order_acquire)
               << " (/healthz /metrics /snapshot.json /series.json "
                  "/requests.json /trace/<id>.json)";
  return true;
#else
  (void)port;
  return false;
#endif
}

void stop() {
#ifdef ADARNET_TELEMETRY_SOCKETS
  std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_running.load(std::memory_order_acquire)) return;
  g_running.store(false, std::memory_order_release);
  // shutdown() unblocks the acceptor even on platforms where close() alone
  // does not wake a blocked accept().
  ::shutdown(g_listen_fd, SHUT_RDWR);
  ::close(g_listen_fd);
  g_listen_fd = -1;
  if (g_thread.joinable()) g_thread.join();
  g_port.store(0, std::memory_order_release);
#endif
}

bool running() { return g_running.load(std::memory_order_acquire); }

int bound_port() { return g_port.load(std::memory_order_acquire); }

long long request_count() {
  return g_requests.load(std::memory_order_relaxed);
}

namespace detail {

void set_io_timeout_ms(int ms) {
  g_io_timeout_ms.store(ms > 0 ? ms : 0, std::memory_order_relaxed);
}

bool parse_port(const char* text, int* port) {
  if (text == nullptr || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || *end != '\0' || v > 65535) return false;
  *port = static_cast<int>(v);
  return true;
}

void autostart_from_env() {
  static bool once = [] {
    const char* v = std::getenv("ADARNET_TELEMETRY_PORT");
    if (v == nullptr || v[0] == '\0') return false;
    int port = 0;
    if (!parse_port(v, &port)) {
      ADR_LOG_WARN << "telemetry: ignoring ADARNET_TELEMETRY_PORT=\"" << v
                   << "\" (expected a port number 0-65535); not serving";
      return false;
    }
    if (!start(port)) {
      ADR_LOG_WARN << "telemetry: could not serve ADARNET_TELEMETRY_PORT="
                   << v;
    }
    return true;
  }();
  (void)once;
}

std::string header_value(const std::string& raw_request,
                         const std::string& name) {
  auto lower = [](char c) {
    return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  };
  std::size_t pos = raw_request.find('\n');  // skip the request line
  while (pos != std::string::npos) {
    ++pos;
    std::size_t i = 0;
    while (i < name.size() && pos + i < raw_request.size() &&
           lower(raw_request[pos + i]) == lower(name[i])) {
      ++i;
    }
    if (i == name.size() && pos + i < raw_request.size() &&
        raw_request[pos + i] == ':') {
      std::size_t v = pos + i + 1;
      while (v < raw_request.size() &&
             (raw_request[v] == ' ' || raw_request[v] == '\t')) {
        ++v;
      }
      std::size_t end = raw_request.find_first_of("\r\n", v);
      if (end == std::string::npos) end = raw_request.size();
      return raw_request.substr(v, end - v);
    }
    pos = raw_request.find('\n', pos);
  }
  return std::string();
}

std::string respond(const std::string& method, const std::string& path,
                    const std::string& accept) {
  if (method != "GET" && method != "HEAD") {
    return socket_io::http_response("405 Method Not Allowed",
                                    "method not allowed\n", "text/plain");
  }
  if (path == "/healthz") {
    char body[96];
    std::snprintf(body, sizeof(body),
                  "{\"status\": \"ok\", \"uptime_s\": %.3f}\n",
                  g_uptime.seconds());
    return socket_io::http_response("200 OK", body);
  }
  if (path == "/metrics") {
    // Exemplars are only legal in OpenMetrics: scrapers that ask for it
    // get the exemplar-bearing exposition (ending in "# EOF"); everyone
    // else gets classic 0.0.4 text with no exemplars, which any
    // Prometheus-compatible parser accepts.
    if (accept.find("application/openmetrics-text") != std::string::npos) {
      return socket_io::http_response(
          "200 OK", metrics::prometheus_text(/*openmetrics=*/true),
          "application/openmetrics-text; version=1.0.0");
    }
    return socket_io::http_response("200 OK", metrics::prometheus_text(),
                                    "text/plain; version=0.0.4");
  }
  if (path == "/snapshot.json") {
    return socket_io::http_response("200 OK", metrics::snapshot_json() + "\n");
  }
  if (path == "/series.json") {
    return socket_io::http_response("200 OK", metrics::series_json() + "\n");
  }
  if (path == "/requests.json") {
    return socket_io::http_response("200 OK",
                                    reqctx::recorder().requests_json());
  }
  // GET /trace/<id>[.json]: a retained request's span tree as a
  // chrome://tracing document (load via chrome://tracing or Perfetto).
  if (path.rfind("/trace/", 0) == 0) {
    std::string id_str = path.substr(7);
    const std::size_t dot = id_str.rfind(".json");
    if (dot != std::string::npos && dot + 5 == id_str.size()) {
      id_str.resize(dot);
    }
    std::uint64_t id = 0;
    if (!reqctx::parse_trace_id(id_str, &id)) {
      return socket_io::http_response("400 Bad Request",
                                      "{\"error\": \"bad trace id\"}\n");
    }
    std::string doc;
    if (!reqctx::recorder().trace_json(id, &doc)) {
      return socket_io::http_response(
          "404 Not Found",
          "{\"error\": \"trace not retained (evicted or never recorded)\"}\n");
    }
    return socket_io::http_response("200 OK", doc);
  }
  return socket_io::http_response("404 Not Found", "not found\n", "text/plain");
}

}  // namespace detail

}  // namespace adarnet::util::telemetry
