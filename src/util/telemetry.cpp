#include "util/telemetry.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/reqctx.hpp"
#include "util/socket_io.hpp"
#include "util/timer.hpp"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
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

std::string http_response(const char* status, const char* content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

#ifdef ADARNET_TELEMETRY_SOCKETS

void handle_client(int fd) {
  // The four endpoints are GETs with no body: the request line is all we
  // need. Read up to one buffer's worth and parse "<METHOD> <PATH> ...".
  // recv/send retry EINTR (a signal mid-read must not drop the request)
  // and run under the per-connection timeouts set by the acceptor, so a
  // stalled peer resolves as a closed connection, not a wedged server.
  char buf[2048];
  std::size_t got = 0;
  while (got < sizeof(buf) - 1) {
    const ssize_t n = socket_io::recv_retry(fd, buf + got,
                                            sizeof(buf) - 1 - got);
    if (n <= 0) break;  // closed, error, or SO_RCVTIMEO expired
    got += static_cast<std::size_t>(n);
    buf[got] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr) {
      break;
    }
  }
  buf[got] = '\0';
  std::string method, path;
  {
    const char* sp1 = std::strchr(buf, ' ');
    if (sp1 != nullptr) {
      method.assign(static_cast<const char*>(buf), sp1);
      const char* sp2 = std::strchr(sp1 + 1, ' ');
      const char* eol = std::strpbrk(sp1 + 1, "\r\n");
      const char* end = sp2 != nullptr ? sp2 : eol;
      if (end != nullptr) path.assign(sp1 + 1, end);
    }
  }
  const std::string response =
      detail::respond(method, path, detail::header_value(buf, "accept"));
  socket_io::send_all(fd, response);
  ::close(fd);
  g_requests.fetch_add(1, std::memory_order_relaxed);
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

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    g_port.store(static_cast<int>(ntohs(bound.sin_port)),
                 std::memory_order_release);
  }
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
    return http_response("405 Method Not Allowed", "text/plain",
                         "method not allowed\n");
  }
  if (path == "/healthz") {
    char body[96];
    std::snprintf(body, sizeof(body),
                  "{\"status\": \"ok\", \"uptime_s\": %.3f}\n",
                  g_uptime.seconds());
    return http_response("200 OK", "application/json", body);
  }
  if (path == "/metrics") {
    // Exemplars are only legal in OpenMetrics: scrapers that ask for it
    // get the exemplar-bearing exposition (ending in "# EOF"); everyone
    // else gets classic 0.0.4 text with no exemplars, which any
    // Prometheus-compatible parser accepts.
    if (accept.find("application/openmetrics-text") != std::string::npos) {
      return http_response(
          "200 OK", "application/openmetrics-text; version=1.0.0",
          metrics::prometheus_text(/*openmetrics=*/true));
    }
    return http_response("200 OK", "text/plain; version=0.0.4",
                         metrics::prometheus_text());
  }
  if (path == "/snapshot.json") {
    return http_response("200 OK", "application/json",
                         metrics::snapshot_json() + "\n");
  }
  if (path == "/series.json") {
    return http_response("200 OK", "application/json",
                         metrics::series_json() + "\n");
  }
  if (path == "/requests.json") {
    return http_response("200 OK", "application/json",
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
      return http_response("400 Bad Request", "application/json",
                           "{\"error\": \"bad trace id\"}\n");
    }
    std::string doc;
    if (!reqctx::recorder().trace_json(id, &doc)) {
      return http_response(
          "404 Not Found", "application/json",
          "{\"error\": \"trace not retained (evicted or never recorded)\"}\n");
    }
    return http_response("200 OK", "application/json", doc);
  }
  return http_response("404 Not Found", "text/plain", "not found\n");
}

}  // namespace detail

}  // namespace adarnet::util::telemetry
