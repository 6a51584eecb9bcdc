// Shared POSIX socket and HTTP helpers for the telemetry and serving
// servers (DESIGN.md §10, §13): the loopback listener, per-connection
// timeouts, EINTR-safe reads/writes, a bounded HTTP request reader, the
// request-line parser and the response builder.
//
// Two failure modes these exist to close off:
//   * A client that connects and never sends (or never reads) must not
//     wedge a server thread — every accepted socket gets SO_RCVTIMEO and
//     SO_SNDTIMEO so a stalled peer costs at most the timeout.
//   * A signal delivered mid-recv/send must not drop the request — every
//     loop retries EINTR, mirroring the acceptor's transient-failure
//     handling.
#pragma once

#include <cstddef>
#include <string>

namespace adarnet::util::socket_io {

/// The method and target of a request's first line: "GET /x?q HTTP/1.1"
/// gives "GET" and "/x?q". Both are empty when the line has no space.
struct RequestLine {
  std::string method;
  std::string target;
};

inline RequestLine parse_request_line(const std::string& raw) {
  const std::string line = raw.substr(0, raw.find_first_of("\r\n"));
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return {};
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  return {line.substr(0, sp1),
          line.substr(sp1 + 1, sp2 == std::string::npos ? std::string::npos
                                                        : sp2 - sp1 - 1)};
}

/// One complete HTTP/1.1 response: the status line, Content-Type and
/// Content-Length, `extra_headers` (each line ending "\r\n"), then
/// "Connection: close" and the body.
inline std::string http_response(const char* status, const std::string& body,
                                 const char* content_type = "application/json",
                                 const std::string& extra_headers = "") {
  std::string out = "HTTP/1.1 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\n";
  out += extra_headers;
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace adarnet::util::socket_io

#if !defined(_WIN32)

#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace adarnet::util::socket_io {

/// Opens a TCP listener on 127.0.0.1:`port` (0 = an ephemeral port) with
/// SO_REUSEADDR and `backlog`. Returns the socket and stores the port it
/// bound in `*bound_port`, or returns -1 when it cannot bind or listen.
inline int listen_loopback(int port, int backlog, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  *bound_port =
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0
          ? static_cast<int>(ntohs(bound.sin_port))
          : 0;
  return fd;
}

/// Applies SO_RCVTIMEO and SO_SNDTIMEO to `fd` (0 = no timeout).
inline void set_io_timeout(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// recv() that retries EINTR. Returns bytes read, 0 on orderly shutdown,
/// or -1 on error/timeout (errno EAGAIN/EWOULDBLOCK when SO_RCVTIMEO hit).
inline ssize_t recv_retry(int fd, char* buf, std::size_t n) {
  while (true) {
    const ssize_t got = ::recv(fd, buf, n, 0);
    if (got < 0 && errno == EINTR) continue;
    return got;
  }
}

/// Sends the whole buffer, retrying EINTR and short writes. Returns false
/// on error or send timeout.
inline bool send_all(int fd, const char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

inline bool send_all(int fd, const std::string& s) {
  return send_all(fd, s.data(), s.size());
}

/// Outcome of read_http_request.
enum class ReadResult {
  kOk,        ///< headers complete (and the Content-Length body, if any)
  kTimeout,   ///< peer stalled past SO_RCVTIMEO — respond 408 and close
  kClosed,    ///< peer closed before a complete request
  kTooLarge,  ///< request exceeded max_bytes — respond 413 and close
};

/// Reads one HTTP request into `out`: everything up to the header
/// terminator plus, when a Content-Length header is present, that many
/// body bytes. Bounded by `max_bytes` of total buffering (never grows
/// past it, whatever the client claims). Expects set_io_timeout() to have
/// been applied so a silent peer resolves as kTimeout, not a wedge.
inline ReadResult read_http_request(int fd, std::string& out,
                                    std::size_t max_bytes) {
  out.clear();
  std::size_t header_end = std::string::npos;
  std::size_t body_expected = 0;
  char buf[4096];
  while (out.size() < max_bytes) {
    if (header_end != std::string::npos &&
        out.size() >= header_end + body_expected) {
      return ReadResult::kOk;
    }
    const ssize_t n = recv_retry(fd, buf, sizeof(buf));
    if (n < 0) return ReadResult::kTimeout;
    if (n == 0) {
      // Orderly close: fine after a complete header-only request.
      return header_end != std::string::npos &&
                     out.size() >= header_end + body_expected
                 ? ReadResult::kOk
                 : ReadResult::kClosed;
    }
    out.append(buf, static_cast<std::size_t>(n));
    if (header_end == std::string::npos) {
      std::size_t pos = out.find("\r\n\r\n");
      std::size_t skip = 4;
      if (pos == std::string::npos) {
        pos = out.find("\n\n");
        skip = 2;
      }
      if (pos != std::string::npos) {
        header_end = pos + skip;
        // Case-insensitive-enough Content-Length scan over the header block
        // (clients here are curl/tests; both spellings are covered).
        for (const char* key : {"Content-Length:", "content-length:"}) {
          const std::size_t at = out.substr(0, header_end).find(key);
          if (at != std::string::npos) {
            body_expected = static_cast<std::size_t>(
                std::strtoul(out.c_str() + at + 15, nullptr, 10));
            break;
          }
        }
        if (header_end + body_expected > max_bytes) {
          return ReadResult::kTooLarge;
        }
      }
    }
  }
  return ReadResult::kTooLarge;
}

}  // namespace adarnet::util::socket_io

#endif  // !_WIN32
