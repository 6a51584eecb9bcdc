// Embedded telemetry HTTP server: watch a running train / infer / solve
// job with nothing but curl.
//
// A single acceptor thread serves read-only endpoints over plain POSIX
// sockets (no dependencies, loopback only):
//
//   /healthz          200 "ok" + uptime — liveness probe
//   /metrics          util::metrics registry in Prometheus text exposition.
//                     Content-negotiated: scrapers sending
//                     "Accept: application/openmetrics-text" get the
//                     OpenMetrics flavour, where latency histogram buckets
//                     carry exemplars linking them to request trace ids;
//                     everyone else gets classic 0.0.4 text, exemplar-free
//                     (exemplars are illegal in that format)
//   /snapshot.json    util::metrics::snapshot_json() (BENCH_*.json shape)
//   /series.json      util::metrics::series_json() (convergence series)
//   /requests.json    flight-recorder summaries, newest first (reqctx)
//   /trace/<id>.json  a retained request's span tree as a chrome://tracing
//                     document; 404 when the id was evicted/never retained
//
// Opt-in: the server only exists when ADARNET_TELEMETRY_PORT is set in the
// environment (port number; 0 picks an ephemeral port, logged at startup;
// anything else is warned about and binds nothing) or start() is called
// programmatically. With the variable unset no socket
// is opened and nothing is spawned — the cost is one getenv at static-init
// time. The server binds 127.0.0.1 only; it is an operator tool, not a
// public listener. Requests are served one at a time (scrape cadence is
// seconds; handlers only read lock-free registries), every accepted
// connection carries send/receive timeouts so a stalled client cannot
// wedge the acceptor (detail::set_io_timeout_ms), and the thread is
// joined via atexit before static teardown.
#pragma once

#include <string>

namespace adarnet::util::telemetry {

/// Starts the server on 127.0.0.1:`port` (0 = ephemeral). Returns false if
/// a server is already running or the socket cannot be opened. Thread-safe.
bool start(int port);

/// Stops the server and joins the acceptor thread. Safe to call when not
/// running. Runs automatically at process exit.
void stop();

/// True while the acceptor thread is serving.
bool running();

/// The bound port (0 when not running). With start(0) this is the
/// kernel-assigned ephemeral port.
int bound_port();

/// Requests handled since start() (diagnostics/tests).
long long request_count();

namespace detail {
/// Per-connection SO_RCVTIMEO/SO_SNDTIMEO applied to accepted sockets
/// (default 2000 ms; 0 disables). A client that connects and never sends
/// costs the acceptor at most this long. Tests shrink it so the stalled-
/// client regression stays fast.
void set_io_timeout_ms(int ms);

/// Parses an ADARNET_TELEMETRY_PORT value: a whole decimal integer in
/// [0, 65535] (0 = ephemeral). Returns false for anything else ("off",
/// "9464x", "-1", "70000", ""), leaving *port untouched.
bool parse_port(const char* text, int* port);

/// Starts the server when ADARNET_TELEMETRY_PORT is set. A value
/// parse_port rejects is warned about and binds nothing. Called once from
/// the metrics static initializer so every binary honours the variable;
/// harmless to call again.
void autostart_from_env();

/// Case-insensitive lookup of an HTTP header's value in raw request bytes
/// ("accept" -> "application/openmetrics-text"). Returns "" when absent.
std::string header_value(const std::string& raw_request,
                         const std::string& name);

/// Routes one parsed request to its response (status line + headers +
/// body). `accept` is the request's Accept header value (empty when the
/// client sent none); /metrics uses it to negotiate OpenMetrics vs the
/// classic text format. Exposed so tests can golden-test routing without
/// a socket.
std::string respond(const std::string& method, const std::string& path,
                    const std::string& accept = std::string());
}  // namespace detail

}  // namespace adarnet::util::telemetry
