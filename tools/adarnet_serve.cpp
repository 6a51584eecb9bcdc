// adarnet_serve: the hardened flow-as-a-service front end (DESIGN.md §13).
//
//   adarnet_serve [--port N] [--workers N] [--queue N] [--deadline-ms N]
//                 [--shrink K] [--max-outer N] [--tol X]
//                 [--slo-latency-ms N] [--slo-availability X]
//                 [--recorder-depth N] [--telemetry-port N]
//
// Binds 127.0.0.1 and serves POST /solve, GET /healthz, GET /stats.json
// until SIGINT/SIGTERM. Every knob mirrors a ServingConfig field; --shrink
// divides the paper presets so a laptop can exercise the full ladder. A
// malformed or out-of-range value exits 2 before anything binds.
// --telemetry-port additionally starts the telemetry server (DESIGN.md §15)
// so GET /requests.json and GET /trace/<id>.json can explain requests.
//
//   curl -s localhost:8080/solve -d '{"case": "channel", "re": 2500,
//                                     "deadline_ms": 2000}'

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "util/serving.hpp"
#include "util/telemetry.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--workers N] [--queue N] "
               "[--deadline-ms N] [--shrink K] [--max-outer N] [--tol X]\n"
               "       [--slo-latency-ms N] [--slo-availability X]\n"
               "       [--recorder-depth N] [--telemetry-port N]\n",
               argv0);
  return 2;
}

// Parses a whole flag value as a finite number in [lo, hi] (lo excluded
// when `lo_open`), a whole number when `integer`. Anything else fails
// closed instead of reading as 0.
bool parse_value(const char* s, double lo, double hi, bool lo_open,
                 bool integer, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  if (v < lo || v > hi || (lo_open && v == lo)) return false;
  if (integer && v != std::floor(v)) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adarnet;

  util::serving::ServingConfig cfg;
  cfg.port = 8080;
  int shrink = 0;
  int telemetry_port = -1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    }
    if (val == nullptr) return usage(argv[0]);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kIntMax = std::numeric_limits<int>::max();
    double v = 0.0;
    const auto whole = [&](double lo, double hi) {
      return parse_value(val, lo, hi, false, true, &v);
    };
    const auto real = [&](double lo, double hi, bool lo_open) {
      return parse_value(val, lo, hi, lo_open, false, &v);
    };
    bool ok = true;
    if (std::strcmp(arg, "--port") == 0) {
      ok = whole(0, 65535);
      cfg.port = static_cast<int>(v);
    } else if (std::strcmp(arg, "--workers") == 0) {
      ok = whole(1, kIntMax);
      cfg.workers = static_cast<int>(v);
    } else if (std::strcmp(arg, "--queue") == 0) {
      ok = whole(1, kIntMax);
      cfg.queue_capacity = static_cast<int>(v);
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      ok = real(0, kInf, false);
      cfg.default_deadline_s = v * 1e-3;
    } else if (std::strcmp(arg, "--shrink") == 0) {
      ok = whole(1, kIntMax);
      shrink = static_cast<int>(v);
    } else if (std::strcmp(arg, "--max-outer") == 0) {
      ok = whole(1, 1e6);
      cfg.solver.max_outer = static_cast<int>(v);
    } else if (std::strcmp(arg, "--tol") == 0) {
      ok = real(0, 1, true);
      cfg.solver.tol = v;
    } else if (std::strcmp(arg, "--slo-latency-ms") == 0) {
      ok = real(0, kInf, true);
      cfg.slo_latency_ms = v;
    } else if (std::strcmp(arg, "--slo-availability") == 0) {
      ok = real(0, 1, true) && v < 1.0;
      cfg.slo_availability = v;
    } else if (std::strcmp(arg, "--recorder-depth") == 0) {
      ok = whole(0, kIntMax);
      cfg.recorder_depth = static_cast<int>(v);
    } else if (std::strcmp(arg, "--telemetry-port") == 0) {
      ok = whole(0, 65535);
      telemetry_port = static_cast<int>(v);
    } else {
      return usage(argv[0]);
    }
    if (!ok) {
      std::fprintf(stderr, "adarnet_serve: invalid value \"%s\" for %s\n",
                   val, arg);
      return 2;
    }
    ++i;
  }
  if (shrink > 1) {
    cfg.wall_preset = data::shrink(cfg.wall_preset, shrink);
    cfg.body_preset = data::shrink(cfg.body_preset, shrink);
  }

  if (telemetry_port >= 0 && !util::telemetry::start(telemetry_port)) {
    std::fprintf(stderr, "adarnet_serve: could not bind telemetry port %d\n",
                 telemetry_port);
    return 1;
  }
  util::serving::Server server(cfg);
  if (!server.start()) {
    std::fprintf(stderr, "adarnet_serve: could not bind port %d\n", cfg.port);
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::printf("adarnet_serve: http://127.0.0.1:%d (POST /solve, "
              "GET /healthz, GET /stats.json); Ctrl-C to stop\n",
              server.bound_port());
  if (util::telemetry::running()) {
    std::printf("adarnet_serve: telemetry http://127.0.0.1:%d "
                "(GET /requests.json, GET /trace/<id>.json)\n",
                util::telemetry::bound_port());
  }
  std::fflush(stdout);
  while (g_stop == 0 && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  util::telemetry::stop();
  const auto stats = server.stats();
  std::printf("adarnet_serve: served %lld responses (%lld admitted, "
              "%lld shed, %lld deadline misses, %lld worker crashes)\n",
              stats.responses, stats.admitted, stats.shed,
              stats.deadline_misses, stats.worker_crashes);
  return 0;
}
