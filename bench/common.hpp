// Shared infrastructure for the benchmark harness.
//
// Every bench binary regenerates one of the paper's tables or figures at a
// laptop-scale grid (the paper presets divided by ADARNET_BENCH_SHRINK,
// default 4: channel 16x64, bodies 32x32, patches 4x4, N = 64 patches — the
// patch count and bin count match the paper exactly).
//
// A trained model is required by most benches; the first bench to run
// trains one and caches the weights + normalisation stats next to the
// binaries, later benches reload the cache. Environment knobs:
//   ADARNET_BENCH_SHRINK   grid divisor (default 4)
//   ADARNET_BENCH_SAMPLES  dataset samples per flow family (default 3)
//   ADARNET_BENCH_EPOCHS   training epochs (default 30)
//   ADARNET_BENCH_RETRAIN  set to 1 to ignore the cache
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "adarnet/model.hpp"
#include "solver/rans.hpp"
#include "adarnet/trainer.hpp"
#include "data/cases.hpp"
#include "data/dataset.hpp"
#include "nn/serialize.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace adarnet::bench {

/// The whole non-negative decimal integer in environment variable `name`,
/// or `fallback` when it is unset or empty. Any other value ("eight", "8x",
/// "-1", "2.5", past INT_MAX) is a usage error: the bench names the
/// variable and exits 2 rather than run with a count read as 0.
inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v, &end, 10);
  if (v[0] < '0' || v[0] > '9' || errno != 0 || *end != '\0' ||
      n > std::numeric_limits<int>::max()) {
    std::fprintf(stderr,
                 "[bench] %s=\"%s\" is not a whole non-negative decimal "
                 "integer\n",
                 name, v);
    std::exit(2);
  }
  return static_cast<int>(n);
}

/// Untimed warm-up before a process's first timing. For about a second
/// after an idle spell, a process on a 4-vCPU VM waits 16-32 ms per
/// OpenMP region (vCPU wake-up and team start), which reads the first
/// timings hundreds of times low. Repeats `round` until one run of it takes
/// at most `fast_s` seconds (far below any machine's cold time for it), for
/// at most 5 s, at the default thread count, so the pool threads later
/// teams reuse are awake too. The metrics counters restart after it: their
/// totals cover the timed pass alone.
template <typename Round>
void warm_up(Round&& round, double fast_s) {
  const util::WallTimer warm;
  for (double took = fast_s + 1.0; took > fast_s && warm.seconds() < 5.0;) {
    const util::WallTimer t;
    round();
    took = t.seconds();
  }
  util::metrics::reset();
}

inline int shrink_factor() { return env_int("ADARNET_BENCH_SHRINK", 4); }

inline data::GridPreset wall_preset() {
  return data::shrink(data::paper_wall_preset(), shrink_factor());
}

inline data::GridPreset body_preset() {
  return data::shrink(data::paper_body_preset(), shrink_factor());
}

/// Solver settings used by every bench solve: a slightly relaxed residual
/// target and an iteration cap so a single stubborn case cannot stall the
/// harness (ADARNET_BENCH_MAX_OUTER overrides the cap).
inline solver::SolverConfig bench_solver_config() {
  solver::SolverConfig cfg;
  cfg.tol = 5e-4;
  cfg.max_outer = env_int("ADARNET_BENCH_MAX_OUTER", 2000);
  return cfg;
}

/// The paper's seven test configurations (Section 5), at bench scale.
inline std::vector<mesh::CaseSpec> paper_test_cases() {
  return {
      data::channel_case(2.5e3, wall_preset()),    // interpolated BC
      data::channel_case(1.5e4, wall_preset()),    // extrapolated BC
      data::flat_plate_case(2.5e5, wall_preset()),
      data::flat_plate_case(1.35e6, wall_preset()),
      data::cylinder_case(1e5, body_preset()),     // unseen geometry
      data::naca0012_case(2.5e4, body_preset()),   // unseen geometry
      data::naca1412_case(2.5e4, body_preset()),   // unseen geometry
  };
}

/// A trained model plus the dataset stats it was fitted on.
struct TrainedModel {
  std::unique_ptr<core::AdarNet> model;
  bool from_cache = false;
  double train_seconds = 0.0;
};

namespace detail {

inline bool save_stats(const data::NormStats& stats, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(stats.lo.data()),
            sizeof(double) * stats.lo.size());
  out.write(reinterpret_cast<const char*>(stats.hi.data()),
            sizeof(double) * stats.hi.size());
  return static_cast<bool>(out);
}

inline bool load_stats(data::NormStats& stats, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.read(reinterpret_cast<char*>(stats.lo.data()),
          sizeof(double) * stats.lo.size());
  in.read(reinterpret_cast<char*>(stats.hi.data()),
          sizeof(double) * stats.hi.size());
  return static_cast<bool>(in);
}

}  // namespace detail

/// Trains (or loads from cache) the bench model.
inline TrainedModel trained_model() {
  const int shrink_k = shrink_factor();
  const auto preset = wall_preset();

  util::Rng rng(2023);
  core::AdarNetConfig mcfg;
  mcfg.ph = preset.ph;
  mcfg.pw = preset.pw;
  TrainedModel out;
  out.model = std::make_unique<core::AdarNet>(mcfg, rng);

  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "adarnet_bench_s%d", shrink_k);
  const std::string weights = std::string(prefix) + ".weights.bin";
  const std::string stats_path = std::string(prefix) + ".stats.bin";

  if (env_int("ADARNET_BENCH_RETRAIN", 0) == 0 &&
      nn::load_parameters(out.model->parameters(), weights) &&
      detail::load_stats(out.model->stats(), stats_path)) {
    out.from_cache = true;
    std::fprintf(stderr, "[bench] loaded cached model %s\n", weights.c_str());
    return out;
  }

  const int per_flow = env_int("ADARNET_BENCH_SAMPLES", 3);
  const int epochs = env_int("ADARNET_BENCH_EPOCHS", 30);
  std::fprintf(stderr,
               "[bench] training cache miss: %d samples/flow, %d epochs\n",
               per_flow, epochs);
  data::DatasetConfig dcfg;
  dcfg.channel_samples = per_flow;
  dcfg.plate_samples = per_flow;
  dcfg.ellipse_samples = per_flow;
  dcfg.wall_preset = preset;
  dcfg.body_preset = body_preset();
  util::WallTimer timer;
  const auto dataset = data::generate_dataset(dcfg);
  core::TrainConfig tcfg;
  tcfg.epochs = epochs;
  tcfg.log_every = 10;
  core::train(*out.model, dataset, tcfg, rng);
  out.train_seconds = timer.seconds();
  nn::save_parameters(out.model->parameters(), weights);
  detail::save_stats(out.model->stats(), stats_path);
  std::fprintf(stderr, "[bench] trained in %.1fs, cached to %s\n",
               out.train_seconds, weights.c_str());
  return out;
}

/// Prints a table to stdout and writes its CSV next to the binary.
inline void emit(const util::Table& table, const std::string& name) {
  std::printf("%s\n", table.to_string().c_str());
  const std::string csv = name + ".csv";
  if (table.write_csv(csv)) {
    std::printf("(csv written to %s)\n", csv.c_str());
  }
}

// ---------------------------------------------------------------------------
// Machine-readable benchmark output (BENCH_*.json trajectory files).
//
// Every bench that measures wall time also appends its headline metrics to
// a small JSON file next to the binary, so the perf trajectory can be
// tracked across PRs by diffing / plotting the files — the CSVs are for
// humans, the JSON is for tooling. The writers below are deliberately
// minimal (ordered insertion, no dependency): numbers, strings, booleans,
// and nesting via raw sub-documents.

/// Ordered {"key": value} builder. Values: numbers, strings, bools, or raw
/// pre-encoded JSON (for nesting objects/arrays).
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v) {
    return add_raw(key, util::json::number(v));
  }
  JsonObject& add(const std::string& key, long long v) {
    return add_raw(key, std::to_string(v));
  }
  JsonObject& add(const std::string& key, int v) {
    return add_raw(key, std::to_string(v));
  }
  JsonObject& add(const std::string& key, bool v) {
    return add_raw(key, v ? "true" : "false");
  }
  JsonObject& add(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    quoted += util::json::escape(v);
    quoted += '"';
    return add_raw(key, quoted);
  }
  JsonObject& add(const std::string& key, const char* v) {
    return add(key, std::string(v));
  }
  JsonObject& add_raw(const std::string& key, const std::string& json) {
    if (!first_) body_ += ", ";
    body_ += '"';
    body_ += util::json::escape(key);
    body_ += "\": ";
    body_ += json;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
  bool first_ = true;
};

/// Ordered [v, v, ...] builder of pre-encoded JSON values.
class JsonArray {
 public:
  JsonArray& push(const std::string& json) {
    body_ += first_ ? "" : ", ";
    body_ += json;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "[" + body_ + "]"; }

 private:
  std::string body_;
  bool first_ = true;
};

/// Writes a JSON document to `path` (e.g. "BENCH_solver.json").
inline bool write_json(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  if (!out) return false;
  out << json << "\n";
  if (out) {
    std::printf("(json written to %s)\n", path.c_str());
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Observability plumbing (DESIGN.md §9). Benches call metrics::reset() at
// startup so the snapshot covers exactly one run, then embed the snapshot
// in their BENCH_*.json document together with the attributed wall-time
// fraction.

/// Wall time covered by the disjoint top-level stage timers: training
/// epochs, model inference, and physics solves. Everything the benches do
/// that is expensive (dataset generation, AMR sweeps, pipeline runs) bottoms
/// out in one of these three, so the sum over the run's wall time is the
/// fraction of time attributed to named stages.
inline double attributed_stage_seconds() {
  namespace metrics = util::metrics;
  const long long ns = metrics::counter("train.epoch.ns").value() +
                       metrics::counter("infer.ns").value() +
                       metrics::counter("solver.ns").value();
  return static_cast<double>(ns) * 1e-9;
}

/// Aggregate roofline statistics of the run's GEMM and convolution work,
/// from the cumulative nn.{gemm,conv}.{calls,flops,bytes,ns} counters that
/// the kernels publish (see gemm.cpp / conv2d.cpp): achieved GFLOP/s
/// (flops / wall nanoseconds — the units cancel) and arithmetic intensity
/// (flops per compulsory byte, the roofline x-coordinate).
inline std::string roofline_totals_json() {
  namespace metrics = util::metrics;
  JsonObject out;
  for (const char* engine : {"gemm", "conv"}) {
    const std::string base = std::string("nn.") + engine;
    const long long calls = metrics::counter(base + ".calls").value();
    const long long flops = metrics::counter(base + ".flops").value();
    const long long bytes = metrics::counter(base + ".bytes").value();
    const long long ns = metrics::counter(base + ".ns").value();
    JsonObject e;
    e.add("calls", calls)
        .add("flops", flops)
        .add("bytes", bytes)
        .add("seconds", static_cast<double>(ns) * 1e-9)
        .add("gflops_per_s",
             ns > 0 ? static_cast<double>(flops) / static_cast<double>(ns)
                    : 0.0)
        .add("arithmetic_intensity",
             bytes > 0
                 ? static_cast<double>(flops) / static_cast<double>(bytes)
                 : 0.0);
    out.add_raw(base, e.str());
  }
  return out.str();
}

/// Adds the run's wall time, the stage-attributed share of it, a roofline
/// section, and the full metrics snapshot to a bench JSON document, then
/// flushes the trace file (a no-op unless ADARNET_TRACE is set). The
/// roofline section always carries the per-engine totals; a bench that
/// measured individual kernel shapes (bench_kernels) passes them as a
/// pre-encoded object for the "by_size" sub-document.
inline void add_observability(JsonObject& doc, double wall_seconds,
                              const std::string& roofline_by_size = "") {
  const double attributed = attributed_stage_seconds();
  JsonObject roofline;
  if (!roofline_by_size.empty()) {
    roofline.add_raw("by_size", roofline_by_size);
  }
  roofline.add_raw("totals", roofline_totals_json());
  doc.add("wall_s", wall_seconds)
      .add("attributed_s", attributed)
      .add("attributed_fraction",
           wall_seconds > 0.0 ? attributed / wall_seconds : 0.0)
      .add_raw("roofline", roofline.str())
      .add_raw("metrics", util::metrics::snapshot_json());
  util::trace::flush();
}

}  // namespace adarnet::bench
