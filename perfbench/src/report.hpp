// Metric table, process counters and span recorder of the benchmark.
//
// Every workload reports the same metric names (the ones BENCHMARK.json
// lists); a per-layer metric a workload does not exercise reads 0. Spans
// are recorded by the benchmark around the public calls it makes, and
// below them from the breakdowns those calls return (stage seconds,
// counter deltas), laid end to end inside the parent span: their
// durations are measured, their order inside the parent is not.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "util/metrics.hpp"

namespace perfbench {

/// One reported number. `n` is the sample count behind it (1 for a
/// single measurement or a computed value).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  long long n = 0;
};

inline const std::vector<std::pair<const char*, const char*>>&
end_to_end_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ttc_s", "s"},
      {"p50_ms", "ms"},
  };
  return names;
}

inline const std::vector<std::pair<const char*, const char*>>&
per_layer_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"solver.lr_s", "s"},
      {"solver.ps_s", "s"},
      {"solver.ms_per_iteration", "ms"},
      {"solver.momentum_s", "s"},
      {"solver.rhie_chow_s", "s"},
      {"solver.pressure_s", "s"},
      {"solver.sa_s", "s"},
      {"solver.ghosts_s", "s"},
      {"solver.ghost_bytes_per_cell_update", "B"},
      {"solver.mg_cycles_per_iteration", "count"},
      {"solver.iterations", "count"},
      {"solver.cell_updates", "count"},
      {"solver.useful_iteration_frac", "ratio"},
      {"solver.retries", "count"},
      {"amr.ttc_s", "s"},
      {"amr.solve_s", "s"},
      {"amr.remesh_s", "s"},
      {"amr.iterations", "count"},
      {"amr.useful_iteration_frac", "ratio"},
      {"amr.final_cells", "count"},
      {"mesh.dnn_cells", "count"},
      {"adarnet.pipeline_glue_s", "s"},
      {"adarnet.speedup_vs_amr", "ratio"},
      {"adarnet.infer_s", "s"},
      {"adarnet.scorer_s", "s"},
      {"adarnet.rank_s", "s"},
      {"adarnet.batch_s", "s"},
      {"adarnet.decoder_s", "s"},
      {"adarnet.infer_calls", "count"},
      {"adarnet.infer_tail_ms", "ms"},
      {"adarnet.level0_patches", "count"},
      {"adarnet.level1_patches", "count"},
      {"adarnet.level2_patches", "count"},
      {"adarnet.level3_patches", "count"},
      {"adarnet.peak_bytes", "B"},
      {"adarnet.modeled_bytes", "B"},
      {"nn.gemm_s", "s"},
      {"nn.conv_s", "s"},
      {"nn.gemm_gflops", "GFLOP/s"},
      {"nn.gemm_flops", "flop"},
      {"nn.gemm_bytes", "B"},
      {"nn.arithmetic_intensity", "flop/B"},
      {"serving.requests", "count"},
      {"serving.goodput_rps", "1/s"},
      {"serving.latency_p50_ms", "ms"},
      {"serving.latency_tail_ms", "ms"},
      {"serving.queue_ms", "ms"},
      {"serving.queue_tail_ms", "ms"},
      {"serving.solve_ms", "ms"},
      {"serving.overhead_ms", "ms"},
      {"serving.full_frac", "ratio"},
      {"serving.shed_frac", "ratio"},
      {"serving.max_queue_depth", "count"},
      {"serving.generator_lag_ms", "ms"},
      {"bench.wall_setup_s", "s"},
      {"bench.wall_ttc_s", "s"},
      {"bench.wall_p50_ms", "ms"},
      {"bench.probe_ms", "ms"},
      {"bench.error_frac", "ratio"},
      {"bench.qoi_err", "ratio"},
      {"trace.coverage_min", "ratio"},
      {"trace.coverage_median", "ratio"},
      {"trace.self_bench_s", "s"},
      {"trace.self_solver_s", "s"},
      {"trace.self_amr_s", "s"},
      {"trace.self_mesh_s", "s"},
      {"trace.self_adarnet_s", "s"},
      {"trace.self_serving_s", "s"},
  };
  return names;
}

/// The run's metrics, keyed by name, pre-filled with every end-to-end and
/// per-layer name at 0.
class Report {
 public:
  Report() {
    for (const auto& [name, unit] : end_to_end_names()) init(name, unit);
    for (const auto& [name, unit] : per_layer_names()) init(name, unit);
  }

  /// Sets a metric; the name must be one of the declared ones.
  void set(const std::string& name, double value, long long n = 1) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
      std::abort();
    }
    it->second.value = std::isfinite(value) ? value : 0.0;
    it->second.n = n;
  }

  /// Free-form context line printed with the report (not a metric).
  void note(const std::string& line) { notes_.push_back(line); }

  /// Human-readable report: every metric by name, value, unit and sample
  /// count, then the notes.
  void print(std::FILE* out) const {
    std::fprintf(out, "end-to-end:\n");
    for (const auto& [name, unit] : end_to_end_names()) line(out, name);
    std::fprintf(out, "per-layer:\n");
    for (const auto& [name, unit] : per_layer_names()) line(out, name);
    for (const auto& n : notes_) std::fprintf(out, "  # %s\n", n.c_str());
  }

  /// {"name": {"value": v, "unit": u}, ...} over the given names.
  [[nodiscard]] std::string json(
      const std::vector<std::pair<const char*, const char*>>& names) const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, unit] : names) {
      const Metric& m = metrics_.at(name);
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      out += first ? "" : ", ";
      out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m.unit + "\"}";
      first = false;
    }
    return out + "}";
  }

 private:
  void init(const char* name, const char* unit) {
    metrics_[name] = Metric{name, unit, 0.0, 0};
  }
  void line(std::FILE* out, const char* name) const {
    const Metric& m = metrics_.at(name);
    std::fprintf(out, "  %-36s %16.6g %-8s n=%lld\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.n);
  }

  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Snapshot of the util::metrics counters the program publishes; a delta
/// of two snapshots is the work one call did.
class Counters {
 public:
  static Counters take() {
    static const char* const kNames[] = {
        "solver.ns",          "solver.iterations",   "solver.cell_updates",
        "solver.momentum.ns", "solver.rhie_chow.ns", "solver.pressure.ns",
        "solver.sa.ns",       "solver.ghosts.ns",    "solver.ghosts.bytes",
        "solver.mg.cycles",   "pipeline.solves",     "pipeline.solver.attempts",
        "infer.ns",           "infer.calls",         "infer.scorer.ns",
        "infer.rank.ns",      "infer.batch.ns",      "infer.decoder.ns",
        "nn.gemm.ns",         "nn.gemm.flops",       "nn.gemm.bytes",
        "nn.conv.ns",         "nn.conv.flops",       "nn.conv.bytes",
    };
    Counters c;
    for (const char* name : kNames) {
      c.v_[name] = adarnet::util::metrics::counter(name).value();
    }
    return c;
  }
  /// `name` in this snapshot minus `name` in `before`.
  [[nodiscard]] long long since(const Counters& before,
                                const std::string& name) const {
    return v_.at(name) - before.v_.at(name);
  }
  [[nodiscard]] double seconds_since(const Counters& before,
                                     const std::string& ns_name) const {
    return static_cast<double>(since(before, ns_name)) * 1e-9;
  }

 private:
  std::map<std::string, long long> v_;
};

/// Publishes the counter-derived solver, adarnet and nn metrics of the
/// region between two snapshots.
inline void report_counters(Report& rep, const Counters& a,
                            const Counters& b) {
  const long long iters = b.since(a, "solver.iterations");
  const long long updates = b.since(a, "solver.cell_updates");
  rep.set("solver.iterations", static_cast<double>(iters));
  rep.set("solver.cell_updates", static_cast<double>(updates));
  if (iters > 0) {
    rep.set("solver.ms_per_iteration",
            1e3 * b.seconds_since(a, "solver.ns") / static_cast<double>(iters),
            iters);
    rep.set("solver.mg_cycles_per_iteration",
            static_cast<double>(b.since(a, "solver.mg.cycles")) /
                static_cast<double>(iters),
            iters);
  }
  rep.set("solver.momentum_s", b.seconds_since(a, "solver.momentum.ns"));
  rep.set("solver.rhie_chow_s", b.seconds_since(a, "solver.rhie_chow.ns"));
  rep.set("solver.pressure_s", b.seconds_since(a, "solver.pressure.ns"));
  rep.set("solver.sa_s", b.seconds_since(a, "solver.sa.ns"));
  rep.set("solver.ghosts_s", b.seconds_since(a, "solver.ghosts.ns"));
  if (updates > 0) {
    rep.set("solver.ghost_bytes_per_cell_update",
            static_cast<double>(b.since(a, "solver.ghosts.bytes")) /
                static_cast<double>(updates));
  }
  rep.set("solver.retries",
          static_cast<double>(b.since(a, "pipeline.solver.attempts") -
                              b.since(a, "pipeline.solves")));
  const long long calls = b.since(a, "infer.calls");
  rep.set("adarnet.infer_calls", static_cast<double>(calls));
  rep.set("adarnet.infer_s", b.seconds_since(a, "infer.ns"), calls);
  rep.set("adarnet.scorer_s", b.seconds_since(a, "infer.scorer.ns"), calls);
  rep.set("adarnet.rank_s", b.seconds_since(a, "infer.rank.ns"), calls);
  rep.set("adarnet.batch_s", b.seconds_since(a, "infer.batch.ns"), calls);
  rep.set("adarnet.decoder_s", b.seconds_since(a, "infer.decoder.ns"), calls);
  const double gemm_s = b.seconds_since(a, "nn.gemm.ns");
  const double flops = static_cast<double>(b.since(a, "nn.gemm.flops"));
  const double bytes = static_cast<double>(b.since(a, "nn.gemm.bytes"));
  rep.set("nn.gemm_s", gemm_s);
  rep.set("nn.conv_s", b.seconds_since(a, "nn.conv.ns"));
  rep.set("nn.gemm_flops", flops);
  rep.set("nn.gemm_bytes", bytes);
  if (gemm_s > 0.0) rep.set("nn.gemm_gflops", flops / gemm_s * 1e-9);
  if (bytes > 0.0) rep.set("nn.arithmetic_intensity", flops / bytes);
}

/// Peak resident set (VmHWM) of this process in MiB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// A child measured inside a parent span: name, layer, duration.
struct Part {
  std::string name;
  const char* layer;
  double seconds;
  std::string args = "";
};

/// In-memory span recorder; written out as chrome://tracing JSON when the
/// run ends. Disabled, every call is a no-op returning -1.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  /// Records a span over [start_s, start_s + seconds). `op` groups the
  /// spans of one operation (one case, infer call or request); a root
  /// span has parent -1. `args` is a pre-encoded JSON object body.
  int add(const std::string& name, const char* layer, double start_s,
          double seconds, int parent, int op, const std::string& args = "",
          bool remainder = false) {
    if (!on_) return -1;
    spans_.push_back({name, layer, start_s, std::max(0.0, seconds), parent,
                      op, args, remainder});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Ends span `i` at `end_s`.
  void close(int i, double end_s) {
    if (!on_ || i < 0) return;
    Span& s = spans_[static_cast<std::size_t>(i)];
    s.dur = std::max(0.0, end_s - s.start);
  }

  /// Lays `parts` end to end from the parent's start and closes the
  /// parent's remaining time with a measured-remainder span named
  /// `rest_name`. Returns the indices of the parts.
  std::vector<int> fill(int parent, const std::vector<Part>& parts,
                        const std::string& rest_name,
                        const char* rest_layer) {
    std::vector<int> out;
    if (!on_ || parent < 0) return out;
    const Span p = spans_[static_cast<std::size_t>(parent)];
    double t = p.start;
    for (const Part& part : parts) {
      out.push_back(add(part.name, part.layer, t, part.seconds, parent, p.op,
                        part.args));
      t += part.seconds;
    }
    if (p.start + p.dur > t) {
      add(rest_name, rest_layer, t, p.start + p.dur - t, parent, p.op, "",
          true);
    }
    return out;
  }

  /// Per-operation coverage (time of leaf spans that are not measured
  /// remainders, over the root's wall) and per-layer self time (a span's
  /// duration minus its children's).
  void summarize(Report& rep) const {
    if (!on_) return;
    std::vector<double> child_sum(spans_.size(), 0.0);
    std::vector<bool> has_child(spans_.size(), false);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_sum[static_cast<std::size_t>(s.parent)] += s.dur;
        has_child[static_cast<std::size_t>(s.parent)] = true;
      }
    }
    std::map<std::string, double> self;
    std::map<int, double> covered, wall;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.layer] += std::max(0.0, s.dur - child_sum[i]);
      if (s.parent < 0) wall[s.op] += s.dur;
      if (!has_child[i] && !s.remainder && s.parent >= 0) {
        covered[s.op] += s.dur;
      }
    }
    std::vector<double> coverage;
    for (const auto& [op, w] : wall) {
      if (w > 0.0) coverage.push_back(covered[op] / w);
    }
    const auto n = static_cast<long long>(coverage.size());
    if (!coverage.empty()) {
      rep.set("trace.coverage_min",
              *std::min_element(coverage.begin(), coverage.end()), n);
      rep.set("trace.coverage_median", median(coverage), n);
    }
    for (const char* layer :
         {"bench", "solver", "amr", "mesh", "adarnet", "serving"}) {
      rep.set(std::string("trace.self_") + layer + "_s", self[layer]);
    }
  }

  /// Writes the spans as a chrome://tracing document, one track per
  /// operation.
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char head[160];
      std::snprintf(head, sizeof(head),
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                    "\"dur\": %.3f",
                    s.op, s.start * 1e6, s.dur * 1e6);
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"" << s.layer << "\", " << head
          << ", \"args\": {\"remainder\": "
          << (s.remainder ? "true" : "false")
          << (s.args.empty() ? "" : ", ") << s.args << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    const char* layer;
    double start;
    double dur;
    int parent;
    int op;
    std::string args;
    bool remainder;
  };
  bool on_;
  std::vector<Span> spans_;
};

/// `"key": value` pairs of counter deltas, for span args.
inline std::string delta_args(const Counters& a, const Counters& b,
                              const std::vector<const char*>& names) {
  std::string out;
  for (const char* name : names) {
    out += out.empty() ? "\"" : ", \"";
    out += name;
    out += "\": ";
    out += std::to_string(b.since(a, name));
  }
  return out;
}

}  // namespace perfbench
