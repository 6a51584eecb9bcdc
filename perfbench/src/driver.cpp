// End-to-end benchmark driver: runs one workload and prints its metrics.
//
//   perfbench --workload table1|infer|serving --seed N --seconds S
//             --trace 0|1 --data DIR [--trace-out FILE] [--results FILE]
//             [--record FILE]
//
// It reaches the program only through public calls (data::solve_lr,
// core::run_adarnet_pipeline, amr::run_amr, core::AdarNet::infer and
// util::serving::Server over loopback HTTP), checks every output against
// the stored reference under DIR, and prints a human-readable report
// followed by one JSON line: {"correct", "attempted", "failed",
// "metrics"}. End-to-end times are at the box's nominal speed: each timed
// operation is followed by the speed probe of calibrate.hpp, which divides
// out the drift of a shared host. With --trace 1 the metrics are the
// per-layer ones and the spans go to --trace-out as chrome://tracing JSON.
// --record writes the outputs of this run as a new reference instead of
// checking them.
// Exit code 1 when any output check failed, 2 on a usage or input error.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adarnet/pipeline.hpp"
#include "amr/driver.hpp"
#include "bench_util.hpp"
#include "calibrate.hpp"
#include "data/dataset.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "report.hpp"
#include "solver/qoi.hpp"
#include "util/reqctx.hpp"
#include "util/serving.hpp"
#include "util/socket_io.hpp"

namespace {

using namespace adarnet;
using namespace perfbench;

// ---------------------------------------------------------------------------
// Workload parameters (recorded in perfbench/workloads.json).

/// table1: the bench solver budget of bench/common.hpp for the pipeline
/// solves and the AMR final stage; the AMR stages keep their defaults
/// (tol 2e-3, cap 2000).
constexpr double kTable1Tol = 5e-4;
constexpr int kTable1MaxOuter = 2000;
const char* const kTable1Cases[] = {"cylinder_100000", "naca0012_25000"};
constexpr int kTable1Setups = 5;
/// The timed table1 answers: the cylinder, which converges under the cap on
/// both solves (523 + 269 iterations, about 1.2 s an answer on a 4-vCPU
/// Xeon), answered again and again for the whole run, so the per-run median
/// rests on some 28 answers. NACA0012 burns the cap (17 s an answer), too
/// long to repeat; it runs with the AMR baseline in the traced run's full
/// pass only.
const char* const kTable1Timed = "cylinder_100000";
constexpr int kTable1MinAnswers = 5;

/// infer: whole rounds over the seven fields, as many as fit --seconds at
/// the round time measured on a 4-vCPU Xeon (about 7 s), so every run of
/// a given length does the same work.
constexpr int kInferSetups = 3;
constexpr double kInferRoundS = 7.0;

/// serving: one generator thread, at most 4 open connections, a seeded
/// Poisson schedule at a fixed offered rate: 70% of the 1.3 requests/s one
/// worker sustained while sizing (mean answer 0.77 s over the menu mix).
/// One worker: two workers run AdarNet::infer concurrently on the
/// process-wide, unsynchronised nn::Arena::global() and crash the process
/// ("double free or corruption") in some runs.
constexpr int kServeWorkers = 1;
constexpr int kServeConnections = 4;
constexpr int kServeMaxOuter = 40;
constexpr double kServeRate = 0.9;           ///< offered requests / s
constexpr double kServeLimitMs = 5000.0;     ///< goodput latency limit
constexpr double kServeDeadlineMs = 60000.0; ///< keeps the ladder at full
constexpr int kServeSetups = 3;
/// The least time to the next arrival at which the generator runs a probe
/// (a probe takes about 50 ms at the nominal speed).
constexpr double kServeProbeGapS = 0.2;

/// The request menu and the block its types are drawn from: one third
/// wall-bounded, two thirds bodies.
const std::vector<CaseId> kMenu = {
    {"channel_2500", "channel", 2.5e3},
    {"channel_15000", "channel", 1.5e4},
    {"flat_plate_1350000", "flat_plate", 1.35e6},
    {"cylinder_100000", "cylinder", 1e5},
    {"naca0012_25000", "naca0012", 2.5e4},
    {"naca1412_25000", "naca1412", 2.5e4},
};
const std::vector<int> kMenuBlock = {0, 1, 2, 3, 3, 4, 4, 5, 5};

// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// The run's speed probe (calibrate.hpp) and every time it measured. Each
/// timed operation is followed by one probe run; the workload reports the
/// operation's time at the nominal speed as its end-to-end metric and the
/// raw wall time as a bench.wall_* per-layer metric.
class Probe {
 public:
  /// Runs the probe once; returns its wall seconds.
  double run() {
    const double p = kernel_.run();
    times_.push_back(p);
    return p;
  }
  void report(Report& rep) const {
    rep.set("bench.probe_ms", 1e3 * median(times_),
            static_cast<long long>(times_.size()));
    // Printing the checksum keeps the kernel's work observable.
    rep.note("speed probe: " + std::to_string(times_.size()) +
             " runs, checksum " + std::to_string(kernel_.checksum()));
  }

 private:
  SpeedProbe kernel_;
  std::vector<double> times_;
};

/// Runs `setup` `reps` times, each followed by a probe, and reports the
/// median set-up time at the nominal speed (setup_s) and raw.
template <typename F>
void time_setups(int reps, Probe& probe, Report& rep, F&& setup) {
  std::vector<double> raw, nominal;
  for (int k = 0; k < reps; ++k) {
    const double t0 = now_s();
    setup();
    const double s = now_s() - t0;
    raw.push_back(s);
    nominal.push_back(SpeedProbe::corrected(s, probe.run()));
  }
  rep.set("setup_s", median(nominal), reps);
  rep.set("bench.wall_setup_s", median(raw), reps);
}

/// Reports a workload's two time metrics from operation times at the
/// nominal speed (`ttc_nominal` summed over cases, `op_nominal` over every
/// operation) and the same medians of the raw wall times.
void report_times(Report& rep, double ttc_nominal, double ttc_raw,
                  const std::vector<double>& op_nominal,
                  const std::vector<double>& op_raw) {
  const auto n = static_cast<long long>(op_nominal.size());
  rep.set("ttc_s", ttc_nominal, n);
  rep.set("p50_ms", 1e3 * median(op_nominal), n);
  rep.set("bench.wall_ttc_s", ttc_raw, n);
  rep.set("bench.wall_p50_ms", 1e3 * median(op_raw), n);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data = "perfbench/data";
  std::string trace_out;
  std::string results;
  std::string record;
};

bool field_finite(const mesh::CompositeField& f) {
  for (int c = 0; c < field::kNumFlowVars; ++c) {
    for (const auto& patch : f.channel(c)) {
      for (std::size_t i = 0; i < patch.size(); ++i) {
        if (!std::isfinite(patch.data()[i])) return false;
      }
    }
  }
  return true;
}

/// A uniform-inflow field of `spec`'s LR shape: the warm-up input.
field::FlowField warmup_field(const mesh::CaseSpec& spec) {
  field::FlowField f(spec.base_ny, spec.base_nx);
  f.U.fill(spec.u_ref);
  return f;
}

const CaseId& case_by_id(const std::string& id) {
  for (const auto& c : table1_cases()) {
    if (id == c.id) return c;
  }
  throw std::invalid_argument("unknown case " + id);
}

void solver_phase_parts(std::vector<Part>& parts,
                        const solver::PhaseTimes& p) {
  parts.push_back({"solver.momentum", "solver", p.momentum});
  parts.push_back({"solver.rhie_chow", "solver", p.rhie_chow});
  parts.push_back({"solver.pressure", "solver", p.pressure});
  parts.push_back({"solver.sa", "solver", p.sa});
  parts.push_back({"solver.ghosts", "solver", p.ghosts});
}

solver::PhaseTimes phase_deltas(const Counters& a, const Counters& b) {
  solver::PhaseTimes p;
  p.momentum = b.seconds_since(a, "solver.momentum.ns");
  p.rhie_chow = b.seconds_since(a, "solver.rhie_chow.ns");
  p.pressure = b.seconds_since(a, "solver.pressure.ns");
  p.sa = b.seconds_since(a, "solver.sa.ns");
  p.ghosts = b.seconds_since(a, "solver.ghosts.ns");
  return p;
}

/// Spans of one AdarNet::infer call: the four stages from counter deltas,
/// the rest of the call as a measured remainder.
void infer_spans(Trace& tr, int span, const Counters& a, const Counters& b) {
  tr.fill(span,
          {{"adarnet.scorer", "adarnet", b.seconds_since(a, "infer.scorer.ns")},
           {"adarnet.rank", "adarnet", b.seconds_since(a, "infer.rank.ns")},
           {"adarnet.batch", "adarnet", b.seconds_since(a, "infer.batch.ns")},
           {"adarnet.decoder", "adarnet",
            b.seconds_since(a, "infer.decoder.ns")}},
          "adarnet.infer_glue", "adarnet");
}

void report_levels(Report& rep, const std::vector<long long>& levels) {
  for (int l = 0; l <= mesh::kMaxLevel; ++l) {
    rep.set("adarnet.level" + std::to_string(l) + "_patches",
            static_cast<double>(levels[static_cast<std::size_t>(l)]));
  }
}

// ---------------------------------------------------------------------------
// table1: the paper's Table 1 time to convergence at shrink 8.

/// Counter deltas recorded as args of the spans around public calls.
const std::vector<const char*> kSolverArgs = {
    "solver.iterations", "solver.cell_updates", "solver.mg.cycles",
    "solver.ghosts.bytes"};
const std::vector<const char*> kPipelineArgs = {
    "solver.iterations", "solver.cell_updates", "solver.mg.cycles",
    "solver.ghosts.bytes", "pipeline.solver.attempts", "nn.gemm.flops",
    "nn.conv.flops"};

/// One ADARNet answer on a table1 case: what it took and produced.
struct AdarnetAnswer {
  bool ok = false;
  double ttc_s = 0.0;   ///< the paper's TTC: lr + inf + ps
  double wall_s = 0.0;  ///< solve_lr + run_adarnet_pipeline, end to end
  double lr_s = 0.0;
  double ps_s = 0.0;
  double glue_s = 0.0;  ///< pipeline wall - inf - ps
  long long iterations = 0;
  long long iterations_to_tolerance = 0;
  long long dnn_cells = 0;
  std::int64_t peak_bytes = 0;
  std::int64_t modeled_bytes = 0;
  std::vector<long long> levels =
      std::vector<long long>(mesh::kMaxLevel + 1, 0);
};

/// Answers `c` with ADARNet: data::solve_lr, then the pipeline on that LR
/// field. Checks the QoI against the reference, counts the operation, and
/// records spans under `root` when tracing.
AdarnetAnswer answer_adarnet(core::AdarNet& model, const CaseId& c,
                             const core::PipelineConfig& pcfg, Trace& tr,
                             Checker& chk, int root, int op) {
  const std::string id = c.id;
  const auto spec = make_spec(c, kModelShrink);
  AdarnetAnswer a;
  try {
    solver::SolveStats lr_stats;
    const Counters c0 = Counters::take();
    const double t0 = now_s();
    const field::FlowField lr = data::solve_lr(spec, pcfg.lr_solver, &lr_stats);
    const double t1 = now_s();
    const Counters c1 = Counters::take();
    const core::PipelineResult res = core::run_adarnet_pipeline(
        model, spec, pcfg, lr, t1 - t0, lr_stats.iterations);
    const double t2 = now_s();
    const Counters c2 = Counters::take();

    a.ttc_s = res.ttc_seconds();
    a.wall_s = t2 - t0;
    a.lr_s = res.lr_seconds;
    a.ps_s = res.ps_seconds;
    a.glue_s = (t2 - t1) - res.inf_seconds - res.ps_seconds;
    a.iterations = res.lr_iterations + res.ps_iterations;
    a.iterations_to_tolerance =
        lr_stats.iterations_to_tolerance + res.ps_iterations_to_tolerance;
    a.dnn_cells = res.mesh ? res.mesh->active_cells() : 0;
    a.peak_bytes = res.inference_measured_bytes;
    a.modeled_bytes = res.inference_modeled_bytes;
    for (int l = 0; l <= mesh::kMaxLevel; ++l) {
      a.levels[static_cast<std::size_t>(l)] = res.map.count_at_level(l);
    }

    const bool finite = res.mesh && field_finite(res.solution);
    const double qoi =
        finite ? solver::case_qoi(*res.mesh, res.solution) : NAN;
    a.ok = finite && res.fallback_stage == core::FallbackStage::kNone;
    a.ok = chk.check("table1/" + id + "/adarnet_qoi", qoi, kQoiTol) && a.ok;
    if (!a.ok) {
      std::fprintf(stderr, "perfbench: %s adarnet: QoI %.9g, ladder %s\n",
                   id.c_str(), qoi, core::to_string(res.fallback_stage));
    }

    if (tr.on()) {
      const int lr_span = tr.add("data.solve_lr", "solver", t0, t1 - t0, root,
                                 op, delta_args(c0, c1, kSolverArgs));
      std::vector<Part> lr_parts;
      solver_phase_parts(lr_parts, lr_stats.phase_seconds);
      tr.fill(lr_span, lr_parts, "solver.glue", "solver");
      const int pipe =
          tr.add("core.run_adarnet_pipeline", "adarnet", t1, t2 - t1, root,
                 op, delta_args(c1, c2, kPipelineArgs));
      const auto kids = tr.fill(
          pipe,
          {{"adarnet.infer", "adarnet", res.inf_seconds},
           {"solver.physics_solve", "solver", res.ps_seconds,
            "\"iterations\": " + std::to_string(res.ps_iterations)}},
          "mesh.pipeline_glue", "mesh");
      infer_spans(tr, kids[0], c1, c2);
      std::vector<Part> ps_parts;
      solver_phase_parts(ps_parts, phase_deltas(c1, c2));
      tr.fill(kids[1], ps_parts, "solver.glue", "solver");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s adarnet failed: %s\n", id.c_str(),
                 e.what());
    a.ok = false;
  }
  chk.operation(a.ok);
  return a;
}

/// The traced run's full Table 1 pass: each case in seeded order, the
/// ADARNet pipeline then amr::run_amr, both under the bench budget. Every
/// per-layer metric of table1 comes from this pass.
void table1_pass(const Options& o, core::AdarNet& model,
                 const core::PipelineConfig& pcfg, Report& rep, Trace& tr,
                 Checker& chk, int op) {
  std::vector<std::string> order(std::begin(kTable1Cases),
                                 std::end(kTable1Cases));
  SplitMix rng(o.seed);
  shuffle(order, rng);
  amr::AmrConfig acfg;
  acfg.solver = pcfg.ps_solver;

  const Counters start = Counters::take();
  double ttc = 0, lr_s = 0, ps_s = 0, glue_s = 0, amr_s = 0, amr_solve_s = 0;
  long long adar_iters = 0, adar_itt = 0, amr_iters = 0, amr_itt = 0;
  long long dnn_cells = 0, amr_cells = 0;
  std::int64_t peak = 0, modeled = 0;
  std::vector<long long> levels(mesh::kMaxLevel + 1, 0);
  for (const std::string& id : order) {
    const CaseId& c = case_by_id(id);
    const int root = tr.add("table1 pass " + id, "bench", now_s(), 0, -1, op);

    const AdarnetAnswer a = answer_adarnet(model, c, pcfg, tr, chk, root, op);
    ttc += a.ttc_s;
    lr_s += a.lr_s;
    ps_s += a.ps_s;
    glue_s += a.glue_s;
    adar_iters += a.iterations;
    adar_itt += a.iterations_to_tolerance;
    dnn_cells += a.dnn_cells;
    peak = std::max(peak, a.peak_bytes);
    modeled = std::max(modeled, a.modeled_bytes);
    for (std::size_t l = 0; l < levels.size(); ++l) levels[l] += a.levels[l];
    rep.note(id + " adarnet: ttc " + std::to_string(a.ttc_s) + " s (lr " +
             std::to_string(a.lr_s) + ", ps " + std::to_string(a.ps_s) +
             "), " + std::to_string(a.iterations) + " iterations, " +
             std::to_string(a.iterations_to_tolerance) + " to tolerance");

    // The feature-AMR baseline.
    bool ok = true;
    try {
      const auto spec = make_spec(c, kModelShrink);
      const Counters c2 = Counters::take();
      const double t2 = now_s();
      const amr::AmrResult amr_res = amr::run_amr(spec, acfg);
      const double t3 = now_s();
      const Counters c3 = Counters::take();
      double stages_s = 0.0;
      for (const auto& s : amr_res.stages) stages_s += s.seconds;
      amr_s += t3 - t2;
      amr_solve_s += stages_s;
      amr_iters += amr_res.total_iterations;
      amr_itt += amr_res.total_iterations_to_tolerance;
      amr_cells += amr_res.mesh ? amr_res.mesh->active_cells() : 0;
      const bool finite = amr_res.mesh && field_finite(amr_res.solution);
      const double qoi =
          finite ? solver::case_qoi(*amr_res.mesh, amr_res.solution) : NAN;
      ok = chk.check("table1/" + id + "/amr_qoi", qoi, kQoiTol) && finite;
      rep.note(id + " amr: ttc " + std::to_string(t3 - t2) + " s, " +
               std::to_string(amr_res.stages.size()) + " stages, " +
               std::to_string(amr_res.total_iterations) + " iterations, qoi " +
               std::to_string(qoi));
      if (tr.on()) {
        const int amr_span =
            tr.add("amr.run_amr", "amr", t2, t3 - t2, root, op,
                   delta_args(c2, c3, kSolverArgs));
        std::vector<Part> parts;
        for (std::size_t k = 0; k < amr_res.stages.size(); ++k) {
          const auto& s = amr_res.stages[k];
          parts.push_back({"amr.stage" + std::to_string(k) + ".solve",
                           "solver", s.seconds,
                           "\"cells\": " + std::to_string(s.cells) +
                               ", \"iterations\": " +
                               std::to_string(s.iterations)});
        }
        tr.fill(amr_span, parts, "amr.remesh", "amr");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s amr failed: %s\n", id.c_str(),
                   e.what());
      ok = false;
    }
    chk.operation(ok);
    tr.close(root, now_s());
    ++op;
  }
  const Counters end = Counters::take();

  const auto n = static_cast<long long>(order.size());
  report_counters(rep, start, end);
  rep.set("solver.lr_s", lr_s, n);
  rep.set("solver.ps_s", ps_s, n);
  if (adar_iters > 0) {
    rep.set("solver.useful_iteration_frac",
            static_cast<double>(adar_itt) / static_cast<double>(adar_iters));
  }
  rep.set("adarnet.pipeline_glue_s", glue_s, n);
  rep.set("mesh.dnn_cells", static_cast<double>(dnn_cells), n);
  rep.set("adarnet.peak_bytes", static_cast<double>(peak), n);
  rep.set("adarnet.modeled_bytes", static_cast<double>(modeled), n);
  report_levels(rep, levels);
  rep.set("amr.ttc_s", amr_s, n);
  rep.set("amr.solve_s", amr_solve_s, n);
  rep.set("amr.remesh_s", amr_s - amr_solve_s, n);
  rep.set("amr.iterations", static_cast<double>(amr_iters));
  if (amr_iters > 0) {
    rep.set("amr.useful_iteration_frac",
            static_cast<double>(amr_itt) / static_cast<double>(amr_iters));
  }
  rep.set("amr.final_cells", static_cast<double>(amr_cells), n);
  if (ttc > 0.0) rep.set("adarnet.speedup_vs_amr", amr_s / ttc);
}

void run_table1(const Options& o, Report& rep, Trace& tr, Checker& chk,
                Probe& probe) {
  // Set-up: model load + one warm-up inference, several times.
  std::unique_ptr<core::AdarNet> model;
  const auto warm_spec = make_spec(case_by_id(kTable1Cases[0]), kModelShrink);
  time_setups(kTable1Setups, probe, rep, [&] {
    model = load_model(o.data, kModelShrink);
    model->infer(warmup_field(warm_spec));
  });

  solver::SolverConfig scfg;
  scfg.tol = kTable1Tol;
  scfg.max_outer = kTable1MaxOuter;
  core::PipelineConfig pcfg;
  pcfg.lr_solver = scfg;
  pcfg.ps_solver = scfg;

  // The timed answers, after one untimed warm-up answer (checked like the
  // others), until --seconds have passed; a probe follows each.
  const CaseId& timed = case_by_id(kTable1Timed);
  Trace untraced(false);
  answer_adarnet(*model, timed, pcfg, untraced, chk, -1, 0);
  std::vector<double> ttc, ttc_raw, wall, wall_raw;
  int op = 0;
  const double t_start = now_s();
  while (now_s() - t_start < o.seconds || op < kTable1MinAnswers) {
    const int root =
        tr.add(std::string("table1 ") + timed.id, "bench", now_s(), 0, -1, op);
    const AdarnetAnswer a =
        answer_adarnet(*model, timed, pcfg, tr, chk, root, op);
    tr.close(root, now_s());
    ++op;
    const double p = probe.run();
    if (!a.ok) continue;
    ttc.push_back(SpeedProbe::corrected(a.ttc_s, p));
    ttc_raw.push_back(a.ttc_s);
    wall.push_back(SpeedProbe::corrected(a.wall_s, p));
    wall_raw.push_back(a.wall_s);
  }
  report_times(rep, median(ttc), median(ttc_raw), wall, wall_raw);
  rep.note(std::string(timed.id) + ": median ttc " +
           std::to_string(median(ttc)) + " s at the nominal speed, " +
           std::to_string(median(ttc_raw)) + " s wall, over " +
           std::to_string(ttc.size()) + " answers");

  if (tr.on()) {
    table1_pass(o, *model, pcfg, rep, tr, chk, op);
  } else {
    rep.note("per-layer metrics of table1 come from the traced run's full "
             "pass (--trace 1)");
  }
  rep.set("bench.qoi_err", chk.max_rel_err, chk.attempted);
}


// ---------------------------------------------------------------------------
// infer: AdarNet::infer alone on the seven Table 1 fields at shrink 2.

std::string map_key(const std::string& id, int patch) {
  return "infer/" + id + "/map/" + std::to_string(patch);
}

void run_infer(const Options& o, Report& rep, Trace& tr, Checker& chk,
               Probe& probe) {
  const auto& cases = table1_cases();
  std::vector<field::FlowField> fields;
  std::vector<mesh::CaseSpec> specs;
  for (const auto& c : cases) {
    fields.push_back(load_field(field_path(o.data, c)));
    specs.push_back(make_spec(c, kInferShrink));
  }
  // The seed picks which field the fixed interleave starts at.
  const std::size_t first = SplitMix(o.seed).below(cases.size());

  std::unique_ptr<core::AdarNet> model;
  time_setups(kInferSetups, probe, rep, [&] {
    model = load_model(o.data, kInferShrink);
    model->infer(warmup_field(specs.front()));
  });
  const int ph = model->config().ph;
  const int pw = model->config().pw;

  const Counters start = Counters::take();
  std::vector<std::vector<double>> per_field(cases.size()),
      per_field_raw(cases.size());
  std::vector<double> all, all_raw;
  std::vector<long long> levels(mesh::kMaxLevel + 1, 0);
  std::int64_t peak = 0, modeled = 0;
  const long rounds = std::max(1L, std::lround(o.seconds / kInferRoundS));
  int op = 0;
  for (long round = 0; round < rounds; ++round) {
    for (std::size_t r = 0; r < cases.size(); ++r, ++op) {
      const std::size_t i = (first + r) % cases.size();
      const std::string id = cases[i].id;
      bool ok = true;
      double took = -1.0;
      try {
        const Counters c0 = Counters::take();
        const double t0 = now_s();
        const core::InferenceResult res = model->infer(fields[i]);
        const double t1 = now_s();
        const Counters c1 = Counters::take();
        took = t1 - t0;
        peak = std::max(peak, res.measured_peak_bytes);
        modeled = std::max(modeled, res.modeled_bytes);
        for (int l = 0; l <= mesh::kMaxLevel; ++l) {
          levels[static_cast<std::size_t>(l)] += res.map.count_at_level(l);
        }
        ok = core::inference_is_finite(res) &&
             core::validate_refinement_map(res.map, specs[i], ph, pw, 1.0)
                 .empty();
        for (int pi = 0; pi < res.map.npy(); ++pi) {
          for (int pj = 0; pj < res.map.npx(); ++pj) {
            ok = chk.check(map_key(id, pi * res.map.npx() + pj),
                           res.map.level(pi, pj), 0.0) &&
                 ok;
          }
        }
        if (tr.on()) {
          const int root = tr.add("infer " + id, "bench", t0, t1 - t0, -1, op);
          const int call = tr.add(
              "core.AdarNet::infer", "adarnet", t0, res.seconds, root, op,
              delta_args(c0, c1, {"nn.gemm.flops", "nn.gemm.bytes",
                                  "nn.gemm.ns", "nn.conv.ns"}));
          infer_spans(tr, call, c0, c1);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: infer %s failed: %s\n", id.c_str(),
                     e.what());
        ok = false;
      }
      chk.operation(ok);
      const double p = probe.run();
      if (took < 0.0) continue;
      per_field[i].push_back(SpeedProbe::corrected(took, p));
      per_field_raw[i].push_back(took);
      all.push_back(SpeedProbe::corrected(took, p));
      all_raw.push_back(took);
    }
  }
  const Counters end = Counters::take();

  double ttc = 0.0, ttc_raw = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ttc += median(per_field[i]);
    ttc_raw += median(per_field_raw[i]);
    rep.note(std::string(cases[i].id) + ": median " +
             std::to_string(1e3 * median(per_field[i])) +
             " ms at the nominal speed, " +
             std::to_string(1e3 * median(per_field_raw[i])) +
             " ms wall, over " + std::to_string(per_field[i].size()) +
             " calls");
  }
  const auto n = static_cast<long long>(all.size());
  report_times(rep, ttc, ttc_raw, all, all_raw);
  const Tail t = tail(all_raw);
  if (t.ok) {
    rep.set("adarnet.infer_tail_ms", 1e3 * t.value, t.n);
    rep.note("adarnet.infer_tail_ms is p" + std::to_string(t.percentile) +
             " of " + std::to_string(t.n) + " calls");
  }
  report_counters(rep, start, end);
  report_levels(rep, levels);
  rep.set("adarnet.peak_bytes", static_cast<double>(peak), n);
  rep.set("adarnet.modeled_bytes", static_cast<double>(modeled), n);
}

// ---------------------------------------------------------------------------
// serving: an in-process server on loopback under an open-loop schedule.

/// Non-blocking loopback HTTP client: one connection per request (the
/// server closes after each response), serviced with poll() from the
/// calling thread.
class Loopback {
 public:
  struct Reply {
    bool ok = false;  ///< connected, sent and received a complete response
    int status = 0;
    std::string body;
    double done_s = 0.0;
  };

  explicit Loopback(int port) : port_(port) {}
  ~Loopback() {
    for (const Conn& c : open_) ::close(c.fd);
  }
  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;

  std::map<std::size_t, Reply> replies;

  void send(std::size_t id, const std::string& http) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) < 0 ||
        !util::socket_io::send_all(fd, http) ||
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) < 0) {
      if (fd >= 0) ::close(fd);
      replies[id] = Reply{false, 0, "", now_s()};
      return;
    }
    open_.push_back({fd, id, ""});
  }

  [[nodiscard]] int in_flight() const { return static_cast<int>(open_.size()); }

  /// Services open connections until `deadline_s` passes or at least one
  /// request completes; with nothing open it sleeps until the deadline.
  void wait(double deadline_s) {
    for (;;) {
      const double left = deadline_s - now_s();
      if (open_.empty()) {
        if (std::isfinite(deadline_s) && left > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(left));
        }
        return;
      }
      std::vector<pollfd> fds;
      for (const Conn& c : open_) fds.push_back({c.fd, POLLIN, 0});
      const int timeout_ms =
          std::isfinite(deadline_s)
              ? static_cast<int>(std::ceil(std::max(0.0, left) * 1e3))
              : -1;
      ::poll(fds.data(), fds.size(), timeout_ms);
      bool completed = false;
      for (std::size_t k = fds.size(); k-- > 0;) {
        if (fds[k].revents == 0) continue;
        if (drain(open_[k])) {
          ::close(open_[k].fd);
          open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(k));
          completed = true;
        }
      }
      if (completed || now_s() >= deadline_s) return;
    }
  }

 private:
  struct Conn {
    int fd;
    std::size_t id;
    std::string buf;
  };

  /// Reads what is available; true once the response is complete (EOF)
  /// or the connection failed.
  bool drain(Conn& c) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.buf.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      if (n < 0 && errno == EINTR) continue;
      Reply r;
      r.done_s = now_s();
      if (n == 0 && c.buf.rfind("HTTP/1.1 ", 0) == 0 && c.buf.size() > 12) {
        r.ok = true;
        r.status = std::atoi(c.buf.c_str() + 9);
        const std::size_t body = c.buf.find("\r\n\r\n");
        r.body = body == std::string::npos ? "" : c.buf.substr(body + 4);
      }
      replies[c.id] = std::move(r);
      return true;
    }
  }

  int port_;
  std::vector<Conn> open_;
};

std::string solve_request(const CaseId& c) {
  char body[160];
  std::snprintf(body, sizeof(body),
                "{\"case\": \"%s\", \"re\": %.17g, \"max_outer\": %d, "
                "\"deadline_ms\": %.0f}",
                c.kind, c.re, kServeMaxOuter, kServeDeadlineMs);
  return "POST /solve HTTP/1.1\r\nHost: l\r\nContent-Length: " +
         std::to_string(std::strlen(body)) + "\r\n\r\n" + body;
}

/// A numeric or string field of the flat /solve JSON ("" when absent).
std::string json_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  std::size_t start = at + needle.size();
  if (start < body.size() && body[start] == '"') {
    const std::size_t end = body.find('"', start + 1);
    return end == std::string::npos ? ""
                                    : body.substr(start + 1, end - start - 1);
  }
  const std::size_t end = body.find_first_of(",}", start);
  return body.substr(start, end == std::string::npos ? end : end - start);
}

double json_number(const std::string& body, const std::string& key) {
  const std::string v = json_field(body, key);
  return v.empty() ? NAN : std::strtod(v.c_str(), nullptr);
}

util::serving::ServingConfig serving_config() {
  util::serving::ServingConfig cfg;
  cfg.workers = kServeWorkers;
  cfg.queue_capacity = 8;
  cfg.wall_preset = data::shrink(data::paper_wall_preset(), kModelShrink);
  cfg.body_preset = data::shrink(data::paper_body_preset(), kModelShrink);
  cfg.solver.tol = 5e-4;
  cfg.solver.max_outer = kServeMaxOuter;
  cfg.slo_latency_ms = kServeLimitMs;
  return cfg;
}

/// Starts a server and waits until each worker served one warm-up request
/// (concurrent body requests: a worker holds one while the next takes the
/// second). Null when the server does not come up.
std::unique_ptr<util::serving::Server> start_server() {
  auto server = std::make_unique<util::serving::Server>(serving_config());
  if (!server->start()) return nullptr;
  Loopback client(server->bound_port());
  const std::string warm = solve_request(kMenu[3]);
  for (std::size_t k = 0; k < kServeWorkers; ++k) client.send(k, warm);
  while (client.in_flight() > 0) client.wait(INFINITY);
  for (const auto& [id, r] : client.replies) {
    if (!r.ok || r.status != 200) return nullptr;
  }
  return server;
}

void run_serving(const Options& o, Report& rep, Trace& tr, Checker& chk,
                 Probe& probe) {
  const std::vector<Arrival> schedule =
      make_schedule(o.seed, kServeRate, o.seconds, kMenuBlock);
  std::vector<std::string> messages;
  for (const auto& c : kMenu) messages.push_back(solve_request(c));

  std::vector<double> setups, setups_raw;
  std::unique_ptr<util::serving::Server> server;
  for (int k = 0; k < kServeSetups; ++k) {
    if (server) server->stop();
    server.reset();
    const double t0 = now_s();
    server = start_server();
    const double took = now_s() - t0;
    if (!server) throw std::runtime_error("serving: server did not start");
    setups_raw.push_back(took);
    setups.push_back(SpeedProbe::corrected(took, probe.run()));
  }
  rep.set("setup_s", median(setups), kServeSetups);
  rep.set("bench.wall_setup_s", median(setups_raw), kServeSetups);
  util::reqctx::recorder().clear();

  const Counters start = Counters::take();
  Loopback client(server->bound_port());
  const double t_start = now_s();
  const auto clock = [&] { return now_s() - t_start; };
  // The probe runs on the generator thread while the server is idle:
  // nothing in flight, once after each busy period, and only when the next
  // arrival is further off than a probe takes. Each request is paired with
  // the first probe after its response.
  std::vector<std::pair<double, double>> probes;  // (finished, seconds)
  std::size_t probed_after = 0;  // responses completed at the last probe
  const auto probe_if_idle = [&](double next_due) {
    if (client.in_flight() == 0 && client.replies.size() > probed_after &&
        next_due - clock() > kServeProbeGapS) {
      const double p = probe.run();
      probes.emplace_back(clock(), p);
      probed_after = client.replies.size();
    }
  };
  const std::vector<Sent> sent = drive_open_loop(
      schedule, kServeConnections, clock,
      [&](double deadline) {
        probe_if_idle(deadline);
        client.wait(t_start + deadline);
      },
      [&](std::size_t i) { client.send(i, messages[static_cast<std::size_t>(
                                              schedule[i].type)]); },
      [&] { return client.in_flight(); });
  const double drain_limit = now_s() + 120.0;
  while (client.in_flight() > 0 && now_s() < drain_limit) {
    client.wait(drain_limit);
  }
  probe_if_idle(INFINITY);
  const Counters end = Counters::take();
  const auto probe_after = [&](double done_s) {
    for (const auto& [at, p] : probes) {
      if (at >= done_s) return p;
    }
    return probes.empty() ? 0.0 : probes.back().second;
  };
  const util::serving::ServerStats stats = server->stats();
  server->stop();

  std::map<std::uint64_t, util::reqctx::RequestSummary> summaries;
  for (const auto& s : util::reqctx::recorder().summaries()) {
    summaries[s.trace_id] = s;
  }

  std::vector<double> latency, service, service_raw, queue, solve, overhead;
  std::vector<std::vector<double>> per_type(kMenu.size()),
      per_type_raw(kMenu.size());
  long long full = 0, shed = 0, good = 0;
  double max_lag = 0.0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const CaseId& c = kMenu[static_cast<std::size_t>(schedule[i].type)];
    const auto it = client.replies.find(i);
    const bool answered = it != client.replies.end();
    const Loopback::Reply r = answered ? it->second : Loopback::Reply{};
    const double lat = answered ? r.done_s - t_start - sent[i].due_s : NAN;
    const std::string stage = json_field(r.body, "service_stage");
    const double umax = json_number(r.body, "umax");
    const double umean = json_number(r.body, "umean");
    const double queue_s = json_number(r.body, "queue_s");
    const double solve_s = json_number(r.body, "solve_s");
    if (r.status == 503) ++shed;
    if (stage == "full") ++full;
    max_lag = std::max(max_lag, sent[i].lag_s);

    bool ok = r.ok && r.status == 200 && stage == "full" &&
              json_field(r.body, "fallback_stage") == "none";
    const std::string key = std::string("serving/") + c.id;
    ok = chk.check(key + "/umax", umax, kServeTol) && ok;
    ok = chk.check(key + "/umean", umean, kServeTol) && ok;
    chk.operation(ok);
    if (!ok) continue;
    // Waiting = generator backlog + server queue; the rest of the latency
    // is the time to answer once a worker took the request.
    const double wait = sent[i].sent_s - sent[i].due_s + queue_s;
    const double answer = SpeedProbe::corrected(
        lat - wait, probe_after(r.done_s - t_start));
    const auto type = static_cast<std::size_t>(schedule[i].type);
    latency.push_back(lat);
    service.push_back(answer);
    service_raw.push_back(lat - wait);
    per_type[type].push_back(answer);
    per_type_raw[type].push_back(lat - wait);
    queue.push_back(wait);
    solve.push_back(solve_s);
    overhead.push_back(lat - wait - solve_s);
    if (lat * 1e3 <= kServeLimitMs) ++good;

    if (tr.on()) {
      const int op = static_cast<int>(i);
      const std::string tid = json_field(r.body, "trace_id");
      const int root =
          tr.add(std::string("request ") + c.id, "serving",
                 t_start + sent[i].due_s, lat, -1, op,
                 "\"trace_id\": \"" + tid + "\"");
      std::uint64_t id64 = 0;
      util::reqctx::RequestSummary s;
      if (util::reqctx::parse_trace_id(tid, &id64) && summaries.count(id64)) {
        s = summaries[id64];
      }
      using P = util::reqctx::Phase;
      const auto ph = [&](P p) { return s.phase_s[static_cast<int>(p)]; };
      const auto kids = tr.fill(
          root,
          {{"serving.client_wait", "serving",
            sent[i].sent_s - sent[i].due_s},
           {"serving.queue", "serving", queue_s},
           {"serving.read_parse", "serving", ph(P::kRead) + ph(P::kParse)},
           {"serving.solve", "serving", solve_s},
           {"serving.respond", "serving", ph(P::kRespond)}},
          "serving.overhead", "serving");
      tr.fill(kids[3],
              {{"adarnet.infer", "adarnet", ph(P::kInfer)},
               {"solver.momentum", "solver", ph(P::kMomentum)},
               {"solver.rhie_chow", "solver", ph(P::kRhieChow)},
               {"solver.pressure", "solver", ph(P::kPressure)},
               {"solver.sa", "solver", ph(P::kSa)},
               {"solver.ghosts", "solver", ph(P::kGhosts)}},
              "serving.solve_glue", "mesh");
    }
  }

  const auto n = static_cast<long long>(latency.size());
  double ttc = 0.0, ttc_raw = 0.0;
  for (std::size_t k = 0; k < kMenu.size(); ++k) {
    ttc += median(per_type[k]);
    ttc_raw += median(per_type_raw[k]);
    rep.note(std::string(kMenu[k].id) + ": median time to answer " +
             std::to_string(1e3 * median(per_type[k])) +
             " ms at the nominal speed, " +
             std::to_string(1e3 * median(per_type_raw[k])) + " ms wall, over " +
             std::to_string(per_type[k].size()) + " requests");
  }
  const auto attempted = static_cast<double>(schedule.size());
  report_times(rep, ttc, ttc_raw, service, service_raw);
  rep.note(std::to_string(probes.size()) + " probes in idle gaps");
  rep.set("serving.latency_p50_ms", 1e3 * median(latency), n);
  if (attempted > 0) {
    rep.set("serving.goodput_rps",
            kServeRate * static_cast<double>(good) / attempted,
            static_cast<long long>(attempted));
  }
  report_counters(rep, start, end);
  rep.set("serving.requests", attempted);
  const Tail lt = tail(latency);
  if (lt.ok) {
    rep.set("serving.latency_tail_ms", 1e3 * lt.value, lt.n);
    rep.note("serving.latency_tail_ms is p" + std::to_string(lt.percentile) +
             " of " + std::to_string(lt.n) + " requests");
  }
  const Tail qt = tail(queue);
  rep.set("serving.queue_ms", 1e3 * median(queue), n);
  if (qt.ok) rep.set("serving.queue_tail_ms", 1e3 * qt.value, qt.n);
  rep.set("serving.solve_ms", 1e3 * median(solve), n);
  rep.set("serving.overhead_ms", 1e3 * median(overhead), n);
  if (attempted > 0) {
    rep.set("serving.full_frac", static_cast<double>(full) / attempted);
    rep.set("serving.shed_frac", static_cast<double>(shed) / attempted);
  }
  rep.set("serving.max_queue_depth", stats.max_queue_depth);
  rep.set("serving.generator_lag_ms", 1e3 * max_lag,
          static_cast<long long>(sent.size()));
  rep.note("offered " + std::to_string(kServeRate) + " req/s for " +
           std::to_string(o.seconds) + " s: " +
           std::to_string(schedule.size()) + " requests, latency limit " +
           std::to_string(kServeLimitMs) + " ms");
}

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--data") o.data = v;
    else if (k == "--trace-out") o.trace_out = v;
    else if (k == "--results") o.results = v;
    else if (k == "--record") o.record = v;
    else return false;
  }
  return argc % 2 == 1 && o.seconds > 0.0 &&
         (o.workload == "table1" || o.workload == "infer" ||
          o.workload == "serving");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_options(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload table1|infer|serving --seed N "
                 "--seconds S --trace 0|1 [--data DIR] [--trace-out FILE] "
                 "[--results FILE] [--record FILE]\n");
    return 2;
  }
  Report rep;
  Trace tr(o.trace);
  try {
    Checker chk(o.data + "/reference_" + o.workload + ".json",
                !o.record.empty());
    Probe probe;
    if (o.workload == "table1") run_table1(o, rep, tr, chk, probe);
    if (o.workload == "infer") run_infer(o, rep, tr, chk, probe);
    if (o.workload == "serving") run_serving(o, rep, tr, chk, probe);
    probe.report(rep);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("bench.error_frac",
            chk.attempted > 0 ? static_cast<double>(chk.failed) /
                                    static_cast<double>(chk.attempted)
                              : 1.0,
            chk.attempted);
    if (o.workload != "table1") {
      rep.set("bench.qoi_err", chk.max_rel_err, chk.attempted);
    }
    tr.summarize(rep);
    if (tr.on() && !o.trace_out.empty()) tr.write_chrome(o.trace_out);

    const bool correct = chk.attempted > 0 && chk.failed == 0;
    if (!o.record.empty()) {
      std::FILE* f = std::fopen(o.record.c_str(), "w");
      const std::string doc = chk.recorded_json();
      if (f == nullptr || std::fputs(doc.c_str(), f) < 0 ||
          std::fclose(f) != 0 || !correct) {
        std::fprintf(stderr, "perfbench: reference not recorded (%s)\n",
                     correct ? "write failed" : "outputs not repeatable");
        return 1;
      }
    }
    std::printf("workload %s, seed %llu, %.0f s, trace %d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    rep.print(stdout);
    if (!o.results.empty()) {
      std::FILE* f = std::fopen(o.results.c_str(), "w");
      if (f != nullptr) {
        std::fprintf(f, "{\"end_to_end\": %s, \"per_layer\": %s}\n",
                     rep.json(end_to_end_names()).c_str(),
                     rep.json(per_layer_names()).c_str());
        std::fclose(f);
      }
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false", chk.attempted, chk.failed,
        rep.json(o.trace ? per_layer_names() : end_to_end_names()).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
