#include "adarnet/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "data/dataset.hpp"
#include "field/interp.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/reqctx.hpp"
#include "util/trace.hpp"

namespace adarnet::core {

const char* to_string(FallbackStage stage) {
  switch (stage) {
    case FallbackStage::kNone: return "none";
    case FallbackStage::kSanitizedSeed: return "sanitized-seed";
    case FallbackStage::kFreestreamRetry: return "freestream-retry";
    case FallbackStage::kReferenceMap: return "reference-map";
  }
  return "unknown";
}

bool inference_is_finite(const InferenceResult& result) {
  for (const PatchPrediction& pred : result.patches) {
    for (int c = 0; c < field::kNumFlowVars; ++c) {
      for (double v : pred.values.channel(c)) {
        if (!std::isfinite(v)) return false;
      }
    }
  }
  return true;
}

int sanitize_inference(InferenceResult& result, const field::FlowField& lr,
                       int ph, int pw) {
  const int npx = lr.nx() / pw;
  int replaced = 0;
  for (PatchPrediction& pred : result.patches) {
    // Cheap scan first: most patches are clean.
    bool dirty = false;
    for (int c = 0; c < field::kNumFlowVars && !dirty; ++c) {
      for (double v : pred.values.channel(c)) {
        if (!std::isfinite(v)) {
          dirty = true;
          break;
        }
      }
    }
    if (!dirty) continue;
    const int pi = pred.id / npx;
    const int pj = pred.id % npx;
    const int hh = ph << pred.level;
    const int ww = pw << pred.level;
    for (int c = 0; c < field::kNumFlowVars; ++c) {
      auto& chan = pred.values.channel(c);
      // Bicubic refinement of the LR patch — the same baseline the decoder
      // starts from, so a sanitized cell is exactly the "no correction"
      // prediction.
      field::Grid2Dd patch(ph, pw);
      const auto& lr_chan = lr.channel(c);
      for (int i = 0; i < ph; ++i) {
        for (int j = 0; j < pw; ++j) {
          patch(i, j) = lr_chan(pi * ph + i, pj * pw + j);
        }
      }
      const field::Grid2Dd up =
          pred.level == 0
              ? patch
              : field::resize(patch, hh, ww, field::Interp::kBicubic);
      for (std::size_t k = 0; k < chan.size(); ++k) {
        if (!std::isfinite(chan[k])) {
          chan[k] = up[k];
          ++replaced;
        }
      }
    }
  }
  return replaced;
}

std::string validate_refinement_map(const mesh::RefinementMap& map,
                                    const mesh::CaseSpec& spec, int ph,
                                    int pw, double max_cell_fraction) {
  if (map.count() == 0) return "empty refinement map";
  if (map.npy() != spec.npy() || map.npx() != spec.npx()) {
    return "patch layout mismatch";
  }
  for (int pi = 0; pi < map.npy(); ++pi) {
    for (int pj = 0; pj < map.npx(); ++pj) {
      const int l = map.level(pi, pj);
      if (l < 0 || l > mesh::kMaxLevel) return "level out of bounds";
    }
  }
  const long long budget_cells =
      static_cast<long long>(map.count()) *
      (static_cast<long long>(ph) << mesh::kMaxLevel) *
      (static_cast<long long>(pw) << mesh::kMaxLevel);
  const double budget = max_cell_fraction * static_cast<double>(budget_cells);
  if (static_cast<double>(map.active_cells(ph, pw)) > budget) {
    return "cell budget exceeded";
  }
  return "";
}

namespace {

bool field_is_finite(const mesh::CompositeField& f) {
  for (int c = 0; c < field::kNumFlowVars; ++c) {
    for (const auto& patch : f.channel(c)) {
      for (double v : patch) {
        if (!std::isfinite(v)) return false;
      }
    }
  }
  return true;
}

// One physics solve, accumulated into the result. "Failed" means the solver
// itself gave up (divergence through all its relaxation retries) or the
// returned state is non-finite — not a mere iteration-cap stall, which
// returns as converged = false without a fallback.
bool solve_failed(const solver::SolveStats& stats,
                  const mesh::CompositeField& f) {
  return stats.diverged || !field_is_finite(f);
}

}  // namespace

PipelineResult run_adarnet_pipeline(AdarNet& model, const mesh::CaseSpec& spec,
                                    const PipelineConfig& config) {
  solver::SolverConfig lr_cfg = config.lr_solver;
  if (config.cancel != nullptr) lr_cfg.cancel = config.cancel;
  solver::SolveStats lr_stats;
  util::trace::Span span("pipeline.lr_solve");
  const field::FlowField lr = data::solve_lr(spec, lr_cfg, &lr_stats);
  const double lr_seconds = span.stop();
  return run_adarnet_pipeline(model, spec, config, lr, lr_seconds,
                              lr_stats.iterations);
}

PipelineResult run_adarnet_pipeline(AdarNet& model, const mesh::CaseSpec& spec,
                                    const PipelineConfig& config,
                                    const field::FlowField& lr,
                                    double lr_seconds, int lr_iterations) {
  // Observability (DESIGN.md §9): run/solve counters, solver retry attempts
  // and which rung of the degradation ladder the run ended on.
  // The pipeline scope's self time — mesh/field assembly, sanitization,
  // map validation — is the bound request's pipeline glue (DESIGN.md §15);
  // inference and the solves attribute themselves.
  namespace metrics = util::metrics;
  static constexpr util::trace::Site kPipeline{
      "pipeline", nullptr, util::reqctx::Phase::kPipelineGlue};
  metrics::Counter& m_runs = metrics::counter("pipeline.runs");
  metrics::Counter& m_solves = metrics::counter("pipeline.solves");
  metrics::Counter& m_attempts = metrics::counter("pipeline.solver.attempts");
  const util::trace::Span pipeline_span(kPipeline);
  m_runs.add();

  PipelineResult result;
  result.lr = lr;
  result.lr_seconds = lr_seconds;
  result.lr_iterations = lr_iterations;

  // One-shot non-uniform super-resolution.
  InferenceResult inference = model.infer(lr);
  result.inf_seconds = inference.seconds;
  result.inference_measured_bytes = inference.measured_peak_bytes;
  result.inference_modeled_bytes = inference.modeled_bytes;
  result.map = inference.map;

  const GuardConfig& guards = config.guards;
  const int ph = model.config().ph;
  const int pw = model.config().pw;

  // --- hand-off validation ---------------------------------------------------
  if (!inference_is_finite(inference)) {
    result.sanitized_values = sanitize_inference(inference, lr, ph, pw);
    result.fallback_stage = FallbackStage::kSanitizedSeed;
    ADR_LOG_WARN << spec.name << " non-finite inference output; sanitized "
                 << result.sanitized_values << " values from the LR seed";
  }
  const std::string reason = validate_refinement_map(
      inference.map, spec, ph, pw, guards.max_cell_fraction);
  const bool dnn_mesh_usable = reason.empty();
  if (!dnn_mesh_usable) {
    result.fallback_stage = FallbackStage::kReferenceMap;
    ADR_LOG_WARN << spec.name << " rejecting DNN refinement map (" << reason
                 << "); using the feature-based reference map";
  }

  solver::SolverConfig ps_cfg = config.ps_solver;
  if (config.cancel != nullptr) ps_cfg.cancel = config.cancel;
  // Rung-boundary cancellation check: an expired token stops the ladder
  // where it stands (never a retry or a deeper rung), and each solve is
  // itself cancellation-aware, so the worst case past expiry is bounded
  // glue work — mesh assembly and seeding, no solver iterations.
  auto expired = [&config] {
    return config.cancel != nullptr && config.cancel->expired();
  };

  auto account = [&](const solver::SolveStats& stats) {
    result.ps_seconds += stats.seconds;
    // Earlier rungs count in full; the returned solve counts only up to
    // its residual-arrival iteration (see PipelineResult).
    result.ps_iterations_to_tolerance =
        result.ps_iterations + (stats.iterations_to_tolerance > 0
                                    ? stats.iterations_to_tolerance
                                    : stats.iterations);
    result.ps_iterations += stats.iterations;
    result.ps_solves += 1;
    result.converged = stats.converged;
    result.residual = stats.residual;
    if (stats.cancelled) result.cancelled = true;
    m_solves.add();
    m_attempts.add(stats.attempts);
  };

  // --- the degradation ladder ------------------------------------------------
  // Rung 0: DNN seed on the DNN mesh (the paper's path). Rung 1: freestream
  // re-seed on the DNN mesh. Rung 2: feature-based reference map with the
  // LR seed (and a last-resort freestream re-seed on it).
  bool solved = false;
  if (dnn_mesh_usable) {
    auto [mesh, f] = model.to_composite(inference, spec, lr);
    solver::RansSolver rans(*mesh, ps_cfg);
    solver::SolveStats stats = rans.solve(f);
    account(stats);
    if (solve_failed(stats, f) && !expired()) {
      ADR_LOG_WARN << spec.name
                   << " physics solve diverged on the DNN seed; retrying "
                      "from freestream on the DNN mesh";
      result.fallback_stage = FallbackStage::kFreestreamRetry;
      rans.initialize_freestream(f);
      stats = rans.solve(f);
      account(stats);
    }
    // A cancelled-but-finite state is accepted as-is: a diverged solve has
    // already restored the initial (finite) seed, and re-solving it on a
    // different rung would burn time the deadline no longer has.
    if (!solve_failed(stats, f) || expired()) {
      result.mesh = std::move(mesh);
      result.solution = std::move(f);
      solved = true;
    }
  }
  if (!solved) {
    result.fallback_stage = FallbackStage::kReferenceMap;
    mesh::RefinementMap ref_map =
        amr::fallback_reference_map(spec, lr, guards.fallback);
    auto mesh = std::make_unique<mesh::CompositeMesh>(spec, ref_map);
    mesh::CompositeField f = mesh::make_field(*mesh);
    mesh::fill_from_uniform(f, *mesh, lr);
    solver::RansSolver rans(*mesh, ps_cfg);
    solver::SolveStats stats = rans.solve(f);
    account(stats);
    if (solve_failed(stats, f) && !expired()) {
      ADR_LOG_WARN << spec.name
                   << " reference-map solve diverged from the LR seed; "
                      "last-resort freestream re-seed";
      rans.initialize_freestream(f);
      stats = rans.solve(f);
      account(stats);
    }
    result.map = ref_map;
    result.mesh = std::move(mesh);
    result.solution = std::move(f);
  }
  if (expired()) result.cancelled = true;

  // One rung counter per run: the deepest rung the ladder reached.
  switch (result.fallback_stage) {
    case FallbackStage::kNone:
      metrics::counter("pipeline.fallback.none").add();
      break;
    case FallbackStage::kSanitizedSeed:
      metrics::counter("pipeline.fallback.sanitized_seed").add();
      break;
    case FallbackStage::kFreestreamRetry:
      metrics::counter("pipeline.fallback.freestream_retry").add();
      break;
    case FallbackStage::kReferenceMap:
      metrics::counter("pipeline.fallback.reference_map").add();
      break;
  }
  if (result.cancelled) {
    metrics::counter("pipeline.cancelled").add();
    ADR_LOG_WARN << spec.name << " pipeline cancelled (deadline); returning "
                 << "best iterate after " << result.ps_iterations
                 << " physics iterations, residual=" << result.residual;
  }
  // Degradation history for /series.json: x is the run index, y the rung
  // (0 = clean run, 3 = reference-map last resort), so a scraper can see
  // *when* in a batch the pipeline started degrading, not just how often.
  metrics::series("pipeline.fallback_stage")
      .append(static_cast<double>(m_runs.value()),
              static_cast<double>(result.fallback_stage));

  if (result.fallback_stage != FallbackStage::kNone) {
    ADR_LOG_WARN << spec.name << " ADARNet pipeline degraded to rung '"
                 << to_string(result.fallback_stage) << "' ("
                 << result.ps_solves << " physics solves, converged="
                 << (result.converged ? "yes" : "no") << ")";
  }
  ADR_LOG_DEBUG << spec.name << " ADARNet pipeline: lr=" << result.lr_seconds
                << "s inf=" << result.inf_seconds
                << "s ps=" << result.ps_seconds << "s ("
                << result.ps_iterations << " iters)";

  // Per-request attribution (DESIGN.md §15): the ladder outcome.
  if (util::reqctx::RequestContext* ctx = util::reqctx::current()) {
    ctx->meta.fallback_stage = to_string(result.fallback_stage);
    ctx->count("pipeline.runs", 1);
    ctx->count("pipeline.solves", result.ps_solves);
    ctx->count("pipeline.iterations", result.ps_iterations);
  }
  return result;
}

}  // namespace adarnet::core
