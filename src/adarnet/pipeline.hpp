// The end-to-end ADARNet framework (paper Section 3.3, Fig 6).
//
// TTC = (LR solve) + (one-shot DNN inference) + (physics solver driving the
// non-uniform prediction to convergence). The physics solver performs no
// further refinement or coarsening: the final discretisation is the DNN's
// output, and convergence guarantees come from the solver, exactly as in
// the paper.
//
// The hand-off from DNN to physics solver is guarded (DESIGN.md §7): the
// inference output is validated (finite values, sane refinement map), a
// bad seed is sanitized, and a physics solve that diverges even after the
// solver's internal relaxation retries walks a degradation ladder —
// freestream re-seed on the DNN mesh first, then the feature-based
// reference map. The rung that produced the returned solution is recorded
// in PipelineResult::fallback_stage.
#pragma once

#include <memory>

#include "adarnet/model.hpp"
#include "amr/driver.hpp"
#include "solver/rans.hpp"

namespace adarnet::core {

/// Which rung of the degradation ladder produced the returned solution.
enum class FallbackStage : int {
  kNone = 0,         ///< clean DNN seed on the DNN mesh
  kSanitizedSeed,    ///< non-finite inference values replaced; DNN mesh kept
  kFreestreamRetry,  ///< physics solve re-seeded from freestream, DNN mesh
  kReferenceMap,     ///< feature-based amr reference map replaced the mesh
};

/// Human-readable rung name ("none", "sanitized-seed", ...).
const char* to_string(FallbackStage stage);

/// Hand-off validation settings of the guarded pipeline.
struct GuardConfig {
  double max_cell_fraction = 1.0;  ///< refinement-map cell budget, as a
                                   ///< fraction of the all-max-level mesh
  amr::AmrConfig fallback;      ///< marking settings for the reference-map
                                ///< rung (solver field unused)
};

/// Solver settings for the two solve stages of the pipeline.
struct PipelineConfig {
  solver::SolverConfig lr_solver;  ///< LR (input) solve
  solver::SolverConfig ps_solver;  ///< final physics solve on the DNN mesh
  GuardConfig guards;              ///< inference hand-off guards

  /// Request-scoped cooperative cancellation (DESIGN.md §13). When set it
  /// is threaded into both solver configs and checked at every rung
  /// boundary of the degradation ladder: an expired token stops the ladder
  /// where it stands and the result carries the best iterate produced so
  /// far (finite fields, converged = false, cancelled = true). Overrides
  /// any cancel already present on the solver configs.
  const util::CancelToken* cancel = nullptr;
};

/// Full cost breakdown and outputs of one end-to-end run.
struct PipelineResult {
  mesh::RefinementMap map;        ///< mesh actually solved on (the DNN
                                  ///< prediction unless the ladder reached
                                  ///< kReferenceMap)
  field::FlowField lr;            ///< the LR input field

  double lr_seconds = 0.0;        ///< time to obtain the LR flow field
  double inf_seconds = 0.0;       ///< DNN inference time
  double ps_seconds = 0.0;        ///< physics-solver time (all rungs)
  int lr_iterations = 0;          ///< LR solve SIMPLE iterations
  int ps_iterations = 0;          ///< physics-solver SIMPLE iterations (ITC)
  int ps_iterations_to_tolerance = 0;  ///< like ps_iterations, but the last
                                  ///< solve of the ladder is charged only up
                                  ///< to SolveStats::iterations_to_tolerance
                                  ///< — the ITC a residual-plateau early
                                  ///< exit would have produced (earlier
                                  ///< rungs are charged in full; their work
                                  ///< was really spent)
  bool converged = false;         ///< final solve reached tolerance
  bool cancelled = false;         ///< the cancel token expired mid-run; the
                                  ///< solution is the best iterate
  double residual = 0.0;          ///< final normalised residual of the
                                  ///< returned solution's solve

  FallbackStage fallback_stage = FallbackStage::kNone;  ///< rung that fired
  int sanitized_values = 0;       ///< non-finite prediction values replaced
  int ps_solves = 0;              ///< physics solves run across the ladder

  std::int64_t inference_measured_bytes = 0;  ///< allocator peak
  std::int64_t inference_modeled_bytes = 0;   ///< analytic activation model

  std::unique_ptr<mesh::CompositeMesh> mesh;  ///< final mesh
  mesh::CompositeField solution;              ///< converged state

  /// Total time-to-convergence in seconds.
  [[nodiscard]] double ttc_seconds() const {
    return lr_seconds + inf_seconds + ps_seconds;
  }
};

/// True when every value of every patch prediction is finite.
bool inference_is_finite(const InferenceResult& result);

/// Replaces every non-finite prediction value with the bicubically refined
/// LR value at the same cell (the decoder-input baseline). Returns the
/// number of values replaced.
int sanitize_inference(InferenceResult& result, const field::FlowField& lr,
                       int ph, int pw);

/// Refinement-map sanity for the hand-off: correct patch layout for `spec`,
/// non-empty, levels within [0, kMaxLevel], and active cells within
/// `max_cell_fraction` of the all-max-level mesh. Returns a reason string
/// ("" when valid).
std::string validate_refinement_map(const mesh::RefinementMap& map,
                                    const mesh::CaseSpec& spec, int ph,
                                    int pw, double max_cell_fraction);

/// Runs LR solve -> inference -> guarded physics solve for one case.
PipelineResult run_adarnet_pipeline(AdarNet& model,
                                    const mesh::CaseSpec& spec,
                                    const PipelineConfig& config);

/// Variant that reuses an existing LR solution (when several pipelines are
/// compared on the same case, the LR solve is shared).
PipelineResult run_adarnet_pipeline(AdarNet& model,
                                    const mesh::CaseSpec& spec,
                                    const PipelineConfig& config,
                                    const field::FlowField& lr,
                                    double lr_seconds, int lr_iterations);

}  // namespace adarnet::core
