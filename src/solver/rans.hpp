// Steady incompressible RANS solver with the SA model on composite meshes.
//
// This is the "physics solver" of the end-to-end framework (the paper uses
// OpenFOAM's pimpleFoam; see DESIGN.md for the substitution). The solver is
// a collocated finite-volume SIMPLE scheme:
//   * momentum: first-order upwind convection + central diffusion with
//     effective viscosity nu + nu_t, implicit under-relaxation;
//   * pressure-velocity coupling: SIMPLE pressure correction with
//     Rhie-Chow momentum interpolation at faces;
//   * turbulence: SA transport equation, implicit destruction term;
//   * immersed solids: masked Dirichlet cells (U = V = nuTilda = 0).
//
// The same solver runs the uniform LR solve (all patches level 0), uniform
// HR solves (all patches level n) and non-uniform composite solves — which
// is what makes the AMR cost model real: work per outer iteration is
// proportional to the mesh's active cells.
//
// All in-place sweeps use red-black (checkerboard) coloring and are
// thread-parallel over (patch, row) work items on meshes at or above
// mesh::kParallelCellFloor; every floating-point reduction goes through
// fixed-order per-row partial buffers, so results are bitwise identical
// across thread counts (DESIGN.md §8).
#pragma once

#include <memory>

#include "mesh/composite.hpp"
#include "util/cancel.hpp"

namespace adarnet::util::trace {
struct Site;
}  // namespace adarnet::util::trace

namespace adarnet::solver {

/// Tuning knobs for the SIMPLE iteration.
struct SolverConfig {
  int max_outer = 6000;       ///< cap on outer (SIMPLE) iterations
  double tol = 2e-4;          ///< normalised residual target
  double alpha_u = 0.5;       ///< momentum under-relaxation factor
  double alpha_p = 0.2;       ///< pressure under-relaxation factor
  double alpha_nt = 0.2;      ///< SA under-relaxation factor
  bool solve_sa = true;       ///< disable to run a laminar solve
  double pseudo_cfl = 2.0;    ///< local pseudo-time-step CFL number; bounds
                              ///< Vol/aP in near-stagnation cells (stability)

  /// Cooperative cancellation (DESIGN.md §13). When set, solve()/iterate()
  /// check it at every outer-iteration boundary (and the multigrid p'
  /// solve per V-cycle) and return early with SolveStats::cancelled — the
  /// field keeps the best iterate, never a partially-updated state. The
  /// token must outlive the solve. nullptr = never cancelled.
  const util::CancelToken* cancel = nullptr;
};

/// Wall time spent in each phase of the outer iteration over a whole
/// solve()/iterate() call: the self time of the solver's phase scopes
/// (trace::Span), i.e. the calling thread's phase-table delta over the
/// call. `ghosts` covers every inter-patch exchange and boundary-ghost
/// application, including the multigrid cycle's; the compute phases
/// exclude it. `sa` includes the eddy-viscosity evaluation that feeds the
/// momentum coefficients.
struct PhaseTimes {
  double momentum = 0.0;   ///< momentum coefficient assembly + GS sweeps
  double rhie_chow = 0.0;  ///< aP extrapolation, face velocities, reflux,
                           ///< mass imbalance
  double pressure = 0.0;   ///< p' solve (V-cycles minus their ghost
                           ///< exchanges), p' boundary ghosts, corrector
  double sa = 0.0;         ///< eddy viscosity + SA transport sweeps
  double ghosts = 0.0;     ///< exchange_ghosts + apply_bc_ghosts traffic

  /// Sum of all phases (excludes the solve's own glue, so <= its wall).
  [[nodiscard]] double total() const {
    return momentum + rhie_chow + pressure + sa + ghosts;
  }
};

/// Outcome of a solve: convergence, cost, and residual bookkeeping.
/// The fault-tolerance fields (diverged, attempts, final_*) feed the
/// pipeline's degradation ladder — see DESIGN.md §7.
struct SolveStats {
  int iterations = 0;           ///< outer SIMPLE iterations performed (ITC)
  int iterations_to_tolerance = 0;  ///< first outer iteration whose combined
                                ///< residual reached max(tol, 1.1 x the
                                ///< final residual) — i.e. where the solve
                                ///< effectively arrived. Equals `iterations`
                                ///< when the tolerance exit fired; on a
                                ///< solve that plateaus above tol and burns
                                ///< the cap, the gap `iterations - this` is
                                ///< the tail spent after the residual
                                ///< stopped falling.
                                ///< 0 only for a dead solve (diverged or
                                ///< cancelled before any iteration).
  bool converged = false;       ///< residual target reached before the cap
  bool diverged = false;        ///< a non-finite residual ended the solve
                                ///< (after all relaxation retries)
  bool cancelled = false;       ///< SolverConfig::cancel expired; the field
                                ///< holds the best iterate so far
  int attempts = 1;             ///< solve(): relaxation attempts consumed
                                ///< (1 = converged/stalled first try)
  double residual = 0.0;        ///< final normalised residual
  double seconds = 0.0;         ///< wall time of the solve
  long long cell_updates = 0;   ///< total interior-cell updates (machine-
                                ///< independent work measure)
  double final_pseudo_cfl = 0.0;  ///< pseudo-CFL of the last attempt run
  double final_alpha_u = 0.0;     ///< momentum relaxation of the last attempt
  PhaseTimes phase_seconds;       ///< per-phase wall-time breakdown
};

/// Normalised residuals of the current state (diagnostics and convergence).
struct Residuals {
  double continuity = 0.0;  ///< mass imbalance / inlet mass flux
  double momentum = 0.0;    ///< steady U, V defect per cell, normalised by
                            ///< the diagonal times u_ref (momentum_defect)
  double sa = 0.0;          ///< steady nuTilda defect per cell, normalised
                            ///< by the diagonal times a turbulence scale
                            ///< (the SA sweeps' defect stage)
  // Per-component momentum defects (momentum is their mean). Diagnostics
  // only — convergence tests use the combined momentum value — but they
  // are what the telemetry time-series solver.residual.{u,v} record, so an
  // anisotropic stall (e.g. V converged, U oscillating) is visible live.
  double momentum_u = 0.0;  ///< U-component steady momentum defect
  double momentum_v = 0.0;  ///< V-component steady momentum defect
  // V-cycles the p' solve ran this iteration. Diagnostics only; the
  // solver.pressure.cycles time-series records it per outer iteration on
  // the same x axis as solver.residual.p, so cycle-count spikes line up
  // with residual stalls.
  int pressure_cycles = 0;

  /// Worst of continuity/momentum/sa; non-finite values map to 1e30.
  [[nodiscard]] double combined() const;
};

/// SIMPLE solver bound to one composite mesh.
class RansSolver {
 public:
  RansSolver(const mesh::CompositeMesh& mesh, SolverConfig config);
  ~RansSolver();

  /// Initialises `f` to a uniform freestream guess (inlet velocity
  /// everywhere, zero pressure, freestream nuTilda), zero inside solids.
  void initialize_freestream(mesh::CompositeField& f) const;

  /// Runs SIMPLE outer iterations until the residual target or the cap.
  SolveStats solve(mesh::CompositeField& f);

  /// Performs up to `n` outer iterations (used by the AMR driver's
  /// intermediate passes). Stats accumulate residual info as in solve().
  /// Stops early with `diverged` set when a non-finite residual appears,
  /// instead of silently iterating on a NaN field.
  SolveStats iterate(mesh::CompositeField& f, int n);

  /// Applies boundary-condition ghosts + inter-patch exchange to `f`.
  void refresh_ghosts(mesh::CompositeField& f) const;

  /// Residuals of the state as-is: one read-only evaluation of the steady
  /// defect, no sweeps, no field copy. Expects refreshed ghosts — every
  /// solver entry point (solve/iterate/refresh_ghosts) leaves them so.
  Residuals residuals(const mesh::CompositeField& f) const;

  [[nodiscard]] const SolverConfig& config() const { return config_; }
  [[nodiscard]] const mesh::CompositeMesh& mesh() const { return mesh_; }

  /// Stored face velocities as of the last outer iteration's
  /// post-corrector face pass. Diagnostic / test access: the jump-face
  /// conservation invariant (coarse face = mean of covered fine faces on
  /// every patch interface, to the bit) is measured on these; see
  /// solver::interface_flux_mismatch.
  [[nodiscard]] const mesh::CompositeScalar& corrected_face_u() const;
  [[nodiscard]] const mesh::CompositeScalar& corrected_face_v() const;

 private:
  struct Workspace;

  /// The cached per-solver scratch workspace (allocated on first use; the
  /// mesh, and therefore every array shape, is fixed for the solver's
  /// lifetime). mutable: residuals() is logically const but needs scratch.
  Workspace& workspace() const;

  /// The outer loop behind solve() and iterate(), timed by one `site`
  /// scope: up to `max_iters` outer iterations with the cancellation
  /// boundary, fault hooks, residual series and iterations-to-tolerance
  /// back-scan, then the final ghost refresh. `until_converged` selects
  /// solve(): the tolerance exit plus relaxation retries on divergence.
  SolveStats run(const util::trace::Site& site, mesh::CompositeField& f,
                 int max_iters, bool until_converged);

  /// One SIMPLE outer iteration under `cfg`; returns the residuals
  /// measured during it. Its phases time themselves (PhaseTimes).
  Residuals outer_iteration(mesh::CompositeField& f, Workspace& ws,
                            const SolverConfig& cfg) const;

  /// Read-only steady-defect evaluation of `f` (residuals() backend):
  /// writes only into `ws`, never into `f`.
  Residuals evaluate_residuals(const mesh::CompositeField& f,
                               Workspace& ws) const;

  /// Eddy viscosity ws.nut from f.nuTilda (ghosts included).
  void compute_nut(const mesh::CompositeField& f, Workspace& ws) const;

  /// Zero-gradient extrapolation of the momentum diagonal ws.ap into the
  /// domain-boundary ghost ring (interfaces are handled by exchange).
  void extrapolate_ap(Workspace& ws) const;

  /// Rhie-Chow face velocities, interface refluxing, and the per-cell mass
  /// imbalance ws.imb; returns the normalised continuity residual.
  double assemble_faces_imbalance(const mesh::CompositeField& f,
                                  Workspace& ws) const;

  /// Applies the boundary-condition ghosts of every channel selected by
  /// `channel_mask` (bit c = channel c) in one loop over patches, instead
  /// of one per channel.
  void apply_bc_ghosts(mesh::CompositeField& f, unsigned channel_mask) const;

  const mesh::CompositeMesh& mesh_;
  SolverConfig config_;
  mutable std::unique_ptr<Workspace> ws_;
};

}  // namespace adarnet::solver
