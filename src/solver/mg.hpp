// Geometric multigrid for the SIMPLE pressure-correction equation on the
// block-structured patch hierarchy (DESIGN.md §11): the solver's only p'
// solver. A mesh that admits no coarse level runs a one-rung ladder,
// whose V-cycle is the coarsest solve alone.
//
// The flat SOR loop that preceded it (now the oracle in
// tests/test_solver_mg.cpp) converges at O(1 - h^2) per sweep: on
// the uniform-HR meshes the low-frequency error barely moves and the
// pressure phase dominated the solve (72-77% of the wall time
// bench_solver_scaling measured before the multigrid).
// The V-cycle implemented here attacks every frequency at its natural
// resolution instead:
//
//   * The coarsening ladder reuses the composite-mesh machinery itself.
//     Each coarser level is a CompositeMesh of the same NPy x NPx patch
//     tiling with reduced per-patch resolution, so level-jump ghost
//     exchange, solid masks and per-patch geometry all come for free at
//     every depth. Rungs are aspect-driven: strongly anisotropic cells
//     (the channel: dx/dy up to 30) are semicoarsened — only the strong
//     coupling direction is halved until cells are near-isotropic — then
//     both dimensions halve, and finally every RefinementMap level is
//     lowered by one. Level-jump interfaces couple through the
//     flux-matched subface stencils (solver/jump.hpp) in every level
//     operator, so map lowering no longer refuses any mesh shape.
//   * Smoothing is a red-black point kernel on the shared 5-point
//     assembly (jump.hpp), thread-parallel over (patch, row) work items with
//     fixed-order reductions: results are bitwise identical across thread
//     counts. Every face of every level operator — in that kernel, in the
//     compiled rungs and in the line smoother below — follows one rule,
//     pressure_face() on the level's side table (PatchFaces, built with
//     its JumpStencil), and the transfers take their open sides from it. Levels whose refinement jumps run perpendicular to strongly
//     anisotropic cells (the row-refined channel: x-oscillatory modes
//     alias across y-jumps faster than point relaxation damps them) swap
//     the point kernel for a zebra line smoother in the strong direction:
//     exact tridiagonal solves along odd then even lines, which kill the
//     aliasing modes and keep a real ladder where the old code refused at
//     depth 1. Every rung is a CompositeMesh and forks on its own
//     parallel() flag, so rungs below mesh::kParallelCellFloor run the
//     identical schedule serially (no parallel region at all), and
//     point-smoothed rungs whose strong direction is exhausted scale
//     their sweep count by aspect^2 (smooth_mult) — all mesh-derived
//     decisions, never thread-count-derived ones.
//   * Ghosts come from each rung mesh's halo plan (mesh/composite.hpp):
//     the interface ghost writes compiled once into flat (destination,
//     sources, weights) entries, so an exchange is one gather loop. Most
//     rungs exchange once per V-cycle leg — after each smoothing leg and
//     after prolongation, not per sweep — and their sweeps see interface
//     ghosts frozen at the leg boundary (a block-Jacobi flavour at
//     interfaces). Rungs whose smoother needs a fresh ghost at every
//     red-black half-sweep (single-cell patches, strong anisotropy) are
//     compiled when their patches all have one size: the rung numbers its
//     cells densely once, and each smoothing call gathers x and b into
//     that copy, sweeps there and scatters x back. Per colour, interior
//     cells with fluid surroundings run as row runs (neighbours at +-1
//     and +-nx) and every other cell is a list entry with its faces
//     classified once, whose cross-patch faces read the neighbouring
//     patch's cell directly (found through CompositeMesh::neighbour(): the
//     multigrid reads the halo plan only through exchange_ghosts). A
//     same-size neighbour always holds the opposite colour, so the values
//     read are bitwise the ones an exchange between the half-sweeps would
//     have written, and the rung exchanges once per leg instead of twice
//     per sweep.
//     Mixed-size rungs of that kind and the line smoother still
//     exchange between colours.
//   * Restriction is exactly the transpose of prolongation (scatter form
//     of the same per-dimension 3/4-1/4 weights), so <R u, v>_c =
//     <u, P v>_f — tests/test_solver_mg.cpp asserts it. The interior
//     weight sum of 4 gives the finite-volume "sum of child residuals"
//     scaling that keeps the coarse right-hand side consistent with the
//     flux-integral units of the fine one. At level-jump interface sides
//     restriction folds reflectively instead of gathering the jump ghost
//     (residuals are cell-integral quantities; the exchanged ghost holds
//     them at the wrong cell area), while prolongation stays open there
//     (corrections are point-valued, the interpolation is sound).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "mesh/composite.hpp"
#include "solver/sweep.hpp"
#include "util/cancel.hpp"

namespace adarnet::solver {

class JumpStencil;

/// Outcome of one multigrid pressure solve (one outer SIMPLE iteration).
/// Its cost is timed by scopes (DESIGN.md §11): the inclusive
/// solver.mg.ns and solver.mg.{smooth,coarse,residual,transfer}.ns
/// counters, and the caller's pressure/ghosts phases; the
/// solver.mg.{smooth,coarse}.cells counters count the cell updates the
/// smoother and the coarsest solve make.
struct MgSolveInfo {
  int cycles = 0;            ///< V-cycles run (at most the exit's cap)
  double initial_norm = 0.0; ///< L1 norm of the right-hand side
  double final_ratio = 0.0;  ///< |r| / |b| at exit (0 for a zero RHS)
};

/// Geometric V-cycle solver for the pressure-correction equation
///   sum_f a_f (x - x_nb) = b,  a_f = (vol / aP) * face_len / dist,
/// with the solver's boundary treatment (outlet: x = 0 at the face;
/// fixed-velocity boundaries: zero correction flux; solids: x = 0).
///
/// Built once per RansSolver workspace (the mesh is fixed for the solver's
/// lifetime); per outer iteration the caller refreshes the coefficients
/// from the relaxed momentum diagonal and runs solve(). Level 0 borrows
/// the fine mesh and the caller's iterate, and owns the fine operator the
/// solver's corrector reads back (fine_dp(), fine_stencil()).
class PressureMg {
 public:
  /// Builds the coarsening ladder for `fine`. solve() checks `cancel`
  /// (optional; it must outlive this object) between V-cycles.
  explicit PressureMg(const mesh::CompositeMesh& fine,
                      const util::CancelToken* cancel = nullptr);
  ~PressureMg();

  PressureMg(const PressureMg&) = delete;
  PressureMg& operator=(const PressureMg&) = delete;

  /// Number of levels in the ladder (1 = no coarsening possible: every
  /// V-cycle is then the one rung's coarsest solve).
  [[nodiscard]] int depth() const;

  /// Replaces the fixed p' exit (|r| <= 0.3 |b| or 2 V-cycles) — the seam
  /// the linear-rate tests use to solve to a tight tolerance.
  void set_exit(double tol, int max_cycles);

  /// Rebuilds the per-level d = vol / aP coefficient field from the fine
  /// relaxed momentum diagonal (interior cells only; ghosts unread) and
  /// every level's jump-stencil couplings from it. Coarse cells take the
  /// plain average of their fluid children — the scaling under which the
  /// coarse 5-point operator is consistent with the fine one for a smooth
  /// coefficient field.
  void set_coefficients(const mesh::CompositeScalar& ap_fine);

  /// The fine level's d = vol / aP field (0 in solids and in the ghost
  /// ring) and its flux-matched jump stencil, as of the last
  /// set_coefficients() and solve(): the one copy of the fine p' operator,
  /// which the solver's corrector and interface face pass read too.
  [[nodiscard]] const mesh::CompositeScalar& fine_dp() const;
  [[nodiscard]] const JumpStencil& fine_stencil() const;

  /// Runs V-cycles on A x = -imb until the exit. `x` is zero-initialised
  /// (ghosts included) and left with exchanged interface ghosts, and the
  /// fine stencil's value buffers refreshed from it; domain-boundary
  /// ghosts are the caller's business (the solver applies its p' boundary
  /// rules after).
  MgSolveInfo solve(mesh::CompositeScalar& x, const mesh::CompositeScalar& imb);

 private:
  struct Level;

  /// Builds lv's compiled red-black schedule (Level::compiled).
  static void compile_rung(Level& lv);
  void smooth(Level& lv, mesh::CompositeScalar& x, int sweeps, double omega,
              bool exchange_each_sweep) const;
  /// smooth() on a compiled rung: every sweep on the rung's dense copy.
  void smooth_compiled(Level& lv, mesh::CompositeScalar& x, int sweeps,
                       double omega) const;
  /// Zebra (odd/even line) tridiagonal smoothing along the level's strong
  /// direction; used instead of the point kernel on levels whose jumps
  /// run perpendicular to strong anisotropy. One sweep = both colors.
  void smooth_lines(Level& lv, mesh::CompositeScalar& x, int sweeps) const;
  void exchange(const Level& lv, mesh::CompositeScalar& x) const;
  /// exchange() plus a refresh of the level's jump-stencil value buffers
  /// — the iterate's cross-patch couplings stay frozen-at-exchange-points
  /// exactly like its ghost ring. Use for the iterate; plain exchange()
  /// for the residual (its jump ghosts are never read: restriction gates
  /// jump sides).
  void exchange_iterate(Level& lv, mesh::CompositeScalar& x) const;
  /// Fills lv.r with the residual of `x` (fresh ghosts expected) and
  /// returns its L1 norm via fixed-order per-row partials.
  double compute_residual(Level& lv, mesh::CompositeScalar& x) const;
  void v_cycle(int d, mesh::CompositeScalar& x, double series_x);

  std::vector<Level> levels_;
  const util::CancelToken* cancel_ = nullptr;
  double exit_tol_;
  int max_cycles_;
};

/// A transfer's open sides, indexed by mesh::Side: true where the patch
/// side is an interface the stencil reaches across.
using OpenSides = std::array<bool, 4>;

/// Restricts one patch's residual to the coarse patch: b_c = R r_f with
/// R = P^T exactly (a scatter that applies prolongation's weights in
/// transpose form). fny/cny and fnx/cnx must each be 1 (identity copy)
/// or 2. On an `open` side the transfer also gathers the fine ghost
/// row/column — the neighbour's exchanged residual — so the stencil stays
/// full weighting across patch boundaries. Closed sides (the domain
/// boundary, or a level jump: the V-cycle opens only same-level sides)
/// fold the out-of-range weight onto the parent: reflective (weight 1,
/// zero-flux boundary) everywhere except a closed east side with
/// `dirichlet_e` (the outlet, p' = 0 at the face), which anti-reflects
/// (weight 1/2). Interior coarse cells receive weight sum 4 at ratio 2
/// (the FV sum-of-children scaling).
///
/// `coarse_solid` (ghost ring included; all zero for a case without
/// immersed geometry) folds reflectively at immersed solids exactly like
/// a closed zero-flux side: weight that would land in a solid coarse
/// cell moves to the parent instead of being discarded there, and weight
/// whose parent is solid is dropped. Without it a fine residual row along
/// a solid boundary loses its 1/4 share every rung — and, transposed,
/// prolongation reads the solid cell's pinned zero as if the boundary
/// were Dirichlet. That mismatch against the operator's Neumann solid
/// faces injects an O(1) boundary-layer error per rung: deep ladders over
/// the cylinder diverge at V(1,1) (rate ~1.35 at depth 6, doubling per
/// extra rung) without the fold and converge with it. Exposed for the
/// adjointness test in tests/test_solver_mg.cpp.
void mg_restrict_patch(const field::Grid2Dd& fine_r, int fny, int fnx,
                       field::Grid2Dd& coarse_b, int cny, int cnx,
                       const OpenSides& open, bool dirichlet_e,
                       const field::Mask2D& coarse_solid);

/// Adds the prolonged coarse correction into the fine iterate:
/// x_f += P x_c, cell-centred bilinear with per-dimension weights 3/4
/// (parent cell) and 1/4 (nearer side neighbour). On an `open` side the
/// side neighbour may be the coarse ghost cell — the caller must have
/// exchanged the coarse iterate's ghosts (the V-cycle leaves them fresh).
/// At closed sides the weight folds onto the parent (reflective;
/// anti-reflective at a `dirichlet_e` east side, see mg_restrict_patch).
/// `fine_solid` (optional) skips masked cells. `coarse_solid` (optional)
/// folds solid coarse neighbours' weights onto the parent — the transpose
/// of mg_restrict_patch's solid fold, so R = P^T holds with masks too;
/// fine cells whose parent itself is solid receive no correction.
/// Without it the unmasked expression runs, which rounds differently
/// from the masked one, so the V-cycle passes it only for cases with
/// immersed geometry.
void mg_prolong_add_patch(const field::Grid2Dd& coarse_x, int cny, int cnx,
                          field::Grid2Dd& fine_x, int fny, int fnx,
                          const field::Mask2D* fine_solid,
                          const OpenSides& open, bool dirichlet_e,
                          const field::Mask2D* coarse_solid);

}  // namespace adarnet::solver
