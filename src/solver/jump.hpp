// Flux-matched level-jump face stencils for the pressure-correction
// equation on composite meshes (DESIGN.md §11).
//
// At a level-jump patch interface the two sides disagree about the face:
// the fine side sees r small faces, the coarse side one large face, and
// the interpolated ghost ring (mesh/composite.cpp) models neither — the
// plain two-point couplings built from it give the fine side twice the
// coarse side's total interface coupling, so the p' equation is not the
// Schur complement of the corrector + refluxed imbalance and an accurate
// p' solve diverges the SIMPLE outer loop (the PR-6 SOR fallback).
//
// The fix mirrors the face-velocity reflux pass: ONE authoritative flux
// per jump face, discretised on the fine subfaces. Each coarse face is
// the union of the r fine subfaces covering it; per subface s between
// fine cell f and coarse cell c the correction flux is
//
//   dF_s = -a_s (x_c - x_f),   a_s = A_f / (h_f/(2 d_f) + h_c/(2 d_c)),
//
// the standard two-point transmissibility with the half-cell resistances
// in series (A_f = fine tangential cell size, h = perpendicular cell
// size, d = vol/aP; a_s = 0 when either cell is solid). The fine cell's
// equation carries a_s against the coarse value; the coarse cell's
// equation carries the SAME a_s against each fine value — both sides sum
// the identical per-subface couplings, so the jump-face block is
// symmetric and the total interface coupling matches exactly. On a
// uniform interface the formula degenerates to the interior coupling
// d * A / h, so the operator is one continuous family, not a special
// case.
//
// The corrector must read the same stencil or the inconsistency just
// moves: the matched effective ghost is the value of the linear profile
// through (x_own, x_nb) evaluated at the owner's ghost centre,
//
//   g = x_own + t (x_nb - x_own),   t = 2 h_own / (h_own + h_nb),
//
// with x_nb the facing coarse value (fine side) or the mean of the
// covered fine values (coarse side, t = 4/3 > 1: a genuine extrapolation
// — correct for the one-shot explicit corrector, even though the ghost
// exchange clamps it for the implicit sweeps' stability).
//
// Freeze semantics match the ghost ring: `refresh(x)` snapshots the
// cross-patch values into per-side buffers at exactly the points where
// ghosts are exchanged, so sweeps between exchanges see interface
// couplings frozen at the leg boundary (block-Jacobi at interfaces,
// exactly like the ghost-based coupling it replaces). Every buffer is
// written by a scan whose inputs are the two patches' own arrays, so the
// result is independent of the thread count (DESIGN.md §8).
#pragma once

#include <vector>

#include "mesh/composite.hpp"

namespace adarnet::solver {

/// One patch side that is a level-jump interface. Arrays are 1-based over
/// the owner's tangential cells [1 .. own.n] (index 0 unused).
struct JumpSide {
  mesh::PatchSide own;  ///< the owner's side (own.k: the owner patch)
  mesh::PatchSide nb;   ///< the neighbour's facing side
  bool fine = false;    ///< owner is the finer patch
  int ratio = 1;        ///< fine cells per coarse cell (1 on a ladder
                        ///< level whose map lowering flattened the jump)
  double area = 0.0;    ///< fine tangential cell size (subface length)
  double h0_own = 0.0;  ///< owner perpendicular cell size on the ANCHOR
                        ///< (finest) mesh — the resistance length scale
  double h0_nb = 0.0;   ///< neighbour perpendicular anchor cell size
  double t_ghost = 0.0;  ///< 2 own.h / (own.h + nb.h)
  /// Per owner cell: total interface coupling (the diagonal term). On
  /// the fine side each cell has exactly one subface, so a[t] is the
  /// subface coupling itself; on the coarse side a[t] sums its r
  /// subfaces (whose individual values live in asub).
  std::vector<double> a;
  /// Per owner cell: sum of a_s * x_nb_s (the rhs term). Frozen at the
  /// last refresh(), like a ghost value.
  std::vector<double> ax;
  /// Per owner cell: matched effective ghost of x for the corrector's
  /// central gradient. Frozen at the last refresh().
  std::vector<double> ghost;
  /// Coarse side only: per-subface couplings, (t - 1) * ratio + s
  /// (0-based s), size n * ratio.
  std::vector<double> asub;
};

/// The p' operator's four sides of one patch, indexed by mesh::Side: the
/// one place that says which side is a level jump, which is the domain
/// boundary and whether the east side is the outlet.
struct PatchFaces {
  /// The level-jump side, or null where the side is not one.
  const JumpSide* jump[4] = {nullptr, nullptr, nullptr, nullptr};
  /// The side is the domain boundary (CompositeMesh::neighbour() < 0).
  bool domain[4] = {false, false, false, false};
  /// The east side is the domain outlet (p' = 0 at the face).
  bool outlet = false;
};

/// What the p' operator puts on one face of a cell.
enum class PressureFace : unsigned char {
  kNone,       ///< no face: a solid neighbour or a closed domain side
  kNeighbour,  ///< the two-point coupling to the cell beyond the face
  kOutlet,     ///< the outlet fold, x_ghost = -x
  kJump,       ///< the matched jump-side stencil
};

/// THE p' face rule, for the face on side s of a cell: `edge` says the
/// cell lines patch side s, `solid_nb` that the cell beyond the face (a
/// ghost at the edge) is solid. A jump side goes through the stencil; a
/// solid neighbour gives no face; a domain side gives none, except the
/// east outlet, which folds; anything else couples to the neighbour.
/// Every consumer (assemble_pressure_cell, the compiled rungs and the line
/// smoother in mg.cpp) branches on it, each in its own arithmetic.
inline PressureFace pressure_face(const PatchFaces& pf, mesh::Side s,
                                  bool edge, bool solid_nb) {
  if (edge && pf.jump[s] != nullptr) return PressureFace::kJump;
  if (solid_nb) return PressureFace::kNone;
  if (edge && pf.domain[s]) {
    return s == mesh::kE && pf.outlet ? PressureFace::kOutlet
                                      : PressureFace::kNone;
  }
  return PressureFace::kNeighbour;
}

/// Matched jump-face couplings of one composite mesh, and the p'
/// operator's side table (faces()). Build once per mesh (geometry only),
/// then per p' solve: set_coefficients(dp) after the momentum diagonal is
/// known, refresh(x) at every ghost-exchange point.
class JumpStencil {
 public:
  JumpStencil() = default;
  explicit JumpStencil(const mesh::CompositeMesh& mesh);
  // The side table points into the jump sides: movable, not copyable.
  JumpStencil(JumpStencil&&) = default;
  JumpStencil& operator=(JumpStencil&&) = default;

  /// Ladder-level variant: builds sides at every interface where the
  /// ANCHOR mesh (the multigrid ladder's level 0, same patch tiling) has
  /// a level jump — a superset of `mesh`'s own jumps that includes
  /// interfaces map lowering has flattened to ratio 1 — with the
  /// half-cell resistances anchored to the ANCHOR's perpendicular cell
  /// sizes: a_s = A_f / (h0_f/(2 d_f) + h0_c/(2 d_c)). The coarse d is a
  /// child average (it keeps the fine vol/aP scale), so resistances must
  /// keep the fine length scale too: using the level's own h would double
  /// the interface resistance per coarsening rung, under-transmitting the
  /// coarse-grid correction by ~2x per rung — ratio-4+ interfaces then
  /// DIVERGE the V-cycle (observed rates 2-25 on the scenario meshes,
  /// matching the (1 - T_coarse/T_fine) overshoot analysis; in 1D the h0
  /// anchor reproduces the Galerkin coarse interface coupling exactly).
  /// Flattened (ratio-1) interfaces need sides for the same reason: the
  /// plain kernel coupling d * A / h uses the own cell's d across a face
  /// where d jumps by the historical refinement factor. With mesh ==
  /// anchor this constructor is the single-argument one.
  JumpStencil(const mesh::CompositeMesh& mesh,
              const mesh::CompositeMesh& anchor);

  /// True when the mesh has no level-jump interface (no value buffers to
  /// set or refresh).
  [[nodiscard]] bool empty() const { return sides_.empty(); }

  /// Patch k's side table.
  [[nodiscard]] const PatchFaces& faces(int k) const {
    return faces_[static_cast<std::size_t>(k)];
  }

  /// Recomputes every subface coupling from the current d = vol/aP field
  /// (interior cells only; a_s = 0 when either cell is solid, d <= 0).
  /// Call once per p' solve, before the first refresh().
  void set_coefficients(const mesh::CompositeScalar& dp);

  /// Snapshots the cross-patch values of `x` into the ax / ghost buffers.
  /// Call wherever the ghost ring of `x` is exchanged.
  void refresh(const mesh::CompositeScalar& x);

 private:
  static void refresh_side(JumpSide& sd, int t,
                           const mesh::CompositeScalar& x);

  std::vector<JumpSide> sides_;
  std::vector<PatchFaces> faces_;  // one per patch
};

/// Diagonal and right-hand side of the 5-point p' equation at one fluid
/// cell — THE pressure operator: every multigrid level's smoother and
/// residual (mg.cpp) and the flat SOR oracle of tests/test_solver_mg.cpp
/// assemble it here, so they can never drift apart. `pf` is the patch's
/// side table and `b0` the source term (-imbalance for the fine equation,
/// the restricted residual for coarse levels). Each face, in the order E,
/// W, N, S, follows pressure_face(): the outlet face folds its coupling
/// into the diagonal with the ghost relation x_ghost = -x (p' = 0 at the
/// face), every other domain face carries zero correction flux, solid
/// faces carry none, jump-side cells couple through the matched stencil
/// buffers instead of the interpolated ghost ring, and interior and
/// same-level interface faces read the cell or exchanged ghost beyond (an
/// exact copy there). The Gauss-Seidel value is rhs / apc and the
/// residual is rhs - apc * x.
inline void assemble_pressure_cell(const mesh::PatchMesh& pm,
                                   const PatchFaces& pf,
                                   const field::Grid2Dd& DP,
                                   const field::Grid2Dd& X, double b0, int i,
                                   int j, double* apc, double* rhs) {
  const double dcell = DP(i, j);
  const double rx = dcell * pm.dy / pm.dx;
  const double ry = dcell * pm.dx / pm.dy;
  double sum = 0.0;
  double b = b0;
  // The face on side s, with cell (ni, nj) beyond it, plain coupling r and
  // the cell's tangential index t along the side.
  auto face = [&](mesh::Side s, bool edge, int ni, int nj, double r, int t) {
    switch (pressure_face(pf, s, edge, pm.solid(ni, nj) != 0)) {
      case PressureFace::kNone:
        return;
      case PressureFace::kNeighbour:
        sum += r;
        b += r * X(ni, nj);
        return;
      case PressureFace::kOutlet:
        sum += r;
        b += r * (-X(i, j));
        return;
      case PressureFace::kJump:
        sum += pf.jump[s]->a[t];
        b += pf.jump[s]->ax[t];
        return;
    }
  };
  face(mesh::kE, j == pm.nx, i, j + 1, rx, i);
  face(mesh::kW, j == 1, i, j - 1, rx, i);
  face(mesh::kN, i == pm.ny, i + 1, j, ry, j);
  face(mesh::kS, i == 1, i - 1, j, ry, j);
  *apc = sum;
  *rhs = b;
}

/// Largest absolute flux mismatch over all patch interfaces of the
/// stored face-velocity arrays: |a - b| on same-level faces, |coarse -
/// mean(covered fine)| across level jumps. Zero (to the bit, see the
/// corrector's face pass) after every reflux or matched face correction;
/// the debug build asserts it, tests/test_solver_mg.cpp measures it.
double interface_flux_mismatch(const mesh::CompositeMesh& mesh,
                               const mesh::CompositeScalar& face_u,
                               const mesh::CompositeScalar& face_v);

}  // namespace adarnet::solver
