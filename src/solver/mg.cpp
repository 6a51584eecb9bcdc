#include "solver/mg.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "solver/jump.hpp"
#include "util/metrics.hpp"
#include "util/reqctx.hpp"
#include "util/trace.hpp"

namespace adarnet::solver {

using field::Grid2Dd;
using field::Mask2D;
using mesh::CaseSpec;
using mesh::CompositeMesh;
using mesh::CompositeScalar;
using mesh::PatchMesh;
using mesh::RefinementMap;

namespace {

// Cycle shape: V(1,1), a 40-sweep coarsest solve, unlimited depth, and
// the p' exit: V-cycles until |r| <= 0.3 |b|, at most 2. SIMPLE only needs
// a modest p' reduction per step; deeper solves (V(2,2), more cycles)
// triple the pressure cost for no outer convergence gain.
constexpr int kPreSmooth = 1;
constexpr int kPostSmooth = 1;
constexpr int kCoarseSweeps = 40;
constexpr double kExitTol = 0.3;
constexpr int kMaxCycles = 2;

// Multigrid scopes (DESIGN.md §11), event-free: exchanges are ghosts time,
// the rest stays in the enclosing pressure phase and feeds an inclusive
// solver.mg.*.ns counter (smooth includes the exchanges it runs).
constexpr util::trace::Site kExchangeScope{
    "solver.mg.exchange", nullptr, util::reqctx::Phase::kGhosts, false};
util::trace::Site mg_scope(const char* name, const char* counter) {
  return {name, &util::metrics::counter(counter), util::trace::kInherit,
          false};
}

// Per-dimension prolongation weights of fine index fi (1-based; 0 and
// fn + 1 are the ghost cells): parent coarse cell c with weight 3/4 and
// the nearer side neighbour s with weight 1/4. When s falls outside the
// coarse interior, the behaviour depends on the side: at an interface
// (open side) s stays as the coarse GHOST index — the neighbouring
// patch's cell, exchanged before the transfer runs — keeping the
// interpolation second-order across patch boundaries; at a domain
// boundary (closed side) the fold mirrors the boundary physics: a
// zero-correction-flux (Neumann) side reflects the ghost onto the parent
// (wc = 3/4 + 1/4 = 1), an outlet (p' = 0 at the face, Dirichlet) side
// anti-reflects it (wc = 3/4 - 1/4 = 1/2) — the linear profile through a
// zero face value really is half the coarse centre value at the nearer
// fine centre. Getting this fold wrong is fatal on the semicoarsened
// deep rungs, where the smoother cannot damp along the weak direction
// and a 2x overshoot at the outlet column amplifies the near-null
// (almost-pure-Neumann) pressure mode every cycle. A dimension
// left uncoarsened (ratio 1, semicoarsened levels) maps by identity.
// Restriction applies exactly these weights in scatter (transpose) form,
// which is what makes R = P^T exact.
struct DimW {
  int c = 0;
  int s = 0;
  double wc = 0.0;
  double ws = 0.0;
};

inline DimW dim_weights(int fi, int cn, int ratio, bool open_lo,
                        bool open_hi, bool dirichlet_hi = false) {
  DimW d;
  if (ratio == 1) {
    d.c = fi;
    d.s = fi;
    d.wc = 1.0;
    return d;
  }
  d.c = (fi + 1) / 2;
  const int s = (fi & 1) ? d.c - 1 : d.c + 1;
  if ((s < 1 && !open_lo) || (s > cn && !open_hi)) {
    d.s = d.c;
    d.wc = (s > cn && dirichlet_hi) ? 0.5 : 1.0;
  } else {
    d.s = s;
    d.wc = 0.75;
    d.ws = 0.25;
  }
  return d;
}

// The per-cell 5-point assembly lives in solver/jump.hpp
// (assemble_pressure_cell): one kernel for every level operator,
// including the flux-matched couplings at level-jump interface cells.

// One cell update of a compiled rung (PressureMg::Level::ops), on the
// rung's dense cell copy: the cell and its four couplings in
// assemble_pressure_cell's order E, W, N, S, each classified once by
// pressure_face() when the rung is compiled. A solid cell has no face, so
// its zero diagonal pins it to 0. A kCross face reads the neighbouring
// patch's cell — the formula the exchange would have written into the
// ghost, inner + t_perp * (nb - inner), with the cell itself as inner and
// t_perp = 1: every patch of a compiled rung has one cell size, so the
// factor min(2h / (h + h), 1) is exactly 1 there, and the expression
// stays xo + (nb - xo), which rounds differently from nb alone. A
// ratio-1 jump face reads what JumpStencil::refresh would have stored for
// the cell: a * x_nb on the side's fine cell, 0.0 + a * x_nb (one subface
// summed from zero) on its coarse cell. The face couplings and their sum
// (the diagonal) depend only on the coefficients, so
// PressureMg::set_coefficients evaluates them once per outer iteration,
// with that kernel's expressions in its order.
struct CellOp {
  enum Face : std::uint8_t {
    kNone, kLocal, kCross, kOutlet, kJumpFine, kJumpCoarse
  };
  int c = 0;  // the cell's dense index
  Face face[4] = {kNone, kNone, kNone, kNone};
  int nb[4] = {0, 0, 0, 0};                    // the neighbour's dense index
  double coupling[4] = {0.0, 0.0, 0.0, 0.0};  // rx, rx, ry, ry or a[t]
  double diag = 0.0;                           // their sum (apc)
};

// A run of one colour's interior cells along one patch row: dense indices
// c0, c0 + 2, ..., every one a fluid cell with four fluid neighbours at
// +-1 (E, W) and +-nx (N, S), so the row kernel's branches all fall the
// same way. Its coefficients are coef[q], coef[q + 1], ...
struct CellRun {
  int c0 = 0;
  int n = 0;
  int q = 0;
};
struct RunCoef {
  double rx = 0.0;
  double ry = 0.0;
  double diag = 0.0;
};

// The patch side of CellOp face f (E, W, N, S).
constexpr mesh::Side kCellEdge[4] = {mesh::kE, mesh::kW, mesh::kN, mesh::kS};

void zero_scalar(CompositeScalar& s, const CompositeMesh& m) {
  mesh::for_patches(m, [&](int k) { s[k].fill(0.0); });
}

}  // namespace

void mg_restrict_patch(const Grid2Dd& fine_r, int fny, int fnx,
                       Grid2Dd& coarse_b, int cny, int cnx,
                       const OpenSides& open, bool dirichlet_e,
                       const Mask2D& coarse_solid) {
  const int ry = fny / cny;
  const int rx = fnx / cnx;
  assert(fny == ry * cny && fnx == rx * cnx);
  assert((ry == 1 || ry == 2) && (rx == 1 || rx == 2));
  if (ry == 1 && rx == 1) {  // ratio-1 patch: identity (equal cells)
    for (int i = 1; i <= cny; ++i) {
      for (int j = 1; j <= cnx; ++j) coarse_b(i, j) = fine_r(i, j);
    }
    return;
  }
  for (int I = 1; I <= cny; ++I) {
    for (int J = 1; J <= cnx; ++J) coarse_b(I, J) = 0.0;
  }
  // Scatter (transpose) form: every fine cell — ghost rows/columns
  // included at open sides, where they hold the neighbour patch's
  // exchanged residual — adds its prolongation weights to the coarse
  // cells they address. Scatters whose target falls outside the coarse
  // interior belong to the neighbouring patch's own restriction and are
  // simply skipped here.
  const int fi_lo = (ry == 2 && open[mesh::kS]) ? 0 : 1;
  const int fi_hi = (ry == 2 && open[mesh::kN]) ? fny + 1 : fny;
  const int fj_lo = (rx == 2 && open[mesh::kW]) ? 0 : 1;
  const int fj_hi = (rx == 2 && open[mesh::kE]) ? fnx + 1 : fnx;
  for (int fi = fi_lo; fi <= fi_hi; ++fi) {
    const DimW wy =
        dim_weights(fi, cny, ry, open[mesh::kS], open[mesh::kN]);
    for (int fj = fj_lo; fj <= fj_hi; ++fj) {
      const DimW wx = dim_weights(fj, cnx, rx, open[mesh::kW],
                                  open[mesh::kE], dirichlet_e);
      const double v = fine_r(fi, fj);
      const int ci[2] = {wy.c, wy.s};
      const double wi[2] = {wy.wc, wy.ws};
      const int cj[2] = {wx.c, wx.s};
      const double wj[2] = {wx.wc, wx.ws};
      for (int a = 0; a < 2; ++a) {
        if (wi[a] == 0.0) continue;
        if (a == 1 && ci[1] == ci[0]) break;
        for (int b = 0; b < 2; ++b) {
          if (wj[b] == 0.0) continue;
          if (b == 1 && cj[1] == cj[0]) break;
          int I = ci[a], J = cj[b];
          // Reflective fold at immersed solids: a side/diagonal target
          // that the mask pins to zero hands its share to the parent
          // (exactly like a closed zero-flux side). Scatter indices stay
          // within the mask's ghost ring (0..cn+1) by construction.
          if ((a != 0 || b != 0) && coarse_solid(I, J)) {
            I = ci[0];
            J = cj[0];
          }
          if (I < 1 || I > cny || J < 1 || J > cnx) continue;
          if (coarse_solid(I, J)) continue;
          coarse_b(I, J) += wi[a] * wj[b] * v;
        }
      }
    }
  }
}

void mg_prolong_add_patch(const Grid2Dd& coarse_x, int cny, int cnx,
                          Grid2Dd& fine_x, int fny, int fnx,
                          const Mask2D* fine_solid, const OpenSides& open,
                          bool dirichlet_e, const Mask2D* coarse_solid) {
  const int ry = fny / cny;
  const int rx = fnx / cnx;
  assert(fny == ry * cny && fnx == rx * cnx);
  assert((ry == 1 || ry == 2) && (rx == 1 || rx == 2));
  if (ry == 1 && rx == 1) {
    for (int i = 1; i <= fny; ++i) {
      for (int j = 1; j <= fnx; ++j) {
        if (fine_solid && (*fine_solid)(i, j)) continue;
        fine_x(i, j) += coarse_x(i, j);
      }
    }
    return;
  }
  for (int fi = 1; fi <= fny; ++fi) {
    const DimW wy =
        dim_weights(fi, cny, ry, open[mesh::kS], open[mesh::kN]);
    for (int fj = 1; fj <= fnx; ++fj) {
      if (fine_solid && (*fine_solid)(fi, fj)) continue;
      const DimW wx = dim_weights(fj, cnx, rx, open[mesh::kW],
                                  open[mesh::kE], dirichlet_e);
      if (!coarse_solid) {
        fine_x(fi, fj) += wy.wc * (wx.wc * coarse_x(wy.c, wx.c) +
                                   wx.ws * coarse_x(wy.c, wx.s)) +
                          wy.ws * (wx.wc * coarse_x(wy.s, wx.c) +
                                   wx.ws * coarse_x(wy.s, wx.s));
        continue;
      }
      // Solid fold — the exact transpose of mg_restrict_patch's: a solid
      // coarse neighbour's share reads the parent instead of the pinned
      // zero (reflective, matching the operator's zero-flux solid
      // faces). A fluid fine cell under a solid parent gets no
      // correction; the smoother owns it.
      if ((*coarse_solid)(wy.c, wx.c)) continue;
      const int ci[2] = {wy.c, wy.s};
      const double wi[2] = {wy.wc, wy.ws};
      const int cj[2] = {wx.c, wx.s};
      const double wj[2] = {wx.wc, wx.ws};
      double add = 0.0;
      double w_parent = 0.0;
      for (int a = 0; a < 2; ++a) {
        if (wi[a] == 0.0) continue;
        if (a == 1 && ci[1] == ci[0]) break;
        for (int b = 0; b < 2; ++b) {
          if (wj[b] == 0.0) continue;
          if (b == 1 && cj[1] == cj[0]) break;
          const double w = wi[a] * wj[b];
          if ((a != 0 || b != 0) && (*coarse_solid)(ci[a], cj[b])) {
            w_parent += w;
          } else {
            add += w * coarse_x(ci[a], cj[b]);
          }
        }
      }
      fine_x(fi, fj) += add + w_parent * coarse_x(wy.c, wx.c);
    }
  }
}

// One rung of the coarsening ladder: the mesh (level 0 borrows the
// solver's fine mesh, deeper rungs own theirs), the per-level iterate /
// RHS / residual / coefficient arrays, the flattened (patch, row) work
// items, and per-row reduction partials for fixed-order norms.
struct PressureMg::Level {
  const CompositeMesh* mesh = nullptr;
  std::unique_ptr<CompositeMesh> owned;
  CompositeScalar x;   // iterate (unused at level 0: the caller's array)
  CompositeScalar b;   // right-hand side
  CompositeScalar r;   // residual (feeds restriction and norms)
  CompositeScalar dp;  // vol / aP coefficient, 0 in solid cells
  std::vector<sweep::RowRef> rows;
  std::vector<double> acc;
  util::metrics::TimeSeries* series = nullptr;  // solver.mg.residual.l<d>
  // True when interface ghosts must stay fresh for the smoother to
  // contract: either some patch is a single cell wide in a direction
  // that has interface neighbours (all couplings in that direction then
  // go through ghosts and leg-frozen ghosts degrade the sweep to Jacobi
  // — divergent under over-relaxation), or the cells are strongly
  // anisotropic (aspect outside [1/2, 2]): the strong coupling then
  // pins interface rows to their ghost value, and with leg-frozen
  // ghosts the interface row pair swap-oscillates as an undamped
  // checkerboard that no coarse grid can represent. Such levels see
  // every interface ghost fresh at each red-black half-sweep, which —
  // with the globally consistent checkerboard parity — restores true
  // Gauss-Seidel coupling across interfaces: compiled rungs read the
  // neighbouring patch directly (below), the others exchange between the
  // half-sweeps and after each sweep. Mesh-derived only, so bitwise
  // thread invariance is unaffected.
  bool half_exchange = false;
  // Compiled red-black schedule of a half_exchange rung whose patches all
  // have one size, smoothed by the point kernel in red-black order.
  // Same-size neighbours sit on the opposite colour of the global
  // checkerboard, so every interface ghost a colour-c cell reads is a
  // function of that cell itself and of colour-(1 - c) cells, none of
  // which the half-sweep changes before the cell's own update. The rung's
  // cells are numbered once, densely: cell (i, j) of patch k is
  // (k * ny + i - 1) * nx + j - 1. smooth() gathers x and b into xd and
  // bd, runs every sweep there and scatters x back. Per colour, interior
  // cells with fluid surroundings run as CellRuns and every other cell is
  // a CellOp that reads its cross-patch neighbours directly — bitwise
  // what the exchanges between the half-sweeps would have written into
  // the ghosts. The rung then exchanges once per leg instead of twice per
  // sweep. Mesh-derived only.
  bool compiled = false;
  int ny = 0;  // the common patch shape
  int nx = 0;
  std::vector<double> xd;
  std::vector<double> bd;
  std::vector<CellOp> ops[2];
  std::vector<CellRun> runs[2];
  std::vector<RunCoef> coef[2];
  // Sweep multiplier for levels that are anisotropic AND cannot coarsen
  // their strong direction (the patch tiling pins it: ph or pw has
  // reached 1, or is odd). Point relaxation transports error along the
  // weak direction at a rate of only ~4 r_weak / r_strong = 4 / aspect^2
  // per sweep, so the single nominal pre/post sweep (kPreSmooth,
  // kPostSmooth) smooths essentially nothing there and the V-cycle stalls
  // on interpolation error it can never damp. Scaling the sweep count by
  // aspect^2 / 8 restores the smoothing power a strong-direction line
  // smoother would give — at trivial cost, because only the tiny deep
  // rungs of the ladder ever trigger it. Stays 1 on line-smoothed levels
  // (the line solve IS the strong-direction smoother). Mesh-derived only
  // (thread invariance).
  int smooth_mult = 1;
  // Flux-matched level-jump couplings of this level's mesh (empty on
  // jump-free levels). Subface coefficients re-derive per outer iteration
  // from the coarsened d field (set_coefficients); the frozen value
  // buffers follow the iterate's ghost exchanges (exchange_iterate).
  JumpStencil stencil;
  // Strong-direction zebra line smoothing replaces point relaxation when
  // the level's refinement jumps cross strongly anisotropic cells. There
  // the modes point relaxation cannot damp — oscillatory along the
  // interface, constant across it, gain 1 - O(1/aspect^2) per sweep —
  // are exactly the ones the jump stencil's coarse side samples at half
  // the rate, so every coarse-grid correction is wrong for them and the
  // V-cycle diverges (this used to be a constructor refusal). A
  // tridiagonal solve along the strong direction is exact on those
  // modes: for an along-line-constant error the zebra line solve reduces
  // to 1D zebra Gauss-Seidel across the lines, which damps the
  // oscillation the jump aliases. Mesh-derived only.
  bool line_y = false;  // y-jumps, strong coupling y: column solves
  bool line_x = false;  // x-jumps, strong coupling x: row solves
  std::vector<sweep::RowRef> cols;  // (k, j) line items when line_y
};

void PressureMg::compile_rung(Level& lv) {
  const CompositeMesh& m = *lv.mesh;
  const int ny = m.patch_flat(0).ny;
  const int nx = m.patch_flat(0).nx;
  const int w = nx + 2;
  auto dense = [&](int k, int i, int j) {
    return (k * ny + i - 1) * nx + j - 1;
  };
  lv.ny = ny;
  lv.nx = nx;
  lv.xd.assign(static_cast<std::size_t>(m.active_cells()), 0.0);
  lv.bd.assign(lv.xd.size(), 0.0);
  for (int k = 0; k < m.patch_count(); ++k) {
    const PatchMesh& pm = m.patch_flat(k);
    const PatchFaces& pf = lv.stencil.faces(k);
    const int par = ((pm.pi * ny) + (pm.pj * nx)) & 1;
    for (int i = 1; i <= ny; ++i) {
      for (int j = 1; j <= nx; ++j) {
        const int color = (i + j + par) & 1;
        if (i > 1 && i < ny && j > 1 && j < nx && !pm.solid(i, j) &&
            !pm.solid(i, j + 1) && !pm.solid(i, j - 1) &&
            !pm.solid(i + 1, j) && !pm.solid(i - 1, j)) {
          // Interior: the run goes on while its cells stay 2 apart (the
          // perimeter columns end it at the row's end).
          std::vector<CellRun>& runs = lv.runs[color];
          const int c = dense(k, i, j);
          if (!runs.empty() && runs.back().c0 + 2 * runs.back().n == c) {
            ++runs.back().n;
          } else {
            runs.push_back(
                {c, 1, static_cast<int>(lv.coef[color].size())});
          }
          lv.coef[color].emplace_back();
          continue;
        }
        CellOp c;
        c.c = dense(k, i, j);
        // Face f, with cell (ni, nj) beyond it and the cell's tangential
        // index t along the side.
        auto face = [&](int f, bool edge, int ni, int nj, int t) {
          const mesh::Side s = kCellEdge[f];
          switch (pressure_face(pf, s, edge, pm.solid(ni, nj) != 0)) {
            case PressureFace::kNone:
              return;
            case PressureFace::kOutlet:
              c.face[f] = CellOp::kOutlet;
              return;
            case PressureFace::kNeighbour:
              if (!edge) {
                c.face[f] = CellOp::kLocal;
                c.nb[f] = dense(k, ni, nj);
                return;
              }
              c.face[f] = CellOp::kCross;
              break;
            case PressureFace::kJump:
              // A same-size rung's jump sides are flattened, ratio 1.
              assert(pf.jump[s]->ratio == 1);
              c.face[f] = pf.jump[s]->fine ? CellOp::kJumpFine
                                           : CellOp::kJumpCoarse;
              break;
          }
          // Across the side: the neighbouring patch's cell facing this
          // one, which a same-size ghost copies.
          const mesh::PatchSide across =
              m.side(m.neighbour(k, s), mesh::opposite(s));
          const int off = across.cell(t);
          c.nb[f] = dense(across.k, off / w, off % w);
        };
        if (!pm.solid(i, j)) {
          face(0, j == nx, i, j + 1, i);
          face(1, j == 1, i, j - 1, i);
          face(2, i == ny, i + 1, j, j);
          face(3, i == 1, i - 1, j, j);
        }
        lv.ops[color].push_back(c);
      }
    }
  }
  for (int color = 0; color < 2; ++color) {
    lv.ops[color].shrink_to_fit();
    lv.runs[color].shrink_to_fit();
    lv.coef[color].shrink_to_fit();
  }
  lv.compiled = true;
}

PressureMg::PressureMg(const CompositeMesh& fine,
                       const util::CancelToken* cancel)
    : cancel_(cancel), exit_tol_(kExitTol), max_cycles_(kMaxCycles) {
  auto init_level = [this](Level& lv, const CompositeMesh* m, int d) {
    lv.mesh = m;
    if (d > 0) lv.x = mesh::make_scalar(*m);
    lv.b = mesh::make_scalar(*m);
    lv.r = mesh::make_scalar(*m);
    lv.dp = mesh::make_scalar(*m);
    // Ladder levels anchor their jump-stencil resistances to the FINE
    // mesh's cell sizes and keep sides at flattened historical interfaces
    // (jump.hpp): the coarse d is a child average on the fine vol/aP
    // scale, and the own-h form would halve the interface transmissibility
    // per rung — enough to diverge the V-cycle across ratio-4+ jumps. At
    // d == 0 the anchor is the mesh itself: the fine operator's stencil.
    lv.stencil = d == 0 ? JumpStencil(*m) : JumpStencil(*m, *levels_[0].mesh);
    const double aspect = (m->spec().lx / m->spec().base_nx) /
                          (m->spec().ly / m->spec().base_ny);
    if (aspect >= 2.0 || aspect <= 0.5) lv.half_exchange = true;
    lv.line_y = m->map().has_jump_in_y() && aspect >= 2.0;
    lv.line_x = m->map().has_jump_in_x() && aspect <= 0.5;
    if (!lv.line_y && !lv.line_x &&
        ((aspect >= 2.0 && m->spec().ph % 2 != 0) ||
         (aspect <= 0.5 && m->spec().pw % 2 != 0))) {
      const double a = aspect >= 1.0 ? aspect : 1.0 / aspect;
      lv.smooth_mult = static_cast<int>(
          std::min(128.0, std::max(1.0, std::ceil(a * a / 8.0))));
    }
    lv.rows = sweep::interior_rows(*m);
    bool same_size = true;
    for (int k = 0; k < m->patch_count(); ++k) {
      const PatchMesh& pm = m->patch_flat(k);
      same_size = same_size && pm.ny == m->patch_flat(0).ny &&
                  pm.nx == m->patch_flat(0).nx;
      if (lv.line_y) {
        for (int j = 1; j <= pm.nx; ++j) lv.cols.push_back({k, j});
      }
      if ((pm.ny == 1 && m->npy() > 1) || (pm.nx == 1 && m->npx() > 1)) {
        lv.half_exchange = true;
      }
    }
    lv.acc.assign(lv.rows.size(), 0.0);
    lv.series =
        &util::metrics::series("solver.mg.residual.l" + std::to_string(d));
    if (same_size && lv.half_exchange && !lv.line_y && !lv.line_x) {
      compile_rung(lv);
    }
  };

  levels_.emplace_back();
  init_level(levels_.back(), &fine, 0);

  while (true) {
    const CompositeMesh& cur = *levels_.back().mesh;
    const CaseSpec& spec = cur.spec();
    // Cell aspect ratio dx / dy. Refinement scales both dimensions
    // equally, so one number describes every patch of the level. On
    // strongly anisotropic meshes (the channel: lx/ly = 60, aspect up to
    // 30) point relaxation only smooths along the strong coupling (the
    // short cell side); isotropic coarsening then aliases the
    // unsmoothed direction and the cycle diverges. The classic cure
    // used here is semicoarsening: halve only the strong direction
    // until cells are near-isotropic, then coarsen both.
    const double aspect =
        (spec.lx / spec.base_nx) / (spec.ly / spec.base_ny);
    const bool can_y = spec.ph % 2 == 0;
    const bool can_x = spec.pw % 2 == 0;
    std::unique_ptr<CompositeMesh> next;
    const bool iso = aspect < 2.0 && aspect > 0.5;
    bool halve_y = can_y && (aspect >= 2.0 || (iso && can_x));
    bool halve_x = can_x && (aspect <= 0.5 || (iso && can_y));
    if (!halve_y && !halve_x && cur.map().max_level() == 0) {
      // The aspect-preferred direction is exhausted and there are no
      // refinement levels left to lower: keep shrinking the coarsest
      // problem with whatever dimension still halves. By this point the
      // halved extent is a handful of cells, so the re-growing aspect
      // ratio no longer hurts the smoother.
      halve_y = can_y;
      halve_x = can_x;
    }
    if (halve_y || halve_x) {
      // Halve the patch resolution in the chosen dimension(s); the
      // refinement map is untouched and every patch keeps its tile.
      CaseSpec cs = spec;
      if (halve_y) {
        cs.ph /= 2;
        cs.base_ny /= 2;
      }
      if (halve_x) {
        cs.pw /= 2;
        cs.base_nx /= 2;
      }
      next = std::make_unique<CompositeMesh>(cs, cur.map());
    } else if (cur.map().max_level() > 0) {
      // Lower every refinement level by one: refined patches coarsen by
      // 2, level-0 patches stay put (ratio-1 identity transfer). The
      // level operators couple through flux-matched jump stencils and the
      // aliasing-prone anisotropic-jump levels run the zebra line
      // smoother, so no ladder shape is refused here any more (the old
      // depth-1 bail-out and its per-level recheck are gone).
      RefinementMap m = cur.map();
      for (int pi = 0; pi < m.npy(); ++pi) {
        for (int pj = 0; pj < m.npx(); ++pj) {
          m.set_level(pi, pj, std::max(cur.map().level(pi, pj) - 1, 0));
        }
      }
      next = std::make_unique<CompositeMesh>(spec, m);
    } else {
      break;
    }
    levels_.emplace_back();
    Level& lv = levels_.back();
    lv.owned = std::move(next);
    init_level(lv, lv.owned.get(), static_cast<int>(levels_.size()) - 1);
  }

  util::metrics::gauge("solver.mg.levels").set(static_cast<double>(depth()));
}

PressureMg::~PressureMg() = default;

int PressureMg::depth() const { return static_cast<int>(levels_.size()); }

void PressureMg::set_exit(double tol, int max_cycles) {
  exit_tol_ = tol;
  max_cycles_ = max_cycles;
}

const CompositeScalar& PressureMg::fine_dp() const { return levels_[0].dp; }

const JumpStencil& PressureMg::fine_stencil() const {
  return levels_[0].stencil;
}

void PressureMg::set_coefficients(const CompositeScalar& ap_fine) {
  // Level 0: d = vol / aP at fluid cells, 0 at solids.
  Level& l0 = levels_[0];
  sweep::run_scan(
      l0.rows, l0.mesh->parallel(),
      [&](int /*r*/, int k, int i) {
        const PatchMesh& pm = l0.mesh->patch_flat(k);
        const Grid2Dd& AP = ap_fine[k];
        Grid2Dd& DP = l0.dp[k];
        const double vol = pm.dx * pm.dy;
        for (int j = 1; j <= pm.nx; ++j) {
          DP(i, j) = pm.solid(i, j) ? 0.0 : vol / AP(i, j);
        }
      });

  // Coarser levels: the plain average of the fluid children. A coarse
  // cell whose children are all solid (or that the coarse mask itself
  // flags solid) gets d = 0, which the smoother treats like a solid —
  // its diagonal vanishes and the iterate pins to zero.
  for (std::size_t d = 1; d < levels_.size(); ++d) {
    Level& lf = levels_[d - 1];
    Level& lc = levels_[d];
    auto coarsen_patch = [&](int k) {
      const PatchMesh& fp = lf.mesh->patch_flat(k);
      const PatchMesh& cp = lc.mesh->patch_flat(k);
      const Grid2Dd& DF = lf.dp[k];
      Grid2Dd& DC = lc.dp[k];
      const int ry = fp.ny / cp.ny;  // per-dimension child count (1 or 2:
      const int rx = fp.nx / cp.nx;  // semicoarsened rungs halve one dim)
      for (int I = 1; I <= cp.ny; ++I) {
        for (int J = 1; J <= cp.nx; ++J) {
          if (cp.solid(I, J)) {
            DC(I, J) = 0.0;
            continue;
          }
          double sum = 0.0;
          int cnt = 0;
          for (int fi = ry * (I - 1) + 1; fi <= ry * I; ++fi) {
            for (int fj = rx * (J - 1) + 1; fj <= rx * J; ++fj) {
              const double v = DF(fi, fj);
              if (v > 0.0) {
                sum += v;
                ++cnt;
              }
            }
          }
          DC(I, J) = cnt > 0 ? sum / cnt : 0.0;
        }
      }
    };
    mesh::for_patches(*lf.mesh, coarsen_patch);
  }

  // Every level's jump stencil re-derives its subface couplings from the
  // freshly coarsened d field (a_s = 0 wherever a cell went solid).
  for (Level& lv : levels_) {
    if (!lv.stencil.empty()) lv.stencil.set_coefficients(lv.dp);
  }

  // Compiled rungs' face couplings and diagonals, exactly as
  // assemble_pressure_cell builds them.
  for (Level& lv : levels_) {
    if (!lv.compiled) continue;
    const double dx = lv.mesh->patch_flat(0).dx;
    const double dy = lv.mesh->patch_flat(0).dy;
    const int per_patch = lv.ny * lv.nx;
    // Patch, row and column of dense cell c.
    auto cell = [&](int c) {
      return std::array<int, 3>{c / per_patch, c % per_patch / lv.nx + 1,
                                c % lv.nx + 1};
    };
    for (int color = 0; color < 2; ++color) {
      for (CellOp& c : lv.ops[color]) {
        const auto [k, i, j] = cell(c.c);
        const double dcell = lv.dp[k](i, j);
        const double rx = dcell * dy / dx;
        const double ry = dcell * dx / dy;
        double sum = 0.0;
        for (int f = 0; f < 4; ++f) {
          if (c.face[f] == CellOp::kNone) continue;
          const bool jump = c.face[f] == CellOp::kJumpFine ||
                            c.face[f] == CellOp::kJumpCoarse;
          c.coupling[f] =
              jump ? lv.stencil.faces(k).jump[kCellEdge[f]]->a[f < 2 ? i : j]
                   : (f < 2 ? rx : ry);
          sum += c.coupling[f];
        }
        c.diag = sum;
      }
      for (const CellRun& run : lv.runs[color]) {
        for (int n = 0; n < run.n; ++n) {
          const auto [k, i, j] = cell(run.c0 + 2 * n);
          const double dcell = lv.dp[k](i, j);
          RunCoef& rc = lv.coef[color][static_cast<std::size_t>(run.q + n)];
          rc.rx = dcell * dy / dx;
          rc.ry = dcell * dx / dy;
          rc.diag = 0.0 + rc.rx + rc.rx + rc.ry + rc.ry;
        }
      }
    }
  }
}

void PressureMg::exchange(const Level& lv, CompositeScalar& x) const {
  const util::trace::Span t(kExchangeScope);
  exchange_ghosts(x, *lv.mesh);
}

void PressureMg::exchange_iterate(Level& lv, CompositeScalar& x) const {
  exchange(lv, x);
  if (!lv.stencil.empty()) {
    const util::trace::Span t(kExchangeScope);
    lv.stencil.refresh(x);
  }
}

void PressureMg::smooth(Level& lv, CompositeScalar& x, int sweeps,
                        double omega, bool exchange_each_sweep) const {
  static const util::trace::Site kSite =
      mg_scope("solver.mg.smooth", "solver.mg.smooth.ns");
  static util::metrics::Counter& smooth_cells =
      util::metrics::counter("solver.mg.smooth.cells");
  const util::trace::Span t(kSite);
  smooth_cells.add(static_cast<long long>(sweeps) * lv.mesh->active_cells());
  if (lv.line_y || lv.line_x) {
    smooth_lines(lv, x, sweeps);
    return;
  }
  if (lv.compiled) {
    smooth_compiled(lv, x, sweeps, omega);
    // The coarsest solve ends with the one exchange its caller's
    // prolongation reads; pre/post-smoothing legs leave it to v_cycle's
    // own exchange.
    if (exchange_each_sweep) exchange_iterate(lv, x);
    return;
  }
  // Updates the cells of `color` in row i of patch k.
  auto update_row = [&](int k, int i, int color) {
    const PatchMesh& pm = lv.mesh->patch_flat(k);
    const PatchFaces& pf = lv.stencil.faces(k);
    Grid2Dd& X = x[k];
    const Grid2Dd& DP = lv.dp[k];
    const Grid2Dd& B = lv.b[k];
    // Globally consistent checkerboard: the parity base shifts the
    // (i + j) coloring by the patch's global cell offset. It is 0
    // whenever both patch dimensions are even (every fine level), and on
    // odd-dimension coarse rungs it keeps the two colors a true
    // checkerboard across interfaces of same-size patches.
    const int par = ((pm.pi * pm.ny) + (pm.pj * pm.nx)) & 1;
    for (int j = sweep::color_j0(i + par, color); j <= pm.nx; j += 2) {
      if (pm.solid(i, j)) {
        X(i, j) = 0.0;
        continue;
      }
      double apc = 0.0;
      double rhs = 0.0;
      assemble_pressure_cell(pm, pf, DP, X, B(i, j), i, j, &apc, &rhs);
      if (apc <= 0.0) {
        X(i, j) = 0.0;
        continue;
      }
      X(i, j) += omega * (rhs / apc - X(i, j));
    }
  };
  auto half = [&](int color) {
    sweep::run_half_sweep(
        lv.rows, color, lv.mesh->parallel(),
        [&](int /*r*/, int k, int i, int color_) { update_row(k, i, color_); });
  };
  for (int s = 0; s < sweeps; ++s) {
    half(0);
    if (lv.half_exchange) exchange_iterate(lv, x);
    half(1);
    if (exchange_each_sweep || lv.half_exchange) {
      exchange_iterate(lv, x);
    }
  }
}

// Sweeps a compiled rung on its dense copy (Level::compiled). There is no
// exchange between or after the sweeps: cross-patch faces read the
// neighbouring patch's cell directly. Entered with fresh or zeroed ghosts,
// every value read is bitwise the exchanged one.
void PressureMg::smooth_compiled(Level& lv, CompositeScalar& x, int sweeps,
                                 double omega) const {
  const int np = lv.mesh->patch_count();
  const int ny = lv.ny;
  const int nx = lv.nx;
  double* xd = lv.xd.data();
  double* bd = lv.bd.data();
  // Patch k's rows <-> its block of the copy; patches touch disjoint cells.
  auto gather = [&](int k) {
    for (int i = 1; i <= ny; ++i) {
      const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(k * ny + i - 1) * nx;
      std::copy_n(&x[k](i, 1), nx, xd + d);
      std::copy_n(&lv.b[k](i, 1), nx, bd + d);
    }
  };
  auto scatter = [&](int k) {
    for (int i = 1; i <= ny; ++i) {
      const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(k * ny + i - 1) * nx;
      std::copy_n(xd + d, nx, &x[k](i, 1));
    }
  };
  auto update_op = [&](const CellOp& o) {
    const double xo = xd[o.c];
    double b = bd[o.c];
    for (int f = 0; f < 4; ++f) {
      const double r = o.coupling[f];
      switch (o.face[f]) {
        case CellOp::kNone:
          break;
        case CellOp::kLocal:
        case CellOp::kJumpFine:
          b += r * xd[o.nb[f]];
          break;
        case CellOp::kCross:
          b += r * (xo + (xd[o.nb[f]] - xo));
          break;
        case CellOp::kOutlet:
          b += r * (-xo);
          break;
        case CellOp::kJumpCoarse:
          b += 0.0 + r * xd[o.nb[f]];
          break;
      }
    }
    xd[o.c] = o.diag <= 0.0 ? 0.0 : xo + omega * (b / o.diag - xo);
  };
  // Row kernel order E, W, N, S; every face present.
  auto update_run = [&](const CellRun& run, const RunCoef* coef) {
    for (int n = 0; n < run.n; ++n) {
      const int c = run.c0 + 2 * n;
      const RunCoef& rc = coef[run.q + n];
      const double xo = xd[c];
      double b = bd[c];
      b += rc.rx * xd[c + 1];
      b += rc.rx * xd[c - 1];
      b += rc.ry * xd[c + nx];
      b += rc.ry * xd[c - nx];
      xd[c] = rc.diag <= 0.0 ? 0.0 : xo + omega * (b / rc.diag - xo);
    }
  };
  // The gather rides in the first half-sweep's region and the scatter in
  // the last one's, so a parallel rung forks once per half-sweep.
  for (int s = 0; s < sweeps; ++s) {
    for (int color = 0; color < 2; ++color) {
      const bool first = s == 0 && color == 0;
      const bool last = s + 1 == sweeps && color == 1;
      const std::vector<CellOp>& ops = lv.ops[color];
      const std::vector<CellRun>& runs = lv.runs[color];
      const RunCoef* coef = lv.coef[color].data();
      const int no = static_cast<int>(ops.size());
      const int nr = static_cast<int>(runs.size());
      mesh::parallel_region(lv.mesh->parallel(), [&] {
        if (first) {
#pragma omp for schedule(static)
          for (int k = 0; k < np; ++k) gather(k);
        }
#pragma omp for schedule(static) nowait
        for (int q = 0; q < no; ++q) update_op(ops[q]);
#pragma omp for schedule(static)
        for (int r = 0; r < nr; ++r) update_run(runs[r], coef);
        if (last) {
#pragma omp for schedule(static)
          for (int k = 0; k < np; ++k) scatter(k);
        }
      });
    }
  }
}

// Zebra line smoothing: exact tridiagonal (Thomas) solves along the
// strong direction, odd lines then even lines. In-line couplings are
// implicit; cross-line couplings, interface ghosts, jump-stencil terms
// and the outlet fold stay explicit at their frozen values, so lines of
// one color only read the other color (plus frozen buffers) — race-free
// and thread-count invariant like the point kernel. For an error mode
// constant along the line — exactly the kind the jump aliasing feeds —
// the solve reduces to 1D zebra Gauss-Seidel across the lines, which
// point relaxation approaches only at O(aspect^2) sweep counts. The
// implied linear operator is identical to assemble_pressure_cell's: the
// outlet's rhs term -a_e * x moves to the diagonal (ext += 2 a_e), and
// every other face keeps its coupling and rhs contribution verbatim.
// Lines segment at solid / zero-diagonal cells (which pin to 0, as in
// the point kernel); a segment with no explicit coupling anywhere is an
// unanchored pure-Neumann tridiagonal — singular — and is skipped: the
// coarse grid owns its constant mode.
void PressureMg::smooth_lines(Level& lv, CompositeScalar& x,
                              int sweeps) const {
  const bool by_cols = lv.line_y;  // column solves; else row solves
  const std::vector<sweep::RowRef>& items = by_cols ? lv.cols : lv.rows;
  // Faces seen from the line: "along" = in-line (tridiagonal), "perp" =
  // cross-line (explicit).
  const mesh::Side alo = by_cols ? mesh::kS : mesh::kW;
  const mesh::Side ahi = by_cols ? mesh::kN : mesh::kE;
  const mesh::Side plo = by_cols ? mesh::kW : mesh::kS;
  const mesh::Side phi = by_cols ? mesh::kE : mesh::kN;

  auto pass = [&](int color) {
    sweep::run_scan(
        items, lv.mesh->parallel(),
        [&](int /*r*/, int k, int t) {
          const PatchMesh& pm = lv.mesh->patch_flat(k);
          // Global zebra parity, consistent across same-size neighbours
          // exactly like the point kernel's checkerboard base.
          const int gline = by_cols ? pm.pj * pm.nx + t : pm.pi * pm.ny + t;
          if ((gline & 1) != color) return;
          const PatchFaces& pf = lv.stencil.faces(k);
          Grid2Dd& X = x[k];
          const Grid2Dd& DP = lv.dp[k];
          const Grid2Dd& B = lv.b[k];
          const int n = by_cols ? pm.ny : pm.nx;
          const bool plo_edge = t == 1;
          const bool phi_edge = t == (by_cols ? pm.nx : pm.ny);
          const double h_al = by_cols ? pm.dy : pm.dx;
          const double h_pe = by_cols ? pm.dx : pm.dy;
          auto ci = [&](int p) { return by_cols ? p : t; };
          auto cj = [&](int p) { return by_cols ? t : p; };
          thread_local std::vector<double> lo, up, ex, dg, rh, cp, dv;
          if (static_cast<int>(lo.size()) < n + 1) {
            lo.resize(n + 1);
            up.resize(n + 1);
            ex.resize(n + 1);
            dg.resize(n + 1);
            rh.resize(n + 1);
            cp.resize(n + 1);
            dv.resize(n + 1);
          }
          for (int p = 1; p <= n; ++p) {
            const int i = ci(p), j = cj(p);
            if (pm.solid(i, j)) {
              X(i, j) = 0.0;
              dg[p] = 0.0;
              continue;
            }
            const double dcell = DP(i, j);
            const double ral = dcell * h_pe / h_al;  // in-line coupling
            const double rpe = dcell * h_al / h_pe;  // cross-line coupling
            double l = 0.0, u = 0.0, e = 0.0, b = B(i, j);
            // Face s of the cell, with cell (qi, qj) beyond it and the
            // cell's index tt along the side: adds a jump side's or the
            // outlet fold's explicit terms, and returns true where the
            // face couples to the cell beyond (kNeighbour).
            auto face = [&](mesh::Side s, bool edge, int qi, int qj, double r,
                            int tt) {
              switch (pressure_face(pf, s, edge, pm.solid(qi, qj) != 0)) {
                case PressureFace::kJump:
                  e += pf.jump[s]->a[tt];
                  b += pf.jump[s]->ax[tt];
                  return false;
                case PressureFace::kOutlet:
                  e += 2.0 * r;
                  return false;
                case PressureFace::kNone:
                  return false;
                case PressureFace::kNeighbour:
                  break;
              }
              return true;
            };
            // Along-lo face (south for columns, west for rows): in-line,
            // or an explicit interface ghost at the line's end.
            if (face(alo, p == 1, ci(p - 1), cj(p - 1), ral, t)) {
              if (p == 1) {
                e += ral;
                b += ral * X(ci(0), cj(0));
              } else {
                l = ral;
              }
            }
            // Along-hi face (north for columns, east for rows).
            if (face(ahi, p == n, ci(p + 1), cj(p + 1), ral, t)) {
              if (p == n) {
                e += ral;
                b += ral * X(ci(n + 1), cj(n + 1));
              } else {
                u = ral;
              }
            }
            // Perp-lo face (west for columns, south for rows).
            {
              const int qi = by_cols ? i : i - 1;
              const int qj = by_cols ? j - 1 : j;
              if (face(plo, plo_edge, qi, qj, rpe, p)) {
                e += rpe;
                b += rpe * X(qi, qj);
              }
            }
            // Perp-hi face (east for columns, north for rows).
            {
              const int qi = by_cols ? i : i + 1;
              const int qj = by_cols ? j + 1 : j;
              if (face(phi, phi_edge, qi, qj, rpe, p)) {
                e += rpe;
                b += rpe * X(qi, qj);
              }
            }
            const double d = e + l + u;
            if (d <= 0.0) {
              X(i, j) = 0.0;
              dg[p] = 0.0;
              continue;
            }
            lo[p] = l;
            up[p] = u;
            ex[p] = e;
            dg[p] = d;
            rh[p] = b;
          }
          // Solve each alive segment: diag x_p - lo x_{p-1} - up x_{p+1}
          // = rhs. With any ex > 0 the segment is irreducibly diagonally
          // dominant, so the Thomas denominators stay positive.
          int p0 = 1;
          while (p0 <= n) {
            if (dg[p0] == 0.0) {
              ++p0;
              continue;
            }
            int p1 = p0;
            while (p1 + 1 <= n && dg[p1 + 1] != 0.0) ++p1;
            bool anchored = false;
            for (int p = p0; p <= p1; ++p) {
              if (ex[p] > 0.0) {
                anchored = true;
                break;
              }
            }
            if (anchored) {
              double den = dg[p0];
              cp[p0] = -up[p0] / den;
              dv[p0] = rh[p0] / den;
              for (int p = p0 + 1; p <= p1; ++p) {
                den = dg[p] + lo[p] * cp[p - 1];
                cp[p] = -up[p] / den;
                dv[p] = (rh[p] + lo[p] * dv[p - 1]) / den;
              }
              double xp = dv[p1];
              X(ci(p1), cj(p1)) = xp;
              for (int p = p1 - 1; p >= p0; --p) {
                xp = dv[p] - cp[p] * xp;
                X(ci(p), cj(p)) = xp;
              }
            }
            p0 = p1 + 1;
          }
        });
  };

  for (int s = 0; s < sweeps; ++s) {
    // Exchange + stencil refresh between the colors and after each sweep:
    // line-smoothed levels are by construction strongly anisotropic, the
    // same regime that makes leg-frozen ghosts oscillate under the point
    // kernel (see Level::half_exchange).
    pass(0);
    exchange_iterate(lv, x);
    pass(1);
    exchange_iterate(lv, x);
  }
}

double PressureMg::compute_residual(Level& lv, CompositeScalar& x) const {
  static const util::trace::Site kSite =
      mg_scope("solver.mg.residual", "solver.mg.residual.ns");
  const util::trace::Span t(kSite);
  sweep::zero_rows(lv.acc);
  sweep::run_scan(
      lv.rows, lv.mesh->parallel(),
      [&](int r, int k, int i) {
        const PatchMesh& pm = lv.mesh->patch_flat(k);
        const PatchFaces& pf = lv.stencil.faces(k);
        const Grid2Dd& X = x[k];
        const Grid2Dd& DP = lv.dp[k];
        const Grid2Dd& B = lv.b[k];
        Grid2Dd& R = lv.r[k];
        double acc = 0.0;
        for (int j = 1; j <= pm.nx; ++j) {
          if (pm.solid(i, j)) {
            R(i, j) = 0.0;
            continue;
          }
          double apc = 0.0;
          double rhs = 0.0;
          assemble_pressure_cell(pm, pf, DP, X, B(i, j), i, j, &apc, &rhs);
          if (apc <= 0.0) {
            R(i, j) = 0.0;
            continue;
          }
          const double rr = rhs - apc * X(i, j);
          R(i, j) = rr;
          acc += std::abs(rr);
        }
        lv.acc[r] = acc;
      });
  return sweep::sum_rows(lv.acc);
}

void PressureMg::v_cycle(int d, CompositeScalar& x, double series_x) {
  static const util::trace::Site kTransfer =
      mg_scope("solver.mg.transfer", "solver.mg.transfer.ns");
  static const util::trace::Site kCoarse =
      mg_scope("solver.mg.coarse", "solver.mg.coarse.ns");
  static util::metrics::Counter& coarse_cells =
      util::metrics::counter("solver.mg.coarse.cells");
  Level& lv = levels_[static_cast<std::size_t>(d)];
  if (d + 1 == depth()) {
    // Coarsest level: a handful of cells total — hammer it with plain
    // Gauss-Seidel, every half-sweep seeing fresh interface values
    // (compiled rungs read the neighbouring patch, the others exchange).
    // omega = 1, not over-relaxed: the deepest rungs are single-cell
    // patches whose every neighbour is an interface ghost, so the sweep
    // degenerates to Jacobi — over-relaxed Jacobi diverges. A one-rung
    // ladder (a mesh that admits no coarse level) solves its fine p'
    // equation here, every V-cycle this one solve. The sweep
    // count stays kCoarseSweeps x smooth_mult rather than an exact
    // (direct) solve: on this anchored-stencil ladder the coarse operators
    // are not Galerkin, and an exact coarse correction overshoots
    // (DESIGN.md §11 records the experiment).
    const util::trace::Span t(kCoarse);
    const int sweeps = kCoarseSweeps * lv.smooth_mult;
    coarse_cells.add(static_cast<long long>(sweeps) * lv.mesh->active_cells());
    smooth(lv, x, sweeps, 1.0, /*exchange_each_sweep=*/true);
    return;
  }
  Level& lc = levels_[static_cast<std::size_t>(d) + 1];

  smooth(lv, x, kPreSmooth * lv.smooth_mult, 1.0,
         /*exchange_each_sweep=*/false);
  exchange_iterate(lv, x);

  const double rnorm = compute_residual(lv, x);
  if (util::metrics::enabled() && lv.series) lv.series->append(series_x, rnorm);

  // Restrict the residual into the coarse RHS and descend from zero. The
  // residual's interface ghosts are exchanged first so the transfer
  // stencil stays second-order across patch boundaries; each patch then
  // writes only its own coarse cells, so patches restrict concurrently.
  //
  // Residuals are cell-integral quantities — they scale with cell area —
  // so a side is "open" for restriction only when the neighbouring patch
  // sits at the SAME refinement level. Across a level jump the exchanged
  // ghost holds neighbour residuals at 4x (or 1/4x) the cell area: folding
  // them into full weighting injects wrongly-scaled residual mass and the
  // coarse correction turns anti-convergent (the composite-channel y-jump
  // diverged exactly this way). Jump sides fold reflectively instead —
  // per-fine-cell weight stays 1 (conservative) and the cross-jump
  // coupling is left to the coarse operator's own interface stencil.
  // Prolongation is NOT gated: the correction x is a point-valued field,
  // for which the jump-ghost interpolation is dimensionally sound.
  exchange(lv, lv.r);
  {
    const util::trace::Span t(kTransfer);
    const CompositeMesh& m = *lv.mesh;
    auto restrict_patch = [&](int k) {
      const PatchMesh& fp = m.patch_flat(k);
      const PatchMesh& cp = lc.mesh->patch_flat(k);
      OpenSides open{};
      for (const mesh::Side s : mesh::kSides) {
        const int nb = m.neighbour(k, s);
        open[s] = nb >= 0 && m.patch_flat(nb).level == fp.level;
      }
      // The anti-reflective fold is for the domain outlet only; an east
      // side closed because of a level jump folds reflectively.
      mg_restrict_patch(lv.r[k], fp.ny, fp.nx, lc.b[k], cp.ny, cp.nx, open,
                        lv.stencil.faces(k).outlet, cp.solid);
    };
    mesh::for_patches(m, restrict_patch);
  }
  zero_scalar(lc.x, *lc.mesh);
  if (!lc.stencil.empty()) lc.stencil.refresh(lc.x);  // zero the buffers
  v_cycle(d + 1, lc.x, series_x);

  // Prolong the coarse correction back and re-smooth; each leg ends with
  // one fused exchange. The coarse iterate's ghosts are fresh here (the
  // coarse v_cycle leaves them exchanged), so the interpolation reads
  // neighbour-patch coarse cells through them at interface sides.
  {
    const util::trace::Span t(kTransfer);
    const CompositeMesh& m = *lv.mesh;
    auto prolong_patch = [&](int k) {
      const PatchMesh& fp = m.patch_flat(k);
      const PatchMesh& cp = lc.mesh->patch_flat(k);
      const PatchFaces& pf = lv.stencil.faces(k);
      // Unlike restriction, prolongation stays OPEN at jump sides (the
      // correction is point-valued, the t_perp jump-ghost interpolation
      // is sound for it) — folding there instead demonstrably hurts:
      // ratio-2 deep ladders flip from rate 0.76 to divergence when the
      // jump side is closed here. The solid fold runs only for cases with
      // immersed geometry: the unmasked expression rounds differently.
      const OpenSides open = {!pf.domain[mesh::kW], !pf.domain[mesh::kE],
                              !pf.domain[mesh::kS], !pf.domain[mesh::kN]};
      mg_prolong_add_patch(lc.x[k], cp.ny, cp.nx, x[k], fp.ny, fp.nx,
                           &fp.solid, open, pf.outlet,
                           m.spec().geometry ? &cp.solid : nullptr);
    };
    mesh::for_patches(m, prolong_patch);
  }
  exchange_iterate(lv, x);
  smooth(lv, x, kPostSmooth * lv.smooth_mult, 1.0,
         /*exchange_each_sweep=*/false);
  exchange_iterate(lv, x);
}

MgSolveInfo PressureMg::solve(CompositeScalar& x, const CompositeScalar& imb) {
  namespace metrics = util::metrics;
  static const util::trace::Site kSite = mg_scope("solver.mg", "solver.mg.ns");
  const util::trace::Span span(kSite);
  MgSolveInfo info;
  Level& l0 = levels_[0];

  // b = -imb at fluid cells, 0 at solids; |b| accumulates through
  // fixed-order row partials.
  zero_scalar(x, *l0.mesh);
  if (!l0.stencil.empty()) l0.stencil.refresh(x);  // zero the buffers
  sweep::zero_rows(l0.acc);
  sweep::run_scan(
      l0.rows, l0.mesh->parallel(),
      [&](int r, int k, int i) {
        const PatchMesh& pm = l0.mesh->patch_flat(k);
        const Grid2Dd& IMB = imb[k];
        Grid2Dd& B = l0.b[k];
        double acc = 0.0;
        for (int j = 1; j <= pm.nx; ++j) {
          if (pm.solid(i, j)) {
            B(i, j) = 0.0;
            continue;
          }
          B(i, j) = -IMB(i, j);
          acc += std::abs(B(i, j));
        }
        l0.acc[r] = acc;
      });
  const double bnorm = sweep::sum_rows(l0.acc);
  info.initial_norm = bnorm;
  if (!(bnorm > 0.0)) return info;  // zero (or non-finite) RHS: x stays 0

  static metrics::Counter& cycle_counter = metrics::counter("solver.mg.cycles");
  double rnorm = bnorm;
  while (info.cycles < max_cycles_) {
    // Cooperative cancellation boundary (DESIGN.md §13): between V-cycles
    // the correction is consistent (ghosts exchanged), so stopping here
    // hands the outer iteration a weaker but well-formed p' solve.
    if (cancel_ != nullptr && cancel_->expired()) break;
    cycle_counter.add();
    v_cycle(0, x, static_cast<double>(cycle_counter.value()));
    info.cycles += 1;
    rnorm = compute_residual(l0, x);
    if (rnorm <= exit_tol_ * bnorm) break;
  }
  info.final_ratio = rnorm / bnorm;

  // Per-request V-cycle attribution: the p' solve runs on the thread the
  // serving request is bound to, so the context is lock-free to touch.
  if (util::reqctx::RequestContext* ctx = util::reqctx::current()) {
    ctx->count("solver.mg.cycles", info.cycles);
    ctx->count("solver.mg.solves", 1);
  }

  static metrics::Counter& solves = metrics::counter("solver.mg.solves");
  solves.add();
  return info;
}

}  // namespace adarnet::solver
