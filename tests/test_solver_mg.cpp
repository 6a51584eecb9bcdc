// Geometric multigrid pressure-correction tests (DESIGN.md §11): transfer
// adjointness, linear V-cycle convergence on uniform and level-jump
// meshes (including the anisotropy-mismatched jump ladder the zebra line
// smoother unlocks), the p' solution against a flat red-black SOR oracle,
// SIMPLE parity against the iteration counts and residuals the deleted
// SOR pressure path reached, the one-rung ladder inside the solver, the
// jump-face flux-conservation invariant of the matched corrector, and
// bitwise determinism across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "data/cases.hpp"
#include "mesh/composite.hpp"
#include "solver/jump.hpp"
#include "solver/mg.hpp"
#include "solver/rans.hpp"
#include "util/metrics.hpp"

namespace {

using adarnet::data::GridPreset;
using adarnet::field::Grid2Dd;
using adarnet::mesh::CompositeField;
using adarnet::mesh::CompositeMesh;
using adarnet::mesh::CompositeScalar;
using adarnet::mesh::RefinementMap;
using adarnet::solver::interface_flux_mismatch;
using adarnet::solver::mg_prolong_add_patch;
using adarnet::solver::mg_restrict_patch;
using adarnet::solver::JumpStencil;
using adarnet::solver::PressureMg;
using adarnet::solver::RansSolver;
using adarnet::solver::SolveStats;
using adarnet::solver::SolverConfig;

GridPreset tiny_preset() { return GridPreset{16, 64, 8, 8}; }

SolverConfig quick_config() {
  SolverConfig cfg;
  cfg.max_outer = 4000;
  cfg.tol = 5e-4;
  return cfg;
}

// Four patch rows so refining the wall rows leaves the two core rows
// coarse: the refinement map has genuine level jumps in y, the direction
// perpendicular to the channel's strong (x) coupling. (With the tiny
// 2-row preset, refining both wall rows would refine every patch.)
GridPreset jump_preset() { return GridPreset{32, 64, 8, 8}; }

CompositeMesh mixed_channel_mesh(const adarnet::mesh::CaseSpec& spec) {
  RefinementMap map(spec.npy(), spec.npx(), 0);
  for (int pj = 0; pj < spec.npx(); ++pj) {
    map.set_level(0, pj, 1);
    map.set_level(spec.npy() - 1, pj, 1);
  }
  bool jump = false;
  for (int pi = 0; pi + 1 < map.npy(); ++pi) {
    if (map.level(pi, 0) != map.level(pi + 1, 0)) jump = true;
  }
  EXPECT_TRUE(jump) << "preset too small: the map has no level jump";
  return CompositeMesh(spec, map);
}

// Centrally-refined channel: the two core patch rows at level 1 and the
// wall rows coarse — the inverse of mixed_channel_mesh, with the same
// y-jumps across strongly anisotropic cells.
CompositeMesh core_refined_channel_mesh(const adarnet::mesh::CaseSpec& spec) {
  RefinementMap map(spec.npy(), spec.npx(), 0);
  for (int pi = 1; pi + 1 < spec.npy(); ++pi) {
    for (int pj = 0; pj < spec.npx(); ++pj) map.set_level(pi, pj, 1);
  }
  EXPECT_TRUE(map.has_level_jump()) << "preset too small for a core band";
  return CompositeMesh(spec, map);
}

// Refined cylinder: the 2x2 central patch block (the body) at level 1,
// near-isotropic cells with jumps in both directions.
CompositeMesh refined_cylinder_mesh() {
  auto spec = adarnet::data::cylinder_case(1e5, GridPreset{32, 32, 8, 8});
  RefinementMap map(spec.npy(), spec.npx(), 0);
  for (int pi = 1; pi <= 2; ++pi) {
    for (int pj = 1; pj <= 2; ++pj) map.set_level(pi, pj, 1);
  }
  return CompositeMesh(spec, map);
}

// Column-refined cylinder: cells four times as tall as wide, patch
// columns 2 .. npx - 3 at level 1. Its level jumps run in x, across the
// strong x coupling — the transpose of the row-refined channel — so the
// top rungs of its ladder smooth by zebra row solves.
CompositeMesh column_refined_cylinder_mesh() {
  auto spec = adarnet::data::cylinder_case(1e5, GridPreset{16, 64, 4, 4});
  RefinementMap map(spec.npy(), spec.npx(), 0);
  for (int pi = 0; pi < spec.npy(); ++pi) {
    for (int pj = 2; pj <= spec.npx() - 3; ++pj) map.set_level(pi, pj, 1);
  }
  EXPECT_TRUE(map.has_jump_in_x()) << "the map has no x jump";
  EXPECT_LE(spec.lx / spec.base_nx, 0.5 * (spec.ly / spec.base_ny))
      << "cells are not at least twice as tall as wide";
  return CompositeMesh(spec, map);
}

// Deterministic pseudo-random fill of the interior cells (LCG — no
// global RNG state, bit-identical on every platform).
void fill_interior(Grid2Dd& a, int ny, int nx, unsigned seed) {
  unsigned s = seed;
  for (int i = 1; i <= ny; ++i) {
    for (int j = 1; j <= nx; ++j) {
      s = s * 1664525u + 1013904223u;
      a(i, j) = static_cast<double>(s >> 8) / 16777216.0 - 0.5;
    }
  }
}

double dot_interior(const Grid2Dd& a, const Grid2Dd& b, int ny, int nx) {
  double acc = 0.0;
  for (int i = 1; i <= ny; ++i) {
    for (int j = 1; j <= nx; ++j) acc += a(i, j) * b(i, j);
  }
  return acc;
}

// Exact (bitwise) equality of two composite fields, ghosts included.
::testing::AssertionResult fields_identical(const CompositeField& a,
                                            const CompositeField& b) {
  for (int c = 0; c < 4; ++c) {
    const auto& ca = a.channel(c);
    const auto& cb = b.channel(c);
    if (ca.size() != cb.size()) {
      return ::testing::AssertionFailure() << "patch count mismatch";
    }
    for (std::size_t k = 0; k < ca.size(); ++k) {
      for (std::size_t n = 0; n < ca[k].size(); ++n) {
        if (std::memcmp(&ca[k][n], &cb[k][n], sizeof(double)) != 0) {
          return ::testing::AssertionFailure()
                 << "channel " << c << " patch " << k << " cell " << n
                 << ": " << ca[k][n] << " != " << cb[k][n];
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

SolveStats run_iterations(const CompositeMesh& mesh, const SolverConfig& cfg,
                          CompositeField& f, int iters) {
  RansSolver solver(mesh, cfg);
  solver.initialize_freestream(f);
  return solver.iterate(f, iters);
}

// The linear p' system of the harness below: unit momentum diagonal
// (d = vol) and a pseudo-random imbalance, zero inside solids (a solid
// cell's p' equation is x = 0).
struct LinearSystem {
  CompositeScalar ap;
  CompositeScalar imb;
};

LinearSystem linear_system(const CompositeMesh& mesh) {
  LinearSystem sys{adarnet::mesh::make_scalar(mesh),
                   adarnet::mesh::make_scalar(mesh)};
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const auto& p = mesh.patch_flat(k);
    fill_interior(sys.imb[k], p.ny, p.nx, 17u * (k + 1));
    for (int i = 1; i <= p.ny; ++i) {
      for (int j = 1; j <= p.nx; ++j) {
        sys.ap[k](i, j) = 1.0;
        if (p.solid(i, j)) sys.imb[k](i, j) = 0.0;
      }
    }
  }
  return sys;
}

// Linear-solve harness: one PressureMg solve of linear_system(mesh) to
// `tol` with a generous cycle cap. `x_out` (optional) receives the
// returned iterate, ghosts included.
adarnet::solver::MgSolveInfo solve_linear(const CompositeMesh& mesh,
                                          double tol, int max_cycles,
                                          CompositeScalar* x_out = nullptr) {
  PressureMg mg(mesh);
  mg.set_exit(tol, max_cycles);
  EXPECT_GE(mg.depth(), 2) << "ladder did not coarsen; the test is vacuous";

  const LinearSystem sys = linear_system(mesh);
  mg.set_coefficients(sys.ap);
  CompositeScalar x = adarnet::mesh::make_scalar(mesh);
  const auto info = mg.solve(x, sys.imb);
  if (x_out != nullptr) *x_out = x;
  return info;
}

// The flat pressure solver the multigrid replaced, kept as its oracle:
// SOR on the fine p' equation A x = -imb, assembled by the shared kernel
// (assemble_pressure_cell) from d = vol / aP. Each sweep relaxes the
// patches in two checkerboard colours, row-major inside a patch, and
// exchanges the ghosts and refreshes the jump stencil after each colour.
// Same-colour patches share no face, so every cell reads the newest value
// of every neighbour: plain Gauss-Seidel order, which over-relaxation
// near 2 needs on the anisotropic channels (red-black cells, whose jump
// faces can join same-colour cells, diverged there). Sweeps from zero
// until |r| <= tol * |b| (L1 norms over fluid cells) or `max_sweeps`;
// returns the final ratio.
double sor_solve(const CompositeMesh& mesh, const CompositeScalar& ap,
                 const CompositeScalar& imb, double omega, double tol,
                 int max_sweeps, CompositeScalar& x) {
  namespace solver = adarnet::solver;
  CompositeScalar dp = adarnet::mesh::make_scalar(mesh);
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const auto& pm = mesh.patch_flat(k);
    for (int i = 1; i <= pm.ny; ++i) {
      for (int j = 1; j <= pm.nx; ++j) {
        dp[k](i, j) = pm.solid(i, j) ? 0.0 : pm.dx * pm.dy / ap[k](i, j);
      }
    }
  }
  JumpStencil stencil(mesh);
  stencil.set_coefficients(dp);
  x = adarnet::mesh::make_scalar(mesh);
  stencil.refresh(x);
  // One pass over the fluid cells of the patches of checkerboard colour
  // `color` ((pi + pj) & 1) in row-major order, relaxing them, or
  // (color < 0) over every patch, returning the residual's L1 norm
  // without touching x.
  auto pass = [&](int color) {
    double norm = 0.0;
    for (int k = 0; k < mesh.patch_count(); ++k) {
      const auto& pm = mesh.patch_flat(k);
      if (color >= 0 && ((pm.pi + pm.pj) & 1) != color) continue;
      for (int i = 1; i <= pm.ny; ++i) {
        for (int j = 1; j <= pm.nx; ++j) {
          if (pm.solid(i, j)) continue;
          double apc = 0.0;
          double rhs = 0.0;
          solver::assemble_pressure_cell(pm, stencil.faces(k), dp[k], x[k],
                                         -imb[k](i, j), i, j, &apc, &rhs);
          if (apc <= 0.0) continue;
          if (color < 0) {
            norm += std::abs(rhs - apc * x[k](i, j));
          } else {
            x[k](i, j) += omega * (rhs / apc - x[k](i, j));
          }
        }
      }
    }
    return norm;
  };
  double bnorm = 0.0;
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const auto& pm = mesh.patch_flat(k);
    for (int i = 1; i <= pm.ny; ++i) {
      for (int j = 1; j <= pm.nx; ++j) {
        if (!pm.solid(i, j)) bnorm += std::abs(imb[k](i, j));
      }
    }
  }
  double ratio = 1.0;
  for (int sweep = 0; sweep < max_sweeps && ratio > tol; ++sweep) {
    for (int color = 0; color < 2; ++color) {
      pass(color);
      adarnet::mesh::exchange_ghosts(x, mesh);
      stencil.refresh(x);
    }
    ratio = pass(-1) / bnorm;
  }
  return ratio;
}

// Exact (bitwise) equality of two composite scalars, ghosts included.
::testing::AssertionResult scalars_identical(const CompositeScalar& a,
                                             const CompositeScalar& b) {
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::memcmp(a[k].data(), b[k].data(), a[k].size() * sizeof(double))) {
      return ::testing::AssertionFailure() << "patch " << k << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// 64-bit FNV-1a over the bytes of every double of `s`, ghosts included.
std::uint64_t fnv1a(const CompositeScalar& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const Grid2Dd& g : s) {
    const auto* p = reinterpret_cast<const unsigned char*>(g.data());
    for (std::size_t n = 0; n < g.size() * sizeof(double); ++n) {
      h = (h ^ p[n]) * 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

// Restriction must be exactly the transpose of prolongation,
// <R u, v>_coarse = <u, P v>_fine, for the coarse-grid correction to
// minimise the fine energy norm rather than fight the smoother. Checked
// on a closed (domain-boundary) patch for full coarsening, semicoarsened
// transfers in each direction, and the anti-reflective outlet fold.
TEST(PressureMgTransfers, RestrictionIsProlongationTranspose) {
  struct Shape {
    int fny, fnx, cny, cnx;
    bool dirichlet_e;
  };
  const Shape shapes[] = {
      {8, 8, 4, 4, false},   // full coarsening
      {8, 8, 4, 8, false},   // semicoarsen y (x identity)
      {8, 8, 8, 4, false},   // semicoarsen x (y identity)
      {8, 8, 4, 4, true},    // outlet fold on the east side
      {2, 8, 1, 4, false},   // degenerate single-row coarse patch
  };
  for (const Shape& sh : shapes) {
    Grid2Dd u(sh.fny + 2, sh.fnx + 2);  // fine residual
    Grid2Dd v(sh.cny + 2, sh.cnx + 2);  // coarse correction
    fill_interior(u, sh.fny, sh.fnx, 101);
    fill_interior(v, sh.cny, sh.cnx, 202);

    Grid2Dd ru(sh.cny + 2, sh.cnx + 2);
    const adarnet::field::Mask2D no_solid(sh.cny + 2, sh.cnx + 2);
    mg_restrict_patch(u, sh.fny, sh.fnx, ru, sh.cny, sh.cnx, /*open=*/{},
                      sh.dirichlet_e, no_solid);

    Grid2Dd pv(sh.fny + 2, sh.fnx + 2);
    mg_prolong_add_patch(v, sh.cny, sh.cnx, pv, sh.fny, sh.fnx,
                         /*fine_solid=*/nullptr, /*open=*/{}, sh.dirichlet_e,
                         /*coarse_solid=*/nullptr);

    const double lhs = dot_interior(ru, v, sh.cny, sh.cnx);
    const double rhs = dot_interior(u, pv, sh.fny, sh.fnx);
    EXPECT_NEAR(lhs, rhs, 1e-12 * (1.0 + std::abs(lhs)))
        << "shape " << sh.fny << "x" << sh.fnx << " -> " << sh.cny << "x"
        << sh.cnx << " dirichlet_e=" << sh.dirichlet_e;
  }
}

// The V-cycle must be a genuine multigrid on the uniform channel: the
// contraction factor per cycle stays bounded away from 1 even though the
// channel cells are strongly anisotropic (the aspect-driven semicoarsening
// and smooth_mult rungs are what make this pass).
TEST(PressureMgLinear, ConvergesOnUniformChannel) {
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 1));

  const double tol = 1e-8;
  const auto info = solve_linear(mesh, tol, 60);
  ASSERT_GT(info.cycles, 0);
  EXPECT_LE(info.final_ratio, tol) << "cycles=" << info.cycles;
  // Mean contraction per cycle <= 0.65 (flat SOR is ~0.99 on this mesh).
  const double rate = std::pow(info.final_ratio, 1.0 / info.cycles);
  EXPECT_LE(rate, 0.65) << "ratio=" << info.final_ratio
                        << " cycles=" << info.cycles;
}

// Row-refined channel: level jumps in y across strongly anisotropic
// cells (aspect 30). The x-oscillatory modes point relaxation cannot
// damp alias across the jumps, which is why the old ladder refused this
// mesh outright (depth() == 1, SOR fallback). With the flux-matched jump
// stencils in every level operator and the zebra line smoother on the
// mismatched levels, the ladder must be real AND the V-cycle must
// contract at a genuine multigrid rate.
TEST(PressureMgLinear, LineSmootherConvergesOnRowRefinedChannel) {
  auto spec = adarnet::data::channel_case(2.5e3, jump_preset());
  CompositeMesh mesh = mixed_channel_mesh(spec);

  const double tol = 1e-6;
  const auto info = solve_linear(mesh, tol, 60);
  ASSERT_GT(info.cycles, 0);
  EXPECT_LE(info.final_ratio, tol) << "cycles=" << info.cycles;
  const double rate = std::pow(info.final_ratio, 1.0 / info.cycles);
  EXPECT_LE(rate, 0.8) << "ratio=" << info.final_ratio
                       << " cycles=" << info.cycles;
}

// The transpose: x jumps across tall cells, which the ladder smooths by
// zebra row solves.
TEST(PressureMgLinear, LineSmootherConvergesOnColumnRefinedCylinder) {
  CompositeMesh mesh = column_refined_cylinder_mesh();

  const double tol = 1e-6;
  const auto info = solve_linear(mesh, tol, 60);
  ASSERT_GT(info.cycles, 0);
  EXPECT_LE(info.final_ratio, tol) << "cycles=" << info.cycles;
  const double rate = std::pow(info.final_ratio, 1.0 / info.cycles);
  EXPECT_LE(rate, 0.8) << "ratio=" << info.final_ratio
                       << " cycles=" << info.cycles;
}

// Near-isotropic cells with refinement jumps in both directions (the
// refined-cylinder configuration) must converge through the map-lowering
// rungs: the jump interpolation only aliases modes the smoother kills.
TEST(PressureMgLinear, ConvergesAcrossIsotropicLevelJumps) {
  auto spec = adarnet::data::cylinder_case(1e5, GridPreset{32, 32, 8, 8});
  RefinementMap map(spec.npy(), spec.npx(), 0);
  for (int pi = 1; pi <= 2; ++pi) {
    for (int pj = 1; pj <= 2; ++pj) map.set_level(pi, pj, 1);
  }
  CompositeMesh mesh(spec, map);

  const double tol = 1e-6;
  const auto info = solve_linear(mesh, tol, 60);
  ASSERT_GT(info.cycles, 0);
  EXPECT_LE(info.final_ratio, tol) << "cycles=" << info.cycles;
  // Measured ~0.61 per cycle; guard well away from divergence.
  const double rate = std::pow(info.final_ratio, 1.0 / info.cycles);
  EXPECT_LE(rate, 0.8) << "ratio=" << info.final_ratio
                       << " cycles=" << info.cycles;
}

// The multigrid and the flat SOR oracle must reach the same p' solution.
// Each p' system (linear_system) is solved by PressureMg to |r| <= 1e-11
// |b| and by SOR to |r| <= 1e-9 |b|, on the uniform channel, the
// core-refined channel (y-jumps across strongly anisotropic cells) and
// the refined cylinder (solid cells, jumps in both directions). The
// solutions must agree to max |x_mg - x_sor| <= 1e-7 max |x|, far inside
// the percent-level gap any mismatch between the two operators would
// open. The channels' slowest SOR mode is a weakly coupled x-mode, so
// they need omega near 2 (12k and 36k sweeps at 1.998); on the refined
// cylinder SOR diverges from omega 1.95 up and runs at 1.9 (under 1k
// sweeps).
TEST(PressureMgOracle, MatchesFlatSorSolution) {
  auto uniform_spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  auto jump_spec = adarnet::data::channel_case(2.5e3, jump_preset());
  const CompositeMesh meshes[] = {
      CompositeMesh(uniform_spec, RefinementMap(uniform_spec.npy(),
                                                uniform_spec.npx(), 0)),
      core_refined_channel_mesh(jump_spec), refined_cylinder_mesh()};
  const char* names[] = {"uniform channel", "core-refined channel",
                         "refined cylinder"};
  const double omega[] = {1.998, 1.998, 1.9};
  for (std::size_t m = 0; m < std::size(meshes); ++m) {
    const CompositeMesh& mesh = meshes[m];
    CompositeScalar x_mg;
    const auto info = solve_linear(mesh, 1e-11, 200, &x_mg);
    ASSERT_LE(info.final_ratio, 1e-11) << names[m];

    const LinearSystem sys = linear_system(mesh);
    CompositeScalar x_sor;
    ASSERT_LE(sor_solve(mesh, sys.ap, sys.imb, omega[m], 1e-9, 100000, x_sor),
              1e-9)
        << names[m];

    double scale = 0.0;
    double diff = 0.0;
    for (int k = 0; k < mesh.patch_count(); ++k) {
      const auto& pm = mesh.patch_flat(k);
      for (int i = 1; i <= pm.ny; ++i) {
        for (int j = 1; j <= pm.nx; ++j) {
          scale = std::max(scale, std::abs(x_sor[k](i, j)));
          diff = std::max(diff, std::abs(x_mg[k](i, j) - x_sor[k](i, j)));
        }
      }
    }
    ASSERT_GT(scale, 0.0) << names[m];
    EXPECT_LE(diff, 1e-7 * scale) << names[m] << ": max |x_mg - x_sor| " << diff
                                 << " of max |x| " << scale;
  }
}

// SIMPLE parity: on each mesh the multigrid pressure solve must do at
// least about as well as the flat SOR pressure path it replaced (up to 60
// red-black sweeps at omega 1.4 per outer iteration, early exit at 5% of
// the first sweep's change). That path is gone; the k*Sor* constants are
// what it reached at the last commit that had it.

// Uniform channel: the multigrid must reach the same outer tolerance
// without inflating the iteration count (it should deflate it — each
// outer step gets a deeper p' reduction). SOR converged in 1101.
TEST(PressureMgSimple, ParityWithSorOnChannel) {
  constexpr int kSorIterations = 1101;
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));

  auto f_mg = adarnet::mesh::make_field(mesh);
  RansSolver mg(mesh, quick_config());
  mg.initialize_freestream(f_mg);
  const auto s_mg = mg.solve(f_mg);
  ASSERT_TRUE(s_mg.converged) << "residual=" << s_mg.residual;

  EXPECT_LE(s_mg.iterations, 1.6 * kSorIterations)
      << "mg=" << s_mg.iterations << " sor=" << kSorIterations;
}

// A body case (immersed solid cells + symmetry boundaries): a fixed
// budget of 600 iterations must end at a comparable residual.
TEST(PressureMgSimple, ParityWithSorOnCylinder) {
  constexpr double kSorResidual = 2.37714103e-3;
  auto spec = adarnet::data::cylinder_case(1e5, GridPreset{32, 32, 8, 8});
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));

  SolverConfig mg_cfg = quick_config();
  mg_cfg.max_outer = 600;
  auto f_mg = adarnet::mesh::make_field(mesh);
  const auto s_mg = run_iterations(mesh, mg_cfg, f_mg, 600);

  ASSERT_FALSE(s_mg.diverged);
  EXPECT_LT(s_mg.residual, 3.0 * kSorResidual + 1e-12)
      << "mg=" << s_mg.residual << " sor=" << kSorResidual;
}

// The centrally-refined channel: the multigrid runs V-cycles on the
// composite mesh and must end a 400-iteration budget at a residual
// comparable to the SOR path's (both solved the same flux-matched p'
// equation; only the linear solver differed).
TEST(PressureMgSimple, ParityWithSorOnCoreRefinedChannel) {
  constexpr double kSorResidual = 3.33485629e-3;
  auto spec = adarnet::data::channel_case(2.5e3, jump_preset());
  CompositeMesh mesh = core_refined_channel_mesh(spec);

  auto f_mg = adarnet::mesh::make_field(mesh);
  const auto s_mg = run_iterations(mesh, quick_config(), f_mg, 400);

  ASSERT_FALSE(s_mg.diverged);
  EXPECT_LT(s_mg.residual, 3.0 * kSorResidual + 1e-12)
      << "mg=" << s_mg.residual << " sor=" << kSorResidual;
}

// Same parity contract on the refined cylinder (immersed solid cells,
// jumps in both directions, near-isotropic cells: map-lowering rungs).
TEST(PressureMgSimple, ParityWithSorOnRefinedCylinder) {
  constexpr double kSorResidual = 3.69466512e-2;
  CompositeMesh mesh = refined_cylinder_mesh();

  auto f_mg = adarnet::mesh::make_field(mesh);
  const auto s_mg = run_iterations(mesh, quick_config(), f_mg, 400);

  ASSERT_FALSE(s_mg.diverged);
  EXPECT_LT(s_mg.residual, 3.0 * kSorResidual + 1e-12)
      << "mg=" << s_mg.residual << " sor=" << kSorResidual;
}

// A mesh that admits no coarse level (all level 0, patches that cannot
// halve) gives the solver a one-rung ladder: every p' solve is that
// rung's coarsest solve. Until the SOR path was deleted this was the one
// input that ran SOR inside a default solver. The solve must stay finite,
// report its V-cycles, and give the same bits at every thread count.
TEST(PressureMgSimple, OneRungLadderInsideTheSolver) {
  namespace metrics = adarnet::util::metrics;
  for (const GridPreset preset :
       {GridPreset{16, 16, 1, 1}, GridPreset{24, 12, 3, 3}}) {
    const auto spec = adarnet::data::cylinder_case(1e5, preset);
    const CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));
    ASSERT_EQ(PressureMg(mesh).depth(), 1) << spec.name << " " << preset.ph;

    const SolverConfig cfg = quick_config();
    RansSolver solver(mesh, cfg);
    auto f = adarnet::mesh::make_field(mesh);
    solver.initialize_freestream(f);
    const auto stats = solver.iterate(f, 60);
    ASSERT_FALSE(stats.diverged) << preset.ph;
    EXPECT_TRUE(std::isfinite(stats.residual)) << preset.ph;
    // Residuals::pressure_cycles of every iteration, as the
    // solver.pressure.cycles series recorded it.
    if (metrics::enabled()) {
      const auto cycles = metrics::series("solver.pressure.cycles").snapshot();
      ASSERT_GE(cycles.size(), 60u);
      for (std::size_t n = cycles.size() - 60; n < cycles.size(); ++n) {
        EXPECT_GE(cycles[n].y, 1.0) << "iteration " << n;
      }
    }
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    omp_set_num_threads(1);
    auto f1 = adarnet::mesh::make_field(mesh);
    const auto s1 = run_iterations(mesh, cfg, f1, 30);
    for (int nt : {2, 4}) {
      omp_set_num_threads(nt);
      auto fn = adarnet::mesh::make_field(mesh);
      const auto sn = run_iterations(mesh, cfg, fn, 30);
      EXPECT_EQ(s1.residual, sn.residual) << "threads=" << nt;
      EXPECT_TRUE(fields_identical(f1, fn)) << "threads=" << nt;
    }
    omp_set_num_threads(saved);
#endif
  }
}

// The corrector's jump-face mass-conservation invariant: after the
// post-corrector face pass, every coarse interface face velocity equals
// the mean of the fine faces covering it — to the bit, because the
// corrector recomputes the coarse face from the corrected fine subfaces
// with the checker's own summation order (solver/rans.cpp). Checked on
// both composite scenario shapes.
TEST(PressureMgSimple, JumpFaceFluxConservedAfterCorrector) {
  auto spec = adarnet::data::channel_case(2.5e3, jump_preset());
  const CompositeMesh meshes[] = {core_refined_channel_mesh(spec),
                                  refined_cylinder_mesh()};
  for (const CompositeMesh& mesh : meshes) {
    RansSolver solver(mesh, quick_config());
    auto f = adarnet::mesh::make_field(mesh);
    solver.initialize_freestream(f);
    const auto stats = solver.iterate(f, 25);
    ASSERT_FALSE(stats.diverged);
    EXPECT_EQ(interface_flux_mismatch(mesh, solver.corrected_face_u(),
                                      solver.corrected_face_v()),
              0.0)
        << mesh.spec().name;
  }
}

// Compiled rungs (same-size patches smoothed red-black with a fresh ghost
// per half-sweep) never exchange between sweeps: their cells read the
// neighbouring patches directly, and only the coarsest solve and the
// V-cycle legs end with an exchange. The solve must still hand back an
// iterate whose interface ghosts are exactly what a fresh exchange
// writes, and — the reads being race-free by colour — the same bits at
// every thread count. Meshes: the shrink-8 cylinder LR mesh (single-cell
// coarsest rung), the shrink-8 channel LR mesh (every rung compiled; the
// coarsest runs 40 x 29 sweeps), a composite cylinder ladder (mixed-size
// rungs above compiled flattened ones, ratio-1 jump sides), the shrink-2
// channel, whose 4096-cell fine rung runs the compiled schedule
// thread-parallel, and the column-refined cylinder, whose top two rungs
// smooth by zebra row solves (no other input runs them). On x86-64
// without FMA, each 1-thread result must also hash to the bits recorded
// at commit 3cbbc38 (the fifth at 4218bb3), which pins the ratio-1 jump
// faces' fine- and coarse-side arithmetic and the row solves' face terms
// too. Elsewhere the compiler may contract
// b += r * x into FMAs, which rounds differently, so the hashes are only
// asserted where they were recorded.
TEST(PressureMgCompiled, SolveLeavesFreshGhostsAtEveryThreadCount) {
  namespace ad = adarnet::data;
  const auto body8 = ad::shrink(ad::paper_body_preset(), 8);
  const auto wall8 = ad::shrink(ad::paper_wall_preset(), 8);
  const auto wall2 = ad::shrink(ad::paper_wall_preset(), 2);
  const auto cyl = ad::cylinder_case(1e5, body8);
  RefinementMap ladder(cyl.npy(), cyl.npx(), 0);
  for (int pi = 2; pi <= 5; ++pi) {
    for (int pj = 2; pj <= 5; ++pj) {
      const bool core = (pi == 3 || pi == 4) && (pj == 3 || pj == 4);
      ladder.set_level(pi, pj, core ? 2 : 1);
    }
  }
  const CompositeMesh meshes[] = {
      CompositeMesh(cyl, RefinementMap(cyl.npy(), cyl.npx(), 0)),
      CompositeMesh(ad::channel_case(2.5e3, wall8),
                    RefinementMap(wall8.base_ny / wall8.ph,
                                  wall8.base_nx / wall8.pw, 0)),
      CompositeMesh(cyl, ladder),
      CompositeMesh(ad::channel_case(2.5e3, wall2),
                    RefinementMap(wall2.base_ny / wall2.ph,
                                  wall2.base_nx / wall2.pw, 0)),
      column_refined_cylinder_mesh(),
  };
  [[maybe_unused]] const std::uint64_t recorded[] = {
      0x546c98952f61dc3eull, 0x3b3a5703803ba937ull, 0x652ac2ab82f18178ull,
      0x394994c5ae002a17ull, 0x603e199ee4d5613aull};
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  for (std::size_t m = 0; m < std::size(meshes); ++m) {
    const CompositeMesh& mesh = meshes[m];
    CompositeScalar x1;
    const auto info = solve_linear(mesh, 1e-12, 3, &x1);
    EXPECT_EQ(info.cycles, 3);
#if defined(__x86_64__) && !defined(__FMA__)
    EXPECT_EQ(fnv1a(x1), recorded[m])
        << mesh.spec().name << " mesh " << m << ": 0x" << std::hex
        << fnv1a(x1);
#endif
    CompositeScalar fresh = x1;
    adarnet::mesh::exchange_ghosts(fresh, mesh);
    EXPECT_TRUE(scalars_identical(x1, fresh))
        << mesh.spec().name << ": exit ghosts are stale";
#ifdef _OPENMP
    for (int nt : {2, 4}) {
      omp_set_num_threads(nt);
      CompositeScalar xn;
      solve_linear(mesh, 1e-12, 3, &xn);
      EXPECT_TRUE(scalars_identical(x1, xn))
          << mesh.spec().name << " threads=" << nt;
    }
    omp_set_num_threads(1);
#endif
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

// A mesh whose patches cannot coarsen (depth 1) runs one V-cycle as
// exactly one coarsest solve: kCoarseSweeps = 40 compiled red-black sweeps
// at omega 1 on the rung's dense copy, then one exchange. Replaying it
// with the shared operator (assemble_pressure_cell) and an exchange
// between every half-sweep must give the same bits, ghosts included — the
// compiled cells' face branches, outlet fold, solid cells and cross-patch
// reads are that kernel's arithmetic, not an approximation of it. Two
// meshes: single-cell patches (every face crosses a patch interface), and
// 3 x 3-cell patches of cells twice as wide as tall (strongly anisotropic,
// so compiled; one interior cell per patch and local faces), both with
// solid cells, an outlet and freestream sides. The solve adds exactly
// 40 x its cells to the smoothed- and coarsest-cell counters.
TEST(PressureMgCompiled, CoarsestSolveMatchesExchangedRowKernelBitwise) {
  namespace metrics = adarnet::util::metrics;
  for (const GridPreset preset : {GridPreset{16, 16, 1, 1},
                                  GridPreset{24, 12, 3, 3}}) {
    const auto spec = adarnet::data::cylinder_case(1e5, preset);
    const CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));
    ASSERT_LT(mesh.fluid_cells(), mesh.active_cells()) << "no solid cells";
    ASSERT_EQ(spec.bc.right.type, adarnet::mesh::BcType::kOutlet);
    PressureMg mg(mesh);
    mg.set_exit(0.0, 1);
    ASSERT_EQ(mg.depth(), 1);

    CompositeScalar ap = adarnet::mesh::make_scalar(mesh);
    CompositeScalar imb = adarnet::mesh::make_scalar(mesh);
    CompositeScalar dp = adarnet::mesh::make_scalar(mesh);
    CompositeScalar b = adarnet::mesh::make_scalar(mesh);
    for (int k = 0; k < mesh.patch_count(); ++k) {
      const auto& pm = mesh.patch_flat(k);
      fill_interior(imb[k], pm.ny, pm.nx, 31u * (k + 1));
      for (int i = 1; i <= pm.ny; ++i) {
        for (int j = 1; j <= pm.nx; ++j) {
          ap[k](i, j) = 1.0 + 0.25 * imb[k](i, j);
          dp[k](i, j) = pm.solid(i, j) ? 0.0 : pm.dx * pm.dy / ap[k](i, j);
          b[k](i, j) = pm.solid(i, j) ? 0.0 : -imb[k](i, j);
        }
      }
    }
    mg.set_coefficients(ap);
    CompositeScalar x = adarnet::mesh::make_scalar(mesh);
    metrics::Counter& smoothed = metrics::counter("solver.mg.smooth.cells");
    metrics::Counter& coarsest = metrics::counter("solver.mg.coarse.cells");
    const long long smoothed0 = smoothed.value();
    const long long coarsest0 = coarsest.value();
    mg.solve(x, imb);
    if (metrics::enabled()) {
      EXPECT_EQ(smoothed.value() - smoothed0, 40 * mesh.active_cells());
      EXPECT_EQ(coarsest.value() - coarsest0, 40 * mesh.active_cells());
    }

    CompositeScalar ref = adarnet::mesh::make_scalar(mesh);
    const JumpStencil faces(mesh);  // no level jump: the side table only
    for (int sweep = 0; sweep < 40; ++sweep) {
      for (int color = 0; color < 2; ++color) {
        for (int k = 0; k < mesh.patch_count(); ++k) {
          const auto& pm = mesh.patch_flat(k);
          const int par = (pm.pi * pm.ny + pm.pj * pm.nx) & 1;
          for (int i = 1; i <= pm.ny; ++i) {
            for (int j = 1; j <= pm.nx; ++j) {
              if (((i + j + par) & 1) != color) continue;
              Grid2Dd& X = ref[k];
              if (pm.solid(i, j)) {
                X(i, j) = 0.0;
                continue;
              }
              double apc = 0.0;
              double rhs = 0.0;
              adarnet::solver::assemble_pressure_cell(
                  pm, faces.faces(k), dp[k], X, b[k](i, j), i, j, &apc, &rhs);
              X(i, j) =
                  apc <= 0.0 ? 0.0 : X(i, j) + 1.0 * (rhs / apc - X(i, j));
            }
          }
        }
        adarnet::mesh::exchange_ghosts(ref, mesh);
      }
    }
    EXPECT_TRUE(scalars_identical(ref, x)) << spec.name << " " << preset.ph;
  }
}

#ifdef _OPENMP
// With multigrid engaged (uniform mesh, no fallback), every thread count
// must produce the bitwise-identical field: the V-cycle smoothers run the
// red-black (patch, row) schedule with fixed-order reductions, and every
// mesh-derived decision (ladder shape, serial coarse levels, smoothing
// multipliers) is independent of the thread count.
TEST(PressureMgParallel, BitwiseIdenticalAcrossThreadCounts) {
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 1));
  ASSERT_TRUE(mesh.parallel()) << mesh.active_cells() << " cells";
  const int saved = omp_get_max_threads();

  omp_set_num_threads(1);
  auto f1 = adarnet::mesh::make_field(mesh);
  const auto s1 =
      run_iterations(mesh, quick_config(), f1, 30);

  for (int nt : {2, 4, 8}) {
    omp_set_num_threads(nt);
    auto fn = adarnet::mesh::make_field(mesh);
    const auto sn =
        run_iterations(mesh, quick_config(), fn, 30);
    EXPECT_EQ(s1.residual, sn.residual) << "threads=" << nt;
    EXPECT_TRUE(fields_identical(f1, fn)) << "threads=" << nt;
  }
  omp_set_num_threads(saved);
}

// The same contract on a composite (row-refined) mesh, where multigrid
// now really runs: the jump-stencil refresh, line-smoother zebra
// schedule and matched corrector are all mesh-derived scans, so 1, 2 and
// 4 threads must agree to the bit.
TEST(PressureMgParallel, BitwiseIdenticalOnJumpMeshAcrossThreadCounts) {
  auto spec = adarnet::data::channel_case(2.5e3, jump_preset());
  CompositeMesh mesh = mixed_channel_mesh(spec);
  ASSERT_TRUE(mesh.parallel()) << mesh.active_cells() << " cells";
  const int saved = omp_get_max_threads();

  omp_set_num_threads(1);
  auto f1 = adarnet::mesh::make_field(mesh);
  const auto s1 =
      run_iterations(mesh, quick_config(), f1, 30);

  for (int nt : {2, 4}) {
    omp_set_num_threads(nt);
    auto fn = adarnet::mesh::make_field(mesh);
    const auto sn =
        run_iterations(mesh, quick_config(), fn, 30);
    EXPECT_EQ(s1.residual, sn.residual) << "threads=" << nt;
    EXPECT_TRUE(fields_identical(f1, fn)) << "threads=" << nt;
  }
  omp_set_num_threads(saved);
}
#endif  // _OPENMP
