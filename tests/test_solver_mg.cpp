// Geometric multigrid pressure-correction tests (DESIGN.md §11): transfer
// adjointness, linear V-cycle convergence on uniform and level-jump
// meshes (including the anisotropy-mismatched jump ladder the zebra line
// smoother unlocks), SIMPLE parity between the multigrid and SOR pressure
// solvers on uniform and composite meshes, the jump-face flux-conservation
// invariant of the matched corrector, and bitwise determinism across
// thread counts with multigrid engaged.
#include <gtest/gtest.h>

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
using adarnet::solver::PressureMg;
using adarnet::solver::PressureSolver;
using adarnet::solver::RansSolver;
using adarnet::solver::SolveStats;
using adarnet::solver::SolverConfig;

GridPreset tiny_preset() { return GridPreset{16, 64, 8, 8}; }

SolverConfig quick_config(PressureSolver ps) {
  SolverConfig cfg;
  cfg.max_outer = 4000;
  cfg.tol = 5e-4;
  cfg.pressure_solver = ps;
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

// Linear-solve harness: unit momentum diagonal (d = vol), pseudo-random
// right-hand side, one PressureMg solve to `tol` with a generous cycle cap.
// `x_out` (optional) receives the returned iterate, ghosts included.
adarnet::solver::MgSolveInfo solve_linear(const CompositeMesh& mesh,
                                          double tol, int max_cycles,
                                          CompositeScalar* x_out = nullptr) {
  SolverConfig cfg;
  cfg.mg_tol = tol;
  cfg.mg_max_cycles = max_cycles;
  PressureMg mg(mesh, cfg);
  EXPECT_GE(mg.depth(), 2) << "ladder did not coarsen; the test is vacuous";

  CompositeScalar ap = adarnet::mesh::make_scalar(mesh);
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const auto& p = mesh.patch_flat(k);
    for (int i = 1; i <= p.ny; ++i) {
      for (int j = 1; j <= p.nx; ++j) ap[k](i, j) = 1.0;
    }
  }
  mg.set_coefficients(ap);

  // Zero RHS inside solids (a solid cell's p' equation is x = 0).
  CompositeScalar imb = adarnet::mesh::make_scalar(mesh);
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const auto& p = mesh.patch_flat(k);
    fill_interior(imb[k], p.ny, p.nx, 17u * (k + 1));
    for (int i = 1; i <= p.ny; ++i) {
      for (int j = 1; j <= p.nx; ++j) {
        if (p.solid(i, j)) imb[k](i, j) = 0.0;
      }
    }
  }
  CompositeScalar x = adarnet::mesh::make_scalar(mesh);
  const auto info = mg.solve(x, imb);
  if (x_out != nullptr) *x_out = x;
  return info;
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
    mg_restrict_patch(u, sh.fny, sh.fnx, ru, sh.cny, sh.cnx,
                      /*open_s=*/false, /*open_n=*/false, /*open_w=*/false,
                      /*open_e=*/false, sh.dirichlet_e);

    Grid2Dd pv(sh.fny + 2, sh.fnx + 2);
    mg_prolong_add_patch(v, sh.cny, sh.cnx, pv, sh.fny, sh.fnx,
                         /*fine_solid=*/nullptr,
                         /*open_s=*/false, /*open_n=*/false, /*open_w=*/false,
                         /*open_e=*/false, sh.dirichlet_e);

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

// SIMPLE parity on the uniform channel: the multigrid pressure solve must
// reach the same outer tolerance without inflating the iteration count
// (it should deflate it — each outer step gets a deeper p' reduction).
TEST(PressureMgSimple, ParityWithSorOnChannel) {
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));

  auto f_sor = adarnet::mesh::make_field(mesh);
  RansSolver sor(mesh, quick_config(PressureSolver::kSor));
  sor.initialize_freestream(f_sor);
  const auto s_sor = sor.solve(f_sor);
  ASSERT_TRUE(s_sor.converged) << "residual=" << s_sor.residual;

  auto f_mg = adarnet::mesh::make_field(mesh);
  RansSolver mg(mesh, quick_config(PressureSolver::kMultigrid));
  mg.initialize_freestream(f_mg);
  const auto s_mg = mg.solve(f_mg);
  ASSERT_TRUE(s_mg.converged) << "residual=" << s_mg.residual;

  EXPECT_LE(s_mg.iterations, 1.6 * s_sor.iterations)
      << "mg=" << s_mg.iterations << " sor=" << s_sor.iterations;
}

// SIMPLE parity on a body case (immersed solid cells + symmetry
// boundaries): a fixed iteration budget must end at a comparable residual.
TEST(PressureMgSimple, ParityWithSorOnCylinder) {
  auto spec = adarnet::data::cylinder_case(1e5, GridPreset{32, 32, 8, 8});
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));

  SolverConfig sor_cfg = quick_config(PressureSolver::kSor);
  sor_cfg.max_outer = 600;
  auto f_sor = adarnet::mesh::make_field(mesh);
  const auto s_sor = run_iterations(mesh, sor_cfg, f_sor, 600);

  SolverConfig mg_cfg = sor_cfg;
  mg_cfg.pressure_solver = PressureSolver::kMultigrid;
  auto f_mg = adarnet::mesh::make_field(mesh);
  const auto s_mg = run_iterations(mesh, mg_cfg, f_mg, 600);

  ASSERT_FALSE(s_sor.diverged);
  ASSERT_FALSE(s_mg.diverged);
  EXPECT_LT(s_mg.residual, 3.0 * s_sor.residual + 1e-12)
      << "mg=" << s_mg.residual << " sor=" << s_sor.residual;
}

// SIMPLE parity on the centrally-refined channel: with the SOR fallback
// deleted, a multigrid-configured solver really runs V-cycles on the
// composite mesh — and must end a fixed iteration budget at a residual
// comparable to the SOR reference (both solve the same flux-matched p'
// equation; only the linear solver differs).
TEST(PressureMgSimple, ParityWithSorOnCoreRefinedChannel) {
  auto spec = adarnet::data::channel_case(2.5e3, jump_preset());
  CompositeMesh mesh = core_refined_channel_mesh(spec);

  SolverConfig sor_cfg = quick_config(PressureSolver::kSor);
  auto f_sor = adarnet::mesh::make_field(mesh);
  const auto s_sor = run_iterations(mesh, sor_cfg, f_sor, 400);

  SolverConfig mg_cfg = quick_config(PressureSolver::kMultigrid);
  auto f_mg = adarnet::mesh::make_field(mesh);
  const auto s_mg = run_iterations(mesh, mg_cfg, f_mg, 400);

  ASSERT_FALSE(s_sor.diverged);
  ASSERT_FALSE(s_mg.diverged);
  EXPECT_LT(s_mg.residual, 3.0 * s_sor.residual + 1e-12)
      << "mg=" << s_mg.residual << " sor=" << s_sor.residual;
}

// Same parity contract on the refined cylinder (immersed solid cells,
// jumps in both directions, near-isotropic cells: map-lowering rungs).
TEST(PressureMgSimple, ParityWithSorOnRefinedCylinder) {
  CompositeMesh mesh = refined_cylinder_mesh();

  SolverConfig sor_cfg = quick_config(PressureSolver::kSor);
  auto f_sor = adarnet::mesh::make_field(mesh);
  const auto s_sor = run_iterations(mesh, sor_cfg, f_sor, 400);

  SolverConfig mg_cfg = quick_config(PressureSolver::kMultigrid);
  auto f_mg = adarnet::mesh::make_field(mesh);
  const auto s_mg = run_iterations(mesh, mg_cfg, f_mg, 400);

  ASSERT_FALSE(s_sor.diverged);
  ASSERT_FALSE(s_mg.diverged);
  EXPECT_LT(s_mg.residual, 3.0 * s_sor.residual + 1e-12)
      << "mg=" << s_mg.residual << " sor=" << s_sor.residual;
}

// The corrector's jump-face mass-conservation invariant: after the
// post-corrector face pass, every coarse interface face velocity equals
// the mean of the fine faces covering it — to the bit, because the
// corrector recomputes the coarse face from the corrected fine subfaces
// with the checker's own summation order (solver/rans.cpp). Checked on
// both composite scenario shapes and under both pressure solvers.
TEST(PressureMgSimple, JumpFaceFluxConservedAfterCorrector) {
  auto spec = adarnet::data::channel_case(2.5e3, jump_preset());
  const CompositeMesh meshes[] = {core_refined_channel_mesh(spec),
                                  refined_cylinder_mesh()};
  for (const CompositeMesh& mesh : meshes) {
    for (PressureSolver ps :
         {PressureSolver::kMultigrid, PressureSolver::kSor}) {
      RansSolver solver(mesh, quick_config(ps));
      auto f = adarnet::mesh::make_field(mesh);
      solver.initialize_freestream(f);
      const auto stats = solver.iterate(f, 25);
      ASSERT_FALSE(stats.diverged);
      EXPECT_EQ(interface_flux_mismatch(mesh, solver.corrected_face_u(),
                                        solver.corrected_face_v()),
                0.0)
          << "solver=" << (ps == PressureSolver::kSor ? "sor" : "mg");
    }
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
// rungs above compiled flattened ones, ratio-1 jump sides), and the
// shrink-2 channel, whose 4096-cell fine rung runs the compiled schedule
// thread-parallel. On x86-64 without FMA, each 1-thread result must also
// hash to the bits recorded at commit 3cbbc38, which pins the ratio-1 jump
// faces' fine- and coarse-side arithmetic too. Elsewhere the compiler may
// contract b += r * x into FMAs, which rounds differently, so the hashes
// are only asserted where they were recorded.
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
  };
  [[maybe_unused]] const std::uint64_t recorded[] = {
      0x546c98952f61dc3eull, 0x3b3a5703803ba937ull, 0x652ac2ab82f18178ull,
      0x394994c5ae002a17ull};
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
    SolverConfig cfg;
    cfg.mg_max_cycles = 1;
    PressureMg mg(mesh, cfg);
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
    const bool outlet = true;
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
              adarnet::solver::assemble_pressure_cell<false>(
                  pm, dp[k], X, b[k](i, j), outlet, mesh.npx(), mesh.npy(),
                  {}, i, j, &apc, &rhs);
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
  const int saved = omp_get_max_threads();

  omp_set_num_threads(1);
  auto f1 = adarnet::mesh::make_field(mesh);
  const auto s1 =
      run_iterations(mesh, quick_config(PressureSolver::kMultigrid), f1, 30);

  for (int nt : {2, 4, 8}) {
    omp_set_num_threads(nt);
    auto fn = adarnet::mesh::make_field(mesh);
    const auto sn =
        run_iterations(mesh, quick_config(PressureSolver::kMultigrid), fn, 30);
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
  const int saved = omp_get_max_threads();

  omp_set_num_threads(1);
  auto f1 = adarnet::mesh::make_field(mesh);
  const auto s1 =
      run_iterations(mesh, quick_config(PressureSolver::kMultigrid), f1, 30);

  for (int nt : {2, 4}) {
    omp_set_num_threads(nt);
    auto fn = adarnet::mesh::make_field(mesh);
    const auto sn =
        run_iterations(mesh, quick_config(PressureSolver::kMultigrid), fn, 30);
    EXPECT_EQ(s1.residual, sn.residual) << "threads=" << nt;
    EXPECT_TRUE(fields_identical(f1, fn)) << "threads=" << nt;
  }
  omp_set_num_threads(saved);
}
#endif  // _OPENMP
