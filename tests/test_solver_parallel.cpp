// Determinism, parity, and profiling tests for the thread-parallel
// red-black SIMPLE solver (DESIGN.md §8): bitwise-identical results across
// thread counts, convergence parity with the recorded lexicographic
// numbers, read-only residual evaluation, workspace reuse, and the
// per-phase timing breakdown.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "data/cases.hpp"
#include "mesh/composite.hpp"
#include "solver/rans.hpp"

namespace {

using adarnet::data::GridPreset;
using adarnet::mesh::CompositeField;
using adarnet::mesh::CompositeMesh;
using adarnet::mesh::RefinementMap;
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

// Non-uniform composite mesh: wall patch rows refined (mixed patch sizes
// exercise the row-level load balancing and the level-jump reflux).
CompositeMesh mixed_channel_mesh(const adarnet::mesh::CaseSpec& spec) {
  RefinementMap map(spec.npy(), spec.npx(), 0);
  for (int pj = 0; pj < spec.npx(); ++pj) {
    map.set_level(0, pj, 1);
    map.set_level(spec.npy() - 1, pj, 1);
  }
  return CompositeMesh(spec, map);
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

}  // namespace

#ifdef _OPENMP
// The tentpole guarantee: red-black coloring makes the parallel sweeps
// deterministic, so SolveStats.residual and every field value are bitwise
// identical for OMP_NUM_THREADS=1 vs 3 and 4 (unlike naively parallelised
// lexicographic Gauss-Seidel, whose result depends on the thread
// interleaving). At 4 threads the mesh's 256 rows split into chunks of
// exactly 4 patches, so no thread reads a row another thread writes; 3
// threads split patches, which exposes an in-place sweep that is not
// colour-safe.
TEST(ParallelSolver, BitwiseIdenticalAcrossThreadCounts) {
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh = mixed_channel_mesh(spec);
  const int saved = omp_get_max_threads();

  omp_set_num_threads(1);
  auto f1 = adarnet::mesh::make_field(mesh);
  const auto s1 = run_iterations(mesh, quick_config(), f1, 30);

  for (int threads : {3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    omp_set_num_threads(threads);
    auto fn = adarnet::mesh::make_field(mesh);
    const auto sn = run_iterations(mesh, quick_config(), fn, 30);
    EXPECT_EQ(s1.iterations, sn.iterations);
    EXPECT_EQ(s1.residual, sn.residual);  // exact, not NEAR
    EXPECT_TRUE(fields_identical(f1, fn));
  }

  omp_set_num_threads(saved);
}

// Oversubscription (more threads than row work items on the coarse
// patches) must not change the result either.
TEST(ParallelSolver, BitwiseIdenticalWhenOversubscribed) {
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));
  const int saved = omp_get_max_threads();

  omp_set_num_threads(1);
  auto f1 = adarnet::mesh::make_field(mesh);
  run_iterations(mesh, quick_config(), f1, 10);

  omp_set_num_threads(13);  // deliberately odd, > 2 * patch rows
  auto fn = adarnet::mesh::make_field(mesh);
  run_iterations(mesh, quick_config(), fn, 10);

  omp_set_num_threads(saved);
  EXPECT_TRUE(fields_identical(f1, fn));
}
#endif  // _OPENMP

// The classic serial lexicographic Gauss-Seidel ordering, run on the two
// parity meshes below before it was removed (the 1024-cell meshes run the
// multigrid serially, so these are thread-count independent): the channel
// converged in 767 iterations (red-black: 774), and the cylinder ended its
// 600 iterations at residual 1.880479e-3 (red-black: 2.303451e-3).
constexpr int kLexChannelIterations = 767;
constexpr double kLexCylinderResidual = 1.880479e-3;

// Parity: red-black sweeps converge the seed channel case to the same
// tolerance in a comparable iteration count as the classic lexicographic
// ordering did (coloring reorders the updates but must not degrade SIMPLE).
TEST(ParallelSolver, RedBlackMatchesLexicographicConvergence) {
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));

  RansSolver solver_rb(mesh, quick_config());
  auto f_rb = adarnet::mesh::make_field(mesh);
  solver_rb.initialize_freestream(f_rb);
  const auto stats_rb = solver_rb.solve(f_rb);
  ASSERT_TRUE(stats_rb.converged) << "residual=" << stats_rb.residual;

  // Comparable cost: within 60% of each other in either direction.
  EXPECT_LT(stats_rb.iterations, 1.6 * kLexChannelIterations)
      << "rb=" << stats_rb.iterations << " lex=" << kLexChannelIterations;
  EXPECT_LT(kLexChannelIterations, 1.6 * stats_rb.iterations)
      << "rb=" << stats_rb.iterations << " lex=" << kLexChannelIterations;
}

// Parity on a body case (immersed solid cells + symmetry boundaries).
TEST(ParallelSolver, RedBlackMatchesLexicographicOnCylinder) {
  auto spec = adarnet::data::cylinder_case(1e5, GridPreset{32, 32, 8, 8});
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));

  SolverConfig rb = quick_config();
  rb.max_outer = 600;
  auto f_rb = adarnet::mesh::make_field(mesh);
  const auto stats_rb = run_iterations(mesh, rb, f_rb, 600);

  ASSERT_FALSE(stats_rb.diverged);
  // Same fixed iteration budget ends at a comparable residual level.
  EXPECT_LT(stats_rb.residual, 3.0 * kLexCylinderResidual + 1e-12)
      << "rb=" << stats_rb.residual << " lex=" << kLexCylinderResidual;
}

// residuals() evaluates the state read-only: no sweeps, no copy, and the
// field — ghosts included — is bitwise untouched.
TEST(ParallelSolver, ResidualsIsReadOnly) {
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh = mixed_channel_mesh(spec);
  RansSolver solver(mesh, quick_config());
  auto f = adarnet::mesh::make_field(mesh);
  solver.initialize_freestream(f);
  solver.iterate(f, 20);

  const CompositeField snapshot = f;
  const auto res = solver.residuals(f);
  EXPECT_TRUE(fields_identical(snapshot, f));
  EXPECT_TRUE(std::isfinite(res.combined()));
  EXPECT_GT(res.combined(), 0.0);

  // The evaluation agrees with the residual the next iteration measures
  // (same defect formula, evaluated at the same state) within the drift
  // of one outer iteration.
  const auto stats = solver.iterate(f, 1);
  EXPECT_NEAR(std::log10(res.combined()), std::log10(stats.residual), 1.0);
}

// A converged state must evaluate as converged.
TEST(ParallelSolver, ResidualsAgreesWithConvergedSolve) {
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));
  SolverConfig cfg = quick_config();
  RansSolver solver(mesh, cfg);
  auto f = adarnet::mesh::make_field(mesh);
  solver.initialize_freestream(f);
  const auto stats = solver.solve(f);
  ASSERT_TRUE(stats.converged);
  // One more sweep moves a converged state very little, so the steady
  // defect stays within an order of magnitude of the target.
  EXPECT_LT(solver.residuals(f).combined(), 10.0 * cfg.tol);
}

// The cached workspace must not leak state between calls: two back-to-back
// iterate() calls give exactly the same trajectory as one combined call.
TEST(ParallelSolver, WorkspaceReuseIsStateless) {
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh = mixed_channel_mesh(spec);

  RansSolver split(mesh, quick_config());
  auto f_split = adarnet::mesh::make_field(mesh);
  split.initialize_freestream(f_split);
  split.iterate(f_split, 7);
  split.iterate(f_split, 13);

  RansSolver whole(mesh, quick_config());
  auto f_whole = adarnet::mesh::make_field(mesh);
  whole.initialize_freestream(f_whole);
  whole.iterate(f_whole, 20);

  EXPECT_TRUE(fields_identical(f_split, f_whole));
}

// Phase timings: every phase non-negative, the breakdown accounts for the
// bulk of the solve, and it never exceeds the wall time.
TEST(ParallelSolver, PhaseTimesCoverTheSolve) {
  auto spec = adarnet::data::channel_case(2.5e3, tiny_preset());
  CompositeMesh mesh = mixed_channel_mesh(spec);
  RansSolver solver(mesh, quick_config());
  auto f = adarnet::mesh::make_field(mesh);
  solver.initialize_freestream(f);
  const auto stats = solver.iterate(f, 30);

  const auto& ph = stats.phase_seconds;
  EXPECT_GE(ph.momentum, 0.0);
  EXPECT_GE(ph.rhie_chow, 0.0);
  EXPECT_GE(ph.pressure, 0.0);
  EXPECT_GE(ph.sa, 0.0);
  EXPECT_GE(ph.ghosts, 0.0);
  EXPECT_GT(ph.total(), 0.0);
  // Timer scopes nest inside the solve: the sum cannot exceed wall time
  // (allow a sliver of clock granularity).
  EXPECT_LE(ph.total(), stats.seconds * 1.02 + 1e-6);
  // The five phases are the solver: expect them to cover most of the wall.
  EXPECT_GT(ph.total(), 0.5 * stats.seconds);
  // The p' solve (multigrid V-cycles by default) runs every iteration.
  EXPECT_GT(ph.pressure, 0.0);
}
