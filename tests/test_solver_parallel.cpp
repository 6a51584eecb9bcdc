// Determinism, parity, and profiling tests for the thread-parallel
// red-black SIMPLE solver (DESIGN.md §8): bitwise-identical results across
// thread counts, forks only on meshes above mesh::kParallelCellFloor,
// convergence parity with the recorded lexicographic numbers, read-only
// residual evaluation, workspace reuse, the per-phase timing breakdown,
// and the SA colour lanes against the per-cell kernel they replaced.
//
// Meshes below the floor run every loop on the calling thread at any
// thread count, so every thread-count test asserts mesh.parallel() on its
// input: comparing a serial run with itself would prove nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "data/cases.hpp"
#include "mesh/composite.hpp"
#include "solver/rans.hpp"
#include "solver/sa_lanes.hpp"
#include "solver/sa_model.hpp"
#include "solver/sweep.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using adarnet::data::GridPreset;
using adarnet::field::Grid2Dd;
using adarnet::mesh::CompositeField;
using adarnet::mesh::CompositeMesh;
using adarnet::mesh::PatchMesh;
using adarnet::mesh::RefinementMap;
using adarnet::solver::RansSolver;
using adarnet::solver::SaLanes;
using adarnet::solver::SaParams;
using adarnet::solver::SolveStats;
using adarnet::solver::SolverConfig;
using adarnet::solver::sweep::RowRef;
namespace sa = adarnet::solver::sa;

GridPreset tiny_preset() { return GridPreset{16, 64, 8, 8}; }

// Four patch rows, so refining the wall rows leaves the two core rows
// coarse and the mesh has level jumps in y. (With the tiny 2-row preset,
// refining both wall rows would refine every patch.)
GridPreset jump_preset() { return GridPreset{32, 64, 8, 8}; }

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
  EXPECT_TRUE(map.has_jump_in_y()) << "preset too small: no level jump";
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

// --- Oracle: the per-cell SA kernel and row loops SaLanes replaced ----------

// SA transport coefficients and sources of one fluid cell, as the row
// kernel assembled them for both the Gauss-Seidel update and the defect.
struct SaCell {
  double ae = 0, aw = 0, an = 0, as = 0;
  double destr = 0;   // implicitly linearised destruction (diagonal)
  double a_time = 0;  // pseudo-transient diagonal term
  double production = 0;
  double cross = 0;   // cb2/sigma |grad nt|^2 (explicit)
  double nb_sum = 0;  // sum of a_nb * neighbour values

  [[nodiscard]] double sum_a() const { return ae + aw + an + as + destr; }
};

inline SaCell sa_cell(const Grid2Dd& U, const Grid2Dd& V, const Grid2Dd& NT,
                      double nu, double u_ref, double pseudo_cfl, double dx,
                      double dy, double d_wall, int i, int j) {
  SaCell c;
  const double vol = dx * dy;
  // Convection fluxes (upwind).
  const double fe = 0.5 * (U(i, j) + U(i, j + 1)) * dy;
  const double fw_ = 0.5 * (U(i, j) + U(i, j - 1)) * dy;
  const double fn = 0.5 * (V(i, j) + V(i + 1, j)) * dx;
  const double fs = 0.5 * (V(i, j) + V(i - 1, j)) * dx;
  // Diffusion (nu + nuTilda) / sigma at faces.
  auto dface = [&](double nt_a, double nt_b, double len_over) {
    const double nt_face = 0.5 * (std::max(nt_a, 0.0) + std::max(nt_b, 0.0));
    return (nu + nt_face) / sa::kSigma * len_over;
  };
  const double de = dface(NT(i, j), NT(i, j + 1), dy / dx);
  const double dw = dface(NT(i, j), NT(i, j - 1), dy / dx);
  const double dn = dface(NT(i, j), NT(i + 1, j), dx / dy);
  const double ds = dface(NT(i, j), NT(i - 1, j), dx / dy);
  c.ae = de + std::max(-fe, 0.0);
  c.aw = dw + std::max(fw_, 0.0);
  c.an = dn + std::max(-fn, 0.0);
  c.as = ds + std::max(fs, 0.0);

  // Sources.
  const double nt_here = std::max(NT(i, j), 0.0);
  const double dudy = (U(i + 1, j) - U(i - 1, j)) / (2.0 * dy);
  const double dvdx = (V(i, j + 1) - V(i, j - 1)) / (2.0 * dx);
  const double vort = std::abs(dvdx - dudy);
  const double st = sa::s_tilde(vort, nt_here, nu, d_wall);
  c.production = sa::kCb1 * st * nt_here * vol;
  const double r = sa::r_param(nt_here, st, d_wall);
  const double fw_fn = sa::fw(sa::g_param(r));
  // Destruction linearised implicitly: cw1 fw (nt/d)^2 =
  // [cw1 fw nt/d^2] * nt -> goes to the diagonal.
  c.destr = sa::cw1() * fw_fn * nt_here / (d_wall * d_wall) * vol;
  // cb2/sigma |grad nt|^2 (explicit).
  const double dntdx = (NT(i, j + 1) - NT(i, j - 1)) / (2.0 * dx);
  const double dntdy = (NT(i + 1, j) - NT(i - 1, j)) / (2.0 * dy);
  c.cross =
      sa::kCb2 / sa::kSigma * (dntdx * dntdx + dntdy * dntdy) * vol;

  const double speed =
      std::abs(U(i, j)) + std::abs(V(i, j)) + 0.3 * std::abs(u_ref) + 1e-30;
  const double dt = pseudo_cfl * std::min(dx, dy) / speed;
  c.a_time = vol / dt;
  c.nb_sum = c.ae * NT(i, j + 1) + c.aw * NT(i, j - 1) +
             c.an * NT(i + 1, j) + c.as * NT(i - 1, j);
  return c;
}

// True steady SA defect of one cell, normalised by the diagonal times a
// turbulence scale.
inline double sa_defect(const SaCell& c, double nt, double nu,
                        double nt_inflow) {
  const double nt_ref = std::max({nt_inflow, 3.0 * nu, nt});
  return std::abs(c.nb_sum + c.production + c.cross - c.sum_a() * nt) /
         (c.sum_a() * nt_ref);
}

// One colour's half-sweep, the solver's former row kernel (run serially).
void oracle_half_sweep(const CompositeMesh& mesh,
                       const std::vector<RowRef>& rows, CompositeField& f,
                       int color, const SaParams& p, bool measure,
                       std::vector<double>& acc_a,
                       std::vector<double>& acc_b) {
  adarnet::solver::sweep::run_half_sweep(
      rows, color, /*parallel=*/false,
      [&](int r, int k, int i, int color) {
        const PatchMesh& pm = mesh.patch_flat(k);
        const Grid2Dd& U = f.U[k];
        const Grid2Dd& V = f.V[k];
        Grid2Dd& NT = f.nuTilda[k];
        const double dx = pm.dx;
        const double dy = pm.dy;
        double acc = 0.0;
        double scale = 0.0;
        for (int j = adarnet::solver::sweep::color_j0(i, color); j <= pm.nx;
             j += 2) {
          if (pm.solid(i, j)) {
            NT(i, j) = 0.0;
            continue;
          }
          const SaCell c = sa_cell(U, V, NT, p.nu, p.u_ref, p.pseudo_cfl, dx,
                                   dy, pm.wall_dist(i, j), i, j);
          const double ap =
              std::max(c.sum_a() + c.a_time, 1e-30) / p.alpha_nt;
          const double relax = (1.0 - p.alpha_nt) * ap + c.a_time;
          const double old = NT(i, j);
          if (measure) {
            acc += sa_defect(c, old, p.nu, p.nt_inflow);
            scale += 1.0;
          }
          double fresh =
              (c.nb_sum + c.production + c.cross + relax * old) / ap;
          fresh = std::max(fresh, 0.0);
          NT(i, j) = fresh;
        }
        if (measure) {
          acc_a[r] += acc;
          acc_b[r] += scale;
        }
      });
}

// The read-only defect scan of RansSolver::residuals(), row by row.
void oracle_defect_rows(const CompositeMesh& mesh,
                        const std::vector<RowRef>& rows,
                        const CompositeField& f, const SaParams& p,
                        std::vector<double>& acc_a,
                        std::vector<double>& acc_b) {
  adarnet::solver::sweep::run_scan(
      rows, /*parallel=*/false,
      [&](int r, int k, int i) {
        const PatchMesh& pm = mesh.patch_flat(k);
        const Grid2Dd& U = f.U[k];
        const Grid2Dd& V = f.V[k];
        const Grid2Dd& NT = f.nuTilda[k];
        double acc = 0.0;
        double scale = 0.0;
        for (int j = 1; j <= pm.nx; ++j) {
          if (pm.solid(i, j)) continue;
          const SaCell c = sa_cell(U, V, NT, p.nu, p.u_ref, p.pseudo_cfl,
                                   pm.dx, pm.dy, pm.wall_dist(i, j), i, j);
          acc += sa_defect(c, NT(i, j), p.nu, p.nt_inflow);
          scale += 1.0;
        }
        acc_a[r] = acc;
        acc_b[r] = scale;
      });
}

// Random U, V and nuTilda everywhere, ghosts included, with about 15%
// negative nuTilda.
void randomise(const CompositeMesh& mesh, CompositeField& f,
               std::uint64_t seed) {
  adarnet::util::Rng rng(seed);
  const double nu = mesh.spec().nu;
  const double u = mesh.spec().bc.left.u;
  for (int k = 0; k < mesh.patch_count(); ++k) {
    for (std::size_t n = 0; n < f.U[k].size(); ++n) {
      f.U[k][n] = rng.uniform(-1.5, 1.5) * u;
      f.V[k][n] = rng.uniform(-0.5, 0.5) * u;
      const double mag = nu * std::pow(10.0, rng.uniform(-2.0, 3.0));
      f.nuTilda[k][n] = rng.uniform(0.0, 1.0) < 0.15 ? -mag : mag;
    }
  }
}

// Every nuTilda value of every patch, ghosts included.
std::vector<double> all_nu_tilda(const CompositeField& f) {
  std::vector<double> nt;
  for (const auto& g : f.nuTilda) nt.insert(nt.end(), g.begin(), g.end());
  return nt;
}

::testing::AssertionResult same_bits(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "size";
  for (std::size_t n = 0; n < a.size(); ++n) {
    if (std::memcmp(&a[n], &b[n], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "row " << n << ": " << a[n] << " != " << b[n];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

#ifdef _OPENMP
// The tentpole guarantee: red-black coloring makes the parallel sweeps
// deterministic, so SolveStats.residual and every field value are bitwise
// identical for OMP_NUM_THREADS=1 vs 3 and 4 (unlike naively parallelised
// lexicographic Gauss-Seidel, whose result depends on the thread
// interleaving). The mixed channel's sweeps, reflux and p' solve cross
// level jumps; its 384 rows split at patch boundaries at 3 and 4
// threads, so no thread reads a row another thread writes. The cylinder
// (2 x 2-cell patches around a solid, 2,500 cells, 1,250 rows) splits a
// patch at 3 and at 4 threads (the first thread takes 417, resp. 313
// rows), which exposes an in-place sweep that is not colour-safe, and is
// the mesh class whose SA sweeps run many patches per lane block.
TEST(ParallelSolver, BitwiseIdenticalAcrossThreadCounts) {
  auto channel = adarnet::data::channel_case(2.5e3, jump_preset());
  auto cylinder = adarnet::data::cylinder_case(1e5, GridPreset{50, 50, 2, 2});
  const CompositeMesh meshes[] = {
      mixed_channel_mesh(channel),
      CompositeMesh(cylinder,
                    RefinementMap(cylinder.npy(), cylinder.npx(), 0))};
  const int saved = omp_get_max_threads();

  for (const CompositeMesh& mesh : meshes) {
    SCOPED_TRACE(mesh.spec().name);
    ASSERT_TRUE(mesh.parallel()) << mesh.active_cells() << " cells";
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
  }

  omp_set_num_threads(saved);
}

// Oversubscription (more threads than row work items on the coarse
// patches) must not change the result either. The uniform 32 x 64 channel
// has exactly kParallelCellFloor cells.
TEST(ParallelSolver, BitwiseIdenticalWhenOversubscribed) {
  auto spec = adarnet::data::channel_case(2.5e3, jump_preset());
  CompositeMesh mesh(spec, RefinementMap(spec.npy(), spec.npx(), 0));
  ASSERT_TRUE(mesh.parallel()) << mesh.active_cells() << " cells";
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

// Forks happen only on meshes above the cell floor: at 4 threads, ten
// outer iterations and a residual evaluation on the shrink-8 cylinder and
// channel LR meshes (256 cells each) open no OpenMP team, and the
// same calls on the mixed channel (5,120 cells) open some. Every fork goes
// through mesh::parallel_region, which counts it in
// solver.parallel.regions.
TEST(ParallelSolver, ForksOnlyAboveTheCellFloor) {
  namespace ad = adarnet::data;
  namespace metrics = adarnet::util::metrics;
  const auto cylinder =
      ad::cylinder_case(1e5, ad::shrink(ad::paper_body_preset(), 8));
  const auto channel =
      ad::channel_case(2.5e3, ad::shrink(ad::paper_wall_preset(), 8));
  const CompositeMesh below[] = {
      CompositeMesh(cylinder,
                    RefinementMap(cylinder.npy(), cylinder.npx(), 0)),
      CompositeMesh(channel, RefinementMap(channel.npy(), channel.npx(), 0))};
  const CompositeMesh above =
      mixed_channel_mesh(ad::channel_case(2.5e3, jump_preset()));

  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  const metrics::Counter& regions =
      metrics::counter("solver.parallel.regions");
  auto forks = [&](const CompositeMesh& mesh) {
    const long long before = regions.value();
    RansSolver solver(mesh, quick_config());
    auto f = adarnet::mesh::make_field(mesh);
    solver.initialize_freestream(f);
    const SolveStats stats = solver.iterate(f, 10);
    EXPECT_EQ(stats.iterations, 10);
    EXPECT_TRUE(std::isfinite(solver.residuals(f).combined()));
    return regions.value() - before;
  };
  for (const CompositeMesh& mesh : below) {
    SCOPED_TRACE(mesh.spec().name);
    EXPECT_FALSE(mesh.parallel()) << mesh.active_cells() << " cells";
    EXPECT_EQ(forks(mesh), 0);
  }
  EXPECT_TRUE(above.parallel()) << above.active_cells() << " cells";
  EXPECT_GT(forks(above), 0);
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  metrics::set_enabled(was_enabled);
}

// FNV-1a over the bytes of every composite scalar passed, ghosts included.
std::uint64_t fnv1a(std::uint64_t h, const adarnet::mesh::CompositeScalar& s) {
  for (const Grid2Dd& g : s) {
    const auto* p = reinterpret_cast<const unsigned char*>(g.data());
    for (std::size_t n = 0; n < g.size() * sizeof(double); ++n) {
      h = (h ^ p[n]) * 1099511628211ull;
    }
  }
  return h;
}

// Whole composite outer iterations, pinned to the bit: 30 iterations from
// freestream on the mixed channel (y jumps), the refined cylinder (x and
// y jumps next to solids) and a shrink-8 NACA0012 on a seeded random
// level 0-3 map (ratio-8 faces), hashing U, V, p, nuTilda and both
// corrected face arrays (ghosts included) plus the residual's bits. Every
// thread count must give the 1-thread bits. The cylinder has 1,792 cells,
// below mesh::kParallelCellFloor, so it runs serially at every thread
// count and its hash pins the serial schedule; the other two meshes fork. On x86-64 without FMA, the
// hashes must also be the ones recorded at commit d38457b, whose boundary
// ghost, reflux, face-correction and jump-stencil walks spelled out every
// patch side by hand; elsewhere the compiler may contract multiply-adds,
// so they are only asserted there.
TEST(ParallelSolver, CompositeIterationsMatchRecordedBits) {
  namespace ad = adarnet::data;
  std::vector<CompositeMesh> meshes;
  {
    const auto spec = ad::channel_case(2.5e3, GridPreset{32, 64, 8, 8});
    meshes.push_back(mixed_channel_mesh(spec));
  }
  {
    const auto spec = ad::cylinder_case(1e5, GridPreset{32, 32, 8, 8});
    RefinementMap map(spec.npy(), spec.npx(), 0);
    for (int pi = 1; pi <= 2; ++pi) {
      for (int pj = 1; pj <= 2; ++pj) map.set_level(pi, pj, 1);
    }
    meshes.emplace_back(spec, map);
  }
  {
    const auto spec =
        ad::naca0012_case(1e5, ad::shrink(ad::paper_body_preset(), 8));
    RefinementMap map(spec.npy(), spec.npx(), 0);
    unsigned r = 2023;  // LCG: the same map on every platform
    for (int pi = 0; pi < map.npy(); ++pi) {
      for (int pj = 0; pj < map.npx(); ++pj) {
        r = r * 1664525u + 1013904223u;
        map.set_level(pi, pj, static_cast<int>(r >> 30));
      }
    }
    meshes.emplace_back(spec, map);
  }
  bool ratio8 = false;
  const RefinementMap& rmap = meshes.back().map();
  for (int pi = 0; pi < rmap.npy(); ++pi) {
    for (int pj = 0; pj + 1 < rmap.npx(); ++pj) {
      ratio8 |= std::abs(rmap.level(pi, pj) - rmap.level(pi, pj + 1)) == 3;
    }
  }
  EXPECT_TRUE(ratio8) << "the random map has no ratio-8 face";
  [[maybe_unused]] const std::uint64_t recorded[] = {
      0x198fa65b32dc6f60ull, 0xd97d33793111cb35ull, 0xe405ea5d6c8dace1ull};

  auto run_hash = [](const CompositeMesh& mesh) {
    RansSolver solver(mesh, quick_config());
    auto f = adarnet::mesh::make_field(mesh);
    solver.initialize_freestream(f);
    const SolveStats stats = solver.iterate(f, 30);
    EXPECT_EQ(stats.iterations, 30);
    EXPECT_TRUE(std::isfinite(stats.residual));
    std::uint64_t h = 14695981039346656037ull;
    for (int c = 0; c < 4; ++c) h = fnv1a(h, f.channel(c));
    h = fnv1a(h, solver.corrected_face_u());
    h = fnv1a(h, solver.corrected_face_v());
    unsigned char bits[sizeof(double)];
    std::memcpy(bits, &stats.residual, sizeof(double));
    for (unsigned char b : bits) h = (h ^ b) * 1099511628211ull;
    return h;
  };

#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  const int thread_counts[] = {1, 3, saved};
#else
  const int thread_counts[] = {1};
#endif
  for (std::size_t m = 0; m < meshes.size(); ++m) {
    SCOPED_TRACE(meshes[m].spec().name + " mesh " + std::to_string(m));
    std::uint64_t first = 0;
    for (int threads : thread_counts) {
#ifdef _OPENMP
      omp_set_num_threads(threads);
#endif
      const std::uint64_t h = run_hash(meshes[m]);
      if (threads == 1) first = h;
      EXPECT_EQ(h, first) << "threads=" << threads;
#if defined(__x86_64__) && !defined(__FMA__)
      EXPECT_EQ(h, recorded[m]) << "threads=" << threads << ": 0x" << std::hex
                                << h;
#endif
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

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
  auto spec = adarnet::data::channel_case(2.5e3, jump_preset());
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
  auto spec = adarnet::data::channel_case(2.5e3, jump_preset());
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
  auto spec = adarnet::data::channel_case(2.5e3, jump_preset());
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

// The SA colour lanes (solver/sa_lanes.hpp) against the per-cell kernel
// and row loops they replaced: after every half-sweep of two red-black
// sweeps (the first unmeasured, the second measured, as in the solver),
// nuTilda (ghosts included) and the per-row defect partials equal the
// oracle's bit for bit, and so does the read-only defect scan, at 1, 3 and
// 4 threads. The inputs reach the paths a solve can: negative nuTilda,
// solid cells, level jumps, and lane counts one below, at and one above a
// multiple of the block size.
TEST(SaLanes, HalfSweepMatchesPerCellOracleBitwise) {
  struct Case {
    std::string name;
    CompositeMesh mesh;
  };
  const auto channel = adarnet::data::channel_case(2.5e3, jump_preset());
  const auto cylinder =
      adarnet::data::cylinder_case(1e5, GridPreset{32, 32, 8, 8});
  std::vector<Case> cases;
  cases.push_back({"mixed channel", mixed_channel_mesh(channel)});
  // The one input above the cell floor: its lane loops fork at 3 and 4
  // threads; the others pin the lane arithmetic.
  EXPECT_TRUE(cases.back().mesh.parallel());
  cases.push_back(
      {"cylinder", CompositeMesh(cylinder, RefinementMap(cylinder.npy(),
                                                         cylinder.npx(), 0))});
  // One patch each: 9 x 14, 8 x 16 and 5 x 26 cells hold 63, 64 and 65
  // cells of each colour.
  for (const GridPreset g : {GridPreset{9, 14, 9, 14}, GridPreset{8, 16, 8, 16},
                             GridPreset{5, 26, 5, 26}}) {
    const auto spec = adarnet::data::channel_case(2.5e3, g);
    cases.push_back({"channel " + std::to_string(g.base_ny) + "x" +
                         std::to_string(g.base_nx),
                     CompositeMesh(spec, RefinementMap(1, 1, 0))});
  }
  std::vector<long long> lane_counts;

#ifdef _OPENMP
  const int saved = omp_get_max_threads();
#endif
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    const CompositeMesh& mesh = c.mesh;
    const std::vector<RowRef> rows =
        adarnet::solver::sweep::interior_rows(mesh);
    const auto& spec = mesh.spec();
    const SaParams p{spec.nu, spec.bc.left.u, 2.0, 0.2, spec.bc.left.nuTilda};

    CompositeField start = adarnet::mesh::make_field(mesh);
    randomise(mesh, start, 2023);

    // The oracle, once.
    CompositeField want = start;
    std::vector<std::vector<double>> want_nt, want_a, want_b;
    std::vector<double> acc_a(rows.size(), 0.0);
    std::vector<double> acc_b(rows.size(), 0.0);
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (int colour = 0; colour < 2; ++colour) {
        oracle_half_sweep(mesh, rows, want, colour, p, sweep == 1, acc_a,
                          acc_b);
        want_nt.push_back(all_nu_tilda(want));
        want_a.push_back(acc_a);
        want_b.push_back(acc_b);
      }
    }
    std::vector<double> scan_a(rows.size()), scan_b(rows.size());
    oracle_defect_rows(mesh, rows, start, p, scan_a, scan_b);

    for (int threads : {1, 3, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
#ifdef _OPENMP
      omp_set_num_threads(threads);
#endif
      SaLanes lanes(mesh);
      if (threads == 1) {
        lane_counts.push_back(static_cast<long long>(lanes.fluid_lanes(0)));
        lane_counts.push_back(static_cast<long long>(lanes.fluid_lanes(1)));
      }
      CompositeField got = start;
      std::fill(acc_a.begin(), acc_a.end(), 0.0);
      std::fill(acc_b.begin(), acc_b.end(), 0.0);
      int step = 0;
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (int colour = 0; colour < 2; ++colour, ++step) {
          SCOPED_TRACE("sweep " + std::to_string(sweep) + " colour " +
                       std::to_string(colour));
          lanes.half_sweep(got, colour, p, sweep == 1, acc_a, acc_b);
          EXPECT_TRUE(same_bits(want_nt[step], all_nu_tilda(got)));
          EXPECT_TRUE(same_bits(want_a[step], acc_a));
          EXPECT_TRUE(same_bits(want_b[step], acc_b));
        }
      }
      std::vector<double> got_a(rows.size(), -1.0), got_b(rows.size(), -1.0);
      lanes.defect_rows(start, p, got_a, got_b);
      EXPECT_TRUE(same_bits(scan_a, got_a));
      EXPECT_TRUE(same_bits(scan_b, got_b));
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
  const long long block = SaLanes::kBlock;
  for (long long want : {2 * block - 1, 2 * block, 2 * block + 1}) {
    EXPECT_NE(std::find(lane_counts.begin(), lane_counts.end(), want),
              lane_counts.end())
        << "no mesh has " << want << " lanes of one colour";
  }
}
