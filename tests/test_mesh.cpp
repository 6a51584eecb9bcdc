// Tests for the mesh module: geometries, refinement maps, composite meshes
// and their ghost exchange / transfer operators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "data/cases.hpp"
#include "mesh/bc.hpp"
#include "mesh/composite.hpp"
#include "mesh/geometry.hpp"
#include "mesh/refinement_map.hpp"

namespace am = adarnet::mesh;
namespace ad = adarnet::data;

namespace {

// Test-only reference: the per-edge ghost fill that the halo plan was
// compiled from, kept verbatim so the plan's gather loop can be checked
// against it bit for bit. `edge`: 0 = my left ghosts, 1 = right,
// 2 = bottom, 3 = top.
void reference_fill_edge(adarnet::field::Grid2Dd& mine, const am::PatchMesh& pm,
                         const adarnet::field::Grid2Dd& theirs,
                         const am::PatchMesh& nb, int edge) {
  const bool horizontal = (edge == 0 || edge == 1);
  const int n_t = horizontal ? pm.ny : pm.nx;
  const int nb_t = horizontal ? nb.ny : nb.nx;
  const int nb_fixed = [&] {
    switch (edge) {
      case 0: return nb.nx;
      case 1: return 1;
      case 2: return nb.ny;
      default: return 1;
    }
  }();
  auto their_at = [&](int t) -> double {
    t = std::clamp(t, 1, nb_t);
    return horizontal ? theirs(t, nb_fixed) : theirs(nb_fixed, t);
  };
  auto my_ghost = [&](int t) -> double& {
    switch (edge) {
      case 0: return mine(t, 0);
      case 1: return mine(t, pm.nx + 1);
      case 2: return mine(0, t);
      default: return mine(pm.ny + 1, t);
    }
  };
  auto my_inner = [&](int t) -> double {
    switch (edge) {
      case 0: return mine(t, 1);
      case 1: return mine(t, pm.nx);
      case 2: return mine(1, t);
      default: return mine(pm.ny, t);
    }
  };
  const double h_m = horizontal ? pm.dx : pm.dy;
  const double h_n = horizontal ? nb.dx : nb.dy;
  const double t_perp = std::min(2.0 * h_m / (h_m + h_n), 1.0);
  auto nb_sample = [&](int t) -> double {
    if (nb_t == n_t) return their_at(t);
    if (nb_t > n_t) {
      const int ratio = nb_t / n_t;
      double acc = 0.0;
      for (int s = 0; s < ratio; ++s) acc += their_at((t - 1) * ratio + 1 + s);
      return acc / ratio;
    }
    const double pos = (t - 0.5) / n_t;
    const double u = pos * nb_t + 0.5;
    const int k0 = static_cast<int>(std::floor(u));
    const double f = u - k0;
    return (1.0 - f) * their_at(k0) + f * their_at(k0 + 1);
  };
  for (int t = 1; t <= n_t; ++t) {
    const double inner = my_inner(t);
    my_ghost(t) = inner + t_perp * (nb_sample(t) - inner);
  }
}

void reference_exchange(am::CompositeScalar& s, const am::CompositeMesh& mesh) {
  const int npy = mesh.npy();
  const int npx = mesh.npx();
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const int pi = k / npx;
    const int pj = k % npx;
    const am::PatchMesh& pm = mesh.patch(pi, pj);
    adarnet::field::Grid2Dd& mine = s[k];
    if (pj > 0) {
      reference_fill_edge(mine, pm, s[k - 1], mesh.patch(pi, pj - 1), 0);
    }
    if (pj + 1 < npx) {
      reference_fill_edge(mine, pm, s[k + 1], mesh.patch(pi, pj + 1), 1);
    }
    if (pi > 0) {
      reference_fill_edge(mine, pm, s[k - npx], mesh.patch(pi - 1, pj), 2);
    }
    if (pi + 1 < npy) {
      reference_fill_edge(mine, pm, s[k + npx], mesh.patch(pi + 1, pj), 3);
    }
    mine(0, 0) = 0.5 * (mine(0, 1) + mine(1, 0));
    mine(0, pm.nx + 1) = 0.5 * (mine(0, pm.nx) + mine(1, pm.nx + 1));
    mine(pm.ny + 1, 0) = 0.5 * (mine(pm.ny, 0) + mine(pm.ny + 1, 1));
    mine(pm.ny + 1, pm.nx + 1) =
        0.5 * (mine(pm.ny, pm.nx + 1) + mine(pm.ny + 1, pm.nx));
  }
}

// Pseudo-random values in every cell, ghosts included (LCG: no global RNG
// state, bit-identical on every platform). Signed zeros and exact ties
// are part of the draw so sign-of-zero handling is compared too.
void fill_random(am::CompositeScalar& s, unsigned seed) {
  unsigned r = seed;
  for (auto& g : s) {
    for (double& v : g) {
      r = r * 1664525u + 1013904223u;
      const unsigned pick = r >> 28;
      v = pick == 0   ? -0.0
          : pick == 1 ? 0.0
                      : static_cast<double>(r >> 6) / 67108864.0 - 0.5;
    }
  }
}

// Bitwise equality of every cell, ghosts included.
::testing::AssertionResult identical(const am::CompositeScalar& a,
                                     const am::CompositeScalar& b) {
  for (std::size_t k = 0; k < a.size(); ++k) {
    for (std::size_t n = 0; n < a[k].size(); ++n) {
      if (std::memcmp(&a[k][n], &b[k][n], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "patch " << k << " cell " << n << " (row "
               << n / static_cast<std::size_t>(a[k].nx()) << ", col "
               << n % static_cast<std::size_t>(a[k].nx()) << "): " << a[k][n]
               << " != " << b[k][n];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Meshes covering every halo-plan entry kind: same-level copies, finer
// neighbours at ratios 2, 4 and 8 (averages), coarser neighbours
// (interpolation), and single-cell patches next to refined ones.
std::vector<am::CompositeMesh> halo_meshes() {
  std::vector<am::CompositeMesh> meshes;
  const auto channel = ad::channel_case(2.5e3, ad::GridPreset{16, 32, 8, 8});
  meshes.emplace_back(channel, am::RefinementMap(2, 4, 0));
  {
    // Level pairs across interfaces: 0|1 (ratio 2), 1|3 (4), 3|0 (8),
    // 2|0 (4) in x; 0|2, 1|0, 3|3, 0|1 in y.
    am::RefinementMap map(2, 4, 0);
    const int levels[2][4] = {{0, 1, 3, 0}, {2, 0, 3, 1}};
    for (int pi = 0; pi < 2; ++pi) {
      for (int pj = 0; pj < 4; ++pj) map.set_level(pi, pj, levels[pi][pj]);
    }
    meshes.emplace_back(channel, map);
  }
  {
    // Single-cell level-0 patches beside level-1..3 ones on a body case
    // (isotropic cells, immersed solid).
    const auto body = ad::cylinder_case(1e5, ad::GridPreset{4, 4, 1, 1});
    am::RefinementMap map(4, 4, 0);
    map.set_level(1, 1, 3);
    map.set_level(1, 2, 1);
    map.set_level(2, 1, 2);
    map.set_level(3, 3, 1);
    meshes.emplace_back(body, map);
    meshes.emplace_back(body, am::RefinementMap(4, 4, 0));
  }
  return meshes;
}

// halo_meshes() plus seeded random level 0-3 maps on a wall and a body
// case (LCG: the same maps on every platform).
std::vector<am::CompositeMesh> side_meshes() {
  std::vector<am::CompositeMesh> meshes = halo_meshes();
  unsigned r = 7;
  for (const auto& spec :
       {ad::channel_case(2.5e3, ad::GridPreset{16, 32, 4, 4}),
        ad::cylinder_case(1e5, ad::shrink(ad::paper_body_preset(), 8))}) {
    am::RefinementMap map(spec.npy(), spec.npx(), 0);
    for (int pi = 0; pi < map.npy(); ++pi) {
      for (int pj = 0; pj < map.npx(); ++pj) {
        r = r * 1664525u + 1013904223u;
        map.set_level(pi, pj, static_cast<int>(r >> 30));
      }
    }
    meshes.emplace_back(spec, map);
  }
  return meshes;
}

struct Point {
  double x = 0.0;
  double y = 0.0;
};

// Centre of the (possibly ghost) cell at flat offset `off` of patch pm.
Point cell_centre(const am::PatchMesh& pm, int off) {
  const int w = pm.nx + 2;
  return {pm.xc(off % w), pm.yc(off / w)};
}

// A face of patch pm from its slot `off` in a face array: slot (i, j) of
// a face_u array (normal_x) is the face between cells (i, j) and
// (i, j + 1), of a face_v array the one between (i, j) and (i + 1, j).
// `at` is the face's normal coordinate, [lo, hi] its tangential extent.
struct Face {
  double at = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};
Face face_at(const am::PatchMesh& pm, int off, bool normal_x) {
  const int w = pm.nx + 2;
  const int i = off / w;
  const int j = off % w;
  if (normal_x) {
    return {pm.x0 + j * pm.dx, pm.y0 + (i - 1) * pm.dy, pm.y0 + i * pm.dy};
  }
  return {pm.y0 + i * pm.dy, pm.x0 + (j - 1) * pm.dx, pm.x0 + j * pm.dx};
}

}  // namespace

TEST(Geometry, ChannelWallDistance) {
  am::ChannelGeometry g(0.1);
  EXPECT_FALSE(g.inside(1.0, 0.05));
  EXPECT_DOUBLE_EQ(g.wall_distance(0.0, 0.03), 0.03);
  EXPECT_DOUBLE_EQ(g.wall_distance(5.0, 0.08), 0.1 - 0.08);
  EXPECT_DOUBLE_EQ(g.wall_distance(2.0, 0.05), 0.05);
}

TEST(Geometry, FlatPlateWallDistance) {
  am::FlatPlateGeometry g(1.0);  // plate starts at x = 1
  EXPECT_DOUBLE_EQ(g.wall_distance(2.0, 0.01), 0.01);  // above the plate
  // Upstream of the leading edge: distance to the edge point (1, 0).
  EXPECT_NEAR(g.wall_distance(0.0, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(g.wall_distance(0.0, 1.0), std::sqrt(2.0), 1e-12);
}

TEST(Geometry, CylinderInsideAndDistance) {
  auto body = am::make_ellipse(1.0, 1.0, 0.0, 0.0, 3.0, 4.0);
  EXPECT_EQ(body->name(), "cylinder");
  EXPECT_TRUE(body->inside(3.0, 4.0));
  EXPECT_TRUE(body->inside(3.4, 4.0));
  EXPECT_FALSE(body->inside(3.6, 4.0));
  EXPECT_FALSE(body->inside(3.0, 4.6));
  // Distance from a point two radii away along x: ~0.5 chord.
  EXPECT_NEAR(body->wall_distance(4.0, 4.0), 0.5, 0.01);
  // On the surface the distance is ~0.
  EXPECT_LT(body->wall_distance(3.5, 4.0), 0.01);
}

TEST(Geometry, EllipseRotationMovesBoundary) {
  // A thin ellipse at 45 degrees should contain points along its rotated
  // major axis and not along the unrotated one.
  auto flat = am::make_ellipse(1.0, 0.1, 0.0, 0.0, 0.0, 0.0);
  auto tilted = am::make_ellipse(1.0, 0.1, 45.0, 0.0, 0.0, 0.0);
  EXPECT_TRUE(flat->inside(0.4, 0.0));
  EXPECT_FALSE(flat->inside(0.3, 0.3));
  // Positive angle of attack pitches the nose up: the point rotates to
  // (x cos, -x sin) in our convention; check the tilted axis.
  EXPECT_TRUE(tilted->inside(0.3, -0.3) || tilted->inside(0.3, 0.3));
  EXPECT_FALSE(tilted->inside(0.45, 0.0));
}

TEST(Geometry, Naca0012SymmetricNaca1412Cambered) {
  auto sym = am::make_naca4(1.0, 0.0, 0.0, 0.12, 0.0, 0.0, 0.0);
  auto camb = am::make_naca4(1.0, 0.01, 0.4, 0.12, 0.0, 0.0, 0.0);
  EXPECT_EQ(sym->name(), "naca0012");
  EXPECT_EQ(camb->name(), "naca1412");
  // Symmetric airfoil: mirrored points agree.
  for (double x : {-0.3, 0.0, 0.2}) {
    EXPECT_EQ(sym->inside(x, 0.02), sym->inside(x, -0.02)) << "x=" << x;
  }
  // Cambered airfoil: asymmetry somewhere along the chord.
  bool asym = false;
  for (double x = -0.45; x < 0.5; x += 0.05) {
    for (double y : {0.01, 0.03, 0.05}) {
      asym |= (camb->inside(x, y) != camb->inside(x, -y));
    }
  }
  EXPECT_TRUE(asym);
  // Thickness: max ~12% of chord, so |y| = 0.08 is outside everywhere.
  for (double x = -0.5; x <= 0.5; x += 0.05) {
    EXPECT_FALSE(sym->inside(x, 0.08));
  }
}

namespace {

// Test-only references: scans of every boundary segment, the loops the
// chunked PolygonBody scans skip parts of.
double reference_wall_distance(const am::PolygonBody& body, double x,
                               double y) {
  const auto& pts = body.boundary();
  double best = std::numeric_limits<double>::max();
  for (std::size_t i = 0, j = pts.size() - 1; i < pts.size(); j = i++) {
    const am::Point& a = pts[j];
    const am::Point& b = pts[i];
    const double vx = b.x - a.x;
    const double vy = b.y - a.y;
    const double wx = x - a.x;
    const double wy = y - a.y;
    const double vv = vx * vx + vy * vy;
    double t = vv > 0.0 ? (wx * vx + wy * vy) / vv : 0.0;
    t = std::clamp(t, 0.0, 1.0);
    const double dx = wx - t * vx;
    const double dy = wy - t * vy;
    best = std::min(best, std::sqrt(dx * dx + dy * dy));
  }
  return best;
}

bool reference_inside(const am::PolygonBody& body, double x, double y) {
  const auto& pts = body.boundary();
  bool in = false;
  for (std::size_t i = 0, j = pts.size() - 1; i < pts.size(); j = i++) {
    const am::Point& a = pts[i];
    const am::Point& b = pts[j];
    if ((a.y > y) != (b.y > y)) {
      const double x_int = (b.x - a.x) * (y - a.y) / (b.y - a.y) + a.x;
      if (x < x_int) in = !in;
    }
  }
  return in;
}

}  // namespace

// The chunked distance and ray-casting scans must return bitwise what a
// scan of every segment returns: on a grid over the 8 x 8 chord box, at
// every vertex and segment midpoint, and just off them (where rounding
// decides which segment is nearest and whether a ray crosses).
TEST(Geometry, ChunkedScansMatchEverySegmentBitwise) {
  const std::shared_ptr<am::PolygonBody> bodies[] = {
      am::make_ellipse(1.0, 1.0, 0.0, 0.0, 4.0, 4.0),
      am::make_ellipse(1.0, 0.07, 3.0, 2.0, 4.0, 4.0),
      am::make_naca4(1.0, 0.0, 0.0, 0.12, 0.0, 4.0, 4.0),
      am::make_naca4(1.0, 0.01, 0.4, 0.12, 5.0, 4.0, 4.0),
      am::make_ellipse(1.0, 0.5, 0.0, 0.0, 4.0, 4.0, 37),
  };
  for (const auto& body : bodies) {
    std::vector<am::Point> probes;
    for (double y = 0.013; y < 8.0; y += 0.0731) {
      for (double x = 0.007; x < 8.0; x += 0.0693) probes.push_back({x, y});
    }
    const auto& pts = body->boundary();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const am::Point& a = pts[i];
      const am::Point& b = pts[(i + 1) % pts.size()];
      for (double d : {0.0, 1e-13, -1e-13, 1e-3, -1e-3}) {
        probes.push_back({a.x + d, a.y});
        probes.push_back({a.x, a.y + d});
        probes.push_back({0.5 * (a.x + b.x) + d, 0.5 * (a.y + b.y) - d});
      }
    }
    for (const am::Point& p : probes) {
      const double got = body->wall_distance(p.x, p.y);
      const double want = reference_wall_distance(*body, p.x, p.y);
      ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << body->name() << " at (" << p.x << ", " << p.y << "): " << got
          << " != " << want;
      ASSERT_EQ(body->inside(p.x, p.y), reference_inside(*body, p.x, p.y))
          << body->name() << " at (" << p.x << ", " << p.y << ")";
    }
  }
}

TEST(BcNames, AllTypesPrintable) {
  EXPECT_STREQ(am::bc_name(am::BcType::kInlet), "inlet");
  EXPECT_STREQ(am::bc_name(am::BcType::kOutlet), "outlet");
  EXPECT_STREQ(am::bc_name(am::BcType::kWall), "wall");
  EXPECT_STREQ(am::bc_name(am::BcType::kSymmetry), "symmetry");
  EXPECT_STREQ(am::bc_name(am::BcType::kFreestream), "freestream");
}

TEST(RefinementMapOps, LevelsClampedAndCounted) {
  am::RefinementMap map(2, 4, 0);
  map.set_level(0, 0, 7);  // clamps to kMaxLevel
  EXPECT_EQ(map.level(0, 0), am::kMaxLevel);
  map.set_level(1, 3, -2);
  EXPECT_EQ(map.level(1, 3), 0);
  EXPECT_EQ(map.max_level(), am::kMaxLevel);
  EXPECT_EQ(map.count_at_level(0), 7);
  EXPECT_EQ(map.count_at_level(am::kMaxLevel), 1);
  EXPECT_NEAR(map.refined_fraction(), 1.0 / 8.0, 1e-12);
}

TEST(RefinementMapOps, ActiveCellsFormula) {
  am::RefinementMap map(1, 2, 0);
  map.set_level(0, 1, 2);  // 4^2 = 16x the cells
  EXPECT_EQ(map.active_cells(16, 16), 16 * 16 + 16 * 16 * 16);
}

TEST(RefinementMapOps, ArtTopRowFirst) {
  am::RefinementMap map(2, 2, 0);
  map.set_level(1, 0, 3);  // top-left patch
  EXPECT_EQ(map.to_art(), "30\n00\n");
}

TEST(RefinementMapOps, AgreementMetrics) {
  am::RefinementMap a(1, 4, 0);
  am::RefinementMap b(1, 4, 0);
  a.set_level(0, 0, 3);
  b.set_level(0, 0, 2);
  EXPECT_DOUBLE_EQ(a.agreement_exact(b), 0.75);
  EXPECT_DOUBLE_EQ(a.agreement_within_one(b), 1.0);
  EXPECT_FALSE(a == b);
  b.set_level(0, 0, 3);
  EXPECT_TRUE(a == b);
}

TEST(CompositeMeshGeom, PatchShapesAndSpacing) {
  auto spec = ad::channel_case(2.5e3, ad::GridPreset{16, 64, 8, 8});
  am::RefinementMap map(2, 8, 0);
  map.set_level(1, 3, 2);
  am::CompositeMesh mesh(spec, map);
  const auto& coarse = mesh.patch(0, 0);
  const auto& fine = mesh.patch(1, 3);
  EXPECT_EQ(coarse.ny, 8);
  EXPECT_EQ(fine.ny, 32);
  EXPECT_DOUBLE_EQ(fine.dx, coarse.dx / 4.0);
  // Physical patch extents are level-independent.
  EXPECT_NEAR(coarse.nx * coarse.dx, fine.nx * fine.dx, 1e-12);
  EXPECT_EQ(mesh.active_cells(), 15LL * 64 + 32 * 32);
}

TEST(CompositeMeshGeom, MasksConsistentAcrossLevels) {
  // The analytic mask must agree between levels: a fine patch covering the
  // body centre has solid cells wherever the coarse one does.
  auto spec = ad::cylinder_case(1e5, ad::GridPreset{32, 32, 8, 8});
  am::CompositeMesh coarse(spec, am::RefinementMap(4, 4, 0));
  am::CompositeMesh fine(spec, am::RefinementMap(4, 4, 2));
  EXPECT_GT(coarse.active_cells() - coarse.fluid_cells(), 0);
  const double coarse_solid_frac =
      1.0 - double(coarse.fluid_cells()) / coarse.active_cells();
  const double fine_solid_frac =
      1.0 - double(fine.fluid_cells()) / fine.active_cells();
  EXPECT_NEAR(coarse_solid_frac, fine_solid_frac, 0.01);
}

TEST(GhostExchange, ConstantFieldStaysConstant) {
  auto spec = ad::channel_case(2.5e3, ad::GridPreset{16, 32, 8, 8});
  am::RefinementMap map(2, 4, 0);
  map.set_level(0, 1, 1);
  map.set_level(1, 2, 2);
  am::CompositeMesh mesh(spec, map);
  auto s = am::make_scalar(mesh);
  for (auto& g : s) {
    for (auto& v : g) v = 7.25;
  }
  am::exchange_ghosts(s, mesh);
  for (int k = 0; k < mesh.patch_count(); ++k) {
    for (double v : s[k]) EXPECT_DOUBLE_EQ(v, 7.25);
  }
}

TEST(GhostExchange, SameLevelIsExactCopy) {
  auto spec = ad::channel_case(2.5e3, ad::GridPreset{16, 32, 8, 8});
  am::CompositeMesh mesh(spec, am::RefinementMap(2, 4, 0));
  auto s = am::make_scalar(mesh);
  // Unique value per (patch, cell).
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const auto& pm = mesh.patch_flat(k);
    for (int i = 1; i <= pm.ny; ++i) {
      for (int j = 1; j <= pm.nx; ++j) {
        s[k](i, j) = 100.0 * k + 10.0 * i + j;
      }
    }
  }
  am::exchange_ghosts(s, mesh);
  // Patch (0,0)'s right ghosts = patch (0,1)'s leftmost interior column.
  const auto& pm = mesh.patch(0, 0);
  for (int i = 1; i <= pm.ny; ++i) {
    EXPECT_DOUBLE_EQ(s[0](i, pm.nx + 1), s[1](i, 1));
  }
}

TEST(GhostExchange, LinearFieldAccurateAcrossLevelJump) {
  auto spec = ad::channel_case(2.5e3, ad::GridPreset{16, 32, 8, 8});
  am::RefinementMap map(2, 4, 0);
  map.set_level(0, 1, 1);
  am::CompositeMesh mesh(spec, map);
  auto s = am::make_scalar(mesh);
  auto linear = [](double x, double y) { return 3.0 * x + 2.0 * y + 1.0; };
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const auto& pm = mesh.patch_flat(k);
    for (int i = 0; i <= pm.ny + 1; ++i) {
      for (int j = 0; j <= pm.nx + 1; ++j) {
        s[k](i, j) = linear(pm.xc(j), pm.yc(i));
      }
    }
  }
  am::exchange_ghosts(s, mesh);
  // After exchange, ghosts at the coarse-fine interface stay close to the
  // linear field (the interface transfer is first-order, tangentially
  // linear; allow a fraction of the local cell size in error).
  const auto& fine = mesh.patch(0, 1);
  const int kf = 1;  // flat index of patch (0, 1)
  for (int i = 1; i <= fine.ny; ++i) {
    const double expect = linear(fine.xc(0), fine.yc(i));
    EXPECT_NEAR(s[kf](i, 0), expect, 3.0 * fine.dx + 2.0 * fine.dy);
  }
}

// The halo plan is the per-edge fill compiled once: on random fields every
// ghost (edges and corners, including ones next to domain-boundary ghosts)
// must be bitwise what the reference writes, through the scalar overload
// and the masked-field overload. The meshes lie on both sides of the cell
// floor, so both the serial schedule and the forked one are checked (the
// latter at the process's thread count; CI's TSan job races it at 4).
TEST(GhostExchange, HaloPlanMatchesPerEdgeReferenceBitwise) {
  unsigned seed = 1;
  bool serial = false;
  bool forked = false;
  for (const am::CompositeMesh& mesh : halo_meshes()) {
    serial |= !mesh.parallel();
    forked |= mesh.parallel();
    {
      auto s = am::make_scalar(mesh);
      fill_random(s, seed++);
      auto ref = s;
      reference_exchange(ref, mesh);
      am::exchange_ghosts(s, mesh);
      EXPECT_TRUE(identical(ref, s))
          << "scalar, " << mesh.active_cells() << " cells";
    }
    for (unsigned mask : {0xFu, 0b0101u, 0b1000u}) {
      auto f = am::make_field(mesh);
      for (int c = 0; c < 4; ++c) fill_random(f.channel(c), seed++);
      auto ref = f;
      for (int c = 0; c < 4; ++c) {
        if (mask & (1u << c)) reference_exchange(ref.channel(c), mesh);
      }
      am::exchange_ghosts(f, mesh, mask);
      for (int c = 0; c < 4; ++c) {
        EXPECT_TRUE(identical(ref.channel(c), f.channel(c)))
            << "field, mask=" << mask << " channel=" << c;
      }
    }
  }
  EXPECT_TRUE(serial) << "no mesh below the cell floor";
  EXPECT_TRUE(forked) << "no mesh at or above the cell floor";
}

// The plan writes one double per interface-edge ghost plus four corners
// per patch, and the solver.ghosts.bytes counter is that size.
TEST(GhostExchange, GhostBytesAreThePlanSize) {
  for (const am::CompositeMesh& mesh : halo_meshes()) {
    long long cells = 0;
    for (int k = 0; k < mesh.patch_count(); ++k) {
      const am::PatchMesh& pm = mesh.patch_flat(k);
      if (pm.pj > 0) cells += pm.ny;
      if (pm.pj + 1 < mesh.npx()) cells += pm.ny;
      if (pm.pi > 0) cells += pm.nx;
      if (pm.pi + 1 < mesh.npy()) cells += pm.nx;
      cells += 4;
      EXPECT_EQ(mesh.halo().begin(k + 1), cells) << "patch " << k;
    }
    EXPECT_EQ(mesh.ghost_bytes_per_scalar(),
              cells * static_cast<long long>(sizeof(double)));
  }
}

// The side vocabulary against geometry computed from each PatchMesh's x0,
// y0, dx and dy alone: neighbour() follows the patch grid and the patches
// it names touch; for_each_interface visits every interface exactly once,
// from its west/south patch; every side's face lies between its cell and
// its ghost; same-level faces coincide, and coarse face t spans exactly
// fine faces (t - 1) r + 1 .. t r; and for_each_boundary_ghost yields each
// edge ghost of the domain boundary once, half a cell outside it, next to
// the interior cell it names. The meshes jump by ratios 1, 2, 4 and 8 in
// both directions.
TEST(CompositeMeshGeom, SidesPairPhysicallyCoincidentFaces) {
  bool ratio_seen[2][4] = {};  // [normal y][log2 ratio]
  for (const am::CompositeMesh& mesh : side_meshes()) {
    SCOPED_TRACE(mesh.spec().name);
    const double lx = mesh.spec().lx;
    const double ly = mesh.spec().ly;
    const double eps = 1e-12 * std::max(lx, ly);
    const int npx = mesh.npx();
    const int npy = mesh.npy();

    for (int k = 0; k < mesh.patch_count(); ++k) {
      const am::PatchMesh& pm = mesh.patch_flat(k);
      const int pi = k / npx;
      const int pj = k % npx;
      ASSERT_EQ(pm.pi, pi);
      ASSERT_EQ(pm.pj, pj);
      EXPECT_EQ(mesh.neighbour(k, am::kW), pj > 0 ? k - 1 : -1);
      EXPECT_EQ(mesh.neighbour(k, am::kE), pj + 1 < npx ? k + 1 : -1);
      EXPECT_EQ(mesh.neighbour(k, am::kS), pi > 0 ? k - npx : -1);
      EXPECT_EQ(mesh.neighbour(k, am::kN), pi + 1 < npy ? k + npx : -1);
      for (const am::Side s : am::kSides) {
        const int nb = mesh.neighbour(k, s);
        if (nb < 0) continue;
        EXPECT_EQ(mesh.neighbour(nb, am::opposite(s)), k);
        const am::PatchMesh& q = mesh.patch_flat(nb);
        // The neighbour's patch touches this side of mine.
        switch (s) {
          case am::kW: EXPECT_NEAR(q.x0 + q.nx * q.dx, pm.x0, eps); break;
          case am::kE: EXPECT_NEAR(pm.x0 + pm.nx * pm.dx, q.x0, eps); break;
          case am::kS: EXPECT_NEAR(q.y0 + q.ny * q.dy, pm.y0, eps); break;
          case am::kN: EXPECT_NEAR(pm.y0 + pm.ny * pm.dy, q.y0, eps); break;
        }
      }
    }

    // Every interface once, handed from its west/south patch.
    std::vector<int> visits(static_cast<std::size_t>(mesh.patch_count()) * 4,
                            0);
    int interfaces = 0;
    for (int k = 0; k < mesh.patch_count(); ++k) {
      am::for_each_interface(mesh, k, [&](const am::PatchSide& a,
                                          const am::PatchSide& b) {
        ++interfaces;
        EXPECT_EQ(a.k, k);
        EXPECT_TRUE(a.side == am::kE || a.side == am::kN);
        EXPECT_EQ(b.side, am::opposite(a.side));
        EXPECT_EQ(b.k, mesh.neighbour(k, a.side));
        ++visits[static_cast<std::size_t>(a.k) * 4 + a.side];
        ++visits[static_cast<std::size_t>(b.k) * 4 + b.side];
        const am::PatchMesh& pa = mesh.patch_flat(a.k);
        const am::PatchMesh& pb = mesh.patch_flat(b.k);
        const bool nx = am::normal_x(a.side);
        // Each side's face t lies between its cell t and ghost t.
        for (const auto& [side, pm] : {std::pair{a, &pa}, std::pair{b, &pb}}) {
          ASSERT_EQ(side.n, nx ? pm->ny : pm->nx);
          for (int t = 1; t <= side.n; ++t) {
            const Face f = face_at(*pm, side.face(t), nx);
            const Point c = cell_centre(*pm, side.cell(t));
            const Point g = cell_centre(*pm, side.ghost(t));
            // Half a cell outwards: +h/2 on a's E/N side, -h/2 on b's W/S.
            const double out = (side.side == a.side ? 0.5 : -0.5) *
                               (nx ? pm->dx : pm->dy);
            EXPECT_NEAR(nx ? c.x : c.y, f.at - out, eps);
            EXPECT_NEAR(nx ? g.x : g.y, f.at + out, eps);
            EXPECT_NEAR(nx ? c.y : c.x, 0.5 * (f.lo + f.hi), eps);
            EXPECT_NEAR(nx ? g.y : g.x, 0.5 * (f.lo + f.hi), eps);
          }
        }
        if (a.n == b.n) {
          ratio_seen[nx ? 0 : 1][0] = true;
          for (int t = 1; t <= a.n; ++t) {
            const Face fa = face_at(pa, a.face(t), nx);
            const Face fb = face_at(pb, b.face(t), nx);
            EXPECT_NEAR(fa.at, fb.at, eps);
            EXPECT_NEAR(fa.lo, fb.lo, eps);
            EXPECT_NEAR(fa.hi, fb.hi, eps);
          }
          return;
        }
        const bool a_fine = a.n > b.n;
        const am::PatchSide& fine = a_fine ? a : b;
        const am::PatchSide& coarse = a_fine ? b : a;
        const am::PatchMesh& pf = a_fine ? pa : pb;
        const am::PatchMesh& pc = a_fine ? pb : pa;
        const int r = fine.n / coarse.n;
        ASSERT_EQ(fine.n, r * coarse.n);
        ASSERT_EQ(r, 1 << (pf.level - pc.level));
        ratio_seen[nx ? 0 : 1][pf.level - pc.level] = true;
        for (int t = 1; t <= coarse.n; ++t) {
          const Face fc = face_at(pc, coarse.face(t), nx);
          const Face first = face_at(pf, fine.face((t - 1) * r + 1), nx);
          const Face last = face_at(pf, fine.face(t * r), nx);
          EXPECT_NEAR(fc.lo, first.lo, eps) << "coarse face " << t;
          EXPECT_NEAR(fc.hi, last.hi, eps) << "coarse face " << t;
          for (int s = (t - 1) * r + 1; s <= t * r; ++s) {
            EXPECT_NEAR(face_at(pf, fine.face(s), nx).at, fc.at, eps);
          }
        }
      });
    }
    EXPECT_EQ(interfaces, npy * (npx - 1) + (npy - 1) * npx);
    for (int k = 0; k < mesh.patch_count(); ++k) {
      for (const am::Side s : am::kSides) {
        EXPECT_EQ(visits[static_cast<std::size_t>(k) * 4 + s],
                  mesh.neighbour(k, s) >= 0 ? 1 : 0)
            << "patch " << k << " side " << s;
      }
    }

    // Boundary ghosts: each edge ghost of the domain boundary once, half a
    // cell outside the domain, next to the interior cell it names.
    for (int k = 0; k < mesh.patch_count(); ++k) {
      const am::PatchMesh& pm = mesh.patch_flat(k);
      const int expected = (pm.pj == 0 ? pm.ny : 0) +
                           (pm.pj + 1 == npx ? pm.ny : 0) +
                           (pm.pi == 0 ? pm.nx : 0) +
                           (pm.pi + 1 == npy ? pm.nx : 0);
      std::vector<int> seen;
      am::for_each_boundary_ghost(mesh, k, [&](am::Side s, int ghost,
                                               int cell) {
        seen.push_back(ghost);
        EXPECT_LT(mesh.neighbour(k, s), 0);
        const Point g = cell_centre(pm, ghost);
        const Point c = cell_centre(pm, cell);
        switch (s) {
          case am::kW: EXPECT_NEAR(g.x, -0.5 * pm.dx, eps); break;
          case am::kE: EXPECT_NEAR(g.x, lx + 0.5 * pm.dx, eps); break;
          case am::kS: EXPECT_NEAR(g.y, -0.5 * pm.dy, eps); break;
          case am::kN: EXPECT_NEAR(g.y, ly + 0.5 * pm.dy, eps); break;
        }
        const bool nx = am::normal_x(s);
        EXPECT_GT(nx ? g.y : g.x, 0.0);  // an edge ghost, not a corner
        EXPECT_LT(nx ? g.y : g.x, nx ? ly : lx);
        EXPECT_NEAR(nx ? c.y : c.x, nx ? g.y : g.x, eps);
        EXPECT_NEAR(std::abs(nx ? c.x - g.x : c.y - g.y), nx ? pm.dx : pm.dy,
                    eps);
      });
      EXPECT_EQ(static_cast<int>(seen.size()), expected) << "patch " << k;
      std::sort(seen.begin(), seen.end());
      EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
    }
  }
  for (int d = 0; d < 2; ++d) {
    for (int l = 0; l < 4; ++l) {
      EXPECT_TRUE(ratio_seen[d][l])
          << (d == 0 ? "x" : "y") << " jump of ratio " << (1 << l);
    }
  }
}

TEST(CompositeTransfer, UniformRoundTrip) {
  auto spec = ad::channel_case(2.5e3, ad::GridPreset{16, 32, 8, 8});
  am::RefinementMap map(2, 4, 0);
  map.set_level(1, 1, 1);
  am::CompositeMesh mesh(spec, map);
  adarnet::field::FlowField lr(16, 32);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 32; ++j) {
      lr.U(i, j) = 0.1 * i + 0.05 * j;
      lr.p(i, j) = 1.0 - 0.01 * j;
    }
  }
  auto f = am::make_field(mesh);
  am::fill_from_uniform(f, mesh, lr);
  const auto back = am::to_uniform(f, mesh, 0);
  // Interior agreement (borders suffer clamped interpolation).
  for (int i = 2; i < 14; ++i) {
    for (int j = 2; j < 30; ++j) {
      EXPECT_NEAR(back.U(i, j), lr.U(i, j), 0.02) << i << "," << j;
    }
  }
}

TEST(CompositeTransfer, RegridPreservesSmoothFields) {
  auto spec = ad::channel_case(2.5e3, ad::GridPreset{16, 32, 8, 8});
  am::RefinementMap from_map(2, 4, 0);
  from_map.set_level(0, 0, 1);
  am::RefinementMap to_map(2, 4, 0);
  to_map.set_level(1, 3, 2);
  am::CompositeMesh from(spec, from_map);
  am::CompositeMesh to(spec, to_map);

  adarnet::field::FlowField lr(16, 32);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 32; ++j) lr.U(i, j) = std::sin(0.2 * j) + 0.1 * i;
  }
  auto f_from = am::make_field(from);
  am::fill_from_uniform(f_from, from, lr);
  const auto f_to = am::regrid(f_from, from, to);
  const auto a = am::to_uniform(f_from, from, 0);
  const auto b = am::to_uniform(f_to, to, 0);
  for (int i = 2; i < 14; ++i) {
    for (int j = 2; j < 30; ++j) {
      EXPECT_NEAR(a.U(i, j), b.U(i, j), 0.03);
    }
  }
}

TEST(CompositeMeshGeom, RejectsMismatchedMap) {
  auto spec = ad::channel_case(2.5e3, ad::GridPreset{16, 32, 8, 8});
  EXPECT_THROW(am::CompositeMesh(spec, am::RefinementMap(3, 3, 0)),
               std::invalid_argument);
}

TEST(CompositeMeshGeom, ThinBodyMaskNeverVanishes) {
  // Corner sampling: a 12%-thick airfoil keeps a connected solid staircase
  // at the coarsest bench level even though no cell centre may be inside.
  auto spec = ad::naca0012_case(2.5e4, ad::GridPreset{32, 32, 4, 4});
  am::CompositeMesh mesh(spec, am::RefinementMap(8, 8, 0));
  EXPECT_GT(mesh.active_cells() - mesh.fluid_cells(), 4);
}
