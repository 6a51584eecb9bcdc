#include "mesh/composite.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cmath>
#include <stdexcept>

#include "field/interp.hpp"
#include "util/metrics.hpp"

namespace adarnet::mesh {

CompositeMesh::CompositeMesh(CaseSpec spec, RefinementMap map)
    : spec_(std::move(spec)), map_(std::move(map)) {
  if (map_.npy() != spec_.npy() || map_.npx() != spec_.npx()) {
    throw std::invalid_argument("RefinementMap shape does not match CaseSpec");
  }
  const double dx0 = spec_.lx / spec_.base_nx;
  const double dy0 = spec_.ly / spec_.base_ny;
  patches_.reserve(map_.count());
  for (int pi = 0; pi < npy(); ++pi) {
    for (int pj = 0; pj < npx(); ++pj) {
      PatchMesh pm;
      pm.pi = pi;
      pm.pj = pj;
      pm.level = map_.level(pi, pj);
      pm.ny = spec_.ph << pm.level;
      pm.nx = spec_.pw << pm.level;
      pm.dx = dx0 / (1 << pm.level);
      pm.dy = dy0 / (1 << pm.level);
      pm.x0 = pj * spec_.pw * dx0;
      pm.y0 = pi * spec_.ph * dy0;
      pm.solid.resize(pm.ny + 2, pm.nx + 2, 0);
      pm.wall_dist.resize(pm.ny + 2, pm.nx + 2, 1e30);
      if (spec_.geometry) {
        // Thin-body capture: cells whose centre lies within a fraction of
        // a cell of the surface are solid even when the centre is outside
        // (Geometry::capture_half_width). Keeps thin airfoils from
        // slipping between cell centres; bluff bodies keep the plain
        // centre-sampled staircase (factor 0).
        const double capture = spec_.geometry->capture_half_width() *
                               std::min(pm.dx, pm.dy);
        for (int i = 0; i <= pm.ny + 1; ++i) {
          for (int j = 0; j <= pm.nx + 1; ++j) {
            const double x = pm.xc(j);
            const double y = pm.yc(i);
            const double dist = spec_.geometry->wall_distance(x, y);
            const bool solid = spec_.geometry->inside(x, y) ||
                               (capture > 0.0 && dist < capture);
            pm.solid(i, j) = solid ? 1 : 0;
            pm.wall_dist(i, j) = std::max(dist, 1e-10);
          }
        }
      }
      patches_.push_back(std::move(pm));
    }
  }
  parallel_ = active_cells() >= kParallelCellFloor;
  compile_halo();
}

namespace {

// Compiles the ghost writes of one interface side of a patch: `mine` is the
// side whose ghosts are written, `theirs` the neighbour's facing side. The
// tangential extents of the two sides coincide physically.
void compile_edge(std::vector<HaloEntry>& out, const PatchSide& mine,
                  const PatchSide& theirs) {
  const int n_t = mine.n;     // my tangential cells
  const int nb_t = theirs.n;  // their tangential cells
  // Their interior cell at tangential index t (clamped), as an offset.
  auto their = [&](int t) { return theirs.cell(std::clamp(t, 1, nb_t)); };

  // At level jumps the neighbour's sample sits at a different perpendicular
  // distance from the interface than the ghost-cell centre. Correct for it
  // by interpolating along the interface normal between my first interior
  // cell (at -h_m/2) and the neighbour sample (at +h_n/2), evaluated at the
  // ghost centre (+h_m/2): t_perp = 2 h_m / (h_m + h_n). Same level gives
  // t_perp = 1 (plain copy). The factor is clamped at 1 (HaloEntry).
  const double h_m = mine.h;
  const double h_n = theirs.h;
  const double t_perp = std::min(2.0 * h_m / (h_m + h_n), 1.0);

  for (int t = 1; t <= n_t; ++t) {
    HaloEntry e;
    e.dst = mine.ghost(t);
    e.inner = mine.cell(t);
    e.nb = theirs.k;
    e.t_perp = t_perp;
    if (nb_t == n_t) {
      e.kind = HaloEntry::kCopy;
      e.src = their(t);
    } else if (nb_t > n_t) {
      // Neighbour finer: average the covered fine cells.
      const int ratio = nb_t / n_t;
      e.kind = HaloEntry::kAverage;
      e.n = static_cast<std::int16_t>(ratio);
      e.src = their((t - 1) * ratio + 1);
      e.step = theirs.step;
    } else {
      // Neighbour coarser: linear interpolation along the interface.
      const double pos = (t - 0.5) / n_t;  // [0, 1] along interface
      const double u = pos * nb_t + 0.5;   // their cell-index space
      const int k0 = static_cast<int>(std::floor(u));
      e.kind = HaloEntry::kInterp;
      e.w = u - k0;
      e.src = their(k0);
      e.step = their(k0 + 1) - e.src;
    }
    out.push_back(e);
  }
}

}  // namespace

void CompositeMesh::compile_halo() {
  std::vector<HaloEntry>& out = halo_.entries_;
  halo_.begin_.reserve(patches_.size() + 1);
  for (int k = 0; k < patch_count(); ++k) {
    const PatchMesh& pm = patches_[static_cast<std::size_t>(k)];
    halo_.begin_.push_back(static_cast<int>(out.size()));
    for (const Side s : kSides) {
      const int nb = neighbour(k, s);
      if (nb >= 0) compile_edge(out, side(k, s), side(nb, opposite(s)));
    }
    // Corner ghosts: average of the two adjacent edge ghosts, good enough
    // for the cross terms that touch them.
    const int w = pm.nx + 2;
    const int top = (pm.ny + 1) * w;
    const int corners[4][3] = {
        {0, 1, w},                                   // (0, 0)
        {pm.nx + 1, pm.nx, w + pm.nx + 1},           // (0, nx + 1)
        {top, pm.ny * w, top + 1},                   // (ny + 1, 0)
        {top + pm.nx + 1, pm.ny * w + pm.nx + 1, top + pm.nx},
    };
    for (const auto& c : corners) {
      HaloEntry e;
      e.kind = HaloEntry::kCorner;
      e.dst = c[0];
      e.inner = c[1];
      e.nb = k;
      e.src = c[2];
      out.push_back(e);
    }
  }
  halo_.begin_.push_back(static_cast<int>(out.size()));
  out.shrink_to_fit();  // every mesh and ladder rung keeps its plan
}

long long CompositeMesh::active_cells() const {
  long long total = 0;
  for (const auto& pm : patches_) total += pm.cells();
  return total;
}

long long CompositeMesh::fluid_cells() const {
  long long total = 0;
  for (const auto& pm : patches_) {
    for (int i = 1; i <= pm.ny; ++i) {
      for (int j = 1; j <= pm.nx; ++j) {
        total += (pm.solid(i, j) == 0);
      }
    }
  }
  return total;
}

CompositeScalar& CompositeField::channel(int c) {
  switch (c) {
    case 0: return U;
    case 1: return V;
    case 2: return p;
    case 3: return nuTilda;
    default: throw std::out_of_range("CompositeField channel index");
  }
}

const CompositeScalar& CompositeField::channel(int c) const {
  return const_cast<CompositeField*>(this)->channel(c);
}

CompositeScalar make_scalar(const CompositeMesh& mesh) {
  CompositeScalar s;
  s.reserve(mesh.patch_count());
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const PatchMesh& pm = mesh.patch_flat(k);
    s.emplace_back(pm.ny + 2, pm.nx + 2);
  }
  return s;
}

CompositeField make_field(const CompositeMesh& mesh) {
  CompositeField f;
  f.U = make_scalar(mesh);
  f.V = make_scalar(mesh);
  f.p = make_scalar(mesh);
  f.nuTilda = make_scalar(mesh);
  return f;
}

void detail::count_parallel_region() {
  static util::metrics::Counter& regions =
      util::metrics::counter("solver.parallel.regions");
  regions.add();
}

namespace {

// Publishes the ghost bytes one exchange pass moved. The counter is named
// under solver.* because the solver's sweep loops are where the traffic is
// hot — /metrics readers see it next to solver.ghosts.ns.
void count_ghost_bytes(const CompositeMesh& mesh, int channels) {
  namespace metrics = adarnet::util::metrics;
  if (!metrics::enabled()) return;
  static metrics::Counter& bytes = metrics::counter("solver.ghosts.bytes");
  bytes.add(mesh.ghost_bytes_per_scalar() * channels);
}

}  // namespace

void exchange_ghosts(CompositeScalar& s, const CompositeMesh& mesh) {
  assert(static_cast<int>(s.size()) == mesh.patch_count());
  count_ghost_bytes(mesh, 1);
  const HaloPlan& plan = mesh.halo();
  for_patches(mesh, [&](int k) { plan.apply_patch(s, k); });
}

void exchange_ghosts(CompositeField& f, const CompositeMesh& mesh,
                     unsigned channel_mask) {
  // Fused: every selected channel in one loop (channels x patch_count
  // independent work items) instead of one per channel. The solver
  // refreshes ghosts every outer iteration, so a fork/join per channel
  // would be hot — and phases that only dirtied a channel subset
  // (momentum: U|V) skip the untouched channels entirely.
  int channels[field::kNumFlowVars];
  int nsel = 0;
  for (int c = 0; c < field::kNumFlowVars; ++c) {
    if (channel_mask & (1u << c)) channels[nsel++] = c;
  }
  if (nsel == 0) return;
  count_ghost_bytes(mesh, nsel);
  const HaloPlan& plan = mesh.halo();
  const int count = mesh.patch_count();
  for_range(nsel * count, mesh.parallel(), [&](int t) {
    plan.apply_patch(f.channel(channels[t / count]), t % count);
  });
}

void exchange_ghosts(CompositeField& f, const CompositeMesh& mesh) {
  exchange_ghosts(f, mesh, 0xFu);
}

void fill_from_uniform(CompositeField& f, const CompositeMesh& mesh,
                       const field::FlowField& lr) {
  const CaseSpec& spec = mesh.spec();
  assert(lr.ny() == spec.base_ny && lr.nx() == spec.base_nx);
  const double dx0 = spec.lx / spec.base_nx;
  const double dy0 = spec.ly / spec.base_ny;
  for (int c = 0; c < field::kNumFlowVars; ++c) {
    const field::Grid2Dd& src = lr.channel(c);
    CompositeScalar& dst = f.channel(c);
    for_patches(mesh, [&](int k) {
      const PatchMesh& pm = mesh.patch_flat(k);
      for (int i = 0; i <= pm.ny + 1; ++i) {
        const double y_idx = pm.yc(i) / dy0 - 0.5;
        for (int j = 0; j <= pm.nx + 1; ++j) {
          const double x_idx = pm.xc(j) / dx0 - 0.5;
          dst[k](i, j) =
              field::sample(src, y_idx, x_idx, field::Interp::kBicubic);
        }
      }
    });
  }
}

field::Grid2Dd scalar_to_uniform(const CompositeScalar& s,
                                 const CompositeMesh& mesh, int level) {
  const CaseSpec& spec = mesh.spec();
  const int ny = spec.base_ny << level;
  const int nx = spec.base_nx << level;
  const int cph = spec.ph << level;  // output cells per patch in y
  const int cpw = spec.pw << level;
  field::Grid2Dd out(ny, nx);
  const double dx = spec.lx / nx;
  const double dy = spec.ly / ny;
  for_range(ny, mesh.parallel(), [&](int i) {
    const int pi = i / cph;
    const double y = (i + 0.5) * dy;
    for (int j = 0; j < nx; ++j) {
      const int pj = j / cpw;
      const PatchMesh& pm = mesh.patch(pi, pj);
      const field::Grid2Dd& src = s[pi * mesh.npx() + pj];
      const double x = (j + 0.5) * dx;
      // Patch-local fractional indices; ghost ring makes edges safe.
      const double yi = (y - pm.y0) / pm.dy + 0.5;
      const double xi = (x - pm.x0) / pm.dx + 0.5;
      out(i, j) = field::sample(src, yi, xi, field::Interp::kBilinear);
    }
  });
  return out;
}

CompositeField regrid(const CompositeField& src, const CompositeMesh& from,
                      const CompositeMesh& to) {
  const CaseSpec& spec = to.spec();
  const int level = from.map().max_level();
  const int uni_ny = spec.base_ny << level;
  const int uni_nx = spec.base_nx << level;
  const double dx = spec.lx / uni_nx;
  const double dy = spec.ly / uni_ny;
  CompositeField dst = make_field(to);
  for (int c = 0; c < field::kNumFlowVars; ++c) {
    const field::Grid2Dd uni = scalar_to_uniform(src.channel(c), from, level);
    CompositeScalar& out = dst.channel(c);
    for_patches(to, [&](int k) {
      const PatchMesh& pm = to.patch_flat(k);
      for (int i = 0; i <= pm.ny + 1; ++i) {
        const double y_idx = pm.yc(i) / dy - 0.5;
        for (int j = 0; j <= pm.nx + 1; ++j) {
          const double x_idx = pm.xc(j) / dx - 0.5;
          out[k](i, j) =
              field::sample(uni, y_idx, x_idx, field::Interp::kBicubic);
        }
      }
    });
  }
  return dst;
}

field::FlowField to_uniform(const CompositeField& f, const CompositeMesh& mesh,
                            int level) {
  field::FlowField out(mesh.spec().base_ny << level,
                       mesh.spec().base_nx << level);
  for (int c = 0; c < field::kNumFlowVars; ++c) {
    out.channel(c) = scalar_to_uniform(f.channel(c), mesh, level);
  }
  return out;
}

}  // namespace adarnet::mesh
