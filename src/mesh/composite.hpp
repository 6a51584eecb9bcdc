// Block-structured composite mesh: the non-uniform discretisation that both
// the iterative AMR solver and ADARNet's one-shot prediction produce.
//
// The domain is tiled by NPy x NPx patches. A patch at level l carries
// (ph * 2^l) x (pw * 2^l) cells, so its cell size is the LR cell size / 2^l.
// Every per-patch array is stored with a one-cell ghost ring; interior cells
// are indexed [1 .. ny] x [1 .. nx]. Ghosts at patch-patch interfaces are
// filled by exchange_ghosts(), which evaluates the mesh's halo plan: every
// interface ghost write compiled once, when the mesh is built, into a flat
// list of (destination, sources, weights) entries (the copy-plan idiom of
// AMReX FillBoundary). Ghosts on the domain boundary are filled by the
// solver according to the boundary conditions.
//
// Patch sides have one vocabulary, defined here and nowhere else. A Side is
// W, E, S or N (the opposite side is s ^ 1). PatchSide names the slots that
// line one side of one patch at tangential index t: the interior cell next
// to it, the ghost beyond it and its face. CompositeMesh::neighbour(k, s)
// is the patch across the side (-1 on the domain boundary). Every walk over
// sides goes through these: the halo compile, the solver's flux-matched
// jump stencil and its per-patch side table of the p' operator
// (solver/jump.hpp, read by the multigrid's smoothers, compiled rungs and
// transfers and by the solver's boundary faces and corrector),
// for_each_boundary_ghost (the solver's boundary-condition ghosts) and
// for_each_interface (the face passes that give both sides of an
// interface one value).
// CompositeMesh::parallel() is the one parallel decision of the solver,
// the multigrid and the mesh code, and parallel_region() their one fork.
#pragma once

#include <cstdint>
#include <vector>

#include "field/array2d.hpp"
#include "field/flow_field.hpp"
#include "mesh/case_spec.hpp"
#include "mesh/refinement_map.hpp"

namespace adarnet::mesh {

/// Geometry and discretisation of one patch (including ghost metadata).
struct PatchMesh {
  int pi = 0;     ///< patch row
  int pj = 0;     ///< patch column
  int level = 0;  ///< refinement level
  int ny = 0;     ///< interior rows (= ph << level)
  int nx = 0;     ///< interior columns (= pw << level)
  double dx = 0;  ///< cell width [m]
  double dy = 0;  ///< cell height [m]
  double x0 = 0;  ///< physical x of the patch's lower-left corner [m]
  double y0 = 0;  ///< physical y of the patch's lower-left corner [m]

  field::Mask2D solid;       ///< (ny+2, nx+2): 1 = cell centre inside solid
  field::Grid2Dd wall_dist;  ///< (ny+2, nx+2): distance to nearest wall [m]

  /// Physical x of the centre of (possibly ghost) cell column j.
  [[nodiscard]] double xc(int j) const { return x0 + (j - 0.5) * dx; }
  /// Physical y of the centre of (possibly ghost) cell row i.
  [[nodiscard]] double yc(int i) const { return y0 + (i - 0.5) * dy; }
  /// Interior cell count.
  [[nodiscard]] long long cells() const {
    return static_cast<long long>(ny) * nx;
  }
};

/// One scalar variable on a composite mesh: one ghosted array per patch, in
/// row-major patch order.
using CompositeScalar = std::vector<field::Grid2Dd>;

/// A side of a patch or of the domain: W and E are normal to x, S and N to
/// y. The opposite side is s ^ 1.
enum Side : int { kW = 0, kE = 1, kS = 2, kN = 3 };

inline constexpr Side kSides[4] = {kW, kE, kS, kN};

inline Side opposite(Side s) { return static_cast<Side>(s ^ 1); }

/// True for the W and E sides, whose normal is x.
inline bool normal_x(Side s) { return s < kS; }

/// One side of patch k: flat offsets into the patch's ghosted
/// (ny + 2) x (nx + 2) arrays of the slots that line it, at tangential
/// index t = 1 .. n (the row on W/E, the column on S/N).
///   cell(t)  - the interior cell next to the side;
///   ghost(t) - the ghost cell beyond it;
///   face(t)  - the side's face in the face array normal to it (a face_u
///              array on W/E, face_v on S/N, whose slot (i, j) holds the
///              face between cells (i, j) and (i, j + 1), resp. (i + 1, j)).
struct PatchSide {
  int k = 0;          ///< the patch (flat index)
  Side side = kW;
  int n = 0;          ///< cells along the side
  int step = 0;       ///< offset between consecutive t: row stride or 1
  int cell0 = 0;      ///< cell(0)
  int ghost0 = 0;     ///< ghost(0)
  int face0 = 0;      ///< face(0)
  double h = 0.0;     ///< cell size normal to the side
  double along = 0.0; ///< cell size along the side

  PatchSide() = default;
  PatchSide(const PatchMesh& pm, int patch, Side s) : k(patch), side(s) {
    const int w = pm.nx + 2;
    const bool x = normal_x(s);
    n = x ? pm.ny : pm.nx;
    step = x ? w : 1;
    h = x ? pm.dx : pm.dy;
    along = x ? pm.dy : pm.dx;
    const int inward = x ? 1 : w;            // one cell along the normal
    const int last = x ? pm.nx : pm.ny * w;  // last interior column / row
    const bool low = s == kW || s == kS;
    cell0 = low ? inward : last;
    ghost0 = low ? 0 : last + inward;
    face0 = low ? ghost0 : cell0;
  }

  [[nodiscard]] int cell(int t) const { return cell0 + t * step; }
  [[nodiscard]] int ghost(int t) const { return ghost0 + t * step; }
  [[nodiscard]] int face(int t) const { return face0 + t * step; }
};

/// One compiled interface ghost write. Offsets are flat row-major indices
/// into a patch's ghosted (ny + 2) x (nx + 2) array. An edge ghost becomes
///
///   ghost = inner + t_perp * (sample - inner),
///
/// where `sample` is read from neighbour patch `nb`: a copy of one cell
/// (same tangential resolution), the average of the `n` finer cells it
/// covers (neighbour finer), or the linear interpolation (1 - w) * a + w * b
/// of two coarser cells (neighbour coarser). t_perp corrects for the
/// neighbour sample's perpendicular distance from the interface:
/// 2 h_m / (h_m + h_n), clamped at 1 (a plain copy of the averaged fine
/// values when the neighbour is finer; the exact factor would extrapolate
/// and destabilise the block-coupled sweeps). A corner ghost is the mean of
/// the patch's two adjacent edge ghosts, 0.5 * (mine[inner] + mine[src]).
struct HaloEntry {
  enum Kind : std::int16_t { kCopy, kAverage, kInterp, kCorner };
  Kind kind = kCopy;
  std::int16_t n = 1;      ///< kAverage: number of averaged fine cells
  std::int32_t dst = 0;    ///< the ghost cell, in the owning patch
  std::int32_t inner = 0;  ///< owning patch's interior cell next to the
                           ///< ghost (kCorner: the first edge ghost)
  std::int32_t nb = 0;     ///< source patch (kCorner: the owning patch)
  std::int32_t src = 0;    ///< first source cell in patch nb (kCorner: the
                           ///< second edge ghost, in the owning patch)
  std::int32_t step = 0;   ///< kAverage: offset between consecutive
                           ///< sources; kInterp: second source - first
  double w = 0.0;          ///< kInterp: weight of the second source
  double t_perp = 1.0;     ///< perpendicular interpolation factor
};

/// A mesh's interface ghost writes, grouped by owning patch. Patch k's
/// entries are [begin(k), begin(k + 1)): its west, east, south and north
/// interface edges in tangential order, then its four corners (which read
/// the edge ghosts, so they come last). Every entry writes a ghost of its
/// own patch and reads only interior cells (corners: own ghosts), so
/// patches can be evaluated in any order or concurrently. exchange_ghosts()
/// evaluates every entry; no solver code reads single entries (the
/// multigrid's compiled rungs find a neighbour's cell through
/// CompositeMesh::neighbour()).
class HaloPlan {
 public:
  [[nodiscard]] const std::vector<HaloEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] int begin(int k) const {
    return begin_[static_cast<std::size_t>(k)];
  }
  /// Evaluates patch k's entries in order: fills its interface ghosts.
  void apply_patch(CompositeScalar& s, int k) const {
    double* mine = s[static_cast<std::size_t>(k)].data();
    const int end = begin(k + 1);
    for (int q = begin(k); q < end; ++q) {
      const HaloEntry& e = entries_[static_cast<std::size_t>(q)];
      if (e.kind == HaloEntry::kCorner) {
        mine[e.dst] = 0.5 * (mine[e.inner] + mine[e.src]);
        continue;
      }
      const double* theirs = s[static_cast<std::size_t>(e.nb)].data();
      double sample;
      if (e.kind == HaloEntry::kCopy) {
        sample = theirs[e.src];
      } else if (e.kind == HaloEntry::kAverage) {
        double acc = 0.0;
        for (int f = 0; f < e.n; ++f) acc += theirs[e.src + f * e.step];
        sample = acc / e.n;
      } else {
        sample = (1.0 - e.w) * theirs[e.src] + e.w * theirs[e.src + e.step];
      }
      const double inner = mine[e.inner];
      mine[e.dst] = inner + e.t_perp * (sample - inner);
    }
  }

 private:
  friend class CompositeMesh;
  std::vector<HaloEntry> entries_;
  std::vector<int> begin_;  // patch_count + 1 offsets into entries_
};

/// Below this many active cells a mesh runs every loop on the calling
/// thread: the shrink-8 LR meshes and the multigrid's coarse rungs are far
/// too small to amortise an OpenMP fork/join. Mesh-derived only, never
/// thread-count-derived, so bitwise thread invariance holds.
inline constexpr long long kParallelCellFloor = 2048;

/// The full composite mesh: patch geometry for a CaseSpec + RefinementMap.
class CompositeMesh {
 public:
  /// Builds patch meshes, solid masks and wall distances. Masks and wall
  /// distances are evaluated analytically at every cell centre (ghosts
  /// included), so they are exact at every level.
  CompositeMesh(CaseSpec spec, RefinementMap map);

  [[nodiscard]] const CaseSpec& spec() const { return spec_; }
  [[nodiscard]] const RefinementMap& map() const { return map_; }
  [[nodiscard]] int npy() const { return map_.npy(); }
  [[nodiscard]] int npx() const { return map_.npx(); }
  [[nodiscard]] int patch_count() const { return map_.count(); }

  [[nodiscard]] const PatchMesh& patch(int pi, int pj) const {
    return patches_[static_cast<std::size_t>(pi) * npx() + pj];
  }
  [[nodiscard]] const PatchMesh& patch_flat(int k) const {
    return patches_[k];
  }

  /// The patch across side s of patch k, or -1 on the domain boundary.
  [[nodiscard]] int neighbour(int k, Side s) const {
    const PatchMesh& pm = patches_[static_cast<std::size_t>(k)];
    switch (s) {
      case kW: return pm.pj > 0 ? k - 1 : -1;
      case kE: return pm.pj + 1 < npx() ? k + 1 : -1;
      case kS: return pm.pi > 0 ? k - npx() : -1;
      case kN: return pm.pi + 1 < npy() ? k + npx() : -1;
    }
    return -1;
  }

  /// Side s of patch k.
  [[nodiscard]] PatchSide side(int k, Side s) const {
    return PatchSide(patches_[static_cast<std::size_t>(k)], k, s);
  }

  /// Total interior cells across all patches (the AMR cost driver).
  [[nodiscard]] long long active_cells() const;

  /// Number of fluid (non-solid) interior cells.
  [[nodiscard]] long long fluid_cells() const;

  /// True when the mesh has at least kParallelCellFloor active cells: the
  /// flag every loop over it passes to parallel_region() / for_range().
  [[nodiscard]] bool parallel() const { return parallel_; }

  /// The compiled interface ghost writes that exchange_ghosts() evaluates.
  [[nodiscard]] const HaloPlan& halo() const { return halo_; }

  /// Bytes written by one exchange_ghosts() pass over a single scalar: one
  /// double per halo-plan entry (interface-edge ghosts plus the four corner
  /// ghosts of every patch). Feeds the solver.ghosts.bytes traffic counter.
  [[nodiscard]] long long ghost_bytes_per_scalar() const {
    return static_cast<long long>(halo_.entries().size()) *
           static_cast<long long>(sizeof(double));
  }

 private:
  CaseSpec spec_;
  RefinementMap map_;
  std::vector<PatchMesh> patches_;
  HaloPlan halo_;
  bool parallel_ = false;

  void compile_halo();
};

namespace detail {
void count_parallel_region();  // adds 1 to solver.parallel.regions
}  // namespace detail

/// With `parallel` (a mesh's parallel()), runs body() on every thread of a
/// new OpenMP team; without, once on the calling thread. Loops in body are
/// orphaned `#pragma omp for schedule(static)` loops, which a team splits
/// statically and a lone thread runs whole. Each writes disjoint data per
/// index and reduces through per-row partials summed serially, so both
/// give the same bits. Never call it inside another team: the loops would
/// bind to it.
template <typename Body>
void parallel_region(bool parallel, Body&& body) {
  if (parallel) {
    detail::count_parallel_region();
#pragma omp parallel
    body();
  } else {
    body();
  }
}

/// Calls fn(r) for r = 0 .. n - 1: parallel_region with one static loop.
template <typename Fn>
void for_range(int n, bool parallel, Fn&& fn) {
  parallel_region(parallel, [&] {
#pragma omp for schedule(static) nowait
    for (int r = 0; r < n; ++r) fn(r);
  });
}

/// Calls fn(k) for every patch k of `mesh`, forking on mesh.parallel().
template <typename Fn>
void for_patches(const CompositeMesh& mesh, Fn&& fn) {
  for_range(mesh.patch_count(), mesh.parallel(), fn);
}

/// Calls fn(s, ghost, cell) for every domain-boundary ghost of patch k
/// that lines an edge (corners excluded), side by side in W, E, S, N order
/// and along each side in t order: `ghost` is the ghost's flat offset and
/// `cell` that of the interior cell next to it.
template <typename Fn>
void for_each_boundary_ghost(const CompositeMesh& mesh, int k, Fn&& fn) {
  for (const Side s : kSides) {
    if (mesh.neighbour(k, s) >= 0) continue;
    const PatchSide ps = mesh.side(k, s);
    for (int t = 1; t <= ps.n; ++t) fn(s, ps.ghost(t), ps.cell(t));
  }
}

/// Calls fn(a, b) for each interface on the east and north sides of patch
/// k: a is patch k's side, b the neighbour's facing side. Looping k over
/// every patch visits each interface exactly once, from the patch west or
/// south of it, so a pass that writes only the slots of the interface it
/// is handed may run its k loop in parallel.
template <typename Fn>
void for_each_interface(const CompositeMesh& mesh, int k, Fn&& fn) {
  for (const Side s : {kE, kN}) {
    const int nb = mesh.neighbour(k, s);
    if (nb >= 0) fn(mesh.side(k, s), mesh.side(nb, opposite(s)));
  }
}

/// The four-variable flow state on a composite mesh.
struct CompositeField {
  CompositeScalar U;
  CompositeScalar V;
  CompositeScalar p;
  CompositeScalar nuTilda;

  /// Channel access in paper order (0:U, 1:V, 2:p, 3:nuTilda).
  CompositeScalar& channel(int c);
  const CompositeScalar& channel(int c) const;
};

/// Allocates a zeroed scalar matching the mesh's patch shapes (with ghosts).
CompositeScalar make_scalar(const CompositeMesh& mesh);

/// Allocates a zeroed four-variable state matching the mesh.
CompositeField make_field(const CompositeMesh& mesh);

/// Fills interior-interface ghost cells of `s` from neighbouring patches by
/// evaluating the mesh's halo plan: same-level copy, fine-to-coarse
/// averaging, coarse-to-fine linear interpolation along the interface,
/// corners last. Domain-boundary ghosts are untouched. Patches run through
/// for_range on mesh.parallel(); each writes only its own ghosts.
void exchange_ghosts(CompositeScalar& s, const CompositeMesh& mesh);

/// Exchanges ghosts for the channels selected by `channel_mask` (bit c set
/// = channel c in paper order 0:U, 1:V, 2:p, 3:nuTilda) in one fused pass:
/// one for_range over patch x channel work items instead of one per
/// channel. The solver's phases pass exactly the channels they dirtied
/// (e.g. U|V after a momentum sweep), which cuts ghost traffic and, above
/// the floor, the fork count on the hot path.
void exchange_ghosts(CompositeField& f, const CompositeMesh& mesh,
                     unsigned channel_mask);

/// Exchanges ghosts for all four variables (channel_mask 0b1111).
void exchange_ghosts(CompositeField& f, const CompositeMesh& mesh);

/// Initialises the composite state by sampling a uniform LR field (shape
/// spec.base_ny x spec.base_nx) at every patch cell centre (bicubic).
void fill_from_uniform(CompositeField& f, const CompositeMesh& mesh,
                       const field::FlowField& lr);

/// Samples the composite state onto a uniform grid at `level` (the whole
/// domain at resolution base * 2^level), bilinear within each patch.
field::FlowField to_uniform(const CompositeField& f, const CompositeMesh& mesh,
                            int level);

/// Samples one composite scalar onto a uniform grid at `level`.
field::Grid2Dd scalar_to_uniform(const CompositeScalar& s,
                                 const CompositeMesh& mesh, int level);

/// Transfers a solution between two composite meshes of the same case
/// (different refinement maps): the source is sampled onto a uniform grid
/// at its finest level, then each destination patch cell is interpolated
/// from it (bicubic). Used when the AMR driver re-meshes.
CompositeField regrid(const CompositeField& src, const CompositeMesh& from,
                      const CompositeMesh& to);

}  // namespace adarnet::mesh
