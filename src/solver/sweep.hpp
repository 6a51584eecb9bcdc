// Thread-parallel sweep machinery shared by the SIMPLE solver (rans.cpp)
// and the geometric multigrid pressure solver (mg.cpp).
//
// The unit of parallel work is one interior row of one patch (RowRef). A
// red-black sweep runs as two colored half-sweeps, each a mesh::for_range
// over rows: cells of one color only read the other color (plus ghosts
// frozen for the sweep), so the update is race-free and the result is
// independent of the thread count. Every floating-point reduction funnels
// through per-row partial buffers summed in fixed order (sum_rows), so the
// summation order — and therefore the result, bit for bit — does not
// depend on the number of threads either (DESIGN.md §8, §11). Each call
// takes its mesh's parallel() flag: meshes below mesh::kParallelCellFloor
// (the shrink-8 LR meshes, the multigrid's coarse rungs) sweep on the
// calling thread.
#pragma once

#include <algorithm>
#include <vector>

#include "mesh/composite.hpp"

namespace adarnet::solver::sweep {

/// One interior row of one patch: the unit of thread-parallel sweep work.
/// Rows are the natural grain because a red-black half-sweep touches every
/// other cell of a row, and rows of different patches balance the load on
/// composite meshes where refined patches carry 4x the cells.
struct RowRef {
  int k = 0;  ///< flat patch index
  int i = 0;  ///< interior row (1-based)
};

/// Every interior row of a mesh, patch-major: the solver's and each
/// multigrid level's sweep items, and the order of their per-row partials.
inline std::vector<RowRef> interior_rows(const mesh::CompositeMesh& mesh) {
  std::vector<RowRef> rows;
  for (int k = 0; k < mesh.patch_count(); ++k) {
    for (int i = 1; i <= mesh.patch_flat(k).ny; ++i) rows.push_back({k, i});
  }
  return rows;
}

/// Runs one colored half-sweep (color 0/1) over all rows (for_range).
/// Exposed separately from run_sweep so the multigrid smoother can refresh
/// interface ghosts between the two colors on its degenerate coarse levels
/// (solver/mg.cpp).
template <typename RowFn>
void run_half_sweep(const std::vector<RowRef>& rows, int color, bool parallel,
                    RowFn&& row_fn) {
  mesh::for_range(static_cast<int>(rows.size()), parallel,
                  [&](int r) { row_fn(r, rows[r].k, rows[r].i, color); });
}

/// Runs one in-place red-black sweep over all rows: two colored
/// half-sweeps. row_fn(r, k, i, color) updates row r's cells with
/// (i + j) % 2 == color.
template <typename RowFn>
void run_sweep(const std::vector<RowRef>& rows, bool parallel,
               RowFn&& row_fn) {
  for (int color = 0; color < 2; ++color) {
    run_half_sweep(rows, color, parallel, row_fn);
  }
}

/// Read-only pass over all rows (defect evaluation) through for_range, no
/// coloring needed because nothing is updated in place.
template <typename RowFn>
void run_scan(const std::vector<RowRef>& rows, bool parallel,
              RowFn&& row_fn) {
  mesh::for_range(static_cast<int>(rows.size()), parallel,
                  [&](int r) { row_fn(r, rows[r].k, rows[r].i); });
}

/// First column of a row's cells with color (i + j) % 2 == color; the
/// cells of one color sit two columns apart.
inline int color_j0(int i, int color) {
  return (((i + 1) & 1) == color) ? 1 : 2;
}

/// Fixed-order serial sum of the per-row reduction partials.
inline double sum_rows(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}
inline void zero_rows(std::vector<double>& v) {
  std::fill(v.begin(), v.end(), 0.0);
}

}  // namespace adarnet::solver::sweep
