// SA transport sweeps on batched colour lanes (DESIGN.md §8).
//
// A red-black half-sweep updates every fluid cell of one colour from cells
// of the other colour and from ghosts frozen since the last exchange, so
// the cells of one colour are independent of each other. Each SA cell is
// one dependent chain of about eight divisions and a std::pow call, and on
// the shrink-8 meshes a patch row holds only 1-8 cells of one colour, too
// few for the core to overlap one cell's chain with the next one's. So
// each colour's fluid cells form one list of lanes, in the (patch, row)
// sweep's visit order, and a half-sweep runs it in blocks of kBlock lanes
// split into three stage loops:
//   1. gather nuTilda, U and V on each lane's 5-point stencil; transport
//      coefficients, S~, production, the cross term and r;
//   2. fw: the bases of every lane's sixth root in one loop, then one
//      std::pow per lane;
//   3. destruction, diagonal, defect and the update, written back.
// Every lane keeps the expression trees and operand order of the per-cell
// kernel it replaced, in plain C++ at the library's baseline ISA, so the
// output is bitwise the same: SaLanes.HalfSweepMatchesPerCellOracleBitwise
// holds the old per-cell kernel as its oracle.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mesh/composite.hpp"

namespace adarnet::solver {

/// Constants of one SA solve.
struct SaParams {
  double nu = 0.0;          ///< molecular viscosity
  double u_ref = 0.0;       ///< inlet velocity (pseudo-time step scale)
  double pseudo_cfl = 0.0;  ///< local pseudo-time step CFL number
  double alpha_nt = 1.0;    ///< SA under-relaxation factor
  double nt_inflow = 0.0;   ///< inflow nuTilda (scale of the defect)
};

/// Every interior cell of a mesh as a lane of its colour. Built once per
/// solver workspace from the mesh alone; the mesh must outlive it (lanes
/// read its wall distance in place).
class SaLanes {
 public:
  /// Lanes per block: the unit of parallel work and of the stage loops.
  static constexpr int kBlock = 32;

  /// Lanes follow the sweep's rows, sweep::interior_rows(mesh), then
  /// ascending j; row r's partial sums go to slot r of the reduction
  /// buffers.
  explicit SaLanes(const mesh::CompositeMesh& mesh);

  /// One red-black half-sweep of f.nuTilda over the cells of `colour`;
  /// solid cells become 0. When `measure`, row r's steady defects of this
  /// colour, summed in lane order, are added to acc_a[r] and their count
  /// to acc_b[r].
  void half_sweep(mesh::CompositeField& f, int colour, const SaParams& p,
                  bool measure, std::vector<double>& acc_a,
                  std::vector<double>& acc_b);

  /// Read-only steady defect: acc_a[r] = row r's defects summed in
  /// ascending j over both colours, acc_b[r] = its fluid cell count.
  void defect_rows(const mesh::CompositeField& f, const SaParams& p,
                   std::vector<double>& acc_a, std::vector<double>& acc_b);

  /// Fluid cells of `colour` (the lane count a half-sweep runs).
  [[nodiscard]] std::size_t fluid_lanes(int colour) const {
    return colour_[static_cast<std::size_t>(colour)].fluid.size();
  }

 private:
  /// One cell: its patch and flat offset into the patch's ghosted
  /// (ny + 2) x (nx + 2) arrays, which wall_dist shares with the fields.
  struct Lane {
    std::int32_t k = 0;
    std::int32_t off = 0;
  };
  struct Colour {
    std::vector<Lane> fluid;               ///< visit order
    std::vector<std::int32_t> row_start;   ///< row r: [row_start[r], [r+1])
    std::vector<Lane> solid;
  };
  /// One patch: the field bases of the current call (bind), then its
  /// wall distance and spacing.
  struct Patch {
    const double* u = nullptr;
    const double* v = nullptr;
    const double* nt = nullptr;
    double* nt_out = nullptr;  ///< nuTilda written back (half_sweep only)
    const double* wall = nullptr;
    double dx = 0.0;
    double dy = 0.0;
    double dy_dx = 0.0;  ///< dy / dx
    double dx_dy = 0.0;  ///< dx / dy
    std::ptrdiff_t stride = 0;
  };

  void bind(const mesh::CompositeField& f, mesh::CompositeScalar* nt_out);
  /// The three stages on lanes[0, n), n <= kBlock: writes lane l's defect
  /// to defect[l] when kMeasure, its new nuTilda through Patch::nt_out
  /// when kUpdate.
  template <bool kUpdate, bool kMeasure>
  void run_block(const Lane* lanes, int n, const SaParams& p,
                 double* defect) const;

  std::array<Colour, 2> colour_;
  std::vector<Patch> patch_;
  std::vector<double> defect_;  ///< one slot per fluid lane, both colours
  bool parallel_ = false;       ///< the mesh's parallel()
};

}  // namespace adarnet::solver
