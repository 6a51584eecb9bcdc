#include "solver/rans.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "solver/jump.hpp"
#include "solver/mg.hpp"
#include "solver/sa_lanes.hpp"
#include "solver/sa_model.hpp"
#include "solver/sweep.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/reqctx.hpp"
#include "util/trace.hpp"

namespace adarnet::solver {

using field::Grid2Dd;
using mesh::BcType;
using mesh::CompositeField;
using mesh::CompositeMesh;
using mesh::CompositeScalar;
using mesh::PatchMesh;
using mesh::SideBc;
using mesh::for_patches;

namespace {

using util::reqctx::Phase;

// Channel indices into CompositeField (paper order).
constexpr int kU = 0;
constexpr int kV = 1;
constexpr int kP = 2;
constexpr int kNt = 3;

// Red-black Gauss-Seidel sweeps per momentum and per SA solve.
constexpr int kMomentumSweeps = 2;
constexpr int kSaSweeps = 2;

// Phase scopes of the outer iteration (DESIGN.md §8): the self time of
// each lands in its PhaseTimes field and its "<name>.ns" counter.
// Event-free: they open several times per iteration, far too often for
// request span trees and chrome traces.
struct PhaseScope {
  util::trace::Site site;
  double PhaseTimes::*seconds;
};
constexpr PhaseScope kMomentum{
    {"solver.momentum", nullptr, Phase::kMomentum, false},
    &PhaseTimes::momentum};
constexpr PhaseScope kRhieChow{
    {"solver.rhie_chow", nullptr, Phase::kRhieChow, false},
    &PhaseTimes::rhie_chow};
constexpr PhaseScope kPressure{
    {"solver.pressure", nullptr, Phase::kPressure, false},
    &PhaseTimes::pressure};
constexpr PhaseScope kSa{{"solver.sa", nullptr, Phase::kSa, false},
                         &PhaseTimes::sa};
constexpr PhaseScope kGhosts{{"solver.ghosts", nullptr, Phase::kGhosts, false},
                             &PhaseTimes::ghosts};

// Ghost value for a Dirichlet face value: linear extrapolation so that the
// face average equals the imposed value.
double dirichlet_ghost(double face_value, double interior) {
  return 2.0 * face_value - interior;
}

// Ghost for one domain-boundary cell given the side's BC, the variable,
// and whether the boundary is normal to x (left/right) or y (bottom/top).
double bc_ghost(const SideBc& bc, int ch, bool normal_x, double interior) {
  switch (bc.type) {
    case BcType::kInlet:
    case BcType::kFreestream:
      switch (ch) {
        case kU: return dirichlet_ghost(bc.u, interior);
        case kV: return dirichlet_ghost(bc.v, interior);
        case kP: return interior;  // zero-gradient pressure
        default: return dirichlet_ghost(bc.nuTilda, interior);
      }
    case BcType::kOutlet:
      // Zero-gradient for velocity and nuTilda, fixed p = 0 at the face.
      return ch == kP ? -interior : interior;
    case BcType::kWall:
      // No-slip: U = V = 0 and nuTilda = 0 at the face.
      return ch == kP ? interior : -interior;
    case BcType::kSymmetry: {
      // Normal velocity is odd, everything else even.
      const bool odd = (normal_x && ch == kU) || (!normal_x && ch == kV);
      return odd ? -interior : interior;
    }
  }
  return interior;
}

// The (patch, row) sweep machinery lives in solver/sweep.hpp, shared with
// the multigrid pressure solver.
using sweep::color_j0;
using sweep::interior_rows;
using sweep::RowRef;
using sweep::run_scan;
using sweep::run_sweep;
using sweep::sum_rows;
using sweep::zero_rows;

// Channel masks for the fused ghost exchanges: each phase exchanges
// exactly the channels it dirtied (DESIGN.md §11).
constexpr unsigned kMaskUV = 0b0011u;    // momentum sweeps touch U, V
constexpr unsigned kMaskNt = 1u << kNt;  // SA sweeps touch nuTilda
constexpr unsigned kMaskAll = 0b1111u;

// Momentum coefficients, pressure gradient and neighbour sums of one fluid
// cell, assembled from the current state. Shared by the Gauss-Seidel update
// (outer_iteration) and the read-only defect evaluation (residuals()), so
// the two can never drift apart.
struct MomentumCell {
  double ae = 0, aw = 0, an = 0, as = 0;  // neighbour coefficients
  double a_time = 0;                      // pseudo-transient diagonal term
  double dpdx = 0, dpdy = 0;              // central pressure gradient
  double nb_u = 0, nb_v = 0;              // sum of a_nb * neighbour values

  [[nodiscard]] double sum_a() const { return ae + aw + an + as; }
};

inline MomentumCell momentum_cell(const Grid2Dd& U, const Grid2Dd& V,
                                  const Grid2Dd& P, const Grid2Dd& NT,
                                  double nu, double u_ref, double pseudo_cfl,
                                  double dx, double dy, int i, int j) {
  MomentumCell c;
  // Face velocities (linear interpolation) drive the upwinding.
  const double fe = 0.5 * (U(i, j) + U(i, j + 1)) * dy;
  const double fw_ = 0.5 * (U(i, j) + U(i, j - 1)) * dy;
  const double fn = 0.5 * (V(i, j) + V(i + 1, j)) * dx;
  const double fs = 0.5 * (V(i, j) + V(i - 1, j)) * dx;
  // Face diffusion with effective viscosity.
  const double de = 0.5 * (2.0 * nu + NT(i, j) + NT(i, j + 1)) * dy / dx;
  const double dw = 0.5 * (2.0 * nu + NT(i, j) + NT(i, j - 1)) * dy / dx;
  const double dn = 0.5 * (2.0 * nu + NT(i, j) + NT(i + 1, j)) * dx / dy;
  const double ds = 0.5 * (2.0 * nu + NT(i, j) + NT(i - 1, j)) * dx / dy;
  c.ae = de + std::max(-fe, 0.0);
  c.aw = dw + std::max(fw_, 0.0);
  c.an = dn + std::max(-fn, 0.0);
  c.as = ds + std::max(fs, 0.0);
  // The continuity-defect term (fe - fw + fn - fs) is omitted from the
  // diagonal: it vanishes at convergence and breaks diagonal dominance
  // while the mass residual is still large. A local pseudo-transient term
  // bounds Vol/aP in near-stagnation cells, where a purely viscous
  // diagonal would make the pressure correction explosively stiff.
  const double speed =
      std::abs(U(i, j)) + std::abs(V(i, j)) + 0.3 * std::abs(u_ref) + 1e-30;
  const double dt = pseudo_cfl * std::min(dx, dy) / speed;
  c.a_time = dx * dy / dt;
  c.dpdx = (P(i, j + 1) - P(i, j - 1)) / (2.0 * dx);
  c.dpdy = (P(i + 1, j) - P(i - 1, j)) / (2.0 * dy);
  c.nb_u = c.ae * U(i, j + 1) + c.aw * U(i, j - 1) + c.an * U(i + 1, j) +
           c.as * U(i - 1, j);
  c.nb_v = c.ae * V(i, j + 1) + c.aw * V(i, j - 1) + c.an * V(i + 1, j) +
           c.as * V(i - 1, j);
  return c;
}

// True steady momentum defect of one cell (pseudo-time and relaxation
// excluded), normalised per cell by the diagonal times u_ref. An
// interpolated coarse solution does not satisfy the fine equations, so
// this measure cannot be fooled by small steps. The U and V defects are
// returned separately so the residual time-series can track each
// component; the combined convergence measure is their sum.
struct MomentumDefect {
  double u = 0.0;
  double v = 0.0;
};

inline MomentumDefect momentum_defect(const MomentumCell& c, double u,
                                      double v, double vol, double u_ref) {
  const double denom = c.sum_a() * std::max(std::abs(u_ref), 1e-30);
  return {std::abs(c.nb_u - c.dpdx * vol - c.sum_a() * u) / denom,
          std::abs(c.nb_v - c.dpdy * vol - c.sum_a() * v) / denom};
}

}  // namespace

// --- SA transport on colour lanes (solver/sa_lanes.hpp) ---------------------

SaLanes::SaLanes(const CompositeMesh& mesh)
    : patch_(static_cast<std::size_t>(mesh.patch_count())),
      parallel_(mesh.parallel()) {
  for (std::size_t k = 0; k < patch_.size(); ++k) {
    const PatchMesh& pm = mesh.patch_flat(static_cast<int>(k));
    Patch& pt = patch_[k];
    pt.wall = pm.wall_dist.data();
    pt.dx = pm.dx;
    pt.dy = pm.dy;
    pt.dy_dx = pm.dy / pm.dx;
    pt.dx_dy = pm.dx / pm.dy;
    pt.stride = pm.nx + 2;
  }
  const std::vector<RowRef> rows = interior_rows(mesh);
  for (int colour = 0; colour < 2; ++colour) {
    Colour& c = colour_[static_cast<std::size_t>(colour)];
    for (const RowRef& row : rows) {
      c.row_start.push_back(static_cast<std::int32_t>(c.fluid.size()));
      const PatchMesh& pm = mesh.patch_flat(row.k);
      for (int j = color_j0(row.i, colour); j <= pm.nx; j += 2) {
        const Lane lane{row.k, row.i * (pm.nx + 2) + j};
        (pm.solid(row.i, j) ? c.solid : c.fluid).push_back(lane);
      }
    }
    c.row_start.push_back(static_cast<std::int32_t>(c.fluid.size()));
  }
  defect_.resize(colour_[0].fluid.size() + colour_[1].fluid.size());
}

void SaLanes::bind(const CompositeField& f, CompositeScalar* nt_out) {
  for (std::size_t k = 0; k < patch_.size(); ++k) {
    Patch& pt = patch_[k];
    pt.u = f.U[k].data();
    pt.v = f.V[k].data();
    pt.nt = f.nuTilda[k].data();
    pt.nt_out = nt_out != nullptr ? (*nt_out)[k].data() : nullptr;
  }
}

template <bool kUpdate, bool kMeasure>
void SaLanes::run_block(const Lane* lanes, int n, const SaParams& p,
                        double* defect) const {
  const double nu = p.nu;
  // Stage 1: gather each lane's stencil (centre, east, west, north, south).
  alignas(64) double ntc[kBlock], nte[kBlock], ntw[kBlock], ntn[kBlock],
      nts[kBlock];
  alignas(64) double uc[kBlock], ue[kBlock], uw[kBlock], un[kBlock],
      us[kBlock];
  alignas(64) double vc[kBlock], ve[kBlock], vw[kBlock], vn[kBlock],
      vs[kBlock];
  alignas(64) double dx[kBlock], dy[kBlock], dy_dx[kBlock], dx_dy[kBlock],
      d_wall[kBlock];
  for (int l = 0; l < n; ++l) {
    const Patch& pt = patch_[static_cast<std::size_t>(lanes[l].k)];
    const std::ptrdiff_t o = lanes[l].off;
    const std::ptrdiff_t s = pt.stride;
    ntc[l] = pt.nt[o];
    nte[l] = pt.nt[o + 1];
    ntw[l] = pt.nt[o - 1];
    ntn[l] = pt.nt[o + s];
    nts[l] = pt.nt[o - s];
    uc[l] = pt.u[o];
    ue[l] = pt.u[o + 1];
    uw[l] = pt.u[o - 1];
    un[l] = pt.u[o + s];
    us[l] = pt.u[o - s];
    vc[l] = pt.v[o];
    ve[l] = pt.v[o + 1];
    vw[l] = pt.v[o - 1];
    vn[l] = pt.v[o + s];
    vs[l] = pt.v[o - s];
    dx[l] = pt.dx;
    dy[l] = pt.dy;
    dy_dx[l] = pt.dy_dx;
    dx_dy[l] = pt.dx_dy;
    d_wall[l] = pt.wall[o];
  }

  // Stage 1: transport coefficients and sources up to r.
  alignas(64) double ae[kBlock], aw[kBlock], an[kBlock], as[kBlock];
  alignas(64) double nb_sum[kBlock], production[kBlock], cross[kBlock],
      a_time[kBlock], nt_here[kBlock], vol[kBlock], r[kBlock];
  for (int l = 0; l < n; ++l) {
    vol[l] = dx[l] * dy[l];
    // Convection fluxes (upwind).
    const double fe = 0.5 * (uc[l] + ue[l]) * dy[l];
    const double fw_ = 0.5 * (uc[l] + uw[l]) * dy[l];
    const double fn = 0.5 * (vc[l] + vn[l]) * dx[l];
    const double fs = 0.5 * (vc[l] + vs[l]) * dx[l];
    // Diffusion (nu + nuTilda) / sigma at faces.
    auto dface = [&](double nt_a, double nt_b, double len_over) {
      const double nt_face =
          0.5 * (std::max(nt_a, 0.0) + std::max(nt_b, 0.0));
      return (nu + nt_face) / sa::kSigma * len_over;
    };
    const double de = dface(ntc[l], nte[l], dy_dx[l]);
    const double dw = dface(ntc[l], ntw[l], dy_dx[l]);
    const double dn = dface(ntc[l], ntn[l], dx_dy[l]);
    const double ds = dface(ntc[l], nts[l], dx_dy[l]);
    ae[l] = de + std::max(-fe, 0.0);
    aw[l] = dw + std::max(fw_, 0.0);
    an[l] = dn + std::max(-fn, 0.0);
    as[l] = ds + std::max(fs, 0.0);

    // Sources.
    nt_here[l] = std::max(ntc[l], 0.0);
    const double dudy = (un[l] - us[l]) / (2.0 * dy[l]);
    const double dvdx = (ve[l] - vw[l]) / (2.0 * dx[l]);
    const double vort = std::abs(dvdx - dudy);
    const double st = sa::s_tilde(vort, nt_here[l], nu, d_wall[l]);
    production[l] = sa::kCb1 * st * nt_here[l] * vol[l];
    r[l] = sa::r_param(nt_here[l], st, d_wall[l]);
    // cb2/sigma |grad nt|^2 (explicit).
    const double dntdx = (nte[l] - ntw[l]) / (2.0 * dx[l]);
    const double dntdy = (ntn[l] - nts[l]) / (2.0 * dy[l]);
    cross[l] = sa::kCb2 / sa::kSigma * (dntdx * dntdx + dntdy * dntdy) * vol[l];

    const double speed = std::abs(uc[l]) + std::abs(vc[l]) +
                         0.3 * std::abs(p.u_ref) + 1e-30;
    const double dt = p.pseudo_cfl * std::min(dx[l], dy[l]) / speed;
    a_time[l] = vol[l] / dt;
    nb_sum[l] =
        ae[l] * nte[l] + aw[l] * ntw[l] + an[l] * ntn[l] + as[l] * nts[l];
  }

  // Stage 2: fw. The bases in one loop, then one std::pow per lane; the
  // pow calls of a block do not depend on each other.
  alignas(64) double g[kBlock], base[kBlock], fw[kBlock];
  for (int l = 0; l < n; ++l) {
    g[l] = sa::g_param(r[l]);
    base[l] = sa::fw_base(g[l]);
  }
  for (int l = 0; l < n; ++l) fw[l] = sa::fw(g[l], base[l]);

  // Stage 3: destruction linearised implicitly (cw1 fw (nt/d)^2 =
  // [cw1 fw nt/d^2] * nt goes to the diagonal), the relaxed update and the
  // true steady defect, normalised by the diagonal times a turbulence
  // scale.
  alignas(64) double fresh[kBlock];
  for (int l = 0; l < n; ++l) {
    const double destr =
        sa::cw1() * fw[l] * nt_here[l] / (d_wall[l] * d_wall[l]) * vol[l];
    const double sum_a = ae[l] + aw[l] + an[l] + as[l] + destr;
    const double old = ntc[l];
    if constexpr (kMeasure) {
      const double nt_ref = std::max({p.nt_inflow, 3.0 * nu, old});
      defect[l] = std::abs(nb_sum[l] + production[l] + cross[l] - sum_a * old) /
                  (sum_a * nt_ref);
    }
    if constexpr (kUpdate) {
      const double ap = std::max(sum_a + a_time[l], 1e-30) / p.alpha_nt;
      const double relax = (1.0 - p.alpha_nt) * ap + a_time[l];
      fresh[l] = std::max(
          (nb_sum[l] + production[l] + cross[l] + relax * old) / ap, 0.0);
    }
  }
  if constexpr (kUpdate) {
    for (int l = 0; l < n; ++l) {
      patch_[static_cast<std::size_t>(lanes[l].k)].nt_out[lanes[l].off] =
          fresh[l];
    }
  }
}

void SaLanes::half_sweep(CompositeField& f, int colour, const SaParams& p,
                         bool measure, std::vector<double>& acc_a,
                         std::vector<double>& acc_b) {
  bind(f, &f.nuTilda);
  const Colour& c = colour_[static_cast<std::size_t>(colour)];
  const int n = static_cast<int>(c.fluid.size());
  const int blocks = (n + kBlock - 1) / kBlock;
  const int solids = static_cast<int>(c.solid.size());
  const int rows = static_cast<int>(c.row_start.size()) - 1;
  double* defect = defect_.data();
  mesh::parallel_region(parallel_, [&] {
#pragma omp for schedule(static) nowait
    for (int s = 0; s < solids; ++s) {
      const Lane& cell = c.solid[static_cast<std::size_t>(s)];
      patch_[static_cast<std::size_t>(cell.k)].nt_out[cell.off] = 0.0;
    }
#pragma omp for schedule(static)
    for (int b = 0; b < blocks; ++b) {
      const int l0 = b * kBlock;
      const int len = std::min(kBlock, n - l0);
      if (measure) {
        run_block<true, true>(&c.fluid[l0], len, p, defect + l0);
      } else {
        run_block<true, false>(&c.fluid[l0], len, p, nullptr);
      }
    }
    // Each row's defects in lane order (ascending j), as the row kernel
    // summed them: the partials keep their bits at every thread count.
    if (measure) {
#pragma omp for schedule(static)
      for (int r = 0; r < rows; ++r) {
        double acc = 0.0;
        for (int l = c.row_start[r]; l < c.row_start[r + 1]; ++l) {
          acc += defect[l];
        }
        acc_a[r] += acc;
        acc_b[r] += static_cast<double>(c.row_start[r + 1] - c.row_start[r]);
      }
    }
  });
}

void SaLanes::defect_rows(const CompositeField& f, const SaParams& p,
                          std::vector<double>& acc_a,
                          std::vector<double>& acc_b) {
  bind(f, nullptr);
  const Colour& c0 = colour_[0];
  const Colour& c1 = colour_[1];
  const int n0 = static_cast<int>(c0.fluid.size());
  const int n1 = static_cast<int>(c1.fluid.size());
  const int blocks0 = (n0 + kBlock - 1) / kBlock;
  const int blocks = blocks0 + (n1 + kBlock - 1) / kBlock;
  const int rows = static_cast<int>(c0.row_start.size()) - 1;
  double* d0 = defect_.data();
  double* d1 = d0 + n0;
  mesh::parallel_region(parallel_, [&] {
#pragma omp for schedule(static)
    for (int b = 0; b < blocks; ++b) {
      const bool first = b < blocks0;
      const int l0 = (first ? b : b - blocks0) * kBlock;
      const int len = std::min(kBlock, (first ? n0 : n1) - l0);
      run_block<false, true>(&(first ? c0 : c1).fluid[l0], len, p,
                             (first ? d0 : d1) + l0);
    }
    // Merge the two colours of each row back into ascending j.
#pragma omp for schedule(static)
    for (int r = 0; r < rows; ++r) {
      int a = c0.row_start[r];
      int b = c1.row_start[r];
      const int a_end = c0.row_start[r + 1];
      const int b_end = c1.row_start[r + 1];
      double acc = 0.0;
      while (a < a_end || b < b_end) {
        if (b == b_end || (a < a_end && c0.fluid[a].off < c1.fluid[b].off)) {
          acc += d0[a++];
        } else {
          acc += d1[b++];
        }
      }
      acc_a[r] = acc;
      acc_b[r] = static_cast<double>((a_end - c0.row_start[r]) +
                                     (b_end - c1.row_start[r]));
    }
  });
}

double Residuals::combined() const {
  if (!std::isfinite(continuity) || !std::isfinite(momentum) ||
      !std::isfinite(sa)) {
    return 1e30;
  }
  return std::max({continuity, momentum, sa});
}

// Per-solver scratch arrays and reduction buffers. Allocated once on first
// use and cached (the mesh, hence every shape, is fixed per solver): the
// AMR driver calls iterate()/solve() in a loop, and reallocating six full
// composite scalars per call dominated small-mesh solves.
struct RansSolver::Workspace {
  CompositeScalar ap;      // relaxed momentum diagonal a_P / alpha_u
  CompositeScalar pc;      // pressure correction p'
  CompositeScalar imb;     // per-cell mass imbalance (pressure RHS)
  CompositeScalar nut;     // eddy viscosity nu_t (from nuTilda)
  CompositeScalar face_u;  // face_u(i,j): u at x-face between (i,j),(i,j+1)
  CompositeScalar face_v;  // face_v(i,j): v at y-face between (i,j),(i+1,j)

  std::vector<RowRef> rows;  // flattened (patch, interior row) work items
  // Per-row reduction partials (fixed-order summation: see sum_rows).
  // acc_c carries the V-component momentum defect alongside acc_a's
  // U-component so both stay per-row fixed-order (thread-count invariant).
  std::vector<double> acc_a;
  std::vector<double> acc_b;
  std::vector<double> acc_c;

  // The SA sweeps' colour lanes, in the visit order of `rows`.
  SaLanes sa;

  // Geometric multigrid ladder for the p' solve. Its level 0 owns the
  // fine p' operator — d = vol / aP and the flux-matched jump stencil —
  // that the corrector and the post-corrector face pass read back.
  PressureMg mg;

  Workspace(const CompositeMesh& mesh, const util::CancelToken* cancel)
      : ap(mesh::make_scalar(mesh)),
        pc(mesh::make_scalar(mesh)),
        imb(mesh::make_scalar(mesh)),
        nut(mesh::make_scalar(mesh)),
        face_u(mesh::make_scalar(mesh)),
        face_v(mesh::make_scalar(mesh)),
        rows(interior_rows(mesh)),
        acc_a(rows.size(), 0.0),
        acc_b(rows.size(), 0.0),
        acc_c(rows.size(), 0.0),
        sa(mesh),
        mg(mesh, cancel) {}
};

RansSolver::RansSolver(const CompositeMesh& mesh, SolverConfig config)
    : mesh_(mesh), config_(config) {}

RansSolver::~RansSolver() = default;

RansSolver::Workspace& RansSolver::workspace() const {
  if (!ws_) ws_ = std::make_unique<Workspace>(mesh_, config_.cancel);
  return *ws_;
}

const CompositeScalar& RansSolver::corrected_face_u() const {
  return workspace().face_u;
}

const CompositeScalar& RansSolver::corrected_face_v() const {
  return workspace().face_v;
}

void RansSolver::initialize_freestream(CompositeField& f) const {
  const mesh::CaseSpec& spec = mesh_.spec();
  const SideBc& in = spec.bc.left;
  for_patches(mesh_, [&](int k) {
    const PatchMesh& pm = mesh_.patch_flat(k);
    for (int i = 0; i <= pm.ny + 1; ++i) {
      for (int j = 0; j <= pm.nx + 1; ++j) {
        const bool solid = pm.solid(i, j) != 0;
        f.U[k](i, j) = solid ? 0.0 : in.u;
        f.V[k](i, j) = solid ? 0.0 : in.v;
        f.p[k](i, j) = 0.0;
        f.nuTilda[k](i, j) = solid ? 0.0 : in.nuTilda;
      }
    }
  });
}

void RansSolver::apply_bc_ghosts(CompositeField& f,
                                 unsigned channel_mask) const {
  const mesh::BcSet& bc = mesh_.spec().bc;
  const SideBc* side_bc[4] = {&bc.left, &bc.right, &bc.bottom, &bc.top};
  for_patches(mesh_, [&](int k) {
    for (int c = 0; c < field::kNumFlowVars; ++c) {
      if (!(channel_mask & (1u << c))) continue;
      double* a = f.channel(c)[k].data();
      mesh::for_each_boundary_ghost(
          mesh_, k, [&](mesh::Side s, int ghost, int cell) {
            a[ghost] = bc_ghost(*side_bc[s], c, mesh::normal_x(s), a[cell]);
          });
    }
  });
}

void RansSolver::refresh_ghosts(CompositeField& f) const {
  exchange_ghosts(f, mesh_);  // fused: all four channels in one loop
  apply_bc_ghosts(f, kMaskAll);
}

void RansSolver::compute_nut(const CompositeField& f, Workspace& ws) const {
  const double nu = mesh_.spec().nu;
  for_patches(mesh_, [&](int k) {
    const PatchMesh& pm = mesh_.patch_flat(k);
    const Grid2Dd& NT = f.nuTilda[k];
    Grid2Dd& out = ws.nut[k];
    for (int i = 0; i <= pm.ny + 1; ++i) {
      for (int j = 0; j <= pm.nx + 1; ++j) {
        out(i, j) = sa::eddy_viscosity(NT(i, j), nu);
      }
    }
  });
}

void RansSolver::extrapolate_ap(Workspace& ws) const {
  for_patches(mesh_, [&](int k) {
    double* ap = ws.ap[k].data();
    mesh::for_each_boundary_ghost(mesh_, k, [&](mesh::Side, int ghost,
                                                int cell) {
      ap[ghost] = ap[cell];
    });
  });
}

double RansSolver::assemble_faces_imbalance(const CompositeField& f,
                                            Workspace& ws) const {
  const mesh::CaseSpec& spec = mesh_.spec();
  const JumpStencil& stencil = ws.mg.fine_stencil();

  // Pass 1: every patch computes its own face velocities (interior faces
  // get the Rhie-Chow pressure-dissipation term to suppress
  // checkerboarding). Patches only write their own face arrays.
  for_patches(mesh_, [&](int k) {
    const PatchMesh& pm = mesh_.patch_flat(k);
    const bool* domain = stencil.faces(k).domain;
    const Grid2Dd& U = f.U[k];
    const Grid2Dd& V = f.V[k];
    const Grid2Dd& P = f.p[k];
    const Grid2Dd& AP = ws.ap[k];
    const double dx = pm.dx;
    const double dy = pm.dy;
    const double vol = dx * dy;

    // Rhie-Chow face velocity on the x-face between (i, j) and (i, j + 1).
    // The averaged cell gradient falls back to one-sided differences where
    // the full stencil would leave the ghost ring, so the pressure
    // dissipation acts on every face (interfaces included).
    auto rc_u_face = [&](int i, int j) {
      const double ubar = 0.5 * (U(i, j) + U(i, j + 1));
      const double d_e = 0.5 * vol * (1.0 / AP(i, j) + 1.0 / AP(i, j + 1));
      const double grad_face = (P(i, j + 1) - P(i, j)) / dx;
      const double grad_l = (j - 1 >= 0)
                                ? (P(i, j + 1) - P(i, j - 1)) / (2.0 * dx)
                                : grad_face;
      const double grad_r = (j + 2 <= pm.nx + 1)
                                ? (P(i, j + 2) - P(i, j)) / (2.0 * dx)
                                : grad_face;
      const double grad_avg = 0.5 * (grad_l + grad_r);
      return ubar - d_e * (grad_face - grad_avg);
    };
    auto rc_v_face = [&](int i, int j) {
      const double vbar = 0.5 * (V(i, j) + V(i + 1, j));
      const double d_n = 0.5 * vol * (1.0 / AP(i, j) + 1.0 / AP(i + 1, j));
      const double grad_face = (P(i + 1, j) - P(i, j)) / dy;
      const double grad_b = (i - 1 >= 0)
                                ? (P(i + 1, j) - P(i - 1, j)) / (2.0 * dy)
                                : grad_face;
      const double grad_t = (i + 2 <= pm.ny + 1)
                                ? (P(i + 2, j) - P(i, j)) / (2.0 * dy)
                                : grad_face;
      const double grad_avg = 0.5 * (grad_b + grad_t);
      return vbar - d_n * (grad_face - grad_avg);
    };

    // Face velocity on the x-face between cells (i, j) and (i, j + 1):
    // zero through solid faces, the exact ghost average on domain-boundary
    // faces (Dirichlet ghosts make it the imposed value), Rhie-Chow
    // everywhere else (patch-interface faces included).
    auto u_face = [&](int i, int j) -> double {
      if (pm.solid(i, j) || pm.solid(i, j + 1)) return 0.0;
      const bool domain_face =
          (domain[mesh::kW] && j == 0) || (domain[mesh::kE] && j == pm.nx);
      if (domain_face) return 0.5 * (U(i, j) + U(i, j + 1));
      return rc_u_face(i, j);
    };
    auto v_face = [&](int i, int j) -> double {
      if (pm.solid(i, j) || pm.solid(i + 1, j)) return 0.0;
      const bool domain_face =
          (domain[mesh::kS] && i == 0) || (domain[mesh::kN] && i == pm.ny);
      if (domain_face) return 0.5 * (V(i, j) + V(i + 1, j));
      return rc_v_face(i, j);
    };

    Grid2Dd& FU = ws.face_u[k];
    Grid2Dd& FV = ws.face_v[k];
    for (int i = 1; i <= pm.ny; ++i) {
      for (int j = 0; j <= pm.nx; ++j) FU(i, j) = u_face(i, j);
    }
    for (int i = 0; i <= pm.ny; ++i) {
      for (int j = 1; j <= pm.nx; ++j) FV(i, j) = v_face(i, j);
    }
  });

  // Pass 2: reflux. Both sides of every patch interface must see one face
  // velocity, or mass is created at level jumps. Fine faces are
  // authoritative: the coarse face value becomes the area mean of the fine
  // faces it covers (coarse flux = sum of fine fluxes). Same-level sides
  // are averaged (their Rhie-Chow stencils differ slightly at the edge).
  // for_each_interface hands iteration k only the interfaces on patch k's
  // east and north sides, so the parallel loop writes disjoint faces.
  //
  // Corner audit: PatchSide's tangential range 1..n covers every interface
  // face, including where three or four patches meet. A vertical interface
  // owns exactly the FU(1..ny, nx) | FU(1..ny, 0) column — there is no
  // FU(0, *) entry anywhere (pass 1 writes FU rows 1..ny only, and the
  // imbalance reads FU(i, j-1) only for i >= 1). The boundary-adjacent
  // entries that do exist, FU(i, 0) and FV(0, j), belong to the WEST /
  // SOUTH interface of the patch and are written by that neighbour's
  // iteration (or are domain faces no interface touches). The debug
  // assertion below holds on every composite scenario mesh.
  for_patches(mesh_, [&](int k) {
    mesh::for_each_interface(mesh_, k, [&](const mesh::PatchSide& a,
                                           const mesh::PatchSide& b) {
      CompositeScalar& face = mesh::normal_x(a.side) ? ws.face_u : ws.face_v;
      double* fa = face[a.k].data();
      double* fb = face[b.k].data();
      if (a.n == b.n) {
        for (int t = 1; t <= a.n; ++t) {
          const double v = 0.5 * (fa[a.face(t)] + fb[b.face(t)]);
          fa[a.face(t)] = v;
          fb[b.face(t)] = v;
        }
        return;
      }
      const bool a_fine = a.n > b.n;
      const mesh::PatchSide& fine = a_fine ? a : b;
      const mesh::PatchSide& coarse = a_fine ? b : a;
      const double* ff = a_fine ? fa : fb;
      double* fc = a_fine ? fb : fa;
      const int r = fine.n / coarse.n;
      for (int tc = 1; tc <= coarse.n; ++tc) {
        double acc = 0.0;
        for (int s = 0; s < r; ++s) acc += ff[fine.face((tc - 1) * r + 1 + s)];
        fc[coarse.face(tc)] = acc / r;
      }
    });
  });

  // Every interface face now carries one authoritative value on both
  // sides; the coarse mean is computed with the exact summation order the
  // checker uses, so the mismatch is zero to the bit.
  assert(interface_flux_mismatch(mesh_, ws.face_u, ws.face_v) == 0.0);

  // Per-cell mass imbalance from the synced faces. The continuity residual
  // is the mean relative imbalance: each cell's |imbalance| is scaled by
  // its own face-flux magnitude (u_ref * cell perimeter / 2), which makes
  // the measure — and therefore the tolerance — consistent across grid
  // resolutions and composite level mixes.
  const double u_scale = std::max(std::abs(spec.bc.left.u), 1e-30);
  zero_rows(ws.acc_a);
  zero_rows(ws.acc_b);
  run_scan(ws.rows, mesh_.parallel(), [&](int r, int k, int i) {
    const PatchMesh& pm = mesh_.patch_flat(k);
    const Grid2Dd& FU = ws.face_u[k];
    const Grid2Dd& FV = ws.face_v[k];
    Grid2Dd& B = ws.imb[k];
    const double cell_flux_scale = u_scale * (pm.dx + pm.dy);
    double mass = 0.0;
    double fluid = 0.0;
    for (int j = 1; j <= pm.nx; ++j) {
      if (pm.solid(i, j)) {
        B(i, j) = 0.0;
        continue;
      }
      const double imb = (FU(i, j) - FU(i, j - 1)) * pm.dy +
                         (FV(i, j) - FV(i - 1, j)) * pm.dx;
      B(i, j) = imb;
      mass += std::abs(imb) / cell_flux_scale;
      fluid += 1.0;
    }
    ws.acc_a[r] = mass;
    ws.acc_b[r] = fluid;
  });
  const double fluid_cells = sum_rows(ws.acc_b);
  return fluid_cells > 0.0 ? sum_rows(ws.acc_a) / fluid_cells : 0.0;
}

// One authoritative p' face correction per patch-interface face, applied
// after the cell corrector. Same-level faces get the symmetric
// mean-mobility correction computed once and written to both sides; jump
// faces get per-subface corrections on the FINE side from the exact
// matched transmissibilities the p' equation was assembled with, and the
// coarse face is then recomputed as the mean of the corrected fine faces
// — the same summation order the reflux pass and the conservation checker
// use, so the invariant holds to the bit. Race-free for the same reason
// as the reflux pass: iteration k owns the faces of the interfaces
// for_each_interface hands it.
static void correct_interface_faces(const CompositeMesh& mesh,
                                    const JumpStencil& st,
                                    const CompositeScalar& pc,
                                    const CompositeScalar& dp,
                                    CompositeScalar& face_u,
                                    CompositeScalar& face_v) {
  for_patches(mesh, [&](int k) {
    mesh::for_each_interface(mesh, k, [&](const mesh::PatchSide& a,
                                          const mesh::PatchSide& b) {
      CompositeScalar& face = mesh::normal_x(a.side) ? face_u : face_v;
      double* fa = face[a.k].data();
      double* fb = face[b.k].data();
      const double* pca = pc[a.k].data();
      const double* pcb = pc[b.k].data();
      if (a.n == b.n) {
        const double* dpa = dp[a.k].data();
        const double* dpb = dp[b.k].data();
        const double dist = 0.5 * (a.h + b.h);
        for (int t = 1; t <= a.n; ++t) {
          const double da = dpa[a.cell(t)];
          const double db = dpb[b.cell(t)];
          if (da <= 0.0 || db <= 0.0) continue;
          const double v =
              fa[a.face(t)] -
              0.5 * (da + db) * (pcb[b.cell(t)] - pca[a.cell(t)]) / dist;
          fa[a.face(t)] = v;
          fb[b.face(t)] = v;
        }
        return;
      }
      // Level jump: the fine side's jump stencil holds the subface
      // couplings; x_b - x_a is the p' difference across the face.
      const bool a_fine = a.n > b.n;
      const mesh::PatchSide& fine = a_fine ? a : b;
      const mesh::PatchSide& coarse = a_fine ? b : a;
      double* ff = a_fine ? fa : fb;
      double* fc = a_fine ? fb : fa;
      const double* pf = a_fine ? pca : pcb;
      const double* pcc = a_fine ? pcb : pca;
      const JumpSide* sd = st.faces(fine.k).jump[fine.side];
      const int r = sd->ratio;
      for (int tc = 1; tc <= coarse.n; ++tc) {
        const double xc = pcc[coarse.cell(tc)];
        double acc = 0.0;
        for (int s = 0; s < r; ++s) {
          const int t = (tc - 1) * r + 1 + s;
          const double xf = pf[fine.cell(t)];
          const double xa = a_fine ? xf : xc;
          const double xb = a_fine ? xc : xf;
          ff[fine.face(t)] -= sd->a[t] / sd->area * (xb - xa);
          acc += ff[fine.face(t)];
        }
        fc[coarse.face(tc)] = acc / r;
      }
    });
  });
}

Residuals RansSolver::outer_iteration(CompositeField& f, Workspace& ws,
                                      const SolverConfig& cfg) const {
  const mesh::CaseSpec& spec = mesh_.spec();
  const double nu = spec.nu;
  const double u_ref = spec.bc.left.u;
  const double alpha_u = cfg.alpha_u;
  Residuals res;

  {
    const util::trace::Span t(kGhosts.site);
    refresh_ghosts(f);
  }

  // --- eddy viscosity from nuTilda (ghosts included) -----------------------
  {
    const util::trace::Span t(kSa.site);
    compute_nut(f, ws);
  }

  // --- momentum predictor ---------------------------------------------------
  // Assemble upwind/central coefficients from the current face fluxes and do
  // red-black Gauss-Seidel sweeps on U and V with implicit
  // under-relaxation. The relaxed diagonal is kept in ws.ap for
  // Rhie-Chow and the corrector.
  zero_rows(ws.acc_a);
  zero_rows(ws.acc_b);
  zero_rows(ws.acc_c);
  for (int sweep = 0; sweep < kMomentumSweeps; ++sweep) {
    const bool measure = (sweep + 1 == kMomentumSweeps);
    {
      const util::trace::Span t(kMomentum.site);
      run_sweep(ws.rows, mesh_.parallel(), [&](int r, int k, int i,
                                              int color) {
        const PatchMesh& pm = mesh_.patch_flat(k);
        Grid2Dd& U = f.U[k];
        Grid2Dd& V = f.V[k];
        const Grid2Dd& P = f.p[k];
        const Grid2Dd& NT = ws.nut[k];
        Grid2Dd& AP = ws.ap[k];
        const double dx = pm.dx;
        const double dy = pm.dy;
        const double vol = dx * dy;
        double acc_u = 0.0;
        double acc_v = 0.0;
        double scale = 0.0;
        for (int j = color_j0(i, color); j <= pm.nx; j += 2) {
          if (pm.solid(i, j)) {
            U(i, j) = 0.0;
            V(i, j) = 0.0;
            AP(i, j) = vol;  // harmless positive diagonal for d coefficients
            continue;
          }
          const MomentumCell c = momentum_cell(U, V, P, NT, nu, u_ref,
                                               cfg.pseudo_cfl, dx, dy, i, j);
          const double ap = std::max(c.sum_a() + c.a_time, 1e-30) / alpha_u;
          AP(i, j) = ap;
          const double relax = (1.0 - alpha_u) * ap + c.a_time;
          const double u_old = U(i, j);
          const double v_old = V(i, j);
          if (measure) {
            const MomentumDefect d =
                momentum_defect(c, u_old, v_old, vol, u_ref);
            acc_u += d.u;
            acc_v += d.v;
            scale += 2.0;
          }
          U(i, j) = (c.nb_u - c.dpdx * vol + relax * u_old) / ap;
          V(i, j) = (c.nb_v - c.dpdy * vol + relax * v_old) / ap;
        }
        if (measure) {
          ws.acc_a[r] += acc_u;
          ws.acc_c[r] += acc_v;
          ws.acc_b[r] += scale;
        }
      });
    }
    {
      const util::trace::Span t(kGhosts.site);
      exchange_ghosts(f, mesh_, kMaskUV);
      apply_bc_ghosts(f, kMaskUV);
    }
  }
  {
    const double sum_u = sum_rows(ws.acc_a);
    const double sum_v = sum_rows(ws.acc_c);
    const double cells2 = std::max(sum_rows(ws.acc_b), 1e-30);
    res.momentum = (sum_u + sum_v) / cells2;
    res.momentum_u = sum_u / std::max(0.5 * cells2, 1e-30);
    res.momentum_v = sum_v / std::max(0.5 * cells2, 1e-30);
  }

  // Make the momentum diagonal available across interfaces (Rhie-Chow reads
  // the neighbour's aP through the ghost ring) and at domain boundaries
  // (zero-gradient extrapolation).
  {
    const util::trace::Span t(kGhosts.site);
    exchange_ghosts(ws.ap, mesh_);
  }
  {
    const util::trace::Span t(kRhieChow.site);
    extrapolate_ap(ws);
    res.continuity = assemble_faces_imbalance(f, ws);
  }

  // --- pressure correction ---------------------------------------------------
  // Geometric V-cycles on the patch-hierarchy ladder (solver/mg.hpp). Its
  // coefficients, d = vol / aP per cell (zero in solids, which is how the
  // matched jump couplings see walls), are the shared mobility of the p'
  // operator, the corrector and the post-corrector face pass; the jump
  // stencil's subface transmissibilities are rebuilt from them once per
  // outer iteration. The cycle's ghost exchanges are ghosts-phase scopes
  // nested in the pressure phase.
  const CompositeScalar& dp = ws.mg.fine_dp();
  const JumpStencil& stencil = ws.mg.fine_stencil();
  {
    const util::trace::Span t(kPressure.site);
    ws.mg.set_coefficients(ws.ap);
    res.pressure_cycles = ws.mg.solve(ws.pc, ws.imb).cycles;

    // Domain-boundary ghosts for p': zero-gradient everywhere except the
    // outlet, where p' = 0 at the face. Needed by the corrector's gradients.
    for_patches(mesh_, [&](int k) {
      double* pc = ws.pc[k].data();
      const bool outlet = stencil.faces(k).outlet;
      mesh::for_each_boundary_ghost(
          mesh_, k, [&](mesh::Side s, int ghost, int cell) {
            pc[ghost] = (s == mesh::kE && outlet) ? -pc[cell] : pc[cell];
          });
    });

    // --- corrector -----------------------------------------------------------
    for_patches(mesh_, [&](int k) {
      const PatchMesh& pm = mesh_.patch_flat(k);
      Grid2Dd& U = f.U[k];
      Grid2Dd& V = f.V[k];
      Grid2Dd& P = f.p[k];
      const Grid2Dd& PC = ws.pc[k];
      const Grid2Dd& DP = dp[k];
      const PatchFaces& pf = stencil.faces(k);
      Grid2Dd& FU = ws.face_u[k];
      Grid2Dd& FV = ws.face_v[k];
      // The in-patch face pass rides in the cell loop (each interior face
      // corrected once, from its low-side cell, with the symmetric mean
      // mobility — fused because the PC/DP neighbourhood is already in
      // cache here): the corrected faces must satisfy the reflux
      // invariant (coarse face = mean of covered fine faces) to the bit,
      // with ONE authoritative value per face — jump subfaces get the
      // exact matched transmissibility in correct_interface_faces below.
      // Next iteration's Rhie-Chow rebuilds faces from scratch, so the
      // face pass only has to keep the invariant and make the corrected
      // flux field the one the p' equation actually solved for.
      for (int i = 1; i <= pm.ny; ++i) {
        for (int j = 1; j <= pm.nx; ++j) {
          if (pm.solid(i, j)) continue;
          P(i, j) += cfg.alpha_p * PC(i, j);
          const double d_p = DP(i, j);
          // p' beyond the face on side s, cell (ni, nj) beyond it, t the
          // cell's index along the side. Solid neighbours mirror the
          // cell's own p' (zero correction flux through the wall, matching
          // the p' equation). Reading the stored 0 instead would act like
          // p' = 0 at the wall face and drive a spurious wall-normal
          // correction proportional to |p'| — survivable when the p'
          // solve is weak, but it feeds back into the imbalance and blows
          // up SIMPLE once the multigrid path solves p' accurately.
          // Jump-side cells read the matched effective ghost — the value
          // of the same linear profile the flux stencil discretises —
          // instead of the clamped interpolated ghost the equation never
          // models.
          auto beyond = [&](mesh::Side s, bool edge, int ni, int nj, int t) {
            if (edge && pf.jump[s] != nullptr) return pf.jump[s]->ghost[t];
            return pm.solid(ni, nj) ? PC(i, j) : PC(ni, nj);
          };
          const double pe = beyond(mesh::kE, j == pm.nx, i, j + 1, i);
          const double pw = beyond(mesh::kW, j == 1, i, j - 1, i);
          const double pn = beyond(mesh::kN, i == pm.ny, i + 1, j, j);
          const double ps = beyond(mesh::kS, i == 1, i - 1, j, j);
          U(i, j) -= d_p * (pe - pw) / (2.0 * pm.dx);
          V(i, j) -= d_p * (pn - ps) / (2.0 * pm.dy);
          if (j < pm.nx && !pm.solid(i, j + 1)) {
            const double dbar = 0.5 * (DP(i, j) + DP(i, j + 1));
            FU(i, j) -= dbar * (PC(i, j + 1) - PC(i, j)) / pm.dx;
          }
          if (i < pm.ny && !pm.solid(i + 1, j)) {
            const double dbar = 0.5 * (DP(i, j) + DP(i + 1, j));
            FV(i, j) -= dbar * (PC(i + 1, j) - PC(i, j)) / pm.dy;
          }
        }
      }
    });
    correct_interface_faces(mesh_, stencil, ws.pc, dp, ws.face_u, ws.face_v);
    assert(interface_flux_mismatch(mesh_, ws.face_u, ws.face_v) == 0.0);
  }

  // --- SA transport ----------------------------------------------------------
  if (cfg.solve_sa) {
    // The corrector moved U and V; nuTilda's ghosts are still the ones the
    // iteration-start refresh left, since nothing has written it since.
    {
      const util::trace::Span t(kGhosts.site);
      exchange_ghosts(f, mesh_, kMaskUV);
      apply_bc_ghosts(f, kMaskUV);
    }

    const SaParams sa_params{nu, u_ref, cfg.pseudo_cfl, cfg.alpha_nt,
                             spec.bc.left.nuTilda};
    zero_rows(ws.acc_a);
    zero_rows(ws.acc_b);
    for (int sweep = 0; sweep < kSaSweeps; ++sweep) {
      const bool measure = (sweep + 1 == kSaSweeps);
      {
        const util::trace::Span t(kSa.site);
        for (int colour = 0; colour < 2; ++colour) {
          ws.sa.half_sweep(f, colour, sa_params, measure, ws.acc_a,
                           ws.acc_b);
        }
      }
      {
        const util::trace::Span t(kGhosts.site);
        exchange_ghosts(f, mesh_, kMaskNt);
        apply_bc_ghosts(f, kMaskNt);
      }
    }
    res.sa = sum_rows(ws.acc_a) / std::max(sum_rows(ws.acc_b), 1e-30);
  }

  return res;
}

Residuals RansSolver::evaluate_residuals(const CompositeField& f,
                                         Workspace& ws) const {
  const mesh::CaseSpec& spec = mesh_.spec();
  const double nu = spec.nu;
  const double u_ref = spec.bc.left.u;
  Residuals res;

  compute_nut(f, ws);

  // Momentum defect at the state as-is; also fills ws.ap, which the
  // continuity evaluation's Rhie-Chow faces need.
  zero_rows(ws.acc_a);
  zero_rows(ws.acc_b);
  zero_rows(ws.acc_c);
  run_scan(ws.rows, mesh_.parallel(), [&](int r, int k, int i) {
    const PatchMesh& pm = mesh_.patch_flat(k);
    const Grid2Dd& U = f.U[k];
    const Grid2Dd& V = f.V[k];
    const Grid2Dd& P = f.p[k];
    const Grid2Dd& NT = ws.nut[k];
    Grid2Dd& AP = ws.ap[k];
    const double dx = pm.dx;
    const double dy = pm.dy;
    const double vol = dx * dy;
    double acc_u = 0.0;
    double acc_v = 0.0;
    double scale = 0.0;
    for (int j = 1; j <= pm.nx; ++j) {
      if (pm.solid(i, j)) {
        AP(i, j) = vol;
        continue;
      }
      const MomentumCell c = momentum_cell(U, V, P, NT, nu, u_ref,
                                           config_.pseudo_cfl, dx, dy, i, j);
      AP(i, j) = std::max(c.sum_a() + c.a_time, 1e-30) / config_.alpha_u;
      const MomentumDefect d =
          momentum_defect(c, U(i, j), V(i, j), vol, u_ref);
      acc_u += d.u;
      acc_v += d.v;
      scale += 2.0;
    }
    ws.acc_a[r] = acc_u;
    ws.acc_c[r] = acc_v;
    ws.acc_b[r] = scale;
  });
  {
    const double sum_u = sum_rows(ws.acc_a);
    const double sum_v = sum_rows(ws.acc_c);
    const double cells2 = std::max(sum_rows(ws.acc_b), 1e-30);
    res.momentum = (sum_u + sum_v) / cells2;
    res.momentum_u = sum_u / std::max(0.5 * cells2, 1e-30);
    res.momentum_v = sum_v / std::max(0.5 * cells2, 1e-30);
  }

  exchange_ghosts(ws.ap, mesh_);
  extrapolate_ap(ws);
  res.continuity = assemble_faces_imbalance(f, ws);

  if (config_.solve_sa) {
    ws.sa.defect_rows(f,
                      {nu, u_ref, config_.pseudo_cfl, config_.alpha_nt,
                       spec.bc.left.nuTilda},
                      ws.acc_a, ws.acc_b);
    res.sa = sum_rows(ws.acc_a) / std::max(sum_rows(ws.acc_b), 1e-30);
  }

  return res;
}

namespace {

// Appends one outer iteration's residuals to the convergence time-series
// behind the telemetry server's /series.json. The x axis is a process-wide
// outer-iteration index (monotone across solves and meshes) so a scraper
// polling mid-run sees strictly increasing sample positions.
void record_residual_series(const Residuals& res) {
  namespace metrics = util::metrics;
  if (!metrics::enabled()) return;
  static metrics::Counter& iters = metrics::counter("solver.series.iterations");
  static metrics::TimeSeries& s_u = metrics::series("solver.residual.u");
  static metrics::TimeSeries& s_v = metrics::series("solver.residual.v");
  static metrics::TimeSeries& s_p = metrics::series("solver.residual.p");
  static metrics::TimeSeries& s_nt = metrics::series("solver.residual.nu_tilde");
  // p' solve work per outer iteration (V-cycles), on the same x axis as
  // solver.residual.p so cycle-count spikes line up with continuity-
  // residual stalls in the telemetry plots.
  static metrics::TimeSeries& s_cy = metrics::series("solver.pressure.cycles");
  iters.add();
  const double x = static_cast<double>(iters.value());
  s_u.append(x, res.momentum_u);
  s_v.append(x, res.momentum_v);
  s_p.append(x, res.continuity);
  s_nt.append(x, res.sa);
  s_cy.append(x, static_cast<double>(res.pressure_cycles));
}

// Publishes one finished solve (DESIGN.md §9): the solver phases of the
// thread's phase-table delta become stats.phase_seconds and the
// solver.<phase>.ns counters; the work counts go to the registry and to
// the request bound to this thread (DESIGN.md §15), whose phase
// attribution reads the same table.
void publish(SolveStats& stats, const util::reqctx::PhaseTable& before) {
  namespace metrics = util::metrics;
  const util::reqctx::PhaseTable after = util::trace::phase_table();
  for (const PhaseScope* ps : {&kMomentum, &kRhieChow, &kPressure, &kSa,
                               &kGhosts}) {
    const auto i = static_cast<std::size_t>(ps->site.phase);
    stats.phase_seconds.*ps->seconds =
        static_cast<double>(after[i] - before[i]) * 1e-9;
    metrics::counter(std::string(ps->site.name) + ".ns")
        .add(after[i] - before[i]);
  }
  metrics::counter("solver.solves").add();
  metrics::counter("solver.iterations").add(stats.iterations);
  metrics::counter("solver.cell_updates").add(stats.cell_updates);
  if (util::reqctx::RequestContext* ctx = util::reqctx::current()) {
    ctx->count("solver.solves", 1);
    ctx->count("solver.iterations", stats.iterations);
    ctx->count("solver.cell_updates", stats.cell_updates);
  }
}

}  // namespace

SolveStats RansSolver::run(const util::trace::Site& site, CompositeField& f,
                           int max_iters, bool until_converged) {
  const util::reqctx::PhaseTable before = util::trace::phase_table();
  SolveStats stats;
  {
    util::trace::Span span(site);  // solver glue: the self time left over
    Workspace& ws = workspace();
    const long long cells = mesh_.active_cells();

    // On divergence solve() restores the initial state and retries with
    // progressively more conservative relaxation (halved pseudo-CFL and
    // under-relaxation).
    std::optional<CompositeField> initial;
    if (until_converged) initial = f;
    SolverConfig cfg = config_;
    const int attempts = until_converged ? 3 : 1;

    // Per-iteration residual history of the current attempt, for the
    // iterations_to_tolerance back-scan below.
    std::vector<double> res_history;
    res_history.reserve(static_cast<std::size_t>(std::max(max_iters, 0)));

    for (int attempt = 0; attempt < attempts; ++attempt) {
      Residuals res;
      stats.attempts = attempt + 1;
      stats.final_pseudo_cfl = cfg.pseudo_cfl;
      stats.final_alpha_u = cfg.alpha_u;
      stats.diverged = false;
      res_history.clear();
      for (int it = 0; it < max_iters; ++it) {
        // Cooperative cancellation boundary: nothing in this iteration has
        // run yet, so the field is exactly the last completed iterate.
        if (cfg.cancel != nullptr && cfg.cancel->expired()) {
          stats.cancelled = true;
          break;
        }
        util::fault::corrupt("solver.diverge", f.U[0].data(), f.U[0].size());
        util::fault::stall("solver.outer.stall");
        res = outer_iteration(f, ws, cfg);
        record_residual_series(res);
        stats.iterations += 1;
        stats.cell_updates += cells;
        res_history.push_back(res.combined());
        if (res.combined() >= 1e30) {
          // Non-finite residual: the state is poisoned and further
          // iterations only churn NaNs.
          stats.diverged = true;
          break;
        }
        // Require a few iterations before trusting the residuals (the
        // first iterations of a freestream guess can look spuriously
        // converged).
        if (until_converged && it >= 5 && res.combined() < cfg.tol) {
          stats.converged = true;
          break;
        }
      }
      stats.residual = res.combined();
      // Iterations-to-tolerance: the first iteration of this attempt whose
      // residual reached max(tol, 1.1 x the final residual). A tolerance
      // exit gives exactly stats.iterations; a solve that plateaus above
      // tol and burns the cap gets the iteration where it arrived at the
      // plateau, so `iterations - iterations_to_tolerance` is the tail an
      // early-exit could trim. Earlier (diverged) attempts are charged in
      // full — their work was really spent.
      if (!stats.diverged && !res_history.empty()) {
        const double bar = std::max(cfg.tol, 1.1 * res_history.back());
        std::size_t first = res_history.size() - 1;
        for (std::size_t i = 0; i < res_history.size(); ++i) {
          if (res_history[i] <= bar) {
            first = i;
            break;
          }
        }
        const int prior =
            stats.iterations - static_cast<int>(res_history.size());
        stats.iterations_to_tolerance = prior + static_cast<int>(first) + 1;
      }
      // A cancelled solve never retries.
      if (stats.cancelled || !stats.diverged || attempt + 1 == attempts) {
        break;
      }
      cfg.pseudo_cfl *= 0.4;
      cfg.alpha_u *= 0.6;
      cfg.alpha_p *= 0.6;
      cfg.alpha_nt *= 0.6;
      ADR_LOG_WARN << mesh_.spec().name << " diverged; retrying with "
                   << "pseudo_cfl=" << cfg.pseudo_cfl
                   << " alpha_u=" << cfg.alpha_u;
      f = *initial;
    }
    if (stats.diverged && initial) {
      // Hand back the (restored) initial state, not the NaN wreckage:
      // callers walking the degradation ladder re-seed from it.
      f = *initial;
    }
    refresh_ghosts(f);
    if (stats.cancelled && stats.iterations == 0) {
      // Cancelled before any work: report the seed's actual defect instead
      // of the zero-initialised Residuals (which would read as converged).
      stats.residual = residuals(f).combined();
    }
    if (!until_converged) {
      stats.converged = !stats.diverged && !stats.cancelled &&
                        stats.residual < config_.tol;
    }
    stats.seconds = span.stop();
  }
  publish(stats, before);
  return stats;
}

SolveStats RansSolver::solve(CompositeField& f) {
  static const util::trace::Site kSite{
      "solver.solve", &util::metrics::counter("solver.ns"),
      Phase::kSolverGlue};
  return run(kSite, f, config_.max_outer, /*until_converged=*/true);
}

SolveStats RansSolver::iterate(CompositeField& f, int n) {
  static const util::trace::Site kSite{
      "solver.iterate", &util::metrics::counter("solver.ns"),
      Phase::kSolverGlue};
  const SolveStats stats = run(kSite, f, n, /*until_converged=*/false);
  if (stats.diverged) {
    ADR_LOG_WARN << mesh_.spec().name << " iterate() diverged at iteration "
                 << stats.iterations - 1 << "; stopping early";
  }
  return stats;
}

Residuals RansSolver::residuals(const CompositeField& f) const {
  return evaluate_residuals(f, workspace());
}

}  // namespace adarnet::solver
