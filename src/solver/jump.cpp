#include "solver/jump.hpp"

#include <cmath>
#include <utility>

namespace adarnet::solver {

namespace {

/// Owner-patch interior cell adjacent to `edge` at tangential index t.
inline std::pair<int, int> own_cell(const mesh::PatchMesh& pm, int edge,
                                    int t) {
  switch (edge) {
    case JumpStencil::kW:
      return {t, 1};
    case JumpStencil::kE:
      return {t, pm.nx};
    case JumpStencil::kS:
      return {1, t};
    default:
      return {pm.ny, t};
  }
}

/// Neighbour-patch interior cell facing the owner's `edge` at the
/// NEIGHBOUR's tangential index tn.
inline std::pair<int, int> nb_cell(const mesh::PatchMesh& nb, int edge,
                                   int tn) {
  switch (edge) {
    case JumpStencil::kW:
      return {tn, nb.nx};
    case JumpStencil::kE:
      return {tn, 1};
    case JumpStencil::kS:
      return {nb.ny, tn};
    default:
      return {1, tn};
  }
}

/// The canonical subface transmissibility. Always written fine term
/// first so both sides of an interface evaluate the bitwise-identical
/// expression (the coupling matrix block stays exactly symmetric).
inline double subface_coupling(double area, double h_fine, double d_fine,
                               double h_coarse, double d_coarse) {
  if (d_fine <= 0.0 || d_coarse <= 0.0) return 0.0;
  return area / (h_fine / (2.0 * d_fine) + h_coarse / (2.0 * d_coarse));
}

}  // namespace

JumpStencil::JumpStencil(const mesh::CompositeMesh& mesh)
    : JumpStencil(mesh, mesh) {}

JumpStencil::JumpStencil(const mesh::CompositeMesh& mesh,
                         const mesh::CompositeMesh& anchor)
    : mesh_(&mesh) {
  const int npy = mesh.npy();
  const int npx = mesh.npx();
  for (int pi = 0; pi < npy; ++pi) {
    for (int pj = 0; pj < npx; ++pj) {
      const mesh::PatchMesh& pm = mesh.patch(pi, pj);
      const mesh::PatchMesh& am = anchor.patch(pi, pj);
      const int k = pi * npx + pj;
      // (edge, neighbour pi, neighbour pj) for all four sides.
      const int nbs[4][3] = {{kW, pi, pj - 1},
                             {kE, pi, pj + 1},
                             {kS, pi - 1, pj},
                             {kN, pi + 1, pj}};
      for (const auto& e : nbs) {
        const int edge = e[0];
        const int npi = e[1];
        const int npj = e[2];
        if (npi < 0 || npi >= npy || npj < 0 || npj >= npx) continue;
        const mesh::PatchMesh& nb = mesh.patch(npi, npj);
        const mesh::PatchMesh& an = anchor.patch(npi, npj);
        // The ANCHOR decides which sides are interfaces. Map lowering
        // clamps levels at 0, so two anchor-equal patches stay equal on
        // every ladder level (no side is ever missed the other way), but
        // anchor-unequal patches can flatten to equal cell counts — those
        // sides still carry the anchor's d jump and need the stencil.
        if (an.level == am.level) continue;
        Side sd;
        sd.k = k;
        sd.nbk = npi * npx + npj;
        sd.edge = edge;
        const bool horiz = edge == kS || edge == kN;  // interface normal = y
        sd.n = horiz ? pm.nx : pm.ny;
        const int n_nb = horiz ? nb.nx : nb.ny;
        // Orientation comes from the anchor so a flattened (ratio-1) side
        // still names the historically-finer patch "fine" — both patches
        // then feed subface_coupling the same operand order and the block
        // stays bitwise symmetric.
        sd.fine = am.level > an.level;
        sd.ratio = sd.fine ? sd.n / n_nb : n_nb / sd.n;
        const mesh::PatchMesh& fp = sd.fine ? pm : nb;  // finer patch
        sd.area = horiz ? fp.dx : fp.dy;
        sd.h_own = horiz ? pm.dy : pm.dx;
        sd.h_nb = horiz ? nb.dy : nb.dx;
        // "Unflattened" perpendicular cell sizes: the size each patch
        // would have at THIS rung's base resolution under its ANCHOR
        // refinement level — the current size shrunk by the map-lowering
        // history, 2^(anchor_level - level). Invariant under lowering
        // rungs (the interface transmissibility must not degrade there)
        // while doubling under semicoarsening / iso rungs exactly like
        // the interior couplings. With mesh == anchor both factors are
        // 2^0 and h0 == h bitwise.
        sd.h0_own =
            (horiz ? pm.dy : pm.dx) * std::ldexp(1.0, pm.level - am.level);
        sd.h0_nb =
            (horiz ? nb.dy : nb.dx) * std::ldexp(1.0, nb.level - an.level);
        sd.t_ghost = 2.0 * sd.h_own / (sd.h_own + sd.h_nb);
        sd.a.assign(static_cast<std::size_t>(sd.n) + 1, 0.0);
        sd.ax.assign(static_cast<std::size_t>(sd.n) + 1, 0.0);
        sd.ghost.assign(static_cast<std::size_t>(sd.n) + 1, 0.0);
        if (!sd.fine) {
          sd.asub.assign(static_cast<std::size_t>(sd.n) * sd.ratio, 0.0);
        }
        sides_.push_back(std::move(sd));
      }
    }
  }
  if (!sides_.empty()) {
    lookup_.assign(static_cast<std::size_t>(mesh.patch_count()) * 4, nullptr);
    for (Side& sd : sides_) {
      lookup_[static_cast<std::size_t>(sd.k) * 4 + sd.edge] = &sd;
    }
  }
}

void JumpStencil::set_coefficients(const mesh::CompositeScalar& dp) {
  for (Side& sd : sides_) {
    const mesh::PatchMesh& pm = mesh_->patch_flat(sd.k);
    const mesh::PatchMesh& nb = mesh_->patch_flat(sd.nbk);
    const field::Grid2Dd& dpo = dp[sd.k];
    const field::Grid2Dd& dpn = dp[sd.nbk];
    // Resistances use the ANCHOR cell sizes h0 (== the level's own h at
    // ladder level 0): d is a child average carrying the fine vol/aP
    // scale, so the fine length scale is the one that keeps the interface
    // transmissibility invariant under coarsening (jump.hpp).
    if (sd.fine) {
      for (int t = 1; t <= sd.n; ++t) {
        const auto [oi, oj] = own_cell(pm, sd.edge, t);
        const auto [ni, nj] = nb_cell(nb, sd.edge, (t - 1) / sd.ratio + 1);
        sd.a[t] = subface_coupling(sd.area, sd.h0_own, dpo(oi, oj), sd.h0_nb,
                                   dpn(ni, nj));
      }
    } else {
      for (int t = 1; t <= sd.n; ++t) {
        const auto [oi, oj] = own_cell(pm, sd.edge, t);
        const double dc = dpo(oi, oj);
        double asum = 0.0;
        for (int s = 0; s < sd.ratio; ++s) {
          const auto [ni, nj] =
              nb_cell(nb, sd.edge, (t - 1) * sd.ratio + s + 1);
          const double as =
              subface_coupling(sd.area, sd.h0_nb, dpn(ni, nj), sd.h0_own, dc);
          sd.asub[static_cast<std::size_t>(t - 1) * sd.ratio + s] = as;
          asum += as;
        }
        sd.a[t] = asum;
      }
    }
  }
}

void JumpStencil::refresh_side(Side& sd, int t,
                               const mesh::CompositeScalar& x) {
  const mesh::PatchMesh& pm = mesh_->patch_flat(sd.k);
  const mesh::PatchMesh& nb = mesh_->patch_flat(sd.nbk);
  const field::Grid2Dd& xo = x[sd.k];
  const field::Grid2Dd& xn = x[sd.nbk];
  const auto [oi, oj] = own_cell(pm, sd.edge, t);
  const double xown = xo(oi, oj);
  // Ghosts across walls mirror the owner (zero-gradient): a coupling of
  // zero means the equation sees no flux through that subface, and the
  // corrector gradient must not pull toward a solid cell's stored zero.
  if (sd.fine) {
    const auto [ni, nj] = nb_cell(nb, sd.edge, (t - 1) / sd.ratio + 1);
    const double xnb = xn(ni, nj);
    sd.ax[t] = sd.a[t] * xnb;
    sd.ghost[t] = sd.a[t] > 0.0 ? xown + sd.t_ghost * (xnb - xown) : xown;
    return;
  }
  double axsum = 0.0;
  double xsum = 0.0;
  int coupled = 0;
  for (int s = 0; s < sd.ratio; ++s) {
    const auto [ni, nj] = nb_cell(nb, sd.edge, (t - 1) * sd.ratio + s + 1);
    const double xf = xn(ni, nj);
    const double as = sd.asub[static_cast<std::size_t>(t - 1) * sd.ratio + s];
    axsum += as * xf;
    if (as > 0.0) {
      xsum += xf;
      ++coupled;
    }
  }
  sd.ax[t] = axsum;
  sd.ghost[t] =
      coupled > 0
          ? xown + sd.t_ghost * (xsum / static_cast<double>(coupled) - xown)
          : xown;
}

void JumpStencil::refresh(const mesh::CompositeScalar& x) {
  for (Side& sd : sides_) {
    for (int t = 1; t <= sd.n; ++t) refresh_side(sd, t, x);
  }
}

double interface_flux_mismatch(const mesh::CompositeMesh& mesh,
                               const mesh::CompositeScalar& face_u,
                               const mesh::CompositeScalar& face_v) {
  double worst = 0.0;
  const int npy = mesh.npy();
  const int npx = mesh.npx();
  auto note = [&worst](double a, double b) {
    const double m = std::fabs(a - b);
    if (m > worst) worst = m;
  };
  for (int pi = 0; pi < npy; ++pi) {
    for (int pj = 0; pj < npx; ++pj) {
      const mesh::PatchMesh& pm = mesh.patch(pi, pj);
      const int k = pi * npx + pj;
      // East interface: mine FU(i, nx) vs theirs FU(i, 0).
      if (pj + 1 < npx) {
        const mesh::PatchMesh& nb = mesh.patch(pi, pj + 1);
        const field::Grid2Dd& mine = face_u[k];
        const field::Grid2Dd& theirs = face_u[k + 1];
        if (nb.ny == pm.ny) {
          for (int i = 1; i <= pm.ny; ++i) note(mine(i, pm.nx), theirs(i, 0));
        } else if (pm.ny > nb.ny) {  // mine fine, theirs coarse
          const int r = pm.ny / nb.ny;
          for (int ic = 1; ic <= nb.ny; ++ic) {
            double acc = 0.0;
            for (int s = 0; s < r; ++s) acc += mine((ic - 1) * r + s + 1, pm.nx);
            note(theirs(ic, 0), acc / static_cast<double>(r));
          }
        } else {  // mine coarse, theirs fine
          const int r = nb.ny / pm.ny;
          for (int ic = 1; ic <= pm.ny; ++ic) {
            double acc = 0.0;
            for (int s = 0; s < r; ++s) acc += theirs((ic - 1) * r + s + 1, 0);
            note(mine(ic, pm.nx), acc / static_cast<double>(r));
          }
        }
      }
      // North interface: mine FV(ny, j) vs theirs FV(0, j).
      if (pi + 1 < npy) {
        const mesh::PatchMesh& nb = mesh.patch(pi + 1, pj);
        const field::Grid2Dd& mine = face_v[k];
        const field::Grid2Dd& theirs = face_v[k + npx];
        if (nb.nx == pm.nx) {
          for (int j = 1; j <= pm.nx; ++j) note(mine(pm.ny, j), theirs(0, j));
        } else if (pm.nx > nb.nx) {  // mine fine, theirs coarse
          const int r = pm.nx / nb.nx;
          for (int jc = 1; jc <= nb.nx; ++jc) {
            double acc = 0.0;
            for (int s = 0; s < r; ++s) acc += mine(pm.ny, (jc - 1) * r + s + 1);
            note(theirs(0, jc), acc / static_cast<double>(r));
          }
        } else {  // mine coarse, theirs fine
          const int r = nb.nx / pm.nx;
          for (int jc = 1; jc <= pm.nx; ++jc) {
            double acc = 0.0;
            for (int s = 0; s < r; ++s) acc += theirs(0, (jc - 1) * r + s + 1);
            note(mine(pm.ny, jc), acc / static_cast<double>(r));
          }
        }
      }
    }
  }
  return worst;
}

}  // namespace adarnet::solver
