#include "solver/jump.hpp"

#include <cmath>

namespace adarnet::solver {

namespace {

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
                         const mesh::CompositeMesh& anchor) {
  const bool outlet = mesh.spec().bc.right.type == mesh::BcType::kOutlet;
  faces_.reserve(static_cast<std::size_t>(mesh.patch_count()));
  for (int k = 0; k < mesh.patch_count(); ++k) {
    const mesh::PatchMesh& pm = mesh.patch_flat(k);
    const mesh::PatchMesh& am = anchor.patch_flat(k);
    PatchFaces pf;
    for (const mesh::Side s : mesh::kSides) {
      const int nbk = mesh.neighbour(k, s);
      if (nbk < 0) {
        pf.domain[s] = true;
        continue;
      }
      const mesh::PatchMesh& nb = mesh.patch_flat(nbk);
      const mesh::PatchMesh& an = anchor.patch_flat(nbk);
      // The ANCHOR decides which sides are interfaces. Map lowering
      // clamps levels at 0, so two anchor-equal patches stay equal on
      // every ladder level (no side is ever missed the other way), but
      // anchor-unequal patches can flatten to equal cell counts — those
      // sides still carry the anchor's d jump and need the stencil.
      if (an.level == am.level) continue;
      JumpSide sd;
      sd.own = mesh.side(k, s);
      sd.nb = mesh.side(nbk, mesh::opposite(s));
      // Orientation comes from the anchor so a flattened (ratio-1) side
      // still names the historically-finer patch "fine" — both patches
      // then feed subface_coupling the same operand order and the block
      // stays bitwise symmetric.
      sd.fine = am.level > an.level;
      sd.ratio = sd.fine ? sd.own.n / sd.nb.n : sd.nb.n / sd.own.n;
      sd.area = sd.fine ? sd.own.along : sd.nb.along;
      // "Unflattened" perpendicular cell sizes: the size each patch
      // would have at THIS rung's base resolution under its ANCHOR
      // refinement level — the current size shrunk by the map-lowering
      // history, 2^(anchor_level - level). Invariant under lowering
      // rungs (the interface transmissibility must not degrade there)
      // while doubling under semicoarsening / iso rungs exactly like
      // the interior couplings. With mesh == anchor both factors are
      // 2^0 and h0 == h bitwise.
      sd.h0_own = sd.own.h * std::ldexp(1.0, pm.level - am.level);
      sd.h0_nb = sd.nb.h * std::ldexp(1.0, nb.level - an.level);
      sd.t_ghost = 2.0 * sd.own.h / (sd.own.h + sd.nb.h);
      const auto n = static_cast<std::size_t>(sd.own.n);
      sd.a.assign(n + 1, 0.0);
      sd.ax.assign(n + 1, 0.0);
      sd.ghost.assign(n + 1, 0.0);
      if (!sd.fine) sd.asub.assign(n * sd.ratio, 0.0);
      sides_.push_back(std::move(sd));
    }
    pf.outlet = outlet && pf.domain[mesh::kE];
    faces_.push_back(pf);
  }
  for (const JumpSide& sd : sides_) {
    faces_[static_cast<std::size_t>(sd.own.k)].jump[sd.own.side] = &sd;
  }
}

void JumpStencil::set_coefficients(const mesh::CompositeScalar& dp) {
  for (JumpSide& sd : sides_) {
    const double* dpo = dp[sd.own.k].data();
    const double* dpn = dp[sd.nb.k].data();
    // Resistances use the ANCHOR cell sizes h0 (== the level's own h at
    // ladder level 0): d is a child average carrying the fine vol/aP
    // scale, so the fine length scale is the one that keeps the interface
    // transmissibility invariant under coarsening (jump.hpp).
    if (sd.fine) {
      for (int t = 1; t <= sd.own.n; ++t) {
        sd.a[t] = subface_coupling(sd.area, sd.h0_own, dpo[sd.own.cell(t)],
                                   sd.h0_nb,
                                   dpn[sd.nb.cell((t - 1) / sd.ratio + 1)]);
      }
    } else {
      for (int t = 1; t <= sd.own.n; ++t) {
        const double dc = dpo[sd.own.cell(t)];
        double asum = 0.0;
        for (int s = 0; s < sd.ratio; ++s) {
          const double as =
              subface_coupling(sd.area, sd.h0_nb,
                               dpn[sd.nb.cell((t - 1) * sd.ratio + s + 1)],
                               sd.h0_own, dc);
          sd.asub[static_cast<std::size_t>(t - 1) * sd.ratio + s] = as;
          asum += as;
        }
        sd.a[t] = asum;
      }
    }
  }
}

void JumpStencil::refresh_side(JumpSide& sd, int t,
                               const mesh::CompositeScalar& x) {
  const double* xo = x[sd.own.k].data();
  const double* xn = x[sd.nb.k].data();
  const double xown = xo[sd.own.cell(t)];
  // Ghosts across walls mirror the owner (zero-gradient): a coupling of
  // zero means the equation sees no flux through that subface, and the
  // corrector gradient must not pull toward a solid cell's stored zero.
  if (sd.fine) {
    const double xnb = xn[sd.nb.cell((t - 1) / sd.ratio + 1)];
    sd.ax[t] = sd.a[t] * xnb;
    sd.ghost[t] = sd.a[t] > 0.0 ? xown + sd.t_ghost * (xnb - xown) : xown;
    return;
  }
  double axsum = 0.0;
  double xsum = 0.0;
  int coupled = 0;
  for (int s = 0; s < sd.ratio; ++s) {
    const double xf = xn[sd.nb.cell((t - 1) * sd.ratio + s + 1)];
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
  for (JumpSide& sd : sides_) {
    for (int t = 1; t <= sd.own.n; ++t) refresh_side(sd, t, x);
  }
}

double interface_flux_mismatch(const mesh::CompositeMesh& mesh,
                               const mesh::CompositeScalar& face_u,
                               const mesh::CompositeScalar& face_v) {
  double worst = 0.0;
  auto note = [&worst](double a, double b) {
    const double m = std::fabs(a - b);
    if (m > worst) worst = m;
  };
  for (int k = 0; k < mesh.patch_count(); ++k) {
    mesh::for_each_interface(
        mesh, k, [&](const mesh::PatchSide& a, const mesh::PatchSide& b) {
          const mesh::CompositeScalar& face =
              mesh::normal_x(a.side) ? face_u : face_v;
          const double* fa = face[a.k].data();
          const double* fb = face[b.k].data();
          if (a.n == b.n) {
            for (int t = 1; t <= a.n; ++t) note(fa[a.face(t)], fb[b.face(t)]);
            return;
          }
          // Level jump: the coarse face against the mean of its fine ones.
          const bool a_fine = a.n > b.n;
          const mesh::PatchSide& fine = a_fine ? a : b;
          const mesh::PatchSide& coarse = a_fine ? b : a;
          const double* ff = a_fine ? fa : fb;
          const double* fc = a_fine ? fb : fa;
          const int r = fine.n / coarse.n;
          for (int tc = 1; tc <= coarse.n; ++tc) {
            double acc = 0.0;
            for (int s = 0; s < r; ++s) {
              acc += ff[fine.face((tc - 1) * r + s + 1)];
            }
            note(fc[coarse.face(tc)], acc / static_cast<double>(r));
          }
        });
  }
  return worst;
}

}  // namespace adarnet::solver
