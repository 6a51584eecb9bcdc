// Spalart-Allmaras one-equation turbulence closure (standard SA-neg-free
// variant, constants from the original 1992 reference, ft2 = 0, trip off —
// the "most popular implementation" the paper uses).
//
// The transport equation solved by the RANS solver is
//   U_j d(nuTilda)/dx_j = cb1 * S_tilde * nuTilda
//                        - cw1 * fw * (nuTilda / d)^2
//                        + (1/sigma) [ div((nu + nuTilda) grad nuTilda)
//                                      + cb2 |grad nuTilda|^2 ]
// and the eddy viscosity is nu_t = nuTilda * fv1(chi).
//
// Every closure function is evaluated once per cell per sweep inside the
// solver's hottest loops, so all definitions are inline here (no
// cross-TU call per cell).
#pragma once

#include <algorithm>
#include <cmath>

namespace adarnet::solver::sa {

// Model constants (Spalart & Allmaras, 1992).
inline constexpr double kCb1 = 0.1355;
inline constexpr double kCb2 = 0.622;
inline constexpr double kSigma = 2.0 / 3.0;
inline constexpr double kKappa = 0.41;
inline constexpr double kCw2 = 0.3;
inline constexpr double kCw3 = 2.0;
inline constexpr double kCv1 = 7.1;

/// cw1 = cb1/kappa^2 + (1 + cb2)/sigma.
inline double cw1() {
  return kCb1 / (kKappa * kKappa) + (1.0 + kCb2) / kSigma;
}

/// chi = nuTilda / nu.
inline double chi(double nu_tilda, double nu) {
  return std::max(nu_tilda, 0.0) / nu;
}

/// fv1 = chi^3 / (chi^3 + cv1^3): wall damping of the eddy viscosity.
inline double fv1(double chi_v) {
  const double c3 = chi_v * chi_v * chi_v;
  const double cv13 = kCv1 * kCv1 * kCv1;
  return c3 / (c3 + cv13);
}

/// fv2 = 1 - chi / (1 + chi * fv1).
inline double fv2(double chi_v) {
  return 1.0 - chi_v / (1.0 + chi_v * fv1(chi_v));
}

/// Modified vorticity S_tilde = S + nuTilda / (kappa^2 d^2) * fv2, floored
/// at a small positive value for robustness.
inline double s_tilde(double vorticity, double nu_tilda, double nu, double d) {
  const double c = chi(nu_tilda, nu);
  const double kd2 = kKappa * kKappa * d * d;
  const double st = vorticity + nu_tilda / kd2 * fv2(c);
  // Floor at a fraction of the raw vorticity to avoid division blow-ups in
  // r when fv2 drives S_tilde negative (standard robustness fix).
  return std::max(st, 0.3 * vorticity + 1e-16);
}

/// r = min(nuTilda / (S_tilde kappa^2 d^2), 10).
inline double r_param(double nu_tilda, double s_tilde_v, double d) {
  const double kd2 = kKappa * kKappa * d * d;
  const double r = nu_tilda / (s_tilde_v * kd2 + 1e-300);
  return std::min(r, 10.0);
}

/// g = r + cw2 (r^6 - r).
inline double g_param(double r) {
  const double r2 = r * r;
  const double r6 = r2 * r2 * r2;
  return r + kCw2 * (r6 - r);
}

/// (1 + cw3^6) / (g^6 + cw3^6), the base of fw's sixth root.
inline double fw_base(double g) {
  constexpr double cw36 = kCw3 * kCw3 * kCw3 * kCw3 * kCw3 * kCw3;
  const double g2 = g * g;
  const double g6 = g2 * g2 * g2;
  return (1.0 + cw36) / (g6 + cw36);
}

/// fw from g and fw_base(g): a loop over cells computes all the bases
/// first (a loop that vectorises), then the independent pow calls.
inline double fw(double g, double base) {
  return g * std::pow(base, 1.0 / 6.0);
}

/// fw = g [ (1 + cw3^6) / (g^6 + cw3^6) ]^{1/6}.
inline double fw(double g) { return fw(g, fw_base(g)); }

/// Eddy viscosity nu_t = nuTilda * fv1(chi), clamped non-negative.
inline double eddy_viscosity(double nu_tilda, double nu) {
  if (nu_tilda <= 0.0) return 0.0;
  return nu_tilda * fv1(chi(nu_tilda, nu));
}

/// A freestream inflow value commonly used with SA: nuTilda = 3 * nu.
inline double freestream_nu_tilda(double nu) { return 3.0 * nu; }

}  // namespace adarnet::solver::sa
