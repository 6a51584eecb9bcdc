// Quickstart: solve one of the paper's flow cases at LR resolution and
// print residual history and a velocity profile.
//
// Usage: quickstart [case] [Re] [shrink] [alpha_p] [alpha_u] [solve_sa]
//                   [alpha_nt]
//   case: channel | plate | cylinder | naca0012 | naca1412  (default channel)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "data/cases.hpp"
#include "mesh/composite.hpp"
#include "solver/rans.hpp"

int main(int argc, char** argv) {
  using namespace adarnet;

  const std::string which = argc > 1 ? argv[1] : "channel";
  const double re = argc > 2 ? std::atof(argv[2]) : 2.5e3;
  const int shrink_k = argc > 3 ? std::atoi(argv[3]) : 2;

  mesh::CaseSpec spec;
  if (which == "channel") {
    spec = data::channel_case(
        re, data::shrink(data::paper_wall_preset(), shrink_k));
  } else if (which == "plate") {
    spec = data::flat_plate_case(
        re, data::shrink(data::paper_wall_preset(), shrink_k));
  } else if (which == "cylinder") {
    spec = data::cylinder_case(
        re, data::shrink(data::paper_body_preset(), shrink_k));
  } else if (which == "naca0012") {
    spec = data::naca0012_case(
        re, data::shrink(data::paper_body_preset(), shrink_k));
  } else if (which == "naca1412") {
    spec = data::naca1412_case(
        re, data::shrink(data::paper_body_preset(), shrink_k));
  } else {
    std::fprintf(stderr, "unknown case '%s'\n", which.c_str());
    return 1;
  }
  std::printf("case: %s  grid %dx%d  patches %dx%d\n", spec.name.c_str(),
              spec.base_ny, spec.base_nx, spec.npy(), spec.npx());

  mesh::CompositeMesh mesh(spec,
                           mesh::RefinementMap(spec.npy(), spec.npx(), 0));
  solver::SolverConfig cfg;
  if (argc > 4) cfg.alpha_p = std::atof(argv[4]);
  if (argc > 5) cfg.alpha_u = std::atof(argv[5]);
  if (argc > 6) cfg.solve_sa = std::atoi(argv[6]) != 0;
  if (argc > 7) cfg.alpha_nt = std::atof(argv[7]);

  solver::RansSolver rans(mesh, cfg);
  auto f = mesh::make_field(mesh);
  rans.initialize_freestream(f);
  const auto stats = rans.solve(f);

  std::printf("converged=%d iterations=%d residual=%.3e time=%.2fs\n",
              stats.converged, stats.iterations, stats.residual,
              stats.seconds);
  const solver::PhaseTimes& ph = stats.phase_seconds;
  std::printf("phases: momentum=%.3fs rhie_chow=%.3fs pressure=%.3fs "
              "sa=%.3fs ghosts=%.3fs glue=%.3fs\n",
              ph.momentum, ph.rhie_chow, ph.pressure, ph.sa, ph.ghosts,
              stats.seconds - ph.total());

  // Velocity profile at x = 0.6 Lx (through the wake for body cases).
  const auto uni = mesh::to_uniform(f, mesh, 0);
  const int jx = static_cast<int>(0.6 * spec.base_nx);
  std::printf("U profile at x=%.2f m (bottom to top):\n", 0.6 * spec.lx);
  for (int i = 0; i < spec.base_ny; i += std::max(1, spec.base_ny / 16)) {
    std::printf("  y=%8.5f  U=%9.5f  V=%9.5f  p=%9.5f  nuTilda=%10.3e\n",
                (i + 0.5) * spec.ly / spec.base_ny, uni.U(i, jx), uni.V(i, jx),
                uni.p(i, jx), uni.nuTilda(i, jx));
  }
  return 0;
}
