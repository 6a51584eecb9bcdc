// Regenerates the benchmark's frozen inputs under a data directory.
//
//   OMP_NUM_THREADS=1 make_inputs model <dir>
//       trains the shrink-8 model exactly as bench/common.hpp's
//       trained_model() does at ADARNET_BENCH_SHRINK=8 (seed 2023, 3
//       samples per flow family, 30 epochs) and writes model_s8.adr +
//       model_s8.norm. One thread: the trainer's OpenMP loss reduction
//       sums in thread order, and those sums drive best-epoch rollback.
//   OMP_NUM_THREADS=1 make_inputs field <case-id> <dir>
//       solves one Table 1 configuration at shrink 2 with the bench solver
//       budget (tol 5e-4, cap 2000) and writes lr_s2_<case-id>.f32.
//
// The benchmark itself never runs this program.
#include <cstdio>
#include <string>

#include "adarnet/trainer.hpp"
#include "data/dataset.hpp"
#include "inputs.hpp"

namespace {

using namespace adarnet;

int make_model(const std::string& dir) {
  const auto wall = data::shrink(data::paper_wall_preset(),
                                 perfbench::kModelShrink);
  util::Rng rng(2023);
  core::AdarNetConfig mcfg;
  mcfg.ph = wall.ph;
  mcfg.pw = wall.pw;
  core::AdarNet model(mcfg, rng);

  data::DatasetConfig dcfg;
  dcfg.channel_samples = 3;
  dcfg.plate_samples = 3;
  dcfg.ellipse_samples = 3;
  dcfg.wall_preset = wall;
  dcfg.body_preset =
      data::shrink(data::paper_body_preset(), perfbench::kModelShrink);
  const auto dataset = data::generate_dataset(dcfg);
  core::TrainConfig tcfg;
  tcfg.epochs = 30;
  tcfg.log_every = 10;
  core::train(model, dataset, tcfg, rng);

  if (!nn::save_parameters(model.parameters(),
                           perfbench::model_weights_path(dir)) ||
      !perfbench::save_norm(model.stats(), perfbench::model_norm_path(dir))) {
    std::fprintf(stderr, "make_inputs: cannot write the model to %s\n",
                 dir.c_str());
    return 1;
  }
  return 0;
}

int make_field(const std::string& id, const std::string& dir) {
  for (const auto& c : perfbench::table1_cases()) {
    if (id != c.id) continue;
    solver::SolverConfig cfg;
    cfg.tol = 5e-4;
    cfg.max_outer = 2000;
    solver::SolveStats stats;
    const auto lr = data::solve_lr(
        perfbench::make_spec(c, perfbench::kInferShrink), cfg, &stats);
    std::fprintf(stderr, "%s: %d iterations, residual %.3g\n", c.id,
                 stats.iterations, stats.residual);
    if (!perfbench::save_field(lr, perfbench::field_path(dir, c))) {
      std::fprintf(stderr, "make_inputs: cannot write %s\n",
                   perfbench::field_path(dir, c).c_str());
      return 1;
    }
    return 0;
  }
  std::fprintf(stderr, "make_inputs: unknown case id %s\n", id.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string what = argc > 1 ? argv[1] : "";
  if (what == "model" && argc == 3) return make_model(argv[2]);
  if (what == "field" && argc == 4) return make_field(argv[2], argv[3]);
  std::fprintf(stderr,
               "usage: make_inputs model <dir> | field <case-id> <dir>\n");
  return 2;
}
