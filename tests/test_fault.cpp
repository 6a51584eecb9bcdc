// Fault-injection tests: the deterministic registry itself, checkpoint
// integrity/atomicity, robust VTK writes, solver divergence detection, the
// pipeline's end-to-end degradation ladder, and NaN-batch recovery during
// training (ISSUE 2 acceptance criteria; fault model in DESIGN.md §7).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "adarnet/pipeline.hpp"
#include "adarnet/trainer.hpp"
#include "data/cases.hpp"
#include "data/dataset.hpp"
#include "io/vtk.hpp"
#include "nn/conv2d.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "util/fault.hpp"

namespace {

using namespace adarnet;
namespace fault = adarnet::util::fault;

data::GridPreset tiny_wall() { return data::GridPreset{8, 32, 4, 4}; }

solver::SolverConfig fast_solver() {
  solver::SolverConfig cfg;
  cfg.tol = 1e-3;
  cfg.max_outer = 1500;
  return cfg;
}

// Shared tiny channel case + LR solution: solved once, reused by every
// pipeline test (the LR solve itself must run with faults disarmed).
const mesh::CaseSpec& tiny_spec() {
  static const mesh::CaseSpec spec = data::channel_case(2.5e3, tiny_wall());
  return spec;
}

const field::FlowField& tiny_lr() {
  static const field::FlowField lr = data::solve_lr(tiny_spec(), fast_solver());
  return lr;
}

core::AdarNet tiny_model(unsigned seed) {
  util::Rng rng(seed);
  core::AdarNetConfig mcfg;
  mcfg.ph = tiny_spec().ph;
  mcfg.pw = tiny_spec().pw;
  core::AdarNet model(mcfg, rng);
  model.stats() = data::NormStats::fit({tiny_lr()});
  return model;
}

core::PipelineConfig tiny_pipeline_config() {
  core::PipelineConfig pcfg;
  pcfg.lr_solver = fast_solver();
  pcfg.ps_solver = fast_solver();
  pcfg.guards.fallback.solver = fast_solver();
  return pcfg;
}

bool solution_is_finite(const core::PipelineResult& result) {
  for (int c = 0; c < field::kNumFlowVars; ++c) {
    for (const auto& patch : result.solution.channel(c)) {
      for (double v : patch) {
        if (!std::isfinite(v)) return false;
      }
    }
  }
  return true;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

// Every test starts and ends with a clean registry, so an armed site can
// never leak into another test (or into the shared LR solve).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

// --- the registry itself ----------------------------------------------------

TEST_F(FaultTest, DisarmedRegistryNeverFires) {
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::fires("anything"));
  EXPECT_EQ(fault::hits("anything"), 0);  // disarmed hits are not counted
}

TEST_F(FaultTest, AfterAndCountSemantics) {
  fault::arm("site", {.after = 2, .count = 2});
  EXPECT_TRUE(fault::armed());
  EXPECT_FALSE(fault::fires("site"));  // hit 0
  EXPECT_FALSE(fault::fires("site"));  // hit 1
  EXPECT_TRUE(fault::fires("site"));   // hit 2: first firing
  EXPECT_TRUE(fault::fires("site"));   // hit 3: second firing
  EXPECT_FALSE(fault::fires("site"));  // count exhausted
  EXPECT_EQ(fault::hits("site"), 5);
  EXPECT_EQ(fault::fired("site"), 2);

  fault::disarm("site");
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::fires("site"));

  fault::arm("forever", {.after = 0, .count = -1});
  for (int k = 0; k < 10; ++k) EXPECT_TRUE(fault::fires("forever"));
}

TEST_F(FaultTest, CorruptInjectsNanOnlyWhenFiring) {
  double vals[3] = {1.0, 2.0, 3.0};
  EXPECT_FALSE(fault::corrupt("nan", vals, 3));
  EXPECT_EQ(vals[0], 1.0);
  fault::arm("nan");
  EXPECT_TRUE(fault::corrupt("nan", vals, 3));
  for (double v : vals) EXPECT_TRUE(std::isnan(v));
}

// --- integrity-checked serialization ---------------------------------------

TEST_F(FaultTest, SerializeV2RoundTripsWithTag) {
  util::Rng rng(7);
  nn::Sequential net;
  net.emplace<nn::Conv2D>(2, 3, 3, rng);
  const std::string path = ::testing::TempDir() + "/fault_ckpt_v2.bin";
  ASSERT_TRUE(nn::save_parameters(net.parameters(), path, 42));
  EXPECT_FALSE(file_exists(path + ".tmp"));

  const auto bytes = read_file(path);
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(std::string(bytes.data(), 4), "ADR2");

  util::Rng rng2(9);
  nn::Sequential other;
  other.emplace<nn::Conv2D>(2, 3, 3, rng2);
  std::uint64_t tag = 0;
  ASSERT_TRUE(nn::load_parameters(other.parameters(), path, &tag));
  EXPECT_EQ(tag, 42u);
  const auto a = net.parameters();
  const auto b = other.parameters();
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t k = 0; k < a[i]->value.numel(); ++k) {
      EXPECT_FLOAT_EQ(a[i]->value[k], b[i]->value[k]);
    }
  }
  std::remove(path.c_str());
}

TEST_F(FaultTest, TruncatedCheckpointRejectedWithoutPartialLoad) {
  util::Rng rng(11);
  nn::Sequential net;
  net.emplace<nn::Conv2D>(2, 3, 3, rng);
  const std::string path = ::testing::TempDir() + "/fault_ckpt_trunc.bin";
  ASSERT_TRUE(nn::save_parameters(net.parameters(), path));

  auto bytes = read_file(path);
  bytes.resize(bytes.size() - 5);
  write_file(path, bytes);

  for (nn::Parameter* p : net.parameters()) p->value.fill(123.0f);
  EXPECT_FALSE(nn::load_parameters(net.parameters(), path));
  for (nn::Parameter* p : net.parameters()) {
    for (std::size_t k = 0; k < p->value.numel(); ++k) {
      EXPECT_FLOAT_EQ(p->value[k], 123.0f) << "partial load detected";
    }
  }
  std::remove(path.c_str());
}

TEST_F(FaultTest, BitFlippedCheckpointRejected) {
  util::Rng rng(13);
  nn::Sequential net;
  net.emplace<nn::Conv2D>(2, 3, 3, rng);
  const std::string path = ::testing::TempDir() + "/fault_ckpt_flip.bin";
  ASSERT_TRUE(nn::save_parameters(net.parameters(), path));

  auto bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x01;  // single bit flip mid-payload
  write_file(path, bytes);
  EXPECT_FALSE(nn::load_parameters(net.parameters(), path));
  std::remove(path.c_str());
}

// The retired v1 format ("ADRW" | u32 count | per-param u64 numel +
// floats; no tag, no CRC) is refused like any unknown magic: the load
// fails and touches no parameter and no tag.
TEST_F(FaultTest, LegacyAdrwCheckpointRejected) {
  util::Rng rng(17);
  nn::Sequential net;
  net.emplace<nn::Conv2D>(2, 3, 3, rng);
  const auto params = net.parameters();

  std::vector<char> bytes;
  auto append = [&bytes](const void* src, std::size_t n) {
    const char* p = static_cast<const char*>(src);
    bytes.insert(bytes.end(), p, p + n);
  };
  append("ADRW", 4);
  const std::uint32_t count = static_cast<std::uint32_t>(params.size());
  append(&count, sizeof(count));
  for (const nn::Parameter* p : params) {
    const std::uint64_t numel = p->value.numel();
    append(&numel, sizeof(numel));
    append(p->value.data(), numel * sizeof(float));
  }
  const std::string path = ::testing::TempDir() + "/fault_ckpt_v1.bin";
  write_file(path, bytes);

  util::Rng rng2(19);
  nn::Sequential other;
  other.emplace<nn::Conv2D>(2, 3, 3, rng2);
  const auto b = other.parameters();
  std::vector<std::vector<float>> before;
  for (const nn::Parameter* p : b) {
    before.emplace_back(p->value.data(), p->value.data() + p->value.numel());
  }
  std::uint64_t tag = 99;
  EXPECT_FALSE(nn::load_parameters(b, path, &tag));
  EXPECT_EQ(tag, 99u);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(before[i].data(), b[i]->value.data(),
                             before[i].size() * sizeof(float)))
        << "parameter " << i << " changed";
  }
  std::remove(path.c_str());
}

TEST_F(FaultTest, SaveIsAtomicUnderIoFault) {
  util::Rng rng(23);
  nn::Sequential net;
  net.emplace<nn::Conv2D>(2, 3, 3, rng);
  const std::string path = ::testing::TempDir() + "/fault_ckpt_atomic.bin";
  ASSERT_TRUE(nn::save_parameters(net.parameters(), path, 1));
  const auto good = read_file(path);

  // A failed re-save must leave the previous checkpoint byte-identical.
  for (nn::Parameter* p : net.parameters()) p->value.fill(7.0f);
  fault::arm("nn.serialize.write");
  EXPECT_FALSE(nn::save_parameters(net.parameters(), path, 2));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  EXPECT_EQ(read_file(path), good);

  std::uint64_t tag = 0;
  ASSERT_TRUE(nn::load_parameters(net.parameters(), path, &tag));
  EXPECT_EQ(tag, 1u);
  std::remove(path.c_str());
}

// --- robust VTK output ------------------------------------------------------

TEST_F(FaultTest, VtkWriteAtomicAndFailsCleanly) {
  field::FlowField f(4, 4);
  f.U.fill(1.0);
  const std::string ok_path = ::testing::TempDir() + "/fault_field.vtk";
  EXPECT_TRUE(io::write_vtk_uniform(f, 0.1, 0.1, ok_path));
  EXPECT_TRUE(file_exists(ok_path));
  EXPECT_FALSE(file_exists(ok_path + ".tmp"));

  const std::string bad_path = ::testing::TempDir() + "/fault_field_bad.vtk";
  fault::arm("io.vtk.write");
  EXPECT_FALSE(io::write_vtk_uniform(f, 0.1, 0.1, bad_path));
  EXPECT_FALSE(file_exists(bad_path));
  EXPECT_FALSE(file_exists(bad_path + ".tmp"));
  std::remove(ok_path.c_str());
}

TEST_F(FaultTest, PgmWriteFailsCleanly) {
  field::Grid2Dd g(4, 4);
  const std::string path = ::testing::TempDir() + "/fault_img.pgm";
  fault::arm("io.vtk.write");
  EXPECT_FALSE(io::write_pgm(g, path));
  EXPECT_FALSE(file_exists(path));
  fault::reset();
  EXPECT_TRUE(io::write_pgm(g, path));
  std::remove(path.c_str());
}

// --- solver divergence detection --------------------------------------------

TEST_F(FaultTest, IterateStopsEarlyOnForcedDivergence) {
  mesh::CompositeMesh mesh(
      tiny_spec(), mesh::RefinementMap(tiny_spec().npy(), tiny_spec().npx(), 0));
  solver::RansSolver rans(mesh, fast_solver());
  auto f = mesh::make_field(mesh);
  rans.initialize_freestream(f);

  fault::arm("solver.diverge", {.after = 3, .count = 1});
  const auto stats = rans.iterate(f, 50);
  EXPECT_TRUE(stats.diverged);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.iterations, 4);  // stopped at the poisoned iteration
  EXPECT_GE(stats.residual, 1e30);
}

TEST_F(FaultTest, SolveRetriesWithRelaxationAndReportsAttempts) {
  mesh::CompositeMesh mesh(
      tiny_spec(), mesh::RefinementMap(tiny_spec().npy(), tiny_spec().npx(), 0));
  // The surviving attempt runs with backed-off relaxation (0.16x CFL),
  // which needs a higher iteration cap to reach the same tolerance.
  auto scfg = fast_solver();
  scfg.max_outer = 12000;
  solver::RansSolver rans(mesh, scfg);
  auto f = mesh::make_field(mesh);
  rans.initialize_freestream(f);

  // First two attempts are poisoned; the third runs clean and converges.
  fault::arm("solver.diverge", {.after = 0, .count = 2});
  const auto stats = rans.solve(f);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_FALSE(stats.diverged);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(stats.final_pseudo_cfl, rans.config().pseudo_cfl);
  EXPECT_LT(stats.final_alpha_u, rans.config().alpha_u);
  for (int c = 0; c < field::kNumFlowVars; ++c) {
    for (const auto& patch : f.channel(c)) {
      for (double v : patch) EXPECT_TRUE(std::isfinite(v));
    }
  }
}

// --- the end-to-end degradation ladder --------------------------------------

TEST_F(FaultTest, PipelineSanitizesNanInference) {
  auto model = tiny_model(31);
  fault::arm("adarnet.infer.nan");
  const auto result = core::run_adarnet_pipeline(
      model, tiny_spec(), tiny_pipeline_config(), tiny_lr(), 0.0, 0);
  EXPECT_EQ(result.fallback_stage, core::FallbackStage::kSanitizedSeed);
  EXPECT_GT(result.sanitized_values, 0);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(solution_is_finite(result));
}

TEST_F(FaultTest, PipelineRetriesFromFreestreamOnDivergence) {
  auto model = tiny_model(33);
  // Poison the first physics solve through all three of its internal
  // relaxation retries; the freestream rung then runs clean. A freestream
  // seed on the refined DNN mesh converges far slower than the DNN seed,
  // so this rung gets a higher iteration cap (poisoned attempts diverge
  // at their first iteration and cost nothing).
  auto pcfg = tiny_pipeline_config();
  pcfg.ps_solver.max_outer = 12000;
  fault::arm("solver.diverge", {.after = 0, .count = 3});
  const auto result = core::run_adarnet_pipeline(
      model, tiny_spec(), pcfg, tiny_lr(), 0.0, 0);
  EXPECT_EQ(result.fallback_stage, core::FallbackStage::kFreestreamRetry);
  EXPECT_EQ(result.ps_solves, 2);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(solution_is_finite(result));
}

TEST_F(FaultTest, PipelineFallsBackToReferenceMap) {
  auto model = tiny_model(35);
  // Poison both DNN-mesh solves (3 internal attempts each); the
  // reference-map rung then runs clean and must still converge.
  fault::arm("solver.diverge", {.after = 0, .count = 6});
  const auto result = core::run_adarnet_pipeline(
      model, tiny_spec(), tiny_pipeline_config(), tiny_lr(), 0.0, 0);
  EXPECT_EQ(result.fallback_stage, core::FallbackStage::kReferenceMap);
  EXPECT_EQ(result.ps_solves, 3);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(solution_is_finite(result));
  ASSERT_NE(result.mesh, nullptr);
  EXPECT_EQ(result.mesh->map(), result.map);
}

TEST_F(FaultTest, PipelineRejectsMapOverCellBudget) {
  auto model = tiny_model(37);
  auto pcfg = tiny_pipeline_config();
  pcfg.guards.max_cell_fraction = 1e-9;  // no map can fit this budget
  const auto result = core::run_adarnet_pipeline(
      model, tiny_spec(), pcfg, tiny_lr(), 0.0, 0);
  EXPECT_EQ(result.fallback_stage, core::FallbackStage::kReferenceMap);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(solution_is_finite(result));
}

TEST_F(FaultTest, ValidateRefinementMapReasons) {
  const auto& spec = tiny_spec();
  mesh::RefinementMap good(spec.npy(), spec.npx(), 0);
  EXPECT_EQ(core::validate_refinement_map(good, spec, spec.ph, spec.pw, 1.0),
            "");
  mesh::RefinementMap wrong(spec.npy() + 1, spec.npx(), 0);
  EXPECT_NE(core::validate_refinement_map(wrong, spec, spec.ph, spec.pw, 1.0),
            "");
  mesh::RefinementMap empty;
  EXPECT_NE(core::validate_refinement_map(empty, spec, spec.ph, spec.pw, 1.0),
            "");
  EXPECT_NE(core::validate_refinement_map(good, spec, spec.ph, spec.pw, 1e-9),
            "");
}

// --- resilient training -----------------------------------------------------

const data::Dataset& tiny_dataset() {
  static const data::Dataset dataset = [] {
    data::DatasetConfig dcfg;
    dcfg.channel_samples = 2;
    dcfg.plate_samples = 0;
    dcfg.ellipse_samples = 0;
    dcfg.wall_preset = tiny_wall();
    dcfg.solver = fast_solver();
    return data::generate_dataset(dcfg);
  }();
  return dataset;
}

core::TrainConfig tiny_train_config() {
  core::TrainConfig tcfg;
  tcfg.epochs = 2;
  tcfg.log_every = 0;
  return tcfg;
}

TEST_F(FaultTest, TrainerSkipsNanBatchAndRecovers) {
  util::Rng rng(41);
  core::AdarNetConfig mcfg;
  mcfg.ph = 4;
  mcfg.pw = 4;
  core::AdarNet model(mcfg, rng);
  auto tcfg = tiny_train_config();
  tcfg.clip_norm = 10.0;
  fault::arm("trainer.nan_batch", {.after = 0, .count = 1});
  const auto stats = core::train(model, tiny_dataset(), tcfg, rng);
  EXPECT_GE(stats.skipped_steps, 1);
  ASSERT_EQ(stats.data_loss.size(), 2u);
  for (double l : stats.data_loss) EXPECT_TRUE(std::isfinite(l));
  for (nn::Parameter* p : model.parameters()) {
    for (std::size_t k = 0; k < p->value.numel(); ++k) {
      EXPECT_TRUE(std::isfinite(p->value[k])) << "NaN leaked into parameters";
    }
  }
}

TEST_F(FaultTest, TrainerRollsBackLostEpoch) {
  util::Rng rng(43);
  core::AdarNetConfig mcfg;
  mcfg.ph = 4;
  mcfg.pw = 4;
  core::AdarNet model(mcfg, rng);
  auto tcfg = tiny_train_config();
  tcfg.epochs = 3;
  // Epoch 0 trains clean (hits 0-1) and becomes the best snapshot; every
  // sample of epoch 1 (hits 2-3) is poisoned, so the whole epoch is lost
  // and the trainer must roll back to the epoch-0 parameters.
  fault::arm("trainer.nan_batch", {.after = 2, .count = 2});
  const auto stats = core::train(model, tiny_dataset(), tcfg, rng);
  EXPECT_EQ(stats.skipped_steps, 2);
  EXPECT_GE(stats.rollbacks, 1);
  EXPECT_GE(stats.best_epoch, 0);
  for (nn::Parameter* p : model.parameters()) {
    for (std::size_t k = 0; k < p->value.numel(); ++k) {
      EXPECT_TRUE(std::isfinite(p->value[k]));
    }
  }
}

TEST_F(FaultTest, TrainerCheckpointsAndResumes) {
  const std::string path = ::testing::TempDir() + "/fault_train_ckpt.bin";
  std::remove(path.c_str());

  util::Rng rng(47);
  core::AdarNetConfig mcfg;
  mcfg.ph = 4;
  mcfg.pw = 4;
  core::AdarNet model(mcfg, rng);
  auto tcfg = tiny_train_config();
  tcfg.checkpoint_path = path;
  const auto first = core::train(model, tiny_dataset(), tcfg, rng);
  EXPECT_EQ(first.start_epoch, 0);
  ASSERT_EQ(first.scorer_loss.size(), 2u);
  ASSERT_TRUE(file_exists(path));

  // A fresh model resuming with a larger budget continues at epoch 2 and
  // only runs the remaining epochs.
  util::Rng rng2(49);
  core::AdarNet resumed(mcfg, rng2);
  tcfg.epochs = 4;
  const auto second = core::train(resumed, tiny_dataset(), tcfg, rng2);
  EXPECT_EQ(second.start_epoch, 2);
  EXPECT_EQ(second.scorer_loss.size(), 2u);

  // Resuming with an exhausted budget trains nothing further.
  util::Rng rng3(51);
  core::AdarNet done(mcfg, rng3);
  tcfg.epochs = 2;
  const auto third = core::train(done, tiny_dataset(), tcfg, rng3);
  EXPECT_EQ(third.start_epoch, 2);
  EXPECT_TRUE(third.scorer_loss.empty());
  std::remove(path.c_str());
}

}  // namespace
