// Tests for the ADARNet core: scorer, ranker, decoder, PDE loss adjoint,
// and the full inference path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "adarnet/decoder.hpp"
#include "adarnet/model.hpp"
#include "adarnet/pde_loss.hpp"
#include "adarnet/ranker.hpp"
#include "adarnet/scorer.hpp"
#include "adarnet/trainer.hpp"
#include "data/cases.hpp"
#include "data/normalize.hpp"
#include "util/rng.hpp"

namespace {

using adarnet::core::AdarNet;
using adarnet::core::AdarNetConfig;
using adarnet::core::Bin;
using adarnet::core::Decoder;
using adarnet::core::PdeOptions;
using adarnet::core::Scorer;
using adarnet::field::FlowField;
using adarnet::nn::Tensor;
using adarnet::util::Rng;

FlowField smooth_field(int ny, int nx, double amp = 1.0) {
  FlowField f(ny, nx);
  for (int i = 0; i < ny; ++i) {
    for (int j = 0; j < nx; ++j) {
      const double x = static_cast<double>(j) / nx;
      const double y = static_cast<double>(i) / ny;
      f.U(i, j) = amp * (1.0 + 0.3 * std::sin(6.28 * x) * y);
      f.V(i, j) = amp * 0.1 * std::cos(6.28 * y);
      f.p(i, j) = amp * 0.5 * (1.0 - x);
      f.nuTilda(i, j) = amp * 1e-4 * y * (1.0 - y);
    }
  }
  return f;
}

// A uniform inflow: the scorer sees no feature, so most patches rank into
// the deepest bin.
FlowField uniform_inflow(int ny, int nx) {
  FlowField f(ny, nx);
  f.U.fill(1.0);
  return f;
}

// Patch ids per refinement level of an inference, in id order (the order
// infer's bins hold them in).
std::vector<std::vector<int>> ids_by_level(
    const adarnet::core::InferenceResult& result, int levels) {
  std::vector<std::vector<int>> ids(static_cast<std::size_t>(levels));
  for (const auto& p : result.patches) {
    ids[static_cast<std::size_t>(p.level)].push_back(p.id);
  }
  return ids;
}

// Patches of one decoder slice at a (h, w) level (see kDecoderChunkPixels).
int patches_per_slice(int h, int w) {
  return std::max(1, adarnet::core::kDecoderChunkPixels / (h * w));
}

// A model whose decoder output depends on every layer: the residual head
// is zero-initialised (the decoder then returns its input), so give it
// random weights.
AdarNet model_with_live_head(const AdarNetConfig& cfg, Rng& rng) {
  AdarNet model(cfg, rng);
  const auto params = model.decoder().parameters();
  for (std::size_t i = params.size() - 2; i < params.size(); ++i) {
    Tensor& v = params[i]->value;
    for (std::size_t k = 0; k < v.numel(); ++k) {
      v[k] = static_cast<float>(rng.normal(0.0, 0.1));
    }
  }
  return model;
}

// AdarNet::infer runs each bin's decoder slice by slice; every patch
// prediction must equal, bit for bit, the same sample of one whole-bin
// Decoder::forward.
void check_sliced_infer_matches_whole_bins(int ph, int pw, int npy, int npx) {
  Rng rng(19);
  AdarNetConfig cfg;
  cfg.ph = ph;
  cfg.pw = pw;
  AdarNet model = model_with_live_head(cfg, rng);
  const FlowField lr = uniform_inflow(ph * npy, pw * npx);
  model.stats() = adarnet::data::NormStats::fit({smooth_field(8, 8)});
  const auto result = model.infer(lr);
  const auto ids = ids_by_level(result, cfg.bins);
  // The deepest bin spans several slices plus a remainder.
  const int deepest = cfg.bins - 1;
  const int count = static_cast<int>(ids[deepest].size());
  const int per_slice = patches_per_slice(ph << deepest, pw << deepest);
  ASSERT_GT(count, 2 * per_slice);
  ASSERT_NE(count % per_slice, 0);

  const Tensor lr_norm = adarnet::data::to_tensor(lr, model.stats());
  for (int level = 0; level < cfg.bins; ++level) {
    const auto& bin = ids[static_cast<std::size_t>(level)];
    if (bin.empty()) continue;
    SCOPED_TRACE("level " + std::to_string(level));
    const Tensor out = model.decoder().forward(
        model.make_decoder_batch(lr_norm, bin, level, npx, npy));
    for (std::size_t s = 0; s < bin.size(); ++s) {
      const FlowField want = adarnet::data::from_tensor_sample(
          out, static_cast<int>(s), model.stats());
      const FlowField& got = result.patches[bin[s]].values;
      for (int c = 0; c < adarnet::field::kNumFlowVars; ++c) {
        const auto& g = got.channel(c);
        const auto& wv = want.channel(c);
        ASSERT_EQ(g.size(), wv.size());
        ASSERT_EQ(std::memcmp(g.data(), wv.data(), g.size() * sizeof(double)),
                  0)
            << "patch " << bin[s] << " channel " << c;
      }
    }
  }
}

}  // namespace

TEST(ScorerNet, ShapesAndDistribution) {
  Rng rng(3);
  Scorer scorer(4, 8, 8, rng);
  Tensor in(1, 4, 16, 32);
  for (std::size_t k = 0; k < in.numel(); ++k) {
    in[k] = static_cast<float>(std::sin(0.01 * static_cast<double>(k)));
  }
  auto out = scorer.forward(in);
  EXPECT_EQ(out.latent.c(), 1);
  EXPECT_EQ(out.latent.h(), 16);
  EXPECT_EQ(out.latent.w(), 32);
  EXPECT_EQ(out.scores.h(), 2);   // 16 / 8 patches in y
  EXPECT_EQ(out.scores.w(), 4);   // 32 / 8 patches in x
  double sum = 0.0;
  for (std::size_t k = 0; k < out.scores.numel(); ++k) sum += out.scores[k];
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(ScorerNet, MemoryEstimatePositiveAndLinearInBatch) {
  Rng rng(5);
  Scorer scorer(4, 16, 16, rng);
  const auto e1 = scorer.estimate_memory(1, 64, 64);
  const auto e4 = scorer.estimate_memory(4, 64, 64);
  EXPECT_GT(e1.total(), 0);
  EXPECT_EQ(e4.sum_activations, 4 * e1.sum_activations);
  EXPECT_EQ(e4.parameter_bytes, e1.parameter_bytes);
}

TEST(Ranker, TopPatchAlwaysInDeepestBin) {
  Tensor scores(1, 1, 2, 2);
  scores[0] = 0.70f;
  scores[1] = 0.20f;
  scores[2] = 0.06f;
  scores[3] = 0.04f;
  const auto bins = adarnet::core::rank(scores, 4);
  ASSERT_EQ(bins.size(), 4u);
  // Rescaled by max: 1.0, 0.286, 0.086, 0.057 -> bins 3, 1, 0, 0.
  EXPECT_EQ(bins[3].patch_ids, std::vector<int>{0});
  EXPECT_EQ(bins[1].patch_ids, std::vector<int>{1});
  EXPECT_EQ(bins[0].patch_ids, (std::vector<int>{2, 3}));
  EXPECT_TRUE(bins[2].patch_ids.empty());
}

TEST(Ranker, UniformScoresAllLandInDeepestBin) {
  // Equal scores rescale to 1.0 everywhere: the conservative outcome is
  // maximal refinement, not none.
  Tensor scores(1, 1, 2, 2);
  scores.fill(0.25f);
  const auto map = adarnet::core::rank_to_map(scores, 4);
  for (int pi = 0; pi < 2; ++pi) {
    for (int pj = 0; pj < 2; ++pj) {
      EXPECT_EQ(map.level(pi, pj), 3);
    }
  }
}

TEST(Ranker, MapMatchesBins) {
  Tensor scores(1, 1, 2, 3);
  scores[0] = 0.5f;
  scores[1] = 0.3f;
  scores[2] = 0.1f;
  scores[3] = 0.05f;
  scores[4] = 0.03f;
  scores[5] = 0.02f;
  const auto bins = adarnet::core::rank(scores, 4);
  const auto map = adarnet::core::to_refinement_map(bins, 2, 3);
  int assigned = 0;
  for (const Bin& b : bins) assigned += static_cast<int>(b.patch_ids.size());
  EXPECT_EQ(assigned, 6);
  EXPECT_EQ(map.level(0, 0), 3);  // top score
}

TEST(Ranker, RejectsBadInput) {
  Tensor bad(2, 1, 2, 2);
  EXPECT_THROW(adarnet::core::rank(bad, 4), std::invalid_argument);
  Tensor ok(1, 1, 2, 2);
  EXPECT_THROW(adarnet::core::rank(ok, 0), std::invalid_argument);
}

// Regression: a negative score used to rescale to a negative fraction whose
// static_cast<int> produced a negative bin index and an out-of-bounds
// bins[bin].patch_ids.push_back write (caught by ASan on the pre-fix code).
// Negative scores are reachable through the public rank() API; NaN scores
// through a poisoned scorer, since the pipeline's finite guard runs only
// after infer() has already ranked.
TEST(Ranker, NegativeScoresClampToBinZero) {
  Tensor scores(1, 1, 2, 2);
  scores[0] = 0.8f;
  scores[1] = -0.4f;
  scores[2] = -1e6f;
  scores[3] = 0.2f;
  const auto bins = adarnet::core::rank(scores, 4);
  ASSERT_EQ(bins.size(), 4u);
  int assigned = 0;
  for (const Bin& b : bins) assigned += static_cast<int>(b.patch_ids.size());
  EXPECT_EQ(assigned, 4);  // every patch lands in exactly one valid bin
  EXPECT_EQ(bins[0].patch_ids, (std::vector<int>{1, 2}));
  EXPECT_EQ(bins[3].patch_ids, std::vector<int>{0});
  EXPECT_EQ(bins[1].patch_ids, std::vector<int>{3});
}

TEST(Ranker, NonFiniteScoresRejectedToBinZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor scores(1, 1, 2, 2);
  scores[0] = nan;
  scores[1] = 0.6f;
  scores[2] = inf;  // must not become the rescale denominator either
  scores[3] = 0.3f;
  const auto bins = adarnet::core::rank(scores, 4);
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_EQ(bins[0].patch_ids, (std::vector<int>{0, 2}));
  EXPECT_EQ(bins[3].patch_ids, std::vector<int>{1});  // 0.6 is the max
  EXPECT_EQ(bins[2].patch_ids, std::vector<int>{3});  // 0.3 / 0.6 -> 0.5

  // All-NaN scores: everything lands (safely) in bin 0.
  Tensor poisoned(1, 1, 2, 2);
  poisoned.fill(nan);
  const auto fallback = adarnet::core::rank(poisoned, 4);
  EXPECT_EQ(fallback[0].patch_ids.size(), 4u);
  const auto map = adarnet::core::to_refinement_map(fallback, 2, 2);
  for (int pi = 0; pi < 2; ++pi) {
    for (int pj = 0; pj < 2; ++pj) EXPECT_EQ(map.level(pi, pj), 0);
  }
}

TEST(Ranker, AllZeroScoresLandInBinZero) {
  Tensor scores(1, 1, 2, 2);
  scores.fill(0.0f);
  const auto bins = adarnet::core::rank(scores, 4);
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_EQ(bins[0].patch_ids.size(), 4u);
  for (int level = 1; level < 4; ++level) {
    EXPECT_TRUE(bins[static_cast<std::size_t>(level)].patch_ids.empty());
  }
}

TEST(DecoderNet, PreservesSpatialExtentAcrossResolutions) {
  Rng rng(7);
  Decoder decoder(rng);
  for (int level = 0; level <= 3; ++level) {
    const int h = 8 << level;
    Tensor in(2, 6, h, h);
    Tensor out = decoder.forward(in);
    EXPECT_EQ(out.n(), 2);
    EXPECT_EQ(out.c(), 4);
    EXPECT_EQ(out.h(), h);
    EXPECT_EQ(out.w(), h);
  }
  // Shared weights: the parameter count is independent of resolution and
  // small (6 conv/deconv layers).
  EXPECT_LT(decoder.parameter_count(), 120000u);
}

TEST(PdeLoss, ZeroForUniformFlow) {
  FlowField f(8, 8);
  for (auto& v : f.U) v = 2.0;
  PdeOptions opt{1e-3, 0.1, 0.1};
  EXPECT_NEAR(adarnet::core::pde_residual_value(f, opt), 0.0, 1e-24);
  const auto r = adarnet::core::pde_residual_loss(f, opt);
  EXPECT_NEAR(r.loss, 0.0, 1e-24);
  for (int c = 0; c < 4; ++c) {
    for (double g : r.grad.channel(c)) EXPECT_NEAR(g, 0.0, 1e-18);
  }
}

TEST(PdeLoss, PenalisesDivergentFlow) {
  FlowField f(8, 8);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) f.U(i, j) = 0.5 * j;  // dU/dx != 0
  }
  PdeOptions opt{1e-3, 0.1, 0.1};
  EXPECT_GT(adarnet::core::pde_residual_value(f, opt), 1.0);
}

TEST(PdeLossGrad, MatchesFiniteDifferenceOnAllChannels) {
  FlowField f = smooth_field(6, 7);
  PdeOptions opt{1e-3, 0.2, 0.15};
  const auto analytic = adarnet::core::pde_residual_loss(f, opt);
  const double eps = 1e-6;
  for (int c = 0; c < 4; ++c) {
    auto& chan = f.channel(c);
    for (std::size_t k = 0; k < chan.size(); k += 3) {
      const double saved = chan[k];
      chan[k] = saved + eps;
      const double lp = adarnet::core::pde_residual_value(f, opt);
      chan[k] = saved - eps;
      const double lm = adarnet::core::pde_residual_value(f, opt);
      chan[k] = saved;
      const double fd = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(analytic.grad.channel(c)[k], fd,
                  1e-5 * std::max(1.0, std::abs(fd)))
          << "channel " << c << " index " << k;
    }
  }
}

TEST(PdeLoss, TinyFieldIsSafe) {
  FlowField f(2, 2);
  PdeOptions opt;
  EXPECT_DOUBLE_EQ(adarnet::core::pde_residual_value(f, opt), 0.0);
  const auto r = adarnet::core::pde_residual_loss(f, opt);
  EXPECT_DOUBLE_EQ(r.loss, 0.0);
}

TEST(NormStats, EncodeDecodeRoundTrip) {
  std::vector<FlowField> fields{smooth_field(4, 4, 2.0)};
  const auto stats = adarnet::data::NormStats::fit(fields);
  for (int c = 0; c < 4; ++c) {
    EXPECT_GT(stats.hi[c], stats.lo[c]);
    const double v = 0.5 * (stats.lo[c] + stats.hi[c]);
    EXPECT_NEAR(stats.decode(c, stats.encode(c, v)), v, 1e-12);
    EXPECT_NEAR(stats.scale(c), stats.hi[c] - stats.lo[c], 1e-12);
  }
  // Encoded values of the fitted fields live in [0, 1].
  const auto t = adarnet::data::to_tensor(fields[0], stats);
  for (std::size_t k = 0; k < t.numel(); ++k) {
    EXPECT_GE(t[k], -1e-6f);
    EXPECT_LE(t[k], 1.0f + 1e-6f);
  }
}

TEST(NormStats, TensorRoundTrip) {
  const FlowField f = smooth_field(5, 6);
  const auto stats = adarnet::data::NormStats::fit({f});
  const auto t = adarnet::data::to_tensor(f, stats);
  const auto back = adarnet::data::from_tensor(t, stats);
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 5; ++i) {
      for (int j = 0; j < 6; ++j) {
        EXPECT_NEAR(back.channel(c)(i, j), f.channel(c)(i, j),
                    1e-6 * std::max(1.0, std::abs(f.channel(c)(i, j))));
      }
    }
  }
}

TEST(AdarNetModel, InferenceShapesAndBookkeeping) {
  Rng rng(11);
  AdarNetConfig cfg;
  cfg.ph = 8;
  cfg.pw = 8;
  AdarNet model(cfg, rng);
  const FlowField lr = smooth_field(16, 32, 0.8);
  model.stats() = adarnet::data::NormStats::fit({lr});
  const auto result = model.infer(lr);
  EXPECT_EQ(result.map.npy(), 2);
  EXPECT_EQ(result.map.npx(), 4);
  ASSERT_EQ(result.patches.size(), 8u);
  for (const auto& p : result.patches) {
    EXPECT_EQ(p.level, result.map.level(p.id / 4, p.id % 4));
    EXPECT_EQ(p.values.ny(), 8 << p.level);
    EXPECT_EQ(p.values.nx(), 8 << p.level);
  }
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.measured_peak_bytes, 0);
  EXPECT_GT(result.modeled_bytes, 0);
}

TEST(AdarNetModel, SlicedInferenceMatchesWholeBinDecoderBitwise) {
  // Level-3 patches 8 cells wide (the GEMM packer's row-segment path) and
  // 16 wide (its one-row fast path).
  {
    SCOPED_TRACE("8 wide");
    check_sliced_infer_matches_whole_bins(2, 1, 10, 12);
  }
  {
    SCOPED_TRACE("16 wide");
    check_sliced_infer_matches_whole_bins(2, 2, 6, 9);
  }
}

TEST(AdarNetModel, SlicedInferencePeakStaysBelowWholeBinActivations) {
  // A whole-bin forward holds the 64-channel activation pair of every
  // patch (about 0.4 of the summed activations); slices hold one slice's.
  Rng rng(19);
  AdarNetConfig cfg;
  cfg.ph = 4;
  cfg.pw = 4;
  AdarNet model(cfg, rng);
  const FlowField lr = uniform_inflow(6 * cfg.ph, 6 * cfg.pw);
  model.stats() = adarnet::data::NormStats::fit({smooth_field(8, 8)});
  const auto result = model.infer(lr);
  const auto ids = ids_by_level(result, cfg.bins);
  const int n = static_cast<int>(ids[3].size());
  ASSERT_GE(n, 16);
  const std::int64_t whole_bin =
      model.decoder()
          .estimate_memory(n, cfg.ph << 3, cfg.pw << 3)
          .sum_activations;
  EXPECT_LT(result.measured_peak_bytes, whole_bin / 4);
}

TEST(AdarNetModel, ToCompositeRespectsMapAndSolids) {
  Rng rng(13);
  auto spec =
      adarnet::data::cylinder_case(1e4, adarnet::data::GridPreset{16, 16, 8, 8});
  AdarNetConfig cfg;
  cfg.ph = spec.ph;
  cfg.pw = spec.pw;
  AdarNet model(cfg, rng);
  const FlowField lr = smooth_field(spec.base_ny, spec.base_nx, spec.u_ref);
  model.stats() = adarnet::data::NormStats::fit({lr});
  const auto result = model.infer(lr);
  auto [mesh, f] = model.to_composite(result, spec, lr);
  EXPECT_EQ(mesh->map().npy(), spec.npy());
  // Solid cells are zeroed in every channel.
  for (int k = 0; k < mesh->patch_count(); ++k) {
    const auto& pm = mesh->patch_flat(k);
    for (int i = 1; i <= pm.ny; ++i) {
      for (int j = 1; j <= pm.nx; ++j) {
        if (pm.solid(i, j)) {
          EXPECT_DOUBLE_EQ(f.U[k](i, j), 0.0);
          EXPECT_DOUBLE_EQ(f.nuTilda[k](i, j), 0.0);
        } else {
          EXPECT_GE(f.nuTilda[k](i, j), 0.0);
        }
      }
    }
  }
}

TEST(PdeLoss, LaplaceResidualZeroForLinearFields) {
  adarnet::field::FlowField f(6, 6);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      for (int c = 0; c < 4; ++c) {
        f.channel(c)(i, j) = 2.0 * i - 3.0 * j + c;
      }
    }
  }
  adarnet::core::PdeOptions opt{1e-3, 0.5, 0.25};
  const auto r = adarnet::core::laplace_residual_loss(f, opt);
  EXPECT_NEAR(r.loss, 0.0, 1e-20);
}

TEST(PdeLossGrad, LaplaceAdjointMatchesFiniteDifference) {
  adarnet::field::FlowField f = smooth_field(6, 6);
  adarnet::core::PdeOptions opt{1e-3, 0.3, 0.2};
  const auto analytic = adarnet::core::laplace_residual_loss(f, opt);
  const double eps = 1e-6;
  for (int c = 0; c < 4; ++c) {
    auto& chan = f.channel(c);
    for (std::size_t k = 0; k < chan.size(); k += 5) {
      const double saved = chan[k];
      chan[k] = saved + eps;
      const double lp = adarnet::core::laplace_residual_loss(f, opt).loss;
      chan[k] = saved - eps;
      const double lm = adarnet::core::laplace_residual_loss(f, opt).loss;
      chan[k] = saved;
      const double fd = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(analytic.grad.channel(c)[k], fd,
                  1e-4 * std::max(1.0, std::abs(fd)));
    }
  }
}

TEST(Trainer, SwappablePdeResidual) {
  // The PDE-agnostic hook: training runs with the Laplace residual too.
  adarnet::data::Dataset ds;
  auto spec = adarnet::data::channel_case(2.5e3,
                                          adarnet::data::GridPreset{8, 16, 4, 4});
  ds.samples.push_back({spec, smooth_field(8, 16, spec.u_ref)});
  ds.stats = adarnet::data::NormStats::fit(
      std::vector<adarnet::field::FlowField>{ds.samples[0].lr});
  Rng rng(3);
  adarnet::core::AdarNetConfig mcfg;
  mcfg.ph = 4;
  mcfg.pw = 4;
  adarnet::core::AdarNet model(mcfg, rng);
  adarnet::core::TrainConfig tcfg;
  tcfg.epochs = 2;
  tcfg.log_every = 0;
  tcfg.residual = &adarnet::core::laplace_residual_loss;
  const auto stats = adarnet::core::train(model, ds, tcfg, rng);
  ASSERT_EQ(stats.pde_loss.size(), 2u);
  for (double v : stats.pde_loss) EXPECT_TRUE(std::isfinite(v));
}
