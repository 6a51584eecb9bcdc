#include "adarnet/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <tuple>

#include "amr/criteria.hpp"
#include "field/interp.hpp"
#include "nn/adam.hpp"
#include "nn/gemm.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "adarnet/pde_loss.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace adarnet::core {

using field::Grid2Dd;

nn::Tensor score_target(const field::FlowField& lr, int ph, int pw) {
  const auto energy = amr::patch_gradient_energy_lr(lr, ph, pw);
  nn::Tensor t(1, 1, energy.ny(), energy.nx());
  // Square-root compression of the gradient energy before normalisation:
  // wall/wake gradients span orders of magnitude, and the ranker bins the
  // max-rescaled scores linearly, so without compression everything but
  // the hottest patch lands in bin 0. sqrt keeps the ordering while
  // letting secondary features (wakes, outer boundary layers) reach the
  // intermediate bins — the graded maps of the paper's Fig 9.
  double sum = 0.0;
  for (double e : energy) sum += std::sqrt(std::max(e, 0.0));
  if (sum <= 0.0) {
    t.fill(1.0f / static_cast<float>(energy.size()));
    return t;
  }
  for (std::size_t k = 0; k < energy.size(); ++k) {
    t[k] = static_cast<float>(std::sqrt(std::max(energy[k], 0.0)) / sum);
  }
  return t;
}

namespace {

// Adam rates: the decoder's is the paper's; the scorer's softmax targets
// are O(1/N), so it needs a larger step. An epoch whose combined loss
// exceeds kSpikeFactor x the best rolls back to the best epoch.
constexpr double kDecoderLr = 1e-4;
constexpr double kScorerLr = 3e-3;
constexpr double kSpikeFactor = 3.0;

// Hybrid loss and its gradient for one decoder output batch of patches at
// `level`. Returns {data_loss_sum, pde_loss_sum} over the batch and fills
// `*grad` (same shape as `out`). A null `grad` skips the whole adjoint
// path — no gradient tensor allocation, no resize_adjoint, no chain-rule
// accumulation — which is what evaluate() wants for eval-only forwards.
std::pair<double, double> hybrid_loss(
    const nn::Tensor& out, const std::vector<int>& patch_ids, int level,
    const data::Sample& sample, const data::NormStats& stats, int ph, int pw,
    double lambda_pde, ResidualFn residual, nn::Tensor* grad) {
  const mesh::CaseSpec& spec = sample.spec;
  const int npx = spec.npx();
  const int hh = ph << level;
  const int ww = pw << level;
  if (grad != nullptr) {
    *grad = nn::Tensor(out.n(), out.c(), out.h(), out.w());
  }
  double data_acc = 0.0;
  double pde_acc = 0.0;

  const PdeOptions pde_opt{spec.nu, spec.lx / (spec.base_nx << level),
                           spec.ly / (spec.base_ny << level)};

  // Per-patch losses are independent, so the batch parallelises cleanly:
  // each sample writes a disjoint slice of `grad` and the accumulators
  // reduce. All tensor traffic is row-pointer (contiguous) rather than
  // per-element at() indexing.
  const std::size_t splane = static_cast<std::size_t>(hh) * ww;
#pragma omp parallel for reduction(+ : data_acc, pde_acc) schedule(dynamic)
  for (int s = 0; s < out.n(); ++s) {
    const int id = patch_ids[static_cast<std::size_t>(s)];
    const int pi = id / npx;
    const int pj = id % npx;
    const float* out_base =
        out.data() + s * static_cast<std::size_t>(out.c()) * splane;
    float* grad_base =
        grad != nullptr
            ? grad->data() + s * static_cast<std::size_t>(grad->c()) * splane
            : nullptr;

    // --- data loss in the downsampled (LR) space ---------------------------
    const double inv_cells = 1.0 / (static_cast<double>(ph) * pw *
                                    field::kNumFlowVars);
    for (int c = 0; c < field::kNumFlowVars; ++c) {
      // Predicted patch channel as Grid2Dd (normalised space).
      const float* out_chan = out_base + static_cast<std::size_t>(c) * splane;
      Grid2Dd pred(hh, ww);
      for (std::size_t k = 0; k < splane; ++k) pred[k] = out_chan[k];
      // LR ground truth patch (normalised).
      const auto& lr_chan = sample.lr.channel(c);
      Grid2Dd truth(ph, pw);
      for (int i = 0; i < ph; ++i) {
        const double* lr_row = &lr_chan(pi * ph + i, pj * pw);
        double* trow = &truth(i, 0);
        for (int j = 0; j < pw; ++j) trow[j] = stats.encode(c, lr_row[j]);
      }
      Grid2Dd diff_grad;  // dL/d(pred) for this channel
      if (level == 0) {
        if (grad != nullptr) diff_grad = Grid2Dd(ph, pw);
        for (std::size_t k = 0; k < truth.size(); ++k) {
          const double d = pred[k] - truth[k];
          data_acc += d * d * inv_cells;
          if (grad != nullptr) diff_grad[k] = 2.0 * d * inv_cells;
        }
      } else {
        const Grid2Dd down =
            field::resize(pred, ph, pw, field::Interp::kBicubic);
        Grid2Dd g_down(ph, pw);
        for (std::size_t k = 0; k < truth.size(); ++k) {
          const double d = down[k] - truth[k];
          data_acc += d * d * inv_cells;
          g_down[k] = 2.0 * d * inv_cells;
        }
        if (grad != nullptr) {
          diff_grad =
              field::resize_adjoint(g_down, hh, ww, field::Interp::kBicubic);
        }
      }
      if (grad != nullptr) {
        float* grad_chan = grad_base + static_cast<std::size_t>(c) * splane;
        for (std::size_t k = 0; k < splane; ++k) {
          grad_chan[k] += static_cast<float>(diff_grad[k]);
        }
      }
    }

    // --- PDE residual loss on the denormalised patch -----------------------
    field::FlowField phys(hh, ww);
    for (int c = 0; c < field::kNumFlowVars; ++c) {
      const float* out_chan = out_base + static_cast<std::size_t>(c) * splane;
      auto& chan = phys.channel(c);
      for (std::size_t k = 0; k < splane; ++k) {
        chan[k] = stats.decode(c, out_chan[k]);
      }
    }
    const PdeLossResult pde = residual(phys, pde_opt);
    pde_acc += pde.loss;
    if (grad != nullptr) {
      for (int c = 0; c < field::kNumFlowVars; ++c) {
        const double chain = lambda_pde * stats.scale(c);
        const auto& g = pde.grad.channel(c);
        float* grad_chan = grad_base + static_cast<std::size_t>(c) * splane;
        for (std::size_t k = 0; k < splane; ++k) {
          grad_chan[k] += static_cast<float>(chain * g[k]);
        }
      }
    }
  }
  return {data_acc, pde_acc};
}

}  // namespace

TrainStats train(AdarNet& model, const data::Dataset& dataset,
                 const TrainConfig& config, util::Rng& rng) {
  TrainStats stats;
  if (dataset.samples.empty()) return stats;
  model.stats() = dataset.stats;

  // Observability instruments (DESIGN.md §9). Lookups are once-per-call;
  // updates inside the loops are relaxed atomics.
  namespace metrics = util::metrics;
  using util::trace::Site;
  using util::trace::Span;
  const Site epoch_site{"train.epoch", &metrics::counter("train.epoch.ns")};
  const Site scorer_site{"train.scorer", &metrics::counter("train.scorer.ns")};
  const Site decoder_site{"train.decoder",
                          &metrics::counter("train.decoder.ns"),
                          util::trace::kInherit, false};
  const Site loss_site{"train.loss", &metrics::counter("train.loss.ns"),
                       util::trace::kInherit, false};
  metrics::Counter& m_epochs = metrics::counter("train.epochs");
  metrics::Counter& m_skipped = metrics::counter("train.steps.skipped");
  metrics::Counter& m_rollbacks = metrics::counter("train.rollbacks");
  metrics::Counter& m_checkpoints = metrics::counter("train.checkpoints");
  metrics::Counter& m_ckpt_failures =
      metrics::counter("train.checkpoint.failures");
  // Per-epoch loss history for the telemetry server's /series.json; x is
  // the epoch index, so resumed runs continue the curve where they left it.
  metrics::TimeSeries& s_scorer_loss = metrics::series("train.loss.scorer");
  metrics::TimeSeries& s_data_loss = metrics::series("train.loss.data");
  metrics::TimeSeries& s_pde_loss = metrics::series("train.loss.pde");

  nn::AdamConfig scorer_cfg;
  scorer_cfg.lr = kScorerLr;
  scorer_cfg.clip_norm = config.clip_norm;
  nn::Adam scorer_opt(model.scorer().parameters(), scorer_cfg);
  nn::AdamConfig decoder_cfg;
  decoder_cfg.lr = kDecoderLr;
  decoder_cfg.clip_norm = config.clip_norm;
  nn::Adam decoder_opt(model.decoder().parameters(), decoder_cfg);

  const std::vector<nn::Parameter*> all_params = model.parameters();
  const std::vector<nn::Parameter*> scorer_params =
      model.scorer().parameters();
  const std::vector<nn::Parameter*> decoder_params =
      model.decoder().parameters();

  // Resume from an epoch checkpoint when one is present. Optimizer moments
  // restart (lightweight resume; see DESIGN.md §7) — the parameters, which
  // dominate, are exact.
  if (!config.checkpoint_path.empty()) {
    std::uint64_t next_epoch = 0;
    if (nn::load_parameters(all_params, config.checkpoint_path,
                            &next_epoch)) {
      stats.start_epoch = static_cast<int>(
          std::min<std::uint64_t>(next_epoch, config.epochs));
      ADR_LOG_INFO << "resuming training from epoch " << stats.start_epoch
                   << " (" << config.checkpoint_path << ")";
    }
  }

  // Best-epoch parameter snapshot, the rollback target on a loss spike.
  std::vector<std::vector<float>> best_params;
  auto snapshot = [&] {
    best_params.resize(all_params.size());
    for (std::size_t i = 0; i < all_params.size(); ++i) {
      const nn::Tensor& v = all_params[i]->value;
      best_params[i].assign(v.data(), v.data() + v.numel());
    }
  };
  auto restore = [&] {
    for (std::size_t i = 0; i < all_params.size(); ++i) {
      std::copy(best_params[i].begin(), best_params[i].end(),
                all_params[i]->value.data());
    }
  };

  const int ph = model.config().ph;
  const int pw = model.config().pw;

  std::vector<std::size_t> order(dataset.samples.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = stats.start_epoch; epoch < config.epochs; ++epoch) {
    const Span epoch_span(epoch_site);
    std::shuffle(order.begin(), order.end(), rng.engine());
    double scorer_acc = 0.0;
    double data_acc = 0.0;
    double pde_acc = 0.0;
    long patch_count = 0;
    long scorer_steps = 0;
    int epoch_skipped = 0;

    for (std::size_t idx : order) {
      const data::Sample& sample = dataset.samples[idx];
      const nn::Tensor lr_norm = data::to_tensor(sample.lr, model.stats());
      const nn::Tensor target = score_target(sample.lr, ph, pw);
      const int npy = target.h();
      const int npx = target.w();

      {
        const Span span(scorer_site);
        scorer_opt.zero_grad();
        auto scored = model.scorer().forward(lr_norm, /*train=*/true);
        const double loss = nn::mse_loss(scored.scores, target);
        model.scorer().backward(nn::mse_loss_grad(scored.scores, target));
        if (!std::isfinite(loss) || !nn::grads_finite(scorer_params)) {
          ++stats.skipped_steps;
          m_skipped.add();
          ADR_LOG_WARN << "skipping non-finite scorer batch (sample " << idx
                       << ")";
        } else {
          scorer_acc += loss;
          ++scorer_steps;
          scorer_opt.step();
        }
      }

      {
        const Span span("train.decoder");
        decoder_opt.zero_grad();
        // Teacher-forced binning from the physics-derived target.
        const auto bins = rank(target, model.config().bins);
        // Size the GEMM workspace arena once for the largest bin batch so
        // every decoder forward/backward below reuses it without growth.
        std::int64_t ws = 0;
        for (const Bin& bin : bins) {
          if (bin.patch_ids.empty()) continue;
          ws = std::max(
              ws, model.decoder()
                      .estimate_memory(
                          static_cast<int>(bin.patch_ids.size()),
                          ph << bin.level, pw << bin.level)
                      .workspace_bytes);
        }
        nn::Arena::local().reserve(static_cast<std::size_t>(ws));
        double sample_data = 0.0;
        double sample_pde = 0.0;
        long sample_patches = 0;
        // Fault site: poison this sample's first decoder gradient batch
        // (one registry hit per sample, so tests can target exact epochs).
        bool poison = util::fault::fires("trainer.nan_batch");
        for (const Bin& bin : bins) {
          if (bin.patch_ids.empty()) continue;
          nn::Tensor out;
          {
            const Span timer(decoder_site);
            nn::Tensor batch = model.make_decoder_batch(
                lr_norm, bin.patch_ids, bin.level, npx, npy);
            out = model.decoder().forward(batch, /*train=*/true);
          }
          nn::Tensor grad;
          double d = 0.0;
          double p = 0.0;
          {
            const Span timer(loss_site);
            std::tie(d, p) = hybrid_loss(out, bin.patch_ids, bin.level,
                                         sample, model.stats(), ph, pw,
                                         config.lambda_pde, config.residual,
                                         &grad);
          }
          sample_data += d;
          sample_pde += p;
          sample_patches += out.n();
          if (poison) {
            grad.fill(std::numeric_limits<float>::quiet_NaN());
            poison = false;
          }
          const Span timer(decoder_site);
          model.decoder().backward(grad);
        }
        const Span timer(decoder_site);
        if (!std::isfinite(sample_data) || !std::isfinite(sample_pde) ||
            !nn::grads_finite(decoder_params)) {
          ++stats.skipped_steps;
          ++epoch_skipped;
          m_skipped.add();
          ADR_LOG_WARN << "skipping non-finite decoder batch (sample " << idx
                       << ")";
        } else {
          decoder_opt.step();
          data_acc += sample_data;
          pde_acc += sample_pde;
          patch_count += sample_patches;
        }
      }
    }

    // Average over the optimizer steps actually applied: dividing by the
    // full dataset size would bias the reported loss low on exactly the
    // epochs where non-finite batches were skipped.
    stats.scorer_loss.push_back(scorer_steps ? scorer_acc / scorer_steps
                                             : 0.0);
    stats.data_loss.push_back(patch_count ? data_acc / patch_count : 0.0);
    stats.pde_loss.push_back(patch_count ? pde_acc / patch_count : 0.0);
    s_scorer_loss.append(static_cast<double>(epoch), stats.scorer_loss.back());
    s_data_loss.append(static_cast<double>(epoch), stats.data_loss.back());
    s_pde_loss.append(static_cast<double>(epoch), stats.pde_loss.back());
    m_epochs.add();

    // --- best-epoch tracking and spike rollback ----------------------------
    const double combined = stats.scorer_loss.back() +
                            stats.data_loss.back() + stats.pde_loss.back();
    const bool epoch_lost = patch_count == 0 && epoch_skipped > 0;
    const bool spiked =
        stats.best_epoch >= 0 && combined > kSpikeFactor * stats.best_loss;
    if (!std::isfinite(combined) || epoch_lost || spiked) {
      if (!best_params.empty()) {
        restore();
        ++stats.rollbacks;
        m_rollbacks.add();
        ADR_LOG_WARN << "epoch " << epoch << " loss "
                     << (epoch_lost ? "lost (all batches skipped)"
                                    : "spiked")
                     << "; rolled parameters back to epoch "
                     << stats.best_epoch;
      }
    } else if (combined < stats.best_loss) {
      stats.best_loss = combined;
      stats.best_epoch = epoch;
      snapshot();
    }

    // --- resumable epoch checkpoint (atomic, CRC-checked) ------------------
    if (!config.checkpoint_path.empty()) {
      if (nn::save_parameters(all_params, config.checkpoint_path,
                              static_cast<std::uint64_t>(epoch + 1))) {
        m_checkpoints.add();
      } else {
        m_ckpt_failures.add();
        ADR_LOG_WARN << "failed to write checkpoint "
                     << config.checkpoint_path << " at epoch " << epoch;
      }
    }

    if (config.log_every > 0 && epoch % config.log_every == 0) {
      ADR_LOG_INFO << "epoch " << epoch << " scorer=" << stats.scorer_loss.back()
                   << " data=" << stats.data_loss.back()
                   << " pde=" << stats.pde_loss.back();
    }
  }
  return stats;
}

std::pair<double, double> evaluate(AdarNet& model,
                                   const std::vector<data::Sample>& samples,
                                   double lambda_pde) {
  double data_acc = 0.0;
  double pde_acc = 0.0;
  long patch_count = 0;
  const int ph = model.config().ph;
  const int pw = model.config().pw;
  for (const data::Sample& sample : samples) {
    const nn::Tensor lr_norm = data::to_tensor(sample.lr, model.stats());
    const nn::Tensor target = score_target(sample.lr, ph, pw);
    const auto bins = rank(target, model.config().bins);
    for (const Bin& bin : bins) {
      if (bin.patch_ids.empty()) continue;
      nn::Tensor batch = model.make_decoder_batch(
          lr_norm, bin.patch_ids, bin.level, target.w(), target.h());
      nn::Tensor out = model.decoder().forward(batch, /*train=*/false);
      // Eval-only forward: no gradient output, so hybrid_loss skips the
      // adjoint work (gradient allocation, resize_adjoint, accumulation).
      const auto [d, p] =
          hybrid_loss(out, bin.patch_ids, bin.level, sample, model.stats(),
                      ph, pw, lambda_pde, &pde_residual_loss, nullptr);
      data_acc += d;
      pde_acc += p;
      patch_count += out.n();
    }
  }
  if (patch_count == 0) return {0.0, 0.0};
  return {data_acc / patch_count, pde_acc / patch_count};
}

}  // namespace adarnet::core
