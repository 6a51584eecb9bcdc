#include "adarnet/model.hpp"

#include <algorithm>
#include <stdexcept>

#include "field/interp.hpp"
#include "nn/gemm.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/reqctx.hpp"
#include "util/trace.hpp"

namespace adarnet::core {

using field::Grid2Df;

namespace {

// Samples [s0, s0 + count) of a batch: the batch itself when that is all
// of it, else a copy.
nn::Tensor sample_slice(const nn::Tensor& batch, int s0, int count) {
  if (s0 == 0 && count == batch.n()) return batch.share();
  nn::Tensor out(count, batch.c(), batch.h(), batch.w());
  const std::size_t sample =
      static_cast<std::size_t>(batch.c()) * batch.h() * batch.w();
  std::copy_n(batch.data() + static_cast<std::size_t>(s0) * sample,
              static_cast<std::size_t>(count) * sample, out.data());
  return out;
}

}  // namespace

AdarNet::AdarNet(AdarNetConfig config, util::Rng& rng)
    : config_(config),
      scorer_(field::kNumFlowVars, config.ph, config.pw, rng),
      decoder_(rng, field::kNumFlowVars) {}

std::vector<nn::Parameter*> AdarNet::parameters() const {
  std::vector<nn::Parameter*> out = scorer_.parameters();
  for (nn::Parameter* p : decoder_.parameters()) out.push_back(p);
  return out;
}

nn::Tensor AdarNet::make_decoder_batch(const nn::Tensor& lr_norm,
                                       const std::vector<int>& patch_ids,
                                       int level, int npx, int npy) const {
  const int ph = config_.ph;
  const int pw = config_.pw;
  const int hh = ph << level;
  const int ww = pw << level;
  const int h_total = lr_norm.h();
  const int w_total = lr_norm.w();
  nn::Tensor batch(static_cast<int>(patch_ids.size()),
                   field::kNumFlowVars + 2, hh, ww);
  for (std::size_t s = 0; s < patch_ids.size(); ++s) {
    const int id = patch_ids[s];
    const int pi = id / npx;
    const int pj = id % npx;
    if (pi >= npy) throw std::out_of_range("make_decoder_batch: patch id");
    // Flow channels: extract the LR patch and refine bicubically.
    const std::size_t splane = static_cast<std::size_t>(hh) * ww;
    float* sample_base =
        batch.data() + s * static_cast<std::size_t>(batch.c()) * splane;
    for (int c = 0; c < field::kNumFlowVars; ++c) {
      Grid2Df patch(ph, pw);
      for (int i = 0; i < ph; ++i) {
        const float* lr_row = lr_norm.data() +
                              (static_cast<std::size_t>(c) * h_total +
                               pi * ph + i) *
                                  w_total +
                              static_cast<std::size_t>(pj) * pw;
        float* prow = &patch(i, 0);
        for (int j = 0; j < pw; ++j) prow[j] = lr_row[j];
      }
      const Grid2Df up = (level == 0)
                             ? patch
                             : field::resize(patch, hh, ww,
                                             field::Interp::kBicubic);
      float* dst = sample_base + static_cast<std::size_t>(c) * splane;
      for (std::size_t k = 0; k < splane; ++k) dst[k] = up[k];
    }
    // Coordinate channels: global cell-centre position in [0, 1].
    const double inv_l = 1.0 / (1 << level);
    float* xchan =
        sample_base + static_cast<std::size_t>(field::kNumFlowVars) * splane;
    float* ychan = xchan + splane;
    for (int i = 0; i < hh; ++i) {
      const float y =
          static_cast<float>((pi * ph + (i + 0.5) * inv_l) / h_total);
      float* xrow = xchan + static_cast<std::size_t>(i) * ww;
      float* yrow = ychan + static_cast<std::size_t>(i) * ww;
      for (int j = 0; j < ww; ++j) {
        xrow[j] =
            static_cast<float>((pj * pw + (j + 0.5) * inv_l) / w_total);
        yrow[j] = y;
      }
    }
  }
  return batch;
}

InferenceResult AdarNet::infer(const field::FlowField& lr) {
  // Per-stage observability (DESIGN.md §9): one scope per stage feeds the
  // stage's inclusive ".ns" counter, its trace event, and (via the call's
  // scope) the bound request's infer phase; plus a bin-occupancy histogram.
  namespace metrics = util::metrics;
  using util::trace::Site;
  using util::trace::Span;
  static const Site kInfer{"infer", &metrics::counter("infer.ns"),
                           util::reqctx::Phase::kInfer};
  static const Site kScorer{"infer.scorer",
                            &metrics::counter("infer.scorer.ns")};
  static const Site kRank{"infer.rank", &metrics::counter("infer.rank.ns")};
  static const Site kBatch{"infer.batch", &metrics::counter("infer.batch.ns")};
  static const Site kDecoder{"infer.decoder",
                             &metrics::counter("infer.decoder.ns")};
  static metrics::Counter& m_calls = metrics::counter("infer.calls");
  static metrics::Histogram& m_occupancy =
      metrics::histogram("infer.bin.occupancy");
  Span infer_span(kInfer);
  m_calls.add();

  nn::memory::reset_peak();
  const std::int64_t base_bytes = nn::memory::peak_bytes();

  const int npy = lr.ny() / config_.ph;
  const int npx = lr.nx() / config_.pw;
  InferenceResult result;
  result.patches.resize(static_cast<std::size_t>(npy) * npx);

  const nn::Tensor input = data::to_tensor(lr, stats_);
  ScorerOutput scored;
  {
    const Span span(kScorer);
    scored = scorer_.forward(input, /*train=*/false);
  }
  std::vector<Bin> bins;
  {
    const Span span(kRank);
    bins = rank(scored.scores, config_.bins);
  }
  for (const Bin& bin : bins) {
    m_occupancy.observe(static_cast<long long>(bin.patch_ids.size()));
  }
  result.map = to_refinement_map(bins, npy, npx);

  std::int64_t modeled = scorer_.estimate_memory(1, lr.ny(), lr.nx()).total();
  // Size the GEMM workspace arena once for the largest bin batch so the
  // per-bin decoder forwards below run with zero arena growth.
  std::int64_t decoder_ws = 0;
  for (const Bin& bin : bins) {
    if (bin.patch_ids.empty()) continue;
    const int hw_bin = config_.ph << bin.level;
    decoder_ws = std::max(
        decoder_ws,
        decoder_.estimate_memory(static_cast<int>(bin.patch_ids.size()),
                                 hw_bin, (config_.pw << bin.level))
            .workspace_bytes);
  }
  nn::Arena::local().reserve(static_cast<std::size_t>(decoder_ws));
  for (const Bin& bin : bins) {
    if (bin.patch_ids.empty()) continue;
    nn::Tensor batch;
    {
      const Span span(kBatch);
      batch = make_decoder_batch(input, bin.patch_ids, bin.level, npx, npy);
    }
    modeled += decoder_
                   .estimate_memory(batch.n(), batch.h(), batch.w())
                   .total();
    // One slice at a time through all six layers: the live activations
    // are a slice's, not the bin's.
    const Span span(kDecoder);
    const int per_slice =
        std::max(1, kDecoderChunkPixels / (batch.h() * batch.w()));
    for (int s0 = 0; s0 < batch.n(); s0 += per_slice) {
      const int count = std::min(per_slice, batch.n() - s0);
      const nn::Tensor out = decoder_.forward(
          sample_slice(batch, s0, count), /*train=*/false);
      for (int s = 0; s < count; ++s) {
        PatchPrediction pred;
        pred.id = bin.patch_ids[static_cast<std::size_t>(s0 + s)];
        pred.level = bin.level;
        pred.values = data::from_tensor_sample(out, s, stats_);
        result.patches[pred.id] = std::move(pred);
      }
    }
  }

  // Fault site: simulate a poisoned network output (the hazard the guarded
  // pipeline's finite check exists for). Corrupts the U channel of the
  // first predicted patch.
  if (util::fault::armed() && !result.patches.empty()) {
    auto& u0 = result.patches.front().values.U;
    util::fault::corrupt("adarnet.infer.nan", u0.data(), u0.size());
  }

  result.seconds = infer_span.stop();
  result.measured_peak_bytes = nn::memory::peak_bytes() - base_bytes;
  result.modeled_bytes = modeled;
  if (util::reqctx::RequestContext* ctx = util::reqctx::current()) {
    ctx->count("infer.calls", 1);
  }
  return result;
}

std::pair<std::unique_ptr<mesh::CompositeMesh>, mesh::CompositeField>
AdarNet::to_composite(const InferenceResult& result,
                      const mesh::CaseSpec& spec,
                      const field::FlowField& lr) const {
  auto cm = std::make_unique<mesh::CompositeMesh>(spec, result.map);
  // Start from the LR field (fills ghosts and solid cells consistently)...
  mesh::CompositeField f = mesh::make_field(*cm);
  mesh::fill_from_uniform(f, *cm, lr);
  // ...then overwrite every patch interior with the DNN prediction.
  for (const PatchPrediction& pred : result.patches) {
    const mesh::PatchMesh& pm = cm->patch_flat(pred.id);
    if (pm.ny != pred.values.ny() || pm.nx != pred.values.nx()) {
      throw std::logic_error("to_composite: patch shape mismatch");
    }
    for (int c = 0; c < field::kNumFlowVars; ++c) {
      const auto& src = pred.values.channel(c);
      auto& dst = f.channel(c)[pred.id];
      for (int i = 1; i <= pm.ny; ++i) {
        for (int j = 1; j <= pm.nx; ++j) {
          if (pm.solid(i, j)) {
            dst(i, j) = 0.0;
            continue;
          }
          double v = src(i - 1, j - 1);
          if (c == 3) v = std::max(v, 0.0);  // nuTilda is non-negative
          dst(i, j) = v;
        }
      }
    }
  }
  return {std::move(cm), std::move(f)};
}

}  // namespace adarnet::core
