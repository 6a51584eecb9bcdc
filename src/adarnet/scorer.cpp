#include "adarnet/scorer.hpp"

namespace adarnet::core {

Scorer::Scorer(int in_channels, int ph, int pw, util::Rng& rng,
               PoolKind pool)
    : in_channels_(in_channels), ph_(ph), pw_(pw) {
  if (pool == PoolKind::kMax) {
    pool_ = std::make_unique<nn::MaxPool2D>(ph, pw);
  } else {
    pool_ = std::make_unique<nn::AvgPool2D>(ph, pw);
  }
  // Paper Fig 4: three feature convs (8, 16, 16 filters) and a final
  // single-filter conv that collapses to the latent map. ReLU after each
  // feature conv; the latent conv stays linear so scores can be negative
  // before the softmax.
  features_.emplace<nn::Conv2D>(in_channels, 8, 3, rng);
  features_.emplace<nn::ReLU>();
  features_.emplace<nn::Conv2D>(8, 16, 3, rng);
  features_.emplace<nn::ReLU>();
  features_.emplace<nn::Conv2D>(16, 16, 3, rng);
  features_.emplace<nn::ReLU>();
  features_.emplace<nn::Conv2D>(16, 1, 3, rng);
}

ScorerOutput Scorer::forward(const nn::Tensor& input, bool train) {
  ScorerOutput out;
  out.latent = features_.forward(input, train);
  nn::Tensor pooled = pool_->forward(out.latent, train);
  out.scores = softmax_.forward(pooled, train);
  return out;
}

nn::Tensor Scorer::backward(const nn::Tensor& grad_scores) {
  nn::Tensor g = softmax_.backward(grad_scores);
  g = pool_->backward(g);
  return features_.backward(g);
}

nn::MemoryEstimate Scorer::estimate_memory(int n, int h, int w) const {
  nn::MemoryEstimate est;
  const std::int64_t f = sizeof(float);
  const std::int64_t plane = static_cast<std::int64_t>(n) * h * w * f;
  est.input_bytes = plane * in_channels_;
  // Layer outputs: 8, 16, 16 (each with its ReLU copy), 1 channel latent,
  // pooled scores, softmax scores.
  est.sum_activations = plane * (8 + 8 + 16 + 16 + 16 + 16 + 1);
  const std::int64_t scores =
      static_cast<std::int64_t>(n) * (h / ph_) * (w / pw_) * f;
  est.sum_activations += 2 * scores;
  est.peak_pairwise = plane * (8 + 16);
  // Convolution (GEMM pack) scratch: the arena is shared, so take the
  // symbolic walk's max over the feature convs.
  est.workspace_bytes =
      nn::estimate_memory(features_, n, in_channels_, h, w).workspace_bytes;
  for (nn::Parameter* p : parameters()) {
    est.parameter_bytes += p->value.bytes();
  }
  return est;
}

}  // namespace adarnet::core
