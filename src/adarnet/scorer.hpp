// The scorer network (paper Fig 4).
//
// A shallow CNN extracts a single-channel 2D latent representation of the
// LR flow field (three 3x3 conv layers with 8/16/16 filters + a
// single-filter conv), then a max-pool with pool = stride = patch size
// collapses each patch to its highest latent activation, and a spatial
// softmax normalises the N per-patch scores to a probability distribution.
#pragma once

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/memory_model.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace adarnet::core {

/// Scorer output: normalised per-patch scores and the latent map.
struct ScorerOutput {
  nn::Tensor scores;  ///< (n, 1, npy, npx) softmax-normalised scores
  nn::Tensor latent;  ///< (n, 1, H, W) single-channel latent representation
};

/// Pooling flavour for the per-patch score reduction (paper: max).
enum class PoolKind { kMax, kAvg };

/// The trainable scorer network.
class Scorer {
 public:
  /// `in_channels` is 4 (U, V, p, nuTilda); (ph, pw) is the patch size.
  /// `pool` selects max (paper default, conservative) or average pooling
  /// (the design alternative the ablation bench evaluates).
  Scorer(int in_channels, int ph, int pw, util::Rng& rng,
         PoolKind pool = PoolKind::kMax);

  /// Full forward pass (latent + pooled + softmax scores).
  ScorerOutput forward(const nn::Tensor& input, bool train = false);

  /// Backward from dL/d scores; returns dL/d input.
  nn::Tensor backward(const nn::Tensor& grad_scores);

  /// All learnable parameters (shallow const, see nn::Layer::parameters).
  [[nodiscard]] std::vector<nn::Parameter*> parameters() const {
    return features_.parameters();
  }

  /// Analytic inference-memory estimate for a batch of (n, h, w) inputs.
  [[nodiscard]] nn::MemoryEstimate estimate_memory(int n, int h, int w) const;

  [[nodiscard]] int ph() const { return ph_; }
  [[nodiscard]] int pw() const { return pw_; }
  [[nodiscard]] int in_channels() const { return in_channels_; }

 private:
  int in_channels_;
  int ph_;
  int pw_;
  nn::Sequential features_;  // convs producing the latent map
  nn::LayerPtr pool_;
  nn::SoftmaxSpatial softmax_;
};

}  // namespace adarnet::core
