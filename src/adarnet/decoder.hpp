// The shared decoder network (paper Fig 5).
//
// Six layers — conv 8, 16, 64 then deconv 64, 16, 4 — all 3x3 stride 1,
// constant spatial extent. One decoder is shared by every bin (weight
// sharing among resolutions, a deliberate design choice of the paper), so
// the same network reconstructs 16x16 LR patches and 128x128 level-3
// patches. Input is the bicubically refined patch concatenated with its
// two coordinate channels: PC + 2 = 6 channels in, 4 flow channels out.
#pragma once

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/memory_model.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace adarnet::core {

/// The shared conv-deconv decoder.
class Decoder {
 public:
  /// `patch_channels` is 4 (flow variables); input adds 2 coord channels.
  explicit Decoder(util::Rng& rng, int patch_channels = 4);

  /// Forward over a batch of same-resolution patches:
  /// (n, PC + 2, h, w) -> (n, PC, h, w).
  ///
  /// The decoder is residual: output = refined-input flow channels +
  /// net(input). The final layer is zero-initialised, so an untrained
  /// decoder reproduces the bicubic upsampling exactly and training only
  /// ever improves on it — which keeps the physics solver's warm start
  /// sane at every training budget (standard SR practice).
  nn::Tensor forward(const nn::Tensor& input, bool train = false);

  /// Backward from dL/d output; returns dL/d input.
  nn::Tensor backward(const nn::Tensor& grad_output) {
    return net_.backward(grad_output);
  }

  /// All learnable parameters (shallow const, see nn::Layer::parameters).
  [[nodiscard]] std::vector<nn::Parameter*> parameters() const {
    return net_.parameters();
  }

  /// Analytic inference memory for a batch of (n, h, w) patches.
  [[nodiscard]] nn::MemoryEstimate estimate_memory(int n, int h, int w) const {
    return nn::estimate_memory(net_, n, patch_channels_ + 2, h, w);
  }

  [[nodiscard]] int in_channels() const { return patch_channels_ + 2; }
  [[nodiscard]] std::size_t parameter_count() const {
    return net_.parameter_count();
  }

 private:
  int patch_channels_;
  nn::Sequential net_;
};

}  // namespace adarnet::core
