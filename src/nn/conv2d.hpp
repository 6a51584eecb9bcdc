// 2D convolution and "deconvolution" layers (3x3, stride 1, same padding —
// the only configuration ADARNet's scorer and decoder use; kernel size and
// padding are nevertheless parameters).
//
// With stride 1 and same padding a deconvolution (transposed convolution)
// is mathematically a convolution with a spatially flipped kernel, so
// Deconv2D shares the Conv2D implementation with `flipped = true`; it is
// kept as a distinct layer type to mirror the paper's architecture figure.
//
// Execution is cache-blocked SGEMM over the calling thread's workspace
// arena (see gemm.hpp / im2col.hpp). Forward is one implicit-GEMM call per
// sample (sgemm_conv), which reads B from a zero-padded copy of the input
// (packing B panels from it at widths that are not a multiple of 16);
// only backward materialises im2col panels, for its
// weight-gradient and input-gradient GEMMs. tests/test_nn_gemm.cpp checks
// all three against direct per-tap reference loops.
#pragma once

#include "nn/gemm.hpp"
#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace adarnet::nn {

/// Convolution over NCHW input: out[n,o,y,x] = b[o] +
/// sum_{i,ky,kx} w[o,i,ky,kx] * in[n,i,y+ky-p,x+kx-p] (zero padding).
class Conv2D : public Layer {
 public:
  /// Creates a conv layer with He-normal initialised weights.
  Conv2D(int in_channels, int out_channels, int kernel, util::Rng& rng,
         bool flipped = false);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::vector<Parameter*> parameters() const override {
    return {weight_.get(), bias_.get()};
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::int64_t output_bytes(int n, int, int h,
                                          int w) const override {
    return static_cast<std::int64_t>(n) * out_channels_ * h * w *
           static_cast<std::int64_t>(sizeof(float));
  }
  [[nodiscard]] std::int64_t workspace_bytes(int n, int c, int h,
                                             int w) const override;
  void output_shape(int& c, int&, int&) const override { c = out_channels_; }

  /// Roofline model of one forward pass at this input shape: FLOPs are the
  /// 2*K*N multiply-adds per output channel plus the bias add; bytes are
  /// the compulsory traffic (input, weights, bias, output each touched
  /// once).
  [[nodiscard]] std::int64_t forward_flops(int n, int h, int w) const;
  [[nodiscard]] std::int64_t forward_bytes(int n, int h, int w) const;
  /// Same model for backward (weight-gradient + input-gradient GEMMs plus
  /// the bias reduction).
  [[nodiscard]] std::int64_t backward_flops(int n, int h, int w) const;
  [[nodiscard]] std::int64_t backward_bytes(int n, int h, int w) const;

  [[nodiscard]] int in_channels() const { return in_channels_; }
  [[nodiscard]] int out_channels() const { return out_channels_; }
  [[nodiscard]] int kernel() const { return kernel_; }

  /// Direct access for serialisation.
  Parameter& weight() { return *weight_; }
  Parameter& bias() { return *bias_; }

 private:
  Tensor forward_gemm(const Tensor& input);
  Tensor backward_gemm(const Tensor& grad_output);
  // Packs the (out, in*k*k) GEMM weight operand; spatially flipped taps
  // when `flipped_`. Returns weight_.value.data() directly when no flip is
  // needed, otherwise packs into the arena.
  const float* gemm_weights();

  int in_channels_;
  int out_channels_;
  int kernel_;
  bool flipped_;
  // Owning pointers so parameters() can hand out mutable Parameter* from a
  // const layer (shallow const) without a const_cast.
  std::unique_ptr<Parameter> weight_ =
      std::make_unique<Parameter>();  // (out, in, k, k)
  std::unique_ptr<Parameter> bias_ =
      std::make_unique<Parameter>();  // (out, 1, 1, 1)
  Tensor cached_input_;
};

/// Transposed convolution with stride 1 and same padding (see file note).
class Deconv2D : public Conv2D {
 public:
  Deconv2D(int in_channels, int out_channels, int kernel, util::Rng& rng)
      : Conv2D(in_channels, out_channels, kernel, rng, /*flipped=*/true) {}
  [[nodiscard]] std::string name() const override;
};

}  // namespace adarnet::nn
