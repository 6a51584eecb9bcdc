#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace adarnet::nn {

namespace {

// Layer-level roofline accounting (forward and backward): cumulative
// FLOPs / compulsory bytes / wall time plus the derived achieved-GF/s and
// arithmetic-intensity gauges. The wall time is one event-free scope per
// call feeding nn.conv.ns; the inner sgemm calls additionally land in the
// nn.gemm.* family.
struct ConvInstruments {
  adarnet::util::metrics::Counter& calls =
      adarnet::util::metrics::counter("nn.conv.calls");
  adarnet::util::metrics::Counter& flops =
      adarnet::util::metrics::counter("nn.conv.flops");
  adarnet::util::metrics::Counter& bytes =
      adarnet::util::metrics::counter("nn.conv.bytes");
  adarnet::util::metrics::Counter& ns =
      adarnet::util::metrics::counter("nn.conv.ns");
  adarnet::util::metrics::Gauge& gflops =
      adarnet::util::metrics::gauge("nn.conv.gflops_per_s");
  adarnet::util::metrics::Gauge& intensity =
      adarnet::util::metrics::gauge("nn.conv.arithmetic_intensity");
  const adarnet::util::trace::Site scope{
      "nn.conv", &ns, adarnet::util::trace::kInherit, false};
};

void account_conv(ConvInstruments& ins, std::int64_t flop,
                  std::int64_t byte) {
  ins.calls.add();
  ins.flops.add(flop);
  ins.bytes.add(byte);
  const double total_flops = static_cast<double>(ins.flops.value());
  const double total_ns = static_cast<double>(ins.ns.value());
  const double total_bytes = static_cast<double>(ins.bytes.value());
  if (total_ns > 0.0) ins.gflops.set(total_flops / total_ns);
  if (total_bytes > 0.0) ins.intensity.set(total_flops / total_bytes);
}

// Contiguous (h*w) plane of sample s, channel c.
inline const float* plane(const Tensor& t, int s, int c) {
  return t.data() + (static_cast<std::size_t>(s) * t.c() + c) *
                        (static_cast<std::size_t>(t.h()) * t.w());
}
inline float* plane(Tensor& t, int s, int c) {
  return t.data() + (static_cast<std::size_t>(s) * t.c() + c) *
                        (static_cast<std::size_t>(t.h()) * t.w());
}

// Mirrors the arena's suballocation rounding (64-byte granules).
inline std::size_t arena_round(std::size_t floats) {
  return (floats + 15) / 16 * 16;
}

}  // namespace

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, util::Rng& rng,
               bool flipped)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      flipped_(flipped) {
  if (kernel % 2 == 0) {
    throw std::invalid_argument("Conv2D: kernel must be odd (same padding)");
  }
  weight_->value = Tensor(out_channels, in_channels, kernel, kernel);
  weight_->grad = Tensor(out_channels, in_channels, kernel, kernel);
  bias_->value = Tensor(out_channels, 1, 1, 1);
  bias_->grad = Tensor(out_channels, 1, 1, 1);
  // He-normal init: std = sqrt(2 / fan_in).
  const double std = std::sqrt(2.0 / (in_channels * kernel * kernel));
  for (std::size_t k = 0; k < weight_->value.numel(); ++k) {
    weight_->value[k] = static_cast<float>(rng.normal(0.0, std));
  }
}

std::string Conv2D::name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Conv2D(%d->%d, k=%d)", in_channels_,
                out_channels_, kernel_);
  return buf;
}

std::string Deconv2D::name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Deconv2D(%d->%d, k=%d)", in_channels(),
                out_channels(), kernel());
  return buf;
}

std::int64_t Conv2D::workspace_bytes(int, int, int h, int w) const {
  const std::size_t flipped_weights =
      flipped_ ? arena_round(static_cast<std::size_t>(out_channels_) *
                             in_channels_ * kernel_ * kernel_)
               : 0;
  return static_cast<std::int64_t>(flipped_weights * sizeof(float) +
                                   sgemm_conv_workspace_bytes(
                                       out_channels_, in_channels_, h, w,
                                       kernel_));
}

std::int64_t Conv2D::forward_flops(int n, int h, int w) const {
  const std::int64_t K =
      static_cast<std::int64_t>(in_channels_) * kernel_ * kernel_;
  const std::int64_t N = static_cast<std::int64_t>(h) * w;
  return n * (2 * static_cast<std::int64_t>(out_channels_) * K * N +
              static_cast<std::int64_t>(out_channels_) * N);
}

std::int64_t Conv2D::forward_bytes(int n, int h, int w) const {
  const std::int64_t hw = static_cast<std::int64_t>(h) * w;
  const std::int64_t kk = static_cast<std::int64_t>(kernel_) * kernel_;
  const std::int64_t floats =
      static_cast<std::int64_t>(n) * in_channels_ * hw +   // input
      static_cast<std::int64_t>(out_channels_) * in_channels_ * kk +
      out_channels_ +                                      // weights + bias
      static_cast<std::int64_t>(n) * out_channels_ * hw;   // output
  return floats * static_cast<std::int64_t>(sizeof(float));
}

std::int64_t Conv2D::backward_flops(int n, int h, int w) const {
  const std::int64_t K =
      static_cast<std::int64_t>(in_channels_) * kernel_ * kernel_;
  const std::int64_t N = static_cast<std::int64_t>(h) * w;
  const std::int64_t M = out_channels_;
  // dW (2*M*K*N) + dX (2*K*N*M) per sample, plus the bias reduction.
  return n * (4 * M * K * N + M * N);
}

std::int64_t Conv2D::backward_bytes(int n, int h, int w) const {
  const std::int64_t hw = static_cast<std::int64_t>(h) * w;
  const std::int64_t kk = static_cast<std::int64_t>(kernel_) * kernel_;
  const std::int64_t floats =
      static_cast<std::int64_t>(n) * in_channels_ * hw +   // cached input
      static_cast<std::int64_t>(n) * out_channels_ * hw +  // grad output
      static_cast<std::int64_t>(n) * in_channels_ * hw +   // grad input
      2 * static_cast<std::int64_t>(out_channels_) * in_channels_ * kk +
      2 * out_channels_;                                   // W, dW, b, db
  return floats * static_cast<std::int64_t>(sizeof(float));
}

Tensor Conv2D::forward(const Tensor& input, bool train) {
  if (input.c() != in_channels_) {
    throw std::invalid_argument("Conv2D: channel mismatch");
  }
  // Zero-copy cache: alias the caller's storage. Nothing mutates the
  // input between forward and backward (see layer.hpp contract).
  if (train) cached_input_ = input.share();
  static ConvInstruments ins;
  util::trace::Span span(ins.scope);
  Tensor out = forward_gemm(input);
  span.stop();
  if (util::metrics::enabled()) {
    account_conv(ins, forward_flops(input.n(), input.h(), input.w()),
                 forward_bytes(input.n(), input.h(), input.w()));
  }
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Conv2D::backward without forward(train=true)");
  }
  static ConvInstruments ins;
  util::trace::Span span(ins.scope);
  Tensor grad = backward_gemm(grad_output);
  span.stop();
  if (util::metrics::enabled()) {
    const Tensor& in = cached_input_;
    account_conv(ins, backward_flops(in.n(), in.h(), in.w()),
                 backward_bytes(in.n(), in.h(), in.w()));
  }
  return grad;
}

const float* Conv2D::gemm_weights() {
  if (!flipped_) return weight_->value.data();
  const int k = kernel_;
  const int kk = k * k;
  const std::size_t K = static_cast<std::size_t>(in_channels_) * kk;
  float* packed = Arena::local().alloc_floats(
      static_cast<std::size_t>(out_channels_) * K);
  const float* w = weight_->value.data();
  for (int o = 0; o < out_channels_; ++o) {
    for (int i = 0; i < in_channels_; ++i) {
      const float* src = w + (static_cast<std::size_t>(o) * in_channels_ +
                              i) * kk;
      float* dst = packed + static_cast<std::size_t>(o) * K +
                   static_cast<std::size_t>(i) * kk;
      for (int t = 0; t < kk; ++t) dst[t] = src[kk - 1 - t];
    }
  }
  return packed;
}

Tensor Conv2D::forward_gemm(const Tensor& input) {
  const int n = input.n();
  const int h = input.h();
  const int w = input.w();
  const int M = out_channels_;
  const std::size_t N = static_cast<std::size_t>(h) * w;
  Tensor out(n, M, h, w);

  Arena& arena = Arena::local();
  arena.reserve(static_cast<std::size_t>(workspace_bytes(n, in_channels_, h,
                                                         w)));
  const std::size_t m0 = arena.mark();
  const float* A = gemm_weights();
  for (int s = 0; s < n; ++s) {
    float* out_s = plane(out, s, 0);
    for (int o = 0; o < M; ++o) {
      std::fill_n(out_s + static_cast<std::size_t>(o) * N, N,
                  bias_->value[o]);
    }
    // Implicit GEMM: B panels are packed from the input planes.
    sgemm_conv(M, in_channels_, h, w, kernel_, A, plane(input, s, 0), out_s);
  }
  arena.release(m0);
  return out;
}

Tensor Conv2D::backward_gemm(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const int n = input.n();
  const int h = input.h();
  const int w = input.w();
  const int M = out_channels_;
  const int k = kernel_;
  const int kk = k * k;
  const int K = in_channels_ * kk;
  const int N = h * w;
  Tensor grad_input(n, in_channels_, h, w);

  Arena& arena = Arena::local();
  std::size_t need = arena_round(static_cast<std::size_t>(M) * K) +
                     2 * arena_round(static_cast<std::size_t>(K) * N);
  if (flipped_) need += arena_round(static_cast<std::size_t>(M) * K);
  need = need * sizeof(float) +
         std::max(sgemm_workspace_bytes(M, K, N),
                  sgemm_workspace_bytes(K, N, M));
  arena.reserve(need);
  const std::size_t m0 = arena.mark();

  const float* A = gemm_weights();
  float* dW = arena.alloc_floats(static_cast<std::size_t>(M) * K);
  std::memset(dW, 0, sizeof(float) * static_cast<std::size_t>(M) * K);
  float* col = arena.alloc_floats(static_cast<std::size_t>(K) * N);
  float* colg = arena.alloc_floats(static_cast<std::size_t>(K) * N);

  for (int s = 0; s < n; ++s) {
    const float* go = plane(grad_output, s, 0);
    im2col(plane(input, s, 0), in_channels_, h, w, kernel_, col);
    // dW += dY * col^T   (M x K)
    sgemm(Trans::kNo, Trans::kYes, M, K, N, 1.0f, go, N, col, N, 1.0f, dW,
          K);
    // col-gradient = W^T * dY   (K x N), then scatter back to the input.
    sgemm(Trans::kYes, Trans::kNo, K, N, M, 1.0f, A, K, go, N, 0.0f, colg,
          N);
    col2im_add(colg, in_channels_, h, w, kernel_, plane(grad_input, s, 0));
  }

  // Bias gradient: per-channel sum of the output gradient.
#pragma omp parallel for schedule(static)
  for (int o = 0; o < M; ++o) {
    float gb = 0.0f;
    for (int s = 0; s < n; ++s) {
      const float* go = plane(grad_output, s, o);
      for (int t = 0; t < N; ++t) gb += go[t];
    }
    bias_->grad[o] += gb;
  }

  // Accumulate dW into the stored weight gradient (taps are spatially
  // flipped in the GEMM basis when `flipped_`).
  float* wg = weight_->grad.data();
  for (int o = 0; o < M; ++o) {
    for (int i = 0; i < in_channels_; ++i) {
      const float* src = dW + static_cast<std::size_t>(o) * K +
                         static_cast<std::size_t>(i) * kk;
      float* dst = wg + (static_cast<std::size_t>(o) * in_channels_ + i) *
                       kk;
      if (flipped_) {
        for (int t = 0; t < kk; ++t) dst[kk - 1 - t] += src[t];
      } else {
        for (int t = 0; t < kk; ++t) dst[t] += src[t];
      }
    }
  }
  arena.release(m0);
  return grad_input;
}

}  // namespace adarnet::nn
