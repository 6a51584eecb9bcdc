// Tests for the blocked-SGEMM convolution: numerical equivalence against
// the direct per-tap reference loops (the oracle below) across kernel
// sizes, deconv (flipped) mode, non-square inputs and batches; the
// implicit-GEMM forward entry against im2col + sgemm, bitwise, on both of
// its B sources (the padded input and the row-segment packer); the
// decoder's layers bitwise across thread counts; raw sgemm
// correctness against a naive triple loop, at the default and at pinned
// cache blockings; the blocking override's clamping and nesting; sgemm
// and sgemm_conv against a scalar FMA oracle in the microkernel's order,
// bitwise, on whichever ISA tier the host dispatches to; and the
// workspace arena (its estimate covers a forward, steady-state forwards
// perform no allocations).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/tensor.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using adarnet::nn::Arena;
using adarnet::nn::Conv2D;
using adarnet::nn::GemmBlocking;
using adarnet::nn::ScopedGemmBlocking;
using adarnet::nn::Tensor;
using adarnet::nn::Trans;
using adarnet::util::Rng;

constexpr float kTol = 1e-5f;

Tensor random_tensor(int n, int c, int h, int w, Rng& rng, float scale = 1.f) {
  Tensor t(n, c, h, w);
  for (std::size_t k = 0; k < t.numel(); ++k) {
    t[k] = rng.uniformf(-scale, scale);
  }
  return t;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = kTol) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t k = 0; k < a.numel(); ++k) {
    ASSERT_NEAR(a[k], b[k], tol) << "at flat index " << k;
  }
}

// ---------------------------------------------------------------------------
// The oracle: direct per-tap convolution. Each output row accumulates one
// shifted input row per tap, with the zero padding expressed as the row
// range that stays inside the input.

// Contiguous (h*w) plane of sample s, channel c.
const float* plane(const Tensor& t, int s, int c) {
  return t.data() + (static_cast<std::size_t>(s) * t.c() + c) *
                        (static_cast<std::size_t>(t.h()) * t.w());
}
float* plane(Tensor& t, int s, int c) {
  return t.data() + (static_cast<std::size_t>(s) * t.c() + c) *
                        (static_cast<std::size_t>(t.h()) * t.w());
}

// Weight tap (ky, kx) of w (out, in, k, k) as the layer applies it:
// spatially flipped for a deconvolution.
float tap(const Tensor& w, int o, int i, int ky, int kx, bool flipped) {
  const int k = w.h();
  return flipped ? w.at(o, i, k - 1 - ky, k - 1 - kx) : w.at(o, i, ky, kx);
}

// Output cells [y0, y1) x [x0, x1) whose tap at offset (dy, dx) reads
// inside an h x w input.
struct TapRange {
  int y0, y1, x0, x1;
  TapRange(int dy, int dx, int h, int w)
      : y0(std::max(0, -dy)),
        y1(std::min(h, h - dy)),
        x0(std::max(0, -dx)),
        x1(std::min(w, w - dx)) {}
};

Tensor direct_forward(const Tensor& in, const Tensor& weight,
                      const Tensor& bias, bool flipped) {
  const int n = in.n(), h = in.h(), w = in.w();
  const int out_c = weight.n(), in_c = weight.c(), k = weight.h();
  Tensor out(n, out_c, h, w);
  for (int s = 0; s < n; ++s) {
    for (int o = 0; o < out_c; ++o) {
      float* out_plane = plane(out, s, o);
      std::fill_n(out_plane, h * w, bias[o]);
      for (int i = 0; i < in_c; ++i) {
        const float* in_plane = plane(in, s, i);
        for (int ky = 0; ky < k; ++ky) {
          for (int kx = 0; kx < k; ++kx) {
            const float wv = tap(weight, o, i, ky, kx, flipped);
            const int dy = ky - k / 2;
            const int dx = kx - k / 2;
            const TapRange r(dy, dx, h, w);
            for (int y = r.y0; y < r.y1; ++y) {
              float* orow = out_plane + static_cast<std::size_t>(y) * w;
              const float* irow =
                  in_plane + static_cast<std::size_t>(y + dy) * w + dx;
              for (int x = r.x0; x < r.x1; ++x) orow[x] += wv * irow[x];
            }
          }
        }
      }
    }
  }
  return out;
}

// Returns the input gradient; adds the weight and bias gradients into
// `grad_w` (out, in, k, k) and `grad_b` (out, 1, 1, 1).
Tensor direct_backward(const Tensor& in, const Tensor& grad_out,
                       const Tensor& weight, bool flipped, Tensor& grad_w,
                       Tensor& grad_b) {
  const int n = in.n(), h = in.h(), w = in.w();
  const int out_c = weight.n(), in_c = weight.c(), k = weight.h();
  Tensor grad_in(n, in_c, h, w);
  for (int o = 0; o < out_c; ++o) {
    float gb = 0.0f;
    for (int s = 0; s < n; ++s) {
      const float* go_plane = plane(grad_out, s, o);
      for (int q = 0; q < h * w; ++q) gb += go_plane[q];
    }
    grad_b[o] += gb;
    for (int i = 0; i < in_c; ++i) {
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx) {
          const int dy = ky - k / 2;
          const int dx = kx - k / 2;
          const TapRange r(dy, dx, h, w);
          float gw = 0.0f;
          for (int s = 0; s < n; ++s) {
            const float* go_plane = plane(grad_out, s, o);
            const float* in_plane = plane(in, s, i);
            for (int y = r.y0; y < r.y1; ++y) {
              const float* grow = go_plane + static_cast<std::size_t>(y) * w;
              const float* irow =
                  in_plane + static_cast<std::size_t>(y + dy) * w + dx;
              for (int x = r.x0; x < r.x1; ++x) gw += grow[x] * irow[x];
            }
          }
          if (flipped) {
            grad_w.at(o, i, k - 1 - ky, k - 1 - kx) += gw;
          } else {
            grad_w.at(o, i, ky, kx) += gw;
          }
        }
      }
    }
  }
  for (int s = 0; s < n; ++s) {
    for (int i = 0; i < in_c; ++i) {
      float* gi_plane = plane(grad_in, s, i);
      for (int o = 0; o < out_c; ++o) {
        const float* go_plane = plane(grad_out, s, o);
        for (int ky = 0; ky < k; ++ky) {
          for (int kx = 0; kx < k; ++kx) {
            const float wv = tap(weight, o, i, ky, kx, flipped);
            const int dy = ky - k / 2;
            const int dx = kx - k / 2;
            const TapRange r(dy, dx, h, w);
            for (int y = r.y0; y < r.y1; ++y) {
              const float* grow = go_plane + static_cast<std::size_t>(y) * w;
              float* girow =
                  gi_plane + static_cast<std::size_t>(y + dy) * w + dx;
              for (int x = r.x0; x < r.x1; ++x) girow[x] += wv * grow[x];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

// Runs forward(train) + backward on a conv layer and on the oracle with
// the layer's parameters, and asserts outputs and all gradients agree.
void check_matches_direct(int in_c, int out_c, int kernel, int n, int h,
                          int w, bool flipped) {
  Rng rng(91);
  Conv2D conv(in_c, out_c, kernel, rng, flipped);
  const Tensor& weight = conv.weight().value;

  Rng rng_in(17);
  Tensor in = random_tensor(n, in_c, h, w, rng_in);
  Tensor out_d = direct_forward(in, weight, conv.bias().value, flipped);
  Tensor out_g = conv.forward(in, /*train=*/true);
  expect_close(out_d, out_g);

  Rng rng_g(23);
  Tensor go = random_tensor(n, out_c, h, w, rng_g);
  Tensor grad_w(out_c, in_c, kernel, kernel);
  Tensor grad_b(out_c, 1, 1, 1);
  conv.weight().zero_grad();
  conv.bias().zero_grad();
  Tensor gi_d = direct_backward(in, go, weight, flipped, grad_w, grad_b);
  Tensor gi_g = conv.backward(go);
  expect_close(gi_d, gi_g);
  expect_close(grad_w, conv.weight().grad,
               kTol * static_cast<float>(h * w));  // grads sum h*w products
  expect_close(grad_b, conv.bias().grad,
               kTol * static_cast<float>(n * h * w));
}

}  // namespace

TEST(GemmConv, MatchesDirectAcrossKernelSizes) {
  for (int kernel : {1, 3, 5}) {
    SCOPED_TRACE("kernel=" + std::to_string(kernel));
    check_matches_direct(3, 5, kernel, 1, 8, 8, /*flipped=*/false);
  }
}

TEST(GemmConv, MatchesDirectOnNonSquareInput) {
  check_matches_direct(2, 4, 3, 1, 7, 13, /*flipped=*/false);
  check_matches_direct(4, 2, 5, 1, 12, 5, /*flipped=*/false);
}

TEST(GemmConv, MatchesDirectOnBatches) {
  check_matches_direct(3, 6, 3, 4, 9, 9, /*flipped=*/false);
}

TEST(GemmConv, MatchesDirectInFlippedDeconvMode) {
  for (int kernel : {1, 3, 5}) {
    SCOPED_TRACE("kernel=" + std::to_string(kernel));
    check_matches_direct(4, 3, kernel, 2, 6, 10, /*flipped=*/true);
  }
}

TEST(GemmConv, MatchesDirectAtBenchShape) {
  // The shape the acceptance bench uses (16 -> 16 channels, k=3, hw=64).
  check_matches_direct(16, 16, 3, 1, 64, 64, /*flipped=*/false);
}

TEST(GemmConv, WorkspaceArenaDoesNotGrowAcrossForwards) {
  Rng rng(29);
  Conv2D conv(8, 8, 3, rng);
  Tensor in = random_tensor(2, 8, 24, 24, rng);
  // The first forward/backward pair may grow the arena to this shape's
  // working set (backward needs the larger slice)...
  {
    Tensor warm = conv.forward(in, /*train=*/true);
    Tensor wgrad = conv.backward(warm);
  }
  const std::int64_t live0 = adarnet::nn::memory::live_bytes();
  // ...after which repeated forwards (and train-mode forwards, which cache
  // by share()) must perform no tensor or arena allocations at steady
  // state.
  for (int rep = 0; rep < 5; ++rep) {
    Tensor out = conv.forward(in, /*train=*/true);
    Tensor grad = conv.backward(out);
  }
  EXPECT_EQ(adarnet::nn::memory::live_bytes(), live0);
}

TEST(GemmConv, WorkspaceEstimateCoversArenaUse) {
  // Each forward runs on a fresh thread, whose arena starts below the
  // estimate. The forward reserves exactly the estimate up front, and
  // anything it draws past that comes from an overflow block the closing
  // release folds in, so the capacity afterwards equals the estimate only
  // if the estimate covered every draw. The estimate grows case by case
  // (the deconv adds its flipped weights; at width 13 the packer's B block
  // outweighs the padded input at 32), so an arena recycled from the
  // previous case's thread is still too small. Width 32 reads the padded
  // input, width 13 packs B.
  struct Case {
    const char* name;
    bool flipped;
    int hw;
  };
  const Case cases[] = {
      {"conv", false, 32}, {"deconv", true, 32}, {"narrow conv", false, 13}};
  for (const Case& cs : cases) {
    SCOPED_TRACE(cs.name);
    Rng rng(31);
    Conv2D conv(6, 12, 3, rng, cs.flipped);
    const std::int64_t est = conv.workspace_bytes(1, 6, cs.hw, cs.hw);
    Tensor in = random_tensor(1, 6, cs.hw, cs.hw, rng);
    std::int64_t before = 0;
    std::int64_t after = 0;
    std::thread([&] {
      const Arena& arena = Arena::local();
      before = static_cast<std::int64_t>(arena.capacity_bytes());
      { Tensor out = conv.forward(in, /*train=*/false); }
      after = static_cast<std::int64_t>(arena.capacity_bytes());
    }).join();
    ASSERT_LT(before, est);
    EXPECT_EQ(after, est);
  }
}

// sgemm_conv against the col matrix it never builds: C starts bias-filled
// and must come out bitwise equal to im2col + sgemm(kNo, kNo, beta 1).
// Widths that are a multiple of 16 read B from the zero-padded input: at
// 16 each panel is a row and every tier-2 pair spans two rows, at 32 each
// row is one pair, at 48 three panels (every other pair spans two rows,
// and the last panel runs alone: 51 rows make an odd count), at 64 two
// pairs. Widths below 16, between multiples and past one panel take the
// row-segment packer. h != w throughout.
void check_implicit_matches_im2col() {
  Rng rng(53);
  const int m = 13, c = 5;
  for (int k : {1, 3, 5}) {
    for (int w : {1, 2, 4, 5, 8, 13, 16, 17, 32, 48, 64}) {
      const int h = w == 64 ? 6 : w + 3;
      SCOPED_TRACE("k=" + std::to_string(k) + " w=" + std::to_string(w));
      const int kdim = c * k * k;
      const int n = h * w;
      Tensor src = random_tensor(1, c, h, w, rng);
      Tensor a = random_tensor(1, 1, m, kdim, rng);
      std::vector<float> want(static_cast<std::size_t>(m) * n);
      for (int i = 0; i < m; ++i) {
        std::fill_n(want.begin() + static_cast<std::ptrdiff_t>(i) * n, n,
                    rng.uniformf(-1.f, 1.f));
      }
      std::vector<float> got = want;
      std::vector<float> col(static_cast<std::size_t>(kdim) * n);
      adarnet::nn::im2col(src.data(), c, h, w, k, col.data());
      adarnet::nn::sgemm(Trans::kNo, Trans::kNo, m, n, kdim, 1.0f, a.data(),
                         kdim, col.data(), n, 1.0f, want.data(), n);
      adarnet::nn::sgemm_conv(m, c, h, w, k, a.data(), src.data(),
                              got.data());
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0);
    }
  }
}

// The decoder's layers (adarnet/decoder.cpp) as the threads share out
// their panel groups: every output bit is the same at 1, 3 and 4 threads.
// At 64x64 each layer reads the padded input over 256 panels; a 15 x 16
// sample has 15, so tier 2's last panel runs alone.
TEST(GemmConv, ForwardBitwiseAcrossThreadCounts) {
#ifdef _OPENMP
  struct Layer {
    int in_c, out_c;
    bool deconv;
  };
  const Layer layers[] = {{6, 8, false},  {8, 16, false}, {16, 64, false},
                          {64, 64, true}, {64, 16, true}, {16, 4, true}};
  const int shapes[][2] = {{64, 64}, {15, 16}};
  const int saved = omp_get_max_threads();
  for (const Layer& l : layers) {
    for (const auto& hw : shapes) {
      SCOPED_TRACE("m=" + std::to_string(l.out_c) + " k=" +
                   std::to_string(9 * l.in_c) + " " + std::to_string(hw[0]) +
                   "x" + std::to_string(hw[1]));
      Rng rng(67);
      Conv2D conv(l.in_c, l.out_c, 3, rng, l.deconv);
      const Tensor in = random_tensor(1, l.in_c, hw[0], hw[1], rng);
      omp_set_num_threads(1);
      const Tensor want = conv.forward(in, /*train=*/false);
      for (int nt : {3, 4}) {
        omp_set_num_threads(nt);
        const Tensor got = conv.forward(in, /*train=*/false);
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              want.numel() * sizeof(float)),
                  0)
            << "threads=" << nt;
      }
    }
  }
  omp_set_num_threads(saved);
#else
  GTEST_SKIP() << "built without OpenMP";
#endif
}

TEST(GemmConv, ImplicitPackingMatchesIm2colBitwise) {
  check_implicit_matches_im2col();
  // kc blocks that end mid-channel; the packer's panels and nc blocks
  // that straddle image rows.
  const ScopedGemmBlocking pin(GemmBlocking{12, 20, 48});
  check_implicit_matches_im2col();
}

TEST(Sgemm, MatchesNaiveTripleLoopAcrossTransposes) {
  Rng rng(41);
  // Odd sizes exercise every microkernel edge (m % 6, n % 16, k blocking).
  const int m = 13, n = 37, k = 19;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> at(static_cast<std::size_t>(k) * m);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> bt(static_cast<std::size_t>(n) * k);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float v = rng.uniformf(-1.f, 1.f);
      a[static_cast<std::size_t>(i) * k + p] = v;
      at[static_cast<std::size_t>(p) * m + i] = v;
    }
  }
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) {
      const float v = rng.uniformf(-1.f, 1.f);
      b[static_cast<std::size_t>(p) * n + j] = v;
      bt[static_cast<std::size_t>(j) * k + p] = v;
    }
  }
  std::vector<float> c0(static_cast<std::size_t>(m) * n);
  for (auto& v : c0) v = rng.uniformf(-1.f, 1.f);

  const float alpha = 0.7f, beta = -0.3f;
  std::vector<float> want = c0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(a[static_cast<std::size_t>(i) * k + p]) *
               b[static_cast<std::size_t>(p) * n + j];
      }
      float& w = want[static_cast<std::size_t>(i) * n + j];
      w = static_cast<float>(alpha * acc + beta * w);
    }
  }

  struct Case {
    Trans ta, tb;
    const float* a;
    int lda;
    const float* b;
    int ldb;
  };
  const Case cases[] = {
      {Trans::kNo, Trans::kNo, a.data(), k, b.data(), n},
      {Trans::kYes, Trans::kNo, at.data(), m, b.data(), n},
      {Trans::kNo, Trans::kYes, a.data(), k, bt.data(), k},
      {Trans::kYes, Trans::kYes, at.data(), m, bt.data(), k},
  };
  for (const Case& cs : cases) {
    std::vector<float> c = c0;
    adarnet::nn::sgemm(cs.ta, cs.tb, m, n, k, alpha, cs.a, cs.lda, cs.b,
                       cs.ldb, beta, c.data(), n);
    for (std::size_t idx = 0; idx < c.size(); ++idx) {
      ASSERT_NEAR(c[idx], want[idx], 1e-5f)
          << "ta=" << static_cast<int>(cs.ta)
          << " tb=" << static_cast<int>(cs.tb) << " idx=" << idx;
    }
  }
}

// ---------------------------------------------------------------------------
// The FMA oracle: what the vector tiers compute, element by element. sgemm
// first applies beta (0: C = 0, 1: C as is, else C *= beta). Then, per kc
// block of the schedule sgemm resolves for the shape, each C element's
// accumulator starts at +0 and takes one std::fma(a, b, acc) per k in
// ascending order, and C += alpha * acc (a multiply, then an add). Every
// tier with FMA must match this bit for bit, whatever its vector width or
// panel pairing; the portable tier (multiply, then add) is checked against
// the naive loops above instead.

namespace {

// C as sgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) must
// leave it, with `kc` the blocking's K block.
std::vector<float> fma_oracle(Trans ta, Trans tb, int m, int n, int k,
                              float alpha, const float* a, int lda,
                              const float* b, int ldb, float beta,
                              std::vector<float> c, int ldc, int kc) {
  const auto op = [](const float* x, int ld, Trans t, int i, int p) {
    return t == Trans::kNo ? x[static_cast<std::size_t>(i) * ld + p]
                           : x[static_cast<std::size_t>(p) * ld + i];
  };
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float& out = c[static_cast<std::size_t>(i) * ldc + j];
      if (beta == 0.0f) {
        out = 0.0f;
      } else if (beta != 1.0f) {
        out *= beta;
      }
      for (int p0 = 0; p0 < k; p0 += kc) {
        float acc = 0.0f;
        for (int p = p0; p < std::min(k, p0 + kc); ++p) {
          acc = std::fma(op(a, lda, ta, i, p), op(b, ldb, tb, p, j), acc);
        }
        const float scaled = alpha * acc;
        out = out + scaled;
      }
    }
  }
  return c;
}

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t idx = 0; idx < got.size(); ++idx) {
    ASSERT_EQ(std::memcmp(&got[idx], &want[idx], sizeof(float)), 0)
        << "at flat index " << idx << ": " << got[idx] << " vs "
        << want[idx];
  }
}

std::vector<float> random_floats(std::size_t count, Rng& rng) {
  std::vector<float> v(count);
  for (float& x : v) x = rng.uniformf(-1.f, 1.f);
  return v;
}

// sgemm at every transpose pair, against the oracle, at the calling
// thread's blocking.
void check_sgemm_oracle(int m, int n, int k, float alpha, float beta,
                        Rng& rng) {
  SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
               " k=" + std::to_string(k) + " alpha=" +
               std::to_string(alpha) + " beta=" + std::to_string(beta));
  const int kc = adarnet::nn::gemm_blocking().kc;
  const std::vector<float> a =
      random_floats(static_cast<std::size_t>(m) * k, rng);
  const std::vector<float> b =
      random_floats(static_cast<std::size_t>(k) * n, rng);
  const std::vector<float> c0 =
      random_floats(static_cast<std::size_t>(m) * n, rng);
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      SCOPED_TRACE("ta=" + std::to_string(static_cast<int>(ta)) +
                   " tb=" + std::to_string(static_cast<int>(tb)));
      // The same numbers stored as op(X) asks: m x k or k x m for A.
      const int lda = ta == Trans::kNo ? k : m;
      const int ldb = tb == Trans::kNo ? n : k;
      std::vector<float> c = c0;
      adarnet::nn::sgemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(),
                         ldb, beta, c.data(), n);
      expect_bitwise(c, fma_oracle(ta, tb, m, n, k, alpha, a.data(), lda,
                                   b.data(), ldb, beta, c0, n, kc));
    }
  }
}

// sgemm_conv against the oracle on the col matrix it never builds
// (alpha 1, beta 1: the call accumulates into C).
void check_conv_oracle(int m, int c, int h, int w, int k, Rng& rng) {
  SCOPED_TRACE("m=" + std::to_string(m) + " c=" + std::to_string(c) +
               " h=" + std::to_string(h) + " w=" + std::to_string(w) +
               " k=" + std::to_string(k));
  const int kdim = c * k * k;
  const int n = h * w;
  const int kc = adarnet::nn::gemm_blocking().kc;
  const std::vector<float> src =
      random_floats(static_cast<std::size_t>(c) * n, rng);
  const std::vector<float> a =
      random_floats(static_cast<std::size_t>(m) * kdim, rng);
  const std::vector<float> c0 =
      random_floats(static_cast<std::size_t>(m) * n, rng);
  std::vector<float> col(static_cast<std::size_t>(kdim) * n);
  adarnet::nn::im2col(src.data(), c, h, w, k, col.data());
  std::vector<float> out = c0;
  adarnet::nn::sgemm_conv(m, c, h, w, k, a.data(), src.data(), out.data());
  expect_bitwise(out, fma_oracle(Trans::kNo, Trans::kNo, m, n, kdim, 1.0f,
                                 a.data(), kdim, col.data(), n, 1.0f, c0, n,
                                 kc));
}

}  // namespace

TEST(Sgemm, MatchesScalarFmaOracleBitwise) {
  const int tier = adarnet::nn::gemm_isa_tier();
  RecordProperty("gemm_isa_tier", tier);
  std::printf("[   INFO   ] sgemm dispatches to ISA tier %d\n", tier);
  if (tier == 0) GTEST_SKIP() << "the portable tier has no FMA";
  Rng rng(61);
  // Default blocking: k past one kc block; m % 6 != 0; n % 16 != 0 with an
  // odd panel count (5) and an even one (8).
  check_sgemm_oracle(13, 71, 300, 0.7f, -0.3f, rng);
  check_sgemm_oracle(13, 125, 300, 1.0f, 0.0f, rng);
  check_sgemm_oracle(7, 16, 9, 1.0f, 1.0f, rng);
  // Default blocking for the implicit GEMM: the m16 / 3x3 deconv shape
  // with k = 288 past one kc block; the padded input (w = 16) and row
  // segments (w = 13, n % 16 != 0).
  check_conv_oracle(16, 32, 8, 16, 3, rng);
  check_conv_oracle(13, 32, 5, 13, 3, rng);
  // The padded input at k = 5 (a two-pixel ring, k = 300 past one kc
  // block), and at the m4 / k144 head's shape, whose one row panel has
  // two zero rows.
  check_conv_oracle(13, 12, 6, 32, 5, rng);
  check_conv_oracle(4, 16, 5, 48, 3, rng);
  {
    // Pinned blocking: kc = 20 ends mid-channel (9 K rows a channel),
    // nc = 48 makes 3 panels a block, odd.
    const ScopedGemmBlocking pin(GemmBlocking{12, 20, 48});
    check_sgemm_oracle(13, 71, 45, 0.7f, -0.3f, rng);
    check_sgemm_oracle(19, 100, 61, 1.0f, 0.0f, rng);
    check_conv_oracle(13, 5, 7, 16, 3, rng);
    check_conv_oracle(13, 5, 6, 13, 3, rng);
  }
  // Every accounted GEMM publishes the tier that ran it.
  const bool was_enabled = adarnet::util::metrics::enabled();
  adarnet::util::metrics::set_enabled(true);
  check_sgemm_oracle(7, 16, 9, 1.0f, 1.0f, rng);
  EXPECT_EQ(adarnet::util::metrics::gauge("nn.gemm.isa").value(), tier);
  adarnet::util::metrics::set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// Cache blocking: sgemm against a double-accumulated naive loop at the
// default and at pinned blockings (tiles smaller and larger than the
// shapes, odd and degenerate shapes), and the override's clamp and nesting.

namespace {

void check_sgemm_naive(int m, int n, int k, Trans ta, Trans tb, float alpha,
                       float beta, Rng& rng) {
  SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
               " k=" + std::to_string(k) + " ta=" +
               std::to_string(static_cast<int>(ta)) + " tb=" +
               std::to_string(static_cast<int>(tb)));
  const auto op = [](const std::vector<float>& x, int ld, Trans t, int i,
                     int p) {
    return t == Trans::kNo ? x[static_cast<std::size_t>(i) * ld + p]
                           : x[static_cast<std::size_t>(p) * ld + i];
  };
  const int lda = ta == Trans::kNo ? k : m;
  const int ldb = tb == Trans::kNo ? n : k;
  const std::vector<float> a =
      random_floats(static_cast<std::size_t>(m) * k, rng);
  const std::vector<float> b =
      random_floats(static_cast<std::size_t>(k) * n, rng);
  const std::vector<float> c0 =
      random_floats(static_cast<std::size_t>(m) * n, rng);
  std::vector<float> want = c0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(op(a, lda, ta, i, p)) * op(b, ldb, tb, p, j);
      }
      float& out = want[static_cast<std::size_t>(i) * n + j];
      out = static_cast<float>(alpha * acc + beta * out);
    }
  }
  std::vector<float> got = c0;
  adarnet::nn::sgemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                     beta, got.data(), n);
  // Summation-order slack: fp32 partial sums of k random +-1 products.
  const float tol = (1e-5f + 2e-6f * static_cast<float>(k)) *
                    (std::abs(alpha) + std::abs(beta));
  for (std::size_t idx = 0; idx < got.size(); ++idx) {
    ASSERT_NEAR(got[idx], want[idx], tol) << "at " << idx;
  }
}

}  // namespace

TEST(Sgemm, MatchesNaiveAcrossBlockings) {
  const GemmBlocking grid[] = {
      {},                // the defaults every caller runs
      {6, 4, 16},        // minimal legal tiles
      {12, 48, 32},      // small tiles
      {144, 512, 4096},  // tiles larger than most shapes
  };
  const int shapes[][3] = {{1, 1, 1},    {3, 2, 4},    {6, 16, 8},
                           {7, 17, 5},   {13, 31, 29}, {48, 40, 64},
                           {70, 130, 33}};
  Rng rng(101);
  for (const GemmBlocking& bl : grid) {
    SCOPED_TRACE("mc=" + std::to_string(bl.mc) + " kc=" +
                 std::to_string(bl.kc) + " nc=" + std::to_string(bl.nc));
    const ScopedGemmBlocking pin(bl);
    for (const auto& s : shapes) {
      check_sgemm_naive(s[0], s[1], s[2], Trans::kNo, Trans::kNo, 1.0f, 0.0f,
                        rng);
    }
    // Transpose flags and alpha/beta on a representative shape.
    for (Trans ta : {Trans::kNo, Trans::kYes}) {
      for (Trans tb : {Trans::kNo, Trans::kYes}) {
        check_sgemm_naive(13, 31, 29, ta, tb, 0.5f, -1.25f, rng);
      }
    }
  }
}

TEST(GemmBlockingOverride, ClampsToLegalGrid) {
  {
    const ScopedGemmBlocking pin(GemmBlocking{-5, 0, 7});
    const GemmBlocking b = adarnet::nn::gemm_blocking();
    EXPECT_EQ(b.mc % 6, 0);
    EXPECT_GE(b.mc, 6);
    EXPECT_GE(b.kc, 4);
    EXPECT_EQ(b.nc % 16, 0);
    EXPECT_GE(b.nc, 16);
  }
  {
    // Rounds down to the register tile, and the defaults are legal as is.
    const ScopedGemmBlocking pin(GemmBlocking{40, 100, 50});
    EXPECT_EQ(adarnet::nn::gemm_blocking(), (GemmBlocking{36, 100, 48}));
  }
  const ScopedGemmBlocking pin(GemmBlocking{});
  EXPECT_EQ(adarnet::nn::gemm_blocking(), GemmBlocking{});
}

TEST(GemmBlockingOverride, NestsAndRestores) {
  const GemmBlocking base = adarnet::nn::gemm_blocking();
  EXPECT_EQ(base, GemmBlocking{});
  {
    const ScopedGemmBlocking outer(GemmBlocking{12, 64, 256});
    EXPECT_EQ(adarnet::nn::gemm_blocking().mc, 12);
    {
      const ScopedGemmBlocking inner(GemmBlocking{24, 32, 128});
      EXPECT_EQ(adarnet::nn::gemm_blocking().mc, 24);
      // The override is the calling thread's alone.
      GemmBlocking other;
      std::thread([&] { other = adarnet::nn::gemm_blocking(); }).join();
      EXPECT_EQ(other, GemmBlocking{});
    }
    EXPECT_EQ(adarnet::nn::gemm_blocking().mc, 12);
  }
  EXPECT_EQ(adarnet::nn::gemm_blocking(), base);
}

TEST(Im2Col, RoundTripMatchesAdjointIdentity) {
  // <col2im_add(im2col(x)), y-ones> consistency: the adjoint of a linear
  // packing must satisfy <im2col(x), c> == <x, col2im_add(c)> for any c.
  Rng rng(47);
  const int c = 2, h = 5, w = 6, k = 3;
  Tensor x = random_tensor(1, c, h, w, rng);
  const std::size_t rows = static_cast<std::size_t>(c) * k * k;
  const std::size_t cols = static_cast<std::size_t>(h) * w;
  std::vector<float> col(rows * cols);
  adarnet::nn::im2col(x.data(), c, h, w, k, col.data());
  std::vector<float> probe(rows * cols);
  for (auto& v : probe) v = rng.uniformf(-1.f, 1.f);
  Tensor back(1, c, h, w);
  adarnet::nn::col2im_add(probe.data(), c, h, w, k, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i) lhs += col[i] * probe[i];
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(TensorShare, AliasesWithoutAllocating) {
  Tensor t(1, 2, 3, 4);
  const std::int64_t live = adarnet::nn::memory::live_bytes();
  Tensor alias = t.share();
  EXPECT_EQ(adarnet::nn::memory::live_bytes(), live);
  EXPECT_TRUE(alias.shares_storage(t));
  alias[0] = 42.0f;
  EXPECT_EQ(t[0], 42.0f);
  // Deep copy still allocates and detaches.
  Tensor copy = t;
  EXPECT_EQ(adarnet::nn::memory::live_bytes(), live + t.bytes());
  EXPECT_FALSE(copy.shares_storage(t));
}
