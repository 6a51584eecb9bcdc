// The im2col mapping for same-padded, stride-1 convolution (the only
// configuration ADARNet uses; kernel size stays a parameter), defined once
// for both of its users:
//   - the forward pass, whose implicit-GEMM entry (sgemm_conv in
//     nn/gemm.hpp) packs its B panels straight from the input planes with
//     col_row() and shift_row() and never materialises the col matrix;
//   - the backward pass, which runs im2col() / col2im_add() around its
//     dW and dX GEMMs.
//
// Layout contract (matches the Conv2D weight layout (o, i, ky, kx) flattened
// row-major, so the weight tensor is usable as the GEMM A operand directly):
//   col is a (c * k * k) x (h * w) row-major matrix;
//   row r = (ic * k + ky) * k + kx holds input plane `ic` shifted by
//   (ky - k/2, kx - k/2) with zero padding, flattened over (y, x).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

namespace adarnet::nn {

/// Where row r of the col matrix reads from: the input plane starting at
/// element `offset` of the sample, shifted by (dy, dx).
struct ColRow {
  std::size_t offset = 0;
  int dy = 0;
  int dx = 0;
};

/// Row r = (ic * k + ky) * k + kx of the col matrix of a (c, h, w) sample.
inline ColRow col_row(int r, int h, int w, int k) {
  const int kk = k * k;
  const int ic = r / kk;
  const int t = r - ic * kk;
  const int ky = t / k;
  return {static_cast<std::size_t>(ic) * h * w, ky - k / 2, t - ky * k - k / 2};
}

/// The row shift every col row is made of: dst[q] = row[x0 + q + dx] for
/// q in [0, len), and 0 where x0 + q + dx falls outside [0, w). `row` is
/// the source image row, or null when that row lies outside the plane (all
/// zeros). im2col's whole rows (kWholeRow) are written with memset/memcpy;
/// the GEMM packer's runs of at most 16 elements keep element loops,
/// which are faster on them.
template <bool kWholeRow>
inline void shift_row(const float* row, int w, int x0, int dx, int len,
                      float* dst) {
  const int s = x0 + dx;  // source column of dst[0]
  const int lo = row ? std::clamp(-s, 0, len) : len;
  const int hi = row ? std::clamp(w - s, lo, len) : len;
  if constexpr (kWholeRow) {
    if (lo > 0) std::memset(dst, 0, sizeof(float) * lo);
    if (hi > lo) {
      std::memcpy(dst + lo, row + s + lo, sizeof(float) * (hi - lo));
    }
    if (hi < len) std::memset(dst + hi, 0, sizeof(float) * (len - hi));
  } else {
    for (int q = 0; q < lo; ++q) dst[q] = 0.0f;
    for (int q = lo; q < hi; ++q) dst[q] = row[s + q];
    for (int q = hi; q < len; ++q) dst[q] = 0.0f;
  }
}

/// Packs one sample (c contiguous h*w planes at `src`) into `col`
/// ((c*k*k) x (h*w), row-major). `k` must be odd.
void im2col(const float* src, int c, int h, int w, int k, float* col);

/// Adjoint of im2col: scatter-adds `col` back into the c planes at `dst`
/// (dst is accumulated into, not overwritten).
void col2im_add(const float* col, int c, int h, int w, int k, float* dst);

}  // namespace adarnet::nn
