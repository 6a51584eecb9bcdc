// im2col / col2im for same-padded, stride-1 convolution (the only
// configuration ADARNet uses; kernel size stays a parameter).
//
// Layout contract (matches the Conv2D weight layout (o, i, ky, kx) flattened
// row-major, so the weight tensor is usable as the GEMM A operand directly):
//   col is a (c * k * k) x (h * w) row-major matrix;
//   row r = (ic * k + ky) * k + kx holds input plane `ic` shifted by
//   (ky - k/2, kx - k/2) with zero padding, flattened over (y, x).
//
// The col matrix is always materialised in fp32, even on the
// reduced-precision inference path: conversion to bf16 storage happens
// inside sgemm's operand packing (nn/gemm.cpp), which touches every col
// element exactly once anyway — so no second conversion pass over the
// (c*k*k) x (h*w) panel exists.
#pragma once

#include <cstddef>

namespace adarnet::nn {

/// Packs one sample (c contiguous h*w planes at `src`) into `col`
/// ((c*k*k) x (h*w), row-major). `k` must be odd.
void im2col(const float* src, int c, int h, int w, int k, float* col);

/// Adjoint of im2col: scatter-adds `col` back into the c planes at `dst`
/// (dst is accumulated into, not overwritten).
void col2im_add(const float* col, int c, int h, int w, int k, float* dst);

/// Bytes the col matrix occupies for one sample of shape (c, h, w).
inline std::size_t im2col_bytes(int c, int h, int w, int k) {
  return static_cast<std::size_t>(c) * k * k * h * w * sizeof(float);
}

}  // namespace adarnet::nn
