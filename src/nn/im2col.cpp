#include "nn/im2col.hpp"

namespace adarnet::nn {

void im2col(const float* src, int c, int h, int w, int k, float* col) {
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const int rows = c * k * k;
#pragma omp parallel for schedule(static)
  for (int r = 0; r < rows; ++r) {
    const ColRow cr = col_row(r, h, w, k);
    float* out_row = col + static_cast<std::size_t>(r) * plane;
    for (int y = 0; y < h; ++y) {
      const int yy = y + cr.dy;
      const float* row =
          yy >= 0 && yy < h
              ? src + cr.offset + static_cast<std::size_t>(yy) * w
              : nullptr;
      shift_row</*kWholeRow=*/true>(row, w, 0, cr.dx, w,
                                    out_row + static_cast<std::size_t>(y) * w);
    }
  }
}

void col2im_add(const float* col, int c, int h, int w, int k, float* dst) {
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const int kk = k * k;
  // Rows of the same input channel overlap, so parallelise over channels
  // and walk that channel's k*k rows serially.
#pragma omp parallel for schedule(static)
  for (int ic = 0; ic < c; ++ic) {
    for (int r = ic * kk; r < (ic + 1) * kk; ++r) {
      const ColRow cr = col_row(r, h, w, k);
      const float* in_row = col + static_cast<std::size_t>(r) * plane;
      const int y0 = std::max(0, -cr.dy);
      const int y1 = std::min(h, h - cr.dy);
      const int x0 = std::max(0, -cr.dx);
      const int x1 = std::min(w, w - cr.dx);
      for (int y = y0; y < y1; ++y) {
        const float* crow = in_row + static_cast<std::size_t>(y) * w;
        float* orow = dst + cr.offset +
                      static_cast<std::size_t>(y + cr.dy) * w + cr.dx;
        for (int x = x0; x < x1; ++x) orow[x] += crow[x];
      }
    }
  }
}

}  // namespace adarnet::nn
