#include "field/interp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace adarnet::field {

double bicubic_kernel(double t) {
  constexpr double a = -0.5;
  const double at = std::abs(t);
  if (at <= 1.0) {
    return (a + 2.0) * at * at * at - (a + 3.0) * at * at + 1.0;
  }
  if (at < 2.0) {
    return a * at * at * at - 5.0 * a * at * at + 8.0 * a * at - 4.0 * a;
  }
  return 0.0;
}

namespace {

template <typename T>
T sample_clamped(const Array2D<T>& src, int i, int j) {
  i = std::clamp(i, 0, src.ny() - 1);
  j = std::clamp(j, 0, src.nx() - 1);
  return src(i, j);
}

template <typename T>
double bilinear_at(const Array2D<T>& src, double y, double x) {
  const int i0 = static_cast<int>(std::floor(y));
  const int j0 = static_cast<int>(std::floor(x));
  const double fy = y - i0;
  const double fx = x - j0;
  const double v00 = sample_clamped(src, i0, j0);
  const double v01 = sample_clamped(src, i0, j0 + 1);
  const double v10 = sample_clamped(src, i0 + 1, j0);
  const double v11 = sample_clamped(src, i0 + 1, j0 + 1);
  return v00 * (1 - fy) * (1 - fx) + v01 * (1 - fy) * fx +
         v10 * fy * (1 - fx) + v11 * fy * fx;
}

// The four bicubic taps at fractional index t on an axis of n cells: the
// source indices floor(t) - 1 .. floor(t) + 2, clamped to the border, and
// their Keys weights. They depend on one coordinate only, so resize()
// computes them once per output row and once per output column.
struct CubicTaps {
  int idx[4];
  double w[4];
};

CubicTaps cubic_taps(double t, int n) {
  const int i0 = static_cast<int>(std::floor(t));
  const double f = t - i0;
  CubicTaps taps;
  for (int k = 0; k < 4; ++k) {
    taps.idx[k] = std::clamp(i0 + k - 1, 0, n - 1);
    taps.w[k] = bicubic_kernel(f - (k - 1));
  }
  return taps;
}

// The bicubic value where row taps ty cross column taps tx: each of the
// four rows weighted along x, then the rows weighted along y.
template <typename T>
double bicubic_at(const Array2D<T>& src, const CubicTaps& ty,
                  const CubicTaps& tx) {
  double acc = 0.0;
  for (int di = 0; di < 4; ++di) {
    double row = 0.0;
    for (int dj = 0; dj < 4; ++dj) {
      row += tx.w[dj] * src(ty.idx[di], tx.idx[dj]);
    }
    acc += ty.w[di] * row;
  }
  return acc;
}

template <typename T>
Array2D<T> resize_impl(const Array2D<T>& src, int ny, int nx, Interp scheme) {
  assert(ny > 0 && nx > 0);
  assert(!src.empty());
  Array2D<T> dst(ny, nx);
  const double sy = static_cast<double>(src.ny()) / ny;
  const double sx = static_cast<double>(src.nx()) / nx;
  if (scheme == Interp::kBilinear) {
#pragma omp parallel for schedule(static)
    for (int i = 0; i < ny; ++i) {
      const double y = (i + 0.5) * sy - 0.5;
      for (int j = 0; j < nx; ++j) {
        const double x = (j + 0.5) * sx - 0.5;
        dst(i, j) = static_cast<T>(bilinear_at(src, y, x));
      }
    }
    return dst;
  }
  std::vector<CubicTaps> cols(static_cast<std::size_t>(nx));
  for (int j = 0; j < nx; ++j) {
    cols[static_cast<std::size_t>(j)] =
        cubic_taps((j + 0.5) * sx - 0.5, src.nx());
  }
#pragma omp parallel for schedule(static)
  for (int i = 0; i < ny; ++i) {
    const CubicTaps ty = cubic_taps((i + 0.5) * sy - 0.5, src.ny());
    for (int j = 0; j < nx; ++j) {
      dst(i, j) = static_cast<T>(
          bicubic_at(src, ty, cols[static_cast<std::size_t>(j)]));
    }
  }
  return dst;
}

}  // namespace

Grid2Dd resize(const Grid2Dd& src, int ny, int nx, Interp scheme) {
  return resize_impl(src, ny, nx, scheme);
}

Grid2Df resize(const Grid2Df& src, int ny, int nx, Interp scheme) {
  return resize_impl(src, ny, nx, scheme);
}

Grid2Dd resize_adjoint(const Grid2Dd& grad_out, int src_ny, int src_nx,
                       Interp scheme) {
  assert(src_ny > 0 && src_nx > 0);
  Grid2Dd grad_src(src_ny, src_nx);
  const int ny = grad_out.ny();
  const int nx = grad_out.nx();
  const double sy = static_cast<double>(src_ny) / ny;
  const double sx = static_cast<double>(src_nx) / nx;
  auto scatter = [&](int i, int j, double w, double g) {
    i = std::clamp(i, 0, src_ny - 1);
    j = std::clamp(j, 0, src_nx - 1);
    grad_src(i, j) += w * g;
  };
  for (int i = 0; i < ny; ++i) {
    const double y = (i + 0.5) * sy - 0.5;
    const int i0 = static_cast<int>(std::floor(y));
    const double fy = y - i0;
    for (int j = 0; j < nx; ++j) {
      const double x = (j + 0.5) * sx - 0.5;
      const int j0 = static_cast<int>(std::floor(x));
      const double fx = x - j0;
      const double g = grad_out(i, j);
      if (scheme == Interp::kBilinear) {
        scatter(i0, j0, (1 - fy) * (1 - fx), g);
        scatter(i0, j0 + 1, (1 - fy) * fx, g);
        scatter(i0 + 1, j0, fy * (1 - fx), g);
        scatter(i0 + 1, j0 + 1, fy * fx, g);
      } else {
        for (int di = 0; di < 4; ++di) {
          const double wy = bicubic_kernel(fy - (di - 1));
          for (int dj = 0; dj < 4; ++dj) {
            const double wx = bicubic_kernel(fx - (dj - 1));
            scatter(i0 + di - 1, j0 + dj - 1, wy * wx, g);
          }
        }
      }
    }
  }
  return grad_src;
}

double sample(const Grid2Dd& src, double y, double x, Interp scheme) {
  return scheme == Interp::kBilinear
             ? bilinear_at(src, y, x)
             : bicubic_at(src, cubic_taps(y, src.ny()),
                          cubic_taps(x, src.nx()));
}

Grid2Dd restrict_mean(const Grid2Dd& src, int factor) {
  assert(factor >= 1);
  assert(src.ny() % factor == 0 && src.nx() % factor == 0);
  Grid2Dd dst(src.ny() / factor, src.nx() / factor);
  const double inv = 1.0 / (factor * factor);
  for (int i = 0; i < dst.ny(); ++i) {
    for (int j = 0; j < dst.nx(); ++j) {
      double acc = 0.0;
      for (int di = 0; di < factor; ++di) {
        for (int dj = 0; dj < factor; ++dj) {
          acc += src(i * factor + di, j * factor + dj);
        }
      }
      dst(i, j) = acc * inv;
    }
  }
  return dst;
}

}  // namespace adarnet::field
