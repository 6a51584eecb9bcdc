// Unit tests for the field module: arrays, interpolation, patching, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "field/array2d.hpp"
#include "field/flow_field.hpp"
#include "field/interp.hpp"
#include "field/patching.hpp"
#include "field/stats.hpp"

namespace af = adarnet::field;

TEST(Array2D, ShapeAndIndexing) {
  af::Grid2Dd a(3, 5, 1.5);
  EXPECT_EQ(a.ny(), 3);
  EXPECT_EQ(a.nx(), 5);
  EXPECT_EQ(a.size(), 15u);
  EXPECT_DOUBLE_EQ(a(2, 4), 1.5);
  a(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(a[1 * 5 + 2], 7.0);
}

TEST(Array2D, FillAndResize) {
  af::Grid2Dd a(2, 2);
  a.fill(3.0);
  for (double v : a) EXPECT_DOUBLE_EQ(v, 3.0);
  a.resize(4, 6);
  EXPECT_EQ(a.ny(), 4);
  EXPECT_EQ(a.nx(), 6);
  for (double v : a) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Array2D, SameShape) {
  af::Grid2Dd a(2, 3), b(2, 3), c(3, 2);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(BicubicKernel, PartitionOfUnityAndInterpolation) {
  // At integer offsets the Keys kernel interpolates: w(0)=1, w(1)=w(2)=0.
  EXPECT_DOUBLE_EQ(af::bicubic_kernel(0.0), 1.0);
  EXPECT_NEAR(af::bicubic_kernel(1.0), 0.0, 1e-12);
  EXPECT_NEAR(af::bicubic_kernel(2.0), 0.0, 1e-12);
  // Weights at any fractional offset sum to 1 (reproduces constants).
  for (double f : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    double sum = 0.0;
    for (int k = -1; k <= 2; ++k) sum += af::bicubic_kernel(f - k);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "f=" << f;
  }
}

TEST(Resize, PreservesConstantFields) {
  af::Grid2Dd a(8, 8, 2.5);
  for (auto scheme : {af::Interp::kBilinear, af::Interp::kBicubic}) {
    const auto up = af::resize(a, 32, 32, scheme);
    for (double v : up) EXPECT_NEAR(v, 2.5, 1e-12);
    const auto down = af::resize(a, 4, 4, scheme);
    for (double v : down) EXPECT_NEAR(v, 2.5, 1e-12);
  }
}

TEST(Resize, ReproducesLinearRamp) {
  // Bilinear and bicubic both reproduce affine functions away from borders.
  af::Grid2Dd a(16, 16);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) a(i, j) = 2.0 * i + 3.0 * j;
  }
  const auto up = af::resize(a, 32, 32, af::Interp::kBicubic);
  for (int i = 4; i < 28; ++i) {
    for (int j = 4; j < 28; ++j) {
      // Output cell centre in input-index coordinates.
      const double yi = (i + 0.5) * 0.5 - 0.5;
      const double xj = (j + 0.5) * 0.5 - 0.5;
      EXPECT_NEAR(up(i, j), 2.0 * yi + 3.0 * xj, 1e-9);
    }
  }
}

TEST(Resize, RoundTripUpDownIsAccurate) {
  af::Grid2Dd a(8, 8);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      a(i, j) = std::sin(0.5 * i) * std::cos(0.4 * j);
    }
  }
  const auto up = af::upsample(a, 4, af::Interp::kBicubic);
  const auto back = af::downsample(up, 4, af::Interp::kBicubic);
  EXPECT_LT(af::rel_l2_error(back, a), 0.05);
}

namespace {

// The per-pixel bicubic resize that resize() hoists its taps out of: at
// every output pixel, 8 kernel evaluations and 16 clamped reads, summed
// row by row.
template <typename T>
double bicubic_oracle_at(const af::Array2D<T>& src, double y, double x) {
  const auto clamped = [&](int i, int j) {
    return src(std::clamp(i, 0, src.ny() - 1), std::clamp(j, 0, src.nx() - 1));
  };
  const int i0 = static_cast<int>(std::floor(y));
  const int j0 = static_cast<int>(std::floor(x));
  const double fy = y - i0;
  const double fx = x - j0;
  double wx[4];
  double wy[4];
  for (int k = 0; k < 4; ++k) {
    wy[k] = af::bicubic_kernel(fy - (k - 1));
    wx[k] = af::bicubic_kernel(fx - (k - 1));
  }
  double acc = 0.0;
  for (int di = 0; di < 4; ++di) {
    double row = 0.0;
    for (int dj = 0; dj < 4; ++dj) {
      row += wx[dj] * clamped(i0 + di - 1, j0 + dj - 1);
    }
    acc += wy[di] * row;
  }
  return acc;
}

template <typename T>
af::Array2D<T> bicubic_oracle(const af::Array2D<T>& src, int ny, int nx) {
  af::Array2D<T> dst(ny, nx);
  const double sy = static_cast<double>(src.ny()) / ny;
  const double sx = static_cast<double>(src.nx()) / nx;
  for (int i = 0; i < ny; ++i) {
    for (int j = 0; j < nx; ++j) {
      dst(i, j) = static_cast<T>(
          bicubic_oracle_at(src, (i + 0.5) * sy - 0.5, (j + 0.5) * sx - 0.5));
    }
  }
  return dst;
}

template <typename T>
void check_bicubic_against_oracle() {
  af::Array2D<T> src(8, 8);
  af::Array2D<T> wide(6, 10);
  for (auto* a : {&src, &wide}) {
    for (int i = 0; i < a->ny(); ++i) {
      for (int j = 0; j < a->nx(); ++j) {
        (*a)(i, j) = static_cast<T>(std::sin(0.7 * i + 0.1) *
                                    std::cos(0.45 * j - 0.3));
      }
    }
  }
  struct Case {
    const af::Array2D<T>* src;
    int ny, nx;
  };
  // Up-sampling x2, x4 and x8, a non-square source refined to unequal
  // factors, and a down-sample.
  const Case cases[] = {{&src, 16, 16}, {&src, 32, 32}, {&src, 64, 64},
                        {&wide, 24, 20}, {&src, 3, 5}};
  for (const Case& cs : cases) {
    SCOPED_TRACE(std::to_string(cs.src->ny()) + "x" +
                 std::to_string(cs.src->nx()) + " -> " +
                 std::to_string(cs.ny) + "x" + std::to_string(cs.nx));
    const auto got = af::resize(*cs.src, cs.ny, cs.nx, af::Interp::kBicubic);
    const auto want = bicubic_oracle(*cs.src, cs.ny, cs.nx);
    ASSERT_TRUE(got.same_shape(want));
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)),
              0);
  }
}

}  // namespace

TEST(Resize, BicubicMatchesPerPixelOracleBitwise) {
  check_bicubic_against_oracle<double>();
  check_bicubic_against_oracle<float>();
}

TEST(Resize, SampleMatchesResizeMapping) {
  af::Grid2Dd a(6, 6);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) a(i, j) = i * 10.0 + j;
  }
  // sample() at exact cell centres returns the cell value.
  EXPECT_NEAR(af::sample(a, 2.0, 3.0, af::Interp::kBilinear), 23.0, 1e-12);
  EXPECT_NEAR(af::sample(a, 2.0, 3.0, af::Interp::kBicubic), 23.0, 1e-9);
}

TEST(RestrictMean, AveragesBlocks) {
  af::Grid2Dd a(4, 4);
  for (std::size_t k = 0; k < a.size(); ++k) a[k] = static_cast<double>(k);
  const auto r = af::restrict_mean(a, 2);
  ASSERT_EQ(r.ny(), 2);
  ASSERT_EQ(r.nx(), 2);
  EXPECT_DOUBLE_EQ(r(0, 0), (0 + 1 + 4 + 5) / 4.0);
  EXPECT_DOUBLE_EQ(r(1, 1), (10 + 11 + 14 + 15) / 4.0);
}

TEST(Patching, LayoutValidation) {
  const auto layout = af::make_layout(64, 256, 16, 16);
  EXPECT_EQ(layout.npy, 4);
  EXPECT_EQ(layout.npx, 16);
  EXPECT_EQ(layout.count(), 64);  // the paper's N = 64 patches
  EXPECT_THROW(af::make_layout(60, 256, 16, 16), std::invalid_argument);
  EXPECT_THROW(af::make_layout(64, 256, 0, 16), std::invalid_argument);
}

TEST(Patching, SplitAssembleRoundTrip) {
  af::Grid2Dd a(32, 48);
  for (std::size_t k = 0; k < a.size(); ++k) a[k] = static_cast<double>(k);
  const auto layout = af::make_layout(32, 48, 8, 8);
  const auto patches = af::split(a, layout);
  ASSERT_EQ(patches.size(), 24u);
  const auto b = af::assemble(patches, layout.npy, layout.npx);
  EXPECT_DOUBLE_EQ(af::mse(a, b), 0.0);
}

TEST(Patching, ExtractPatchValues) {
  af::Grid2Dd a(8, 8);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) a(i, j) = i * 8.0 + j;
  }
  const auto layout = af::make_layout(8, 8, 4, 4);
  const auto p = af::extract_patch(a, layout, 1, 1);
  EXPECT_DOUBLE_EQ(p(0, 0), a(4, 4));
  EXPECT_DOUBLE_EQ(p(3, 3), a(7, 7));
}

TEST(Patching, InsertPatchResamples) {
  af::Grid2Dd dst(8, 8, 0.0);
  const auto layout = af::make_layout(8, 8, 4, 4);
  af::Grid2Dd hr(16, 16, 5.0);  // a level-2 patch being inserted at LR
  af::insert_patch(dst, layout, 0, 1, hr);
  EXPECT_NEAR(dst(0, 4), 5.0, 1e-9);
  EXPECT_NEAR(dst(3, 7), 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(dst(0, 0), 0.0);
}

TEST(Patching, AssembleRejectsMixedShapes) {
  std::vector<af::Grid2Dd> patches;
  patches.emplace_back(4, 4);
  patches.emplace_back(8, 8);
  EXPECT_THROW(af::assemble(patches, 1, 2), std::invalid_argument);
}

TEST(Stats, NormsAndErrors) {
  af::Grid2Dd a(1, 4);
  a[0] = 3.0; a[1] = -4.0; a[2] = 0.0; a[3] = 0.0;
  EXPECT_DOUBLE_EQ(af::l2_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(af::max_abs(a), 4.0);
  EXPECT_DOUBLE_EQ(af::mean(a), -0.25);
  EXPECT_DOUBLE_EQ(af::min_value(a), -4.0);
  EXPECT_DOUBLE_EQ(af::max_value(a), 3.0);
  af::Grid2Dd b(1, 4, 0.0);
  EXPECT_DOUBLE_EQ(af::mse(a, b), 25.0 / 4.0);
  EXPECT_DOUBLE_EQ(af::rel_l2_error(b, a), 1.0);
}

TEST(FlowField, ChannelAccessors) {
  af::FlowField f(4, 8);
  EXPECT_EQ(f.ny(), 4);
  EXPECT_EQ(f.nx(), 8);
  f.channel(0)(0, 0) = 1.0;
  f.channel(3)(1, 2) = 2.0;
  EXPECT_DOUBLE_EQ(f.U(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(f.nuTilda(1, 2), 2.0);
  EXPECT_THROW(f.channel(4), std::out_of_range);
  EXPECT_EQ(af::kNumFlowVars, 4);
}
