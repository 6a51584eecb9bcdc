// Tests for the GEMM autotuner and the reduced-precision inference path:
// scalar bf16 conversions, sgemm correctness across the tuning-
// parameter space (randomized shapes incl. odd/degenerate, both Trans
// flags, tuned/untuned/reduced-precision vs a naive reference), tuning-
// cache durability (corrupt/truncated/mismatched files fall back to
// defaults; concurrent writers never tear the file), and the accuracy
// guard's fp32 fallback.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "adarnet/model.hpp"
#include "adarnet/precision_guard.hpp"
#include "data/normalize.hpp"
#include "field/flow_field.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/half.hpp"
#include "nn/tensor.hpp"
#include "nn/tune.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

namespace half = adarnet::nn::half;
namespace tuning = adarnet::nn::tuning;
using adarnet::nn::Conv2D;
using adarnet::nn::Precision;
using adarnet::nn::sgemm;
using adarnet::nn::Tensor;
using adarnet::nn::Trans;
using adarnet::nn::TuneParams;
using adarnet::util::Rng;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------- half

TEST(HalfConv, Bf16RoundTripsRepresentableValues) {
  for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -2.0f, 65536.0f,
                  0x1p-126f, 0.15625f}) {
    EXPECT_EQ(half::bf16_to_f32(half::f32_to_bf16(v)), v) << v;
  }
}

TEST(HalfConv, Bf16RoundsToNearestEven) {
  // 1 + 2^-8 sits exactly between bf16 neighbours 1.0 and 1 + 2^-7; RNE
  // picks the even mantissa (1.0). Just above the midpoint rounds up.
  EXPECT_EQ(half::bf16_to_f32(half::f32_to_bf16(1.0f + 0x1p-8f)), 1.0f);
  EXPECT_EQ(half::bf16_to_f32(half::f32_to_bf16(1.0f + 0x1.1p-8f)),
            1.0f + 0x1p-7f);
  // Relative error of the rounding is at most 2^-9 for any normal value.
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniformf(-100.0f, 100.0f);
    const float r = half::bf16_to_f32(half::f32_to_bf16(v));
    EXPECT_LE(std::abs(r - v), std::abs(v) * 0x1p-8f + 1e-38f) << v;
  }
}

TEST(HalfConv, Bf16SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(half::bf16_to_f32(half::f32_to_bf16(inf)), inf);
  EXPECT_EQ(half::bf16_to_f32(half::f32_to_bf16(-inf)), -inf);
  EXPECT_TRUE(std::isnan(half::bf16_to_f32(half::f32_to_bf16(NAN))));
  // Large-but-finite values must not round to infinity...
  const float big = 3.3895e38f;  // below f32 max, above bf16 midpoint grid
  EXPECT_TRUE(std::isfinite(big));
  // ...unless they round past f32 max, which IS the bf16 grid top.
  EXPECT_EQ(std::signbit(half::bf16_to_f32(half::f32_to_bf16(-0.0f))), true);
}

// ------------------------------------------------------- sgemm vs naive

float at(const std::vector<float>& x, int ld, Trans t, int i, int p) {
  return t == Trans::kNo ? x[static_cast<std::size_t>(i) * ld + p]
                         : x[static_cast<std::size_t>(p) * ld + i];
}

// Reference: double-accumulated triple loop over (optionally quantized)
// operands. Quantizing the reference inputs with the same scalar
// converters the pack step uses makes the reduced-precision comparison
// exact up to fp32 summation order.
std::vector<float> naive_gemm(Trans ta, Trans tb, int m, int n, int k,
                              float alpha, std::vector<float> a, int lda,
                              std::vector<float> b, int ldb, float beta,
                              const std::vector<float>& c0, int ldc,
                              Precision prec) {
  if (prec == Precision::kBf16) {
    for (float& v : a) v = half::bf16_to_f32(half::f32_to_bf16(v));
    for (float& v : b) v = half::bf16_to_f32(half::f32_to_bf16(v));
  }
  std::vector<float> c = c0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(at(a, lda, ta, i, p)) *
               at(b, ldb, tb, p, j);
      }
      float& out = c[static_cast<std::size_t>(i) * ldc + j];
      out = static_cast<float>(alpha * acc + beta * out);
    }
  }
  return c;
}

std::vector<float> random_vec(std::size_t count, Rng& rng) {
  std::vector<float> v(count);
  for (float& x : v) x = rng.uniformf(-1.0f, 1.0f);
  return v;
}

// Summation-order slack: fp32 partial sums of k random +-1 products.
float gemm_tol(int k) { return 1e-5f + 2e-6f * static_cast<float>(k); }

void check_sgemm(int m, int n, int k, Trans ta, Trans tb, float alpha,
                 float beta, Precision prec, Rng& rng) {
  const int lda = ta == Trans::kNo ? k : m;
  const int ldb = tb == Trans::kNo ? n : k;
  const std::vector<float> a =
      random_vec(static_cast<std::size_t>(m) * k, rng);
  const std::vector<float> b =
      random_vec(static_cast<std::size_t>(k) * n, rng);
  const std::vector<float> c0 =
      random_vec(static_cast<std::size_t>(m) * n, rng);
  const std::vector<float> want =
      naive_gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c0, n, prec);
  std::vector<float> got = c0;
  sgemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
        got.data(), n, prec);
  const float tol = gemm_tol(k) * (std::abs(alpha) + std::abs(beta));
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol)
        << "m=" << m << " n=" << n << " k=" << k << " ta=" << (int)ta
        << " tb=" << (int)tb << " prec=" << (int)prec << " at " << i;
  }
}

struct ShapeCase {
  int m, n, k;
};

const ShapeCase kShapes[] = {
    {1, 1, 1},   {3, 2, 4},    {6, 16, 8},    {7, 17, 5},
    {13, 31, 29}, {48, 40, 64}, {70, 130, 33},
};

TEST(SgemmTuned, MatchesNaiveAcrossTuningParameterSpace) {
  tuning::reset();
  const TuneParams grid[] = {
      {},                       // defaults (historical constants)
      {6, 4, 16, 1, 0},         // minimal legal tiles
      {12, 48, 32, 2, 8},       // small tiles, unroll 2, prefetch
      {144, 512, 4096, 4, 4},   // tiles larger than most shapes
  };
  Rng rng(101);
  for (const TuneParams& tp : grid) {
    tuning::ScopedOverride pin(tp);
    for (const ShapeCase& s : kShapes) {
      check_sgemm(s.m, s.n, s.k, Trans::kNo, Trans::kNo, 1.0f, 0.0f,
                  Precision::kFp32, rng);
    }
    // Transpose flags and alpha/beta on a representative shape.
    for (Trans ta : {Trans::kNo, Trans::kYes}) {
      for (Trans tb : {Trans::kNo, Trans::kYes}) {
        check_sgemm(13, 31, 29, ta, tb, 0.5f, -1.25f, Precision::kFp32, rng);
      }
    }
  }
}

TEST(SgemmTuned, ReducedPrecisionMatchesQuantizedNaive) {
  tuning::reset();
  const TuneParams grid[] = {{}, {12, 48, 32, 2, 8}};
  Rng rng(202);
  const Precision prec = Precision::kBf16;
  for (const TuneParams& tp : grid) {
    tuning::ScopedOverride pin(tp);
    for (const ShapeCase& s : kShapes) {
      check_sgemm(s.m, s.n, s.k, Trans::kNo, Trans::kNo, 1.0f, 0.0f, prec,
                  rng);
    }
    check_sgemm(13, 31, 29, Trans::kYes, Trans::kNo, 1.0f, 1.0f, prec, rng);
    check_sgemm(13, 31, 29, Trans::kNo, Trans::kYes, 1.0f, 1.0f, prec, rng);
  }
}

TEST(SgemmTuned, UnrollAndPrefetchDoNotChangeFp32Bits) {
  // ku/pf reschedule the microkernel but keep each accumulator's FMA order,
  // so with identical cache blocking the fp32 result is bitwise identical.
  tuning::reset();
  Rng rng(303);
  const int m = 37, n = 53, k = 71;
  const std::vector<float> a = random_vec(static_cast<std::size_t>(m) * k,
                                          rng);
  const std::vector<float> b = random_vec(static_cast<std::size_t>(k) * n,
                                          rng);
  std::vector<float> c1(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> c2 = c1;
  {
    tuning::ScopedOverride pin(TuneParams{72, 256, 2048, 1, 0});
    sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k, b.data(), n,
          0.0f, c1.data(), n);
  }
  {
    tuning::ScopedOverride pin(TuneParams{72, 256, 2048, 4, 16});
    sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k, b.data(), n,
          0.0f, c2.data(), n);
  }
  EXPECT_EQ(c1, c2);
}

// --------------------------------------------------------- registry/keys

TEST(TuneRegistry, ShapeKeyBucketsToPow2) {
  EXPECT_EQ(tuning::shape_key(70, 260, 144), "m128n512k256");
  EXPECT_EQ(tuning::shape_key(128, 512, 256), "m128n512k256");
  EXPECT_EQ(tuning::shape_key(1, 1, 1), "m16n16k16");       // clamp low
  EXPECT_EQ(tuning::shape_key(9000, 5000, 4097),
            "m4096n4096k4096");                             // clamp high
}

TEST(TuneRegistry, SanitizeClampsToLegalGrid) {
  const TuneParams p = tuning::sanitize(TuneParams{-5, 0, 7, 3, 999});
  EXPECT_EQ(p.mc % 6, 0);
  EXPECT_GE(p.mc, 6);
  EXPECT_GE(p.kc, 4);
  EXPECT_EQ(p.nc % 16, 0);
  EXPECT_GE(p.nc, 16);
  EXPECT_TRUE(p.ku == 1 || p.ku == 2 || p.ku == 4);
  EXPECT_LE(p.pf, 64);
  EXPECT_GE(p.pf, 0);
  const TuneParams q = tuning::sanitize(TuneParams{});
  EXPECT_EQ(q, TuneParams{});  // defaults are already legal
}

TEST(TuneRegistry, SetParamsOverridesShapeClassAndResolvePublishesTiles) {
  tuning::reset();
  const TuneParams tp = tuning::sanitize(TuneParams{36, 128, 512, 2, 8});
  tuning::set_params(100, 500, 200, tp);
  EXPECT_EQ(tuning::table_size(), 1);
  // Same shape class (next-pow2 buckets) resolves to the entry...
  EXPECT_EQ(tuning::params_for(70, 260, 144), tp);
  // ...a different class falls back to defaults.
  EXPECT_EQ(tuning::params_for(8, 8, 8), TuneParams{});
  const bool was_enabled = adarnet::util::metrics::enabled();
  adarnet::util::metrics::set_enabled(true);
  (void)tuning::resolve(70, 260, 144);
  EXPECT_EQ(adarnet::util::metrics::gauge("nn.gemm.tile.mc").value(), 36.0);
  EXPECT_EQ(adarnet::util::metrics::gauge("nn.gemm.tile.kc").value(), 128.0);
  adarnet::util::metrics::set_enabled(was_enabled);
  tuning::reset();
}

TEST(TuneRegistry, ScopedOverrideNestsAndRestores) {
  tuning::reset();
  const TuneParams base = tuning::params_for(64, 64, 64);
  {
    tuning::ScopedOverride outer(TuneParams{12, 64, 256, 2, 0});
    EXPECT_EQ(tuning::params_for(64, 64, 64).mc, 12);
    {
      tuning::ScopedOverride inner(TuneParams{24, 32, 128, 4, 8});
      EXPECT_EQ(tuning::params_for(64, 64, 64).mc, 24);
    }
    EXPECT_EQ(tuning::params_for(64, 64, 64).mc, 12);
  }
  EXPECT_EQ(tuning::params_for(64, 64, 64), base);
}

// ------------------------------------------------------------ the sweep

TEST(TuneSweep, InstallsAWinnerAndStaysCorrect) {
  tuning::reset();
  tuning::SweepOptions opt;
  opt.flops_budget = 5e5;
  opt.passes = 1;
  const auto result = tuning::tune_shape(48, 64, 64, opt);
  EXPECT_GT(result.candidates, 8);  // phase A alone measures 9 schedules
  EXPECT_GT(result.best_gflops, 0.0);
  EXPECT_GT(result.default_gflops, 0.0);
  EXPECT_GE(result.best_gflops, result.default_gflops);
  EXPECT_EQ(tuning::table_size(), 1);
  EXPECT_EQ(tuning::params_for(48, 64, 64), result.best);
  // The tuned schedule still computes the right answer.
  Rng rng(404);
  check_sgemm(48, 64, 64, Trans::kNo, Trans::kNo, 1.0f, 0.0f,
              Precision::kFp32, rng);
  tuning::reset();
}

// ------------------------------------------------------------ the cache

TEST(TuneCache, RoundTripsThroughDisk) {
  tuning::reset();
  const TuneParams p1 = tuning::sanitize(TuneParams{36, 128, 512, 2, 8});
  const TuneParams p2 = tuning::sanitize(TuneParams{144, 512, 1024, 4, 0});
  tuning::set_params(64, 64, 64, p1);
  tuning::set_params(512, 2048, 512, p2);
  const std::string path = temp_path("adarnet_tuning_roundtrip.json");
  std::string err;
  ASSERT_TRUE(tuning::save_cache(path, &err)) << err;
  tuning::reset();
  EXPECT_EQ(tuning::table_size(), 0);
  ASSERT_TRUE(tuning::load_cache(path, &err)) << err;
  EXPECT_EQ(tuning::table_size(), 2);
  EXPECT_EQ(tuning::params_for(64, 64, 64), p1);
  EXPECT_EQ(tuning::params_for(512, 2048, 512), p2);
  std::remove(path.c_str());
  tuning::reset();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

TEST(TuneCache, CorruptOrTruncatedFileFallsBackToDefaults) {
  tuning::reset();
  const std::string path = temp_path("adarnet_tuning_bad.json");
  for (const char* text :
       {"this is not json at all", "{\"version\": 1, \"shapes\": {",
        "", "[1, 2, 3]"}) {
    write_file(path, text);
    std::string err;
    EXPECT_FALSE(tuning::load_cache(path, &err)) << text;
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(tuning::table_size(), 0);
    // sgemm still runs (on defaults) after a failed load.
    Rng rng(505);
    check_sgemm(6, 16, 8, Trans::kNo, Trans::kNo, 1.0f, 0.0f,
                Precision::kFp32, rng);
  }
  std::remove(path.c_str());
  tuning::reset();
}

TEST(TuneCache, VersionOrHardwareMismatchIsRejectedWholesale) {
  tuning::reset();
  tuning::set_params(64, 64, 64, TuneParams{36, 128, 512, 2, 8});
  const std::string path = temp_path("adarnet_tuning_mismatch.json");
  std::string err;
  ASSERT_TRUE(tuning::save_cache(path, &err)) << err;
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // A cache from a future library version...
  write_file(path, [&] {
    std::string t = text;
    const auto pos = t.find("\"version\":");
    t.replace(pos, t.find(',', pos) - pos, "\"version\": 999");
    return t;
  }());
  EXPECT_FALSE(tuning::load_cache(path, &err));
  EXPECT_EQ(tuning::table_size(), 0);  // rejected wholesale, back to defaults
  // ...and one from different hardware are both rejected.
  write_file(path, [&] {
    std::string t = text;
    const auto pos = t.find("\"isa\":");
    t.replace(pos, t.find(',', pos) - pos, "\"isa\": 77");
    return t;
  }());
  EXPECT_FALSE(tuning::load_cache(path, &err));
  EXPECT_EQ(tuning::table_size(), 0);
  std::remove(path.c_str());
  tuning::reset();
}

TEST(TuneCache, CacheFromAnotherIsaTierIsIgnoredAndCounted) {
  // The cache is keyed by the tier sgemm dispatches to, from the one probe.
  const int tier = adarnet::nn::gemm_isa_tier();
  EXPECT_EQ(tuning::hardware_key().isa, tier);
  const bool was_enabled = adarnet::util::metrics::enabled();
  adarnet::util::metrics::set_enabled(true);
  adarnet::util::metrics::Counter& errors =
      adarnet::util::metrics::counter("nn.gemm.tune.cache_error");
  tuning::reset();
  tuning::set_params(64, 64, 64, TuneParams{36, 128, 512, 2, 8});
  const std::string path = temp_path("adarnet_tuning_tier.json");
  std::string err;
  ASSERT_TRUE(tuning::save_cache(path, &err)) << err;
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::string own = "\"isa\": " + std::to_string(tier) + ",";
  ASSERT_NE(text.find(own), std::string::npos) << text;
  for (int other : {0, 1, 2}) {
    if (other == tier) continue;
    SCOPED_TRACE("recorded at tier " + std::to_string(other));
    std::string t = text;
    t.replace(t.find(own), own.size(),
              "\"isa\": " + std::to_string(other) + ",");
    write_file(path, t);
    const long long before = errors.value();
    EXPECT_FALSE(tuning::load_cache(path, &err));
    EXPECT_EQ(err, "hardware key mismatch");
    EXPECT_EQ(errors.value(), before + 1);
    EXPECT_EQ(tuning::table_size(), 0);
    EXPECT_EQ(tuning::params_for(64, 64, 64), TuneParams{});
  }
  adarnet::util::metrics::set_enabled(was_enabled);
  std::remove(path.c_str());
  tuning::reset();
}

TEST(TuneCache, ConcurrentWritersDoNotTearTheFile) {
  tuning::reset();
  tuning::set_params(64, 64, 64, TuneParams{36, 128, 512, 2, 8});
  tuning::set_params(128, 128, 128, TuneParams{72, 256, 1024, 4, 4});
  const std::string path = temp_path("adarnet_tuning_race.json");
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        if (!tuning::save_cache(path)) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Whatever interleaving happened, the file is a complete document.
  tuning::reset();
  std::string err;
  ASSERT_TRUE(tuning::load_cache(path, &err)) << err;
  EXPECT_EQ(tuning::table_size(), 2);
  std::remove(path.c_str());
  tuning::reset();
}

// ----------------------------------------------- conv + accuracy guard

TEST(PrecisionPath, ConvBf16ForwardStaysCloseToFp32) {
  Rng rng_a(606), rng_b(606), rng_in(707);
  Conv2D ref(4, 8, 3, rng_a);
  Conv2D red(4, 8, 3, rng_b);
  red.set_inference_precision(Precision::kBf16);
  Tensor in(2, 4, 8, 8);
  for (std::size_t k = 0; k < in.numel(); ++k) {
    in[k] = rng_in.uniformf(-1.0f, 1.0f);
  }
  const Tensor out_ref = ref.forward(in, /*train=*/false);
  const Tensor out_red = red.forward(in, /*train=*/false);
  ASSERT_TRUE(out_ref.same_shape(out_red));
  for (std::size_t k = 0; k < out_ref.numel(); ++k) {
    ASSERT_NEAR(out_ref[k], out_red[k], 0.05f) << k;
  }
  // Training forwards ignore the reduced precision: bitwise fp32.
  const Tensor t_ref = ref.forward(in, /*train=*/true);
  const Tensor t_red = red.forward(in, /*train=*/true);
  for (std::size_t k = 0; k < t_ref.numel(); ++k) {
    ASSERT_EQ(t_ref[k], t_red[k]) << k;
  }
}

TEST(PrecisionPath, ParseAndNames) {
  Precision p{};
  EXPECT_TRUE(adarnet::nn::parse_precision("bf16", &p));
  EXPECT_EQ(p, Precision::kBf16);
  EXPECT_TRUE(adarnet::nn::parse_precision("bfloat16", &p));
  EXPECT_EQ(p, Precision::kBf16);
  EXPECT_TRUE(adarnet::nn::parse_precision("f32", &p));
  EXPECT_EQ(p, Precision::kFp32);
  // Unknown spellings, the removed fp16 ones included, leave `out` alone.
  for (const char* bad : {"int8", "fp16", "f16", "half"}) {
    p = Precision::kBf16;
    EXPECT_FALSE(adarnet::nn::parse_precision(bad, &p)) << bad;
    EXPECT_EQ(p, Precision::kBf16) << bad;
  }
  EXPECT_STREQ(adarnet::nn::precision_name(Precision::kBf16), "bf16");
  EXPECT_STREQ(adarnet::nn::precision_name(Precision::kFp32), "fp32");
}

TEST(PrecisionPath, DefaultPrecisionIsProcessWide) {
  const Precision before = Conv2D::default_precision();
  Conv2D::set_default_precision(Precision::kBf16);
  Rng rng(808);
  Conv2D conv(2, 2, 3, rng);
  EXPECT_EQ(conv.inference_precision(), Precision::kBf16);
  Conv2D::set_default_precision(before);
}

adarnet::field::FlowField guard_field(int ny, int nx) {
  adarnet::field::FlowField f(ny, nx);
  for (int i = 0; i < ny; ++i) {
    for (int j = 0; j < nx; ++j) {
      const double x = static_cast<double>(j) / nx;
      const double y = static_cast<double>(i) / ny;
      f.U(i, j) = 1.0 + 0.3 * std::sin(6.28 * x) * y;
      f.V(i, j) = 0.1 * std::cos(6.28 * y);
      f.p(i, j) = 0.5 * (1.0 - x);
      f.nuTilda(i, j) = 1e-4 * y * (1.0 - y);
    }
  }
  return f;
}

// A model whose decoder actually computes something: the final layer is
// zero-initialised by design, so an untrained decoder is exact in every
// precision. Randomizing all weights gives the guard a real signal.
adarnet::core::AdarNet guard_model(Rng& rng) {
  adarnet::core::AdarNetConfig cfg;
  cfg.ph = 8;
  cfg.pw = 8;
  adarnet::core::AdarNet model(cfg, rng);
  for (adarnet::nn::Parameter* p : model.parameters()) {
    for (std::size_t k = 0; k < p->value.numel(); ++k) {
      p->value[k] = static_cast<float>(rng.normal(0.0, 0.1));
    }
  }
  return model;
}

TEST(PrecisionGuard, AcceptsWithinBoundAndAppliesPrecision) {
  Rng rng(909);
  auto model = guard_model(rng);
  const auto lr = guard_field(16, 16);
  model.stats() = adarnet::data::NormStats::fit({lr});
  adarnet::core::PrecisionGuardConfig cfg;
  cfg.rel_mse_bound = 0.5;  // generous: bf16 storage error is ~1e-5 here
  const auto report = adarnet::core::apply_inference_precision(
      model, lr, Precision::kBf16, cfg);
  EXPECT_TRUE(report.accepted);
  EXPECT_EQ(report.applied, Precision::kBf16);
  EXPECT_EQ(model.inference_precision(), Precision::kBf16);
  EXPECT_GT(report.rel_mse, 0.0);  // randomized weights: a real comparison
  EXPECT_LT(report.rel_mse, 0.5);
  model.set_inference_precision(Precision::kFp32);
}

TEST(PrecisionGuard, OutOfBoundTriggersFp32Fallback) {
  Rng rng(919);
  auto model = guard_model(rng);
  const auto lr = guard_field(16, 16);
  model.stats() = adarnet::data::NormStats::fit({lr});
  auto& fallbacks = adarnet::util::metrics::counter("nn.precision.fallback");
  const bool was_enabled = adarnet::util::metrics::enabled();
  adarnet::util::metrics::set_enabled(true);
  const auto before = fallbacks.value();
  adarnet::core::PrecisionGuardConfig cfg;
  cfg.rel_mse_bound = -1.0;  // impossible: any nonzero error refuses
  const auto report = adarnet::core::apply_inference_precision(
      model, lr, Precision::kBf16, cfg);
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.requested, Precision::kBf16);
  EXPECT_EQ(report.applied, Precision::kFp32);
  EXPECT_EQ(model.inference_precision(), Precision::kFp32);
  EXPECT_EQ(fallbacks.value(), before + 1);
  adarnet::util::metrics::set_enabled(was_enabled);
}

TEST(PrecisionGuard, Fp32RequestShortCircuits) {
  Rng rng(929);
  auto model = guard_model(rng);
  const auto lr = guard_field(16, 16);
  const auto report = adarnet::core::apply_inference_precision(
      model, lr, Precision::kFp32);
  EXPECT_TRUE(report.accepted);
  EXPECT_EQ(report.applied, Precision::kFp32);
  EXPECT_EQ(report.rel_mse, 0.0);
}

}  // namespace
