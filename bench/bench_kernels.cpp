// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// convolution forward/backward, a SIMPLE outer iteration, composite ghost
// exchange, bicubic resampling, and the PDE-residual adjoint. These back
// the timing numbers in the table benches and catch performance
// regressions.
//
// After the google-benchmark pass, main() runs a roofline measurement pass
// over the GEMM and convolution kernels at each size, and over the
// decoder's six layers on a 64x64 patch, and writes
// BENCH_kernels.json with per-shape {flops, bytes, seconds, gflops_per_s,
// arithmetic_intensity} entries — the document bench_diff gates CI on.
// ADARNET_BENCH_KERNELS_FAST=1 skips the google-benchmark pass and shrinks
// the roofline pass (CI's bench-smoke mode).
#include <benchmark/benchmark.h>

#include "adarnet/pde_loss.hpp"
#include "common.hpp"
#include "data/cases.hpp"
#include "field/interp.hpp"
#include "mesh/composite.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "solver/rans.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace adarnet;

// The implicit-GEMM convolution forward (every size here reads B from the
// zero-padded input) at a 16 -> 16 channel, k=3 shape over a range of
// patch sizes.
void BM_Conv2DForward(benchmark::State& state) {
  const int hw = static_cast<int>(state.range(0));
  util::Rng rng(1);
  nn::Conv2D conv(16, 16, 3, rng);
  nn::Tensor in(1, 16, hw, hw);
  for (std::size_t k = 0; k < in.numel(); ++k) in[k] = 0.01f * (k % 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(in, false));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(hw) * hw *
                          16 * 16 * 9);
}
BENCHMARK(BM_Conv2DForward)
    ->ArgName("hw")
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

void BM_Conv2DBackward(benchmark::State& state) {
  const int hw = static_cast<int>(state.range(0));
  util::Rng rng(1);
  nn::Conv2D conv(16, 16, 3, rng);
  nn::Tensor in(1, 16, hw, hw);
  nn::Tensor out = conv.forward(in, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(out));
  }
}
BENCHMARK(BM_Conv2DBackward)->ArgName("hw")->Arg(16)->Arg(64);

void BM_SimpleOuterIteration(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  auto spec = data::channel_case(2.5e3, data::GridPreset{16, 64, 8, 8});
  mesh::CompositeMesh mesh(spec,
                           mesh::RefinementMap(spec.npy(), spec.npx(), level));
  solver::SolverConfig cfg;
  solver::RansSolver solver(mesh, cfg);
  auto f = mesh::make_field(mesh);
  solver.initialize_freestream(f);
  for (auto _ : state) {
    solver.iterate(f, 1);
  }
  state.SetItemsProcessed(state.iterations() * mesh.active_cells());
}
BENCHMARK(BM_SimpleOuterIteration)->Arg(0)->Arg(1)->Arg(2);

void BM_GhostExchange(benchmark::State& state) {
  auto spec = data::channel_case(2.5e3, data::GridPreset{32, 128, 8, 8});
  mesh::RefinementMap map(spec.npy(), spec.npx(), 0);
  for (int pj = 0; pj < spec.npx(); ++pj) map.set_level(0, pj, 2);
  mesh::CompositeMesh mesh(spec, map);
  auto s = mesh::make_scalar(mesh);
  for (auto _ : state) {
    mesh::exchange_ghosts(s, mesh);
  }
}
BENCHMARK(BM_GhostExchange);

void BM_BicubicUpsample(benchmark::State& state) {
  const int factor = static_cast<int>(state.range(0));
  field::Grid2Dd src(16, 16);
  for (std::size_t k = 0; k < src.size(); ++k) src[k] = 0.1 * (k % 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        field::upsample(src, factor, field::Interp::kBicubic));
  }
}
BENCHMARK(BM_BicubicUpsample)->Arg(2)->Arg(4)->Arg(8);

void BM_PdeResidualAdjoint(benchmark::State& state) {
  const int hw = static_cast<int>(state.range(0));
  field::FlowField f(hw, hw);
  for (int i = 0; i < hw; ++i) {
    for (int j = 0; j < hw; ++j) {
      f.U(i, j) = 0.01 * i + 0.02 * j;
      f.V(i, j) = 0.005 * i;
      f.p(i, j) = -0.01 * j;
      f.nuTilda(i, j) = 1e-4;
    }
  }
  const core::PdeOptions opt{1.5e-5, 0.01, 0.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pde_residual_loss(f, opt));
  }
  state.SetItemsProcessed(state.iterations() * hw * hw);
}
BENCHMARK(BM_PdeResidualAdjoint)->Arg(32)->Arg(128);

// ---------------------------------------------------------------------------
// Roofline measurement pass. Each kernel shape is timed in isolation with
// enough repetitions to hit a fixed FLOP budget, and the entry pairs the
// measured wall time with the shape's roofline model (forward_flops /
// sgemm_flops — model FLOPs and compulsory bytes, not hardware counters).

// Repetitions that reach ~`target_flops` total work (at least one).
int reps_for(double flops_per_call, double target_flops) {
  if (flops_per_call <= 0.0) return 1;
  const double r = target_flops / flops_per_call;
  return r < 1.0 ? 1 : (r > 1e6 ? 1000000 : static_cast<int>(r));
}

std::string roofline_entry(double flops, double bytes, double seconds,
                           int reps) {
  bench::JsonObject e;
  e.add("reps", reps)
      .add("flops", flops)
      .add("bytes", bytes)
      .add("seconds", seconds)
      .add("gflops_per_s", seconds > 0.0 ? flops / seconds * 1e-9 : 0.0)
      .add("arithmetic_intensity", bytes > 0.0 ? flops / bytes : 0.0);
  return e.str();
}

// Times the forward of a k=3 conv layer (in_c -> out_c channels; flipped:
// a Deconv2D) on one hw x hw sample and writes its roofline entry.
void roofline_conv_forward(bench::JsonObject& out, const std::string& key,
                           int in_c, int out_c, bool flipped, int hw,
                           double target_flops) {
  util::Rng rng(1);
  nn::Conv2D conv(in_c, out_c, 3, rng, flipped);
  nn::Tensor in(1, in_c, hw, hw);
  for (std::size_t k = 0; k < in.numel(); ++k) in[k] = 0.01f * (k % 97);
  const double flops1 = static_cast<double>(conv.forward_flops(1, hw, hw));
  const double bytes1 = static_cast<double>(conv.forward_bytes(1, hw, hw));
  const int reps = reps_for(flops1, target_flops);
  (void)conv.forward(in, false);  // warm up weights pack + arena
  util::WallTimer timer;
  for (int r = 0; r < reps; ++r) (void)conv.forward(in, false);
  out.add_raw(key, roofline_entry(flops1 * reps, bytes1 * reps,
                                  timer.seconds(), reps));
}

// The decoder's six layers (adarnet/decoder.cpp: 6 -> 8 -> 16 -> 64 convs,
// then 64 -> 64 -> 16 -> 4 deconvs, all k = 3), timed on a level-3 64x64
// patch and named by the GEMM each runs: m output channels, k = 9 * input
// channels.
struct DecoderLayer {
  int in_c;
  int out_c;
  bool deconv;
};
constexpr DecoderLayer kDecoderLayers[] = {
    {6, 8, false},   {8, 16, false},  {16, 64, false},
    {64, 64, true},  {64, 16, true},  {16, 4, true},
};

// Times sgemm at (m, n, k) and writes its roofline entry.
void roofline_gemm(bench::JsonObject& out, int m, int n, int k,
                   double target_flops) {
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.01f * (i % 89);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.02f * (i % 83);
  const double flops1 = static_cast<double>(nn::sgemm_flops(m, n, k));
  const double bytes1 = static_cast<double>(nn::sgemm_bytes(m, n, k));
  const int reps = reps_for(flops1, target_flops);
  nn::sgemm(nn::Trans::kNo, nn::Trans::kNo, m, n, k, 1.0f, a.data(), k,
            b.data(), n, 0.0f, c.data(), n);  // warm up arena
  util::WallTimer timer;
  for (int r = 0; r < reps; ++r) {
    nn::sgemm(nn::Trans::kNo, nn::Trans::kNo, m, n, k, 1.0f, a.data(), k,
              b.data(), n, 0.0f, c.data(), n);
  }
  const std::string key = "gemm.m" + std::to_string(m) + "n" +
                          std::to_string(n) + "k" + std::to_string(k);
  out.add_raw(key, roofline_entry(flops1 * reps, bytes1 * reps,
                                  timer.seconds(), reps));
}

// Skinny and tall shapes the conv stack produces, next to the square ones:
// decoder heads (6 output taps over a 64x64 patch, or over 128x128 with a
// 16-channel im2col), a wide conv panel at 128x128 and the tall
// weight-gradient transpose.
constexpr int kSkinnyShapes[][3] = {
    {6, 4096, 1024},
    {6, 16384, 144},
    {72, 16384, 144},
    {1024, 16, 1024},
};

}  // namespace

int main(int argc, char** argv) {
  adarnet::util::WallTimer wall;
  adarnet::util::metrics::reset();
  const bool fast =
      adarnet::bench::env_int("ADARNET_BENCH_KERNELS_FAST", 0) != 0;
  if (!fast) {
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
  }

  // The fast budget keeps the whole pass under a second; the full budget
  // is large enough that per-call noise stays below bench_diff's gate.
  const double target = fast ? 5e7 : 1e9;
  // Untimed warm-up (bench::warm_up) on the first shape: 20 calls under
  // 20 ms together, 1 ms a call, far below any machine's speed on it.
  {
    adarnet::util::Rng rng(1);
    adarnet::nn::Conv2D conv(16, 16, 3, rng);
    const adarnet::nn::Tensor in(1, 16, 16, 16);
    adarnet::bench::warm_up(
        [&] {
          for (int r = 0; r < 20; ++r) (void)conv.forward(in, false);
        },
        0.02);
  }
  adarnet::bench::JsonObject by_size;
  for (int hw : {16, 32, 64, 128}) {
    roofline_conv_forward(by_size, "conv.forward.hw" + std::to_string(hw), 16,
                          16, false, hw, target);
  }
  for (const auto& layer : kDecoderLayers) {
    roofline_conv_forward(by_size,
                          "conv.decoder.m" + std::to_string(layer.out_c) +
                              "k" + std::to_string(9 * layer.in_c) + ".hw64",
                          layer.in_c, layer.out_c, layer.deconv, 64, target);
  }
  for (int s : {64, 128, 256}) {
    roofline_gemm(by_size, s, s, s, target);
  }
  for (const auto& shape : kSkinnyShapes) {
    roofline_gemm(by_size, shape[0], shape[1], shape[2], target);
  }

  adarnet::bench::JsonObject doc;
  doc.add("bench", "kernels").add("fast", fast);
  adarnet::bench::add_observability(doc, wall.seconds(), by_size.str());
  adarnet::bench::write_json("BENCH_kernels.json", doc.str());
  return 0;
}
