#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <new>
#include <type_traits>

#include "nn/half.hpp"
#include "nn/im2col.hpp"
#include "nn/tensor.hpp"  // memory counters
#include "nn/tune.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define ADARNET_GEMM_X86 1
#endif

namespace adarnet::nn {

namespace {

// Register tile (fixed: the microkernels are compiled for it). The cache
// blocking (Mc/Kc/Nc) and the microkernel schedule (k-unroll, prefetch
// distance) are runtime TuneParams resolved per shape class (nn/tune.hpp);
// TuneParams' defaults reproduce the historical constants kMc=72, kKc=256,
// kNc=2048, no unroll, no prefetch.
constexpr int kMR = 6;
constexpr int kNR = 16;

constexpr std::size_t kAlignFloats = 16;  // 64-byte alignment

std::size_t align_up(std::size_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

float* raw_alloc(std::size_t floats) {
  return static_cast<float*>(::operator new[](
      floats * sizeof(float), std::align_val_t(64)));
}

void raw_free(float* p, std::size_t floats) {
  if (!p) return;
  ::operator delete[](p, floats * sizeof(float), std::align_val_t(64));
  (void)floats;
}

// Packed-operand storage converters. Arithmetic is fp32 in every mode;
// these only define what the pack step writes (store) and what the
// portable kernel widens on read (load). The AVX2 kernels widen with
// shifts, which agree bitwise with these scalar helpers.
struct CvtF32 {
  using elt = float;
  static elt store(float v) { return v; }
  static float load(elt v) { return v; }
};

struct CvtBf16 {
  using elt = std::uint16_t;
  static elt store(float v) { return half::f32_to_bf16(v); }
  static float load(elt v) { return half::bf16_to_f32(v); }
};

// op(A)(i, p): element (i, p) of the transposed-or-not operand.
inline float op_at(const float* a, int lda, Trans t, int i, int p) {
  return t == Trans::kNo ? a[static_cast<std::size_t>(i) * lda + p]
                         : a[static_cast<std::size_t>(p) * lda + i];
}

// Packs an (mc x kc) block of op(A) into MR-row panels: panel ir holds
// kc columns of MR interleaved row values, zero-padded past mc. Reduced
// precisions convert here — the one place every A element passes through.
template <class Cvt>
void pack_a(const float* a, int lda, Trans ta, int i0, int p0, int mc,
            int kc, typename Cvt::elt* dst) {
  for (int ir = 0; ir < mc; ir += kMR) {
    const int mr = std::min(kMR, mc - ir);
    for (int p = 0; p < kc; ++p) {
      for (int r = 0; r < kMR; ++r) {
        *dst++ = Cvt::store(
            r < mr ? op_at(a, lda, ta, i0 + ir + r, p0 + p) : 0.0f);
      }
    }
  }
}

// B-panel sources for the block loop: each packs a (kc x nc) block of
// the B operand, rows [p0, p0 + kc) x columns [j0, j0 + nc), into NR-column
// panels (panel jr holds kc rows of NR values, zero-padded past nc),
// converting like pack_a.

// A stored matrix, op(B) = B or B^T (fp32 no-transpose full panels are
// straight row copies).
struct DenseB {
  const float* b;
  int ldb;
  Trans tb;

  template <class Cvt>
  void pack(int p0, int j0, int kc, int nc, typename Cvt::elt* dst) const {
    for (int jr = 0; jr < nc; jr += kNR) {
      const int nr = std::min(kNR, nc - jr);
      if constexpr (std::is_same_v<typename Cvt::elt, float>) {
        if (tb == Trans::kNo && nr == kNR) {
          // Contiguous rows of B: straight 16-float copies.
          for (int p = 0; p < kc; ++p) {
            std::memcpy(dst,
                        b + static_cast<std::size_t>(p0 + p) * ldb + j0 + jr,
                        kNR * sizeof(float));
            dst += kNR;
          }
          continue;
        }
      }
      for (int p = 0; p < kc; ++p) {
        for (int q = 0; q < kNR; ++q) {
          *dst++ = Cvt::store(
              q < nr ? op_at(b, ldb, tb, p0 + p, j0 + jr + q) : 0.0f);
        }
      }
    }
  }
};

// The im2col matrix of one conv sample, never materialised: row p is the
// input plane rows[p] names, shifted (nn/im2col.hpp); column j is output
// cell (j / w, j % w). Each panel row is assembled from shifted input
// rows with shift_row, the helper im2col itself is made of, so the packed
// panel is the one DenseB would make from the col matrix.
struct ConvB {
  const ColRow* rows;  // one per K row, built once per call
  const float* src;    // the sample's c planes
  int h;
  int w;

  // Input row y of the plane `r` reads, or null outside the plane.
  const float* row_at(const ColRow& r, int y) const {
    const int yy = y + r.dy;
    return yy >= 0 && yy < h
               ? src + r.offset + static_cast<std::size_t>(yy) * w
               : nullptr;
  }

  template <class Cvt>
  void pack(int p0, int j0, int kc, int nc, typename Cvt::elt* dst) const {
    const ColRow* rp = rows + p0;
    for (int jr = 0; jr < nc; jr += kNR) {
      const int j = j0 + jr;
      if (w % kNR == 0) {
        // One-row fast path: the panel's 16 columns are cells [x0, x0 + 16)
        // of image row y. This needs j0 and nc to be multiples of 16;
        // sanitize() rounds every schedule's nc to one, so with h*w a
        // multiple of 16 each panel is full and within one image row. It
        // runs 14-23% faster than row segments on conv forward (DESIGN.md
        // §6).
        const int y = j / w;
        const int x0 = j - y * w;
        for (int p = 0; p < kc; ++p, dst += kNR) {
          const float* row = row_at(rp[p], y);
          const int s = x0 + rp[p].dx;
          if (row && s >= 0 && s + kNR <= w) {
            for (int q = 0; q < kNR; ++q) dst[q] = Cvt::store(row[s + q]);
          } else {
            shift_row<Cvt>(row, w, x0, rp[p].dx, kNR, dst);
          }
        }
        continue;
      }
      // Row segments: split the panel's columns into runs within one image
      // row, then assemble each panel row from one shifted row per run.
      struct Segment {
        int q, y, x, len;
      };
      Segment seg[kNR];
      int nseg = 0;
      const int nr = std::min(kNR, nc - jr);
      for (int q = 0, y = j / w, x = j - y * w; q < nr; ++y, x = 0) {
        const int len = std::min(w - x, nr - q);
        seg[nseg++] = {q, y, x, len};
        q += len;
      }
      for (int p = 0; p < kc; ++p, dst += kNR) {
        for (int g = 0; g < nseg; ++g) {
          shift_row<Cvt>(row_at(rp[p], seg[g].y), w, seg[g].x, rp[p].dx,
                         seg[g].len, dst + seg[g].q);
        }
        for (int q = nr; q < kNR; ++q) dst[q] = Cvt::store(0.0f);
      }
    }
  }
};

// Portable microkernel: acc(MR x NR) = packed_a panel * packed_b panel.
// The compiler vectorises the NR loop at the baseline ISA. Ignores the
// prefetch distance (hardware prefetch covers the streaming panels).
template <class Cvt>
void kernel_portable(int kc, const typename Cvt::elt* ap,
                     const typename Cvt::elt* bp, float* acc, int /*pf*/) {
  std::memset(acc, 0, sizeof(float) * kMR * kNR);
  for (int p = 0; p < kc; ++p) {
    float brow[kNR];
    for (int q = 0; q < kNR; ++q) brow[q] = Cvt::load(bp[q]);
    for (int r = 0; r < kMR; ++r) {
      const float av = Cvt::load(ap[r]);
      float* arow = acc + r * kNR;
      for (int q = 0; q < kNR; ++q) arow[q] += av * brow[q];
    }
    ap += kMR;
    bp += kNR;
  }
}

#ifdef ADARNET_GEMM_X86

// One k-step of the 6x16 register tile: 2 B vectors, 6 A broadcasts,
// 12 FMAs. LOAD_B/BCAST_A abstract the storage format so the same body
// serves fp32 panels and the bf16 ones (widened on load).
#define ADARNET_GEMM_STEP(AP, BP, LOAD_B, BCAST_A) \
  {                                                \
    const __m256 b0 = LOAD_B(BP);                  \
    const __m256 b1 = LOAD_B((BP) + 8);            \
    __m256 av;                                     \
    av = BCAST_A((AP) + 0);                        \
    c0a = _mm256_fmadd_ps(av, b0, c0a);            \
    c0b = _mm256_fmadd_ps(av, b1, c0b);            \
    av = BCAST_A((AP) + 1);                        \
    c1a = _mm256_fmadd_ps(av, b0, c1a);            \
    c1b = _mm256_fmadd_ps(av, b1, c1b);            \
    av = BCAST_A((AP) + 2);                        \
    c2a = _mm256_fmadd_ps(av, b0, c2a);            \
    c2b = _mm256_fmadd_ps(av, b1, c2b);            \
    av = BCAST_A((AP) + 3);                        \
    c3a = _mm256_fmadd_ps(av, b0, c3a);            \
    c3b = _mm256_fmadd_ps(av, b1, c3b);            \
    av = BCAST_A((AP) + 4);                        \
    c4a = _mm256_fmadd_ps(av, b0, c4a);            \
    c4b = _mm256_fmadd_ps(av, b1, c4b);            \
    av = BCAST_A((AP) + 5);                        \
    c5a = _mm256_fmadd_ps(av, b0, c5a);            \
    c5b = _mm256_fmadd_ps(av, b1, c5b);            \
  }

// AVX2+FMA microkernel family: 12 ymm accumulators, UNROLL k-steps per
// iteration, optional software prefetch `pf` k-steps ahead. Per-
// accumulator FMA order is identical across unroll factors (u-sequential),
// so fp32 results are bitwise-independent of ku/pf — only the cache
// blocking changes summation grouping. Compiled for the stated target in
// this TU only and gated by the runtime CPU checks below.
#define ADARNET_DEF_AVX2_KERNEL(NAME, TARGET, ELT, LOAD_B, BCAST_A, UNROLL) \
  __attribute__((target(TARGET))) void NAME(                                \
      int kc, const ELT* ap, const ELT* bp, float* acc, int pf) {           \
    __m256 c0a = _mm256_setzero_ps(), c0b = _mm256_setzero_ps();            \
    __m256 c1a = _mm256_setzero_ps(), c1b = _mm256_setzero_ps();            \
    __m256 c2a = _mm256_setzero_ps(), c2b = _mm256_setzero_ps();            \
    __m256 c3a = _mm256_setzero_ps(), c3b = _mm256_setzero_ps();            \
    __m256 c4a = _mm256_setzero_ps(), c4b = _mm256_setzero_ps();            \
    __m256 c5a = _mm256_setzero_ps(), c5b = _mm256_setzero_ps();            \
    int p = 0;                                                              \
    const int kmain = kc - kc % (UNROLL);                                   \
    for (; p < kmain; p += (UNROLL)) {                                      \
      if (pf > 0) {                                                         \
        _mm_prefetch(reinterpret_cast<const char*>(                         \
                         bp + static_cast<std::size_t>(pf) * kNR),          \
                     _MM_HINT_T0);                                          \
        _mm_prefetch(reinterpret_cast<const char*>(                         \
                         ap + static_cast<std::size_t>(pf) * kMR),          \
                     _MM_HINT_T0);                                          \
      }                                                                     \
      for (int u = 0; u < (UNROLL); ++u) {                                  \
        ADARNET_GEMM_STEP(ap + u * kMR, bp + u * kNR, LOAD_B, BCAST_A)      \
      }                                                                     \
      ap += (UNROLL) * kMR;                                                 \
      bp += (UNROLL) * kNR;                                                 \
    }                                                                       \
    for (; p < kc; ++p) {                                                   \
      ADARNET_GEMM_STEP(ap, bp, LOAD_B, BCAST_A)                            \
      ap += kMR;                                                            \
      bp += kNR;                                                            \
    }                                                                       \
    _mm256_store_ps(acc + 0 * kNR, c0a);                                    \
    _mm256_store_ps(acc + 0 * kNR + 8, c0b);                                \
    _mm256_store_ps(acc + 1 * kNR, c1a);                                    \
    _mm256_store_ps(acc + 1 * kNR + 8, c1b);                                \
    _mm256_store_ps(acc + 2 * kNR, c2a);                                    \
    _mm256_store_ps(acc + 2 * kNR + 8, c2b);                                \
    _mm256_store_ps(acc + 3 * kNR, c3a);                                    \
    _mm256_store_ps(acc + 3 * kNR + 8, c3b);                                \
    _mm256_store_ps(acc + 4 * kNR, c4a);                                    \
    _mm256_store_ps(acc + 4 * kNR + 8, c4b);                                \
    _mm256_store_ps(acc + 5 * kNR, c5a);                                    \
    _mm256_store_ps(acc + 5 * kNR + 8, c5b);                                \
  }

// fp32 panels: plain aligned loads / broadcasts.
#define ADARNET_LOAD_F32(P) _mm256_load_ps(P)
#define ADARNET_BCAST_F32(P) _mm256_broadcast_ss(P)
// bf16 panels (AVX2 emulation): widen 8 x u16 to u32 lanes and shift into
// the fp32 high halves — exact, since bf16 is truncated fp32. Panel rows
// are 32-byte aligned (16 x u16 from a 64-byte-aligned base).
#define ADARNET_LOAD_BF16(P)                                     \
  _mm256_castsi256_ps(_mm256_slli_epi32(                         \
      _mm256_cvtepu16_epi32(                                     \
          _mm_load_si128(reinterpret_cast<const __m128i*>(P))),  \
      16))
#define ADARNET_BCAST_BF16(P) _mm256_set1_ps(half::bf16_to_f32(*(P)))

ADARNET_DEF_AVX2_KERNEL(kernel_avx2_f32_u1, "avx2,fma", float,
                        ADARNET_LOAD_F32, ADARNET_BCAST_F32, 1)
ADARNET_DEF_AVX2_KERNEL(kernel_avx2_f32_u2, "avx2,fma", float,
                        ADARNET_LOAD_F32, ADARNET_BCAST_F32, 2)
ADARNET_DEF_AVX2_KERNEL(kernel_avx2_f32_u4, "avx2,fma", float,
                        ADARNET_LOAD_F32, ADARNET_BCAST_F32, 4)
ADARNET_DEF_AVX2_KERNEL(kernel_avx2_bf16_u1, "avx2,fma", std::uint16_t,
                        ADARNET_LOAD_BF16, ADARNET_BCAST_BF16, 1)
ADARNET_DEF_AVX2_KERNEL(kernel_avx2_bf16_u2, "avx2,fma", std::uint16_t,
                        ADARNET_LOAD_BF16, ADARNET_BCAST_BF16, 2)
ADARNET_DEF_AVX2_KERNEL(kernel_avx2_bf16_u4, "avx2,fma", std::uint16_t,
                        ADARNET_LOAD_BF16, ADARNET_BCAST_BF16, 4)

bool have_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2") &&
                         __builtin_cpu_supports("fma");
  return ok;
}
#endif  // ADARNET_GEMM_X86

using KernF32 = void (*)(int, const float*, const float*, float*, int);
using KernU16 = void (*)(int, const std::uint16_t*, const std::uint16_t*,
                         float*, int);

KernF32 select_f32(int ku) {
#ifdef ADARNET_GEMM_X86
  if (have_avx2()) {
    if (ku >= 4) return kernel_avx2_f32_u4;
    if (ku >= 2) return kernel_avx2_f32_u2;
    return kernel_avx2_f32_u1;
  }
#endif
  (void)ku;
  return kernel_portable<CvtF32>;
}

KernU16 select_bf16(int ku) {
#ifdef ADARNET_GEMM_X86
  if (have_avx2()) {
    if (ku >= 4) return kernel_avx2_bf16_u4;
    if (ku >= 2) return kernel_avx2_bf16_u2;
    return kernel_avx2_bf16_u1;
  }
#endif
  (void)ku;
  return kernel_portable<CvtBf16>;
}

}  // namespace

Arena::~Arena() {
  raw_free(base_, cap_floats_);
  for (const Block& blk : overflow_) raw_free(blk.ptr, blk.floats);
}

Arena& Arena::local() {
  // Arenas outlive their threads in a process-wide pool, so a restarted
  // serving worker leases the previous worker's warm arena instead of
  // growing a fresh one. Pool and arenas are leaked: threads return their
  // lease during exit.
  static std::mutex* pool_mu = new std::mutex();
  static std::vector<Arena*>* pool = new std::vector<Arena*>();
  struct Lease {
    Arena* arena = nullptr;
    Lease() {
      std::lock_guard<std::mutex> lock(*pool_mu);
      if (pool->empty()) pool->push_back(new Arena());
      arena = pool->back();
      pool->pop_back();
    }
    ~Lease() {
      std::lock_guard<std::mutex> lock(*pool_mu);
      pool->push_back(arena);
    }
  };
  thread_local Lease lease;
  return *lease.arena;
}

std::size_t Arena::capacity_bytes() const {
  std::size_t total = cap_floats_;
  for (const Block& blk : overflow_) total += blk.floats;
  return total * sizeof(float);
}

void Arena::consolidate() {
  if (overflow_.empty() || used_ != 0 || depth_ != 0) return;
  std::size_t total = cap_floats_;
  for (const Block& blk : overflow_) total += align_up(blk.floats);
  for (const Block& blk : overflow_) {
    raw_free(blk.ptr, blk.floats);
    memory::detail::on_free(
        static_cast<std::int64_t>(blk.floats * sizeof(float)));
  }
  overflow_.clear();
  raw_free(base_, cap_floats_);
  memory::detail::on_free(
      static_cast<std::int64_t>(cap_floats_ * sizeof(float)));
  base_ = raw_alloc(total);
  cap_floats_ = total;
  memory::detail::on_alloc(static_cast<std::int64_t>(total * sizeof(float)));
}

void Arena::reserve(std::size_t bytes) {
  const std::size_t floats = align_up((bytes + sizeof(float) - 1) /
                                      sizeof(float));
  // Live suballocations (open scopes): overflow blocks cover any shortfall
  // and get folded in on the closing release().
  if (used_ != 0 || depth_ != 0) return;
  consolidate();
  if (floats <= cap_floats_) return;
  raw_free(base_, cap_floats_);
  memory::detail::on_free(
      static_cast<std::int64_t>(cap_floats_ * sizeof(float)));
  base_ = raw_alloc(floats);
  cap_floats_ = floats;
  memory::detail::on_alloc(static_cast<std::int64_t>(floats * sizeof(float)));
}

float* Arena::alloc_floats(std::size_t count) {
  count = align_up(count);
  if (used_ + count <= cap_floats_) {
    float* p = base_ + used_;
    used_ += count;
    return p;
  }
  // Out of main-block space mid-operation: serve from a dedicated block so
  // existing suballocation pointers stay valid. Folded in on next idle.
  Block blk{raw_alloc(count), count};
  memory::detail::on_alloc(static_cast<std::int64_t>(count * sizeof(float)));
  overflow_.push_back(blk);
  return blk.ptr;
}

std::int64_t sgemm_flops(int m, int n, int k) {
  return 2LL * m * n * k;
}

std::int64_t sgemm_bytes(int m, int n, int k, Precision precision) {
  const std::int64_t mm = m, nn = n, kk = k;
  const std::int64_t ab_elt =
      precision == Precision::kFp32 ? static_cast<std::int64_t>(sizeof(float))
                                    : 2;
  return (mm * kk + kk * nn) * ab_elt +
         2 * mm * nn * static_cast<std::int64_t>(sizeof(float));
}

namespace {

// Roofline accounting: cumulative FLOPs, compulsory bytes, and wall time
// of every sgemm call, published as counters plus two derived gauges
// (achieved GF/s and arithmetic intensity). The wall time is one
// event-free scope per call (sgemm runs per sample per layer) feeding
// nn.gemm.ns and the caller's phase; an enabled process adds a handful of
// relaxed RMWs — both noise against a GEMM.
struct GemmInstruments {
  util::metrics::Counter& calls = util::metrics::counter("nn.gemm.calls");
  util::metrics::Counter& flops = util::metrics::counter("nn.gemm.flops");
  util::metrics::Counter& bytes = util::metrics::counter("nn.gemm.bytes");
  util::metrics::Counter& ns = util::metrics::counter("nn.gemm.ns");
  util::metrics::Gauge& gflops =
      util::metrics::gauge("nn.gemm.gflops_per_s");
  util::metrics::Gauge& intensity =
      util::metrics::gauge("nn.gemm.arithmetic_intensity");
  const util::trace::Site scope{"nn.gemm", &ns, util::trace::kInherit,
                                false};
};

GemmInstruments& gemm_instruments() {
  static GemmInstruments ins;
  return ins;
}

void account_sgemm(GemmInstruments& ins, int m, int n, int k,
                   Precision precision) {
  ins.calls.add();
  ins.flops.add(sgemm_flops(m, n, k));
  ins.bytes.add(sgemm_bytes(m, n, k, precision));
  const double total_flops = static_cast<double>(ins.flops.value());
  const double total_ns = static_cast<double>(ins.ns.value());
  const double total_bytes = static_cast<double>(ins.bytes.value());
  if (total_ns > 0.0) ins.gflops.set(total_flops / total_ns);  // FLOP/ns=GF/s
  if (total_bytes > 0.0) ins.intensity.set(total_flops / total_bytes);
}

// The Goto/BLIS block loop over packed panels, generic in the packed
// storage type and in where the B panels come from (DenseB, ConvB). The
// caller has already applied beta and selected the microkernel; all block
// updates here are "+=" merges.
template <class Cvt, class BSource>
void sgemm_blocked(const TuneParams& tp,
                   void (*kern)(int, const typename Cvt::elt*,
                                const typename Cvt::elt*, float*, int),
                   Trans ta, int m, int n, int k, float alpha,
                   const float* a, int lda, const BSource& b, float* c,
                   int ldc) {
  using elt = typename Cvt::elt;
  Arena& arena = Arena::local();
  const std::size_t m0 = arena.mark();
  const int kc_max = std::min(k, tp.kc);
  const int nc_max = std::min((n + kNR - 1) / kNR * kNR, tp.nc);
  const int mc_max = std::min((m + kMR - 1) / kMR * kMR, tp.mc);
  // Pack buffers live in the float-granule arena regardless of element
  // width (16-bit panels use half the footprint, rounded up to granules).
  const auto alloc_elts = [&arena](std::size_t count) {
    const std::size_t floats =
        (count * sizeof(elt) + sizeof(float) - 1) / sizeof(float);
    return reinterpret_cast<elt*>(arena.alloc_floats(floats));
  };
  elt* bpack = alloc_elts(static_cast<std::size_t>(kc_max) * nc_max);
  elt* apack = alloc_elts(static_cast<std::size_t>(mc_max) * kc_max);
  const int pf = tp.pf;

  for (int jc = 0; jc < n; jc += tp.nc) {
    const int nc = std::min(tp.nc, n - jc);
    const int nc_pad = (nc + kNR - 1) / kNR * kNR;
    for (int pc = 0; pc < k; pc += tp.kc) {
      const int kc = std::min(tp.kc, k - pc);
      b.template pack<Cvt>(pc, jc, kc, nc, bpack);
      for (int ic = 0; ic < m; ic += tp.mc) {
        const int mc = std::min(tp.mc, m - ic);
        pack_a<Cvt>(a, lda, ta, ic, pc, mc, kc, apack);
        const int n_panels = nc_pad / kNR;
#pragma omp parallel for schedule(static)
        for (int jp = 0; jp < n_panels; ++jp) {
          const int jr = jp * kNR;
          const int nr = std::min(kNR, nc - jr);
          const elt* bp = bpack + static_cast<std::size_t>(jp) * kc * kNR;
          for (int ir = 0; ir < mc; ir += kMR) {
            const int mr = std::min(kMR, mc - ir);
            const elt* ap =
                apack + static_cast<std::size_t>(ir) * kc;  // MR-row panel
            alignas(64) float acc[kMR * kNR];
            kern(kc, ap, bp, acc, pf);
            // Merge the tile: C += alpha * acc (edges clipped).
            for (int r = 0; r < mr; ++r) {
              float* crow = c + static_cast<std::size_t>(ic + ir + r) * ldc +
                            jc + jr;
              const float* arow = acc + r * kNR;
              for (int q = 0; q < nr; ++q) crow[q] += alpha * arow[q];
            }
          }
        }
      }
    }
  }
  arena.release(m0);
}

// Resolves the schedule for (m, n, k) and runs the block loop at the
// requested packed-operand precision.
template <class BSource>
void sgemm_dispatch(Trans ta, int m, int n, int k, float alpha,
                    const float* a, int lda, const BSource& b, float* c,
                    int ldc, Precision precision) {
  const TuneParams tp = tuning::resolve(m, n, k);
  if (precision == Precision::kBf16) {
    sgemm_blocked<CvtBf16>(tp, select_bf16(tp.ku), ta, m, n, k, alpha, a,
                           lda, b, c, ldc);
  } else {
    sgemm_blocked<CvtF32>(tp, select_f32(tp.ku), ta, m, n, k, alpha, a, lda,
                          b, c, ldc);
  }
}

// Arena floats of sgemm_conv's tap table for K rows.
std::size_t tap_table_floats(std::size_t rows) {
  return align_up((rows * sizeof(ColRow) + sizeof(float) - 1) /
                  sizeof(float));
}

}  // namespace

std::size_t sgemm_workspace_bytes(int m, int n, int k, Precision precision) {
  const TuneParams tp = tuning::params_for(m, n, k);
  const std::size_t kc = static_cast<std::size_t>(std::min(k, tp.kc));
  const std::size_t nc = static_cast<std::size_t>(std::min(
      (n + kNR - 1) / kNR * kNR, tp.nc));
  const std::size_t mc = static_cast<std::size_t>(std::min(
      (m + kMR - 1) / kMR * kMR, tp.mc));
  const std::size_t esize = precision == Precision::kFp32 ? sizeof(float) : 2;
  // Mirrors sgemm_blocked's alloc_elts: element bytes to float granules,
  // then the arena's 64-byte rounding.
  const std::size_t a_pack = align_up(
      (mc * kc * esize + sizeof(float) - 1) / sizeof(float));
  const std::size_t b_pack = align_up(
      (kc * nc * esize + sizeof(float) - 1) / sizeof(float));
  return (a_pack + b_pack) * sizeof(float);
}

std::size_t sgemm_conv_workspace_bytes(int m, int c, int h, int w, int k) {
  const int kdim = c * k * k;
  return tap_table_floats(static_cast<std::size_t>(kdim)) * sizeof(float) +
         sgemm_workspace_bytes(m, h * w, kdim);
}

void sgemm(Trans ta, Trans tb, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc, Precision precision) {
  if (m <= 0 || n <= 0) return;
  GemmInstruments& ins = gemm_instruments();
  util::trace::Span span(ins.scope);
  // Apply beta once up front; every block update below is then "+=".
  if (beta == 0.0f) {
    for (int i = 0; i < m; ++i) {
      std::memset(c + static_cast<std::size_t>(i) * ldc, 0,
                  sizeof(float) * n);
    }
  } else if (beta != 1.0f) {
    for (int i = 0; i < m; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  if (k <= 0 || alpha == 0.0f) return;

  sgemm_dispatch(ta, m, n, k, alpha, a, lda, DenseB{b, ldb, tb}, c, ldc,
                 precision);
  span.stop();
  if (util::metrics::enabled()) account_sgemm(ins, m, n, k, precision);
}

void sgemm_conv(int m, int c, int h, int w, int k, const float* a,
                const float* src, float* out, Precision precision) {
  const int n = h * w;
  const int kdim = c * k * k;
  if (m <= 0 || n <= 0 || kdim <= 0) return;
  GemmInstruments& ins = gemm_instruments();
  util::trace::Span span(ins.scope);
  // Each K row's (plane offset, dy, dx), once per call: the packer then
  // never divides.
  Arena& arena = Arena::local();
  const std::size_t m0 = arena.mark();
  ColRow* rows = ::new (arena.alloc_floats(
      tap_table_floats(static_cast<std::size_t>(kdim)))) ColRow[kdim];
  for (int r = 0; r < kdim; ++r) rows[r] = col_row(r, h, w, k);
  sgemm_dispatch(Trans::kNo, m, n, kdim, 1.0f, a, kdim, ConvB{rows, src, h, w},
                 out, n, precision);
  arena.release(m0);
  span.stop();
  if (util::metrics::enabled()) account_sgemm(ins, m, n, kdim, precision);
}

}  // namespace adarnet::nn
