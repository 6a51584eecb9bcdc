#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <new>

#include "nn/im2col.hpp"
#include "nn/tensor.hpp"  // memory counters
#include "util/metrics.hpp"
#include "util/trace.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define ADARNET_GEMM_X86 1
#endif

namespace adarnet::nn {

namespace {

// Register tile (fixed: the microkernels are compiled for it; tier 2 runs
// two adjacent B panels at once, a 6x32 tile). The cache blocking is a
// GemmBlocking: its defaults, or a test's ScopedGemmBlocking.
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

// The calling thread's blocking; ScopedGemmBlocking swaps it.
thread_local GemmBlocking t_blocking;

// op(A)(i, p): element (i, p) of the transposed-or-not operand.
inline float op_at(const float* a, int lda, Trans t, int i, int p) {
  return t == Trans::kNo ? a[static_cast<std::size_t>(i) * lda + p]
                         : a[static_cast<std::size_t>(p) * lda + i];
}

// Packs an (mc x kc) block of op(A) into MR-row panels: panel ir holds
// kc columns of MR interleaved row values, zero-padded past mc.
void pack_a(const float* a, int lda, Trans ta, int i0, int p0, int mc,
            int kc, float* dst) {
  for (int ir = 0; ir < mc; ir += kMR) {
    const int mr = std::min(kMR, mc - ir);
    for (int p = 0; p < kc; ++p) {
      for (int r = 0; r < kMR; ++r) {
        *dst++ = r < mr ? op_at(a, lda, ta, i0 + ir + r, p0 + p) : 0.0f;
      }
    }
  }
}

// B-panel sources for the block loop: each packs a (kc x nc) block of
// the B operand, rows [p0, p0 + kc) x columns [j0, j0 + nc), into NR-column
// panels (panel jr holds kc rows of NR values, zero-padded past nc).

// A stored matrix, op(B) = B or B^T (no-transpose full panels are straight
// row copies).
struct DenseB {
  const float* b;
  int ldb;
  Trans tb;

  void pack(int p0, int j0, int kc, int nc, float* dst) const {
    for (int jr = 0; jr < nc; jr += kNR) {
      const int nr = std::min(kNR, nc - jr);
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
      for (int p = 0; p < kc; ++p) {
        for (int q = 0; q < kNR; ++q) {
          *dst++ = q < nr ? op_at(b, ldb, tb, p0 + p, j0 + jr + q) : 0.0f;
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

  void pack(int p0, int j0, int kc, int nc, float* dst) const {
    const ColRow* rp = rows + p0;
    for (int jr = 0; jr < nc; jr += kNR) {
      const int j = j0 + jr;
      if (w % kNR == 0) {
        // One-row fast path: the panel's 16 columns are cells [x0, x0 + 16)
        // of image row y. This needs j0 and nc to be multiples of 16;
        // every blocking's nc is one (ScopedGemmBlocking rounds it), so
        // with h*w a multiple of 16 each panel is full and within one
        // image row. It
        // runs 14-23% faster than row segments on conv forward (DESIGN.md
        // §6).
        const int y = j / w;
        const int x0 = j - y * w;
        for (int p = 0; p < kc; ++p, dst += kNR) {
          const float* row = row_at(rp[p], y);
          const int s = x0 + rp[p].dx;
          if (row && s >= 0 && s + kNR <= w) {
            for (int q = 0; q < kNR; ++q) dst[q] = row[s + q];
          } else {
            shift_row</*kWholeRow=*/false>(row, w, x0, rp[p].dx, kNR, dst);
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
          shift_row</*kWholeRow=*/false>(row_at(rp[p], seg[g].y), w,
                                         seg[g].x, rp[p].dx, seg[g].len,
                                         dst + seg[g].q);
        }
        for (int q = nr; q < kNR; ++q) dst[q] = 0.0f;
      }
    }
  }
};

// Portable microkernel (tier 0): acc(MR x NR) = packed_a panel * packed_b
// panel. The compiler vectorises the NR loop at the baseline ISA, without
// FMA (a multiply and an add, two roundings).
void kernel_portable(int kc, const float* ap, const float* bp, float* acc) {
  std::memset(acc, 0, sizeof(float) * kMR * kNR);
  for (int p = 0; p < kc; ++p) {
    float brow[kNR];
    for (int q = 0; q < kNR; ++q) brow[q] = bp[q];
    for (int r = 0; r < kMR; ++r) {
      const float av = ap[r];
      float* arow = acc + r * kNR;
      for (int q = 0; q < kNR; ++q) arow[q] += av * brow[q];
    }
    ap += kMR;
    bp += kNR;
  }
}

#ifdef ADARNET_GEMM_X86

// The vector tiers of the microkernel. Each names its register, its lane
// count and the few operations the one kernel body below is written in.
// Every member is compiled for its tier's ISA and always inlined into a
// kernel of the same tier, so no vector value crosses a function boundary
// compiled for a narrower ISA.
#define ADARNET_TIER_OP(TARGET) \
  __attribute__((target(TARGET), always_inline)) static inline

// Tier 1: AVX2 + FMA, a panel row is two 8-lane registers.
struct Ymm {
  using reg = __m256;
  static constexpr int kLanes = 8;
  ADARNET_TIER_OP("avx2,fma") reg load(const float* p) {
    return _mm256_load_ps(p);
  }
  ADARNET_TIER_OP("avx2,fma") reg bcast(const float* p) {
    return _mm256_broadcast_ss(p);
  }
  ADARNET_TIER_OP("avx2,fma") reg fma(reg a, reg b, reg c) {
    return _mm256_fmadd_ps(a, b, c);
  }
  ADARNET_TIER_OP("avx2,fma") void store(float* p, reg v) {
    _mm256_store_ps(p, v);
  }
};

// Tier 2: AVX-512F, a panel row is one 16-lane register.
struct Zmm {
  using reg = __m512;
  static constexpr int kLanes = 16;
  ADARNET_TIER_OP("avx512f") reg load(const float* p) {
    return _mm512_load_ps(p);
  }
  ADARNET_TIER_OP("avx512f") reg bcast(const float* p) {
    return _mm512_set1_ps(*p);
  }
  ADARNET_TIER_OP("avx512f") reg fma(reg a, reg b, reg c) {
    return _mm512_fmadd_ps(a, b, c);
  }
  ADARNET_TIER_OP("avx512f") void store(float* p, reg v) {
    _mm512_store_ps(p, v);
  }
};

// Every loop with a compile-time trip count in the kernel below is unrolled
// up front: the accumulator array is only promoted to registers once all of
// its indices are constants, and GCC otherwise leaves part of it on the
// stack (a store per FMA).
#if defined(__clang__)
#define ADARNET_UNROLL _Pragma("unroll")
#else
#define ADARNET_UNROLL _Pragma("GCC unroll 16")
#endif

// The microkernel, one body for every tier: acc = the MR-row A panel times
// kPanels adjacent B panels (the packer stores them kc * NR elements
// apart), written out as kPanels MR x NR tiles. A row of the register tile
// is kPanels * NR / V::kLanes vectors; a k-step loads that many B vectors
// and, per row, broadcasts one A element into that many FMAs. Whatever the
// tier or panel count, each accumulator lane starts at +0 and takes one
// FMA per k-step in ascending p, so every output bit is the same on all of
// them; only the cache blocking changes the summation grouping. A target
// attribute takes a string literal, so the body is stamped out once per
// tier (its name, target and vector type) by this macro, and the tier is
// picked at run time (gemm_isa_tier()).
#define ADARNET_DEF_MICROKERNEL(NAME, TARGET, V)                             \
  template <int kPanels>                                                    \
  __attribute__((target(TARGET))) void NAME(int kc, const float* ap,        \
                                            const float* bp, float* acc) {  \
    constexpr int kPanelVecs = kNR / V::kLanes;                             \
    constexpr int kRowVecs = kPanels * kPanelVecs;                          \
    const std::size_t panel = static_cast<std::size_t>(kc) * kNR;           \
    V::reg c[kMR][kRowVecs] = {}; /* every lane +0 */                       \
    for (int p = 0; p < kc; ++p, ap += kMR, bp += kNR) {                    \
      V::reg b[kRowVecs];                                                   \
      ADARNET_UNROLL                                                        \
      for (int v = 0; v < kRowVecs; ++v) {                                  \
        b[v] = V::load(bp + v / kPanelVecs * panel +                        \
                       v % kPanelVecs * V::kLanes);                         \
      }                                                                     \
      ADARNET_UNROLL                                                        \
      for (int r = 0; r < kMR; ++r) {                                       \
        const V::reg a = V::bcast(ap + r);                                  \
        ADARNET_UNROLL                                                      \
        for (int v = 0; v < kRowVecs; ++v) {                                \
          c[r][v] = V::fma(a, b[v], c[r][v]);                               \
        }                                                                   \
      }                                                                     \
    }                                                                       \
    /* Register (r, v) is row r of tile v / kPanelVecs. */                  \
    ADARNET_UNROLL                                                          \
    for (int i = 0; i < kMR * kRowVecs; ++i) {                              \
      const int r = i / kRowVecs;                                           \
      const int v = i % kRowVecs;                                           \
      V::store(acc + (v / kPanelVecs * kMR + r) * kNR +                     \
                   v % kPanelVecs * V::kLanes,                              \
               c[r][v]);                                                    \
    }                                                                       \
  }

ADARNET_DEF_MICROKERNEL(kernel_avx2, "avx2,fma", Ymm)
ADARNET_DEF_MICROKERNEL(kernel_avx512, "avx512f", Zmm)

#endif  // ADARNET_GEMM_X86

using Kern = void (*)(int, const float*, const float*, float*);

// What every sgemm call runs: `one` computes the MR x NR tile of one B
// panel; `two`, tier 2 only, the tiles of two adjacent panels at once.
struct Microkernels {
  Kern one;
  Kern two = nullptr;
};

// The kernels of this CPU's tier, chosen once.
const Microkernels& microkernels() {
  static const Microkernels kern = [] {
#ifdef ADARNET_GEMM_X86
    const int tier = gemm_isa_tier();
    if (tier >= 2) {
      return Microkernels{kernel_avx512<1>, kernel_avx512<2>};
    }
    if (tier == 1) return Microkernels{kernel_avx2<1>};
#endif
    return Microkernels{kernel_portable};
  }();
  return kern;
}

}  // namespace

int gemm_isa_tier() {
#ifdef ADARNET_GEMM_X86
  static const int tier = [] {
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
      return 0;
    }
    return __builtin_cpu_supports("avx512f") ? 2 : 1;
  }();
  return tier;
#else
  return 0;
#endif
}

GemmBlocking gemm_blocking() { return t_blocking; }

ScopedGemmBlocking::ScopedGemmBlocking(GemmBlocking b) : prev_(t_blocking) {
  t_blocking.mc = std::clamp(b.mc / kMR * kMR, kMR, kMR * 4096);
  t_blocking.kc = std::clamp(b.kc, 4, 1 << 16);
  t_blocking.nc = std::clamp(b.nc / kNR * kNR, kNR, kNR * 4096);
}

ScopedGemmBlocking::~ScopedGemmBlocking() { t_blocking = prev_; }

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

std::int64_t sgemm_bytes(int m, int n, int k) {
  const std::int64_t mm = m, nn = n, kk = k;
  return (mm * kk + kk * nn + 2 * mm * nn) *
         static_cast<std::int64_t>(sizeof(float));
}

namespace {

// Roofline accounting: cumulative FLOPs, compulsory bytes, and wall time
// of every sgemm call, published as counters plus two derived gauges
// (achieved GF/s and arithmetic intensity) and the dispatch tier that
// achieved them (nn.gemm.isa, gemm_isa_tier()). The wall time is one
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
  util::metrics::Gauge& isa = util::metrics::gauge("nn.gemm.isa");
  const util::trace::Site scope{"nn.gemm", &ns, util::trace::kInherit,
                                false};
};

GemmInstruments& gemm_instruments() {
  static GemmInstruments ins;
  return ins;
}

void account_sgemm(GemmInstruments& ins, int m, int n, int k) {
  ins.calls.add();
  ins.flops.add(sgemm_flops(m, n, k));
  ins.bytes.add(sgemm_bytes(m, n, k));
  const double total_flops = static_cast<double>(ins.flops.value());
  const double total_ns = static_cast<double>(ins.ns.value());
  const double total_bytes = static_cast<double>(ins.bytes.value());
  if (total_ns > 0.0) ins.gflops.set(total_flops / total_ns);  // FLOP/ns=GF/s
  if (total_bytes > 0.0) ins.intensity.set(total_flops / total_bytes);
  ins.isa.set(gemm_isa_tier());
}

// The Goto/BLIS block loop over packed panels, at the calling thread's
// blocking and generic in where the B panels come from (DenseB, ConvB).
// The caller has already applied beta; all block updates here are "+="
// merges. With a paired kernel (tier 2) the threads share out pairs of
// adjacent panels, the last one alone when the block has an odd count;
// each C element is still computed by one kernel call per (kc, mc) block,
// in the same order.
template <class BSource>
void sgemm_blocked(Trans ta, int m, int n, int k, float alpha,
                   const float* a, int lda, const BSource& b, float* c,
                   int ldc) {
  const GemmBlocking bl = gemm_blocking();
  const Microkernels& kern = microkernels();
  Arena& arena = Arena::local();
  const std::size_t m0 = arena.mark();
  const int kc_max = std::min(k, bl.kc);
  const int nc_max = std::min((n + kNR - 1) / kNR * kNR, bl.nc);
  const int mc_max = std::min((m + kMR - 1) / kMR * kMR, bl.mc);
  float* bpack =
      arena.alloc_floats(static_cast<std::size_t>(kc_max) * nc_max);
  float* apack =
      arena.alloc_floats(static_cast<std::size_t>(mc_max) * kc_max);
  const int group = kern.two != nullptr ? 2 : 1;

  for (int jc = 0; jc < n; jc += bl.nc) {
    const int nc = std::min(bl.nc, n - jc);
    const int nc_pad = (nc + kNR - 1) / kNR * kNR;
    for (int pc = 0; pc < k; pc += bl.kc) {
      const int kc = std::min(bl.kc, k - pc);
      b.pack(pc, jc, kc, nc, bpack);
      for (int ic = 0; ic < m; ic += bl.mc) {
        const int mc = std::min(bl.mc, m - ic);
        pack_a(a, lda, ta, ic, pc, mc, kc, apack);
        const int n_panels = nc_pad / kNR;
        const int n_groups = (n_panels + group - 1) / group;
#pragma omp parallel for schedule(static)
        for (int g = 0; g < n_groups; ++g) {
          const int jp = g * group;
          const int np = std::min(group, n_panels - jp);
          const Kern run = np == 2 ? kern.two : kern.one;
          const float* bp = bpack + static_cast<std::size_t>(jp) * kc * kNR;
          for (int ir = 0; ir < mc; ir += kMR) {
            const int mr = std::min(kMR, mc - ir);
            const float* ap =
                apack + static_cast<std::size_t>(ir) * kc;  // MR-row panel
            alignas(64) float acc[2 * kMR * kNR];
            run(kc, ap, bp, acc);
            // Merge each tile: C += alpha * acc (edges clipped).
            for (int t = 0; t < np; ++t) {
              const int jr = (jp + t) * kNR;
              const int nr = std::min(kNR, nc - jr);
              const float* tile = acc + t * kMR * kNR;
              for (int r = 0; r < mr; ++r) {
                float* crow = c +
                              static_cast<std::size_t>(ic + ir + r) * ldc +
                              jc + jr;
                const float* arow = tile + r * kNR;
                for (int q = 0; q < nr; ++q) crow[q] += alpha * arow[q];
              }
            }
          }
        }
      }
    }
  }
  arena.release(m0);
}

// Arena floats of sgemm_conv's tap table for K rows.
std::size_t tap_table_floats(std::size_t rows) {
  return align_up((rows * sizeof(ColRow) + sizeof(float) - 1) /
                  sizeof(float));
}

}  // namespace

std::size_t sgemm_workspace_bytes(int m, int n, int k) {
  const GemmBlocking bl = gemm_blocking();
  const std::size_t kc = static_cast<std::size_t>(std::min(k, bl.kc));
  const std::size_t nc = static_cast<std::size_t>(std::min(
      (n + kNR - 1) / kNR * kNR, bl.nc));
  const std::size_t mc = static_cast<std::size_t>(std::min(
      (m + kMR - 1) / kMR * kMR, bl.mc));
  // sgemm_blocked's two pack buffers, each rounded like the arena.
  return (align_up(mc * kc) + align_up(kc * nc)) * sizeof(float);
}

std::size_t sgemm_conv_workspace_bytes(int m, int c, int h, int w, int k) {
  const int kdim = c * k * k;
  return tap_table_floats(static_cast<std::size_t>(kdim)) * sizeof(float) +
         sgemm_workspace_bytes(m, h * w, kdim);
}

void sgemm(Trans ta, Trans tb, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc) {
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

  sgemm_blocked(ta, m, n, k, alpha, a, lda, DenseB{b, ldb, tb}, c, ldc);
  span.stop();
  if (util::metrics::enabled()) account_sgemm(ins, m, n, k);
}

void sgemm_conv(int m, int c, int h, int w, int k, const float* a,
                const float* src, float* out) {
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
  sgemm_blocked(Trans::kNo, m, n, kdim, 1.0f, a, kdim, ConvB{rows, src, h, w},
                out, n);
  arena.release(m0);
  span.stop();
  if (util::metrics::enabled()) account_sgemm(ins, m, n, kdim);
}

}  // namespace adarnet::nn
