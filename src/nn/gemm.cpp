#include "nn/gemm.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <mutex>
#include <new>
#include <stdexcept>

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
// panel is the one DenseB would make from the col matrix. sgemm_conv packs
// with it only where a panel can span image rows (w % 16 != 0); elsewhere
// the microkernel reads a zero-padded copy of the sample (PaddedRows).
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

// Where the microkernel finds B: row(t) is the current k-step's row of
// panel t (NR floats), next() steps to the next k. Each is fixed at
// compile time, so the kernel's inner loop is the same code as if it were
// written for one.

// A packed B block (DenseB, ConvB): panel t holds kc rows of NR floats,
// 64-byte aligned, kc * NR floats after panel t - 1.
struct PackedRows {
  static constexpr bool kAligned = true;
  const float* bp;    // panel 0's current row
  std::size_t panel;  // kc * NR
  const float* row(int t) const { return bp + t * panel; }
  void next() { bp += kNR; }
};

// The zero-padded copy of a conv sample (sgemm_conv with w % 16 == 0):
// row p of panel t is the NR floats at base[t] + off[p], unaligned.
struct PaddedRows {
  static constexpr bool kAligned = false;
  const float* base[2];  // panel t's first pixel, tap (0, 0) of channel 0
  const int* off;        // the current K row's tap offset
  const float* row(int t) const { return base[t] + *off; }
  void next() { ++off; }
};

// Portable microkernel (tier 0): acc(MR x NR) = packed A panel * B panel.
// The compiler vectorises the NR loop at the baseline ISA, without FMA (a
// multiply and an add, two roundings).
template <class Rows>
void kernel_portable(int kc, const float* ap, Rows rows, float* acc) {
  std::memset(acc, 0, sizeof(float) * kMR * kNR);
  for (int p = 0; p < kc; ++p, ap += kMR, rows.next()) {
    float brow[kNR];
    const float* bp = rows.row(0);
    for (int q = 0; q < kNR; ++q) brow[q] = bp[q];
    for (int r = 0; r < kMR; ++r) {
      const float av = ap[r];
      float* arow = acc + r * kNR;
      for (int q = 0; q < kNR; ++q) arow[q] += av * brow[q];
    }
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
  ADARNET_TIER_OP("avx2,fma") reg loadu(const float* p) {
    return _mm256_loadu_ps(p);
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
  ADARNET_TIER_OP("avx512f") reg loadu(const float* p) {
    return _mm512_loadu_ps(p);
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
// kPanels adjacent B panels, which `rows` locates (a packed block or the
// padded input), written out as kPanels MR x NR tiles. A row of the
// register tile is kPanels * NR / V::kLanes vectors; a k-step loads that
// many B vectors and, per row, broadcasts one A element into that many
// FMAs. Whatever the tier, panel count or B source, each accumulator lane
// starts at +0 and takes one FMA per k-step in ascending p, so every
// output bit is the same on all of them; only the cache blocking changes
// the summation grouping. A target attribute takes a string literal, so
// the body is stamped out once per tier (its name, target and vector type)
// by this macro, and the tier is picked at run time (gemm_isa_tier()).
#define ADARNET_DEF_MICROKERNEL(NAME, TARGET, V)                             \
  template <int kPanels, class Rows>                                        \
  __attribute__((target(TARGET))) void NAME(int kc, const float* ap,        \
                                            Rows rows, float* acc) {        \
    constexpr int kPanelVecs = kNR / V::kLanes;                             \
    constexpr int kRowVecs = kPanels * kPanelVecs;                          \
    V::reg c[kMR][kRowVecs] = {}; /* every lane +0 */                       \
    for (int p = 0; p < kc; ++p, ap += kMR, rows.next()) {                  \
      V::reg b[kRowVecs];                                                   \
      ADARNET_UNROLL                                                        \
      for (int v = 0; v < kRowVecs; ++v) {                                  \
        const float* bp =                                                   \
            rows.row(v / kPanelVecs) + v % kPanelVecs * V::kLanes;          \
        b[v] = Rows::kAligned ? V::load(bp) : V::loadu(bp);                 \
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

template <class Rows>
using Kern = void (*)(int, const float*, Rows, float*);

// What every block reading B through `Rows` runs: `one` computes the
// MR x NR tile of one B panel; `two`, tier 2 only, the tiles of two
// adjacent panels at once.
template <class Rows>
struct Microkernels {
  Kern<Rows> one;
  Kern<Rows> two = nullptr;
};

// The kernels of this CPU's tier, chosen once per B source.
template <class Rows>
const Microkernels<Rows>& microkernels() {
  static const Microkernels<Rows> kern = [] {
#ifdef ADARNET_GEMM_X86
    const int tier = gemm_isa_tier();
    if (tier >= 2) {
      return Microkernels<Rows>{kernel_avx512<1, Rows>,
                                kernel_avx512<2, Rows>};
    }
    if (tier == 1) return Microkernels<Rows>{kernel_avx2<1, Rows>};
#endif
    return Microkernels<Rows>{kernel_portable<Rows>};
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

// Floats of the packed A block (mc x kc) and B block (kc x nc) an
// (m x k) * (k x n) product draws at the blocking `bl`.
std::size_t a_block_floats(int m, int k, const GemmBlocking& bl) {
  return static_cast<std::size_t>(std::min((m + kMR - 1) / kMR * kMR, bl.mc)) *
         static_cast<std::size_t>(std::min(k, bl.kc));
}

std::size_t b_block_floats(int n, int k, const GemmBlocking& bl) {
  return static_cast<std::size_t>(std::min(k, bl.kc)) *
         static_cast<std::size_t>(std::min((n + kNR - 1) / kNR * kNR, bl.nc));
}

// One (kc, mc) block of the block loop: C (mc x nc at `c`) += alpha *
// the packed A block times B, whose panel jp rows_of(jp) locates. The
// threads share out the panels in groups: with a paired kernel (tier 2)
// pairs of adjacent panels, the last one alone when the count is odd. The
// caller has already applied beta, so the merge is "+=", and each C element
// is computed by one kernel call per block whatever the grouping.
template <class Rows, class RowsOf>
void multiply_block(int kc, int mc, int nc, const float* apack,
                    const RowsOf& rows_of, float alpha, float* c, int ldc) {
  const Microkernels<Rows>& kern = microkernels<Rows>();
  const int group = kern.two != nullptr ? 2 : 1;
  const int n_panels = (nc + kNR - 1) / kNR;
  const int n_groups = (n_panels + group - 1) / group;
#pragma omp parallel for schedule(static)
  for (int g = 0; g < n_groups; ++g) {
    const int jp = g * group;
    const int np = std::min(group, n_panels - jp);
    const Kern<Rows> run = np == 2 ? kern.two : kern.one;
    const Rows rows = rows_of(jp);
    for (int ir = 0; ir < mc; ir += kMR) {
      const int mr = std::min(kMR, mc - ir);
      const float* ap =
          apack + static_cast<std::size_t>(ir) * kc;  // MR-row panel
      alignas(64) float acc[2 * kMR * kNR];
      run(kc, ap, rows, acc);
      // Merge each tile: C += alpha * acc (edges clipped).
      for (int t = 0; t < np; ++t) {
        const int jr = (jp + t) * kNR;
        const int nr = std::min(kNR, nc - jr);
        const float* tile = acc + t * kMR * kNR;
        for (int r = 0; r < mr; ++r) {
          float* crow = c + static_cast<std::size_t>(ir + r) * ldc + jr;
          const float* arow = tile + r * kNR;
          for (int q = 0; q < nr; ++q) crow[q] += alpha * arow[q];
        }
      }
    }
  }
}

// The Goto/BLIS block loop over packed panels, at the calling thread's
// blocking and generic in where the B panels are packed from (DenseB,
// ConvB). Per nc block and kc block the B block is packed once, then each
// mc block of A is packed and multiplied against it.
template <class BSource>
void sgemm_blocked(Trans ta, int m, int n, int k, float alpha,
                   const float* a, int lda, const BSource& b, float* c,
                   int ldc) {
  const GemmBlocking bl = gemm_blocking();
  Arena& arena = Arena::local();
  const std::size_t m0 = arena.mark();
  float* bpack = arena.alloc_floats(b_block_floats(n, k, bl));
  float* apack = arena.alloc_floats(a_block_floats(m, k, bl));
  for (int jc = 0; jc < n; jc += bl.nc) {
    const int nc = std::min(bl.nc, n - jc);
    for (int pc = 0; pc < k; pc += bl.kc) {
      const int kc = std::min(bl.kc, k - pc);
      b.pack(pc, jc, kc, nc, bpack);
      const std::size_t panel = static_cast<std::size_t>(kc) * kNR;
      const auto rows_of = [&](int jp) {
        return PackedRows{bpack + jp * panel, panel};
      };
      for (int ic = 0; ic < m; ic += bl.mc) {
        const int mc = std::min(bl.mc, m - ic);
        pack_a(a, lda, ta, ic, pc, mc, kc, apack);
        multiply_block<PackedRows>(
            kc, mc, nc, apack, rows_of, alpha,
            c + static_cast<std::size_t>(ic) * ldc + jc, ldc);
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

// Whether sgemm_conv reads B from a padded copy of the sample: every
// NR-column panel is then NR pixels of one image row.
bool one_row_panels(int w) { return w % kNR == 0; }

// sgemm_conv's zero-padded sample: c planes of (h + k - 1) x (w + k - 1)
// floats, the input placed k / 2 rows and columns in.
struct PaddedShape {
  int pad;
  int wp;
  std::size_t plane;
  std::size_t floats;

  PaddedShape(int c, int h, int w, int k)
      : pad(k / 2),
        wp(w + k - 1),
        plane(static_cast<std::size_t>(h + k - 1) * wp),
        floats(static_cast<std::size_t>(c) * plane) {}
};

// The tap offsets share the arena with floats, one slot each.
static_assert(sizeof(int) == sizeof(float));

// sgemm_conv without a B pack, for one_row_panels(w). The sample is staged
// once into its PaddedShape (the border ring zeroed, the rows copied in),
// so col-matrix entry (r, j) is the padded float at base(j / NR) + off[r]
// + j % NR: base(t) is panel t's first pixel (y, x0) in plane 0,
// y * wp + x0, and K row r = (ic * k + ky) * k + kx has the tap offset
// off[r] = ic * plane + ky * wp + kx. The padding holds the 0.0f the
// packer writes, and the A pack, the kc and mc blocks, the panel groups
// and the FMA order are the packed loop's, so C is bitwise the same.
// There is no B block, so no nc loop.
void sgemm_conv_padded(int m, int c, int h, int w, int k, const float* a,
                       const float* src, float* out) {
  const PaddedShape ps(c, h, w, k);
  if (ps.floats > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::length_error("sgemm_conv: sample too large for int offsets");
  }
  const GemmBlocking bl = gemm_blocking();
  const int n = h * w;
  const int kdim = c * k * k;
  Arena& arena = Arena::local();
  const std::size_t m0 = arena.mark();
  float* padded = arena.alloc_floats(ps.floats);
  int* off = ::new (arena.alloc_floats(static_cast<std::size_t>(kdim)))
      int[kdim];
  float* apack = arena.alloc_floats(a_block_floats(m, kdim, bl));

  const std::size_t halo = static_cast<std::size_t>(ps.pad) * ps.wp;
  for (int ch = 0; ch < c; ++ch) {
    float* dst = padded + ch * ps.plane;
    std::fill_n(dst, halo, 0.0f);
    for (int y = 0; y < h; ++y) {
      float* row = dst + static_cast<std::size_t>(ps.pad + y) * ps.wp;
      std::fill_n(row, ps.pad, 0.0f);
      std::memcpy(row + ps.pad,
                  src + (static_cast<std::size_t>(ch) * h + y) * w,
                  sizeof(float) * w);
      std::fill_n(row + ps.pad + w, ps.pad, 0.0f);
    }
    std::fill_n(dst + ps.plane - halo, halo, 0.0f);
  }
  const int kk = k * k;
  for (int r = 0; r < kdim; ++r) {
    const int t = r % kk;
    off[r] = static_cast<int>((r / kk) * ps.plane) + t / k * ps.wp + t % k;
  }
  const int n_panels = n / kNR;
  const auto base = [&](int t) {
    const int y = t * kNR / w;
    return padded + static_cast<std::size_t>(y) * ps.wp + (t * kNR - y * w);
  };
  // The last panel's last tap ends on the buffer's last float.
  assert(base(n_panels - 1) + off[kdim - 1] + kNR == padded + ps.floats);

  for (int pc = 0; pc < kdim; pc += bl.kc) {
    const int kc = std::min(bl.kc, kdim - pc);
    const auto rows_of = [&](int jp) {
      return PaddedRows{{base(jp), base(std::min(jp + 1, n_panels - 1))},
                        off + pc};
    };
    for (int ic = 0; ic < m; ic += bl.mc) {
      const int mc = std::min(bl.mc, m - ic);
      pack_a(a, kdim, Trans::kNo, ic, pc, mc, kc, apack);
      multiply_block<PaddedRows>(kc, mc, n, apack, rows_of, 1.0f,
                                 out + static_cast<std::size_t>(ic) * n, n);
    }
  }
  arena.release(m0);
}

}  // namespace

std::size_t sgemm_workspace_bytes(int m, int n, int k) {
  const GemmBlocking bl = gemm_blocking();
  // sgemm_blocked's two pack buffers, each rounded like the arena.
  return (align_up(a_block_floats(m, k, bl)) +
          align_up(b_block_floats(n, k, bl))) *
         sizeof(float);
}

std::size_t sgemm_conv_workspace_bytes(int m, int c, int h, int w, int k) {
  const int kdim = c * k * k;
  if (one_row_panels(w)) {
    // sgemm_conv_padded: the padded sample, the tap offsets, the A pack.
    return (align_up(PaddedShape(c, h, w, k).floats) +
            align_up(static_cast<std::size_t>(kdim)) +
            align_up(a_block_floats(m, kdim, gemm_blocking()))) *
           sizeof(float);
  }
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
  if (one_row_panels(w)) {
    sgemm_conv_padded(m, c, h, w, k, a, src, out);
  } else {
    // Each K row's (plane offset, dy, dx), once per call: the packer then
    // never divides.
    Arena& arena = Arena::local();
    const std::size_t m0 = arena.mark();
    ColRow* rows = ::new (arena.alloc_floats(
        tap_table_floats(static_cast<std::size_t>(kdim)))) ColRow[kdim];
    for (int r = 0; r < kdim; ++r) rows[r] = col_row(r, h, w, k);
    sgemm_blocked(Trans::kNo, m, n, kdim, 1.0f, a, kdim,
                  ConvB{rows, src, h, w}, out, n);
    arena.release(m0);
  }
  span.stop();
  if (util::metrics::enabled()) account_sgemm(ins, m, n, kdim);
}

}  // namespace adarnet::nn
