// Cache-blocked single-precision GEMM and the workspace arena that backs
// the convolution engine's scratch buffers (GEMM pack buffers and the
// implicit-GEMM tap table; in backward also the im2col panels and the
// gradient accumulators).
//
// The GEMM follows the classic Goto/BLIS structure: the operands are
// packed into contiguous panels blocked as (Mc x Kc) and (Kc x Nc), and an
// (MR x NR) = 6 x 16 register-tiled microkernel runs over the packed
// panels. The convolution forward uses the same loop as an implicit GEMM
// (sgemm_conv): its B panels are packed straight from the input planes.
// The microkernel has three tiers, picked once per process from the CPU
// (gemm_isa_tier()); only the kernels are compiled for them, the rest of
// the library stays at the baseline ISA:
//   0  portable: a kernel the compiler vectorises, multiply then add;
//   1  AVX2 + FMA: the 6 x 16 tile on 12 ymm accumulators;
//   2  AVX-512F: two adjacent B panels at once, a 6 x 32 tile on 12 zmm
//      accumulators (6 x 16 on 6 zmm for an odd last panel).
// Tiers 1 and 2 are one kernel body stamped out per vector width. Every C
// element takes the same FMA sequence on both -- per Kc block an
// accumulator from +0, one FMA per k in ascending order, then C += alpha *
// acc -- so their outputs are bitwise identical.
//
// All scratch comes from the calling thread's Arena, whose capacity is
// tracked through the nn::memory counters, so the measured inference
// footprint (Table 2, Fig 1) includes the convolution workspace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace adarnet::nn {

/// Growable bump allocator for convolution/GEMM scratch. Suballocations
/// are 64-byte aligned and freed wholesale via mark()/release(). Capacity
/// changes are reported to the nn::memory counters. Steady state performs
/// no allocations: once the arena has grown to the largest working set it
/// is reused verbatim (the "no per-call allocation" training path).
class Arena {
 public:
  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// The calling thread's arena, used by Conv2D's GEMM engine. One per
  /// thread, leased from a pool that recycles the arenas of exited
  /// threads: concurrent inferences (serving workers) never share a bump
  /// pointer. Every caller runs outside OpenMP parallel regions.
  static Arena& local();

  /// Ensures capacity() >= bytes. The main block is only replaced while no
  /// suballocation is live (used() == 0); otherwise growth is deferred to
  /// overflow blocks that get merged on the next idle ensure/alloc.
  void reserve(std::size_t bytes);

  /// Bump-allocates `count` floats (64-byte aligned). Never invalidates
  /// previously returned pointers: if the main block is exhausted the
  /// allocation is served from a dedicated overflow block that is folded
  /// into the main block once the arena is idle again.
  float* alloc_floats(std::size_t count);

  /// Opens an allocation scope and returns the bump position to restore.
  /// While any scope is open the arena never moves or frees blocks, so
  /// every pointer handed out stays valid until the matching release().
  [[nodiscard]] std::size_t mark() {
    ++depth_;
    return used_;
  }
  /// Rewinds the bump pointer to a previous mark() and closes its scope;
  /// when the last scope closes, overflow blocks are folded into the main
  /// block so the next operation of the same size allocates nothing.
  void release(std::size_t m) {
    used_ = m;
    if (depth_ > 0) --depth_;
    if (depth_ == 0 && used_ == 0) consolidate();
  }

  [[nodiscard]] std::size_t capacity_bytes() const;
  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  void consolidate();  // merge overflow blocks; only while idle

  struct Block {
    float* ptr = nullptr;
    std::size_t floats = 0;
  };

  float* base_ = nullptr;
  std::size_t cap_floats_ = 0;  // capacity of the main block
  std::size_t used_ = 0;        // bump position within the main block
  std::size_t depth_ = 0;       // open mark() scopes
  std::vector<Block> overflow_;
};

/// The microkernel tier sgemm dispatches to on this CPU: 0 portable,
/// 1 AVX2 + FMA, 2 AVX-512F (see the file comment). Probed once per
/// process; sgemm publishes it as the nn.gemm.isa gauge.
int gemm_isa_tier();

/// Transpose flag for sgemm operands.
enum class Trans : std::uint8_t { kNo, kYes };

/// Cache blocking of sgemm's block loop: A blocks of mc rows (a multiple
/// of the register tile's MR = 6), a shared K block of kc and B blocks of
/// nc columns (a multiple of NR = 16). Every production call runs these
/// defaults; only kc changes the summation grouping, so only kc changes
/// output bits.
struct GemmBlocking {
  int mc = 72;
  int kc = 256;
  int nc = 2048;

  bool operator==(const GemmBlocking&) const = default;
};

/// The blocking sgemm and sgemm_conv run at on the calling thread: the
/// innermost open ScopedGemmBlocking's, else the defaults.
GemmBlocking gemm_blocking();

/// Test seam: pins a blocking for every sgemm and sgemm_conv on the
/// calling thread while in scope, clamped to the legal grid (mc a positive
/// multiple of 6, kc >= 4, nc a positive multiple of 16 -- sgemm_conv's
/// one-row packer path relies on the last). Nests.
class ScopedGemmBlocking {
 public:
  explicit ScopedGemmBlocking(GemmBlocking b);
  ~ScopedGemmBlocking();
  ScopedGemmBlocking(const ScopedGemmBlocking&) = delete;
  ScopedGemmBlocking& operator=(const ScopedGemmBlocking&) = delete;

 private:
  GemmBlocking prev_;
};

/// C (m x n, row-major, leading dim ldc) = alpha * op(A) * op(B) + beta*C,
/// with op(X) = X or X^T per the Trans flags. A is m x k after op, B is
/// k x n after op; lda/ldb are the leading dimensions of the *stored*
/// matrices. Pack buffers are drawn from Arena::local() (mark/released
/// internally). OpenMP-parallel over column panels.
void sgemm(Trans ta, Trans tb, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc);

/// Arena bytes one sgemm call of this shape draws for its pack buffers at
/// the calling thread's blocking.
std::size_t sgemm_workspace_bytes(int m, int n, int k);

/// Implicit-GEMM convolution of one sample: C (m x h*w, row-major) +=
/// A (m x c*k*k, row-major) * im2col(src) for a same-padded, stride-1
/// convolution (`src` is c contiguous h x w planes, k odd; see
/// nn/im2col.hpp for the im2col layout). The B panels are packed straight
/// from the input planes, so the (c*k*k) x (h*w) col matrix is never
/// built. Blocking, microkernels and the nn.gemm accounting are sgemm's,
/// so C is bitwise what im2col followed by sgemm(kNo, kNo, m, h*w, c*k*k,
/// 1, a, c*k*k, col, h*w, 1, out, h*w) produces.
void sgemm_conv(int m, int c, int h, int w, int k, const float* a,
                const float* src, float* out);

/// Arena bytes one sgemm_conv call of this shape draws: sgemm's pack
/// buffers for (m, h*w, c*k*k) plus the per-row tap table.
std::size_t sgemm_conv_workspace_bytes(int m, int c, int h, int w, int k);

/// Floating-point operations one sgemm call of this shape performs
/// (2*m*n*k multiply-adds; the roofline numerator).
std::int64_t sgemm_flops(int m, int n, int k);

/// Minimum data movement of one sgemm call of this shape: each operand
/// read once, C read and written once — the compulsory-traffic roofline
/// denominator, not the achieved cache traffic.
std::int64_t sgemm_bytes(int m, int n, int k);

}  // namespace adarnet::nn
