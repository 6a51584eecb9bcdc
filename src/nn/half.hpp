// Scalar bfloat16 conversions for the reduced-precision GEMM storage path
// (truncated fp32: 8-bit mantissa, fp32 range). bf16 is a *storage*
// format only — every arithmetic operation in the library accumulates in
// fp32; these helpers convert at pack/load boundaries.
//
// The conversions are branchy scalar bit manipulation, deliberately
// ISA-independent: the packed panels they produce are consumed either by
// the vector microkernels of the AVX2 and AVX-512 tiers (which widen with
// shifts) or by the portable kernel (which widens with these same
// helpers), so every tier reads the same fp32 values. Rounding is
// round-to-nearest-even, like hardware BF16 conversion; the hardware
// instructions (AVX512_BF16, AMX) are not used, since they flush
// denormals and would change the stored values.
#pragma once

#include <cstdint>
#include <cstring>

namespace adarnet::nn::half {

inline std::uint32_t f32_bits(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  return x;
}

inline float bits_f32(std::uint32_t x) {
  float f;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

/// fp32 -> bf16, round-to-nearest-even. NaN is quieted (never rounds to
/// inf), +-inf and signed zero round-trip exactly.
inline std::uint16_t f32_to_bf16(float f) {
  const std::uint32_t x = f32_bits(f);
  if ((x & 0x7FFFFFFFu) > 0x7F800000u) {
    return static_cast<std::uint16_t>((x >> 16) | 0x0040u);  // quiet NaN
  }
  const std::uint32_t round = 0x7FFFu + ((x >> 16) & 1u);
  return static_cast<std::uint16_t>((x + round) >> 16);
}

/// bf16 -> fp32 (exact: bf16 is fp32 with the low mantissa truncated).
inline float bf16_to_f32(std::uint16_t h) {
  return bits_f32(static_cast<std::uint32_t>(h) << 16);
}

}  // namespace adarnet::nn::half
