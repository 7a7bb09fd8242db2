// Branch-free double-precision exp() for flat array sweeps.
//
// The leakage kernel evaluates exp(beta * (T - T0)) for every core every
// tick; libm's exp is correctly rounded but scalar and call-heavy, which
// makes it the single largest term in the whole-chip power sweep. exp_fast
// trades the last two digits (~1e-11 relative error on the simulator's
// operating range) for straight-line double arithmetic plus one 64-bit left
// shift, all of which SSE2 has vector forms for: inlined into
// PowerModel::chip_power_batch it vectorizes across cores (checked by the
// check_vectorized ctest, scripts/check_vectorized.py).
//
// Deterministic and bit-portable across IEEE-754 platforms: the reduction
// and polynomial use only +, *, and bit operations in a fixed order (no
// libm, no FMA contraction under the project's -ffp-contract=off SIMD
// build), so results are identical across builds of the same source.
#pragma once

#include <bit>
#include <cstdint>

namespace cpm::util {

/// exp(x) with ~1e-11 relative accuracy for |x| <= ~700 (exponent clamped,
/// not IEEE-faithful, outside that). Intended for physical-model kernels
/// (leakage-temperature feedback) where the argument is O(1); use std::exp
/// where correctly-rounded results matter.
inline double exp_fast(double x) noexcept {
  // Round x/ln2 to the nearest integer with the shift trick: adding
  // 3*2^51 forces the fraction out of a double in round-to-nearest mode,
  // leaving the integer in the low mantissa bits.
  constexpr double kLog2e = 1.4426950408889634074;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  // kd - kShift is the rounded integer k = round(x/ln2), exact as a double.
  const double kd = x * kLog2e + kShift - kShift;
  // Keep 2^k representable as a normal double (|x| beyond ~700 saturates
  // instead of producing a garbage exponent). The clamp runs on doubles:
  // extracting an integer k needs a 64-bit arithmetic right shift, which
  // SSE2 cannot vectorize. Same bits as clamping an integer k
  // (tests/util/test_fastmath.cpp).
  double kc = kd < -1022.0 ? -1022.0 : kd;
  kc = kc > 1023.0 ? 1023.0 : kc;
  // r = x - k*ln2 in two pieces; |r| <= 0.3466.
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
  // Degree-9 Taylor polynomial of exp on the reduced range: the truncation
  // error r^10/10! is < 7e-12 relative at the interval edge.
  double p = 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // Scale by 2^kc via direct exponent construction: kc + 1023 is an integer
  // in [1, 2046], so adding kShift leaves it in the low 12 mantissa bits, and
  // shifting those up by 52 makes them the biased exponent of 2^kc.
  const double scale = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(kc + (1023.0 + kShift)) << 52);
  return p * scale;
}

}  // namespace cpm::util
