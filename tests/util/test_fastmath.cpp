#include "util/fastmath.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace cpm::util {
namespace {

/// exp_fast as first written: integer k from a sign-extending shift of the
/// mantissa bits, clamped as an int64. The current version clamps in the
/// double domain so it vectorizes; it must return the same bits.
double exp_fast_int_clamp(double x) {
  constexpr double kLog2e = 1.4426950408889634074;
  constexpr double kShift = 6755399441055744.0;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  double kd = x * kLog2e + kShift;
  std::int64_t k =
      static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(kd) << 13) >> 13;
  kd -= kShift;
  if (k > 1023) k = 1023;
  if (k < -1022) k = -1022;
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
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
  const double scale =
      std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
  return p * scale;
}

void expect_same_bits(double x) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(exp_fast(x)),
            std::bit_cast<std::uint64_t>(exp_fast_int_clamp(x)))
      << "x=" << x;
}

TEST(ExpFast, BitIdenticalToIntegerClampFormula) {
  // Dense sweep over the whole finite-exponent range and beyond it.
  for (double x = -800.0; x <= 800.0; x += 0.001953125 * 3.0) {
    expect_same_bits(x);
  }
  // The leakage operating range at a finer, non-dyadic step.
  for (double x = -3.0; x <= 3.0; x += 1e-4) expect_same_bits(x);
  // Clamp edges: k = -1022 / 1023 and one step either side, hit through
  // x = k*ln2 and its neighbouring doubles.
  constexpr double kLn2 = 0.69314718055994530942;
  for (const double k : {-1023.0, -1022.0, -1021.0, 1022.0, 1023.0, 1024.0}) {
    const double x = k * kLn2;
    expect_same_bits(x);
    expect_same_bits(std::nextafter(x, -1e300));
    expect_same_bits(std::nextafter(x, 1e300));
    expect_same_bits(x + 0.5 * kLn2);
    expect_same_bits(x - 0.5 * kLn2);
  }
  // Far outside the range (both formulas saturate the exponent), while
  // x/ln2 still fits the 51-bit integer the old formula extracted.
  for (const double x : {-1e6, 1e6, -1e12, 1e12, -5e14, 5e14}) {
    expect_same_bits(x);
  }
  // Non-finite inputs.
  expect_same_bits(std::numeric_limits<double>::infinity());
  expect_same_bits(-std::numeric_limits<double>::infinity());
  expect_same_bits(std::numeric_limits<double>::quiet_NaN());
  expect_same_bits(-std::numeric_limits<double>::quiet_NaN());
}

TEST(ExpFast, ExactAtZero) { EXPECT_DOUBLE_EQ(exp_fast(0.0), 1.0); }

TEST(ExpFast, RelativeErrorOnOperatingRange) {
  // The leakage kernel feeds beta * (T - T0), i.e. O(1) arguments; the
  // documented accuracy there is ~1e-11 relative.
  for (double x = -20.0; x <= 20.0; x += 1.0 / 64.0) {
    const double exact = std::exp(x);
    EXPECT_NEAR(exp_fast(x) / exact, 1.0, 5e-11) << "x=" << x;
  }
}

TEST(ExpFast, RelativeErrorOnFullRange) {
  // |x| <= ~700 stays finite and accurate; the polynomial error does not
  // grow with |x| (only the 2^k scale does), so the bound holds throughout.
  for (double x = -700.0; x <= 700.0; x += 0.37) {
    const double exact = std::exp(x);
    EXPECT_NEAR(exp_fast(x) / exact, 1.0, 5e-11) << "x=" << x;
  }
}

TEST(ExpFast, SaturatesInsteadOfOverflowing) {
  // Outside +-~700 the exponent clamp gives a finite (inaccurate) value
  // rather than infinity/garbage bit patterns.
  EXPECT_TRUE(std::isfinite(exp_fast(800.0)));
  EXPECT_GT(exp_fast(800.0), 0.0);
  EXPECT_TRUE(std::isfinite(exp_fast(-800.0)));
}

TEST(ExpFast, DeterministicAcrossCalls) {
  for (double x = -5.0; x <= 5.0; x += 0.1) {
    EXPECT_EQ(exp_fast(x), exp_fast(x));
  }
}

TEST(ExpFast, MonotoneOnLeakageRange) {
  // Leakage feedback only needs local monotonicity over realistic
  // temperature excursions (beta ~0.01-0.02, |dT| <= ~100 C -> |x| <= 2).
  double prev = exp_fast(-2.0);
  for (double x = -2.0 + 1e-3; x <= 2.0; x += 1e-3) {
    const double cur = exp_fast(x);
    EXPECT_GE(cur, prev) << "x=" << x;
    prev = cur;
  }
}

}  // namespace
}  // namespace cpm::util
