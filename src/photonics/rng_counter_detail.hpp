// rng_counter_detail.hpp — shared implementation of the counter-based
// normal transform.
//
// Included by rng.cpp (the scalar reference path) and by every per-ISA
// simd_kernels_*.cpp translation unit (the vectorized fills). The two
// must agree bit-for-bit, which holds only when every including TU is
// compiled with -ffp-contract=off (the photonics target forces this):
// with contraction disabled, each floating-point expression here rounds
// operation by operation in source order, so scalar and SIMD lanes — and
// every ISA — produce identical doubles.
//
// The transform is Acklam's rational approximation to the inverse normal
// CDF (relative error < 1.2e-9, far below every physical sigma in the
// device models). The central region (95.15% of draws) is a pure
// polynomial ratio — add/mul/div only, branch-free, vectorizable. The
// tails need log, which stays scalar libm; the vector fills take the
// same std::log per tail lane and then the same sqrt and tail rational
// as inv_normal_tail, so tail values match operation for operation.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace onfiber::phot::detail {

/// splitmix64 increment; (index+1)*gamma keys draw 0 away from the raw key.
inline constexpr std::uint64_t kCounterGamma = 0x9e3779b97f4a7c15ULL;

/// Central/tail split of the Acklam approximation: draws with uniform in
/// [kInvNormPLow, kInvNormPHigh] take the polynomial-only central branch.
inline constexpr double kInvNormPLow = 0.02425;
inline constexpr double kInvNormPHigh = 1.0 - 0.02425;

/// Counter-mode splitmix64: draw `index` of stream `key`, as a pure
/// function of both. Same finalizer as splitmix64(state&), evaluated at
/// the state the sequential form would reach after index+1 steps of a
/// stream whose initial state is `key`.
[[nodiscard]] inline constexpr std::uint64_t counter_draw_u64(
    std::uint64_t key, std::uint64_t index) {
  std::uint64_t z = key + (index + 1) * kCounterGamma;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform in the open interval (0, 1) from the top 52 bits of a draw:
/// ((bits >> 12) + 0.5) * 2^-52, built with an exponent-OR bit trick so
/// the u64 -> double conversion stays in the integer domain (AVX2 has no
/// packed u64 -> f64 instruction; this form vectorizes on every ISA and
/// is exact, so all levels agree). Never returns 0 or 1, so log() in the
/// tail branch is always finite.
[[nodiscard]] inline double counter_uniform_open(std::uint64_t key,
                                                 std::uint64_t index) {
  const std::uint64_t bits =
      (counter_draw_u64(key, index) >> 12) | 0x3ff0000000000000ULL;
  // bit pattern is 1.f in [1, 2); subtract 1 for [0, 1), then shift by
  // half an ulp into (0, 1). Both steps are exact in double.
  return (std::bit_cast<double>(bits) - 1.0) + 0x1.0p-53;
}

/// Acklam central region, valid for p in [kInvNormPLow, kInvNormPHigh].
/// Polynomial ratio only: vectorizes branch-free on every ISA.
[[nodiscard]] inline double inv_normal_central(double p) {
  const double q = p - 0.5;
  const double r = q * q;
  const double num =
      (((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r -
          2.759285104469687e+02) *
             r +
         1.383577518672690e+02) *
            r -
        3.066479806614716e+01) *
           r +
       2.506628277459239e+00) *
      q;
  const double den =
      ((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r -
         1.556989798598866e+02) *
            r +
        6.680131188771972e+01) *
           r -
       1.328068155288572e+01) *
          r +
      1.0;
  return num / den;
}

/// Acklam tail rational of the lower tail at q = sqrt(-2 log(p)); the
/// upper tail is its negation at q = sqrt(-2 log(1 - p)). Polynomial
/// ratio only: the vector fills evaluate it over packed tail lanes.
[[nodiscard]] inline double inv_normal_tail_rational(double q) {
  return (((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q -
             2.400758277161838e+00) *
                q -
            2.549732539343734e+00) *
               q +
           4.374664141464968e+00) *
              q +
          2.938163982698783e+00) /
         ((((7.784695709041462e-03 * q + 3.224671290700398e-01) * q +
            2.445134137142996e+00) *
               q +
           3.754408661907416e+00) *
              q +
          1.0);
}

/// Acklam tail region, valid for p outside the central band. The log is
/// scalar libm at every ISA (~4.85% of draws); the vector fills call the
/// same std::log per tail lane and this same rational, so all ISAs share
/// the one definition.
[[nodiscard]] inline double inv_normal_tail(double p) {
  const bool upper = p > 0.5;
  const double pp = upper ? 1.0 - p : p;
  const double x = inv_normal_tail_rational(std::sqrt(-2.0 * std::log(pp)));
  return upper ? -x : x;
}

/// Full inverse normal CDF (reference composition of the two regions).
[[nodiscard]] inline double inv_normal(double p) {
  if (p < kInvNormPLow || p > kInvNormPHigh) return inv_normal_tail(p);
  return inv_normal_central(p);
}

}  // namespace onfiber::phot::detail
