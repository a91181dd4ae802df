// quantize_detail.hpp — the converters' grid snap, shared by the scalar
// converter paths (converter.cpp), the dispatched SIMD passes
// (simd_kernels_impl.hpp) and the GEMM's code snap
// (vector_matrix_engine.cpp), so every path snaps with one expression.
//
// Internal linkage on purpose: the per-ISA kernel TUs compile these with
// different -m flags, and an inline function with external linkage would
// let the linker hand one TU's vector code to every other TU.
#pragma once

#include <cmath>

namespace onfiber::phot::detail {
namespace {

/// std::round for every value a grid snap rounds: x >= +0.0, -0.0 and
/// NaN. Built from trunc and one compare, so it compiles to vector
/// instructions at every SIMD tier in every build; std::round becomes a
/// libm call wherever -fno-trapping-math is off. For these inputs
/// x - trunc(x) is exact, so k + 0.5 rounds up and nextafter(0.5, 0)
/// rounds down, as std::round does. The select keeps -0.0, which
/// t + 0.0 would turn into +0.0.
[[nodiscard]] inline double round_half_away(double x) {
  const double t = std::trunc(x);
  return x - t >= 0.5 ? t + 1.0 : t;
}

/// Clip to [0, full_scale] and snap to a grid of `levels` steps. The
/// clip is written as conditional moves (min/max) rather than a branchy
/// std::clamp, with identical results for every input, NaN included.
[[nodiscard]] inline double quantize_bf(double value, double full_scale,
                                        double levels) {
  double c = value < 0.0 ? 0.0 : value;
  c = c > full_scale ? full_scale : c;
  return round_half_away(c / full_scale * levels) / levels * full_scale;
}

}  // namespace
}  // namespace onfiber::phot::detail
