// passives.hpp — passive optical components: couplers, splitters,
// attenuators. Pure functions of the field; no state, no noise.
#pragma once

#include <utility>

#include "photonics/optical.hpp"
#include "photonics/units.hpp"

namespace onfiber::phot {

/// 2x2 directional coupler output ports for inputs (a, b).
///
/// Standard lossless 50/50 coupler transfer matrix:
///   out1 = (a + i*b) / sqrt(2)
///   out2 = (i*a + b) / sqrt(2)
/// Port powers |out1|^2 + |out2|^2 == |a|^2 + |b|^2 (energy conserving).
struct coupler_output {
  field port1;
  field port2;
};

[[nodiscard]] inline coupler_output couple_50_50(field a, field b) {
  constexpr double inv_sqrt2 = 0.70710678118654752440;
  const field j{0.0, 1.0};
  return {(a + j * b) * inv_sqrt2, (j * a + b) * inv_sqrt2};
}

/// Field scale of each Y-splitter output: the inherent 3 dB split times
/// an excess loss in dB.
[[nodiscard]] inline double split_50_50_scale(double excess_loss_db = 0.1) {
  return 0.70710678118654752440 * field_loss_scale(excess_loss_db);
}

/// Y-splitter: divides one input into two equal outputs, with an excess
/// loss in dB applied on top of the inherent 3 dB split.
[[nodiscard]] inline std::pair<field, field> split_50_50(
    field in, double excess_loss_db = 0.1) {
  const double scale = split_50_50_scale(excess_loss_db);
  return {in * scale, in * scale};
}

}  // namespace onfiber::phot
