// noise.hpp — physical noise processes of the analog optical datapath.
//
// Analog precision is the central engineering question for photonic
// computing (paper §4: "new algorithms to mitigate photonic noise during
// computation"). Three processes bound it:
//
//   * shot noise       — Poisson statistics of photon arrival at the
//                        photodetector; variance grows with signal power,
//                        SNR grows as sqrt(P).
//   * thermal noise    — Johnson noise of the photodetector's load /
//                        transimpedance amplifier; signal independent.
//   * RIN              — laser relative intensity noise; multiplicative.
//
// All three are expressed as per-symbol current or power perturbations so
// device models can apply them sample by sample. A readout that only
// observes the integrated sum of its symbols draws that sum from its
// exact moments instead (`clamped_normal_moments`).
#pragma once

#include <cmath>
#include <numbers>

#include "photonics/rng.hpp"
#include "photonics/units.hpp"

namespace onfiber::phot {

/// Shot-noise standard deviation [A] of a photocurrent `current_a` [A]
/// observed in an electrical bandwidth `bandwidth_hz`.
///   sigma^2 = 2 q I B
[[nodiscard]] inline double shot_noise_sigma_a(double current_a,
                                               double bandwidth_hz) {
  const double i = current_a < 0.0 ? -current_a : current_a;
  return std::sqrt(2.0 * electron_charge * i * bandwidth_hz);
}

/// Thermal (Johnson) noise standard deviation [A] of a load resistance
/// `load_ohm` at temperature `temperature_k` in bandwidth `bandwidth_hz`.
///   sigma^2 = 4 k T B / R
[[nodiscard]] inline double thermal_noise_sigma_a(double load_ohm,
                                                  double temperature_k,
                                                  double bandwidth_hz) {
  return std::sqrt(4.0 * boltzmann_k * temperature_k * bandwidth_hz / load_ohm);
}

/// RIN-induced power standard deviation [mW] for laser power `power_mw`
/// with relative intensity noise `rin_db_hz` (e.g. -155 dB/Hz) integrated
/// over `bandwidth_hz`.
///   sigma_P = P * sqrt(10^(RIN/10) * B)
[[nodiscard]] inline double rin_sigma_mw(double power_mw, double rin_db_hz,
                                         double bandwidth_hz) {
  return power_mw * std::sqrt(db_to_ratio(rin_db_hz) * bandwidth_hz);
}

/// Mean and variance of one random quantity.
struct moments {
  double mean = 0.0;
  double var = 0.0;
};

/// Exact moments of clamp(mu + sigma * Z, lo, hi) for a standard normal
/// Z: the normal's interior plus the point masses at both clips, in
/// closed form in the normal CDF and density. `hi` may be +infinity;
/// sigma = 0 gives the clamped point. Computed on the centred variable
/// clamp(Z, a, b), so the variance does not cancel for sigma << |mu|.
[[nodiscard]] inline moments clamped_normal_moments(double mu, double sigma,
                                                    double lo, double hi) {
  if (!(sigma > 0.0)) {
    const double x = mu < lo ? lo : (mu > hi ? hi : mu);
    return {x, 0.0};
  }
  const double a = (lo - mu) / sigma;
  const double b = (hi - mu) / sigma;
  constexpr double inv_sqrt2 = 0.70710678118654752440;
  constexpr double inv_sqrt_2pi = std::numbers::inv_sqrtpi * inv_sqrt2;
  // Each clip's mass and density. Beyond ten sigma (an infinite clip
  // included) they are below the rounding of every term they join,
  // Phi(-10) ~ 8e-24, and are left out, which spares the grid levels in
  // a drive's interior their special functions.
  constexpr double kFar = 10.0;
  const bool has_lo = a > -kFar;
  const bool has_hi = b < kFar;
  const double mass_lo = has_lo ? 0.5 * std::erfc(-a * inv_sqrt2) : 0.0;
  const double mass_hi = has_hi ? 0.5 * std::erfc(b * inv_sqrt2) : 0.0;
  const double pdf_lo = has_lo ? inv_sqrt_2pi * std::exp(-0.5 * a * a) : 0.0;
  const double pdf_hi = has_hi ? inv_sqrt_2pi * std::exp(-0.5 * b * b) : 0.0;
  // Interior mass P(a < Z < b), from the tail nearer the interval so a
  // narrow interval far out does not cancel to zero.
  double inner;
  if (has_lo && a > 0.0) {
    inner = 0.5 * std::erfc(a * inv_sqrt2) - mass_hi;
  } else if (has_hi && b < 0.0) {
    inner = 0.5 * std::erfc(-b * inv_sqrt2) - mass_lo;
  } else {
    inner = 1.0 - mass_lo - mass_hi;
  }
  const double lo_a = has_lo ? a : 0.0;
  const double hi_b = has_hi ? b : 0.0;
  const double m1 = lo_a * mass_lo + hi_b * mass_hi + pdf_lo - pdf_hi;
  const double m2 = lo_a * lo_a * mass_lo + hi_b * hi_b * mass_hi + inner +
                    lo_a * pdf_lo - hi_b * pdf_hi;
  const double var_w = m2 - m1 * m1;
  return {mu + sigma * m1, var_w > 0.0 ? sigma * sigma * var_w : 0.0};
}

/// Bundled receiver noise configuration shared by photodetector-based
/// devices.
struct receiver_noise_config {
  double bandwidth_hz = 10e9;    ///< electrical bandwidth (10 GHz detector)
  double load_ohm = 50.0;        ///< TIA input impedance
  double temperature_k = 300.0;  ///< room temperature
  bool enable_shot = true;
  bool enable_thermal = true;

  /// Sample the total additive current noise [A] for a photocurrent
  /// `current_a` from `stream`. Consumes exactly one draw index whether
  /// or not the variance is positive (zero-variance readouts skip the
  /// index instead of leaving it unconsumed), so stream position stays a
  /// pure function of readouts taken — the invariant every batched /
  /// skippable photodetector path relies on.
  [[nodiscard]] double sample_current_noise_a(double current_a,
                                              counter_stream& stream) const {
    double variance = 0.0;
    if (enable_shot) {
      const double s = shot_noise_sigma_a(current_a, bandwidth_hz);
      variance += s * s;
    }
    if (enable_thermal) {
      const double t =
          thermal_noise_sigma_a(load_ohm, temperature_k, bandwidth_hz);
      variance += t * t;
    }
    if (variance <= 0.0) {
      stream.skip(1);
      return 0.0;
    }
    return std::sqrt(variance) * stream.normal();
  }
};

}  // namespace onfiber::phot
