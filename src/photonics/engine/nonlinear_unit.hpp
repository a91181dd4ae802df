// nonlinear_unit.hpp — P3: photonic nonlinear function (paper Fig. 2c).
//
// Implementation follows Bandyopadhyay et al. [9] as described in §2.1: a
// tap splits off a fraction of the incoming light onto a photodetector;
// the resulting photocurrent, through a transimpedance stage, drives a
// modulator sitting on the through path. With the modulator biased at its
// null, low input powers keep the through path dark and high input powers
// open it — a ReLU-like transfer realized entirely with devices already
// present in a transponder.
//
// The electro-optic transfer is
//     P_out = P_in * (1 - tap) * IL * sin^2( (pi/2) * g * R * tap * P_in / V_pi )
// which for small arguments is quadratic (soft knee) and saturates at
// full transmission — qualitatively the "ReLU-like function" of [9].
#pragma once

#include <span>
#include <vector>

#include "photonics/energy.hpp"
#include "photonics/modulator.hpp"
#include "photonics/photodetector.hpp"
#include "photonics/rng.hpp"

namespace onfiber::phot {

struct nonlinear_config {
  modulator_config modulator{};
  photodetector_config detector{};
  double tap_ratio = 0.1;          ///< optical fraction sent to the tap PD
  /// Volts of modulator drive per amp of tap photocurrent. The default is
  /// chosen so a 10 mW full-scale input drives the modulator to V_pi
  /// (full transmission): 10 mW * 0.1 tap * 1 A/W * 4e3 V/A = 4 V = V_pi.
  double transimpedance_v_a = 4.0e3;
  double drive_offset_v = 0.0;     ///< electrical offset shifting the knee
  double symbol_rate_hz = 10e9;
};

/// P3 primitive: per-sample optical activation function.
class nonlinear_unit {
 public:
  nonlinear_unit(nonlinear_config config, std::uint64_t seed,
                 energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Apply the activation to one optical sample (noise included).
  [[nodiscard]] field apply(field in);

  /// Noiseless transfer curve: output power for a given input power [mW].
  /// Tests and the Fig. 2c bench sample this.
  [[nodiscard]] double transfer_mw(double input_power_mw) const;

  /// Digital-value activation used by DNN layers: `x` is the input as a
  /// fraction of `full_scale_mw` optical power; returns the output power
  /// as a fraction of the same scale (noisy, physical path).
  [[nodiscard]] double activate(double x, double full_scale_mw) {
    return activate(x, full_scale_mw, transfer_mw(full_scale_mw));
  }

  /// Same, with the unit's peak output `peak_mw` ==
  /// transfer_mw(full_scale_mw) computed once by callers that activate
  /// many samples at one scale.
  [[nodiscard]] double activate(double x, double full_scale_mw,
                                double peak_mw);

 private:
  nonlinear_config config_;
  mzm_modulator through_mod_;
  photodetector tap_detector_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

}  // namespace onfiber::phot
