// photodetector.hpp — photodiode + transimpedance receiver model.
//
// The photodetector is the analog summation element of P1 (its finite
// bandwidth integrates consecutive symbol powers into one photocurrent)
// and the readout element of P2/P3. The model converts optical power to
// photocurrent via responsivity, adds shot + thermal noise, and applies
// saturation.
#pragma once

#include <span>

#include "photonics/energy.hpp"
#include "photonics/noise.hpp"
#include "photonics/optical.hpp"
#include "photonics/rng.hpp"

namespace onfiber::phot {

struct photodetector_config {
  double responsivity_a_w = 1.0;     ///< A/W (InGaAs @ 1550 nm ~ 0.9-1.1)
  double dark_current_a = 5e-9;      ///< dark current
  double saturation_current_a = 10e-3;  ///< clipping level
  receiver_noise_config noise{};     ///< shot/thermal configuration
};

/// Square-law detector: photocurrent i = R * P + dark + noise.
class photodetector {
 public:
  photodetector(photodetector_config config, rng noise_stream,
                energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Detect a single field sample -> photocurrent [A].
  [[nodiscard]] double detect(field in);

  /// Integrate-and-dump over per-symbol optical powers [mW]: the averaged
  /// photocurrent of all symbols, i.e. the analog accumulation used by
  /// P1. Noise is applied to the integrated value with the noise
  /// bandwidth reduced by the symbol count (coherent integration gain).
  /// Powers, not fields: a square-law detector cannot observe the field
  /// phase, so the fused kernels track power directly.
  [[nodiscard]] double integrate_power(std::span<const double> power_mw);

  /// Noise parameters of a readout integrating `symbols` symbols: the
  /// bandwidth narrowed by the symbol count and the thermal variance at
  /// that bandwidth, computed once per readout shape.
  struct integration_noise {
    double bandwidth_hz = 0.0;
    double thermal_var = 0.0;
  };
  [[nodiscard]] integration_noise integration_noise_for(
      std::size_t symbols) const;

  /// The noise half of integrate_power readouts: the next out.size()
  /// draws (one per readout, noisy or not), charged to the ledger as
  /// that many readouts.
  void draw_readout_noise(std::span<double> out);

  /// The math half: readout k integrates `symbols` powers starting at
  /// power_mw[k * symbols] with standard normal draw noise[k], into
  /// current_a[k], for current_a.size() readouts. One dispatched call
  /// sums every readout's powers and one more turns the sums into noisy,
  /// clipped currents (`readout_currents`); current_a must not alias
  /// power_mw.
  void integrate_readouts(std::span<const double> power_mw,
                          std::size_t symbols, const integration_noise& nz,
                          std::span<const double> noise,
                          std::span<double> current_a) const;

  /// Readout k's noisy, clipped current from the sum of its `symbols`
  /// powers, sums_mw[k] [mW], with standard normal draw noise[k], into
  /// current_a[k]. `current_a` may alias `sums_mw`.
  void readout_currents(std::span<const double> sums_mw, std::size_t symbols,
                        const integration_noise& nz,
                        std::span<const double> noise,
                        std::span<double> current_a) const;

  /// Key of the noise stream a detector built with rng{seed} draws from;
  /// each readout consumes exactly one of its draw indices.
  [[nodiscard]] static std::uint64_t noise_key(std::uint64_t seed);

  [[nodiscard]] const photodetector_config& config() const { return config_; }

  /// Noiseless expected current for a given optical power [mW] — the
  /// calibration reference used by converters and tests.
  [[nodiscard]] double expected_current_a(double power_mw) const {
    return config_.responsivity_a_w * power_mw * 1e-3 +
           config_.dark_current_a;
  }

 private:
  [[nodiscard]] double clip(double current_a) const;

  photodetector_config config_;
  counter_stream noise_;  ///< one draw index per readout, always
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

}  // namespace onfiber::phot
