// converter.hpp — DAC and ADC models (the digital/analog boundary).
//
// The paper's second §2.2 argument is that on-fiber computing avoids the
// per-hop DAC/ADC conversions conventional photonic accelerators pay.
// These models make that cost explicit: every conversion is quantized,
// clipped, jittered and charged to the energy ledger.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "photonics/energy.hpp"
#include "photonics/rng.hpp"

namespace onfiber::phot {

struct converter_config {
  int bits = 8;              ///< nominal resolution
  double full_scale = 1.0;   ///< input/output range is [0, full_scale]
  double enob_penalty = 0.5; ///< effective-bits loss from jitter/nonlinearity
};

/// Digital-to-analog converter: maps a digital code in [0, full_scale]
/// onto an analog level with `bits` of quantization. (Codes are carried as
/// doubles already normalized by the driver.)
class dac {
 public:
  /// `noise_stream` keys the converter's counter-based noise stream (one
  /// u64 is drawn from it); every converted element consumes exactly one
  /// draw index, noisy or not, so stream position is a pure function of
  /// elements converted.
  dac(converter_config config, rng noise_stream,
      energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Convert one value. Clips to [0, full_scale], quantizes to the grid,
  /// and adds the ENOB-penalty noise.
  [[nodiscard]] double convert(double value);

  /// Batch convert into preallocated storage (`in.size()` values written
  /// to `out`). Bit-identical to the scalar loop; one bulk ledger charge.
  /// Two-pass: a counter-indexed noise fill into `noise_scratch` (same
  /// draw indices as the scalar path, but generated branch-free through
  /// the dispatched SIMD kernel), then a branch-free math pass over
  /// contiguous data — both passes vectorize at the active ISA level.
  void convert(std::span<const double> in, std::span<double> out,
               std::vector<double>& noise_scratch);

  /// Standard deviation the ENOB-penalty draws are scaled by.
  [[nodiscard]] double noise_sigma() const { return noise_sigma_; }

  /// Key of the noise stream a dac built with rng{seed} draws from.
  [[nodiscard]] static std::uint64_t noise_key(std::uint64_t seed);

  /// Effective resolution implied by the modeled noise: the configured
  /// quantization floor plus the ENOB-penalty Gaussian, folded back into
  /// bits — log2(full_scale / (total_rms * sqrt(12))). Reported by the
  /// benches next to ns/MAC.
  [[nodiscard]] double effective_bits() const;

 private:
  [[nodiscard]] double convert_core(double value);

  converter_config config_;
  counter_stream noise_;
  double noise_sigma_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

/// Analog-to-digital converter: same model in the opposite direction.
class adc {
 public:
  adc(converter_config config, rng noise_stream,
      energy_ledger* ledger = nullptr, energy_costs costs = {});

  [[nodiscard]] double convert(double value);

  /// A batch convert is two passes, bit-identical to the scalar loop.
  /// The noise half: the ENOB-penalty draws of the next out.size()
  /// conversions when the converter is noisy (`out` is left untouched
  /// otherwise; the cursor advances either way), charged to the ledger
  /// one conversion at a time, as the scalar loop charges them.
  void draw_noise(std::span<double> out);

  /// The math half: out[i] digitizes in[i] plus noise[i] scaled by
  /// noise_sigma(), with `noise` unread when the converter is noiseless.
  /// `out` may alias `in`.
  void digitize(std::span<const double> in, std::span<const double> noise,
                std::span<double> out) const;

  /// Standard deviation the ENOB-penalty draws are scaled by.
  [[nodiscard]] double noise_sigma() const { return noise_sigma_; }

  /// Key of the noise stream an adc built with rng{seed} draws from.
  [[nodiscard]] static std::uint64_t noise_key(std::uint64_t seed);

  /// Effective resolution implied by the modeled noise (see dac).
  [[nodiscard]] double effective_bits() const;

 private:
  [[nodiscard]] double convert_core(double value);

  converter_config config_;
  counter_stream noise_;
  double noise_sigma_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

/// Shared quantizer math: clip to [0, full_scale] and snap to an N-bit grid.
[[nodiscard]] double quantize_to_grid(double value, double full_scale,
                                      int bits);

/// Standard deviation of the Gaussian a converter of config `c` adds to
/// every conversion, so that its effective resolution is bits minus the
/// ENOB penalty (zero without a penalty).
[[nodiscard]] double enob_noise_sigma(const converter_config& c);

/// RMS quantization noise of an N-bit converter over [0, full_scale]:
/// lsb / sqrt(12). Used by tests to bound observed error analytically.
[[nodiscard]] double quantization_noise_rms(double full_scale, int bits);

}  // namespace onfiber::phot
