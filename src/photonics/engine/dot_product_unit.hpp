// dot_product_unit.hpp — P1: photonic vector dot product (paper Fig. 2a).
//
// Physics of the primitive (following Feldmann et al. [19] and Sludds et
// al. [50] as cited by the paper):
//   1. a DAC converts each element a_i to a drive voltage,
//   2. an MZM encodes a_i as the intensity transmission of the carrier,
//   3. a second, back-to-back MZM multiplies by b_i (element-wise product
//      in the analog intensity domain),
//   4. a photodetector integrates the symbol train — analog accumulation —
//      yielding a photocurrent proportional to sum_i a_i * b_i,
//   5. an ADC digitizes the result.
//
// Signed values use the standard differential (positive/negative rail)
// decomposition: x = x+ - x-, so a·b expands into four non-negative
// passes. `dot_signed` hides this; `dot_unit_range` is the raw primitive;
// both run on the fused kernel `dot_passes`.
//
// On-fiber mode: when the data is *already optical* (arriving from the
// fiber, per the paper's receive-path design in Fig. 4) the a-side DAC and
// modulator are skipped — `dot_with_optical_input` starts from a waveform
// whose per-symbol power encodes a_i. This is the paper's key saving and
// is what bench E17 ablates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "photonics/converter.hpp"
#include "photonics/energy.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/photodetector.hpp"
#include "photonics/rng.hpp"

namespace onfiber::phot {

struct dot_product_config {
  laser_config laser{};
  modulator_config modulator{};
  photodetector_config detector{};
  converter_config dac{};
  converter_config adc{};
  double symbol_rate_hz = 10e9;   ///< analog compute rate
  double fixed_latency_s = 5e-9;  ///< optical path + driver latency
};

/// Result of one analog dot-product evaluation.
struct dot_result {
  double value = 0.0;        ///< estimated dot product (caller's scale)
  double latency_s = 0.0;    ///< analog evaluation time
  std::uint64_t symbols = 0; ///< optical symbols consumed
};

/// Operand order of the four signed rail passes (pp, nn, pn, np).
enum class rail_operand : std::uint8_t {
  a,  ///< [x+, x-, x+, x-]
  b,  ///< [x+, x-, x-, x+]
};

/// Split a signed vector into its rails (x = x+ - x-) laid out as one
/// operand of the four signed passes; `out` holds 4 * x.size() values.
void lay_out_rails(std::span<const double> x, rail_operand side,
                   std::span<double> out);

/// P1 primitive. One instance owns its devices and noise streams; a single
/// experiment seed makes every evaluation reproducible.
class dot_product_unit {
 public:
  dot_product_unit(dot_product_config config, std::uint64_t seed,
                   energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Re-key every device in place: afterwards bit-identical to
  /// dot_product_unit(config(), seed, ledger, costs), but allocation-free
  /// and with the scratch arena's capacity kept.
  void rekey(std::uint64_t seed);

  /// Dot product of two vectors with elements in [0, 1].
  /// Requires a.size() == b.size() and both non-empty.
  [[nodiscard]] dot_result dot_unit_range(std::span<const double> a,
                                          std::span<const double> b) {
    return dot_passes(a, b, 1);
  }

  /// Element-wise reference implementation of `dot_unit_range`: walks the
  /// full field-domain pipeline one symbol at a time. Numerically agrees
  /// with the fused kernel to floating-point rounding (tests pin this);
  /// kept as the correctness oracle and the bench baseline.
  [[nodiscard]] dot_result dot_unit_range_scalar(std::span<const double> a,
                                                 std::span<const double> b);

  /// Dot product of two vectors with elements in [-1, 1], via the
  /// differential four-pass decomposition.
  [[nodiscard]] dot_result dot_signed(std::span<const double> a,
                                      std::span<const double> b);

  /// The fused intensity-domain kernel every dot runs on: `a` and `b`
  /// hold 1 (unsigned) or 4 (signed, `lay_out_rails` order) equal passes
  /// back to back. Each device runs one batched fill over all passes —
  /// the draw indices of the pass-by-pass loop, as streams are
  /// independent — then each pass is read out on its own, with detector,
  /// ADC and ledger charges in pass order. Signed: pp + nn - pn - np.
  /// Allocation-free after warm-up; spans must not alias the scratch.
  [[nodiscard]] dot_result dot_passes(std::span<const double> a,
                                      std::span<const double> b,
                                      std::size_t passes);

  /// On-fiber twin: `a_mw` holds the a operand's received per-symbol
  /// powers [mW] relative to full-scale `reference_power_mw`. Only the
  /// b-side DAC/modulator and the detector/ADC run.
  [[nodiscard]] dot_result dot_optical_passes(std::span<const double> a_mw,
                                              std::span<const double> b,
                                              double reference_power_mw,
                                              std::size_t passes);

  /// §4 noise mitigation ("new algorithms to mitigate photonic noise
  /// during computation"): repeat the analog evaluation `repeats` times
  /// and average. Analog noise shrinks ~1/sqrt(repeats); the readout
  /// quantization floor is also averaged down because laser RIN dithers
  /// the ADC input across repetitions. Latency scales with repeats.
  [[nodiscard]] dot_result dot_unit_range_averaged(std::span<const double> a,
                                                   std::span<const double> b,
                                                   int repeats);

  /// On-fiber variant: `optical_a` is the incoming waveform whose sample
  /// powers encode a_i in [0,1] relative to `reference_power_mw` (the
  /// calibrated full-scale receive power).
  [[nodiscard]] dot_result dot_with_optical_input(
      std::span<const field> optical_a, std::span<const double> b,
      double reference_power_mw);

  /// Encode a [0,1] vector onto the carrier as an optical waveform — the
  /// transmit half of the on-fiber story (used by transponders to launch
  /// compute data).
  [[nodiscard]] waveform encode_to_optical(std::span<const double> a);

  /// Same, writing into caller-owned storage (resized to a.size()) so
  /// repeated launches reuse one buffer.
  void encode_to_optical(std::span<const double> a, waveform& out);

  /// Launch x's rails, x+ then x-, through encode_to_optical and write
  /// their powers as the a operand of dot_optical_passes (4 * x.size()).
  void encode_rails_received(std::span<const double> x,
                             std::span<double> out_mw);

  /// Advance every device noise stream past `passes` kernel passes of
  /// dimension `dim` in O(1): each pass consumes `dim` indices on the
  /// DACs and laser streams and one on the detector and ADC. Only valid
  /// for the intensity-domain kernels (the laser phase is not walked).
  void skip_passes(std::uint64_t passes, std::uint64_t dim);

  /// Calibrated full-scale receive power of this unit's own encode path
  /// [mW]: power seen when encoding 1.0 through both modulators at b=1.
  [[nodiscard]] double full_scale_power_mw() const;

  [[nodiscard]] const dot_product_config& config() const { return config_; }

 private:
  /// Reusable buffers for the fused kernels. Owned by the unit and resized
  /// monotonically: after the first call at a given length every evaluation
  /// is allocation-free.
  struct kernel_scratch {
    std::vector<double> rail_a, rail_b;    ///< signed-input rail layouts
    std::vector<double> dac_a, dac_b;      ///< post-DAC drive levels
    std::vector<double> dac_noise_a, dac_noise_b;  ///< DAC two-pass draws
    std::vector<double> trans_a, trans_b;  ///< MZM intensity transmissions
    std::vector<double> power;   ///< laser or received per-symbol powers [mW]
    std::vector<double> product;           ///< per-symbol product powers [mW]
    waveform wave;                         ///< launch buffer
  };

  /// Common back half: integrated photocurrent -> digitized dot result.
  [[nodiscard]] dot_result read_out_current(double current_a,
                                            double full_scale_mw,
                                            std::size_t length);

  /// Read the scratch product powers out pass by pass and combine them.
  [[nodiscard]] dot_result read_out_passes(std::size_t passes,
                                           std::size_t length,
                                           double full_scale_mw);

  dot_product_config config_;
  laser laser_;
  mzm_modulator mod_a_;
  mzm_modulator mod_b_;
  photodetector detector_;
  dac dac_a_;
  dac dac_b_;
  adc adc_out_;
  kernel_scratch scratch_;
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

}  // namespace onfiber::phot
