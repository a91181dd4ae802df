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
// passes (`lay_out_rails`).
//
// This unit holds the device models and the readout math of P1; every
// evaluation runs on `vector_matrix_engine`, the one analog driver,
// which keys each row's streams from a per-call row seed (`row_keys`).
// The unit keeps its own continuing streams only for the on-fiber launch
// (`encode_rails_received`) and for the field-domain reference
// `dot_unit_range_scalar`.
//
// On-fiber mode: when the data is *already optical* (arriving from the
// fiber, per the paper's receive-path design in Fig. 4) the laser, the
// a-side DAC and the a modulator are skipped — the on-fiber GEMM
// (`vector_matrix_engine::gemm_optical`) starts from received per-symbol
// powers that encode a_i and runs only the b side and the readout. This
// is the paper's key saving and is what bench E17 ablates.
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

/// The shape invariants of P1 readouts: `symbols` integrated per readout
/// at a calibrated full-scale power. Computed once per engine call.
struct readout_plan {
  std::size_t symbols = 0;
  photodetector::integration_noise noise;  ///< at bandwidth B / symbols
  double full_scale_a = 0.0;       ///< detector current at full scale
  double responsivity_term = 0.0;  ///< R * full-scale power [A]
  double latency_s = 0.0;          ///< analog time of one readout

  /// One dot result from 1 or 4 (pp, nn, pn, np) pass readouts:
  /// pp + nn - pn - np when signed.
  [[nodiscard]] dot_result combine(const double* values,
                                   std::size_t passes) const;
};

/// The noise GEMM rows draw under their row seeds, one array per stream
/// kind: entry r holds the key or bias error of dot_product_unit(config,
/// seeds[r])'s device. A readout's analog sum, whatever factors it
/// integrates, draws on the b-side DAC's key. The on-fiber pass has no a
/// modulator and leaves its bias errors empty.
struct row_keys {
  std::vector<std::uint64_t> dac_b;  ///< readout-sum keys (b-side DAC)
  std::vector<std::uint64_t> detector;  ///< detector noise keys
  std::vector<std::uint64_t> adc;       ///< readout ADC noise keys
  std::vector<double> bias_error_a_rad;  ///< a modulator (0 unless set)
  std::vector<double> bias_error_b_rad;  ///< b modulator (0 unless set)
};

/// Split a signed vector into its rails (x = x+ - x-) laid out as one
/// operand of the four signed passes; `out` holds 4 * x.size() values.
void lay_out_rails(std::span<const double> x, rail_operand side,
                   std::span<double> out);

/// P1 device models. One instance owns its devices and noise streams; a
/// single experiment seed makes every evaluation reproducible.
class dot_product_unit {
 public:
  dot_product_unit(dot_product_config config, std::uint64_t seed,
                   energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Element-wise field-domain reference of an unsigned dot (elements in
  /// [0, 1]) on this unit's own streams: walks the full pipeline one
  /// symbol at a time, then reads out once. Kept as the correctness
  /// oracle and the bench baseline of the engine's intensity-domain
  /// kernel. Requires a.size() == b.size() and both non-empty.
  [[nodiscard]] dot_result dot_unit_range_scalar(std::span<const double> a,
                                                 std::span<const double> b);

  /// Launch the rails of each `cols`-wide sample of xs, x+ then x-,
  /// sample by sample, as one launch on this unit's continuing DAC-a,
  /// laser and a-modulator streams, and write their received powers as
  /// the samples of the on-fiber GEMM (4 * cols each). Computed on
  /// powers: the phase walk is skipped, not drawn, since the carrier
  /// phase is unobservable under square-law detection; each draw index
  /// and ledger charge is what a field launch would take.
  void encode_rails_received(std::span<const double> xs, std::size_t cols,
                             std::span<double> out_mw);

  /// Calibrated full-scale receive power of this unit's own encode path
  /// [mW]: power seen when encoding 1.0 through both modulators at b=1.
  [[nodiscard]] double full_scale_power_mw() const;

  /// Readout invariants for `symbols` per readout at calibrated
  /// full-scale power `full_scale_mw`.
  [[nodiscard]] readout_plan plan_readout(std::size_t symbols,
                                          double full_scale_mw) const;

  /// The one P1 readout math, over values.size() readouts: readout k
  /// detects sums[k], the sum of its plan.symbols product powers [mW],
  /// with detector draw detector_noise[k], is normalized to the full
  /// scale, digitized with ADC draw adc_noise[k] (unread when the ADC is
  /// noiseless) and recovered to a product sum, into values[k]. Uses
  /// only this unit's device models, never its streams or ledger.
  void read_out(const readout_plan& plan, std::span<const double> sums,
                std::span<const double> detector_noise,
                std::span<const double> adc_noise,
                std::span<double> values) const;

  /// Keys and bias errors of every GEMM row, one pass over the row
  /// seeds into `out`; the a modulator's bias errors only when `a_side`.
  void row_keys_for(std::span<const std::uint64_t> seeds, bool a_side,
                    row_keys& out) const;

  /// Standard deviation of the draws of either DAC (one config).
  [[nodiscard]] double dac_noise_sigma() const { return dac_b_.noise_sigma(); }

  /// Whether the readout ADC draws noise at all.
  [[nodiscard]] bool adc_noisy() const { return adc_out_.noise_sigma() > 0.0; }

  /// The carrier, whose per-symbol power moments an electrical GEMM
  /// pass integrates.
  [[nodiscard]] const laser& carrier() const { return laser_; }

  [[nodiscard]] const dot_product_config& config() const { return config_; }

 private:
  /// Reusable buffers of the launch path and the scalar reference.
  /// Owned by the unit and resized monotonically: after the first call at
  /// a given length every evaluation is allocation-free.
  struct kernel_scratch {
    std::vector<double> rail_a;       ///< launched sample rails
    std::vector<double> dac_a;        ///< a-side DAC outputs
    std::vector<double> dac_noise_a;  ///< a-side DAC two-pass draws
    std::vector<double> launched;     ///< launched rail powers [mW]
    std::vector<double> product;      ///< per-symbol product powers [mW]
  };

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
