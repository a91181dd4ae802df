// transponder.hpp — commodity optical transponder (paper Fig. 3).
//
// Models the physical transmit and receive paths of a pluggable coherent
// transponder at symbol granularity:
//
//   transmit:  bits -> DAC -> MZM -> optical out
//   receive:   optical in -> photodetector -> ADC -> bits
//
// PAM-2 (OOK) and Gray-coded PAM-4 line codings are supported. Every
// DAC/ADC sample is charged to the energy ledger, which is how benches
// E4/E17 count the conversions the paper wants to eliminate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "photonics/converter.hpp"
#include "photonics/energy.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/photodetector.hpp"

namespace onfiber::core {

enum class line_coding : std::uint8_t {
  pam2 = 1,  ///< 1 bit/symbol (on-off keying)
  pam4 = 2,  ///< 2 bits/symbol, Gray mapped
};

struct transponder_config {
  phot::laser_config laser{};
  phot::modulator_config modulator{};
  phot::photodetector_config detector{};
  phot::converter_config dac{};
  phot::converter_config adc{};
  double symbol_rate_hz = 50e9;
  line_coding coding = line_coding::pam4;
  double dsp_latency_s = 100e-9;  ///< DSP ASIC pipeline latency per packet
};

/// Outcome of a receive operation.
struct receive_report {
  std::vector<std::uint8_t> bytes;
  std::uint64_t symbol_errors = 0;  ///< vs. the transmitted levels, if known
  double latency_s = 0.0;
};

/// Fig. 3 commodity transponder.
class commodity_transponder {
 public:
  commodity_transponder(transponder_config config, std::uint64_t seed,
                        phot::energy_ledger* ledger = nullptr,
                        phot::energy_costs costs = {});

  /// Serialize bytes onto the carrier. One DAC conversion per symbol.
  [[nodiscard]] phot::waveform transmit(std::span<const std::uint8_t> bytes);

  /// Recover bytes from a waveform. One ADC conversion per symbol.
  /// `sent` (optional) enables symbol-error counting against ground truth.
  [[nodiscard]] receive_report receive(
      std::span<const phot::field> wave,
      std::span<const std::uint8_t> sent = {});

  /// Symbols needed to carry `n` bytes at the configured coding.
  [[nodiscard]] std::size_t symbols_for_bytes(std::size_t n) const;

  /// Expected receive power of the level-1 (full-scale) symbol [mW],
  /// before any fiber loss.
  [[nodiscard]] double full_scale_power_mw() const;

  [[nodiscard]] const transponder_config& config() const { return config_; }

 private:
  [[nodiscard]] int bits_per_symbol() const {
    return static_cast<int>(config_.coding);
  }

  transponder_config config_;
  phot::laser laser_;
  phot::mzm_modulator modulator_;
  phot::photodetector detector_;
  phot::dac dac_;
  phot::adc adc_;
};

}  // namespace onfiber::core
