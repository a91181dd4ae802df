// energy.hpp — per-operation energy accounting.
//
// The paper's §2.2 argues two quantitative points:
//   1. a photonic 8-bit MAC costs ~40 aJ vs ~70 fJ on a TPU (1750x), and
//   2. keeping data optical removes the DAC/ADC conversions that dominate
//      conventional photonic accelerators (Lightning-style designs).
// Reproducing those claims requires every simulated device to report the
// energy it spends. `energy_ledger` is a passive observer that devices
// charge; benches read it out per experiment.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace onfiber::phot {

/// Default energy costs per elementary operation [J]. Values follow the
/// paper's citations: photonic MAC from Sludds et al. [50] (40 aJ / 8-bit
/// MAC); TPU MAC from Jouppi et al. [28] as quoted in §2.2 (7e-14 J);
/// converter costs from published 8-bit multi-GS/s DAC/ADC surveys
/// (~1 pJ/conversion class devices used in coherent transponders).
struct energy_costs {
  double photonic_mac_j = 40e-18;       ///< photonic multiply-accumulate
  double digital_tpu_mac_j = 70e-15;    ///< TPU 8-bit MAC (paper §2.2)
  double digital_gpu_mac_j = 150e-15;   ///< GPU 8-bit MAC (A100 class)
  double digital_cpu_mac_j = 5e-12;     ///< general-purpose CPU MAC
  double dac_conversion_j = 1e-12;      ///< one 8-bit DAC sample
  double adc_conversion_j = 1.5e-12;    ///< one 8-bit ADC sample
  double modulator_drive_j = 50e-15;    ///< charging a modulator electrode
  double photodetector_readout_j = 10e-15;  ///< TIA readout per symbol
  double laser_j_per_symbol = 100e-15;  ///< amortized laser wall power
  double sram_access_j = 10e-12;        ///< weight fetch in digital baseline
};

/// Accumulates energy [J] and op counts under named categories.
///
/// Devices take a `energy_ledger*` observer; passing nullptr disables
/// accounting with zero overhead beyond a branch.
class energy_ledger {
 public:
  struct entry {
    double joules = 0.0;
    std::uint64_t ops = 0;
  };
  /// Ordered for deterministic reports; std::less<> finds a string_view.
  using entry_map = std::map<std::string, entry, std::less<>>;

  /// Charge `joules` under `category`, spread over `ops` operations.
  void charge(std::string_view category, double joules,
              std::uint64_t ops = 1) {
    entry& e = slot(category);
    e.joules += joules;
    e.ops += ops;
  }

  /// Exactly `batches` calls of charge(category, joules_per_op * ops,
  /// ops): fused multi-pass device fills charge like the pass loop.
  void charge_batches(std::string_view category, double joules_per_op,
                      std::uint64_t ops, std::uint64_t batches) {
    charge_repeated(category, joules_per_op * static_cast<double>(ops), ops,
                    batches);
  }

  /// Exactly `times` calls of charge(category, joules, ops), with one
  /// category lookup.
  void charge_repeated(std::string_view category, double joules,
                       std::uint64_t ops, std::uint64_t times) {
    if (times == 0) return;
    entry& e = slot(category);
    for (std::uint64_t t = 0; t < times; ++t) {
      e.joules += joules;
      e.ops += ops;
    }
  }

  /// Total energy across all categories [J].
  [[nodiscard]] double total_joules() const {
    double sum = 0.0;
    for (const auto& [name, e] : entries_) sum += e.joules;
    return sum;
  }

  /// Energy recorded under one category [J] (0 if absent).
  [[nodiscard]] double joules(std::string_view category) const {
    const auto it = entries_.find(category);
    return it == entries_.end() ? 0.0 : it->second.joules;
  }

  /// Operation count recorded under one category (0 if absent).
  [[nodiscard]] std::uint64_t ops(std::string_view category) const {
    const auto it = entries_.find(category);
    return it == entries_.end() ? 0 : it->second.ops;
  }

  /// All categories, for report printing.
  [[nodiscard]] const entry_map& entries() const { return entries_; }

 private:
  /// Allocates only on a category's first charge.
  entry& slot(std::string_view category) {
    const auto it = entries_.find(category);
    if (it != entries_.end()) return it->second;
    return entries_.emplace(std::string(category), entry{}).first->second;
  }

  entry_map entries_;
};

}  // namespace onfiber::phot
