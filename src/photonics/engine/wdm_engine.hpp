// wdm_engine.hpp — wavelength-parallel GEMV engine.
//
// The single dot-product unit is one wavelength lane; published photonic
// accelerators ([50], Lightning [71]) fan the same input out over many
// wavelengths and evaluate many weight rows concurrently. This engine
// models that: N lanes on a 100 GHz grid evaluate rows round-robin, so
// GEMV latency is the slowest lane's serial share instead of the full
// row count. The values come from one signed GEMV on the one analog
// driver (`vector_matrix_engine`), every row on its own row seed, plus
// the demux crosstalk between lanes evaluated in the same round.
#pragma once

#include <cstdint>

#include "photonics/engine/vector_matrix_engine.hpp"

namespace onfiber::phot {

class wdm_gemv_engine {
 public:
  /// `lanes` parallel dot-product lanes; the row noise streams derive
  /// from `seed`. `adjacent_crosstalk_db` models imperfect demux
  /// isolation: each lane's detected value leaks into its neighbors at
  /// the given (negative-dB) power ratio; -100 dB effectively disables
  /// it, real AWG demuxes sit around -25 to -35 dB.
  wdm_gemv_engine(dot_product_config config, std::size_t lanes,
                  std::uint64_t seed, energy_ledger* ledger = nullptr,
                  energy_costs costs = {},
                  double adjacent_crosstalk_db = -100.0);

  /// y = W x, signed, rows distributed round-robin over the lanes.
  /// Latency is the maximum per-lane serial latency (lanes run
  /// concurrently); energy is the sum over all lanes.
  [[nodiscard]] gemv_result gemv_signed(const matrix& w,
                                        std::span<const double> x);

  /// Aggregate MAC throughput at the configured symbol rate [MAC/s]:
  /// lanes x symbol rate (a signed GEMV uses 4 symbols per MAC).
  [[nodiscard]] double peak_mac_rate() const;

 private:
  vector_matrix_engine engine_;
  std::size_t lanes_;
  double symbol_rate_hz_;
  double crosstalk_ratio_;  ///< linear power leak between neighbors
};

}  // namespace onfiber::phot
