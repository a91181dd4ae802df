#include "photonics/engine/wdm_engine.hpp"

#include <stdexcept>
#include <vector>

namespace onfiber::phot {

wdm_gemv_engine::wdm_gemv_engine(dot_product_config config, std::size_t lanes,
                                 std::uint64_t seed, energy_ledger* ledger,
                                 energy_costs costs,
                                 double adjacent_crosstalk_db)
    : engine_(config, seed, ledger, costs),
      lanes_(lanes),
      symbol_rate_hz_(config.symbol_rate_hz),
      crosstalk_ratio_(db_to_ratio(adjacent_crosstalk_db)) {
  if (lanes == 0) {
    throw std::invalid_argument("wdm_gemv_engine: need >= 1 lane");
  }
  if (adjacent_crosstalk_db > 0.0) {
    throw std::invalid_argument(
        "wdm_gemv_engine: crosstalk must be <= 0 dB");
  }
}

gemv_result wdm_gemv_engine::gemv_signed(const matrix& w,
                                         std::span<const double> x) {
  gemv_result out = engine_.gemv_signed(w, x);
  // Adjacent-channel crosstalk: rows detected concurrently on
  // neighboring wavelengths leak a fraction of their power into each
  // other's detectors. Rows r-1/r+1 (mod lane striping) are the grid
  // neighbors of row r within the same evaluation round.
  if (crosstalk_ratio_ > 0.0 && lanes_ > 1) {
    const std::vector<double> clean = out.values;
    for (std::size_t r = 0; r < w.rows; ++r) {
      const std::size_t round = r / lanes_;
      double leak = 0.0;
      if (r > 0 && (r - 1) / lanes_ == round) leak += clean[r - 1];
      if (r + 1 < w.rows && (r + 1) / lanes_ == round) {
        leak += clean[r + 1];
      }
      out.values[r] += crosstalk_ratio_ * leak;
    }
  }
  // Every row has the same shape and so the same latency; the slowest
  // lane is lane 0, which serves ceil(rows / lanes) of them.
  const std::size_t lane_rows = (w.rows + lanes_ - 1) / lanes_;
  out.latency_s = out.latency_s / static_cast<double>(w.rows) *
                  static_cast<double>(lane_rows);
  return out;
}

double wdm_gemv_engine::peak_mac_rate() const {
  return static_cast<double>(lanes_) * symbol_rate_hz_ / 4.0;
}

}  // namespace onfiber::phot
