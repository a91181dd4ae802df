#include "photonics/engine/wdm_engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace onfiber::phot {

wdm_gemv_engine::wdm_gemv_engine(dot_product_config config, std::size_t lanes,
                                 std::uint64_t seed, energy_ledger* ledger,
                                 energy_costs costs,
                                 double adjacent_crosstalk_db)
    : config_(config),
      crosstalk_ratio_(db_to_ratio(adjacent_crosstalk_db)) {
  if (lanes == 0) {
    throw std::invalid_argument("wdm_gemv_engine: need >= 1 lane");
  }
  if (adjacent_crosstalk_db > 0.0) {
    throw std::invalid_argument(
        "wdm_gemv_engine: crosstalk must be <= 0 dB");
  }
  lanes_.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    dot_product_config lane_cfg = config;
    // Each lane rides its own 100 GHz grid slot.
    wdm_channel ch;
    ch.index = static_cast<int>(lane);
    lane_cfg.laser.wavelength_m = ch.center_wavelength_m();
    lanes_.push_back(std::make_unique<dot_product_unit>(
        lane_cfg, seed ^ (0x9e3779b97f4a7c15ULL * (lane + 1)), ledger,
        costs));
  }
}

gemv_result wdm_gemv_engine::gemv_signed(const matrix& w,
                                         std::span<const double> x) {
  if (w.cols != x.size() || w.rows == 0) {
    throw std::invalid_argument("wdm_gemv_engine: shape mismatch");
  }
  gemv_result out;
  out.batch = 1;
  out.values.assign(w.rows, 0.0);
  std::vector<double> lane_latency(lanes_.size(), 0.0);
  for (std::size_t r = 0; r < w.rows; ++r) {
    const std::size_t lane = r % lanes_.size();
    const dot_result d = lanes_[lane]->dot_signed(w.row(r), x);
    out.values[r] = d.value;
    lane_latency[lane] += d.latency_s;
    out.symbols += d.symbols;
  }
  // Adjacent-channel crosstalk: rows detected concurrently on
  // neighboring wavelengths leak a fraction of their power into each
  // other's detectors. Rows r-1/r+1 (mod lane striping) are the grid
  // neighbors of row r within the same evaluation round.
  if (crosstalk_ratio_ > 0.0 && lanes_.size() > 1) {
    const std::vector<double> clean = out.values;
    for (std::size_t r = 0; r < w.rows; ++r) {
      const std::size_t round = r / lanes_.size();
      double leak = 0.0;
      if (r > 0 && (r - 1) / lanes_.size() == round) leak += clean[r - 1];
      if (r + 1 < w.rows && (r + 1) / lanes_.size() == round) {
        leak += clean[r + 1];
      }
      out.values[r] += crosstalk_ratio_ * leak;
    }
  }
  out.latency_s =
      *std::max_element(lane_latency.begin(), lane_latency.end());
  return out;
}

double wdm_gemv_engine::peak_mac_rate() const {
  return static_cast<double>(lanes_.size()) * config_.symbol_rate_hz / 4.0;
}

}  // namespace onfiber::phot
