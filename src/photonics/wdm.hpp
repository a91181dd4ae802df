// wdm.hpp — wavelength-division multiplexing capacity model.
//
// §5 of the paper claims a photonic compute transponder can support up to
// 800 Gbps on one wavelength [12], shared among many users. This module
// models per-channel capacity as a function of symbol rate and modulation
// order, a line of channels on distinct grid slots, and a proportional
// sharing model used by bench E16.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace onfiber::phot {

/// One WDM channel on the ITU C-band grid.
struct wdm_channel {
  int index = 0;                 ///< grid slot index
  double symbol_rate_gbaud = 128.0;  ///< e.g. 128 GBd for 800G [12]
  int bits_per_symbol = 6;       ///< e.g. PCS-64QAM ~ 6 b/sym (minus FEC)
  double fec_overhead = 0.15;    ///< fraction of raw rate spent on FEC

  /// Net information rate after FEC [bit/s]. A dual-polarization channel
  /// doubles the single-pol rate; commodity coherent transponders are DP.
  [[nodiscard]] double net_rate_bps(bool dual_polarization = true) const {
    const double raw = symbol_rate_gbaud * 1e9 *
                       static_cast<double>(bits_per_symbol) *
                       (dual_polarization ? 2.0 : 1.0);
    return raw * (1.0 - fec_overhead);
  }
};

/// A populated WDM line system: a set of channels on one fiber.
class wdm_line {
 public:
  /// Add a channel at the given grid index. Throws if occupied.
  void add_channel(wdm_channel ch) {
    for (const auto& existing : channels_) {
      if (existing.index == ch.index) {
        throw std::invalid_argument("wdm_line: grid slot already occupied");
      }
    }
    channels_.push_back(ch);
  }

  /// Aggregate net capacity of the line [bit/s].
  [[nodiscard]] double total_capacity_bps() const {
    double sum = 0.0;
    for (const auto& ch : channels_) sum += ch.net_rate_bps();
    return sum;
  }

  /// Max-min fair share for `users` equal users of one channel [bit/s].
  /// The paper's sharing story (§5): one 800G wavelength divided among
  /// many on-fiber computing users.
  [[nodiscard]] static double fair_share_bps(const wdm_channel& ch,
                                             std::uint64_t users) {
    if (users == 0) return 0.0;
    return ch.net_rate_bps() / static_cast<double>(users);
  }

 private:
  std::vector<wdm_channel> channels_;
};

/// Convenience: the 800G configuration the paper cites (Che, OFC'22 [12]).
[[nodiscard]] inline wdm_channel make_800g_channel(int index = 0) {
  wdm_channel ch;
  ch.index = index;
  ch.symbol_rate_gbaud = 128.0;
  ch.bits_per_symbol = 4;   // DP-16QAM at 128 GBd
  ch.fec_overhead = 0.20;
  // net = 128e9 * 4 * 2 * 0.8 = 819.2 Gb/s ≈ "800G"
  return ch;
}

}  // namespace onfiber::phot
