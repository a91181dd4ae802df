#include "photonics/engine/pattern_matcher.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "photonics/passives.hpp"

namespace onfiber::phot {

namespace {
constexpr double pi = std::numbers::pi;

/// 90-degree static shim on the pattern arm.
const field kShim = std::polar(1.0, -pi / 2.0);

/// A masked (don't-care) slot: the mask modulator blanks both arms.
const field kMasked{0.0, 0.0};

/// BPSK drive phase of bit b (0 -> 0 rad, 1 -> pi rad).
[[nodiscard]] double bpsk_phase(bool one) { return one ? pi : 0.0; }
}  // namespace

std::vector<tbit> to_ternary(std::span<const std::uint8_t> bits) {
  std::vector<tbit> out;
  out.reserve(bits.size());
  for (std::uint8_t b : bits) out.push_back(b ? tbit::one : tbit::zero);
  return out;
}

std::vector<std::uint8_t> bytes_to_bits(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> bits;
  bytes_to_bits(bytes, bits);
  return bits;
}

void bytes_to_bits(std::span<const std::uint8_t> bytes,
                   std::vector<std::uint8_t>& out) {
  out.resize(bytes.size() * 8);
  std::size_t i = 0;
  for (std::uint8_t byte : bytes) {
    for (int k = 7; k >= 0; --k) {
      out[i++] = static_cast<std::uint8_t>((byte >> k) & 1U);
    }
  }
}

pattern_matcher::pattern_matcher(pattern_match_config config,
                                 std::uint64_t seed, energy_ledger* ledger,
                                 energy_costs costs)
    : config_([&] {
        config.laser.symbol_rate_hz = config.symbol_rate_hz;
        config.detector.noise.bandwidth_hz = config.symbol_rate_hz;
        return config;
      }()),
      laser_(config_.laser, rng{seed}, ledger, costs),
      mod_data_(config_.modulator, rng{seed ^ 0xaaaa}, ledger, costs),
      mod_pattern_(config_.modulator, rng{seed ^ 0xbbbb}, ledger, costs),
      det_match_(config_.detector, rng{seed ^ 0xcccc}, ledger, costs),
      det_mismatch_(config_.detector, rng{seed ^ 0xdddd}, ledger, costs),
      adc_out_(config_.adc, rng{seed ^ 0xeeee}, ledger, costs),
      ledger_(ledger),
      costs_(costs),
      split_scale_(split_50_50_scale()) {}

void pattern_matcher::couple_into(std::size_t i, field data_arm,
                                  field pattern_arm) {
  const coupler_output ports = couple_50_50(data_arm, pattern_arm);
  port_match_mw_[i] = power_mw(ports.port1);
  port_mismatch_mw_[i] = power_mw(ports.port2);
}

match_result pattern_matcher::decide(std::size_t symbols, std::size_t cared) {
  // Balanced integrate-and-dump on both ports; normalization removes the
  // dependence on absolute power and on how many symbols were masked out.
  const double i_match = det_match_.integrate_power(
      std::span<const double>(port_match_mw_).first(symbols));
  const double i_mismatch = det_mismatch_.integrate_power(
      std::span<const double>(port_mismatch_mw_).first(symbols));
  const double dark = det_match_.config().dark_current_a;
  const double num = i_mismatch - dark;
  const double den = (i_match - dark) + (i_mismatch - dark);

  double fraction = den > 0.0 ? num / den : 1.0;
  // Rescale from "fraction of unmasked symbols" to "fraction of cared
  // bits": masked symbols carry zero power in both ports so they do not
  // enter num/den at all — only the cared count matters for the caller,
  // and num/den is already per-cared-power. Clamp for noise excursions.
  fraction = std::clamp(fraction, 0.0, 1.0);

  // Digitize the decision metric the way the real readout would.
  fraction = adc_out_.convert(fraction);

  match_result r;
  r.mismatch_fraction = fraction;
  r.matched = fraction <= config_.decision_threshold;
  r.symbols = symbols;
  r.latency_s = static_cast<double>(symbols) / config_.symbol_rate_hz +
                config_.fixed_latency_s;
  if (ledger_ != nullptr) {
    ledger_->charge("photonic_match", costs_.photonic_mac_j *
                                          static_cast<double>(cared),
                    static_cast<std::uint64_t>(cared));
  }
  return r;
}

match_result pattern_matcher::match_ternary(std::span<const std::uint8_t> data,
                                            std::span<const tbit> pattern) {
  if (data.size() != pattern.size() || data.empty()) {
    throw std::invalid_argument(
        "pattern_matcher: data/pattern must be non-empty, equal length");
  }
  const std::size_t n = data.size();
  // One launch fill: every slot draws its carrier, masked or not.
  laser_.emit(n, carrier_, n);
  const field data_factor[2] = {mod_data_.phase_factor(bpsk_phase(false)),
                                mod_data_.phase_factor(bpsk_phase(true))};
  const field pattern_factor[2] = {
      mod_pattern_.phase_factor(bpsk_phase(false)),
      mod_pattern_.phase_factor(bpsk_phase(true))};
  port_match_mw_.resize(n);
  port_mismatch_mw_.resize(n);
  std::size_t cared = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pattern[i] == tbit::wildcard) {
      couple_into(i, kMasked, kMasked * kShim);
      continue;
    }
    ++cared;
    // Both splitter outputs carry the same field.
    const field arm = carrier_[i] * split_scale_;
    couple_into(i, arm * data_factor[data[i] != 0],
                (arm * pattern_factor[pattern[i] == tbit::one]) * kShim);
  }
  if (cared == 0) {
    throw std::invalid_argument(
        "pattern_matcher: pattern must have at least one cared bit");
  }
  mod_data_.charge_drives(cared);
  mod_pattern_.charge_drives(cared);
  return decide(n, cared);
}

match_result pattern_matcher::match_bits(std::span<const std::uint8_t> data,
                                         std::span<const std::uint8_t> pattern) {
  const std::vector<tbit> ternary = to_ternary(pattern);
  return match_ternary(data, ternary);
}

match_result pattern_matcher::match_bytes(
    std::span<const std::uint8_t> data,
    std::span<const std::uint8_t> pattern) {
  const std::vector<std::uint8_t> data_bits = bytes_to_bits(data);
  const std::vector<std::uint8_t> pattern_bits = bytes_to_bits(pattern);
  return match_bits(data_bits, pattern_bits);
}

waveform pattern_matcher::encode_bits_to_optical(
    std::span<const std::uint8_t> bits) {
  waveform out;
  encode_bits_to_optical(bits, out);
  return out;
}

void pattern_matcher::encode_bits_to_optical(std::span<const std::uint8_t> bits,
                                             waveform& out) {
  const std::size_t n = bits.size() + 1;
  laser_.emit(n, out, n);
  const field factor[2] = {mod_data_.phase_factor(bpsk_phase(false)),
                           mod_data_.phase_factor(bpsk_phase(true))};
  // Pilot: known phase 0 at full carrier power.
  out[0] *= factor[0];
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out[i + 1] *= factor[bits[i] != 0];
  }
  mod_data_.charge_drives(n);
}

match_result pattern_matcher::match_optical(std::span<const field> data_wave,
                                            std::span<const tbit> pattern) {
  if (data_wave.size() != pattern.size() + 1 || pattern.empty()) {
    throw std::invalid_argument(
        "pattern_matcher: waveform must be pattern length + 1 (pilot)");
  }
  // Pilot-aided recovery: the pilot's phase is the carrier reference and
  // its power is the per-symbol reference power of the incoming word.
  const field pilot = data_wave[0];
  const double reference_power_mw = power_mw(pilot);
  if (reference_power_mw <= 0.0) {
    throw std::invalid_argument("pattern_matcher: pilot carries no power");
  }
  const field derotate = std::polar(1.0, -std::arg(pilot));

  // The pattern arm passes through the local pattern modulator (insertion
  // loss and all); pre-scale its launch power so both interferometer arms
  // land at the same power — arm imbalance would otherwise put a floor
  // under the mismatch metric. One carrier, two drive levels: the whole
  // shimmed pattern arm takes two values per call.
  const field carrier = make_field(
      reference_power_mw * db_to_ratio(config_.modulator.insertion_loss_db));
  const field pattern_arm[2] = {
      (carrier * mod_pattern_.phase_factor(bpsk_phase(false))) * kShim,
      (carrier * mod_pattern_.phase_factor(bpsk_phase(true))) * kShim};

  const std::size_t n = pattern.size();
  port_match_mw_.resize(n);
  port_mismatch_mw_.resize(n);
  std::size_t cared = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pattern[i] == tbit::wildcard) {
      couple_into(i, kMasked, kMasked * kShim);
      continue;
    }
    ++cared;
    couple_into(i, data_wave[i + 1] * derotate,
                pattern_arm[pattern[i] == tbit::one]);
  }
  if (cared == 0) {
    throw std::invalid_argument(
        "pattern_matcher: pattern must have at least one cared bit");
  }
  mod_pattern_.charge_drives(cared);
  return decide(n, cared);
}

}  // namespace onfiber::phot
