#include "photonics/laser.hpp"

#include <cmath>
#include <limits>
#include <numbers>

#include "photonics/simd.hpp"

namespace onfiber::phot {

namespace {

/// Purpose tags separating the laser's two streams under one seed.
constexpr std::uint64_t kRinTag = 0x6c61735249ULL;    // "lasRI"
constexpr std::uint64_t kPhaseTag = 0x6c61735048ULL;  // "lasPH"

}  // namespace

laser::laser(laser_config config, rng noise_stream, energy_ledger* ledger,
             energy_costs costs)
    : config_(config),
      rin_stream_(0),
      phase_stream_(0),
      ledger_(ledger),
      costs_(costs) {
  // Two per-purpose counter keys from one draw of the seed stream: RIN
  // and phase draws live on unrelated streams, so either can be filled
  // or vectorized without disturbing the other.
  const std::uint64_t base = noise_stream();
  rin_stream_ = counter_stream(counter_rng::key_of(base, kRinTag));
  phase_stream_ = counter_stream(counter_rng::key_of(base, kPhaseTag));
  if (config_.enable_phase_noise && config_.symbol_rate_hz > 0.0) {
    phase_step_sigma_ = std::sqrt(2.0 * std::numbers::pi *
                                  config_.linewidth_hz /
                                  config_.symbol_rate_hz);
  }
  if (config_.enable_rin) {
    // RIN integrated over the symbol bandwidth, as a multiplicative
    // Gaussian power fluctuation. The sigma depends only on the configured
    // carrier power, so it is evaluated once here instead of per symbol.
    rin_sigma_mw_ =
        rin_sigma_mw(config_.power_mw, config_.rin_db_hz,
                     config_.symbol_rate_hz);
  }
}

field laser::emit_one() {
  // Every symbol consumes exactly one index of each stream — disabled
  // noise skips the index rather than not consuming it — so stream
  // positions are a pure function of symbols emitted, whatever the
  // config.
  double power = config_.power_mw;
  if (config_.enable_rin) {
    power += rin_sigma_mw_ * rin_stream_.normal();
    if (power < 0.0) power = 0.0;
  } else {
    rin_stream_.skip(1);
  }
  if (phase_step_sigma_ > 0.0) {
    phase_ += phase_step_sigma_ * phase_stream_.normal();
    // Keep the accumulated phase bounded for numerical hygiene.
    if (phase_ > 1e6 || phase_ < -1e6) {
      phase_ = std::remainder(phase_, 2.0 * std::numbers::pi);
    }
  } else {
    phase_stream_.skip(1);
  }
  if (ledger_ != nullptr) {
    ledger_->charge("laser", costs_.laser_j_per_symbol);
  }
  return make_field(power, phase_);
}

void laser::emit(std::size_t symbols, waveform& out, std::size_t passes) {
  out.resize(symbols);
  const bool has_rin = config_.enable_rin;
  const bool has_phase = phase_step_sigma_ > 0.0;
  const double* rin_draws = nullptr;
  const double* phase_draws = nullptr;
  if (has_rin) {
    rin_scratch_.resize(symbols);
    rin_stream_.fill_normal(rin_scratch_);
    rin_draws = rin_scratch_.data();
  } else {
    rin_stream_.skip(symbols);
  }
  if (has_phase) {
    phase_scratch_.resize(symbols);
    phase_stream_.fill_normal(phase_scratch_);
    phase_draws = phase_scratch_.data();
  } else {
    phase_stream_.skip(symbols);
  }
  const double base = config_.power_mw;
  const double rin_sigma = rin_sigma_mw_;
  const double phase_sigma = phase_step_sigma_;
  for (std::size_t i = 0; i < symbols; ++i) {
    double power = base;
    if (has_rin) {
      power += rin_sigma * rin_draws[i];
      if (power < 0.0) power = 0.0;
    }
    if (has_phase) {
      phase_ += phase_sigma * phase_draws[i];
      if (phase_ > 1e6 || phase_ < -1e6) {
        phase_ = std::remainder(phase_, 2.0 * std::numbers::pi);
      }
    }
    out[i] = make_field(power, phase_);
  }
  if (ledger_ != nullptr && symbols > 0) {
    ledger_->charge_batches("laser", costs_.laser_j_per_symbol,
                            symbols / passes, passes);
  }
}

void laser::emit_powers(std::span<double> out_mw) {
  const std::size_t symbols = out_mw.size();
  const std::uint64_t rin_key = rin_stream_.key();
  draw_powers(std::span(&rin_key, 1), rin_stream_.cursor(), out_mw);
  rin_stream_.skip(symbols);
  phase_stream_.skip(symbols);
  if (ledger_ != nullptr && symbols > 0) {
    ledger_->charge_batches("laser", costs_.laser_j_per_symbol, symbols, 1);
  }
}

moments laser::power_moments() const {
  return clamped_normal_moments(config_.power_mw,
                                config_.enable_rin ? rin_sigma_mw_ : 0.0, 0.0,
                                std::numeric_limits<double>::infinity());
}

void laser::draw_powers(std::span<const std::uint64_t> rin_keys,
                        std::uint64_t base,
                        std::span<double> out_powers) const {
  // RIN pass: dispatched counter fill + branch-free power pass in place,
  // both vectorized at the active SIMD level (same draw indices as
  // emit_one).
  if (config_.enable_rin) {
    fill_normal_rows(rin_keys, base, out_powers);
    simd::active().rin_power(out_powers.data(), out_powers.size(),
                             config_.power_mw, rin_sigma_mw_,
                             out_powers.data());
  } else {
    for (double& p : out_powers) p = config_.power_mw;
  }
}

}  // namespace onfiber::phot
