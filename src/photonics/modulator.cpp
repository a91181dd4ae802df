#include "photonics/modulator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "photonics/simd.hpp"

namespace onfiber::phot {

namespace {
constexpr double pi = std::numbers::pi;
}

// ------------------------------------------------------------ mzm_transfer

double mzm_transfer::transmission(double x) const {
  const double clamped = std::clamp(x, 0.0, 1.0);
  const double theta = std::acos(std::sqrt(clamped)) + 0.5 * bias_error_rad;
  const double t_field = std::cos(theta);
  return std::max(t_field * t_field, floor_t) * loss;
}

void mzm_transfer::weight_product(const double* codes, const double* dac_noise,
                                  double dac_sigma, double dac_full_scale,
                                  const double* power_mw, double* out,
                                  std::size_t n) const {
  if (bias_error_rad == 0.0) {
    simd::active().weight_product(codes, dac_noise, n, dac_full_scale,
                                  dac_sigma, floor_t, loss, power_mw, out);
    return;
  }
  // The bias error needs acos/cos per symbol, which stay scalar so every
  // SIMD tier sees the same libm bits.
  for (std::size_t i = 0; i < n; ++i) {
    double o = codes[i] + dac_sigma * dac_noise[i];
    o = o < 0.0 ? 0.0 : o;
    o = o > dac_full_scale ? dac_full_scale : o;
    out[i] = power_mw[i] * transmission(o);
  }
}

// ----------------------------------------------------------- mzm_modulator

mzm_modulator::mzm_modulator(modulator_config config, double bias_rad,
                             rng bias_noise, energy_ledger* ledger,
                             energy_costs costs)
    : config_(config),
      bias_rad_(bias_rad),
      ledger_(ledger),
      costs_(costs) {
  if (config_.bias_error_sigma_rad > 0.0) {
    transfer_.bias_error_rad =
        bias_noise.normal(0.0, config_.bias_error_sigma_rad);
  }
  // Finite extinction ratio: transmission never falls below this floor.
  transfer_.floor_t = db_to_ratio(-config_.extinction_ratio_db);
  field_loss_scale_ = field_loss_scale(config_.insertion_loss_db);
  transfer_.loss = db_to_ratio(-config_.insertion_loss_db);
}

double mzm_modulator::bias_error_for(const modulator_config& config,
                                     std::uint64_t seed) {
  if (config.bias_error_sigma_rad <= 0.0) return 0.0;
  return rng{seed}.normal(0.0, config.bias_error_sigma_rad);
}

field mzm_modulator::apply_phase_arg(field in, double total_phase_rad) const {
  // Field transfer of a balanced MZM: cos(theta), where theta is half the
  // differential arm phase. Intensity transfer = cos^2(theta).
  double t_field = std::cos(total_phase_rad);
  double t_intensity = t_field * t_field;
  t_intensity = std::max(t_intensity, transfer_.floor_t);
  const double scale = std::sqrt(t_intensity) * field_loss_scale_;
  // The sign of the field transfer matters for coherent cascades.
  return in * (t_field < 0.0 ? -scale : scale);
}

field mzm_modulator::modulate(field in, double drive_v) {
  const double v =
      std::clamp(drive_v, -config_.max_drive_v, config_.max_drive_v);
  if (ledger_ != nullptr) ledger_->charge("modulator", costs_.modulator_drive_j);
  const double theta = 0.5 * (bias_rad_ + transfer_.bias_error_rad) +
                       0.5 * pi * v / config_.v_pi;
  return apply_phase_arg(in, theta);
}

double mzm_modulator::intensity_transfer(double drive_v) const {
  const double v =
      std::clamp(drive_v, -config_.max_drive_v, config_.max_drive_v);
  const double theta = 0.5 * bias_rad_ + 0.5 * pi * v / config_.v_pi;
  const double t = std::cos(theta);
  return std::max(t * t, transfer_.floor_t) * transfer_.loss;
}

field mzm_modulator::encode_unit(field in, double x) {
  if (ledger_ != nullptr) ledger_->charge("modulator", costs_.modulator_drive_j);
  // Invert intensity transfer cos^2(theta) = x  =>  theta = acos(sqrt(x)).
  // The driver solves for the voltage; bias error still perturbs theta,
  // so calibration is imperfect exactly the way real hardware is.
  const double clamped = std::clamp(x, 0.0, 1.0);
  const double theta = std::acos(std::sqrt(clamped));
  return apply_phase_arg(in, theta + 0.5 * transfer_.bias_error_rad);
}

// --------------------------------------------------------- phase_modulator

phase_modulator::phase_modulator(modulator_config config, rng bias_noise,
                                 energy_ledger* ledger, energy_costs costs)
    : config_(config), ledger_(ledger), costs_(costs) {
  if (config_.bias_error_sigma_rad > 0.0) {
    phase_error_rad_ = bias_noise.normal(0.0, config_.bias_error_sigma_rad);
  }
  field_loss_scale_ = field_loss_scale(config_.insertion_loss_db);
}

field phase_modulator::encode_phase(field in, double phase_rad) {
  charge_drives(1);
  return in * phase_factor(phase_rad);
}

}  // namespace onfiber::phot
