#include "photonics/modulator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "photonics/simd.hpp"

namespace onfiber::phot {

namespace {
constexpr double pi = std::numbers::pi;

/// 8-point Gauss-Legendre nodes (positive half) and weights on [-1, 1].
constexpr double kGaussNodes[4] = {0.1834346424956498, 0.5255324099163290,
                                   0.7966664774136267, 0.9602898564975363};
constexpr double kGaussWeights[4] = {0.3626837833783620, 0.3137066458778873,
                                     0.2223810344533745, 0.1012285362903763};

/// Normal tail mass beyond which the quadrature stops: |z| <= 9.
constexpr double kQuadratureSpan = 9.0;

/// A quadrature node against the standard normal density: abscissa and
/// weight (density included).
struct quadrature_node {
  double z;
  double w;
};

/// 8-point Gauss-Legendre nodes of [a, b] against the normal density, in
/// panels at most two sigma wide. The integrand's square root has an
/// infinite slope at a singular end (`singular_a` at end_a <= a,
/// `singular_b` at end_b >= b): panels within two sigma of one integrate
/// over t = sqrt(|z - end|), in which they are smooth.
std::vector<quadrature_node> panel_nodes(double a, double b, bool singular_a,
                                         bool singular_b, double end_a = 0.0,
                                         double end_b = 0.0) {
  constexpr double inv_sqrt_2pi = 0.3989422804014327;
  const auto panels = static_cast<std::size_t>(std::ceil(0.5 * (b - a)));
  const double width = (b - a) / static_cast<double>(panels);
  std::vector<quadrature_node> out;
  out.reserve(8 * panels);
  for (std::size_t p = 0; p < panels; ++p) {
    const double l = a + width * static_cast<double>(p);
    const double r = p + 1 == panels ? b : l + width;
    double t0 = 0.0, t1 = 0.0, end = 0.0, dir = 0.0;
    if (singular_a && l - end_a < 2.0) {
      end = end_a, dir = 1.0, t0 = std::sqrt(l - end_a);
      t1 = std::sqrt(r - end_a);
    } else if (singular_b && end_b - r < 2.0) {
      end = end_b, dir = -1.0, t0 = std::sqrt(end_b - r);
      t1 = std::sqrt(end_b - l);
    }
    for (std::size_t k = 0; k < 8; ++k) {
      const double x = (k < 4 ? -1.0 : 1.0) * kGaussNodes[k % 4];
      double z = 0.5 * (l + r) + 0.5 * (r - l) * x;
      double jacobian = 0.5 * (r - l);
      if (dir != 0.0) {
        const double t = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x;
        z = end + dir * t * t;
        jacobian = (t1 - t0) * t;
      }
      out.push_back({z, kGaussWeights[k % 4] * jacobian * inv_sqrt_2pi *
                            std::exp(-0.5 * z * z)});
    }
  }
  return out;
}
}  // namespace

// ------------------------------------------------------------ mzm_transfer

mzm_transfer mzm_transfer::calibrated(const modulator_config& config) {
  mzm_transfer t;
  // Finite extinction ratio: transmission never falls below this floor.
  t.floor_t = db_to_ratio(-config.extinction_ratio_db);
  t.loss = db_to_ratio(-config.insertion_loss_db);
  return t;
}

moments mzm_transfer::drive_moments(double code, double dac_sigma,
                                    double dac_full_scale) const {
  // The transfer is flat above 1, so the DAC's upper clip and the
  // transfer's merge at `hi`.
  const double hi = dac_full_scale < 1.0 ? dac_full_scale : 1.0;
  if (bias_error_rad == 0.0) {
    const moments m = clamped_normal_moments(code, dac_sigma, floor_t,
                                             floor_t > hi ? floor_t : hi);
    return {loss * m.mean, loss * loss * m.var};
  }
  const double centre = transmission(std::clamp(code, 0.0, dac_full_scale));
  if (!(dac_sigma > 0.0)) return {centre, 0.0};
  // Moments of T - centre, so the variance does not cancel: first the
  // clip masses at o = 0 and o = hi.
  const double z_lo = -code / dac_sigma;
  const double z_hi = (hi - code) / dac_sigma;
  const double mass_lo = 0.5 * std::erfc(-z_lo / std::sqrt(2.0));
  const double mass_hi = 0.5 * std::erfc(z_hi / std::sqrt(2.0));
  const double d_lo = transmission(0.0) - centre;
  const double d_hi = transmission(hi) - centre;
  double m1 = mass_lo * d_lo + mass_hi * d_hi;
  double m2 = mass_lo * d_lo * d_lo + mass_hi * d_hi * d_hi;
  // The interior, on the transfer's algebraic form: cos^2(acos(sqrt(u))
  // + bias / 2) = u cos(bias) + (1 - cos(bias)) / 2 - sin(bias) sqrt(u (1
  // - u)) for u in [0, 1], which needs no acos per node.
  const double cb = std::cos(bias_error_rad);
  const double sb = std::sin(bias_error_rad);
  const auto deviation = [&](double z) {
    double u = code + dac_sigma * z;
    u = u < 0.0 ? 0.0 : (u > 1.0 ? 1.0 : u);
    const double g = u * cb + 0.5 * (1.0 - cb) - sb * std::sqrt(u * (1.0 - u));
    return (g > floor_t ? g : floor_t) * loss - centre;
  };
  // Pieces between the interior's ends and the drives where the transfer
  // crosses its floor (theta = acos(sqrt(floor)) - bias / 2 and its
  // mirror), in panels at most two sigma wide.
  const double left = std::max(z_lo, -kQuadratureSpan);
  const double right = std::min(z_hi, kQuadratureSpan);
  double cuts[4] = {left, right, left, left};
  std::size_t n_cuts = 2;
  const double psi = std::acos(std::sqrt(floor_t));
  for (const double theta : {psi - 0.5 * bias_error_rad,
                             pi - psi - 0.5 * bias_error_rad}) {
    if (theta <= 0.0 || theta >= 0.5 * pi) continue;
    const double c = std::cos(theta);
    const double z = (c * c - code) / dac_sigma;
    if (z > left && z < right) cuts[n_cuts++] = z;
  }
  const auto accumulate = [&](std::span<const quadrature_node> nodes) {
    for (const quadrature_node& q : nodes) {
      const double d = deviation(q.z);
      m1 += q.w * d;
      m2 += q.w * d * d;
    }
  };
  if (n_cuts == 2 && left == -kQuadratureSpan && right == kQuadratureSpan) {
    // An interior drive: the nodes of [-9, 9], the same for every code.
    static const std::vector<quadrature_node> interior =
        panel_nodes(-kQuadratureSpan, kQuadratureSpan, false, false);
    accumulate(interior);
  } else {
    for (std::size_t i = 1; i < n_cuts; ++i) {
      for (std::size_t j = i; j > 0 && cuts[j] < cuts[j - 1]; --j) {
        std::swap(cuts[j], cuts[j - 1]);
      }
    }
    for (std::size_t c = 0; c + 1 < n_cuts; ++c) {
      if (!(cuts[c + 1] > cuts[c])) continue;
      // The square root has an infinite slope where u reaches 0 (z_lo)
      // or 1 (z_hi, when hi is 1).
      accumulate(panel_nodes(cuts[c], cuts[c + 1], left == z_lo,
                             right == z_hi && hi == 1.0, z_lo, z_hi));
    }
  }
  const double var = m2 - m1 * m1;
  return {centre + m1, var > 0.0 ? var : 0.0};
}

double mzm_transfer::transmission(double x) const {
  const double clamped = std::clamp(x, 0.0, 1.0);
  const double theta = std::acos(std::sqrt(clamped)) + 0.5 * bias_error_rad;
  const double t_field = std::cos(theta);
  return std::max(t_field * t_field, floor_t) * loss;
}

void mzm_transfer::weight_product(const double* drive, const double* power_mw,
                                  double* out, std::size_t n) const {
  if (bias_error_rad == 0.0) {
    simd::active().weight_product(drive, n, floor_t, loss, power_mw, out);
    return;
  }
  // The bias error needs acos/cos per symbol, which stay scalar so every
  // SIMD tier sees the same libm bits.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = power_mw[i] * transmission(drive[i]);
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
  transfer_ = mzm_transfer::calibrated(config_);
  if (config_.bias_error_sigma_rad > 0.0) {
    transfer_.bias_error_rad =
        bias_noise.normal(0.0, config_.bias_error_sigma_rad);
  }
  field_loss_scale_ = field_loss_scale(config_.insertion_loss_db);
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
