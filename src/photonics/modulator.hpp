// modulator.hpp — electro-optic modulator models.
//
// Two modulator types appear in the paper's primitives (Fig. 2):
//
//   * `mzm_modulator`   — Mach-Zehnder intensity modulator. The field
//     transfer is cos(pi/2 * v/V_pi + bias); intensity follows the
//     familiar raised-cosine curve. Cascading two MZMs multiplies their
//     intensity transmissions, which is how P1 computes a_i * b_i.
//   * `phase_modulator` — pure phase encoder, used by P2 to put data and
//     pattern onto the carrier phase before interference.
//
// Both models include insertion loss, finite extinction ratio and bias
// drift, which are the dominant static error sources in fabricated PICs.
#pragma once

#include <cstdint>

#include "photonics/energy.hpp"
#include "photonics/noise.hpp"
#include "photonics/optical.hpp"
#include "photonics/rng.hpp"
#include "photonics/units.hpp"

namespace onfiber::phot {

/// Common electro-optic parameters.
struct modulator_config {
  double v_pi = 4.0;              ///< half-wave voltage [V]
  double insertion_loss_db = 3.0; ///< on-chip insertion loss
  double extinction_ratio_db = 30.0;  ///< finite extinction (min transmission)
  double bias_error_sigma_rad = 0.0;  ///< static bias-point error, sampled once
  double max_drive_v = 8.0;       ///< driver clipping voltage
};

/// The calibrated intensity transfer of an MZM drive: an input x in
/// [0, 1] leaves with transmission max(cos^2(acos(sqrt(x)) + bias/2),
/// floor) times the insertion loss, which a calibrated bias (no bias
/// error) collapses to max(x, floor) times the loss. Plain data, so a
/// weight pass can run the transfer of any modulator keyed from any
/// seed.
struct mzm_transfer {
  double floor_t = 0.0;         ///< finite-extinction transmission floor
  double loss = 1.0;            ///< insertion loss, intensity ratio
  double bias_error_rad = 0.0;  ///< static bias-point error

  /// The transfer of a modulator built from `config`, without its bias
  /// error.
  [[nodiscard]] static mzm_transfer calibrated(const modulator_config& config);

  /// Transmission of x through the full transfer, bias error included
  /// (acos/cos per call, scalar libm at every SIMD tier).
  [[nodiscard]] double transmission(double x) const;

  /// Exact mean and variance of T(o) for the DAC output o = clip(code +
  /// dac_sigma * n, 0, dac_full_scale) of a code on the DAC grid and a
  /// standard normal n: what one symbol of a GEMM pass transmits. Without
  /// a bias error T(o) is loss * clamp(code + dac_sigma * n, floor_t,
  /// min(1, dac_full_scale)), a clamped normal in closed form. A bias
  /// error bends the transfer, so the clip masses stay closed-form and
  /// the interior is integrated by 8-point Gauss-Legendre over panels
  /// two sigma wide, split where the transfer meets its floor; mean and
  /// variance agree with a dense integration to 2e-7 relative.
  [[nodiscard]] moments drive_moments(double code, double dac_sigma,
                                      double dac_full_scale) const;

  /// One modulator pass over the powers it modulates: out[i] =
  /// power_mw[i] * T(drive[i]) for DAC outputs drive[i] >= 0 (the
  /// on-fiber launch's). Without a bias error it runs as the dispatched
  /// simd::kernel_table::weight_product. `out` may alias `power_mw`. No
  /// ledger charge.
  void weight_product(const double* drive, const double* power_mw,
                      double* out, std::size_t n) const;
};

/// Mach-Zehnder intensity modulator.
///
/// Drive conventions: `modulate(E, v)` applies the physical transfer
/// directly. For computing, `encode_unit(E, x)` maps x in [0,1] to an
/// intensity transmission of x by inverting the sin^2 transfer (arcsine
/// pre-compensation), which is what calibrated photonic MAC hardware does.
class mzm_modulator {
 public:
  /// `bias_rad` sets the static operating point added to the drive phase:
  /// pi/2 = quadrature (linear-ish region), 0 = peak transmission.
  mzm_modulator(modulator_config config, double bias_rad, rng bias_noise,
                energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Physical transfer: field out for field in at drive voltage v.
  [[nodiscard]] field modulate(field in, double drive_v);

  /// Calibrated encode: intensity transmission == clamp(x, 0, 1)
  /// (up to extinction-ratio floor and bias error).
  [[nodiscard]] field encode_unit(field in, double x);

  /// The bias error a modulator built with rng{seed} draws: zero unless
  /// one is configured.
  [[nodiscard]] static double bias_error_for(const modulator_config& config,
                                             std::uint64_t seed);

  /// The calibrated intensity transfer of `encode_unit`, for
  /// direct-detection paths.
  [[nodiscard]] const mzm_transfer& transfer() const { return transfer_; }

  /// Intensity transmission at drive voltage v (no noise), for tests.
  [[nodiscard]] double intensity_transfer(double drive_v) const;

 private:
  [[nodiscard]] field apply_phase_arg(field in, double total_phase_rad) const;

  modulator_config config_;
  double bias_rad_;
  mzm_transfer transfer_;          ///< its bias error: fabrication error
  double field_loss_scale_ = 1.0;  ///< insertion loss, field amplitude
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

/// Pure phase modulator: multiplies the field by exp(i * pi * v / V_pi).
class phase_modulator {
 public:
  phase_modulator(modulator_config config, rng bias_noise,
                  energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Encode a phase directly in radians (driver computes v = phi*V_pi/pi).
  /// Exactly `charge_drives(1)` then `in * phase_factor(phase_rad)`.
  [[nodiscard]] field encode_phase(field in, double phase_rad);

  /// Field transfer of one drive at `phase_rad`: insertion loss and the
  /// static phase error included, no ledger charge. A BPSK encoder has
  /// two, so batched paths compute them once and multiply.
  [[nodiscard]] field phase_factor(double phase_rad) const {
    return std::polar(field_loss_scale_, phase_rad + phase_error_rad_);
  }

  /// Charge the ledger exactly as `drives` encode_phase calls would.
  void charge_drives(std::uint64_t drives) {
    if (ledger_ != nullptr) {
      ledger_->charge_batches("modulator", costs_.modulator_drive_j, 1,
                              drives);
    }
  }

 private:
  modulator_config config_;
  double phase_error_rad_ = 0.0;
  double field_loss_scale_ = 1.0;  ///< insertion loss, field amplitude
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

}  // namespace onfiber::phot
