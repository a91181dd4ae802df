// units.hpp — physical constants and unit helpers for the photonic substrate.
//
// Conventions used throughout the photonics library:
//   * optical power:      milliwatts (mW) unless a name says otherwise
//   * optical field:      complex amplitude E with |E|^2 in mW
//   * voltage:            volts
//   * current:            amperes
//   * energy:             joules
//   * time:               seconds
//   * wavelength:         meters (1550 nm band typical)
//   * loss/gain:          dB (positive number == loss for "loss" parameters)
#pragma once

#include <cmath>

namespace onfiber::phot {

// ---------------------------------------------------------------- constants

/// Planck constant [J*s].
inline constexpr double planck_h = 6.626'070'15e-34;

/// Speed of light in vacuum [m/s].
inline constexpr double speed_of_light = 2.997'924'58e8;

/// Elementary charge [C].
inline constexpr double electron_charge = 1.602'176'634e-19;

/// Boltzmann constant [J/K].
inline constexpr double boltzmann_k = 1.380'649e-23;

/// Group index of standard single-mode fiber (SMF-28) at 1550 nm.
inline constexpr double smf_group_index = 1.468;

/// Conventional C-band carrier wavelength [m].
inline constexpr double c_band_wavelength = 1550e-9;

// ------------------------------------------------------------- dB helpers

/// Convert dB to a linear power ratio.
[[nodiscard]] inline double db_to_ratio(double db) {
  return std::pow(10.0, db / 10.0);
}

/// Field-amplitude scale factor corresponding to a power loss in dB.
/// (Power scales with the square of the field.)
[[nodiscard]] inline double field_loss_scale(double loss_db) {
  return std::sqrt(db_to_ratio(-loss_db));
}

// -------------------------------------------------------- photon energetics

/// Energy of a single photon at the given wavelength [J].
[[nodiscard]] inline double photon_energy(double wavelength_m) {
  return planck_h * speed_of_light / wavelength_m;
}

// --------------------------------------------------------------- time/dist

/// One-way propagation delay of `length_km` of fiber [s].
[[nodiscard]] inline double fiber_delay_s(double length_km) {
  return (length_km * 1e3) * smf_group_index / speed_of_light;
}

}  // namespace onfiber::phot
