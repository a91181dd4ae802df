// optical.hpp — representation of optical signals.
//
// Signals are sequences of complex field samples, one per symbol slot.
// The instantaneous optical power of a sample E is |E|^2 in mW; the phase
// of E is the optical carrier phase relative to an arbitrary reference.
// This "one complex amplitude per symbol" abstraction is the standard one
// for system-level simulation of intensity/phase-modulated links and is
// exactly what the paper's primitives (Fig. 2) manipulate.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace onfiber::phot {

/// One optical symbol: complex field amplitude, |E|^2 = power in mW.
using field = std::complex<double>;

/// A burst of optical symbols (e.g. the optical form of a packet).
using waveform = std::vector<field>;

/// Power [mW] of one field sample.
[[nodiscard]] inline double power_mw(field e) { return std::norm(e); }

/// Field amplitude with the given power [mW] and phase [rad].
[[nodiscard]] inline field make_field(double power_mw_value,
                                      double phase_rad = 0.0) {
  const double amplitude =
      power_mw_value <= 0.0 ? 0.0 : std::sqrt(power_mw_value);
  return std::polar(amplitude, phase_rad);
}

}  // namespace onfiber::phot
