// laser.hpp — continuous-wave laser source model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "photonics/energy.hpp"
#include "photonics/noise.hpp"
#include "photonics/optical.hpp"
#include "photonics/rng.hpp"

namespace onfiber::phot {

/// Configuration of a CW laser used as the carrier source of a transponder
/// transmit path or a photonic engine.
struct laser_config {
  double power_mw = 10.0;            ///< emitted CW power
  double wavelength_m = c_band_wavelength;
  double rin_db_hz = -155.0;         ///< relative intensity noise
  double linewidth_hz = 100e3;       ///< Lorentzian linewidth (phase noise)
  double symbol_rate_hz = 10e9;      ///< symbol slot rate of downstream path
  bool enable_rin = true;
  bool enable_phase_noise = true;
};

/// CW laser emitting one field sample per symbol slot. Each sample carries
/// RIN power fluctuation and a phase random walk with variance
/// 2*pi*linewidth/symbol_rate per step (standard Wiener phase-noise model).
class laser {
 public:
  /// `noise_stream` seeds the laser's two counter-based noise streams
  /// (RIN and phase walk) — one u64 is drawn from it to key them.
  laser(laser_config config, rng noise_stream,
        energy_ledger* ledger = nullptr, energy_costs costs = {});

  /// Emit `symbols` consecutive carrier samples into `out` (overwritten).
  /// Noise is drawn with one batched counter fill per stream; the fields
  /// are bit-identical to calling `emit_one` `symbols` times. The ledger
  /// is charged as `passes` calls over equal slices would be: the default
  /// is one bulk charge, whose joules round differently from `symbols`
  /// per-symbol charges; `passes == symbols` charges like `emit_one`.
  void emit(std::size_t symbols, waveform& out, std::size_t passes = 1);

  /// Emit a single carrier sample (advances the phase walk).
  [[nodiscard]] field emit_one();

  /// Intensity launch: the powers [mW] of the next out_mw.size() symbols,
  /// the |E|^2 of what `emit` would write, up to rounding: `draw_powers`
  /// at this laser's RIN stream and cursor, which then advances. The
  /// phase stream skips as many indices without drawing, and the walk's
  /// angle stays where it is: the carrier phase is unobservable under
  /// square-law detection. One bulk ledger charge, as `emit`.
  void emit_powers(std::span<double> out_mw);

  /// Intensity-path kernel: per-symbol optical powers [mW] on any RIN
  /// streams, one row per key, without the phasor construction — the
  /// carrier phase is unobservable under direct square-law detection.
  /// Row r of out_powers (out_powers.size() / rin_keys.size() symbols,
  /// row-major) takes the powers of draw indices base, base + 1, ... of
  /// RIN stream rin_keys[r], the RIN `emit_one` adds at those indices, in
  /// one fill for all rows. No ledger charge, no phase walk.
  void draw_powers(std::span<const std::uint64_t> rin_keys,
                   std::uint64_t base, std::span<double> out_powers) const;

  /// Exact mean and variance of one symbol's power [mW]: the configured
  /// power plus its RIN draw, clipped at zero (`draw_powers`).
  [[nodiscard]] moments power_moments() const;

 private:
  laser_config config_;
  counter_stream rin_stream_;    ///< one draw index per symbol, always
  counter_stream phase_stream_;  ///< one draw index per symbol, always
  double phase_ = 0.0;
  double phase_step_sigma_ = 0.0;
  double rin_sigma_mw_ = 0.0;  ///< RIN power fluctuation, hoisted from config
  std::vector<double> rin_scratch_;    ///< batched RIN draws, reused
  std::vector<double> phase_scratch_;  ///< batched phase draws, reused
  energy_ledger* ledger_ = nullptr;
  energy_costs costs_{};
};

}  // namespace onfiber::phot
