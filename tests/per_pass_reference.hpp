// per_pass_reference.hpp — the per-pass P1 oracle shared by the
// dot-product and kernel tests.
//
// A P1 unit built from the device models, run the slow way: each pass
// converts, modulates, integrates and reads out on its own, with one
// scalar detector draw and one scalar ADC conversion per pass, and
// charges the ledger pass by pass. Its devices are keyed exactly as
// dot_product_unit keys them, and its streams continue from call to
// call. It forms each readout's analog sum one of two ways:
//
//   * per_readout — one draw on the b-side DAC's key from the sum's
//     exact moments, the terms written out here in the engine's order:
//     the bit-for-bit reference of the engine's rows, keyed from the
//     row seed;
//   * per_symbol — every symbol's DAC, RIN and transfer drawn and
//     summed: the statistical oracle of the engine's readouts, and the
//     draw-for-draw reference of the unit's field-domain
//     dot_unit_range_scalar (equal to rounding).
//
// `field_launch_reference` is the unit's on-fiber launch computed on
// fields: the reference the unit's launch on powers must equal to
// rounding, draw for draw and charge for charge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "photonics/converter.hpp"
#include "photonics/energy.hpp"
#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/optical.hpp"
#include "photonics/photodetector.hpp"
#include "photonics/rng.hpp"
#include "photonics/simd.hpp"

namespace onfiber::phot {

/// The calibrated MZM transmission of a DAC output x: the full transfer
/// under a bias error, else its collapse max(clamp(x, 0, 1), floor) times
/// the insertion loss — what the engine's fused weight pass computes.
inline double calibrated_transmission(const mzm_transfer& t, double x) {
  if (t.bias_error_rad != 0.0) return t.transmission(x);
  double c = x < 0.0 ? 0.0 : x;
  c = c > 1.0 ? 1.0 : c;
  c = c < t.floor_t ? t.floor_t : c;
  return c * t.loss;
}

/// How a reference forms each readout's analog sum.
enum class readout_noise {
  per_symbol,   ///< every symbol's DAC, RIN and transfer drawn, then summed
  per_readout,  ///< one draw per readout from the sum's exact moments
};

class per_pass_reference {
 public:
  per_pass_reference(dot_product_config config, std::uint64_t seed,
                     energy_ledger* ledger,
                     readout_noise noise = readout_noise::per_symbol)
      : config_([&] {
          config.laser.symbol_rate_hz = config.symbol_rate_hz;
          config.detector.noise.bandwidth_hz = config.symbol_rate_hz;
          return config;
        }()),
        noise_(noise),
        carrier_(config_.laser, rng{seed}),
        mod_a_(config_.modulator, 0.0, rng{seed ^ 0x1111}),
        mod_b_(config_.modulator, 0.0, rng{seed ^ 0x2222}),
        detector_noise_(counter_rng::key_of(rng{seed ^ 0x3333}(), 0x706474)),
        sum_noise_(dac::noise_key(seed ^ 0x5555)),
        dac_a_(config_.dac, rng{seed ^ 0x4444}, ledger),
        dac_b_(config_.dac, rng{seed ^ 0x5555}, ledger),
        adc_(config_.adc, rng{seed ^ 0x6666}, ledger),
        ledger_(ledger) {}

  /// `passes` (1 or 4, `lay_out_rails` order) equal passes of a and b,
  /// both converted from raw values; the carrier's powers through both
  /// modulators.
  dot_result electrical(std::span<const double> a, std::span<const double> b,
                        std::size_t passes) {
    const std::size_t n = a.size();
    const std::size_t length = n / passes;
    std::vector<double> da(n), db(n), p(n), product(n), noise;
    for (std::size_t k = 0; k < passes; ++k) {
      const std::size_t at = k * length;
      dac_a_.convert(a.subspan(at, length), std::span(da).subspan(at, length),
                     noise);
      dac_b_.convert(b.subspan(at, length), std::span(db).subspan(at, length),
                     noise);
    }
    charge("laser", costs_.laser_j_per_symbol, length, passes);
    charge("modulator", costs_.modulator_drive_j, length, 2 * passes);
    const double full_scale_mw =
        config_.laser.power_mw *
        db_to_ratio(-2.0 * config_.modulator.insertion_loss_db);
    if (noise_ == readout_noise::per_readout) {
      // Symbol i carries P A B; the sum's moments in the engine's terms.
      const moments power = carrier_.power_moments();
      std::vector<double> m(n), g(n), h(n), xm(n), xv(n), xsq(n);
      for (std::size_t i = 0; i < n; ++i) {
        const moments wa = drive(mod_a_, a[i]);
        const moments xb = drive(mod_b_, b[i]);
        m[i] = power.mean * wa.mean;
        g[i] = power.var * (wa.var + wa.mean * wa.mean) +
               power.mean * power.mean * wa.var;
        h[i] = m[i] * m[i];
        xm[i] = xb.mean;
        xv[i] = xb.var;
        xsq[i] = xb.var + xb.mean * xb.mean;
      }
      const bool noisy = enob_noise_sigma(config_.dac) > 0.0 || power.var > 0.0;
      return read_out(moment_sums(m, xm, g, xsq, h, xv, passes, noisy),
                      length, full_scale_mw);
    }
    carrier_.emit_powers(p);
    for (std::size_t i = 0; i < n; ++i) {
      product[i] = p[i] * calibrated_transmission(mod_a_.transfer(), da[i]) *
                   calibrated_transmission(mod_b_.transfer(), db[i]);
    }
    return read_out(pass_sums(product, passes), length, full_scale_mw);
  }

  /// The on-fiber twin: a arrived as received powers a_mw, only b is
  /// converted and modulated.
  dot_result optical(std::span<const double> a_mw, std::span<const double> b,
                     double reference_power_mw, std::size_t passes) {
    const std::size_t n = b.size();
    const std::size_t length = n / passes;
    std::vector<double> db(n), product(n), noise;
    for (std::size_t k = 0; k < passes; ++k) {
      const std::size_t at = k * length;
      dac_b_.convert(b.subspan(at, length), std::span(db).subspan(at, length),
                     noise);
    }
    charge("modulator", costs_.modulator_drive_j, length, passes);
    const double full_scale_mw =
        reference_power_mw * db_to_ratio(-config_.modulator.insertion_loss_db);
    if (noise_ == readout_noise::per_readout) {
      std::vector<double> wm(n), wv(n), sq(n);
      for (std::size_t i = 0; i < n; ++i) {
        const moments w = drive(mod_b_, b[i]);
        wm[i] = w.mean;
        wv[i] = w.var;
        sq[i] = a_mw[i] * a_mw[i];
      }
      return read_out(
          moment_sums(wm, a_mw, wv, sq, {}, {}, passes,
                      enob_noise_sigma(config_.dac) > 0.0),
          length, full_scale_mw);
    }
    for (std::size_t i = 0; i < n; ++i) {
      product[i] =
          a_mw[i] * calibrated_transmission(mod_b_.transfer(), db[i]);
    }
    return read_out(pass_sums(product, passes), length, full_scale_mw);
  }

 private:
  void charge(const char* category, double joules_per_op, std::size_t ops,
              std::size_t times) {
    if (ledger_ != nullptr) {
      ledger_->charge_batches(category, joules_per_op, ops, times);
    }
  }

  /// Transmission moments of raw value x, snapped to the DAC grid, through
  /// modulator `mod` (its bias error included).
  moments drive(const mzm_modulator& mod, double x) const {
    const converter_config& d = config_.dac;
    return mod.transfer().drive_moments(
        quantize_to_grid(x, d.full_scale, d.bits), enob_noise_sigma(d),
        d.full_scale);
  }

  /// Each pass's product sum, blocked as the detector integrates.
  static std::vector<double> pass_sums(std::span<const double> product,
                                       std::size_t passes) {
    const std::size_t length = product.size() / passes;
    std::vector<double> sums(passes);
    simd::active().blocked_sums(product.data(), length, passes, sums.data());
    return sums;
  }

  /// Eight accumulators, lane i % 8, folded as blocked_sums folds them.
  static double fold(const double (&acc)[8]) {
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
           ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  }

  /// Each pass's sum drawn from its moments: mean sum_i wm xm, variance
  /// sum_i (wv xv + wh xh), the wh term when wh is not empty; one draw
  /// of the b-side DAC key per readout.
  std::vector<double> moment_sums(std::span<const double> wm,
                                  std::span<const double> xm,
                                  std::span<const double> wv,
                                  std::span<const double> xv,
                                  std::span<const double> wh,
                                  std::span<const double> xh,
                                  std::size_t passes, bool noisy) {
    const std::size_t length = wm.size() / passes;
    std::vector<double> sums(passes);
    for (std::size_t k = 0; k < passes; ++k) {
      double mean_acc[8] = {};
      double var_acc[8] = {};
      for (std::size_t i = 0; i < length; ++i) {
        const std::size_t at = k * length + i;
        double v = wv[at] * xv[at];
        if (!wh.empty()) v += wh[at] * xh[at];
        mean_acc[i % 8] += wm[at] * xm[at];
        var_acc[i % 8] += v;
      }
      sums[k] = fold(mean_acc);
      if (noisy) sums[k] += std::sqrt(fold(var_acc)) * sum_noise_.normal();
    }
    return sums;
  }

  double integrate_mean(double mean_power_mw, std::size_t symbols) {
    const photodetector_config& d = config_.detector;
    const double signal_a =
        d.responsivity_a_w * mean_power_mw * 1e-3 + d.dark_current_a;
    receiver_noise_config narrowed = d.noise;
    narrowed.bandwidth_hz /= static_cast<double>(symbols);
    const double noise_a =
        narrowed.sample_current_noise_a(signal_a, detector_noise_);
    charge("photodetector", costs_.photodetector_readout_j, 1, 1);
    return std::clamp(signal_a + noise_a, -d.saturation_current_a,
                      d.saturation_current_a);
  }

  dot_result read_out_current(double current_a, double full_scale_mw,
                              std::size_t length) {
    const photodetector_config& d = config_.detector;
    const double full_scale_a =
        d.responsivity_a_w * full_scale_mw * 1e-3 + d.dark_current_a;
    const double normalized =
        full_scale_a > 0.0 ? current_a / full_scale_a : 0.0;
    const double digitized = adc_.convert(normalized);
    const double responsivity_term = d.responsivity_a_w * full_scale_mw * 1e-3;
    const double recovered_mean =
        responsivity_term > 0.0
            ? (digitized * full_scale_a - d.dark_current_a) / responsivity_term
            : 0.0;
    const double n = static_cast<double>(length);
    dot_result r;
    r.value = recovered_mean * n;
    r.symbols = length;
    r.latency_s = n / config_.symbol_rate_hz + config_.fixed_latency_s;
    charge("photonic_mac", costs_.photonic_mac_j, length, 1);
    return r;
  }

  /// One readout per pass from its sum of `length` symbol powers.
  dot_result read_out(const std::vector<double>& sums, std::size_t length,
                      double full_scale_mw) {
    const std::size_t passes = sums.size();
    dot_result pass[4];
    for (std::size_t k = 0; k < passes; ++k) {
      const double mean = sums[k] / static_cast<double>(length);
      pass[k] = read_out_current(integrate_mean(mean, length), full_scale_mw,
                                 length);
    }
    if (passes == 1) return pass[0];
    const auto& [pp, nn, pn, np] = pass;
    dot_result r;
    r.value = pp.value + nn.value - pn.value - np.value;
    r.symbols = pp.symbols + nn.symbols + pn.symbols + np.symbols;
    r.latency_s = pp.latency_s + nn.latency_s + pn.latency_s + np.latency_s;
    return r;
  }

  dot_product_config config_;
  readout_noise noise_;
  energy_costs costs_{};
  laser carrier_;  ///< ledger-free: its RIN stream continues per call
  mzm_modulator mod_a_;
  mzm_modulator mod_b_;
  counter_stream detector_noise_;
  counter_stream sum_noise_;  ///< per-readout sums: the b-side DAC's key
  dac dac_a_;
  dac dac_b_;
  adc adc_;
  energy_ledger* ledger_;
};

/// A P1 unit's launch devices (DAC-a, laser, a modulator) and the rest of
/// its devices, keyed as dot_product_unit keys them, with streams that
/// continue from call to call. `encode_rails_received` launches fields:
/// one batch DAC convert, one `laser::emit` (RIN and phase walk), an MZM
/// field encode per symbol, then |E|^2, charging one charge per device
/// of n ops. `dot_unit_range_scalar` is the unit's field-domain
/// reference on the same devices.
class field_launch_reference {
 public:
  field_launch_reference(dot_product_config config, std::uint64_t seed,
                         energy_ledger* ledger)
      : models_(config, seed),
        laser_(models_.config().laser, rng{seed}, ledger),
        launch_mod_a_(models_.config().modulator, 0.0, rng{seed ^ 0x1111}),
        mod_a_(models_.config().modulator, 0.0, rng{seed ^ 0x1111}, ledger),
        mod_b_(models_.config().modulator, 0.0, rng{seed ^ 0x2222}, ledger),
        detector_(models_.config().detector, rng{seed ^ 0x3333}, ledger),
        dac_a_(models_.config().dac, rng{seed ^ 0x4444}, ledger),
        dac_b_(models_.config().dac, rng{seed ^ 0x5555}, ledger),
        adc_(models_.config().adc, rng{seed ^ 0x6666}, ledger),
        ledger_(ledger) {}

  void encode_rails_received(std::span<const double> xs, std::size_t cols,
                             std::span<double> out_mw) {
    const std::size_t batch = xs.size() / cols;
    const std::size_t n = 2 * xs.size();
    std::vector<double> rails(n), converted(n), noise;
    for (std::size_t s = 0; s < batch; ++s) {
      for (std::size_t i = 0; i < cols; ++i) {
        const double x = xs[s * cols + i];
        rails[2 * cols * s + i] = x > 0.0 ? x : 0.0;
        rails[2 * cols * s + cols + i] = x < 0.0 ? -x : 0.0;
      }
    }
    dac_a_.convert(rails, converted, noise);
    waveform wave;
    laser_.emit(n, wave);
    for (std::size_t i = 0; i < n; ++i) {
      wave[i] = launch_mod_a_.encode_unit(wave[i], converted[i]);
    }
    if (ledger_ != nullptr) {
      ledger_->charge("modulator",
                      energy_costs{}.modulator_drive_j * static_cast<double>(n),
                      n);
    }
    for (std::size_t s = 0; s < batch; ++s) {
      for (std::size_t i = 0; i < 2 * cols; ++i) {
        out_mw[4 * cols * s + i] = out_mw[4 * cols * s + 2 * cols + i] =
            power_mw(wave[2 * cols * s + i]);
      }
    }
  }

  dot_result dot_unit_range_scalar(std::span<const double> a,
                                   std::span<const double> b) {
    const std::size_t n = a.size();
    std::vector<double> product(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double xa = dac_a_.convert(a[i]);
      const double xb = dac_b_.convert(b[i]);
      field e = laser_.emit_one();
      e = mod_a_.encode_unit(e, xa);
      e = mod_b_.encode_unit(e, xb);
      product[i] = power_mw(e);
    }
    double detector_noise = 0.0;
    double adc_noise = 0.0;
    double value = 0.0;
    detector_.draw_readout_noise(std::span(&detector_noise, 1));
    adc_.draw_noise(std::span(&adc_noise, 1));
    const readout_plan plan =
        models_.plan_readout(n, models_.full_scale_power_mw());
    double sum = 0.0;
    simd::active().blocked_sums(product.data(), n, 1, &sum);
    models_.read_out(plan, std::span(&sum, 1), std::span(&detector_noise, 1),
                     std::span(&adc_noise, 1), std::span(&value, 1));
    if (ledger_ != nullptr) {
      ledger_->charge("photonic_mac",
                      energy_costs{}.photonic_mac_j * static_cast<double>(n),
                      n);
    }
    return plan.combine(&value, 1);
  }

 private:
  dot_product_unit models_;  ///< its device models and readout math only
  laser laser_;
  mzm_modulator launch_mod_a_;  ///< ledger-free: the launch charges in bulk
  mzm_modulator mod_a_;
  mzm_modulator mod_b_;
  photodetector detector_;
  dac dac_a_;
  dac dac_b_;
  adc adc_;
  energy_ledger* ledger_;
};

}  // namespace onfiber::phot
