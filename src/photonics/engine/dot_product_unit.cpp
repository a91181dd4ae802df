#include "photonics/engine/dot_product_unit.hpp"

#include <algorithm>
#include <stdexcept>

#include "photonics/simd.hpp"

namespace onfiber::phot {

namespace {

/// Device seed tags: each device keys from seed ^ tag (the laser: seed).
constexpr std::uint64_t kModATag = 0x1111;
constexpr std::uint64_t kModBTag = 0x2222;
constexpr std::uint64_t kDetectorTag = 0x3333;
constexpr std::uint64_t kDacATag = 0x4444;
constexpr std::uint64_t kDacBTag = 0x5555;
constexpr std::uint64_t kAdcTag = 0x6666;

}  // namespace

void lay_out_rails(std::span<const double> x, rail_operand side,
                   std::span<double> out) {
  const std::size_t n = x.size();
  double* pos = out.data();
  double* neg = pos + n;
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = x[i] > 0.0 ? x[i] : 0.0;
    neg[i] = x[i] < 0.0 ? -x[i] : 0.0;
  }
  // Passes pn and np cross the rails: a repeats (x+, x-), b swaps them.
  const bool a_side = side == rail_operand::a;
  std::copy_n(a_side ? pos : neg, n, pos + 2 * n);
  std::copy_n(a_side ? neg : pos, n, pos + 3 * n);
}

dot_product_unit::dot_product_unit(dot_product_config config,
                                   std::uint64_t seed, energy_ledger* ledger,
                                   energy_costs costs)
    : config_([&] {
        // The laser's symbol rate must match the compute symbol rate so
        // RIN is integrated over the right bandwidth.
        config.laser.symbol_rate_hz = config.symbol_rate_hz;
        config.detector.noise.bandwidth_hz = config.symbol_rate_hz;
        return config;
      }()),
      laser_(config_.laser, rng{seed}, ledger, costs),
      mod_a_(config_.modulator, /*bias_rad=*/0.0, rng{seed ^ kModATag},
             ledger, costs),
      mod_b_(config_.modulator, /*bias_rad=*/0.0, rng{seed ^ kModBTag},
             ledger, costs),
      detector_(config_.detector, rng{seed ^ kDetectorTag}, ledger, costs),
      dac_a_(config_.dac, rng{seed ^ kDacATag}, ledger, costs),
      dac_b_(config_.dac, rng{seed ^ kDacBTag}, ledger, costs),
      adc_out_(config_.adc, rng{seed ^ kAdcTag}, ledger, costs),
      ledger_(ledger),
      costs_(costs) {}

dot_result readout_plan::combine(const double* values,
                                 std::size_t passes) const {
  if (passes == 1) return {values[0], latency_s, symbols};
  dot_result r;
  r.value = values[0] + values[1] - values[2] - values[3];
  r.symbols = 4 * symbols;
  r.latency_s = latency_s + latency_s + latency_s + latency_s;
  return r;
}

double dot_product_unit::full_scale_power_mw() const {
  // Both modulators at unit transmission leave only their insertion loss.
  return config_.laser.power_mw *
         db_to_ratio(-2.0 * config_.modulator.insertion_loss_db);
}

void dot_product_unit::row_keys_for(std::span<const std::uint64_t> seeds,
                                    bool a_side, row_keys& out) const {
  const std::size_t rows = seeds.size();
  out.dac_b.resize(rows);
  out.detector.resize(rows);
  out.adc.resize(rows);
  out.bias_error_b_rad.resize(rows);
  out.bias_error_a_rad.resize(a_side ? rows : 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t seed = seeds[r];
    out.dac_b[r] = dac::noise_key(seed ^ kDacBTag);
    out.detector[r] = photodetector::noise_key(seed ^ kDetectorTag);
    out.adc[r] = adc::noise_key(seed ^ kAdcTag);
    out.bias_error_b_rad[r] =
        mzm_modulator::bias_error_for(config_.modulator, seed ^ kModBTag);
    if (a_side) {
      out.bias_error_a_rad[r] =
          mzm_modulator::bias_error_for(config_.modulator, seed ^ kModATag);
    }
  }
}

readout_plan dot_product_unit::plan_readout(std::size_t symbols,
                                            double full_scale_mw) const {
  readout_plan plan;
  plan.symbols = symbols;
  plan.noise = detector_.integration_noise_for(symbols);
  plan.full_scale_a = detector_.expected_current_a(full_scale_mw);
  plan.responsivity_term =
      detector_.config().responsivity_a_w * full_scale_mw * 1e-3;
  plan.latency_s = static_cast<double>(symbols) / config_.symbol_rate_hz +
                   config_.fixed_latency_s;
  return plan;
}

void dot_product_unit::read_out(const readout_plan& plan,
                                std::span<const double> sums,
                                std::span<const double> detector_noise,
                                std::span<const double> adc_noise,
                                std::span<double> values) const {
  // The detector turns each readout's power sum into a current; the ADC
  // digitizes the currents normalized to the calibrated full scale.
  detector_.readout_currents(sums, plan.symbols, plan.noise, detector_noise,
                             values);
  const double full_scale_a = plan.full_scale_a;
  for (double& v : values) v = full_scale_a > 0.0 ? v / full_scale_a : 0.0;
  adc_out_.digitize(values, adc_noise, values);

  // Undo calibration: digitized * i_fs ~= R * mean(P) + dark, so the mean
  // product is recoverable, and the dot product is mean * n. A dead
  // carrier (zero full-scale power) carries no information: read zero
  // rather than dividing by it.
  const double responsivity_term = plan.responsivity_term;
  const double dark_a = detector_.config().dark_current_a;
  const double n = static_cast<double>(plan.symbols);
  for (double& v : values) {
    const double recovered_mean =
        responsivity_term > 0.0
            ? (v * full_scale_a - dark_a) / responsivity_term
            : 0.0;
    v = recovered_mean * n;
  }
}

dot_result dot_product_unit::dot_unit_range_scalar(std::span<const double> a,
                                                   std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument(
        "dot_product_unit: need equal, non-empty vectors");
  }
  const std::size_t n = a.size();
  scratch_.product.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double xa = dac_a_.convert(a[i]);
    const double xb = dac_b_.convert(b[i]);
    field e = laser_.emit_one();
    e = mod_a_.encode_unit(e, xa);
    e = mod_b_.encode_unit(e, xb);
    // The square-law detector sees only the power.
    scratch_.product[i] = power_mw(e);
  }
  // One readout on this unit's own detector and ADC streams.
  double detector_noise = 0.0;
  double adc_noise = 0.0;
  double value = 0.0;
  detector_.draw_readout_noise(std::span(&detector_noise, 1));
  adc_out_.draw_noise(std::span(&adc_noise, 1));
  const readout_plan plan = plan_readout(n, full_scale_power_mw());
  double sum = 0.0;
  simd::active().blocked_sums(scratch_.product.data(), n, 1, &sum);
  read_out(plan, std::span(&sum, 1), std::span(&detector_noise, 1),
           std::span(&adc_noise, 1), std::span(&value, 1));
  if (ledger_ != nullptr) {
    // Optical energy of the analog MACs themselves (paper §2.2 number).
    ledger_->charge("photonic_mac",
                    costs_.photonic_mac_j * static_cast<double>(n), n);
  }
  return plan.combine(&value, 1);
}

void dot_product_unit::encode_rails_received(std::span<const double> xs,
                                             std::size_t cols,
                                             std::span<double> out_mw) {
  // Sample s's rails (x+, x-) sit at 2 * cols * s of one launch; the
  // crossed passes pn and np reuse them.
  const std::size_t batch = xs.size() / cols;
  const std::size_t symbols = 2 * xs.size();
  scratch_.rail_a.resize(symbols);
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t i = 0; i < cols; ++i) {
      const double x = xs[s * cols + i];
      scratch_.rail_a[2 * cols * s + i] = x > 0.0 ? x : 0.0;
      scratch_.rail_a[2 * cols * s + cols + i] = x < 0.0 ? -x : 0.0;
    }
  }
  // The launch runs on powers, since the detector sees only |E|^2: the
  // DAC converts on its continuing stream, the carrier's powers take
  // their RIN draws, and the calibrated transfer multiplies them, with
  // the draw indices and ledger charges of a field launch (DAC, laser,
  // MZM).
  scratch_.dac_a.resize(symbols);
  dac_a_.convert(scratch_.rail_a, scratch_.dac_a, scratch_.dac_noise_a);
  scratch_.launched.resize(symbols);
  laser_.emit_powers(scratch_.launched);
  double* launched = scratch_.launched.data();
  mod_a_.transfer().weight_product(scratch_.dac_a.data(), launched, launched,
                                   symbols);
  if (ledger_ != nullptr && symbols > 0) {
    ledger_->charge("modulator",
                    costs_.modulator_drive_j * static_cast<double>(symbols),
                    symbols);
  }
  for (std::size_t s = 0; s < batch; ++s) {
    const double* rails = launched + 2 * cols * s;
    double* out = out_mw.data() + 4 * cols * s;
    std::copy_n(rails, 2 * cols, out);
    std::copy_n(rails, 2 * cols, out + 2 * cols);
  }
}

}  // namespace onfiber::phot
