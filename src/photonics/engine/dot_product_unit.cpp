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

void require_passes(std::size_t a, std::size_t b, std::size_t passes) {
  if (a != b || a == 0 || (passes != 1 && passes != 4) || a % passes != 0) {
    throw std::invalid_argument(
        "dot_product_unit: need 1 or 4 equal, non-empty passes");
  }
}

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

void dot_product_unit::rekey(std::uint64_t seed) {
  laser_.rekey(seed);
  mod_a_.rekey(seed ^ kModATag);
  mod_b_.rekey(seed ^ kModBTag);
  detector_.rekey(seed ^ kDetectorTag);
  dac_a_.rekey(seed ^ kDacATag);
  dac_b_.rekey(seed ^ kDacBTag);
  adc_out_.rekey(seed ^ kAdcTag);
}

double dot_product_unit::full_scale_power_mw() const {
  // Both modulators at unit transmission leave only their insertion loss.
  return config_.laser.power_mw *
         db_to_ratio(-2.0 * config_.modulator.insertion_loss_db);
}

dot_result dot_product_unit::read_out_current(double current_a,
                                              double full_scale_mw,
                                              std::size_t length) {
  const double full_scale_a = detector_.expected_current_a(full_scale_mw);

  // ADC sees the photocurrent normalized to the calibrated full scale.
  const double normalized =
      full_scale_a > 0.0 ? current_a / full_scale_a : 0.0;
  const double digitized = adc_out_.convert(normalized);

  // Undo calibration: digitized * i_fs ~= R * mean(P) + dark, so the mean
  // product is recoverable, and the dot product is mean * n. A dead
  // carrier (zero full-scale power) carries no information: read zero
  // rather than dividing by it.
  const double responsivity_term =
      detector_.config().responsivity_a_w * full_scale_mw * 1e-3;
  const double recovered_mean =
      responsivity_term > 0.0
          ? (digitized * full_scale_a - detector_.config().dark_current_a) /
                responsivity_term
          : 0.0;
  const double n = static_cast<double>(length);

  dot_result r;
  r.value = recovered_mean * n;
  r.symbols = length;
  r.latency_s = n / config_.symbol_rate_hz + config_.fixed_latency_s;
  if (ledger_ != nullptr) {
    // Optical energy of the analog MACs themselves (paper §2.2 number).
    ledger_->charge("photonic_mac", costs_.photonic_mac_j * n,
                    static_cast<std::uint64_t>(length));
  }
  return r;
}

dot_result dot_product_unit::read_out_passes(std::size_t passes,
                                             std::size_t length,
                                             double full_scale_mw) {
  dot_result pass[4];
  for (std::size_t k = 0; k < passes; ++k) {
    pass[k] = read_out_current(
        detector_.integrate_power(
            std::span(scratch_.product).subspan(k * length, length)),
        full_scale_mw, length);
  }
  if (passes == 1) return pass[0];
  const auto& [pp, nn, pn, np] = pass;
  dot_result r;
  r.value = pp.value + nn.value - pn.value - np.value;
  r.symbols = pp.symbols + nn.symbols + pn.symbols + np.symbols;
  r.latency_s = pp.latency_s + nn.latency_s + pn.latency_s + np.latency_s;
  return r;
}

dot_result dot_product_unit::dot_passes(std::span<const double> a,
                                        std::span<const double> b,
                                        std::size_t passes) {
  require_passes(a.size(), b.size(), passes);
  const std::size_t n = a.size();
  scratch_.dac_a.resize(n);
  scratch_.dac_b.resize(n);
  scratch_.trans_a.resize(n);
  scratch_.trans_b.resize(n);
  scratch_.power.resize(n);
  scratch_.product.resize(n);

  // Batched device passes. Each device owns an independent noise stream,
  // so running devices batch-by-batch leaves every draw order unchanged.
  dac_a_.convert(a, scratch_.dac_a, scratch_.dac_noise_a, passes);
  dac_b_.convert(b, scratch_.dac_b, scratch_.dac_noise_b, passes);
  laser_.emit_powers(scratch_.power, passes);
  mod_a_.encode_intensity(scratch_.dac_a, scratch_.trans_a, passes);
  mod_b_.encode_intensity(scratch_.dac_b, scratch_.trans_b, passes);

  // Product pass: P_i = P_laser,i * T_a,i * T_b,i. This is the
  // cascaded-MZM intensity product the field pipeline computes, minus the
  // phasor bookkeeping a square-law detector cannot see. Dispatched to
  // the active SIMD level.
  simd::active().triple_product(scratch_.power.data(), scratch_.trans_a.data(),
                                scratch_.trans_b.data(), n,
                                scratch_.product.data());
  return read_out_passes(passes, n / passes, full_scale_power_mw());
}

dot_result dot_product_unit::dot_optical_passes(std::span<const double> a_mw,
                                                std::span<const double> b,
                                                double reference_power_mw,
                                                std::size_t passes) {
  require_passes(a_mw.size(), b.size(), passes);
  if (reference_power_mw <= 0.0) {
    throw std::invalid_argument(
        "dot_product_unit: reference power must be positive");
  }
  const std::size_t n = b.size();
  scratch_.dac_b.resize(n);
  scratch_.trans_b.resize(n);
  scratch_.product.resize(n);

  dac_b_.convert(b, scratch_.dac_b, scratch_.dac_noise_b, passes);
  mod_b_.encode_intensity(scratch_.dac_b, scratch_.trans_b, passes);
  for (std::size_t i = 0; i < n; ++i) {
    scratch_.product[i] = a_mw[i] * scratch_.trans_b[i];
  }
  // Full scale: the incoming reference power through the b modulator.
  const double full_scale_mw =
      reference_power_mw * db_to_ratio(-config_.modulator.insertion_loss_db);
  return read_out_passes(passes, n / passes, full_scale_mw);
}

dot_result dot_product_unit::dot_unit_range_scalar(std::span<const double> a,
                                                   std::span<const double> b) {
  require_passes(a.size(), b.size(), 1);
  waveform products;
  products.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double xa = dac_a_.convert(a[i]);
    const double xb = dac_b_.convert(b[i]);
    field e = laser_.emit_one();
    e = mod_a_.encode_unit(e, xa);
    e = mod_b_.encode_unit(e, xb);
    products.push_back(e);
  }
  return read_out_current(detector_.integrate(products),
                          full_scale_power_mw(), a.size());
}

void dot_product_unit::skip_passes(std::uint64_t passes,
                                   std::uint64_t dim) {
  const std::uint64_t symbols = passes * dim;
  dac_a_.skip_draws(symbols);
  dac_b_.skip_draws(symbols);
  laser_.skip_symbols(symbols);
  detector_.skip_readouts(passes);
  adc_out_.skip_draws(passes);
}

dot_result dot_product_unit::dot_signed(std::span<const double> a,
                                        std::span<const double> b) {
  scratch_.rail_a.resize(4 * a.size());
  scratch_.rail_b.resize(4 * b.size());
  lay_out_rails(a, rail_operand::a, scratch_.rail_a);
  lay_out_rails(b, rail_operand::b, scratch_.rail_b);
  return dot_passes(scratch_.rail_a, scratch_.rail_b, 4);
}

dot_result dot_product_unit::dot_unit_range_averaged(
    std::span<const double> a, std::span<const double> b, int repeats) {
  if (repeats < 1) {
    throw std::invalid_argument(
        "dot_product_unit: repeats must be positive");
  }
  dot_result acc;
  for (int k = 0; k < repeats; ++k) {
    const dot_result r = dot_unit_range(a, b);
    acc.value += r.value;
    acc.latency_s += r.latency_s;
    acc.symbols += r.symbols;
  }
  acc.value /= static_cast<double>(repeats);
  return acc;
}

waveform dot_product_unit::encode_to_optical(std::span<const double> a) {
  waveform out;
  encode_to_optical(a, out);
  return out;
}

void dot_product_unit::encode_to_optical(std::span<const double> a,
                                         waveform& out) {
  // Launch path keeps the full field representation (the waveform really
  // travels down a fiber), but runs each device as one batch. Per-device
  // streams make this bit-identical to the symbol-by-symbol loop.
  scratch_.dac_a.resize(a.size());
  dac_a_.convert(a, scratch_.dac_a, scratch_.dac_noise_a);
  laser_.emit(a.size(), out);
  mod_a_.encode(scratch_.dac_a, out);
}

void dot_product_unit::encode_rails_received(std::span<const double> x,
                                             std::span<double> out_mw) {
  const std::size_t n = x.size();
  scratch_.rail_a.resize(4 * n);
  lay_out_rails(x, rail_operand::a, scratch_.rail_a);
  for (std::size_t rail = 0; rail < 2; ++rail) {
    encode_to_optical(std::span<const double>(scratch_.rail_a)
                          .subspan(rail * n, n),
                      scratch_.wave);
    for (std::size_t i = 0; i < n; ++i) {
      out_mw[rail * n + i] = out_mw[(rail + 2) * n + i] =
          power_mw(scratch_.wave[i]);
    }
  }
}

dot_result dot_product_unit::dot_with_optical_input(
    std::span<const field> optical_a, std::span<const double> b,
    double reference_power_mw) {
  scratch_.power.resize(optical_a.size());
  for (std::size_t i = 0; i < optical_a.size(); ++i) {
    scratch_.power[i] = power_mw(optical_a[i]);
  }
  return dot_optical_passes(scratch_.power, b, reference_power_mw, 1);
}

}  // namespace onfiber::phot
