#include "photonics/converter.hpp"

#include <algorithm>
#include <cmath>

#include "photonics/quantize_detail.hpp"
#include "photonics/simd.hpp"

namespace onfiber::phot {

double quantize_to_grid(double value, double full_scale, int bits) {
  return detail::quantize_bf(value, full_scale,
                             static_cast<double>((1ULL << bits) - 1));
}

double quantization_noise_rms(double full_scale, int bits) {
  const double lsb = full_scale / static_cast<double>((1ULL << bits) - 1);
  return lsb / std::sqrt(12.0);
}

double enob_noise_sigma(const converter_config& c) {
  if (c.enob_penalty <= 0.0) return 0.0;
  const double ideal = quantization_noise_rms(c.full_scale, c.bits);
  const double effective_bits = static_cast<double>(c.bits) - c.enob_penalty;
  // Total noise of an ENOB-limited converter: q_fs / (2^enob * sqrt(12))
  const double total = c.full_scale /
                       (std::pow(2.0, effective_bits) * std::sqrt(12.0));
  const double extra_var = total * total - ideal * ideal;
  return extra_var > 0.0 ? std::sqrt(extra_var) : 0.0;
}

namespace {

/// Purpose tags separating DAC and ADC streams derived from equal seeds.
constexpr std::uint64_t kDacTag = 0x646163ULL;  // "dac"
constexpr std::uint64_t kAdcTag = 0x616463ULL;  // "adc"

/// Measured-style ENOB: total modeled noise (quantization floor + ENOB
/// penalty) folded back into effective bits.
double effective_bits_of(const converter_config& c, double noise_sigma) {
  const double ideal = quantization_noise_rms(c.full_scale, c.bits);
  const double total = std::sqrt(ideal * ideal + noise_sigma * noise_sigma);
  if (total <= 0.0 || c.full_scale <= 0.0) {
    return static_cast<double>(c.bits);
  }
  return std::log2(c.full_scale / (total * std::sqrt(12.0)));
}

}  // namespace

// ------------------------------------------------------------------- dac

dac::dac(converter_config config, rng noise_stream, energy_ledger* ledger,
         energy_costs costs)
    : config_(config),
      noise_(counter_rng::key_of(noise_stream(), kDacTag)),
      noise_sigma_(enob_noise_sigma(config)),
      ledger_(ledger),
      costs_(costs) {}

std::uint64_t dac::noise_key(std::uint64_t seed) {
  return counter_rng::key_of(rng::first_output(seed), kDacTag);
}

double dac::effective_bits() const {
  return effective_bits_of(config_, noise_sigma_);
}

double dac::convert_core(double value) {
  double out = quantize_to_grid(value, config_.full_scale, config_.bits);
  if (noise_sigma_ > 0.0) {
    out += noise_sigma_ * noise_.normal();
  } else {
    noise_.skip(1);  // every element consumes one index, noisy or not
  }
  return std::clamp(out, 0.0, config_.full_scale);
}

double dac::convert(double value) {
  if (ledger_ != nullptr) ledger_->charge("dac", costs_.dac_conversion_j);
  return convert_core(value);
}

void dac::convert(std::span<const double> in, std::span<double> out,
                  std::vector<double>& noise_scratch) {
  const std::size_t n = std::min(in.size(), out.size());
  if (n == 0) return;
  const double fs = config_.full_scale;
  const double levels = static_cast<double>((1ULL << config_.bits) - 1);
  if (ledger_ != nullptr) {
    ledger_->charge("dac", costs_.dac_conversion_j * static_cast<double>(n),
                    n);
  }
  if (noise_sigma_ > 0.0) {
    // Pass 1: counter-indexed noise draws, element i at cursor + i
    // exactly as the scalar loop, generated at the active SIMD level.
    noise_scratch.resize(n);
    noise_.fill_normal(std::span<double>(noise_scratch.data(), n));
    // Pass 2: quantize, add noise, clip — conditional moves over
    // contiguous arrays, dispatched.
    simd::active().dac_pass(in.data(), noise_scratch.data(), n, fs, levels,
                            noise_sigma_, out.data());
  } else {
    noise_.skip(n);
    for (std::size_t i = 0; i < n; ++i) {
      // No noise: quantize already lands in [0, full_scale].
      out[i] = detail::quantize_bf(in[i], fs, levels);
    }
  }
}

// ------------------------------------------------------------------- adc

adc::adc(converter_config config, rng noise_stream, energy_ledger* ledger,
         energy_costs costs)
    : config_(config),
      noise_(counter_rng::key_of(noise_stream(), kAdcTag)),
      noise_sigma_(enob_noise_sigma(config)),
      ledger_(ledger),
      costs_(costs) {}

std::uint64_t adc::noise_key(std::uint64_t seed) {
  return counter_rng::key_of(rng::first_output(seed), kAdcTag);
}

double adc::effective_bits() const {
  return effective_bits_of(config_, noise_sigma_);
}

double adc::convert_core(double value) {
  double in = value;
  if (noise_sigma_ > 0.0) {
    in += noise_sigma_ * noise_.normal();
  } else {
    noise_.skip(1);
  }
  return quantize_to_grid(in, config_.full_scale, config_.bits);
}

double adc::convert(double value) {
  if (ledger_ != nullptr) ledger_->charge("adc", costs_.adc_conversion_j);
  return convert_core(value);
}

void adc::draw_noise(std::span<double> out) {
  const std::size_t n = out.size();
  if (noise_sigma_ > 0.0) {
    noise_.fill_normal(out);
  } else {
    noise_.skip(n);
  }
  if (ledger_ != nullptr) {
    // Per-element charges, same sequence as the scalar loop.
    ledger_->charge_batches("adc", costs_.adc_conversion_j, 1, n);
  }
}

void adc::digitize(std::span<const double> in, std::span<const double> noise,
                   std::span<double> out) const {
  const std::size_t n = in.size();
  const double fs = config_.full_scale;
  const double levels = static_cast<double>((1ULL << config_.bits) - 1);
  if (noise_sigma_ > 0.0) {
    simd::active().adc_pass(in.data(), noise.data(), n, fs, levels,
                            noise_sigma_, out.data());
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = detail::quantize_bf(in[i], fs, levels);
    }
  }
}

}  // namespace onfiber::phot
