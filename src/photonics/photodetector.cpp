#include "photonics/photodetector.hpp"

#include <algorithm>

#include "photonics/simd.hpp"

namespace onfiber::phot {

namespace {
constexpr std::uint64_t kDetectorTag = 0x706474ULL;  // "pdt"
}  // namespace

photodetector::photodetector(photodetector_config config, rng noise_stream,
                             energy_ledger* ledger, energy_costs costs)
    : config_(config),
      noise_(counter_rng::key_of(noise_stream(), kDetectorTag)),
      ledger_(ledger),
      costs_(costs) {}

std::uint64_t photodetector::noise_key(std::uint64_t seed) {
  return counter_rng::key_of(rng::first_output(seed), kDetectorTag);
}

double photodetector::clip(double current_a) const {
  return std::clamp(current_a, -config_.saturation_current_a,
                    config_.saturation_current_a);
}

double photodetector::detect(field in) {
  const double signal_a = expected_current_a(power_mw(in));
  const double noise_a =
      config_.noise.sample_current_noise_a(signal_a, noise_);
  if (ledger_ != nullptr) {
    ledger_->charge("photodetector", costs_.photodetector_readout_j);
  }
  return clip(signal_a + noise_a);
}

photodetector::integration_noise photodetector::integration_noise_for(
    std::size_t symbols) const {
  // Integrating N symbols narrows the effective noise bandwidth by N:
  // sample the noise with B' = B / N by scaling the variance, which for
  // Gaussian noise equals scaling sigma by 1/sqrt(N).
  const receiver_noise_config& nz = config_.noise;
  integration_noise out;
  out.bandwidth_hz = nz.bandwidth_hz / static_cast<double>(symbols);
  if (nz.enable_thermal) {
    const double t =
        thermal_noise_sigma_a(nz.load_ohm, nz.temperature_k, out.bandwidth_hz);
    out.thermal_var = t * t;
  }
  return out;
}

void photodetector::draw_readout_noise(std::span<double> out) {
  noise_.fill_normal(out);
  if (ledger_ != nullptr) {
    ledger_->charge_batches("photodetector", costs_.photodetector_readout_j,
                            1, out.size());
  }
}

void photodetector::integrate_readouts(std::span<const double> power_mw,
                                       std::size_t symbols,
                                       const integration_noise& nz,
                                       std::span<const double> noise,
                                       std::span<double> current_a) const {
  // Every readout's power sum in one dispatched call, into current_a.
  simd::active().blocked_sums(power_mw.data(), symbols, current_a.size(),
                              current_a.data());
  readout_currents(current_a, symbols, nz, noise, current_a);
}

void photodetector::readout_currents(std::span<const double> sums_mw,
                                     std::size_t symbols,
                                     const integration_noise& nz,
                                     std::span<const double> noise,
                                     std::span<double> current_a) const {
  // The shot and thermal noise of each and the clip, one branch-free
  // dispatched pass.
  simd::active().readout_currents(
      sums_mw.data(), noise.data(), current_a.size(),
      static_cast<double>(symbols), config_.responsivity_a_w,
      config_.dark_current_a, config_.noise.enable_shot,
      2.0 * electron_charge, nz.bandwidth_hz, nz.thermal_var,
      config_.saturation_current_a, current_a.data());
}

double photodetector::integrate_power(std::span<const double> power_mw) {
  if (power_mw.empty()) return 0.0;
  double noise = 0.0;
  double current_a = 0.0;
  draw_readout_noise(std::span(&noise, 1));
  integrate_readouts(power_mw, power_mw.size(),
                     integration_noise_for(power_mw.size()),
                     std::span(&noise, 1), std::span(&current_a, 1));
  return current_a;
}

}  // namespace onfiber::phot
