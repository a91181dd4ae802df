// Tests for noise models and the energy ledger.
#include <gtest/gtest.h>

#include <cmath>

#include "photonics/energy.hpp"
#include "photonics/noise.hpp"

namespace onfiber::phot {
namespace {

TEST(Noise, ShotNoiseFormula) {
  // sigma^2 = 2 q I B
  const double sigma = shot_noise_sigma_a(1e-3, 10e9);
  const double expected = 2.0 * electron_charge * 1e-3 * 10e9;
  EXPECT_NEAR(sigma * sigma, expected, 1e-9 * expected);
}

TEST(Noise, ShotNoiseGrowsWithSqrtCurrent) {
  const double s1 = shot_noise_sigma_a(1e-3, 10e9);
  const double s4 = shot_noise_sigma_a(4e-3, 10e9);
  EXPECT_NEAR(s4 / s1, 2.0, 1e-9);
}

TEST(Noise, ShotNoiseHandlesNegativeCurrentMagnitude) {
  EXPECT_DOUBLE_EQ(shot_noise_sigma_a(-1e-3, 1e9),
                   shot_noise_sigma_a(1e-3, 1e9));
}

TEST(Noise, ThermalNoiseFormula) {
  const double sigma = thermal_noise_sigma_a(50.0, 300.0, 10e9);
  EXPECT_NEAR(sigma * sigma, 4.0 * boltzmann_k * 300.0 * 10e9 / 50.0, 1e-25);
}

TEST(Noise, ThermalNoiseIndependentOfSignal) {
  // Only R, T, B matter.
  EXPECT_DOUBLE_EQ(thermal_noise_sigma_a(50.0, 300.0, 1e9),
                   thermal_noise_sigma_a(50.0, 300.0, 1e9));
}

TEST(Noise, RinScalesWithPower) {
  const double s1 = rin_sigma_mw(1.0, -155.0, 10e9);
  const double s2 = rin_sigma_mw(2.0, -155.0, 10e9);
  EXPECT_NEAR(s2 / s1, 2.0, 1e-9);
}

TEST(Noise, RinTypicalMagnitude) {
  // -155 dB/Hz over 10 GHz on 10 mW: sigma = 10 * sqrt(10^-15.5 * 1e10)
  const double sigma = rin_sigma_mw(10.0, -155.0, 10e9);
  EXPECT_NEAR(sigma, 10.0 * std::sqrt(std::pow(10.0, -15.5) * 1e10), 1e-9);
  EXPECT_LT(sigma, 0.1);  // well under 1% of carrier
}

TEST(Noise, ReceiverConfigSamplesZeroWhenDisabled) {
  receiver_noise_config cfg;
  cfg.enable_shot = false;
  cfg.enable_thermal = false;
  counter_stream g(counter_rng::key_of(1));
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(cfg.sample_current_noise_a(1e-3, g), 0.0);
  }
  EXPECT_EQ(g.cursor(), 10u);  // one draw index per readout, even at zero
}

TEST(Noise, ReceiverNoiseVarianceMatchesSum) {
  receiver_noise_config cfg;
  counter_stream g(counter_rng::key_of(2));
  const double i_sig = 1e-3;
  double sq = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = cfg.sample_current_noise_a(i_sig, g);
    sq += x * x;
  }
  const double shot = shot_noise_sigma_a(i_sig, cfg.bandwidth_hz);
  const double thermal =
      thermal_noise_sigma_a(cfg.load_ohm, cfg.temperature_k, cfg.bandwidth_hz);
  const double expected_var = shot * shot + thermal * thermal;
  EXPECT_NEAR(sq / n, expected_var, 0.03 * expected_var);
}

// ---------------------------------------------------------------- energy

TEST(Energy, LedgerAccumulates) {
  energy_ledger l;
  l.charge("dac", 1e-12);
  l.charge("dac", 2e-12);
  l.charge("adc", 5e-12);
  EXPECT_NEAR(l.joules("dac"), 3e-12, 1e-20);
  EXPECT_EQ(l.ops("dac"), 2u);
  EXPECT_NEAR(l.total_joules(), 8e-12, 1e-20);
}

TEST(Energy, LedgerBulkCharge) {
  energy_ledger l;
  l.charge("mac", 40e-18 * 1000, 1000);
  EXPECT_EQ(l.ops("mac"), 1000u);
  EXPECT_NEAR(l.joules("mac"), 4e-14, 1e-22);
}

TEST(Energy, MissingCategoryIsZero) {
  const energy_ledger l;
  EXPECT_DOUBLE_EQ(l.joules("nothing"), 0.0);
  EXPECT_EQ(l.ops("nothing"), 0u);
}

TEST(Energy, PaperEnergyRatioIs1750x) {
  // The §2.2 headline: 70 fJ (TPU MAC) / 40 aJ (photonic MAC) = 1750.
  const energy_costs c;
  EXPECT_NEAR(c.digital_tpu_mac_j / c.photonic_mac_j, 1750.0, 1.0);
}

}  // namespace
}  // namespace onfiber::phot
