// Unit tests for photonics/units.hpp: dB math, photon energetics, fiber
// delay.
#include "photonics/units.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace onfiber::phot {
namespace {

TEST(Units, DbRatioRoundTrip) {
  for (const double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 20.0}) {
    EXPECT_NEAR(10.0 * std::log10(db_to_ratio(db)), db, 1e-12);
  }
}

TEST(Units, KnownDbAnchors) {
  EXPECT_NEAR(db_to_ratio(0.0), 1.0, 1e-12);
  EXPECT_NEAR(db_to_ratio(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_ratio(3.0), 2.0, 0.01);  // 3 dB ~ 2x
  EXPECT_NEAR(db_to_ratio(-3.0), 0.5, 0.01);
}

TEST(Units, DbmConversions) {
  // Absolute powers in dBm are dB relative to 1 mW.
  EXPECT_NEAR(db_to_ratio(0.0), 1.0, 1e-12);   // 0 dBm = 1 mW
  EXPECT_NEAR(db_to_ratio(-10.0), 0.1, 1e-12);
  EXPECT_NEAR(10.0 * std::log10(db_to_ratio(7.3)), 7.3, 1e-12);
}

TEST(Units, ApplyLossAttenuates) {
  // Device models apply a loss in dB as db_to_ratio(-loss_db).
  EXPECT_NEAR(10.0 * db_to_ratio(-3.0), 5.0, 0.02);
  EXPECT_NEAR(10.0 * db_to_ratio(-0.0), 10.0, 1e-12);
  // Negative loss (gain) amplifies.
  EXPECT_NEAR(10.0 * db_to_ratio(10.0), 100.0, 1e-9);
}

TEST(Units, FieldLossIsSqrtOfPowerLoss) {
  const double scale = field_loss_scale(3.0);
  EXPECT_NEAR(scale * scale, db_to_ratio(-3.0), 1e-12);
}

TEST(Units, PhotonEnergyAt1550nm) {
  // E = hc/lambda ~ 1.282e-19 J at 1550 nm (0.8 eV).
  EXPECT_NEAR(photon_energy(1550e-9), 1.282e-19, 0.002e-19);
}

TEST(Units, PhotonFluxScalesWithPower) {
  // 1 mW at 1550 nm ~ 7.8e15 photons/s: flux = P / (h c / lambda).
  EXPECT_NEAR(1e-3 / photon_energy(c_band_wavelength), 7.8e15, 0.1e15);
}

TEST(Units, WavelengthFrequencyAnchor) {
  // 1550 nm ~ 193.4 THz.
  EXPECT_NEAR(speed_of_light / c_band_wavelength, 193.4e12, 0.1e12);
}

TEST(Units, FiberDelayPerKm) {
  // ~4.9 us per km of SMF.
  EXPECT_NEAR(fiber_delay_s(1.0), 4.9e-6, 0.05e-6);
  EXPECT_NEAR(fiber_delay_s(100.0) / fiber_delay_s(1.0), 100.0, 1e-9);
}

TEST(Units, FiberDelayZeroLength) {
  EXPECT_DOUBLE_EQ(fiber_delay_s(0.0), 0.0);
}

}  // namespace
}  // namespace onfiber::phot
