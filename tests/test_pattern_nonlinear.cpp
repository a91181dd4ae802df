// Tests for P2 (pattern matching) and P3 (nonlinear function).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <vector>

#include "core/photonic_engine.hpp"
#include "photonics/engine/nonlinear_unit.hpp"
#include "photonics/engine/pattern_matcher.hpp"
#include "photonics/passives.hpp"
#include "photonics/rng.hpp"

#include "golden_digest.hpp"

namespace onfiber::phot {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t n, rng& g) {
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(g.below(2));
  return bits;
}

// ------------------------------------------------------------ P2 matching

TEST(PatternMatch, ExactMatchHasNearZeroMismatch) {
  pattern_matcher m({}, 1);
  rng g(10);
  const auto bits = random_bits(32, g);
  const match_result r = m.match_bits(bits, bits);
  EXPECT_TRUE(r.matched);
  EXPECT_LT(r.mismatch_fraction, 0.02);
}

TEST(PatternMatch, MismatchFractionTracksHammingDistance) {
  pattern_matcher m({}, 2);
  rng g(11);
  const auto bits = random_bits(64, g);
  for (const std::size_t flips : {1u, 4u, 16u, 32u}) {
    auto other = bits;
    for (std::size_t i = 0; i < flips; ++i) other[i] ^= 1;
    const match_result r = m.match_bits(bits, other);
    const double expected = static_cast<double>(flips) / 64.0;
    EXPECT_NEAR(r.mismatch_fraction, expected, 0.03)
        << "flips=" << flips;
    EXPECT_FALSE(r.matched) << "flips=" << flips;
  }
}

TEST(PatternMatch, AllFlippedIsFullMismatch) {
  pattern_matcher m({}, 3);
  std::vector<std::uint8_t> zeros(16, 0), ones(16, 1);
  const match_result r = m.match_bits(zeros, ones);
  EXPECT_GT(r.mismatch_fraction, 0.9);
}

TEST(PatternMatch, WildcardsNeverMismatch) {
  pattern_matcher m({}, 4);
  rng g(12);
  const auto bits = random_bits(32, g);
  std::vector<tbit> pattern = to_ternary(bits);
  // Corrupt bits 3..10 but mark them wildcard.
  auto corrupted = bits;
  for (std::size_t i = 3; i <= 10; ++i) {
    corrupted[i] ^= 1;
    pattern[i] = tbit::wildcard;
  }
  const match_result r = m.match_ternary(corrupted, pattern);
  EXPECT_TRUE(r.matched);
}

TEST(PatternMatch, AllWildcardThrows) {
  pattern_matcher m({}, 5);
  std::vector<std::uint8_t> bits(8, 0);
  std::vector<tbit> pattern(8, tbit::wildcard);
  EXPECT_THROW((void)m.match_ternary(bits, pattern), std::invalid_argument);
}

TEST(PatternMatch, SizeMismatchThrows) {
  pattern_matcher m({}, 6);
  std::vector<std::uint8_t> bits(8, 0);
  std::vector<std::uint8_t> pattern(9, 0);
  EXPECT_THROW((void)m.match_bits(bits, pattern), std::invalid_argument);
}

TEST(PatternMatch, ByteInterface) {
  pattern_matcher m({}, 7);
  const std::vector<std::uint8_t> data{0xde, 0xad, 0xbe, 0xef};
  EXPECT_TRUE(m.match_bytes(data, data).matched);
  const std::vector<std::uint8_t> other{0xde, 0xad, 0xbe, 0xee};
  EXPECT_FALSE(m.match_bytes(data, other).matched);
}

TEST(PatternMatch, BytesToBitsMsbFirst) {
  const std::vector<std::uint8_t> bytes{0x80, 0x01};
  const auto bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 16u);
  EXPECT_EQ(bits[0], 1);
  EXPECT_EQ(bits[7], 0);
  EXPECT_EQ(bits[15], 1);
}

TEST(PatternMatch, OpticalPilotRoundTrip) {
  pattern_matcher m({}, 8);
  rng g(13);
  const auto bits = random_bits(48, g);
  const waveform wave = m.encode_bits_to_optical(bits);
  ASSERT_EQ(wave.size(), 49u);  // pilot + data
  EXPECT_TRUE(m.match_optical(wave, to_ternary(bits)).matched);
  auto flipped = bits;
  flipped[20] ^= 1;
  EXPECT_FALSE(m.match_optical(wave, to_ternary(flipped)).matched);
}

TEST(PatternMatch, OpticalSurvivesCarrierPhaseOffset) {
  // Rotate the whole waveform (unknown carrier phase after transit); the
  // pilot-aided recovery must still match.
  pattern_matcher m({}, 9);
  rng g(14);
  const auto bits = random_bits(32, g);
  waveform wave = m.encode_bits_to_optical(bits);
  const field rot = std::polar(1.0, 1.2345);
  for (field& e : wave) e *= rot;
  EXPECT_TRUE(m.match_optical(wave, to_ternary(bits)).matched);
}

TEST(PatternMatch, OpticalSurvivesAttenuation) {
  pattern_matcher m({}, 10);
  rng g(15);
  const auto bits = random_bits(32, g);
  waveform wave = m.encode_bits_to_optical(bits);
  for (field& e : wave) e *= field_loss_scale(6.0);  // -6 dB
  EXPECT_TRUE(m.match_optical(wave, to_ternary(bits)).matched);
}

TEST(PatternMatch, OpticalLengthValidation) {
  pattern_matcher m({}, 11);
  const waveform wave(8, make_field(1.0));
  const std::vector<tbit> pattern(8, tbit::zero);  // needs 9 samples
  EXPECT_THROW((void)m.match_optical(wave, pattern), std::invalid_argument);
}

TEST(PatternMatch, OpticalDeadPilotThrows) {
  pattern_matcher m({}, 12);
  waveform wave(9, make_field(1.0));
  wave[0] = field{0.0, 0.0};
  const std::vector<tbit> pattern(8, tbit::zero);
  EXPECT_THROW((void)m.match_optical(wave, pattern), std::invalid_argument);
}

TEST(PatternMatch, LatencyScalesWithLength) {
  pattern_match_config cfg;
  cfg.symbol_rate_hz = 10e9;
  pattern_matcher m(cfg, 15);
  rng g(16);
  const auto short_bits = random_bits(16, g);
  const auto long_bits = random_bits(160, g);
  const double t_short = m.match_bits(short_bits, short_bits).latency_s;
  const double t_long = m.match_bits(long_bits, long_bits).latency_s;
  EXPECT_GT(t_long, t_short);
  EXPECT_NEAR(t_long - t_short, 144.0 / 10e9, 1e-12);
}

// ------------------------------------------- P2 per-symbol reference

/// Per-symbol reference P2: the matcher loop before batching — one
/// emit_one + encode_phase per symbol, full port waveforms through
/// couple_50_50, integrate on each port. Built from the same seeds and
/// config as pattern_matcher, so its draws and charges line up with it.
class per_symbol_matcher {
 public:
  per_symbol_matcher(pattern_match_config config, std::uint64_t seed,
                     energy_ledger* ledger)
      : config_([&] {
          config.laser.symbol_rate_hz = config.symbol_rate_hz;
          config.detector.noise.bandwidth_hz = config.symbol_rate_hz;
          return config;
        }()),
        laser_(config_.laser, rng{seed}, ledger),
        mod_data_(config_.modulator, rng{seed ^ 0xaaaa}, ledger),
        mod_pattern_(config_.modulator, rng{seed ^ 0xbbbb}, ledger),
        det_match_(config_.detector, rng{seed ^ 0xcccc}, ledger),
        det_mismatch_(config_.detector, rng{seed ^ 0xdddd}, ledger),
        adc_out_(config_.adc, rng{seed ^ 0xeeee}, ledger),
        ledger_(ledger) {}

  match_result ternary(std::span<const std::uint8_t> data,
                       std::span<const tbit> pattern) {
    std::size_t cared = 0;
    waveform arm_data, arm_pattern;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const field carrier = laser_.emit_one();
      auto [d_arm, p_arm] = split_50_50(carrier);
      if (pattern[i] == tbit::wildcard) {
        arm_data.push_back(field{0.0, 0.0});
        arm_pattern.push_back(field{0.0, 0.0});
        continue;
      }
      ++cared;
      arm_data.push_back(mod_data_.encode_phase(d_arm, data[i] ? pi : 0.0));
      arm_pattern.push_back(mod_pattern_.encode_phase(
          p_arm, pattern[i] == tbit::one ? pi : 0.0));
    }
    return decide(arm_data, arm_pattern, cared);
  }

  waveform encode(std::span<const std::uint8_t> bits) {
    waveform out;
    out.push_back(mod_data_.encode_phase(laser_.emit_one(), 0.0));
    for (std::uint8_t b : bits) {
      out.push_back(mod_data_.encode_phase(laser_.emit_one(), b ? pi : 0.0));
    }
    return out;
  }

  match_result optical(std::span<const field> wave,
                       std::span<const tbit> pattern) {
    const double reference_power_mw = power_mw(wave[0]);
    const field derotate = std::polar(1.0, -std::arg(wave[0]));
    const double arm_compensation =
        db_to_ratio(config_.modulator.insertion_loss_db);
    std::size_t cared = 0;
    waveform arm_data, arm_pattern;
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      if (pattern[i] == tbit::wildcard) {
        arm_data.push_back(field{0.0, 0.0});
        arm_pattern.push_back(field{0.0, 0.0});
        continue;
      }
      ++cared;
      arm_data.push_back(wave[i + 1] * derotate);
      arm_pattern.push_back(mod_pattern_.encode_phase(
          make_field(reference_power_mw * arm_compensation),
          pattern[i] == tbit::one ? pi : 0.0));
    }
    return decide(arm_data, arm_pattern, cared);
  }

 private:
  static constexpr double pi = std::numbers::pi;

  match_result decide(const waveform& arm_data, const waveform& arm_pattern,
                      std::size_t cared) {
    std::vector<double> port_match, port_mismatch;
    const field shim = std::polar(1.0, -pi / 2.0);
    for (std::size_t i = 0; i < arm_data.size(); ++i) {
      const coupler_output ports =
          couple_50_50(arm_data[i], arm_pattern[i] * shim);
      port_match.push_back(power_mw(ports.port1));
      port_mismatch.push_back(power_mw(ports.port2));
    }
    const double i_match = det_match_.integrate_power(port_match);
    const double i_mismatch = det_mismatch_.integrate_power(port_mismatch);
    const double dark = det_match_.config().dark_current_a;
    const double num = i_mismatch - dark;
    const double den = (i_match - dark) + (i_mismatch - dark);
    double fraction = std::clamp(den > 0.0 ? num / den : 1.0, 0.0, 1.0);
    fraction = adc_out_.convert(fraction);
    match_result r;
    r.mismatch_fraction = fraction;
    r.matched = fraction <= config_.decision_threshold;
    r.symbols = arm_data.size();
    r.latency_s =
        static_cast<double>(arm_data.size()) / config_.symbol_rate_hz +
        config_.fixed_latency_s;
    if (ledger_ != nullptr) {
      const energy_costs costs;
      ledger_->charge("photonic_match",
                      costs.photonic_mac_j * static_cast<double>(cared),
                      static_cast<std::uint64_t>(cared));
    }
    return r;
  }

  pattern_match_config config_;
  laser laser_;
  phase_modulator mod_data_;
  phase_modulator mod_pattern_;
  photodetector det_match_;
  photodetector det_mismatch_;
  adc adc_out_;
  energy_ledger* ledger_;
};

void expect_same_result(const match_result& got, const match_result& want,
                        const char* what) {
  EXPECT_EQ(got.mismatch_fraction, want.mismatch_fraction) << what;
  EXPECT_EQ(got.matched, want.matched) << what;
  EXPECT_EQ(got.symbols, want.symbols) << what;
  EXPECT_EQ(got.latency_s, want.latency_s) << what;
}

void expect_same_ledger(const energy_ledger& got, const energy_ledger& want) {
  ASSERT_EQ(got.entries().size(), want.entries().size());
  for (const auto& [name, e] : want.entries()) {
    EXPECT_EQ(got.joules(name), e.joules) << name;
    EXPECT_EQ(got.ops(name), e.ops) << name;
  }
}

TEST(PatternMatch, BatchedMatchesPerSymbolReference) {
  energy_ledger ledger, ref_ledger;
  pattern_matcher m({}, 91, &ledger);
  per_symbol_matcher ref({}, 91, &ref_ledger);
  rng g(92);
  for (const std::size_t n : {1u, 7u, 64u, 129u}) {
    const auto bits = random_bits(n, g);
    auto data = bits;
    data[n / 2] ^= 1;
    std::vector<tbit> plain = to_ternary(bits);
    std::vector<tbit> wild = plain;
    for (std::size_t i = 0; i + 1 < n; i += 3) wild[i] = tbit::wildcard;
    for (const auto* pattern : {&plain, &wild}) {
      expect_same_result(m.match_ternary(data, *pattern),
                         ref.ternary(data, *pattern), "match_ternary");
      expect_same_result(m.match_ternary(bits, *pattern),
                         ref.ternary(bits, *pattern), "match_ternary exact");
    }

    waveform wave = m.encode_bits_to_optical(data);
    const waveform ref_wave = ref.encode(data);
    ASSERT_EQ(wave.size(), ref_wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      EXPECT_EQ(wave[i], ref_wave[i]) << "symbol " << i;
    }
    const field rot = std::polar(0.8, -2.1);
    for (field& e : wave) e *= rot;
    for (const auto* pattern : {&plain, &wild}) {
      expect_same_result(m.match_optical(wave, *pattern),
                         ref.optical(wave, *pattern), "match_optical");
    }
  }
  expect_same_ledger(ledger, ref_ledger);
}

// ----------------------------------------------------- P2 matcher golden

/// Fold one match result into a digest.
void add_result(golden::fnv1a64& d, const match_result& r) {
  d.add(r.matched ? 1 : 0);
  d.add_bits(r.mismatch_fraction);
  d.add_bits(r.latency_s);
  d.add(r.symbols);
}

void add_wave(golden::fnv1a64& d, std::span<const field> wave) {
  d.add(wave.size());
  for (const field& e : wave) {
    d.add_bits(e.real());
    d.add_bits(e.imag());
  }
}

// Captured before P2 moved onto batched device fills. One matcher and
// one engine with the ledger on: match_ternary with wildcards,
// match_bits, a stride scan, encode_bits_to_optical + match_optical after a
// carrier-phase rotation, and preamble encode/detect.
constexpr std::uint64_t kPatternMatchGolden = 0x29afbf20b68deb65ull;

TEST(PatternMatchGolden, LedgerOnDigestHolds) {
  energy_ledger ledger;
  pattern_matcher m({}, 2024, &ledger);
  golden::fnv1a64 d;
  rng g(30);

  const auto bits = random_bits(48, g);
  std::vector<tbit> pattern = to_ternary(bits);
  auto data = bits;
  for (std::size_t i = 5; i <= 12; ++i) pattern[i] = tbit::wildcard;
  data[6] ^= 1;
  add_result(d, m.match_ternary(data, pattern));
  data[30] ^= 1;
  add_result(d, m.match_ternary(data, pattern));

  add_result(d, m.match_bits(bits, bits));
  auto flipped = bits;
  for (const std::size_t i : {2u, 17u, 40u}) flipped[i] ^= 1;
  add_result(d, m.match_bits(bits, flipped));

  std::vector<std::uint8_t> stream = random_bits(96, g);
  const auto needle = random_bits(16, g);
  std::copy(needle.begin(), needle.end(), stream.begin() + 9);
  std::copy(needle.begin(), needle.end(), stream.begin() + 60);
  std::vector<tbit> needle_t = to_ternary(needle);
  needle_t[3] = needle_t[11] = tbit::wildcard;
  for (const std::size_t stride : {1u, 3u}) {
    // A stride scan: one match_ternary per aligned window.
    std::vector<std::size_t> hits;
    for (std::size_t off = 0; off + needle_t.size() <= stream.size();
         off += stride) {
      const auto window = std::span(stream).subspan(off, needle_t.size());
      if (m.match_ternary(window, needle_t).matched) hits.push_back(off);
    }
    d.add(hits.size());
    for (const std::size_t h : hits) d.add(h);
  }

  const auto word = random_bits(64, g);
  waveform wave = m.encode_bits_to_optical(word);
  add_wave(d, wave);
  const field rot = std::polar(1.0, 2.468);
  for (field& e : wave) e *= rot;
  std::vector<tbit> word_t = to_ternary(word);
  add_result(d, m.match_optical(wave, word_t));
  word_t[33] = word_t[33] == tbit::one ? tbit::zero : tbit::one;
  add_result(d, m.match_optical(wave, word_t));
  for (std::size_t i = 30; i < 36; ++i) word_t[i] = tbit::wildcard;
  add_result(d, m.match_optical(wave, word_t));

  core::photonic_engine engine({}, 77, &ledger);
  waveform preamble = engine.encode_preamble();
  add_wave(d, preamble);
  for (field& e : preamble) e *= rot;
  d.add(engine.detect_preamble(preamble) ? 1 : 0);
  preamble[5] = -preamble[5];
  d.add(engine.detect_preamble(preamble) ? 1 : 0);

  for (const auto& [name, e] : ledger.entries()) {
    for (const char c : name) d.add(static_cast<std::uint8_t>(c));
    d.add_bits(e.joules);
    d.add(e.ops);
  }
  if (golden::regold_requested()) {
    std::printf("    0x%016llxull\n",
                static_cast<unsigned long long>(d.value()));
  }
  EXPECT_EQ(d.value(), kPatternMatchGolden);
}

// --------------------------------------------------------- P3 nonlinearity

TEST(Nonlinear, ZeroInZeroOut) {
  nonlinear_unit nl({}, 1);
  EXPECT_NEAR(nl.transfer_mw(0.0), 0.0, 1e-9);
}

TEST(Nonlinear, MonotoneIncreasingTransfer) {
  nonlinear_unit nl({}, 2);
  double prev = -1.0;
  for (double p = 0.0; p <= 10.0; p += 0.25) {
    const double y = nl.transfer_mw(p);
    EXPECT_GE(y, prev - 1e-12) << "at p=" << p;
    prev = y;
  }
}

TEST(Nonlinear, ReluLikeShape) {
  // Convex at the bottom (suppresses small inputs more than
  // proportionally), significant transmission at the top.
  nonlinear_unit nl({}, 3);
  const double y_low = nl.transfer_mw(1.0);
  const double y_high = nl.transfer_mw(10.0);
  EXPECT_LT(y_low / 1.0, 0.1 * (y_high / 10.0) * 10.0);  // strong suppression
  EXPECT_GT(y_high / 10.0, 0.3);  // passes a good fraction at full scale
}

TEST(Nonlinear, FullScaleReachesFullTransmission) {
  // Defaults calibrated: 10 mW drives the modulator to V_pi.
  nonlinear_config cfg;
  cfg.modulator.insertion_loss_db = 0.0;
  nonlinear_unit nl(cfg, 4);
  EXPECT_NEAR(nl.transfer_mw(10.0), 10.0 * (1.0 - cfg.tap_ratio), 0.05);
}

TEST(Nonlinear, ActivateBounds) {
  nonlinear_unit nl({}, 5);
  for (const double x : {-0.5, 0.0, 0.3, 0.7, 1.0, 1.5}) {
    const double y = nl.activate(x, 10.0);
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
}

TEST(Nonlinear, ActivateMatchesNormalizedTransfer) {
  // Noiseless config: activate(x) ~ x * sin^2(pi/2 x) with the default
  // calibration (output power = input power x transmission).
  nonlinear_config cfg;
  cfg.detector.noise.enable_shot = false;
  cfg.detector.noise.enable_thermal = false;
  cfg.detector.dark_current_a = 0.0;
  nonlinear_unit nl(cfg, 6);
  for (const double x : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    const double expected = x * std::pow(std::sin(0.5 * M_PI * x), 2.0);
    EXPECT_NEAR(nl.activate(x, 10.0), expected, 0.02) << "x=" << x;
  }
}

TEST(Nonlinear, ApplyWaveform) {
  nonlinear_unit nl({}, 7);
  for (int i = 0; i < 16; ++i) {
    const field e = nl.apply(make_field(5.0));
    EXPECT_LT(power_mw(e), 5.0);  // tap + nonlinearity always lose power
  }
}

TEST(Nonlinear, OffsetShiftsKnee) {
  nonlinear_config base;
  nonlinear_config shifted = base;
  shifted.drive_offset_v = 1.0;  // pre-biased toward transmission
  nonlinear_unit nl0(base, 8);
  nonlinear_unit nl1(shifted, 8);
  EXPECT_GT(nl1.transfer_mw(2.0), nl0.transfer_mw(2.0));
}

}  // namespace
}  // namespace onfiber::phot
