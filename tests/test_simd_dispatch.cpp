// Tests for the runtime SIMD dispatch layer (simd.hpp): every ISA tier
// the host supports must produce bit-identical doubles to the scalar
// tier, kernel by kernel and through full laser -> photodetector chains.
// This is the contract that makes the dispatch level — like the thread
// count — a pure wall-clock knob.
#include "photonics/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "per_pass_reference.hpp"
#include "photonics/converter.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/modulator.hpp"
#include "photonics/noise.hpp"
#include "photonics/quantize_detail.hpp"
#include "photonics/rng.hpp"

namespace onfiber::phot {
namespace {

/// Restore the env-resolved active level when a test that forces levels
/// exits (including via an assertion failure).
struct level_guard {
  ~level_guard() { simd::refresh(); }
};

std::vector<simd::level> supported_levels() {
  std::vector<simd::level> out;
  for (const simd::level l : {simd::level::scalar, simd::level::sse4,
                              simd::level::avx2, simd::level::avx512}) {
    if (simd::level_supported(l)) out.push_back(l);
  }
  return out;
}

TEST(SimdDispatch, DetectedLevelIsSupportedAndOrdered) {
  const simd::level detected = simd::detected_level();
  EXPECT_TRUE(simd::level_supported(detected));
  EXPECT_TRUE(simd::level_supported(simd::level::scalar));
  for (int l = 0; l <= static_cast<int>(detected); ++l) {
    EXPECT_TRUE(simd::level_supported(static_cast<simd::level>(l)));
  }
}

TEST(SimdDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(simd::level_name(simd::level::scalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::level::sse4), "sse4");
  EXPECT_STREQ(simd::level_name(simd::level::avx2), "avx2");
  EXPECT_STREQ(simd::level_name(simd::level::avx512), "avx512");
}

TEST(SimdDispatch, SetLevelRejectsUnsupported) {
  level_guard guard;
  const simd::level detected = simd::detected_level();
  if (detected == simd::level::avx512) {
    GTEST_SKIP() << "host supports every tier";
  }
  const auto above = static_cast<simd::level>(static_cast<int>(detected) + 1);
  const char* active_before = simd::active().name;
  EXPECT_FALSE(simd::set_level(above));
  EXPECT_STREQ(simd::active().name, active_before);
}

TEST(SimdDispatch, SetLevelSwitchesActiveTable) {
  level_guard guard;
  for (const simd::level l : supported_levels()) {
    ASSERT_TRUE(simd::set_level(l));
    EXPECT_EQ(simd::active().lvl, l);
    EXPECT_STREQ(simd::active().name, simd::level_name(l));
  }
}

TEST(SimdDispatch, EnvOverrideClampsAndSelects) {
  level_guard guard;
  ASSERT_EQ(setenv("ONFIBER_SIMD", "scalar", 1), 0);
  simd::refresh();
  EXPECT_EQ(simd::active().lvl, simd::level::scalar);
  // avx512 request clamps to whatever the host has.
  ASSERT_EQ(setenv("ONFIBER_SIMD", "avx512", 1), 0);
  simd::refresh();
  EXPECT_EQ(simd::active().lvl, simd::detected_level());
  ASSERT_EQ(unsetenv("ONFIBER_SIMD"), 0);
  simd::refresh();
  EXPECT_EQ(simd::active().lvl, simd::detected_level());
}

TEST(SimdDispatch, FillNormalBitIdenticalAcrossLevels) {
  // Every draw of every tier equals the per-index function, at an odd
  // base and at lengths that straddle the fill's 64-draw tail-mask words
  // and its 512-draw blocks, so a tail lane dropped or misplaced by any
  // tier (or by all of them alike) fails here.
  const std::uint64_t key = counter_rng::key_of(1234, 5);
  constexpr std::uint64_t base = 17;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{63},
        std::size_t{64}, std::size_t{65}, std::size_t{127}, std::size_t{128},
        std::size_t{129}, std::size_t{511}, std::size_t{512},
        std::size_t{513}, std::size_t{4096}}) {
    std::vector<double> reference(n);
    for (std::size_t i = 0; i < n; ++i) {
      reference[i] = counter_normal(key, base + i);
    }
    for (const simd::level l : supported_levels()) {
      std::vector<double> out(n, -1.0);
      simd::table_for(l).fill_normal(&key, 1, base, out.data(), n);
      EXPECT_EQ(out, reference) << "level " << simd::level_name(l)
                                << ", n = " << n;
    }
  }
}

TEST(SimdDispatch, ElementwiseKernelsBitIdenticalAcrossLevels) {
  constexpr std::size_t n = 1027;  // deliberately not a vector multiple
  rng gen(4242);
  std::vector<double> in(n), noise(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = gen.uniform();
    noise[i] = gen.normal();
  }
  const auto& scalar = simd::table_for(simd::level::scalar);
  std::vector<double> ref_rin(n), ref_dac(n), ref_adc(n);
  scalar.rin_power(noise.data(), n, 10.0, 0.02, ref_rin.data());
  scalar.dac_pass(in.data(), noise.data(), n, 1.0, 255.0, 1e-3,
                  ref_dac.data());
  scalar.adc_pass(in.data(), noise.data(), n, 1.0, 255.0, 1e-3,
                  ref_adc.data());
  double ref_sum = 0.0;
  scalar.blocked_sums(in.data(), n, 1, &ref_sum);

  for (const simd::level l : supported_levels()) {
    const auto& table = simd::table_for(l);
    std::vector<double> out(n, -1.0);
    table.rin_power(noise.data(), n, 10.0, 0.02, out.data());
    EXPECT_EQ(out, ref_rin) << simd::level_name(l);
    table.dac_pass(in.data(), noise.data(), n, 1.0, 255.0, 1e-3, out.data());
    EXPECT_EQ(out, ref_dac) << simd::level_name(l);
    table.adc_pass(in.data(), noise.data(), n, 1.0, 255.0, 1e-3, out.data());
    EXPECT_EQ(out, ref_adc) << simd::level_name(l);
    double sum = -1.0;
    table.blocked_sums(in.data(), n, 1, &sum);
    EXPECT_EQ(sum, ref_sum) << simd::level_name(l);
  }
}

TEST(SimdDispatch, BlockedSumHandlesShortAndRaggedLengths) {
  std::vector<double> x(67);
  rng gen(99);
  for (double& v : x) v = gen.uniform() - 0.5;
  const auto& scalar = simd::table_for(simd::level::scalar);
  for (std::size_t n = 0; n <= x.size(); ++n) {
    double ref = 0.0;
    scalar.blocked_sums(x.data(), n, 1, &ref);
    for (const simd::level l : supported_levels()) {
      double sum = -1.0;
      simd::table_for(l).blocked_sums(x.data(), n, 1, &sum);
      EXPECT_EQ(sum, ref) << simd::level_name(l) << " n=" << n;
    }
  }
}

// Per-readout reference of the documented fold: accumulator j sees
// x[j], x[8 + j], ... in order, folded (a01 + a23) + (a45 + a67).
double reference_blocked_sum(const double* x, std::size_t n) {
  double acc[8] = {};
  for (std::size_t i = 0; i < n; ++i) acc[i % 8] += x[i];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

TEST(SimdDispatch, BatchedReadoutSumsMatchPerReadoutSums) {
  // One call over many readouts keeps each readout's own fold: equal, bit
  // for bit, to summing each readout alone, at every tier and at readout
  // lengths below, at and across the 8-accumulator width.
  rng gen(107);
  for (const std::size_t n : {1, 3, 8, 12, 16, 17, 64}) {
    for (const std::size_t count : {1, 4, 48}) {
      std::vector<double> x(n * count);
      for (double& v : x) v = gen.uniform();
      std::vector<double> reference(count);
      for (std::size_t k = 0; k < count; ++k) {
        reference[k] = reference_blocked_sum(x.data() + k * n, n);
      }
      for (const simd::level l : supported_levels()) {
        std::vector<double> sums(count, -1.0);
        simd::table_for(l).blocked_sums(x.data(), n, count, sums.data());
        EXPECT_EQ(sums, reference)
            << simd::level_name(l) << " n " << n << " count " << count;
      }
    }
  }
}

TEST(SimdDispatch, MomentSumsMatchPerReadoutSums) {
  // The readout-moment kernel: each readout's mean and variance sums are
  // blocked_sums of the element-wise products, bit for bit, at every tier,
  // with and without the variance's third term, at readout lengths below,
  // at and across the 8-accumulator width.
  rng gen(109);
  for (const std::size_t n : {1, 3, 8, 12, 16, 17, 64}) {
    for (const std::size_t count : {1, 4, 48}) {
      std::vector<double> wm(n * count), xm(n * count), wv(n * count),
          xv(n * count), wh(n * count), xh(n * count);
      for (auto* v : {&wm, &xm, &wv, &xv, &wh, &xh}) {
        for (double& x : *v) x = gen.uniform();
      }
      for (const bool third : {false, true}) {
        std::vector<double> want_mean(count), want_var(count), term(n);
        for (std::size_t k = 0; k < count; ++k) {
          const std::size_t o = k * n;
          for (std::size_t i = 0; i < n; ++i) term[i] = wm[o + i] * xm[o + i];
          want_mean[k] = reference_blocked_sum(term.data(), n);
          for (std::size_t i = 0; i < n; ++i) {
            term[i] = wv[o + i] * xv[o + i];
            if (third) term[i] += wh[o + i] * xh[o + i];
          }
          want_var[k] = reference_blocked_sum(term.data(), n);
        }
        for (const simd::level l : supported_levels()) {
          std::vector<double> mean(count, -1.0), var(count, -1.0);
          simd::table_for(l).moment_sums(
              wm.data(), xm.data(), wv.data(), xv.data(),
              third ? wh.data() : nullptr, third ? xh.data() : nullptr, n,
              count, mean.data(), var.data());
          EXPECT_EQ(mean, want_mean) << simd::level_name(l) << " n " << n;
          EXPECT_EQ(var, want_var) << simd::level_name(l) << " n " << n;
        }
      }
    }
  }
}

// The per-readout chain the readout-currents kernel replaced: mean
// power to current, shot and thermal variance, one draw, clip.
double reference_readout_current(double sum, double noise, double symbols,
                                 double responsivity, double dark_a,
                                 bool shot, double bandwidth_hz,
                                 double thermal_var, double saturation_a) {
  const double signal_a = responsivity * (sum / symbols) * 1e-3 + dark_a;
  double variance = 0.0;
  if (shot) {
    const double s = shot_noise_sigma_a(signal_a, bandwidth_hz);
    variance += s * s;
  }
  variance += thermal_var;
  const double noise_a = variance <= 0.0 ? 0.0 : std::sqrt(variance) * noise;
  return std::clamp(signal_a + noise_a, -saturation_a, saturation_a);
}

TEST(SimdDispatch, ReadoutCurrentsMatchScalarChainAtEveryLevel) {
  // Shot noise on and off, thermal variance zero and not, a dark current
  // that drives some signals negative, and a saturation readouts clip at
  // on both sides — at every tier, equal bit for bit to the scalar chain.
  constexpr std::size_t count = 37;
  rng gen(113);
  std::vector<double> sums(count), noise(count);
  for (std::size_t k = 0; k < count; ++k) {
    sums[k] = k % 9 == 0 ? 0.0 : 160.0 * gen.uniform();
    noise[k] = 3.0 * gen.normal();
  }
  const double symbols = 16.0;
  const double bandwidth_hz = 10e9 / symbols;
  for (const bool shot : {false, true}) {
    for (const double thermal_var : {0.0, 1.6e-13}) {
      for (const double dark_a : {5e-9, -5e-3}) {
        for (const double saturation_a : {10e-3, 4e-3}) {
          std::vector<double> want(count);
          for (std::size_t k = 0; k < count; ++k) {
            want[k] = reference_readout_current(
                sums[k], noise[k], symbols, 1.0, dark_a, shot, bandwidth_hz,
                thermal_var, saturation_a);
          }
          for (const simd::level l : supported_levels()) {
            std::vector<double> got = sums;  // in place, as the detector
            simd::table_for(l).readout_currents(
                got.data(), noise.data(), count, symbols, 1.0, dark_a, shot,
                2.0 * electron_charge, bandwidth_hz, thermal_var,
                saturation_a, got.data());
            EXPECT_EQ(got, want)
                << simd::level_name(l) << " shot " << shot << " thermal "
                << thermal_var << " dark " << dark_a << " saturation "
                << saturation_a;
          }
        }
      }
    }
  }
}

// The grid snap's trunc-based rounding is std::round on every value a
// snap can round: non-negative numbers, -0.0 and NaN.
TEST(GridSnap, RoundHalfAwayMatchesStdRound) {
  std::vector<double> xs = {0.0,
                            -0.0,
                            std::nextafter(0.5, 0.0),
                            0x1p52,
                            0x1p53 - 1.0,
                            0x1p51 + 0.5,
                            std::nextafter(0x1p51 + 0.5, 0.0),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max()};
  for (int k = 0; k <= 300; ++k) {
    const double half = k + 0.5;
    xs.push_back(half);
    xs.push_back(std::nextafter(half, 0.0));
    xs.push_back(std::nextafter(half, 1e9));
    xs.push_back(static_cast<double>(k));
  }
  rng gen(2718);
  for (int i = 0; i < 1000; ++i) xs.push_back(300.0 * gen.uniform());
  for (const double x : xs) {
    const double got = detail::round_half_away(x);
    const double want = std::round(x);
    EXPECT_EQ(got, want) << "x = " << x;
    EXPECT_EQ(std::signbit(got), std::signbit(want)) << "x = " << x;
  }
  EXPECT_TRUE(std::isnan(
      detail::round_half_away(std::numeric_limits<double>::quiet_NaN())));
}

// The modulator pass over DAC outputs equals the calibrated MZM
// transmission times the power it modulates, at every tier. The DAC
// outputs come from inputs outside [0, 1], a DAC full scale above the
// modulator's unit clamp, a noiseless and a noisy DAC, and exact
// half-LSB points, where the snap must round half away from zero.
TEST(SimdDispatch, WeightProductMatchesUnfusedChainAtEveryLevel) {
  constexpr int bits = 6;
  const double levels = static_cast<double>((1 << bits) - 1);
  rng gen(1618);
  for (const double fs : {1.0, 0.8, 1.3}) {
    std::vector<double> in;
    std::size_t ties = 0;
    for (int k = 0; k < (1 << bits); ++k) {
      const double half = (k + 0.5) / levels * fs;
      for (const double c : {std::nextafter(half, 0.0), half,
                             std::nextafter(half, 2.0)}) {
        in.push_back(c);
        if (c / fs * levels == k + 0.5) ++ties;
      }
    }
    ASSERT_GT(ties, 0u) << "fs = " << fs;
    for (int i = 0; i < 301; ++i) in.push_back(2.0 * gen.uniform() - 0.5);
    const std::size_t n = in.size();
    std::vector<double> noise(n), power(n);
    for (std::size_t i = 0; i < n; ++i) {
      noise[i] = gen.normal();
      power[i] = 2.0 * gen.uniform();
    }
    modulator_config mcfg;
    mcfg.extinction_ratio_db = 20.0;
    mzm_modulator mod(mcfg, 0.0, rng{3});
    const double floor_t = db_to_ratio(-mcfg.extinction_ratio_db);
    const double loss = db_to_ratio(-mcfg.insertion_loss_db);

    for (const double sigma : {0.0, 0.01}) {
      const auto& scalar = simd::table_for(simd::level::scalar);
      std::vector<double> dac_out(n), want(n);
      scalar.dac_pass(in.data(), noise.data(), n, fs, levels, sigma,
                      dac_out.data());
      for (std::size_t i = 0; i < n; ++i) {
        want[i] =
            power[i] * calibrated_transmission(mod.transfer(), dac_out[i]);
      }
      for (const simd::level l : supported_levels()) {
        std::vector<double> got(n, -1.0);
        simd::table_for(l).weight_product(dac_out.data(), n, floor_t, loss,
                                          power.data(), got.data());
        EXPECT_EQ(got, want) << simd::level_name(l) << " fs = " << fs
                             << " sigma = " << sigma;
      }
    }
  }
}

// Full laser -> DAC -> MZM -> photodetector -> ADC chains, evaluated with
// the dispatch pinned to each supported tier: the digitized dot products
// must be exactly equal doubles.
TEST(SimdDispatch, FusedDotChainBitIdenticalAcrossLevels) {
  constexpr std::size_t dim = 300;
  rng gen(777);
  std::vector<double> a(dim), b(dim);
  for (double& x : a) x = 2.0 * gen.uniform() - 1.0;
  for (double& x : b) x = 2.0 * gen.uniform() - 1.0;

  matrix w(1, dim);
  w.data = a;

  level_guard guard;
  ASSERT_TRUE(simd::set_level(simd::level::scalar));
  vector_matrix_engine ref_engine({}, 31337);
  const gemv_result ref = ref_engine.gemv_signed(w, b);

  for (const simd::level l : supported_levels()) {
    ASSERT_TRUE(simd::set_level(l));
    vector_matrix_engine engine({}, 31337);
    const gemv_result r = engine.gemv_signed(w, b);
    EXPECT_EQ(r.values, ref.values) << simd::level_name(l);
    EXPECT_EQ(r.symbols, ref.symbols);
  }
}

TEST(SimdDispatch, GemmBitIdenticalAcrossLevelsThreadsAndBatch) {
  constexpr std::size_t rows = 3, cols = 64, batch = 11;
  rng gen(4321);
  matrix w(rows, cols);
  for (double& v : w.data) v = 2.0 * gen.uniform() - 1.0;
  std::vector<double> xs(batch * cols);
  for (double& v : xs) v = 2.0 * gen.uniform() - 1.0;

  level_guard guard;
  ASSERT_TRUE(simd::set_level(simd::level::scalar));
  vector_matrix_engine ref_engine({}, 555);
  ref_engine.set_threads(1);
  const gemm_result ref = ref_engine.gemm_signed(w, xs);

  for (const simd::level l : supported_levels()) {
    ASSERT_TRUE(simd::set_level(l));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      vector_matrix_engine engine({}, 555);
      engine.set_threads(threads);
      const gemm_result r = engine.gemm_signed(w, xs);
      EXPECT_EQ(r.values, ref.values)
          << simd::level_name(l) << " threads=" << threads;
    }
  }

  // Batch decomposition: sample s of the batch equals a fresh engine's
  // GEMV on that sample alone (row seeds fork identically), at the
  // native level.
  simd::refresh();
  vector_matrix_engine single({}, 555);
  const gemv_result first =
      single.gemv_signed(w, std::span<const double>(xs.data(), cols));
  const gemm_result full = [&] {
    vector_matrix_engine engine({}, 555);
    return engine.gemm_signed(w, xs);
  }();
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(full.values[r], first.values[r]);
  }
}

}  // namespace
}  // namespace onfiber::phot
