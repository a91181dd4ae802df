// Tests for the P1 photonic dot-product unit (Fig. 2a).
#include "photonics/engine/dot_product_unit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "photonics/converter.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/rng.hpp"
#include "photonics/simd.hpp"

namespace onfiber::phot {
namespace {

std::vector<double> random_unit_vector(std::size_t n, rng& g) {
  std::vector<double> v(n);
  for (double& x : v) x = g.uniform();
  return v;
}

double exact_dot(const std::vector<double>& a, const std::vector<double>& b) {
  return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

TEST(DotProduct, SmallExactCase) {
  dot_product_unit u({}, 1);
  const std::vector<double> a{1.0, 0.0, 1.0, 0.0};
  const std::vector<double> b{1.0, 1.0, 0.0, 0.0};
  const dot_result r = u.dot_unit_range(a, b);
  EXPECT_NEAR(r.value, 1.0, 0.1);
}

TEST(DotProduct, AllOnes) {
  dot_product_unit u({}, 2);
  const std::vector<double> ones(16, 1.0);
  const dot_result r = u.dot_unit_range(ones, ones);
  EXPECT_NEAR(r.value, 16.0, 0.6);
}

TEST(DotProduct, AllZeros) {
  dot_product_unit u({}, 3);
  const std::vector<double> zeros(16, 0.0);
  const dot_result r = u.dot_unit_range(zeros, zeros);
  EXPECT_NEAR(r.value, 0.0, 0.3);
}

TEST(DotProduct, ThrowsOnMismatchedSizes) {
  dot_product_unit u({}, 4);
  const std::vector<double> a(4, 0.5), b(5, 0.5);
  EXPECT_THROW((void)u.dot_unit_range(a, b), std::invalid_argument);
}

TEST(DotProduct, ThrowsOnEmpty) {
  dot_product_unit u({}, 5);
  const std::vector<double> e;
  EXPECT_THROW((void)u.dot_unit_range(e, e), std::invalid_argument);
}

TEST(DotProduct, DeterministicPerSeed) {
  const std::vector<double> a{0.2, 0.8, 0.5, 0.9};
  const std::vector<double> b{0.7, 0.1, 0.6, 0.4};
  dot_product_unit u1({}, 42), u2({}, 42);
  EXPECT_DOUBLE_EQ(u1.dot_unit_range(a, b).value,
                   u2.dot_unit_range(a, b).value);
}

TEST(DotProduct, LatencyAndSymbols) {
  dot_product_config cfg;
  cfg.symbol_rate_hz = 10e9;
  cfg.fixed_latency_s = 5e-9;
  dot_product_unit u(cfg, 6);
  const std::vector<double> a(100, 0.5);
  const dot_result r = u.dot_unit_range(a, a);
  EXPECT_EQ(r.symbols, 100u);
  EXPECT_NEAR(r.latency_s, 100.0 / 10e9 + 5e-9, 1e-12);
}

TEST(DotProduct, SignedFourPass) {
  dot_product_unit u({}, 7);
  const std::vector<double> a{0.5, -0.5, 1.0, -1.0};
  const std::vector<double> b{-1.0, -1.0, 0.5, 0.5};
  const dot_result r = u.dot_signed(a, b);
  EXPECT_NEAR(r.value, exact_dot(a, b), 0.15);
  EXPECT_EQ(r.symbols, 16u);  // 4 passes x 4 elements
}

// On-fiber input: the sample's rails launched through the unit's own
// encode path and read by a one-row, batch-one on-fiber GEMM.
TEST(DotProduct, OpticalInputMatchesElectrical) {
  dot_product_unit u({}, 8);
  rng g(100);
  const auto a = random_unit_vector(32, g);
  const auto b = random_unit_vector(32, g);
  std::vector<double> received(4 * a.size());
  u.encode_rails_received(a, a.size(), received);
  const double ref_mw =
      u.config().laser.power_mw *
      db_to_ratio(-u.config().modulator.insertion_loss_db);
  matrix w(1, b.size());
  w.data = b;
  vector_matrix_engine engine({}, 8);
  const gemm_result r =
      engine.gemm_optical(rail_weights(w, u.config().dac), received, ref_mw);
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_NEAR(r.values[0], exact_dot(a, b), 0.06 * 32);
  EXPECT_EQ(r.symbols, 4 * 32u);
}

TEST(DotProduct, OpticalInputValidation) {
  vector_matrix_engine engine({}, 9);
  matrix w(1, 4);
  const rail_weights rails(w, converter_config{});
  const std::vector<double> received(4 * 4, 0.5);
  EXPECT_THROW((void)engine.gemm_optical(rails, received, 0.0),
               std::invalid_argument);
  const std::vector<double> short_received(4 * 4 - 1, 0.5);
  EXPECT_THROW((void)engine.gemm_optical(rails, short_received, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)engine.gemm_optical(rails, {}, 1.0),
               std::invalid_argument);
}

TEST(DotProduct, ChargesPhotonicMacEnergy) {
  energy_ledger ledger;
  dot_product_unit u({}, 10, &ledger);
  const std::vector<double> a(64, 0.5);
  (void)u.dot_unit_range(a, a);
  EXPECT_EQ(ledger.ops("photonic_mac"), 64u);
  EXPECT_GT(ledger.ops("dac"), 0u);
  EXPECT_EQ(ledger.ops("adc"), 1u);  // one readout per dot product
}

void expect_same_bits(const dot_result& x, const dot_result& y) {
  EXPECT_EQ(x.value, y.value);
  EXPECT_EQ(x.latency_s, y.latency_s);
  EXPECT_EQ(x.symbols, y.symbols);
}

// The fused kernel is the pass-by-pass loop: four dot_unit_range calls
// over the rail passes give the same bits and the same ledger.
TEST(DotProductUnit, FusedSignedKernelMatchesPassByPass) {
  rng g(6000);
  std::vector<double> a(20), b(20);
  for (double& v : a) v = 2.0 * g.uniform() - 1.0;
  for (double& v : b) v = 2.0 * g.uniform() - 1.0;
  std::vector<double> a4(80), b4(80);
  lay_out_rails(a, rail_operand::a, a4);
  lay_out_rails(b, rail_operand::b, b4);

  energy_ledger fused_ledger, loop_ledger;
  dot_product_unit fused({}, 21, &fused_ledger);
  dot_product_unit loop({}, 21, &loop_ledger);
  const dot_result f = fused.dot_signed(a, b);
  dot_result pass[4];
  for (std::size_t k = 0; k < 4; ++k) {
    pass[k] = loop.dot_unit_range(std::span(a4).subspan(20 * k, 20),
                                  std::span(b4).subspan(20 * k, 20));
  }
  EXPECT_EQ(f.value,
            pass[0].value + pass[1].value - pass[2].value - pass[3].value);
  EXPECT_EQ(f.symbols, 80u);
  for (const auto& [name, e] : loop_ledger.entries()) {
    EXPECT_EQ(fused_ledger.joules(name), e.joules) << name;
    EXPECT_EQ(fused_ledger.ops(name), e.ops) << name;
  }
}

// ------------------------------------------------ per-pass readout oracle

/// Test-local copy of the unit's kernels with the per-pass readout they
/// had before it was batched: each pass integrates on its own, takes one
/// scalar detector draw and one scalar ADC conversion, and charges the
/// ledger pass by pass. The devices are keyed exactly as
/// dot_product_unit keys them, so the unit must match it bit for bit,
/// ledger included.
class per_pass_reference {
 public:
  per_pass_reference(dot_product_config config, std::uint64_t seed,
                     energy_ledger* ledger)
      : config_([&] {
          config.laser.symbol_rate_hz = config.symbol_rate_hz;
          config.detector.noise.bandwidth_hz = config.symbol_rate_hz;
          return config;
        }()),
        laser_(config_.laser, rng{seed}, ledger),
        mod_a_(config_.modulator, 0.0, rng{seed ^ 0x1111}, ledger),
        mod_b_(config_.modulator, 0.0, rng{seed ^ 0x2222}, ledger),
        detector_noise_(counter_rng::key_of(rng{seed ^ 0x3333}(), 0x706474)),
        dac_a_(config_.dac, rng{seed ^ 0x4444}, ledger),
        dac_b_(config_.dac, rng{seed ^ 0x5555}, ledger),
        adc_(config_.adc, rng{seed ^ 0x6666}, ledger),
        ledger_(ledger) {}

  dot_result electrical(std::span<const double> a, std::span<const double> b,
                        std::size_t passes) {
    const std::size_t n = a.size();
    std::vector<double> da(n), db(n), ta(n), tb(n), p(n), product(n), noise;
    dac_a_.convert(a, da, noise, passes);
    dac_b_.convert(b, db, noise, passes);
    laser_.emit_powers(p, passes);
    mod_a_.encode_intensity(da, ta, passes);
    mod_b_.encode_intensity(db, tb, passes);
    for (std::size_t i = 0; i < n; ++i) product[i] = p[i] * ta[i] * tb[i];
    const double full_scale_mw =
        config_.laser.power_mw *
        db_to_ratio(-2.0 * config_.modulator.insertion_loss_db);
    return read_out(product, passes, full_scale_mw);
  }

  dot_result optical(std::span<const double> a_mw, std::span<const double> b,
                     double reference_power_mw, std::size_t passes) {
    const std::size_t n = b.size();
    std::vector<double> db(n), tb(n), product(n), noise;
    dac_b_.convert(b, db, noise, passes);
    mod_b_.encode_intensity(db, tb, passes);
    for (std::size_t i = 0; i < n; ++i) product[i] = a_mw[i] * tb[i];
    return read_out(product, passes,
                    reference_power_mw *
                        db_to_ratio(-config_.modulator.insertion_loss_db));
  }

 private:
  double integrate_mean(double mean_power_mw, std::size_t symbols) {
    const photodetector_config& d = config_.detector;
    const double signal_a =
        d.responsivity_a_w * mean_power_mw * 1e-3 + d.dark_current_a;
    receiver_noise_config narrowed = d.noise;
    narrowed.bandwidth_hz /= static_cast<double>(symbols);
    const double noise_a =
        narrowed.sample_current_noise_a(signal_a, detector_noise_);
    if (ledger_ != nullptr) {
      ledger_->charge("photodetector", costs_.photodetector_readout_j);
    }
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
    if (ledger_ != nullptr) {
      ledger_->charge("photonic_mac", costs_.photonic_mac_j * n, length);
    }
    return r;
  }

  dot_result read_out(std::span<const double> product, std::size_t passes,
                      double full_scale_mw) {
    const std::size_t length = product.size() / passes;
    dot_result pass[4];
    for (std::size_t k = 0; k < passes; ++k) {
      double sum = 0.0;
      simd::active().blocked_sums(product.data() + k * length, length, 1,
                                  &sum);
      const double mean = sum / static_cast<double>(length);
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
  energy_costs costs_{};
  laser laser_;
  mzm_modulator mod_a_;
  mzm_modulator mod_b_;
  counter_stream detector_noise_;
  dac dac_a_;
  dac dac_b_;
  adc adc_;
  energy_ledger* ledger_;
};

/// Operands of one kernel call: `passes` (1 or 4) passes of `dim`.
struct pass_operands {
  std::vector<double> a, b;
};

pass_operands draw_operands(std::size_t dim, std::size_t passes, rng& g) {
  pass_operands op;
  if (passes == 1) {
    op.a = random_unit_vector(dim, g);
    op.b = random_unit_vector(dim, g);
    return op;
  }
  std::vector<double> a(dim), b(dim);
  for (double& v : a) v = 2.0 * g.uniform() - 1.0;
  for (double& v : b) v = 2.0 * g.uniform() - 1.0;
  op.a.resize(4 * dim);
  op.b.resize(4 * dim);
  lay_out_rails(a, rail_operand::a, op.a);
  lay_out_rails(b, rail_operand::b, op.b);
  return op;
}

void expect_same_ledgers(const energy_ledger& got, const energy_ledger& want) {
  ASSERT_EQ(got.entries().size(), want.entries().size());
  for (const auto& [name, e] : want.entries()) {
    EXPECT_EQ(got.joules(name), e.joules) << name;
    EXPECT_EQ(got.ops(name), e.ops) << name;
  }
}

/// Several rounds of the kernel on one unit and one reference, so every
/// stream moves off its start.
void expect_unit_matches_reference(const dot_product_config& cfg) {
  for (const std::size_t passes : {std::size_t{1}, std::size_t{4}}) {
    for (const bool with_ledger : {false, true}) {
      energy_ledger unit_ledger, ref_ledger;
      dot_product_unit unit(cfg, 77, with_ledger ? &unit_ledger : nullptr);
      per_pass_reference ref(cfg, 77, with_ledger ? &ref_ledger : nullptr);
      rng g(78 + passes);
      for (int round = 0; round < 4; ++round) {
        const std::size_t dim = 9 + 7 * static_cast<std::size_t>(round);
        const pass_operands op = draw_operands(dim, passes, g);
        SCOPED_TRACE("passes=" + std::to_string(passes) +
                     " ledger=" + std::to_string(with_ledger) +
                     " round=" + std::to_string(round));
        expect_same_bits(unit.dot_passes(op.a, op.b, passes),
                         ref.electrical(op.a, op.b, passes));
      }
      expect_same_ledgers(unit_ledger, ref_ledger);
    }
  }
}

TEST(DotProductUnit, BatchedReadoutMatchesPerPassReference) {
  {
    SCOPED_TRACE("default config");
    expect_unit_matches_reference({});
  }
  {
    SCOPED_TRACE("shot, thermal and ENOB noise off");
    dot_product_config cfg;
    cfg.detector.noise.enable_shot = false;
    cfg.detector.noise.enable_thermal = false;
    cfg.dac.enob_penalty = 0.0;
    cfg.adc.enob_penalty = 0.0;
    expect_unit_matches_reference(cfg);
  }
  {
    SCOPED_TRACE("zero-power carrier");
    dot_product_config cfg;
    cfg.laser.power_mw = 0.0;
    expect_unit_matches_reference(cfg);
  }
  {
    SCOPED_TRACE("6-bit DAC with full scale 0.8");
    dot_product_config cfg;
    cfg.dac.bits = 6;
    cfg.dac.full_scale = 0.8;
    expect_unit_matches_reference(cfg);
  }
  {
    SCOPED_TRACE("modulator bias error");
    dot_product_config cfg;
    cfg.modulator.bias_error_sigma_rad = 0.05;
    expect_unit_matches_reference(cfg);
  }
}

// ------------------------------------------------------ GEMM oracle

/// Both GEMMs against per-row references keyed from the engine's
/// per-call row fork: gemm_optical against one per_pass_reference per
/// row, gemm_signed against one fresh dot_product_unit per row running
/// dot_passes sample by sample. Every output, the latency and symbol
/// folds, and (ledger on) the references' ledgers merged in row order
/// are compared, over row counts, batches and thread counts. The
/// engine's weights and samples are snapped on its own DAC's grid; the
/// references convert the raw rails, so the snap must land on the grid
/// the DAC would quantize to.
void expect_gemm_matches_reference(const dot_product_config& cfg,
                                   bool zero_power) {
  const double unit_mw = dot_product_unit(cfg, 0).full_scale_power_mw();
  const double ref_mw = unit_mw > 0.0 ? unit_mw : 1.0;
  for (const std::size_t rows : {1, 4, 12}) {
    const std::size_t cols = 5 + rows;
    rng g(90 + rows);
    matrix w(rows, cols);
    for (double& v : w.data) v = 2.0 * g.uniform() - 1.0;
    const rail_weights rails(w, cfg.dac);
    for (const std::size_t batch : {1, 8, 9, 12}) {
      std::vector<double> received(batch * 4 * cols);
      for (double& p : received) p = zero_power ? 0.0 : g.uniform() * ref_mw;
      std::vector<double> xs(batch * cols);
      for (double& v : xs) v = 2.0 * g.uniform() - 1.0;
      for (const bool optical : {true, false}) {
        for (const std::size_t threads : {1, 3}) {
          for (const bool with_ledger : {false, true}) {
            SCOPED_TRACE(std::string(optical ? "optical" : "signed") +
                         " rows=" + std::to_string(rows) +
                         " batch=" + std::to_string(batch) +
                         " threads=" + std::to_string(threads) +
                         " ledger=" + std::to_string(with_ledger));
            energy_ledger engine_ledger, want_ledger, row_ledger;
            energy_ledger* const ref_ledger =
                with_ledger ? &row_ledger : nullptr;
            vector_matrix_engine engine(
                cfg, 92, with_ledger ? &engine_ledger : nullptr);
            engine.set_threads(threads);
            const gemm_result got = optical
                                        ? engine.gemm_optical(rails, received,
                                                              ref_mw)
                                        : engine.gemm_signed(rails, xs);
            ASSERT_EQ(got.batch, batch);
            ASSERT_EQ(got.values.size(), rows * batch);

            rng row_seeds(92 ^ 0x726f7773ULL);  // the engine's row fork
            std::vector<double> rail_w(4 * cols), rail_x(4 * cols);
            std::vector<dot_result> want(rows * batch);
            for (std::size_t r = 0; r < rows; ++r) {
              const std::uint64_t seed = row_seeds();
              row_ledger.reset();
              per_pass_reference ref(cfg, seed, ref_ledger);
              dot_product_unit unit(cfg, seed, ref_ledger);
              lay_out_rails(w.row(r),
                            optical ? rail_operand::b : rail_operand::a,
                            rail_w);
              for (std::size_t s = 0; s < batch; ++s) {
                if (optical) {
                  const auto x = std::span<const double>(received).subspan(
                      s * 4 * cols, 4 * cols);
                  want[r * batch + s] = ref.optical(x, rail_w, ref_mw, 4);
                } else {
                  lay_out_rails(
                      std::span<const double>(xs).subspan(s * cols, cols),
                      rail_operand::b, rail_x);
                  want[r * batch + s] = unit.dot_passes(rail_w, rail_x, 4);
                }
              }
              want_ledger.merge(row_ledger);
            }
            double latency_s = 0.0;
            std::uint64_t symbols = 0;
            for (std::size_t r = 0; r < rows; ++r) {
              for (std::size_t s = 0; s < batch; ++s) {
                const dot_result& d = want[r * batch + s];
                EXPECT_EQ(got.values[s * rows + r], d.value)
                    << "row " << r << " sample " << s;
                latency_s += d.latency_s;
                symbols += d.symbols;
              }
            }
            EXPECT_EQ(got.latency_s, latency_s);
            EXPECT_EQ(got.symbols, symbols);
            expect_same_ledgers(engine_ledger, want_ledger);
          }
        }
      }
    }
  }

  // Weights snapped for another DAC are refused by both GEMMs.
  if (cfg.dac.bits != converter_config{}.bits) {
    vector_matrix_engine engine(cfg, 92);
    matrix w(2, 3);
    const rail_weights other(w, {});
    const std::vector<double> received(4 * 3, 0.5);
    const std::vector<double> xs(3, 0.5);
    EXPECT_THROW((void)engine.gemm_optical(other, received, ref_mw),
                 std::invalid_argument);
    EXPECT_THROW((void)engine.gemm_signed(other, xs), std::invalid_argument);
  }
}

TEST(DotProductUnit, GemmMatchesPerPassReference) {
  {
    SCOPED_TRACE("default config");
    expect_gemm_matches_reference({}, false);
  }
  {
    SCOPED_TRACE("shot, thermal and ENOB noise off");
    dot_product_config cfg;
    cfg.detector.noise.enable_shot = false;
    cfg.detector.noise.enable_thermal = false;
    cfg.dac.enob_penalty = 0.0;
    cfg.adc.enob_penalty = 0.0;
    expect_gemm_matches_reference(cfg, false);
  }
  {
    SCOPED_TRACE("zero-power carrier");
    dot_product_config cfg;
    cfg.laser.power_mw = 0.0;
    expect_gemm_matches_reference(cfg, true);
  }
  {
    SCOPED_TRACE("6-bit DAC with full scale 0.8");
    dot_product_config cfg;
    cfg.dac.bits = 6;
    cfg.dac.full_scale = 0.8;
    expect_gemm_matches_reference(cfg, false);
  }
  {
    SCOPED_TRACE("modulator bias error");
    dot_product_config cfg;
    cfg.modulator.bias_error_sigma_rad = 0.05;
    expect_gemm_matches_reference(cfg, false);
  }
}

// A refused call on either GEMM entry point forks no row seed: the next
// call still draws the noise a fresh engine's first call draws.
TEST(DotProductUnit, GemmRefusalForksNoSeed) {
  matrix w(3, 4);
  rng g(93);
  for (double& v : w.data) v = 2.0 * g.uniform() - 1.0;
  const rail_weights rails(w, converter_config{});
  std::vector<double> xs(2 * 4), received(2 * 4 * 4);
  for (double& v : xs) v = 2.0 * g.uniform() - 1.0;
  for (double& p : received) p = g.uniform();

  vector_matrix_engine engine({}, 94), fresh({}, 94);
  EXPECT_THROW((void)engine.gemm_signed(rails, std::span(xs).first(7)),
               std::invalid_argument);
  EXPECT_THROW((void)engine.gemm_optical(rails, received, 0.0),
               std::invalid_argument);
  EXPECT_EQ(engine.gemm_signed(rails, xs).values,
            fresh.gemm_signed(rails, xs).values);
}

// Property: relative error stays within the quantization + noise budget
// across dimensions and converter resolutions.
class DotAccuracy
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(DotAccuracy, ErrorBoundedByConverterBudget) {
  const auto [dim, bits] = GetParam();
  dot_product_config cfg;
  cfg.dac.bits = bits;
  cfg.adc.bits = bits;
  dot_product_unit u(cfg, 1000 + static_cast<std::uint64_t>(dim) * 37 +
                              static_cast<std::uint64_t>(bits));
  rng g(2000 + static_cast<std::uint64_t>(dim));
  double worst = 0.0;
  constexpr int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const auto a = random_unit_vector(dim, g);
    const auto b = random_unit_vector(dim, g);
    const dot_result r = u.dot_unit_range(a, b);
    worst = std::max(worst, std::abs(r.value - exact_dot(a, b)));
  }
  // Error budget: element-wise quantization (2 converters) accumulated
  // over n symbols plus the readout ADC quantizing a value of scale n.
  const double lsb = 1.0 / (std::pow(2.0, bits) - 1.0);
  const double n = static_cast<double>(dim);
  const double budget = 3.0 * (n * lsb * 0.75 + n * lsb) / 2.0 + 0.05 * n * lsb + 0.2;
  EXPECT_LT(worst, budget) << "dim=" << dim << " bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndBits, DotAccuracy,
    ::testing::Combine(::testing::Values<std::size_t>(4, 16, 64, 256),
                       ::testing::Values(6, 8, 10)));

// Property: accuracy improves with optical power (shot-noise limit).
TEST(DotProduct, AccuracyImprovesWithPower) {
  rng g(3000);
  const auto a = random_unit_vector(64, g);
  const auto b = random_unit_vector(64, g);
  const double exact = exact_dot(a, b);

  const auto rms_error = [&](double power_mw_value) {
    dot_product_config cfg;
    cfg.laser.power_mw = power_mw_value;
    cfg.adc.bits = 14;  // converter fine enough to expose analog noise
    cfg.dac.bits = 14;
    cfg.adc.enob_penalty = 0.0;
    cfg.dac.enob_penalty = 0.0;
    cfg.laser.enable_rin = false;
    dot_product_unit u(cfg, 4000);
    double sq = 0.0;
    constexpr int trials = 40;
    for (int t = 0; t < trials; ++t) {
      const dot_result r = u.dot_unit_range(a, b);
      sq += (r.value - exact) * (r.value - exact);
    }
    return std::sqrt(sq / trials);
  };

  const double weak = rms_error(0.01);   // 10 uW: noise dominated
  const double strong = rms_error(10.0); // 10 mW
  EXPECT_LT(strong, weak);
}

}  // namespace
}  // namespace onfiber::phot
