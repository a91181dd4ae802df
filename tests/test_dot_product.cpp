// Tests for P1, the photonic dot product (Fig. 2a): the device models of
// dot_product_unit and the one analog driver, vector_matrix_engine.
#include "photonics/engine/dot_product_unit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "per_pass_reference.hpp"
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
  vector_matrix_engine u({}, 1);
  const std::vector<double> a{1.0, 0.0, 1.0, 0.0};
  const std::vector<double> b{1.0, 1.0, 0.0, 0.0};
  const dot_result r = u.dot_unit_range(a, b);
  EXPECT_NEAR(r.value, 1.0, 0.1);
}

TEST(DotProduct, AllOnes) {
  vector_matrix_engine u({}, 2);
  const std::vector<double> ones(16, 1.0);
  const dot_result r = u.dot_unit_range(ones, ones);
  EXPECT_NEAR(r.value, 16.0, 0.6);
}

TEST(DotProduct, AllZeros) {
  vector_matrix_engine u({}, 3);
  const std::vector<double> zeros(16, 0.0);
  const dot_result r = u.dot_unit_range(zeros, zeros);
  EXPECT_NEAR(r.value, 0.0, 0.3);
}

TEST(DotProduct, ThrowsOnMismatchedSizes) {
  vector_matrix_engine u({}, 4);
  const std::vector<double> a(4, 0.5), b(5, 0.5);
  EXPECT_THROW((void)u.dot_unit_range(a, b), std::invalid_argument);
}

TEST(DotProduct, ThrowsOnEmpty) {
  vector_matrix_engine u({}, 5);
  const std::vector<double> e;
  EXPECT_THROW((void)u.dot_unit_range(e, e), std::invalid_argument);
}

TEST(DotProduct, DeterministicPerSeed) {
  const std::vector<double> a{0.2, 0.8, 0.5, 0.9};
  const std::vector<double> b{0.7, 0.1, 0.6, 0.4};
  vector_matrix_engine u1({}, 42), u2({}, 42);
  EXPECT_DOUBLE_EQ(u1.dot_unit_range(a, b).value,
                   u2.dot_unit_range(a, b).value);
}

TEST(DotProduct, LatencyAndSymbols) {
  dot_product_config cfg;
  cfg.symbol_rate_hz = 10e9;
  cfg.fixed_latency_s = 5e-9;
  vector_matrix_engine u(cfg, 6);
  const std::vector<double> a(100, 0.5);
  const dot_result r = u.dot_unit_range(a, a);
  EXPECT_EQ(r.symbols, 100u);
  EXPECT_NEAR(r.latency_s, 100.0 / 10e9 + 5e-9, 1e-12);
}

TEST(DotProduct, SignedFourPass) {
  vector_matrix_engine u({}, 7);
  matrix a(1, 4);
  a.data = {0.5, -0.5, 1.0, -1.0};
  const std::vector<double> b{-1.0, -1.0, 0.5, 0.5};
  const gemv_result r = u.gemv_signed(a, b);
  EXPECT_NEAR(r.values[0], exact_dot(a.data, b), 0.15);
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
      engine.gemm_optical(rail_weights(w, u.config()), received, ref_mw);
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_NEAR(r.values[0], exact_dot(a, b), 0.06 * 32);
  EXPECT_EQ(r.symbols, 4 * 32u);
}

TEST(DotProduct, OpticalInputValidation) {
  vector_matrix_engine engine({}, 9);
  matrix w(1, 4);
  const rail_weights rails(w, dot_product_config{});
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
  vector_matrix_engine u({}, 10, &ledger);
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

// ------------------------------------------------ per-pass readout oracle

/// Operands of one dot: `passes` (1 or 4) passes of `dim`, and for a
/// signed dot the vectors the rails were laid out from.
struct pass_operands {
  std::vector<double> a, b;
  std::vector<double> signed_a, signed_b;
};

pass_operands draw_operands(std::size_t dim, std::size_t passes, rng& g) {
  pass_operands op;
  if (passes == 1) {
    op.a = random_unit_vector(dim, g);
    op.b = random_unit_vector(dim, g);
    return op;
  }
  op.signed_a.resize(dim);
  op.signed_b.resize(dim);
  for (double& v : op.signed_a) v = 2.0 * g.uniform() - 1.0;
  for (double& v : op.signed_b) v = 2.0 * g.uniform() - 1.0;
  op.a.resize(4 * dim);
  op.b.resize(4 * dim);
  lay_out_rails(op.signed_a, rail_operand::a, op.a);
  lay_out_rails(op.signed_b, rail_operand::b, op.b);
  return op;
}

/// The device configs the oracle tests run under.
std::vector<std::pair<std::string, dot_product_config>> oracle_configs() {
  std::vector<std::pair<std::string, dot_product_config>> out;
  out.emplace_back("default config", dot_product_config{});
  dot_product_config quiet;
  quiet.detector.noise.enable_shot = false;
  quiet.detector.noise.enable_thermal = false;
  quiet.dac.enob_penalty = 0.0;
  quiet.adc.enob_penalty = 0.0;
  out.emplace_back("shot, thermal and ENOB noise off", quiet);
  dot_product_config dark;
  dark.laser.power_mw = 0.0;
  out.emplace_back("zero-power carrier", dark);
  dot_product_config coarse;
  coarse.dac.bits = 6;
  coarse.dac.full_scale = 0.8;
  out.emplace_back("6-bit DAC with full scale 0.8", coarse);
  dot_product_config biased;
  biased.modulator.bias_error_sigma_rad = 0.05;
  out.emplace_back("modulator bias error", biased);
  return out;
}

/// Fold `part`'s entries into `into`, category by category.
void merge_ledger(energy_ledger& into, const energy_ledger& part) {
  for (const auto& [name, e] : part.entries()) {
    into.charge(name, e.joules, e.ops);
  }
}

void expect_same_ledgers(const energy_ledger& got, const energy_ledger& want) {
  ASSERT_EQ(got.entries().size(), want.entries().size());
  for (const auto& [name, e] : want.entries()) {
    EXPECT_EQ(got.joules(name), e.joules) << name;
    EXPECT_EQ(got.ops(name), e.ops) << name;
  }
}

/// Several single dots in a row on one engine, unsigned (dot_unit_range)
/// and signed (gemv_signed on a 1 x dim matrix), each against a fresh
/// reference keyed from the engine's next row seed, so the row fork
/// moves on between calls. The engine's ledger must equal the
/// references' ledgers merged call by call.
void expect_single_dots_match_reference(const dot_product_config& cfg) {
  for (const std::size_t passes : {std::size_t{1}, std::size_t{4}}) {
    for (const bool with_ledger : {false, true}) {
      energy_ledger engine_ledger, want_ledger, call_ledger;
      vector_matrix_engine engine(cfg, 77,
                                  with_ledger ? &engine_ledger : nullptr);
      rng row_seeds(77 ^ 0x726f7773ULL);  // the engine's row fork
      rng g(78 + passes);
      for (int round = 0; round < 4; ++round) {
        const std::size_t dim = 9 + 7 * static_cast<std::size_t>(round);
        const pass_operands op = draw_operands(dim, passes, g);
        SCOPED_TRACE("passes=" + std::to_string(passes) +
                     " ledger=" + std::to_string(with_ledger) +
                     " round=" + std::to_string(round));
        call_ledger = {};
        per_pass_reference ref(cfg, row_seeds(),
                               with_ledger ? &call_ledger : nullptr,
                               readout_noise::per_readout);
        const dot_result want = ref.electrical(op.a, op.b, passes);
        if (passes == 1) {
          expect_same_bits(engine.dot_unit_range(op.a, op.b), want);
        } else {
          matrix w(1, dim);
          w.data = op.signed_a;
          const gemv_result got = engine.gemv_signed(w, op.signed_b);
          EXPECT_EQ(got.values[0], want.value);
          EXPECT_EQ(got.latency_s, want.latency_s);
          EXPECT_EQ(got.symbols, want.symbols);
        }
        merge_ledger(want_ledger, call_ledger);
      }
      expect_same_ledgers(engine_ledger, want_ledger);
    }
  }
}

TEST(DotProductUnit, BatchedReadoutMatchesPerPassReference) {
  for (const auto& [name, cfg] : oracle_configs()) {
    SCOPED_TRACE(name);
    expect_single_dots_match_reference(cfg);
  }
}

/// The unsigned row: dot_unit_range(a, b, repeats) against one
/// per_pass_reference keyed from the engine's first row seed, running
/// electrical(a, b, 1) once per repeat. The value is the repeats' mean,
/// latency and symbols their sums; the ledgers must be equal.
void expect_unsigned_row_matches_reference(const dot_product_config& cfg) {
  rng g(95);
  for (const std::size_t dim : {1, 7, 33}) {
    const std::vector<double> a = random_unit_vector(dim, g);
    const std::vector<double> b = random_unit_vector(dim, g);
    for (const int repeats : {1, 3}) {
      for (const std::size_t threads : {1, 3}) {
        for (const bool with_ledger : {false, true}) {
          SCOPED_TRACE("unsigned dim=" + std::to_string(dim) +
                       " repeats=" + std::to_string(repeats) +
                       " threads=" + std::to_string(threads) +
                       " ledger=" + std::to_string(with_ledger));
          energy_ledger engine_ledger, want_ledger;
          vector_matrix_engine engine(
              cfg, 96, with_ledger ? &engine_ledger : nullptr);
          engine.set_threads(threads);
          const dot_result got = engine.dot_unit_range(a, b, repeats);

          rng row_seeds(96 ^ 0x726f7773ULL);  // the engine's row fork
          per_pass_reference ref(cfg, row_seeds(),
                                 with_ledger ? &want_ledger : nullptr,
                                 readout_noise::per_readout);
          dot_result want;
          for (int k = 0; k < repeats; ++k) {
            const dot_result d = ref.electrical(a, b, 1);
            want.value += d.value;
            want.latency_s += d.latency_s;
            want.symbols += d.symbols;
          }
          want.value /= static_cast<double>(repeats);
          expect_same_bits(got, want);
          expect_same_ledgers(engine_ledger, want_ledger);
        }
      }
    }
  }
}

/// Both GEMMs against per-row references keyed from the engine's
/// per-call row fork, one per_pass_reference per row running the row's
/// samples one after another: optical for gemm_optical, electrical for
/// gemm_signed. Every output, the latency and symbol folds, and (ledger
/// on) the references' ledgers merged in row order are compared, over
/// row counts, batches and thread counts; then the unsigned row. The
/// engine's weights and samples are snapped on its own DAC's grid; the
/// references convert the raw rails, so the snap must land on the grid
/// the DAC would quantize to.
void expect_gemm_matches_reference(const dot_product_config& cfg) {
  // A dead carrier receives nothing on fiber either.
  const bool zero_power = cfg.laser.power_mw == 0.0;
  const double unit_mw = dot_product_unit(cfg, 0).full_scale_power_mw();
  const double ref_mw = unit_mw > 0.0 ? unit_mw : 1.0;
  for (const std::size_t rows : {1, 4, 12}) {
    const std::size_t cols = 5 + rows;
    rng g(90 + rows);
    matrix w(rows, cols);
    for (double& v : w.data) v = 2.0 * g.uniform() - 1.0;
    const rail_weights rails(w, cfg);
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
              row_ledger = {};
              per_pass_reference ref(cfg, seed, ref_ledger,
                                     readout_noise::per_readout);
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
                  want[r * batch + s] = ref.electrical(rail_w, rail_x, 4);
                }
              }
              merge_ledger(want_ledger, row_ledger);
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
    const rail_weights other(w, dot_product_config{});
    const std::vector<double> received(4 * 3, 0.5);
    const std::vector<double> xs(3, 0.5);
    EXPECT_THROW((void)engine.gemm_optical(other, received, ref_mw),
                 std::invalid_argument);
    EXPECT_THROW((void)engine.gemm_signed(other, xs), std::invalid_argument);
  }

  expect_unsigned_row_matches_reference(cfg);
}

TEST(DotProductUnit, GemmMatchesPerPassReference) {
  for (const auto& [name, cfg] : oracle_configs()) {
    SCOPED_TRACE(name);
    expect_gemm_matches_reference(cfg);
  }
}

/// Restores the env-resolved SIMD level when a test that forces levels
/// exits (including via an assertion failure).
struct simd_level_guard {
  ~simd_level_guard() { simd::refresh(); }
};

/// The unit's launch on powers against the field launch of the same
/// devices, on one seed: successive launches at the Fig. 1 layer widths,
/// batch 1 and 3, each received power equal to rounding, the ledgers bit
/// for bit, and a following scalar dot on the launch's streams equal to
/// the field unit's. (The unit's phase walk did not turn, which moves
/// that dot's |E|^2 by rounding only; its ADC grid absorbs that here.)
void expect_launch_matches_field_launch(const dot_product_config& cfg) {
  for (const bool with_ledger : {false, true}) {
    energy_ledger unit_ledger, field_ledger;
    dot_product_unit unit(cfg, 61, with_ledger ? &unit_ledger : nullptr);
    field_launch_reference field(cfg, 61,
                                 with_ledger ? &field_ledger : nullptr);
    rng g(62);
    for (const std::size_t cols : {16, 12}) {
      for (const std::size_t batch : {1, 3}) {
        SCOPED_TRACE("cols " + std::to_string(cols) + " batch " +
                     std::to_string(batch) + " ledger " +
                     std::to_string(with_ledger));
        std::vector<double> xs(batch * cols);
        for (double& v : xs) v = 2.0 * g.uniform() - 1.0;
        std::vector<double> got(4 * xs.size()), want(4 * xs.size());
        unit.encode_rails_received(xs, cols, got);
        field.encode_rails_received(xs, cols, want);
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_LE(std::abs(got[i] - want[i]), 1e-14 * want[i])
              << "symbol " << i << ": " << got[i] << " vs " << want[i];
        }
      }
    }
    const std::vector<double> a = random_unit_vector(24, g);
    const std::vector<double> b = random_unit_vector(24, g);
    expect_same_bits(unit.dot_unit_range_scalar(a, b),
                     field.dot_unit_range_scalar(a, b));
    expect_same_ledgers(unit_ledger, field_ledger);
  }
}

TEST(DotProductUnit, IntensityLaunchMatchesFieldLaunch) {
  std::vector<std::pair<std::string, dot_product_config>> configs;
  configs.emplace_back("default config", dot_product_config{});
  dot_product_config no_rin;
  no_rin.laser.enable_rin = false;
  configs.emplace_back("RIN off", no_rin);
  dot_product_config no_phase;
  no_phase.laser.enable_phase_noise = false;
  configs.emplace_back("phase noise off", no_phase);
  dot_product_config exact_converters;
  exact_converters.dac.enob_penalty = 0.0;
  exact_converters.adc.enob_penalty = 0.0;
  configs.emplace_back("ENOB penalty 0", exact_converters);
  dot_product_config biased;
  biased.modulator.bias_error_sigma_rad = 0.05;
  configs.emplace_back("modulator bias error", biased);

  const simd_level_guard guard;
  for (const simd::level l : {simd::level::scalar, simd::level::sse4,
                              simd::level::avx2, simd::level::avx512}) {
    if (!simd::set_level(l)) continue;
    for (const auto& [name, cfg] : configs) {
      SCOPED_TRACE(std::string(simd::level_name(l)) + ", " + name);
      expect_launch_matches_field_launch(cfg);
    }
  }
}

// ------------------------------------------ per-symbol statistical oracle
//
// The engine draws each readout's sum once, from the sum's exact moments;
// the per-symbol oracle draws every symbol's DAC, RIN and transfer and
// sums them. Over >= 1e5 readouts per case, their values must agree in
// mean and variance within four standard errors, and in distribution
// (two-sample Kolmogorov-Smirnov) at the Fig. 1 MLP's layer widths.

/// A config whose detector and ADC resolve the analog sum: no shot or
/// thermal noise, a 20-bit ADC without ENOB noise. Otherwise the ADC's
/// 8-bit grid and noise would bury the DAC noise the moments carry.
dot_product_config resolving_readout(dot_product_config c) {
  c.detector.noise.enable_shot = false;
  c.detector.noise.enable_thermal = false;
  c.adc.bits = 20;
  c.adc.enob_penalty = 0.0;
  return c;
}

/// One row's operands: its `cols` raw weights (unsigned codes when
/// passes == 1, signed otherwise), and one sample: raw values (electrical)
/// or 4 * cols received rail powers (optical).
struct row_case {
  bool optical = false;
  std::size_t passes = 4;
  std::vector<double> w, x;
};

/// `values` values of one row on the same sample, from the engine (batches
/// of copies of the sample, one row seed per call) and from the
/// per-symbol oracle keyed from the same row seeds.
std::pair<std::vector<double>, std::vector<double>> sample_row(
    const dot_product_config& cfg, const row_case& c, std::size_t values,
    std::uint64_t seed) {
  const std::size_t cols = c.w.size();
  const double ref_mw = dot_product_unit(cfg, 0).full_scale_power_mw();
  vector_matrix_engine engine(cfg, seed);
  rng row_seeds(seed ^ 0x726f7773ULL);  // the engine's row fork
  std::vector<double> got, want;
  if (c.passes == 1) {
    for (std::size_t v = 0; v < values; ++v) {
      got.push_back(engine.dot_unit_range(c.w, c.x).value);
      per_pass_reference ref(cfg, row_seeds(), nullptr);
      want.push_back(ref.electrical(c.w, c.x, 1).value);
    }
    return {got, want};
  }
  matrix w(1, cols);
  w.data = c.w;
  const rail_weights rails(w, cfg);
  std::vector<double> rail_w(4 * cols), rail_x(4 * cols);
  lay_out_rails(c.w, c.optical ? rail_operand::b : rail_operand::a, rail_w);
  if (!c.optical) lay_out_rails(c.x, rail_operand::b, rail_x);
  constexpr std::size_t kBatch = 5000;
  std::vector<double> xs;
  for (std::size_t s = 0; s < kBatch; ++s) {
    xs.insert(xs.end(), c.x.begin(), c.x.end());
  }
  while (got.size() < values) {
    const gemm_result g = c.optical ? engine.gemm_optical(rails, xs, ref_mw)
                                    : engine.gemm_signed(rails, xs);
    got.insert(got.end(), g.values.begin(), g.values.end());
    per_pass_reference ref(cfg, row_seeds(), nullptr);
    for (std::size_t s = 0; s < kBatch; ++s) {
      want.push_back(c.optical ? ref.optical(c.x, rail_w, ref_mw, 4).value
                               : ref.electrical(rail_w, rail_x, 4).value);
    }
  }
  return {got, want};
}

/// Sample mean and variance, and the squared standard error of each.
struct sample_moments {
  double mean = 0.0, var = 0.0, mean_se2 = 0.0, var_se2 = 0.0;
};

sample_moments moments_of(const std::vector<double>& x) {
  const double n = static_cast<double>(x.size());
  sample_moments m;
  for (const double v : x) m.mean += v;
  m.mean /= n;
  double m2 = 0.0, m4 = 0.0;
  for (const double v : x) {
    const double d2 = (v - m.mean) * (v - m.mean);
    m2 += d2;
    m4 += d2 * d2;
  }
  m2 /= n;
  m4 /= n;
  m.var = m2 * n / (n - 1.0);
  m.mean_se2 = m.var / n;
  m.var_se2 = (m4 - m2 * m2) / n;
  return m;
}

/// Means and variances agree within four standard errors of their
/// difference (and to rounding when both are deterministic).
void expect_same_moments(const std::vector<double>& got,
                         const std::vector<double>& want) {
  const sample_moments g = moments_of(got);
  const sample_moments w = moments_of(want);
  EXPECT_NEAR(g.mean, w.mean,
              4.0 * std::sqrt(g.mean_se2 + w.mean_se2) +
                  1e-12 * std::abs(w.mean));
  EXPECT_NEAR(g.var, w.var,
              4.0 * std::sqrt(g.var_se2 + w.var_se2) + 1e-24);
}

/// Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
/// empirical CDFs, evaluated after every run of tied values.
double ks_statistic(std::vector<double> x, std::vector<double> y) {
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  const double nx = static_cast<double>(x.size());
  const double ny = static_cast<double>(y.size());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < x.size() && j < y.size()) {
    const double v = std::min(x[i], y[j]);
    while (i < x.size() && x[i] == v) ++i;
    while (j < y.size() && y[j] == v) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / nx -
                             static_cast<double>(j) / ny));
  }
  return d;
}

/// The operands of the statistical cases, `cols` wide.
row_case make_case(bool optical, std::size_t passes, std::size_t cols,
                   double ref_mw, rng& g) {
  row_case c;
  c.optical = optical;
  c.passes = passes;
  c.w.resize(cols);
  for (double& v : c.w) v = passes == 1 ? g.uniform() : 2.0 * g.uniform() - 1.0;
  if (optical) {
    c.x.resize(4 * cols);
    for (double& p : c.x) p = (0.2 + 0.6 * g.uniform()) * ref_mw;
  } else {
    c.x.resize(cols);
    for (double& v : c.x) v = passes == 1 ? g.uniform() : 2.0 * g.uniform() - 1.0;
  }
  return c;
}

/// The three P1 shapes: electrical unsigned (1 pass), electrical signed
/// and on-fiber (4 passes).
constexpr std::pair<bool, std::size_t> kModes[] = {
    {false, 1}, {false, 4}, {true, 4}};

std::string mode_name(bool optical, std::size_t passes) {
  return std::string(optical ? "on-fiber" : "electrical") + " passes=" +
         std::to_string(passes);
}

TEST(DotProductUnit, ReadoutMomentsMatchPerSymbolOracle) {
  constexpr std::size_t kCols = 16;
  constexpr std::size_t kReadouts = 100000;
  std::vector<std::pair<std::string, dot_product_config>> configs;
  configs.emplace_back("default", dot_product_config{});
  dot_product_config no_rin;
  no_rin.laser.enable_rin = false;
  configs.emplace_back("RIN off", no_rin);
  dot_product_config exact_dac;
  exact_dac.dac.enob_penalty = 0.0;
  configs.emplace_back("ENOB penalty 0", exact_dac);
  dot_product_config biased;
  biased.modulator.bias_error_sigma_rad = 0.05;
  configs.emplace_back("bias error 0.05 rad", biased);
  // Codes on the clips: weights at 0 (the transfer's floor) and at full
  // scale (signed rails of +/-1: half the passes at 1, half at 0; the
  // unsigned row all at 1 against samples at 0.5, below the ADC's clip).
  enum class codes { random, zero, full_scale };
  std::uint64_t seed = 300;
  for (const auto& [name, front] : configs) {
    for (const codes k : {codes::random, codes::zero, codes::full_scale}) {
      if (k != codes::random && name != "default") continue;
      const dot_product_config cfg = resolving_readout(front);
      const double ref_mw = dot_product_unit(cfg, 0).full_scale_power_mw();
      rng g(seed);
      for (const auto& [optical, passes] : kModes) {
        row_case c = make_case(optical, passes, kCols, ref_mw, g);
        for (double& v : c.w) {
          if (k == codes::zero) v = 0.0;
          if (k == codes::full_scale) v = passes == 1 ? 1.0 : (v < 0 ? -1.0 : 1.0);
        }
        if (k == codes::full_scale && !optical) {
          for (double& v : c.x) v = v < 0.0 ? -0.5 : 0.5;
        }
        SCOPED_TRACE(name + (k == codes::zero         ? ", codes at 0"
                             : k == codes::full_scale ? ", codes at full scale"
                                                      : "") +
                     ", " + mode_name(optical, passes));
        const auto [got, want] =
            sample_row(cfg, c, kReadouts / passes, ++seed);
        expect_same_moments(got, want);
      }
    }
  }
}

TEST(DotProductUnit, ReadoutDistributionMatchesPerSymbolOracle) {
  // Kolmogorov-Smirnov at alpha = 0.001 over 1e5 readouts per side, at
  // the Fig. 1 MLP's layer widths, with the default readout and with a
  // resolving one: the per-readout normal differs from the per-symbol
  // sum only by the CLT over 12-16 terms.
  constexpr double kAlpha = 0.001;
  constexpr std::size_t kReadouts = 100000;
  const double c_alpha = std::sqrt(-0.5 * std::log(kAlpha / 2.0));
  std::uint64_t seed = 400;
  for (const std::size_t cols : {16, 12}) {
    for (const bool resolving : {false, true}) {
      const dot_product_config cfg =
          resolving ? resolving_readout({}) : dot_product_config{};
      const double ref_mw = dot_product_unit(cfg, 0).full_scale_power_mw();
      rng g(seed);
      for (const auto& [optical, passes] : kModes) {
        const row_case c = make_case(optical, passes, cols, ref_mw, g);
        SCOPED_TRACE("cols=" + std::to_string(cols) +
                     (resolving ? ", resolving readout" : ", default") +
                     ", " + mode_name(optical, passes));
        const auto [got, want] =
            sample_row(cfg, c, kReadouts / passes, ++seed);
        const double n = static_cast<double>(got.size());
        const double m = static_cast<double>(want.size());
        EXPECT_LT(ks_statistic(got, want),
                  c_alpha * std::sqrt((n + m) / (n * m)));
      }
    }
  }
}

// A refused call on any engine entry point forks no row seed: the next
// call still draws the noise a fresh engine's first call draws.
TEST(DotProductUnit, GemmRefusalForksNoSeed) {
  matrix w(3, 4);
  rng g(93);
  for (double& v : w.data) v = 2.0 * g.uniform() - 1.0;
  const rail_weights rails(w, dot_product_config{});
  std::vector<double> xs(2 * 4), received(2 * 4 * 4);
  for (double& v : xs) v = 2.0 * g.uniform() - 1.0;
  for (double& p : received) p = g.uniform();

  vector_matrix_engine engine({}, 94), fresh({}, 94);
  EXPECT_THROW((void)engine.gemm_signed(rails, std::span(xs).first(7)),
               std::invalid_argument);
  EXPECT_THROW((void)engine.gemm_optical(rails, received, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)engine.dot_unit_range(std::span(xs).first(3),
                                           std::span(xs).first(4)),
               std::invalid_argument);
  EXPECT_THROW((void)engine.dot_unit_range(xs, xs, 0), std::invalid_argument);
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
  vector_matrix_engine u(cfg, 1000 + static_cast<std::uint64_t>(dim) * 37 +
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
    vector_matrix_engine u(cfg, 4000);
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
