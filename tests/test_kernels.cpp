// test_kernels.cpp — batched sample-plane kernels and the deterministic
// threading model.
//
// Two contracts are pinned here:
//   1. Golden values: every batch device API draws the same noise sequence
//      and computes the same arithmetic as its scalar counterpart, so
//      batch == scalar bit-for-bit at a fixed seed. The field-domain
//      scalar dot reorders floating-point operations against the
//      intensity-domain per-pass oracle, so it is pinned to the oracle's
//      draws within tight relative tolerance instead.
//   2. Determinism: parallel GEMV produces bit-identical outputs and
//      energy-ledger totals at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "per_pass_reference.hpp"
#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "photonics/converter.hpp"
#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/kernels.hpp"
#include "photonics/laser.hpp"
#include "photonics/rng.hpp"

namespace onfiber {
namespace {

// ------------------------------------------------------------ RNG batching

TEST(KernelsRng, SpareDeviateKeepsPairsConsistent) {
  // Box-Muller produces deviates in pairs; the spare must survive
  // interleaved uniform() draws untouched (it is cached, not recomputed).
  phot::rng a(9), b(9);
  const double first_a = a.normal();
  const double second_a = a.normal();
  const double first_b = b.normal();
  const double second_b = b.normal();
  EXPECT_EQ(first_a, first_b);
  EXPECT_EQ(second_a, second_b);
  EXPECT_NE(first_a, second_a);
}

// --------------------------------------------------------- device batching

TEST(KernelsDevices, LaserBatchEmitMatchesScalar) {
  phot::laser batch_laser({}, phot::rng{77});
  phot::laser scalar_laser({}, phot::rng{77});
  phot::waveform batch;
  batch_laser.emit(64, batch);
  ASSERT_EQ(batch.size(), 64u);
  for (const phot::field& e : batch) {
    EXPECT_EQ(e, scalar_laser.emit_one());
  }
}

TEST(KernelsDevices, LaserEmitLedgerPassesMatchEmitOne) {
  // Fields match emit_one bit for bit with a ledger attached. Charged as
  // `symbols` passes, the ledger matches emit_one's per-symbol charges
  // exactly; the default single pass is one bulk charge of the same ops.
  phot::energy_ledger per_symbol, bulk, scalar;
  phot::laser per_symbol_laser({}, phot::rng{79}, &per_symbol);
  phot::laser bulk_laser({}, phot::rng{79}, &bulk);
  phot::laser scalar_laser({}, phot::rng{79}, &scalar);
  phot::waveform a, b;
  per_symbol_laser.emit(37, a, 37);
  bulk_laser.emit(37, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const phot::field e = scalar_laser.emit_one();
    EXPECT_EQ(a[i], e);
    EXPECT_EQ(b[i], e);
  }
  EXPECT_EQ(per_symbol.joules("laser"), scalar.joules("laser"));
  EXPECT_EQ(per_symbol.ops("laser"), 37u);
  EXPECT_EQ(bulk.ops("laser"), 37u);
  EXPECT_EQ(bulk.joules("laser"),
            phot::energy_costs{}.laser_j_per_symbol * 37.0);
}

TEST(KernelsDevices, LaserEmitPowersMatchesScalarPowers) {
  // emit_powers draws on the laser's own RIN stream and returns the
  // powers directly; the scalar path round-trips them through
  // sqrt/polar/norm, so agreement is to rounding error, not bits.
  phot::laser power_laser({}, phot::rng{78});
  phot::laser scalar_laser({}, phot::rng{78});
  std::vector<double> powers(48);
  power_laser.emit_powers(powers);
  for (double p : powers) {
    EXPECT_NEAR(p, phot::power_mw(scalar_laser.emit_one()), 1e-12 * p);
  }
}

TEST(KernelsDevices, DacBatchConvertMatchesScalar) {
  phot::dac batch_dac({}, phot::rng{11});
  phot::dac scalar_dac({}, phot::rng{11});
  std::vector<double> in(97), out(97), scratch;
  phot::rng gen(5);
  for (double& v : in) v = gen.uniform();
  batch_dac.convert(in, out, scratch);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], scalar_dac.convert(in[i]));
  }
}

TEST(KernelsDevices, AdcBatchConvertMatchesScalar) {
  // With a ledger attached, the batch charges exactly as the scalar loop
  // does: one conversion at a time, so the joules round identically.
  phot::energy_ledger batch_ledger, scalar_ledger;
  phot::adc batch_adc({}, phot::rng{12}, &batch_ledger);
  phot::adc scalar_adc({}, phot::rng{12}, &scalar_ledger);
  std::vector<double> in(97), noise(97), out(97);
  phot::rng gen(6);
  for (double& v : in) v = gen.uniform();
  batch_adc.draw_noise(noise);
  batch_adc.digitize(in, noise, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], scalar_adc.convert(in[i]));
  }
  EXPECT_EQ(batch_ledger.joules("adc"), scalar_ledger.joules("adc"));
  EXPECT_EQ(batch_ledger.ops("adc"), scalar_ledger.ops("adc"));
}

// --------------------------------------------------- scalar dot reference

// The field-domain dot_unit_range_scalar against the per-pass oracle on
// the same seed: same noise draws, so the only difference is field-domain
// vs intensity-domain arithmetic, which must agree to rounding error.
// Two calls in a row, so every stream moves off its start.
TEST(KernelsFusedDot, MatchesScalarReferenceClosely) {
  phot::per_pass_reference oracle({}, 91, nullptr);
  phot::dot_product_unit scalar({}, 91);
  std::vector<double> a(128), b(128);
  phot::rng gen(13);
  for (int call = 0; call < 2; ++call) {
    for (double& v : a) v = gen.uniform();
    for (double& v : b) v = gen.uniform();
    const auto ro = oracle.electrical(a, b, 1);
    const auto rs = scalar.dot_unit_range_scalar(a, b);
    EXPECT_EQ(ro.symbols, rs.symbols);
    EXPECT_EQ(ro.latency_s, rs.latency_s);
    EXPECT_NEAR(ro.value, rs.value, 1e-9 * std::max(1.0, std::abs(rs.value)));
  }
}

TEST(KernelsFusedDot, MatchesScalarWithBiasError) {
  // Imperfect bias forces the transcendental branch of the transfer.
  phot::dot_product_config cfg;
  cfg.modulator.bias_error_sigma_rad = 0.02;
  phot::per_pass_reference oracle(cfg, 92, nullptr);
  phot::dot_product_unit scalar(cfg, 92);
  std::vector<double> a(64), b(64);
  phot::rng gen(14);
  for (double& v : a) v = gen.uniform();
  for (double& v : b) v = gen.uniform();
  const auto ro = oracle.electrical(a, b, 1);
  const auto rs = scalar.dot_unit_range_scalar(a, b);
  EXPECT_NEAR(ro.value, rs.value, 1e-9 * std::max(1.0, std::abs(rs.value)));
}

TEST(KernelsFusedDot, SignedDotUsesArenaAndStaysAccurate) {
  // A signed dot is a 1 x n GEMV on the engine's reused buffers.
  phot::vector_matrix_engine engine({}, 93);
  phot::matrix a(1, 96);
  std::vector<double> b(96);
  phot::rng gen(15);
  double exact = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    a.data[i] = 2.0 * gen.uniform() - 1.0;
    b[i] = 2.0 * gen.uniform() - 1.0;
    exact += a.data[i] * b[i];
  }
  for (int call = 0; call < 2; ++call) {
    const auto r = engine.gemv_signed(a, b);
    EXPECT_EQ(r.symbols, 4 * b.size());
    EXPECT_NEAR(r.values[0], exact, 2.0);  // analog-noise tolerance
  }
}

TEST(KernelsFusedDot, LedgerOpsMatchScalarReference) {
  phot::energy_ledger oracle_ledger, scalar_ledger;
  phot::per_pass_reference oracle({}, 94, &oracle_ledger);
  phot::dot_product_unit scalar({}, 94, &scalar_ledger);
  std::vector<double> a(32, 0.5), b(32, 0.25);
  (void)oracle.electrical(a, b, 1);
  (void)scalar.dot_unit_range_scalar(a, b);
  for (const auto& [name, e] : scalar_ledger.entries()) {
    EXPECT_EQ(oracle_ledger.ops(name), e.ops) << name;
    EXPECT_NEAR(oracle_ledger.joules(name), e.joules, 1e-12 * e.joules)
        << name;
  }
}

// ----------------------------------------------------- threading utilities

// Rows of at least the break-even work each, so every call dispatches.
constexpr std::size_t kPoolRowWork = phot::kPoolBreakEvenWork;

TEST(KernelsThreading, ParallelRowsCoversAllRowsOnce) {
  std::vector<std::atomic<int>> hits(103);
  phot::parallel_rows(hits.size(), kPoolRowWork, 8,
                      [&](std::size_t first, std::size_t last) {
                        for (std::size_t r = first; r < last; ++r) hits[r]++;
                      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(KernelsThreading, ParallelRowsPropagatesExceptions) {
  EXPECT_THROW(
      phot::parallel_rows(16, kPoolRowWork, 4,
                          [](std::size_t first, std::size_t last) {
                            if (first <= 7 && 7 < last) {
                              throw std::runtime_error("row 7");
                            }
                          }),
      std::runtime_error);
}

TEST(KernelsThreading, ThreadCountHonorsOverride) {
  EXPECT_EQ(phot::kernel_thread_count(3), 3u);
  EXPECT_GE(phot::kernel_thread_count(0), 1u);
}

// ------------------------------------------------- GEMV thread determinism

TEST(KernelsGemv, BitIdenticalAcrossThreadCounts) {
  phot::matrix w(12, 40);
  std::vector<double> x(40);
  phot::rng gen(16);
  for (double& v : w.data) v = 2.0 * gen.uniform() - 1.0;
  for (double& v : x) v = 2.0 * gen.uniform() - 1.0;

  std::vector<phot::gemv_result> results;
  std::vector<phot::energy_ledger> ledgers(3);
  const std::size_t thread_counts[] = {1, 2, 8};
  for (std::size_t t = 0; t < 3; ++t) {
    phot::vector_matrix_engine engine({}, 314, &ledgers[t]);
    engine.set_threads(thread_counts[t]);
    results.push_back(engine.gemv_signed(w, x));
  }
  for (std::size_t t = 1; t < 3; ++t) {
    ASSERT_EQ(results[t].values.size(), results[0].values.size());
    for (std::size_t r = 0; r < results[0].values.size(); ++r) {
      EXPECT_EQ(results[t].values[r], results[0].values[r]);
    }
    EXPECT_EQ(results[t].latency_s, results[0].latency_s);
    EXPECT_EQ(results[t].symbols, results[0].symbols);
    // Ledger totals must be thread-invariant to the last bit (merged in
    // row order).
    ASSERT_EQ(ledgers[t].entries().size(), ledgers[0].entries().size());
    for (const auto& [name, e] : ledgers[0].entries()) {
      EXPECT_EQ(ledgers[t].joules(name), e.joules) << name;
      EXPECT_EQ(ledgers[t].ops(name), e.ops) << name;
    }
  }
}

TEST(KernelsGemv, EngineProcessDeterministicAcrossThreads) {
  // Whole-packet determinism through photonic_engine (both DNN-free GEMV
  // and both compute modes).
  for (const auto mode :
       {core::compute_mode::on_fiber, core::compute_mode::oeo_per_hop}) {
    core::gemv_task task;
    task.weights = phot::matrix(6, 16);
    phot::rng gen(18);
    for (double& v : task.weights.data) v = 2.0 * gen.uniform() - 1.0;
    std::vector<double> x(16);
    for (double& v : x) v = 2.0 * gen.uniform() - 1.0;

    core::engine_config cfg;
    cfg.mode = mode;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      core::photonic_engine engine(cfg, 777);
      engine.set_threads(threads);
      engine.configure_gemv(task);
      net::packet pkt = core::make_gemv_request(net::ipv4(10, 0, 0, 1),
                                                net::ipv4(10, 0, 0, 2), x, 6);
      const auto rep = engine.process(pkt);
      EXPECT_TRUE(rep.computed);
      payloads.push_back(pkt.payload);
    }
    EXPECT_EQ(payloads[0], payloads[1]);
    EXPECT_EQ(payloads[0], payloads[2]);
  }
}

}  // namespace
}  // namespace onfiber
