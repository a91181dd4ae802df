// Tests for the paper's §4/§5 extension features: distributed compute
// chains, WDM-parallel engines, chip-area model, noise-mitigation
// averaging.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "core/runtime.hpp"
#include "photonics/area.hpp"
#include "photonics/engine/wdm_engine.hpp"
#include "photonics/rng.hpp"

namespace onfiber {
namespace {

// ------------------------------------------------------------- chains

TEST(Chains, HeaderStageFieldsRoundTrip) {
  proto::compute_header h;
  h.primitive = proto::primitive_id::p1_dot_product;
  h.stage2 = proto::primitive_id::p3_nonlinear;
  h.stage3 = proto::primitive_id::p2_pattern_match;
  const auto r = proto::parse(proto::serialize(h));
  ASSERT_TRUE(r);
  EXPECT_EQ(r.header.stage2, proto::primitive_id::p3_nonlinear);
  EXPECT_EQ(r.header.stage3, proto::primitive_id::p2_pattern_match);
  EXPECT_TRUE(r.header.has_more_stages());
}

TEST(Chains, BadStagePrimitiveRejected) {
  auto wire = proto::serialize(proto::compute_header{});
  wire[18] = 200;  // invalid stage2
  // Recompute nothing: corruption must be rejected (primitive check or
  // checksum — either way the parse fails).
  EXPECT_FALSE(proto::parse(wire));
}

TEST(Chains, AdvanceStagePromotes) {
  proto::compute_header h;
  h.primitive = proto::primitive_id::p1_dot_product;
  h.stage2 = proto::primitive_id::p3_nonlinear;
  h.input_offset = 0;
  h.input_length = 16;
  h.result_offset = 16;
  h.advance_stage(8);
  EXPECT_EQ(h.primitive, proto::primitive_id::p3_nonlinear);
  EXPECT_EQ(h.stage2, proto::primitive_id::none);
  EXPECT_EQ(h.input_offset, 16);
  EXPECT_EQ(h.input_length, 8);
  EXPECT_EQ(h.result_offset, 24);
  EXPECT_FALSE(h.has_more_stages());
}

TEST(Chains, BuilderValidation) {
  const std::vector<double> x(4, 0.5);
  const net::ipv4 a(1, 0, 0, 1), b(2, 0, 0, 1);
  std::vector<proto::primitive_id> empty;
  EXPECT_THROW((void)core::make_chain_request(a, b, empty, x, 8),
               std::invalid_argument);
  std::vector<proto::primitive_id> too_many(4,
                                            proto::primitive_id::p3_nonlinear);
  EXPECT_THROW((void)core::make_chain_request(a, b, too_many, x, 8),
               std::invalid_argument);
  std::vector<proto::primitive_id> has_none{proto::primitive_id::none};
  EXPECT_THROW((void)core::make_chain_request(a, b, has_none, x, 8),
               std::invalid_argument);
}

TEST(Chains, GemvThenNonlinearOnOneEngine) {
  // One engine supports both stages: it must execute stage 1, promote,
  // and on a second pass execute stage 2, then mark the result final.
  core::photonic_engine engine({}, 7);
  core::gemv_task task;
  task.weights = phot::matrix(4, 8);
  for (double& w : task.weights.data) w = 0.5;
  task.relu_output = true;
  engine.configure_gemv(task);

  const std::vector<double> x(8, 0.5);
  const std::vector<proto::primitive_id> stages{
      proto::primitive_id::p1_dot_product,
      proto::primitive_id::p3_nonlinear};
  net::packet pkt = core::make_chain_request(
      net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1), stages, x,
      /*result_capacity=*/4 + 4);

  // Stage 1: GEMV.
  const auto rep1 = engine.process(pkt);
  ASSERT_TRUE(rep1.computed);
  auto h = proto::peek_compute_header(pkt);
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(h->has_result());  // chain not finished
  EXPECT_EQ(h->primitive, proto::primitive_id::p3_nonlinear);
  EXPECT_EQ(h->hops, 1);
  EXPECT_EQ(h->input_length, 4);  // stage-1 output became the input

  // Stage 2: nonlinear.
  const auto rep2 = engine.process(pkt);
  ASSERT_TRUE(rep2.computed);
  h = proto::peek_compute_header(pkt);
  EXPECT_TRUE(h->has_result());
  EXPECT_EQ(h->hops, 2);

  // Final result: P3 activations of the normalized GEMV outputs.
  const auto result = core::read_nonlinear_result(pkt);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 4u);
  // GEMV output per row = 8 * 0.5 * 0.5 / scale(8) = 0.25 (unit coded);
  // P3(0.25) ~ 0.25 * sin^2(pi/8) ~ 0.037.
  for (const double y : *result) EXPECT_NEAR(y, 0.037, 0.05);
}

TEST(Chains, DistributedAcrossTwoSites) {
  // Stage 1 (P1) only at site B, stage 2 (P3) available everywhere; the
  // packet must be computed at B, promoted, then finished at the next
  // capable site on the way to D.
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(2, 4);
  for (double& w : task.weights.data) w = 0.6;
  task.relu_output = true;
  rt.deploy_engine(1, {}, 21).configure_gemv(task);  // B: P1 (+P3 built-in)
  rt.deploy_engine(2, {}, 22);                       // C: P3 only
  rt.install_compute_routes_via_nearest_site();

  const std::vector<double> x{0.5, 0.5, 0.5, 0.5};
  const std::vector<proto::primitive_id> stages{
      proto::primitive_id::p1_dot_product,
      proto::primitive_id::p3_nonlinear};
  rt.submit(core::make_chain_request(rt.fabric().topo().node_at(0).address,
                                     rt.fabric().topo().node_at(3).address,
                                     stages, x, 8),
            0);
  engine.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  const auto h = proto::peek_compute_header(rt.deliveries()[0].pkt);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->has_result());
  EXPECT_EQ(h->hops, 2);  // two stages executed
  EXPECT_EQ(rt.stats().computed, 2u);
  EXPECT_EQ(rt.stats().uncomputed_delivered, 0u);
  EXPECT_TRUE(core::read_nonlinear_result(rt.deliveries()[0].pkt).has_value());
}

TEST(Chains, InsufficientCapacityNotComputed) {
  core::photonic_engine engine({}, 9);
  core::gemv_task task;
  task.weights = phot::matrix(4, 8);
  engine.configure_gemv(task);
  const std::vector<double> x(8, 0.5);
  const std::vector<proto::primitive_id> stages{
      proto::primitive_id::p1_dot_product,
      proto::primitive_id::p3_nonlinear};
  // Only 4 bytes of result capacity: stage 1 fits, stage 2 does not.
  net::packet pkt = core::make_chain_request(
      net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1), stages, x, 4);
  ASSERT_TRUE(engine.process(pkt).computed);  // stage 1 ok
  EXPECT_FALSE(engine.process(pkt).computed); // stage 2 cannot fit
}

// --------------------------------------------------------- WDM engine

TEST(WdmEngine, MatchesSingleLaneValues) {
  phot::matrix w(8, 16);
  phot::rng g(31);
  for (double& v : w.data) v = g.uniform(-1.0, 1.0);
  std::vector<double> x(16);
  for (double& v : x) v = g.uniform(-1.0, 1.0);
  const auto exact = phot::gemv_reference(w, x);

  phot::wdm_gemv_engine engine({}, 4, 77);
  const auto y = engine.gemv_signed(w, x);
  ASSERT_EQ(y.values.size(), 8u);
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_NEAR(y.values[r], exact[r], 0.5) << "row " << r;
  }
}

TEST(WdmEngine, LatencyShrinksWithLanes) {
  phot::matrix w(16, 32);
  for (double& v : w.data) v = 0.3;
  const std::vector<double> x(32, 0.4);
  double prev_latency = 1e9;
  for (const std::size_t lanes : {1u, 2u, 4u, 8u, 16u}) {
    phot::wdm_gemv_engine engine({}, lanes, 99);
    const auto y = engine.gemv_signed(w, x);
    EXPECT_LT(y.latency_s, prev_latency);
    prev_latency = y.latency_s;
  }
}

TEST(WdmEngine, LatencyScalesInversely) {
  phot::matrix w(16, 64);
  for (double& v : w.data) v = 0.3;
  const std::vector<double> x(64, 0.4);
  phot::wdm_gemv_engine one({}, 1, 5);
  phot::wdm_gemv_engine sixteen({}, 16, 5);
  const double t1 = one.gemv_signed(w, x).latency_s;
  const double t16 = sixteen.gemv_signed(w, x).latency_s;
  // 16 lanes, 16 rows: each lane does exactly one row.
  EXPECT_NEAR(t1 / t16, 16.0, 1.0);
}

TEST(WdmEngine, NonDivisibleRowsBalanceRoundRobin) {
  // 7 rows over 3 lanes: lanes get 3/2/2 rows; latency equals the
  // 3-row lane's serial time, not 7 rows.
  phot::matrix w(7, 16);
  for (double& v : w.data) v = 0.3;
  const std::vector<double> x(16, 0.4);
  phot::wdm_gemv_engine three({}, 3, 5);
  phot::wdm_gemv_engine one({}, 1, 5);
  const double t3 = three.gemv_signed(w, x).latency_s;
  const double t1 = one.gemv_signed(w, x).latency_s;
  EXPECT_NEAR(t1 / t3, 7.0 / 3.0, 0.05);
}

TEST(WdmEngine, Validation) {
  EXPECT_THROW(phot::wdm_gemv_engine({}, 0, 1), std::invalid_argument);
  EXPECT_THROW(phot::wdm_gemv_engine({}, 2, 1, nullptr, {}, +3.0),
               std::invalid_argument);
  phot::wdm_gemv_engine engine({}, 2, 1);
  const phot::matrix w(2, 4);
  const std::vector<double> x(3, 0.0);
  EXPECT_THROW((void)engine.gemv_signed(w, x), std::invalid_argument);
  EXPECT_GT(engine.peak_mac_rate(), 0.0);
}

TEST(WdmEngine, CrosstalkPerturbsNeighbors) {
  // Row 0 large, row 1 zero: with strong crosstalk row 1 reads a leak of
  // row 0; with -100 dB it reads ~0.
  phot::matrix w(2, 8);
  for (std::size_t c = 0; c < 8; ++c) w.at(0, c) = 1.0;  // row 1 all zero
  const std::vector<double> x(8, 1.0);

  phot::wdm_gemv_engine clean({}, 2, 9, nullptr, {}, -100.0);
  phot::wdm_gemv_engine leaky({}, 2, 9, nullptr, {}, -13.0);  // ~5% leak
  const auto yc = clean.gemv_signed(w, x);
  const auto yl = leaky.gemv_signed(w, x);
  EXPECT_NEAR(yc.values[1], 0.0, 0.1);
  EXPECT_NEAR(yl.values[1], 0.05 * yl.values[0], 0.15);
  EXPECT_GT(std::abs(yl.values[1]), std::abs(yc.values[1]));
}

TEST(WdmEngine, RealisticCrosstalkNegligible) {
  // At -30 dB (AWG-class isolation) accuracy is indistinguishable.
  phot::matrix w(8, 16);
  phot::rng g(11);
  for (double& v : w.data) v = g.uniform(-1.0, 1.0);
  std::vector<double> x(16);
  for (double& v : x) v = g.uniform(-1.0, 1.0);
  phot::wdm_gemv_engine clean({}, 4, 13, nullptr, {}, -100.0);
  phot::wdm_gemv_engine awg({}, 4, 13, nullptr, {}, -30.0);
  const auto yc = clean.gemv_signed(w, x);
  const auto ya = awg.gemv_signed(w, x);
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_NEAR(ya.values[r], yc.values[r], 0.05);
  }
}

// ----------------------------------------------------------- area model

TEST(Area, ComponentCompositionsAddUp) {
  const phot::component_areas c;
  EXPECT_NEAR(phot::p1_lane_area_mm2(c),
              c.laser_mm2 + 2 * c.mzm_modulator_mm2 + c.photodetector_mm2 +
                  c.tia_mm2 + 2 * c.dac_mm2 + c.adc_mm2,
              1e-12);
  EXPECT_GT(phot::p2_correlator_area_mm2(c), 0.0);
  EXPECT_GT(phot::p3_unit_area_mm2(c), 0.0);
}

TEST(Area, EngineGrowsWithLanes) {
  const double a1 = phot::engine_area_mm2(1, 64.0);
  const double a8 = phot::engine_area_mm2(8, 64.0);
  EXPECT_GT(a8, a1);
  EXPECT_NEAR(a8 - a1, 7.0 * phot::p1_lane_area_mm2(), 1e-9);
}

TEST(Area, FormFactorOrdering) {
  // Bigger modules fit more lanes.
  const std::size_t in_qsfp = phot::max_lanes(phot::qsfp_dd, 64.0);
  const std::size_t in_osfp = phot::max_lanes(phot::osfp, 64.0);
  const std::size_t in_cfp2 = phot::max_lanes(phot::cfp2, 64.0);
  EXPECT_GT(in_qsfp, 0u);  // at least one lane fits a QSFP-DD
  EXPECT_LE(in_qsfp, in_osfp);
  EXPECT_LE(in_osfp, in_cfp2);
}

TEST(Area, FitsIsConsistentWithMaxLanes) {
  const std::size_t lanes = phot::max_lanes(phot::qsfp_dd, 64.0);
  EXPECT_TRUE(phot::fits(phot::qsfp_dd, lanes, 64.0));
  EXPECT_FALSE(phot::fits(phot::qsfp_dd, lanes + 1, 64.0));
}

// ----------------------------------------------------- noise averaging

TEST(Averaging, ReducesError) {
  // At low optical power the analog noise dominates; averaging K
  // evaluations must shrink the RMS error roughly as 1/sqrt(K).
  phot::dot_product_config cfg;
  cfg.laser.power_mw = 0.05;
  cfg.dac.bits = 12;
  cfg.adc.bits = 12;
  phot::rng g(41);
  std::vector<double> a(32), b(32);
  for (double& v : a) v = g.uniform();
  for (double& v : b) v = g.uniform();
  const double exact =
      std::inner_product(a.begin(), a.end(), b.begin(), 0.0);

  const auto rms = [&](int repeats) {
    phot::dot_product_unit unit(cfg, 43);
    double sq = 0.0;
    constexpr int trials = 40;
    for (int t = 0; t < trials; ++t) {
      const auto r = unit.dot_unit_range_averaged(a, b, repeats);
      sq += (r.value - exact) * (r.value - exact);
    }
    return std::sqrt(sq / trials);
  };
  const double e1 = rms(1);
  const double e16 = rms(16);
  EXPECT_LT(e16, e1 / 2.0);  // >= 2x improvement (ideal would be 4x)
}

TEST(Averaging, LatencyScalesWithRepeats) {
  phot::dot_product_unit unit({}, 47);
  const std::vector<double> a(16, 0.5);
  const auto r1 = unit.dot_unit_range_averaged(a, a, 1);
  const auto r8 = unit.dot_unit_range_averaged(a, a, 8);
  EXPECT_NEAR(r8.latency_s / r1.latency_s, 8.0, 0.01);
  EXPECT_EQ(r8.symbols, 8u * 16u);
}

TEST(Averaging, RejectsBadRepeats) {
  phot::dot_product_unit unit({}, 49);
  const std::vector<double> a(4, 0.5);
  EXPECT_THROW((void)unit.dot_unit_range_averaged(a, a, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace onfiber
