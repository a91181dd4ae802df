// Edge-case and saturation tests across the stack: the places where the
// physics clips, the math degenerates, or the API is abused.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "core/runtime.hpp"
#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/pattern_matcher.hpp"
#include "photonics/rng.hpp"

namespace onfiber {
namespace {

// ----------------------------------------------------- detector saturation

TEST(EdgeCases, DetectorSaturationClampsDotProduct) {
  // Absurd laser power saturates the photodetector: the result clamps
  // instead of exploding — analog overflow is graceful.
  phot::dot_product_config cfg;
  cfg.laser.power_mw = 1e7;  // 10 kW "laser"
  cfg.detector.saturation_current_a = 1e-3;
  phot::dot_product_unit unit(cfg, 1);
  const std::vector<double> ones(16, 1.0);
  const auto r = unit.dot_unit_range(ones, ones);
  EXPECT_TRUE(std::isfinite(r.value));
  // Saturated current / full-scale current ~ tiny -> result far below 16,
  // but never NaN/inf and never negative beyond codec range.
  EXPECT_LT(std::abs(r.value), 32.0);
}

TEST(EdgeCases, ZeroPowerLaserGivesZeroish) {
  phot::dot_product_config cfg;
  cfg.laser.power_mw = 0.0;
  phot::dot_product_unit unit(cfg, 2);
  const std::vector<double> ones(8, 1.0);
  const auto r = unit.dot_unit_range(ones, ones);
  EXPECT_TRUE(std::isfinite(r.value));
}

TEST(EdgeCases, SingleElementVectors) {
  phot::dot_product_unit unit({}, 3);
  const std::vector<double> a{0.7}, b{0.6};
  EXPECT_NEAR(unit.dot_unit_range(a, b).value, 0.42, 0.1);
  const std::vector<double> sa{-0.7}, sb{0.6};
  EXPECT_NEAR(unit.dot_signed(sa, sb).value, -0.42, 0.15);
}

TEST(EdgeCases, LargeVectorStaysCalibrated) {
  // 4096 elements: integration keeps the mean calibrated; relative
  // error must stay ~1%.
  phot::dot_product_unit unit({}, 4);
  phot::rng g(5);
  std::vector<double> a(4096), b(4096);
  for (double& v : a) v = g.uniform();
  for (double& v : b) v = g.uniform();
  const double exact =
      std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
  const auto r = unit.dot_unit_range(a, b);
  EXPECT_NEAR(r.value, exact, 0.02 * exact);
}

// --------------------------------------------------------- matcher extremes

TEST(EdgeCases, SingleBitPattern) {
  phot::pattern_matcher m({}, 6);
  const std::vector<std::uint8_t> one{1}, zero{0};
  EXPECT_TRUE(m.match_bits(one, one).matched);
  EXPECT_FALSE(m.match_bits(one, zero).matched);
}

TEST(EdgeCases, ScanStrideRespected) {
  phot::pattern_matcher m({}, 7);
  // Pattern "11" occurs at offsets 0..3 of "11111"; stride 2 reports 0,2.
  const std::vector<std::uint8_t> stream(5, 1);
  const std::vector<phot::tbit> pattern{phot::tbit::one, phot::tbit::one};
  const auto hits = m.scan(stream, pattern, 2);
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 2}));
}

TEST(EdgeCases, MatcherThresholdConfigurable) {
  // A generous threshold accepts near-matches: fuzzy matching knob.
  phot::pattern_match_config cfg;
  cfg.decision_threshold = 0.1;  // tolerate < 10% mismatched bits
  phot::pattern_matcher m(cfg, 8);
  std::vector<std::uint8_t> word(32, 0);
  auto close = word;
  close[3] ^= 1;  // 1/32 = 3.1% mismatch
  auto far = word;
  for (int i = 0; i < 8; ++i) far[i] ^= 1;  // 25%
  EXPECT_TRUE(m.match_bits(word, close).matched);
  EXPECT_FALSE(m.match_bits(word, far).matched);
}

// -------------------------------------------------------- engine edge cases

TEST(EdgeCases, EngineZeroLengthInputRejected) {
  core::photonic_engine e({}, 9);
  net::packet pkt;
  pkt.proto = net::ip_proto::compute;
  proto::compute_header h;
  h.primitive = proto::primitive_id::p3_nonlinear;
  h.input_offset = 0;
  h.input_length = 0;  // nothing to compute on
  h.result_offset = 0;
  h.result_length = 4;
  pkt.payload.assign(4, 0);
  proto::attach_compute_header(pkt, h);
  EXPECT_FALSE(e.process(pkt).computed);
}

TEST(EdgeCases, EngineOffsetsBeyondPayloadRejected) {
  core::photonic_engine e({}, 10);
  core::gemv_task task;
  task.weights = phot::matrix(1, 4);
  e.configure_gemv(task);
  net::packet pkt = core::make_gemv_request(net::ipv4(1, 0, 0, 1),
                                            net::ipv4(2, 0, 0, 1),
                                            std::vector<double>(4, 0.5), 1);
  // Corrupt the result offset to point past the payload, re-checksum.
  auto h = proto::peek_compute_header(pkt);
  h->result_offset = 60000;
  ASSERT_TRUE(proto::rewrite_compute_header(pkt, *h));
  EXPECT_FALSE(e.process(pkt).computed);
}

TEST(EdgeCases, ReconfigurationSwapsTasks) {
  core::photonic_engine e({}, 11);
  core::gemv_task g1;
  g1.weights = phot::matrix(1, 2);
  g1.weights.at(0, 0) = 1.0;
  e.configure_gemv(g1);
  const std::vector<double> x{0.8, 0.0};
  net::packet p1 = core::make_gemv_request(net::ipv4(1, 0, 0, 1),
                                           net::ipv4(2, 0, 0, 1), x, 1);
  ASSERT_TRUE(e.process(p1).computed);
  EXPECT_NEAR((*core::read_gemv_result(p1))[0], 0.8, 0.1);

  // Retask the same engine (the §3 reconfiguration story) and verify the
  // new weights apply.
  core::gemv_task g2;
  g2.weights = phot::matrix(1, 2);
  g2.weights.at(0, 1) = -1.0;
  e.configure_gemv(g2);
  net::packet p2 = core::make_gemv_request(net::ipv4(1, 0, 0, 1),
                                           net::ipv4(2, 0, 0, 1),
                                           std::vector<double>{0.0, 0.9}, 1);
  ASSERT_TRUE(e.process(p2).computed);
  EXPECT_NEAR((*core::read_gemv_result(p2))[0], -0.9, 0.1);
}

// -------------------------------------------------------- runtime edge cases

TEST(EdgeCases, RedeployReplacesEngine) {
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(1, 2);
  rt.deploy_engine(1, {}, 12).configure_gemv(task);
  EXPECT_TRUE(rt.site_supports(1, proto::primitive_id::p1_dot_product));
  // Redeploy with no tasks: the old engine is replaced wholesale.
  rt.deploy_engine(1, {}, 13);
  EXPECT_FALSE(rt.site_supports(1, proto::primitive_id::p1_dot_product));
}

TEST(EdgeCases, SubmitAtInvalidNodeThrows) {
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  net::packet pkt;
  EXPECT_THROW(rt.submit(pkt, 99), std::out_of_range);
  EXPECT_THROW(rt.deploy_engine(99, {}, 1), std::out_of_range);
  EXPECT_THROW(rt.set_compute_route(99, net::prefix{}, proto::primitive_id::p1_dot_product, 0),
               std::out_of_range);
}

TEST(EdgeCases, ZeroTtlPacketDroppedImmediately) {
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  net::packet pkt;
  pkt.src = rt.fabric().topo().node_at(0).address;
  pkt.dst = rt.fabric().topo().node_at(3).address;
  pkt.ttl = 0;
  rt.submit(pkt, 0);
  engine.run();
  EXPECT_EQ(rt.deliveries().size(), 0u);
  EXPECT_EQ(rt.fabric().dropped(), 1u);
}

TEST(EdgeCases, PacketForSelfDeliversLocally) {
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  net::packet pkt;
  pkt.src = rt.fabric().topo().node_at(0).address;
  pkt.dst = rt.fabric().topo().node_at(0).address;  // same node
  rt.submit(pkt, 0);
  engine.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_EQ(rt.deliveries()[0].at, 0u);
}

}  // namespace
}  // namespace onfiber
