// Miscellaneous coverage: small behaviors not exercised elsewhere.
#include <gtest/gtest.h>

#include "controller/rwa.hpp"
#include "controller/service.hpp"
#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "network/fabric.hpp"
#include "photonics/laser.hpp"
#include "photonics/photodetector.hpp"
#include "protocol/codec.hpp"

namespace onfiber {
namespace {

TEST(Misc, PhotodetectorSpanDetect) {
  // Noiseless one-symbol readouts over a span of powers.
  phot::photodetector_config cfg;
  cfg.noise.enable_shot = false;
  cfg.noise.enable_thermal = false;
  phot::photodetector d(cfg, phot::rng{1});
  const std::vector<double> powers{1.0, 2.0, 0.0};
  std::vector<double> noise(3), currents(3);
  d.draw_readout_noise(noise);
  d.integrate_readouts(powers, 1, d.integration_noise_for(1), noise,
                       currents);
  EXPECT_GT(currents[1], currents[0]);
  EXPECT_GT(currents[0], currents[2]);
  EXPECT_DOUBLE_EQ(currents[0], d.expected_current_a(1.0));
}

TEST(Misc, LaserPhaseContinuityAcrossCalls) {
  // emit_one and emit(n) draw from the same phase walk: consecutive calls
  // continue the stream rather than restarting it.
  phot::laser_config cfg;
  cfg.enable_rin = false;
  phot::laser l1(cfg, phot::rng{7});
  phot::laser l2(cfg, phot::rng{7});
  phot::waveform batch;
  l1.emit(4, batch);
  phot::waveform singles;
  for (int i = 0; i < 4; ++i) singles.push_back(l2.emit_one());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(std::arg(batch[i]), std::arg(singles[i]));
  }
}

TEST(Misc, EnergyEntriesDeterministicOrder) {
  phot::energy_ledger l;
  l.charge("zeta", 1.0);
  l.charge("alpha", 2.0);
  l.charge("mid", 3.0);
  std::vector<std::string> names;
  for (const auto& [name, e] : l.entries()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(Misc, CodecExactEndpoints) {
  EXPECT_EQ(proto::encode_unit_u8(0.0), 0);
  EXPECT_EQ(proto::encode_unit_u8(1.0), 255);
  EXPECT_DOUBLE_EQ(proto::decode_unit_u8(0), 0.0);
  EXPECT_DOUBLE_EQ(proto::decode_unit_u8(255), 1.0);
  // The signed grid is symmetric about byte 128 == exact 0.0.
  EXPECT_EQ(proto::encode_signed_u8(0.0), 128);
  EXPECT_DOUBLE_EQ(proto::decode_signed_u8(128), 0.0);
  EXPECT_DOUBLE_EQ(proto::decode_signed_u8(255), 1.0);
  EXPECT_DOUBLE_EQ(proto::decode_signed_u8(1), -1.0);
}

TEST(Misc, TopologyNeighborErrors) {
  net::topology t = net::make_linear_topology(3, 10.0);
  EXPECT_THROW((void)t.neighbor(2, 0), std::invalid_argument);  // link 0 is 0-1
  EXPECT_THROW((void)t.incident_links(9), std::out_of_range);
  EXPECT_THROW((void)t.node_at(9), std::out_of_range);
}

TEST(Misc, FabricWithoutDeliverCallback) {
  // No callback installed: delivery still counts, nothing crashes.
  net::shard_engine engine;
  net::wan_fabric fabric(engine, net::make_linear_topology(2, 10.0));
  fabric.install_shortest_path_routes();
  net::packet pkt;
  pkt.dst = fabric.topo().node_at(1).address;
  fabric.send(pkt, 0);
  engine.run();
  EXPECT_EQ(fabric.delivered(), 1u);
}

TEST(Misc, PacketWireBytes) {
  net::packet pkt;
  EXPECT_EQ(pkt.wire_bytes(), 20u);  // bare IP header
  pkt.payload.resize(100);
  EXPECT_EQ(pkt.wire_bytes(), 120u);
}

TEST(Misc, RoutesForEmptyAllocation) {
  net::topology topo = net::make_figure1_topology();
  ctrl::allocation_problem p;
  p.topo = &topo;
  const ctrl::allocation_result r = ctrl::solve_greedy(p);
  EXPECT_TRUE(ctrl::routes_for_allocation(p, r).empty());
  EXPECT_TRUE(ctrl::lightpaths_for_allocation(p, r).empty());
}

TEST(Misc, ServiceWithNoDemandsRunsOneEpoch) {
  net::shard_engine engine;
  const net::topology topo = net::make_figure1_topology();
  ctrl::controller_service svc(engine, topo, {});
  svc.start();
  engine.run();
  ASSERT_EQ(svc.history().size(), 1u);
  EXPECT_EQ(svc.history()[0].active_demands, 0u);
  EXPECT_DOUBLE_EQ(svc.total_downtime_s(), 0.0);
}

TEST(Misc, EngineConfiguredListing) {
  core::photonic_engine e({}, 5);
  // P3 always on; nothing else until configured.
  EXPECT_TRUE(e.supports(proto::primitive_id::p3_nonlinear));
  EXPECT_FALSE(e.supports(proto::primitive_id::p1_dot_product));
  EXPECT_FALSE(e.supports(proto::primitive_id::p2_pattern_match));
  EXPECT_FALSE(e.supports(proto::primitive_id::p1_p3_dnn));
  core::gemv_task g;
  g.weights = phot::matrix(1, 1);
  g.weights.at(0, 0) = 1.0;
  e.configure_gemv(g);
  EXPECT_TRUE(e.supports(proto::primitive_id::p1_dot_product));
  EXPECT_FALSE(e.supports(proto::primitive_id::p1_p3_dnn));
}

TEST(Misc, ChainReaderMatchesFinalStagePrimitive) {
  // After a P1 -> P3 chain completes, the header's primitive is P3, so
  // only the nonlinear reader accepts it.
  core::photonic_engine e({}, 6);
  core::gemv_task g;
  g.weights = phot::matrix(2, 4);
  for (double& w : g.weights.data) w = 0.5;
  g.relu_output = true;
  e.configure_gemv(g);
  const std::vector<double> x(4, 0.5);
  const std::vector<proto::primitive_id> stages{
      proto::primitive_id::p1_dot_product,
      proto::primitive_id::p3_nonlinear};
  net::packet pkt = core::make_chain_request(
      net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1), stages, x, 4);
  ASSERT_TRUE(e.process(pkt).computed);
  ASSERT_TRUE(e.process(pkt).computed);
  EXPECT_TRUE(core::read_nonlinear_result(pkt).has_value());
  EXPECT_FALSE(core::read_gemv_result(pkt).has_value());
}

}  // namespace
}  // namespace onfiber
