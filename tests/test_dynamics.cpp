// Tests for the dynamic pieces: the controller service epoch loop,
// fabric failure injection (bit errors), and the Waxman topology
// generator.
#include <gtest/gtest.h>

#include "controller/service.hpp"
#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "network/fabric.hpp"
#include "network/topology.hpp"

namespace onfiber {
namespace {

// -------------------------------------------------------- controller svc

ctrl::compute_demand simple_demand(std::uint32_t id, net::node_id src,
                                   net::node_id dst,
                                   proto::primitive_id prim) {
  ctrl::compute_demand d;
  d.id = id;
  d.src = src;
  d.dst = dst;
  d.chain = {prim};
  d.rate_ops_s = 1e3;
  d.value = 1.0;
  return d;
}

TEST(ControllerService, TracksDemandChurn) {
  net::shard_engine engine;
  const net::topology topo = net::make_figure1_topology();
  std::vector<ctrl::transponder_info> inventory{
      {0, 1, {proto::primitive_id::p2_pattern_match}, 1e6},
      {1, 2, {proto::primitive_id::p1_p3_dnn}, 1e6},
  };
  ctrl::service_config cfg;
  cfg.epoch_s = 1.0;
  ctrl::controller_service svc(engine, topo, inventory, cfg);

  // Demand A active [0, 2.5), demand B active [1.5, 4).
  svc.add_demand(simple_demand(0, 0, 3, proto::primitive_id::p2_pattern_match),
                 0.0, 2.5);
  svc.add_demand(simple_demand(1, 0, 3, proto::primitive_id::p1_p3_dnn), 1.5,
                 4.0);
  svc.start();
  engine.run();

  const auto& hist = svc.history();
  ASSERT_GE(hist.size(), 4u);
  EXPECT_EQ(hist[0].active_demands, 1u);  // t=0: only A
  EXPECT_EQ(hist[2].active_demands, 2u);  // t=2: A and B
  EXPECT_EQ(hist[3].active_demands, 1u);  // t=3: only B
  EXPECT_DOUBLE_EQ(hist[0].satisfied_value, 1.0);
  EXPECT_DOUBLE_EQ(hist[2].satisfied_value, 2.0);
}

TEST(ControllerService, ReconfiguresOnChurnOnly) {
  net::shard_engine engine;
  const net::topology topo = net::make_figure1_topology();
  std::vector<ctrl::transponder_info> inventory{
      {0, 1,
       {proto::primitive_id::p2_pattern_match,
        proto::primitive_id::p1_p3_dnn},
       1e6},
  };
  ctrl::service_config cfg;
  cfg.epoch_s = 1.0;
  ctrl::controller_service svc(engine, topo, inventory, cfg);
  // One steady demand across all epochs: one initial install, then none.
  svc.add_demand(simple_demand(0, 0, 3, proto::primitive_id::p1_p3_dnn), 0.0,
                 3.5);
  svc.start();
  engine.run();
  ASSERT_GE(svc.history().size(), 3u);
  EXPECT_EQ(svc.history()[0].reconfig_ops, 1u);
  EXPECT_EQ(svc.history()[1].reconfig_ops, 0u);
  EXPECT_EQ(svc.history()[2].reconfig_ops, 0u);
  EXPECT_EQ(svc.total_reconfigs(), 1u);
}

TEST(ControllerService, PublishesRoutesIntoRuntime) {
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(1, 4);
  for (double& w : task.weights.data) w = 0.5;
  rt.deploy_engine(2, {}, 5).configure_gemv(task);

  std::vector<ctrl::transponder_info> inventory{
      {0, 2, {proto::primitive_id::p1_dot_product}, 1e6},
  };
  ctrl::service_config cfg;
  cfg.epoch_s = 0.5;
  ctrl::controller_service svc(engine, rt.fabric().topo(), inventory, cfg);
  svc.add_demand(simple_demand(0, 0, 3, proto::primitive_id::p1_dot_product),
                 0.0, 1.0);
  svc.set_publish_callback(
      [&rt](const std::vector<ctrl::compute_route_entry>& routes) {
        for (const auto& r : routes) {
          rt.set_compute_route(r.at, r.dst_prefix, r.primitive, r.next_hop);
        }
      });
  svc.start();

  // Send a compute packet after the first epoch installed routes.
  const std::vector<double> x(4, 0.5);
  engine.schedule_global(0.1, [&rt, x] {
    rt.submit(core::make_gemv_request(
                  rt.fabric().topo().node_at(0).address,
                  rt.fabric().topo().node_at(3).address, x, 1),
              0);
  });
  engine.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_EQ(rt.stats().computed, 1u);
}

TEST(ControllerService, ReconfigDowntimeAccounted) {
  net::shard_engine engine;
  const net::topology topo = net::make_figure1_topology();
  std::vector<ctrl::transponder_info> inventory{
      {0, 1, {proto::primitive_id::p1_p3_dnn}, 1e6},
  };
  ctrl::service_config cfg;
  cfg.epoch_s = 1.0;
  cfg.reconfig.task_bytes = 1e6;        // 1 MB model
  cfg.reconfig.control_rate_bps = 1e9;  // 8 ms transfer
  cfg.reconfig.install_s = 2e-3;
  ctrl::controller_service svc(engine, topo, inventory, cfg);
  svc.add_demand(simple_demand(0, 0, 3, proto::primitive_id::p1_p3_dnn), 0.0,
                 2.5);
  svc.start();
  engine.run();
  EXPECT_EQ(svc.total_reconfigs(), 1u);
  EXPECT_NEAR(svc.total_downtime_s(), 8e-3 + 2e-3, 1e-9);
  EXPECT_NEAR(cfg.reconfig.op_downtime_s(), 10e-3, 1e-9);
}

TEST(ControllerService, ExactSolverWorksInService) {
  net::shard_engine engine;
  const net::topology topo = net::make_figure1_topology();
  std::vector<ctrl::transponder_info> inventory{
      {0, 1, {proto::primitive_id::p2_pattern_match}, 1e6},
  };
  ctrl::service_config cfg;
  cfg.epoch_s = 1.0;
  cfg.solver = ctrl::solver_kind::exact;
  ctrl::controller_service svc(engine, topo, inventory, cfg);
  svc.add_demand(simple_demand(0, 0, 3, proto::primitive_id::p2_pattern_match),
                 0.0, 1.5);
  svc.start();
  engine.run();
  ASSERT_FALSE(svc.history().empty());
  EXPECT_DOUBLE_EQ(svc.history()[0].satisfied_value, 1.0);
}

TEST(ControllerService, Validation) {
  net::shard_engine engine;
  const net::topology topo = net::make_figure1_topology();
  ctrl::service_config bad;
  bad.epoch_s = 0.0;
  EXPECT_THROW(ctrl::controller_service(engine, topo, {}, bad),
               std::invalid_argument);
  ctrl::controller_service svc(engine, topo, {});
  EXPECT_THROW(
      svc.add_demand(simple_demand(0, 0, 3,
                                   proto::primitive_id::p3_nonlinear),
                     2.0, 1.0),
      std::invalid_argument);
}

// ---------------------------------------------------------- bit errors

TEST(BitErrors, CleanFabricByDefault) {
  net::shard_engine engine;
  net::wan_fabric fabric(engine, net::make_linear_topology(3, 10.0));
  fabric.install_shortest_path_routes();
  net::packet pkt;
  pkt.dst = fabric.topo().node_at(2).address;
  pkt.payload.assign(512, 0xAA);
  std::vector<std::uint8_t> delivered;
  fabric.set_deliver_callback(
      [&](const net::packet& p, net::node_id, double) {
        delivered = p.payload;
      });
  fabric.send(pkt, 0);
  engine.run();
  EXPECT_EQ(delivered, std::vector<std::uint8_t>(512, 0xAA));
  EXPECT_EQ(fabric.corrupted(), 0u);
}

TEST(BitErrors, HighBerFlipsBits) {
  net::shard_engine engine;
  net::wan_fabric fabric(engine, net::make_linear_topology(2, 10.0));
  fabric.install_shortest_path_routes();
  fabric.set_bit_error_rate(1e-3, 7);
  int changed = 0;
  fabric.set_deliver_callback(
      [&](const net::packet& p, net::node_id, double) {
        for (const auto b : p.payload) {
          if (b != 0xAA) ++changed;
        }
      });
  net::packet pkt;
  pkt.dst = fabric.topo().node_at(1).address;
  pkt.payload.assign(4096, 0xAA);  // ~33 expected flips at 1e-3
  fabric.send(pkt, 0);
  engine.run();
  EXPECT_GT(changed, 5);
  EXPECT_EQ(fabric.corrupted(), 1u);
}

TEST(BitErrors, CorruptedComputeHeadersDropped) {
  // End-to-end failure injection: with a harsh BER, corrupted compute
  // packets are caught by the header checksum and dropped instead of
  // being mis-executed.
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_linear_topology(4, 200.0));
  core::gemv_task task;
  task.weights = phot::matrix(1, 8);
  for (double& w : task.weights.data) w = 0.5;
  rt.deploy_engine(1, {}, 3).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();
  rt.fabric().set_bit_error_rate(2e-3, 11);

  const std::vector<double> x(8, 0.5);
  constexpr int packets = 50;
  for (int i = 0; i < packets; ++i) {
    rt.submit(core::make_gemv_request(
                  rt.fabric().topo().node_at(0).address,
                  rt.fabric().topo().node_at(3).address, x, 1,
                  static_cast<std::uint32_t>(i)),
              0);
  }
  engine.run();
  // Some were corrupted; every corruption in the header region must be
  // dropped (not delivered with a bogus header).
  EXPECT_GT(rt.fabric().corrupted(), 0u);
  EXPECT_GT(rt.stats().malformed_dropped, 0u);
  EXPECT_EQ(rt.deliveries().size() + rt.stats().malformed_dropped,
            static_cast<std::size_t>(packets));
  for (const auto& d : rt.deliveries()) {
    // Whatever got through parses cleanly.
    EXPECT_TRUE(proto::peek_compute_header(d.pkt).has_value());
  }
}

TEST(BitErrors, Validation) {
  net::shard_engine engine;
  net::wan_fabric fabric(engine, net::make_linear_topology(2, 10.0));
  EXPECT_THROW(fabric.set_bit_error_rate(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(fabric.set_bit_error_rate(1.0, 1), std::invalid_argument);
}

// ------------------------------------------------------- spread steering

TEST(SpreadSteering, SplitsFlowsAcrossReplicas) {
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(2, 8);
  for (double& w : task.weights.data) w = 0.5;
  rt.deploy_engine(1, {}, 21).configure_gemv(task);  // B
  rt.deploy_engine(2, {}, 22).configure_gemv(task);  // C replica
  rt.install_compute_routes_via_nearest_site();
  rt.set_steering_policy(
      core::onfiber_runtime::steering_policy::flow_spread);

  const std::vector<double> x(8, 0.5);
  phot::rng g(31);
  constexpr int packets = 40;
  for (int i = 0; i < packets; ++i) {
    net::packet pkt = core::make_gemv_request(
        rt.fabric().topo().node_at(0).address,
        rt.fabric().topo().node_at(3).address, x, 2,
        static_cast<std::uint32_t>(i));
    pkt.flow_hash = static_cast<std::uint32_t>(g());
    rt.submit(std::move(pkt), 0);
  }
  engine.run();
  EXPECT_EQ(rt.deliveries().size(), static_cast<std::size_t>(packets));
  EXPECT_EQ(rt.stats().computed, static_cast<std::uint64_t>(packets));
  // Both replicas did real work (hashes split the flows).
  EXPECT_GT(rt.site_busy_s(1), 0.0);
  EXPECT_GT(rt.site_busy_s(2), 0.0);
}

TEST(SpreadSteering, NearestPolicyUsesOneSite) {
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(2, 8);
  for (double& w : task.weights.data) w = 0.5;
  rt.deploy_engine(1, {}, 23).configure_gemv(task);
  rt.deploy_engine(2, {}, 24).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();  // default steering

  const std::vector<double> x(8, 0.5);
  phot::rng g(33);
  for (int i = 0; i < 20; ++i) {
    net::packet pkt = core::make_gemv_request(
        rt.fabric().topo().node_at(0).address,
        rt.fabric().topo().node_at(3).address, x, 2);
    pkt.flow_hash = static_cast<std::uint32_t>(g());
    rt.submit(std::move(pkt), 0);
  }
  engine.run();
  // All flows converge on one site under nearest steering; A->D traffic
  // transits B (shortest path via B or C tie-broken consistently).
  const bool one_sided =
      rt.site_busy_s(1) == 0.0 || rt.site_busy_s(2) == 0.0;
  EXPECT_TRUE(one_sided);
}

TEST(SpreadSteering, FollowsReconvergedRoutesAfterFlap) {
  // Regression: spread steering once read a first-hop matrix computed at
  // install time, so after A-B flapped and the routing plane
  // reconverged, flow_spread kept redirecting A's traffic for site B
  // straight into the dead link. It now forwards on the fabric's
  // installed routes (next_hop_to_node), so the post-reconvergence
  // packet detours via C.
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(2, 8);
  for (double& w : task.weights.data) w = 0.5;
  rt.deploy_engine(1, {}, 25).configure_gemv(task);  // B
  rt.deploy_engine(2, {}, 26).configure_gemv(task);  // C
  rt.install_compute_routes_via_nearest_site();
  rt.set_steering_policy(
      core::onfiber_runtime::steering_policy::flow_spread);

  // A-B down at 1 ms, reconverged at 1.5 ms, restored at 2 ms.
  const net::wan_fabric::link_flap flap{0, 0.001, 0.002};
  rt.fabric().schedule_flaps({&flap, 1}, 0.0005);

  const std::vector<double> x(8, 0.5);
  const auto send_at = [&](double t, std::uint32_t id) {
    engine.schedule_global(t, [&rt, &x, id] {
      net::packet pkt = core::make_gemv_request(
          rt.fabric().topo().node_at(0).address,
          rt.fabric().topo().node_at(3).address, x, 2, id);
      pkt.flow_hash = 0;  // candidates [B, C]: 0 % 2 -> site B
      rt.submit(std::move(pkt), 0);
    });
  };
  send_at(0.0012, 1);  // stale window: black-holed (intended behavior)
  send_at(0.0017, 2);  // post-reconvergence: must detour via C toward B
  engine.run();

  EXPECT_EQ(rt.fabric().drops().link_down, 1u);  // only the in-window one
  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_EQ(rt.stats().computed, 1u);
  // The detour toward B transits C, a capable site, so the compute
  // happens there — the point is the packet survived instead of chasing
  // the stale first hop into the dead A-B link.
  EXPECT_GT(rt.site_busy_s(2), 0.0);
  const auto h = proto::peek_compute_header(rt.deliveries()[0].pkt);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->task_id, 2u);
}

TEST(SpreadSteering, InstallInsideReconvergenceWindowFollowsInstalledRoutes) {
  // Compute routes installed between fail_link and the next
  // reconvergence. Spread steering forwards on the fabric's installed
  // routes, the ones the datapath uses — not on the live SPF trees,
  // which already detour via C — so inside the window it still sends
  // A's traffic for site B over the dead A-B link, like plain
  // forwarding.
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(2, 8);
  for (double& w : task.weights.data) w = 0.5;
  rt.deploy_engine(1, {}, 25).configure_gemv(task);  // B
  rt.deploy_engine(2, {}, 26).configure_gemv(task);  // C
  rt.fabric().fail_link(0);  // A-B down, routes not yet reinstalled
  rt.install_compute_routes_via_nearest_site();
  rt.set_steering_policy(
      core::onfiber_runtime::steering_policy::flow_spread);
  EXPECT_EQ(rt.fabric().next_hop_to_node(0, 1), 1u);  // installed: stale
  EXPECT_EQ(rt.fabric().spf().first_hop(0, 1), 2u);   // live: via C

  const std::vector<double> x(8, 0.5);
  const auto send_at = [&](double t, std::uint32_t id) {
    engine.schedule_global(t, [&rt, &x, id] {
      net::packet pkt = core::make_gemv_request(
          rt.fabric().topo().node_at(0).address,
          rt.fabric().topo().node_at(3).address, x, 2, id);
      pkt.flow_hash = 0;  // candidates [B, C]: 0 % 2 -> site B
      rt.submit(std::move(pkt), 0);
    });
  };
  send_at(0.001, 1);  // window: black-holed into A-B
  engine.schedule_global(0.002,
                         [&rt] { rt.fabric().install_shortest_path_routes(); });
  send_at(0.003, 2);  // reconverged: detours via C toward B
  engine.run();

  EXPECT_EQ(rt.fabric().drops().link_down, 1u);
  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_GT(rt.site_busy_s(2), 0.0);
  const auto h = proto::peek_compute_header(rt.deliveries()[0].pkt);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->task_id, 2u);
}

// --------------------------------------------------------- link failures

TEST(LinkFailure, TrafficBlackholedUntilReconvergence) {
  net::shard_engine engine;
  // Figure-1: A->D shortest goes A-B-D (link 0 then 2).
  net::wan_fabric fabric(engine, net::make_figure1_topology());
  fabric.install_shortest_path_routes();

  const auto send_one = [&] {
    net::packet pkt;
    pkt.src = fabric.topo().node_at(0).address;
    pkt.dst = fabric.topo().node_at(3).address;
    fabric.send(pkt, 0);
    engine.run();
  };

  send_one();
  EXPECT_EQ(fabric.delivered(), 1u);

  // Fail A-B (link 0). Routes still point at it: packet black-holed.
  fabric.fail_link(0);
  EXPECT_FALSE(fabric.spf().link_up(0));
  send_one();
  EXPECT_EQ(fabric.delivered(), 1u);
  EXPECT_EQ(fabric.dropped(), 1u);

  // Reconverge: traffic flows via C.
  fabric.install_shortest_path_routes();
  send_one();
  EXPECT_EQ(fabric.delivered(), 2u);

  // Restore + reconverge: back to normal.
  fabric.restore_link(0);
  fabric.install_shortest_path_routes();
  send_one();
  EXPECT_EQ(fabric.delivered(), 3u);
}

TEST(LinkFailure, PartitionRetractsRoutes) {
  net::shard_engine engine;
  net::wan_fabric fabric(engine, net::make_linear_topology(3, 50.0));
  fabric.install_shortest_path_routes();
  fabric.fail_link(1);  // cut 1-2: node 2 unreachable
  fabric.install_shortest_path_routes();
  net::packet pkt;
  pkt.src = fabric.topo().node_at(0).address;
  pkt.dst = fabric.topo().node_at(2).address;
  fabric.send(pkt, 0);
  engine.run();
  // No stale route: dropped for lack of a route, not looped.
  EXPECT_EQ(fabric.delivered(), 0u);
  EXPECT_EQ(fabric.dropped(), 1u);
}

TEST(LinkFailure, ComputePathSurvivesViaAlternateSite) {
  // Fig-1 with engines at B and C under spread steering: failing the A-B
  // link and reconverging, flows still reach an engine via C.
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(1, 4);
  for (double& w : task.weights.data) w = 0.5;
  rt.deploy_engine(1, {}, 61).configure_gemv(task);
  rt.deploy_engine(2, {}, 62).configure_gemv(task);
  rt.fabric().fail_link(0);  // A-B down
  rt.fabric().install_shortest_path_routes();
  rt.install_compute_routes_via_nearest_site();

  const std::vector<double> x(4, 0.5);
  rt.submit(core::make_gemv_request(rt.fabric().topo().node_at(0).address,
                                    rt.fabric().topo().node_at(3).address, x,
                                    1),
            0);
  engine.run();
  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_EQ(rt.stats().computed, 1u);
  EXPECT_GT(rt.site_busy_s(2), 0.0);  // served by C
  EXPECT_DOUBLE_EQ(rt.site_busy_s(1), 0.0);
}

// -------------------------------------------------------------- waxman

TEST(Waxman, DeterministicAndConnected) {
  const net::topology a = net::make_waxman_topology(24, 9);
  const net::topology b = net::make_waxman_topology(24, 9);
  ASSERT_EQ(a.node_count(), 24u);
  EXPECT_EQ(a.links().size(), b.links().size());
  for (net::node_id v = 1; v < a.node_count(); ++v) {
    EXPECT_FALSE(a.shortest_path(0, v).empty()) << "node " << v;
  }
}

TEST(Waxman, MoreAlphaMoreLinks) {
  const net::topology sparse = net::make_waxman_topology(32, 5, 0.1, 0.25);
  const net::topology dense = net::make_waxman_topology(32, 5, 0.9, 0.25);
  EXPECT_GT(dense.links().size(), sparse.links().size());
}

TEST(Waxman, Validation) {
  EXPECT_THROW((void)net::make_waxman_topology(1, 1), std::invalid_argument);
  EXPECT_THROW((void)net::make_waxman_topology(8, 1, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace onfiber
