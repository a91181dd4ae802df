// Compile-and-link check of the umbrella header plus a few cross-module
// smoke assertions — guarantees `#include "onfiber.hpp"` keeps working as
// the library grows.
#include "onfiber.hpp"

#include <gtest/gtest.h>

namespace onfiber {
namespace {

TEST(Umbrella, EveryLayerReachable) {
  // photonics
  phot::rng gen(1);
  EXPECT_GE(gen.uniform(), 0.0);
  EXPECT_GT(phot::p1_lane_area_mm2(), 0.0);
  // network
  const net::topology topo = net::make_figure1_topology();
  EXPECT_EQ(topo.node_count(), 4u);
  // protocol
  EXPECT_EQ(proto::compute_header_bytes, 24u);
  // core
  core::photonic_engine engine({}, 2);
  EXPECT_TRUE(engine.supports(proto::primitive_id::p3_nonlinear));
  // controller
  ctrl::allocation_problem problem;
  problem.topo = &topo;
  EXPECT_EQ(ctrl::solve_greedy(problem).satisfied_value, 0.0);
  // digital
  EXPECT_GT(digital::make_tpu_model().clock_hz, 0.0);
  // apps
  EXPECT_EQ(apps::make_edge_kernel_bank().kernels.size(), 5u);
}

TEST(Umbrella, ThreeStageChainEndToEnd) {
  // P1 -> P3 -> P3: maximum chain depth through one engine.
  core::photonic_engine engine({}, 3);
  core::gemv_task task;
  task.weights = phot::matrix(4, 8);
  for (double& w : task.weights.data) w = 0.5;
  task.relu_output = true;
  engine.configure_gemv(task);

  const std::vector<double> x(8, 0.6);
  const std::vector<proto::primitive_id> stages{
      proto::primitive_id::p1_dot_product, proto::primitive_id::p3_nonlinear,
      proto::primitive_id::p3_nonlinear};
  net::packet pkt = core::make_chain_request(
      net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1), stages, x,
      /*result_capacity=*/4 * 3);
  for (int stage = 0; stage < 3; ++stage) {
    ASSERT_TRUE(engine.process(pkt).computed) << "stage " << stage;
  }
  const auto h = proto::peek_compute_header(pkt);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->has_result());
  EXPECT_EQ(h->hops, 3);
  EXPECT_FALSE(engine.process(pkt).computed);  // chain complete
  EXPECT_TRUE(core::read_nonlinear_result(pkt).has_value());
}

}  // namespace
}  // namespace onfiber
