// Tests for batched inference (header `batch` field): one packet carries
// many samples, amortizing the per-packet overheads at a compute site.
#include <gtest/gtest.h>

#include "apps/ml_inference.hpp"
#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "core/runtime.hpp"
#include "digital/dnn.hpp"

namespace onfiber {
namespace {

digital::dnn_model trained_model(const digital::dataset& data) {
  return digital::train_mlp(data, {12}, 40, 0.08, 11,
                            digital::activation_kind::photonic_sin2, 2.0);
}

TEST(Batching, HeaderFieldRoundTrips) {
  proto::compute_header h;
  h.batch = 17;
  const auto r = proto::parse(proto::serialize(h));
  ASSERT_TRUE(r);
  EXPECT_EQ(r.header.batch, 17);
  // A zero on the wire reads back as 1 (legacy packets pre-batching).
  proto::compute_header legacy;
  legacy.batch = 0;
  EXPECT_EQ(proto::parse(proto::serialize(legacy)).header.batch, 1);
}

TEST(Batching, BatchedDnnMatchesSingles) {
  const auto data = digital::make_synthetic_dataset(16, 4, 2, 0.08, 7);
  const auto model = trained_model(data);

  // Batched: 8 samples in one packet.
  std::vector<double> flat;
  for (const auto& s : data.samples) flat.insert(flat.end(), s.begin(), s.end());
  core::photonic_engine batched_engine({}, 99);
  batched_engine.configure_dnn(apps::to_photonic_task(model));
  net::packet pkt = core::make_dnn_batch_request(
      net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1), flat, 16,
      model.output_dim());
  ASSERT_TRUE(batched_engine.process(pkt).computed);
  const auto batch = core::read_dnn_batch_result(pkt);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), data.samples.size());

  // Singles on an identically seeded engine.
  core::photonic_engine single_engine({}, 99);
  single_engine.configure_dnn(apps::to_photonic_task(model));
  for (std::size_t i = 0; i < data.samples.size(); ++i) {
    net::packet one = core::make_dnn_request(
        net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1), data.samples[i],
        model.output_dim());
    ASSERT_TRUE(single_engine.process(one).computed);
    const auto r = core::read_dnn_result(one);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ((*batch)[i].predicted_class, r->predicted_class)
        << "sample " << i;
  }
}

TEST(Batching, FirstSampleReaderWorksOnBatch) {
  const auto data = digital::make_synthetic_dataset(16, 4, 3, 0.08, 7);
  const auto model = trained_model(data);
  std::vector<double> flat;
  for (const auto& s : data.samples) flat.insert(flat.end(), s.begin(), s.end());
  core::photonic_engine engine({}, 5);
  engine.configure_dnn(apps::to_photonic_task(model));
  net::packet pkt = core::make_dnn_batch_request(
      net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1), flat, 16,
      model.output_dim());
  ASSERT_TRUE(engine.process(pkt).computed);
  const auto first = core::read_dnn_result(pkt);
  const auto all = core::read_dnn_batch_result(pkt);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(first->predicted_class, (*all)[0].predicted_class);
  EXPECT_EQ(first->logits.size(), (*all)[0].logits.size());
}

TEST(Batching, GemvBatchComputesEachSample) {
  core::photonic_engine engine({}, 7);
  core::gemv_task task;
  task.weights = phot::matrix(1, 2);
  task.weights.at(0, 0) = 1.0;
  engine.configure_gemv(task);
  // Two samples: [0.8, 0] and [-0.6, 0].
  net::packet pkt = core::make_gemv_request(
      net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1),
      std::vector<double>{0.8, 0.0, -0.6, 0.0}, 2);
  auto h = proto::peek_compute_header(pkt);
  h->batch = 2;
  ASSERT_TRUE(proto::rewrite_compute_header(pkt, *h));
  ASSERT_TRUE(engine.process(pkt).computed);
  const auto result = core::read_gemv_result(pkt);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_NEAR((*result)[0], 0.8, 0.15);
  EXPECT_NEAR((*result)[1], -0.6, 0.15);
}

TEST(Batching, WrongSizeRejected) {
  const auto data = digital::make_synthetic_dataset(16, 4, 2, 0.08, 7);
  const auto model = trained_model(data);
  core::photonic_engine engine({}, 9);
  engine.configure_dnn(apps::to_photonic_task(model));
  net::packet pkt = core::make_dnn_batch_request(
      net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1),
      std::vector<double>(32, 0.5), 16, model.output_dim());
  auto h = proto::peek_compute_header(pkt);
  h->batch = 3;  // claims 3 samples, carries 2
  ASSERT_TRUE(proto::rewrite_compute_header(pkt, *h));
  EXPECT_FALSE(engine.process(pkt).computed);
}

TEST(Batching, BuilderValidation) {
  EXPECT_THROW((void)core::make_dnn_batch_request(
                   net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1),
                   std::vector<double>(10, 0.5), 16, 4),
               std::invalid_argument);  // not a multiple of in_dim
  EXPECT_THROW((void)core::make_dnn_batch_request(
                   net::ipv4(1, 0, 0, 1), net::ipv4(2, 0, 0, 1),
                   std::vector<double>(16 * 300, 0.5), 16, 4),
               std::invalid_argument);  // batch > 255
}

TEST(Batching, AmortizesSiteOverheadOnTheWan) {
  // 16 samples as 16 packets vs 1 batched packet: the batch spends far
  // less wall-clock at the site (one preamble + one queueing slot).
  const auto data = digital::make_synthetic_dataset(16, 4, 4, 0.08, 7);
  const auto model = trained_model(data);
  std::vector<double> flat;
  for (const auto& s : data.samples) flat.insert(flat.end(), s.begin(), s.end());

  const auto run = [&](bool batched) {
    net::shard_engine engine;
    core::onfiber_runtime rt(engine, net::make_figure1_topology());
    rt.deploy_engine(1, {}, 42).configure_dnn(apps::to_photonic_task(model));
    rt.install_compute_routes_via_nearest_site();
    const net::ipv4 src = rt.fabric().topo().node_at(0).address;
    const net::ipv4 dst = rt.fabric().topo().node_at(3).address;
    if (batched) {
      rt.submit(core::make_dnn_batch_request(src, dst, flat, 16,
                                             model.output_dim()),
                0);
    } else {
      for (const auto& s : data.samples) {
        rt.submit(core::make_dnn_request(src, dst, s, model.output_dim()),
                  0);
      }
    }
    engine.run();
    std::size_t results = 0;
    for (const auto& d : rt.deliveries()) {
      const auto all = core::read_dnn_batch_result(d.pkt);
      if (all) results += all->size();
    }
    return std::pair(results, rt.site_busy_s(1));
  };

  const auto [n_single, busy_single] = run(false);
  const auto [n_batch, busy_batch] = run(true);
  EXPECT_EQ(n_single, 16u);
  EXPECT_EQ(n_batch, 16u);
  // Same analog compute, but 15 fewer preamble/insertion overheads.
  EXPECT_LT(busy_batch, busy_single);
}

TEST(Batching, SiteBatchingPoolsArrivingPackets) {
  // Site batching (runtime opt-in): 16 per-sample packets arriving within
  // the window execute as ONE process_batch() flush — all samples pool
  // into layer-major GEMMs and the site pays the preamble/insertion
  // overhead once — versus 16 serial engine runs without it.
  const auto data = digital::make_synthetic_dataset(16, 4, 4, 0.08, 7);
  const auto model = trained_model(data);

  const auto run = [&](bool batching) {
    net::shard_engine engine;
    core::onfiber_runtime rt(engine, net::make_figure1_topology());
    rt.deploy_engine(1, {}, 42).configure_dnn(apps::to_photonic_task(model));
    rt.install_compute_routes_via_nearest_site();
    if (batching) rt.enable_site_batching(50e-6);
    const net::ipv4 src = rt.fabric().topo().node_at(0).address;
    const net::ipv4 dst = rt.fabric().topo().node_at(3).address;
    for (std::size_t i = 0; i < data.samples.size(); ++i) {
      rt.submit(core::make_dnn_request(src, dst, data.samples[i],
                                       model.output_dim(),
                                       static_cast<std::uint32_t>(i)),
                0);
    }
    engine.run();
    std::size_t results = 0;
    for (const auto& d : rt.deliveries()) {
      if (core::read_dnn_result(d.pkt)) ++results;
    }
    return std::tuple(results, rt.site_busy_s(1), rt.stats());
  };

  const auto [n_plain, busy_plain, stats_plain] = run(false);
  const auto [n_batch, busy_batch, stats_batch] = run(true);
  EXPECT_EQ(n_plain, 16u);
  EXPECT_EQ(n_batch, 16u);
  EXPECT_EQ(stats_batch.computed, 16u);
  EXPECT_EQ(stats_batch.uncomputed_delivered, 0u);
  EXPECT_EQ(stats_batch.malformed_dropped, 0u);
  // One flush: 15 fewer site overheads than per-packet processing.
  EXPECT_LT(busy_batch, busy_plain);
}

}  // namespace
}  // namespace onfiber
