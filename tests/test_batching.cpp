// Tests for batched inference (header `batch` field): one packet carries
// many samples, amortizing the per-packet overheads at a compute site.
#include <gtest/gtest.h>

#include <functional>

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

/// The result bytes a computed packet carries.
std::vector<std::uint8_t> result_bytes(const net::packet& pkt) {
  const auto h = proto::peek_compute_header(pkt);
  if (!h) return {};
  const std::size_t begin = proto::compute_header_bytes + h->result_offset;
  if (begin + h->result_length > pkt.payload.size()) return {};
  return {pkt.payload.begin() + static_cast<std::ptrdiff_t>(begin),
          pkt.payload.begin() +
              static_cast<std::ptrdiff_t>(begin + h->result_length)};
}

/// Runs `batched` through process() on one engine and `singles` through
/// one process_batch() on an identically seeded twin: the engine's one
/// compute path pools the same samples in the same order either way, so
/// the results (concatenated) and the costs must match exactly.
void expect_batch_matches_singles(
    const std::function<void(core::photonic_engine&)>& configure,
    net::packet batched, std::vector<net::packet> singles) {
  core::photonic_engine batched_engine({}, 99);
  core::photonic_engine single_engine({}, 99);
  configure(batched_engine);
  configure(single_engine);

  const core::engine_report rb = batched_engine.process(batched);
  ASSERT_TRUE(rb.computed);
  std::vector<net::packet*> ptrs;
  for (net::packet& p : singles) ptrs.push_back(&p);
  const core::batch_report rs = single_engine.process_batch(ptrs);
  ASSERT_EQ(rs.computed_packets, singles.size());

  std::vector<std::uint8_t> joined;
  for (const net::packet& p : singles) {
    const auto r = result_bytes(p);
    joined.insert(joined.end(), r.begin(), r.end());
  }
  EXPECT_EQ(result_bytes(batched), joined);
  EXPECT_EQ(rb.compute_latency_s, rs.compute_latency_s);
  EXPECT_EQ(rb.optical_symbols, rs.optical_symbols);
  EXPECT_EQ(rb.input_conversions, rs.input_conversions);
}

TEST(Batching, BatchedDnnMatchesSingles) {
  const auto data = digital::make_synthetic_dataset(16, 4, 2, 0.08, 7);
  const auto model = trained_model(data);
  const net::ipv4 src(1, 0, 0, 1), dst(2, 0, 0, 1);

  // 8 samples in one packet vs one single-sample packet each.
  std::vector<double> flat;
  for (const auto& s : data.samples) flat.insert(flat.end(), s.begin(), s.end());
  std::vector<net::packet> singles;
  for (const auto& s : data.samples) {
    singles.push_back(core::make_dnn_request(src, dst, s, model.output_dim()));
  }
  expect_batch_matches_singles(
      [&](core::photonic_engine& e) {
        e.configure_dnn(apps::to_photonic_task(model));
      },
      core::make_dnn_batch_request(src, dst, flat, 16, model.output_dim()),
      std::move(singles));
}

TEST(Batching, BatchedGemvMatchesSingles) {
  const net::ipv4 src(1, 0, 0, 1), dst(2, 0, 0, 1);
  core::gemv_task task;
  task.weights = phot::matrix(3, 4);
  for (std::size_t i = 0; i < task.weights.data.size(); ++i) {
    task.weights.data[i] = 0.2 * static_cast<double>(i % 7) - 0.6;
  }
  task.bias.assign(3, 0.05);

  // 5 samples in one packet vs one single-sample packet each.
  std::vector<double> flat;
  std::vector<net::packet> singles;
  for (std::size_t b = 0; b < 5; ++b) {
    std::vector<double> x(4);
    for (std::size_t k = 0; k < x.size(); ++k) {
      x[k] = static_cast<double>((3 * b + 5 * k) % 9) / 4.0 - 1.0;
    }
    flat.insert(flat.end(), x.begin(), x.end());
    singles.push_back(core::make_gemv_request(src, dst, x, 3));
  }
  net::packet batched = core::make_gemv_request(src, dst, flat, 3 * 5);
  auto h = proto::peek_compute_header(batched);
  h->batch = 5;
  ASSERT_TRUE(proto::rewrite_compute_header(batched, *h));
  expect_batch_matches_singles(
      [&](core::photonic_engine& e) { e.configure_gemv(task); },
      std::move(batched), std::move(singles));
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

TEST(Batching, WrongShapeAtCapableSiteDeliversUncomputed) {
  // A parseable DNN packet whose header claims 3 samples but carries 2
  // reaches the DNN site: the site must forward it raw, not compute,
  // admit or drop it.
  const auto data = digital::make_synthetic_dataset(16, 4, 2, 0.08, 7);
  const auto model = trained_model(data);
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 42).configure_dnn(apps::to_photonic_task(model));
  rt.install_compute_routes_via_nearest_site();
  net::packet pkt = core::make_dnn_batch_request(
      rt.fabric().topo().node_at(0).address,
      rt.fabric().topo().node_at(3).address, std::vector<double>(32, 0.5),
      16, model.output_dim());
  auto h = proto::peek_compute_header(pkt);
  h->batch = 3;
  ASSERT_TRUE(proto::rewrite_compute_header(pkt, *h));
  rt.submit(std::move(pkt), 0);
  engine.run();

  ASSERT_EQ(rt.deliveries().size(), 1u);
  EXPECT_FALSE(core::read_dnn_result(rt.deliveries()[0].pkt).has_value());
  EXPECT_EQ(rt.stats().uncomputed_delivered, 1u);
  EXPECT_EQ(rt.stats().computed, 0u);
  EXPECT_EQ(rt.stats().malformed_dropped, 0u);
  EXPECT_EQ(rt.admission().admitted, 0u);
}

}  // namespace
}  // namespace onfiber
