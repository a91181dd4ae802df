// E5 — Fig. 1: end-to-end on-fiber computing scenario.
//
// The paper's motivating picture: source site A sends to destination D;
// packet classification runs at site B for one flow and image recognition
// at site C for another — *while the packets are in flight*. Compared
// against the status quo: detour the packets to a cloud datacenter, or
// compute on the end host.
#include <cstdio>
#include <vector>

#include "apps/ml_inference.hpp"
#include "bench_util.hpp"
#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "digital/dnn.hpp"
#include "network/stats.hpp"

using namespace onfiber;
using namespace onfiber::bench;

int main() {
  banner("E5 / Fig. 1", "end-to-end on-fiber computing on the A-B-C-D WAN");

  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());

  // Site B: packet classification (P2); site C: image recognition (DNN).
  core::match_task classifier;
  const std::vector<std::uint8_t> class_http{0x48};  // 'H'
  const std::vector<std::uint8_t> class_dns{0x11};
  classifier.patterns.push_back(
      phot::to_ternary(phot::bytes_to_bits(class_http)));
  classifier.patterns.push_back(
      phot::to_ternary(phot::bytes_to_bits(class_dns)));
  rt.deploy_engine(1, {}, 11).configure_match(classifier);

  const auto data = digital::make_synthetic_dataset(16, 4, 40, 0.08, 7);
  const auto model =
      digital::train_mlp(data, {12}, 40, 0.08, 11,
                         digital::activation_kind::photonic_sin2, 2.0);
  rt.deploy_engine(2, {}, 12).configure_dnn(apps::to_photonic_task(model));
  rt.install_compute_routes_via_nearest_site();

  const net::ipv4 src = rt.fabric().topo().node_at(0).address;
  const net::ipv4 dst = rt.fabric().topo().node_at(3).address;

  // Launch 40 classification packets and 40 inference packets.
  constexpr int per_app = 40;
  for (int i = 0; i < per_app; ++i) {
    rt.submit(core::make_match_request(src, dst,
                                       i % 2 == 0 ? class_http : class_dns,
                                       static_cast<std::uint32_t>(i)),
              0);
    rt.submit(core::make_dnn_request(
                  src, dst, data.samples[static_cast<std::size_t>(i)],
                  model.output_dim(),
                  static_cast<std::uint32_t>(1000 + i)),
              0);
  }
  engine.run();

  net::summary classify_latency, infer_latency;
  int classify_correct = 0, infer_correct = 0;
  for (const auto& d : rt.deliveries()) {
    const auto h = proto::peek_compute_header(d.pkt);
    if (!h) continue;
    if (h->task_id < 1000) {
      classify_latency.add(d.time_s - d.pkt.created_s);
      const auto r = core::read_match_result(d.pkt);
      const std::uint8_t expected = h->task_id % 2 == 0 ? 0 : 1;
      if (r && *r == expected) ++classify_correct;
    } else {
      infer_latency.add(d.time_s - d.pkt.created_s);
      const auto r = core::read_dnn_result(d.pkt);
      const std::size_t idx = h->task_id - 1000;
      if (r && r->predicted_class == data.labels[idx]) ++infer_correct;
    }
  }

  note("per-application results (computed in transit)");
  std::printf("  %-24s %10s %12s %12s %10s\n", "application", "packets",
              "p50 latency", "p99 latency", "correct");
  std::printf("  %-24s %10zu %12s %12s %9.1f%%\n",
              "packet classification (B)", classify_latency.count(),
              fmt_time(classify_latency.percentile(50)).c_str(),
              fmt_time(classify_latency.percentile(99)).c_str(),
              100.0 * classify_correct / per_app);
  std::printf("  %-24s %10zu %12s %12s %9.1f%%\n", "image recognition (C)",
              infer_latency.count(),
              fmt_time(infer_latency.percentile(50)).c_str(),
              fmt_time(infer_latency.percentile(99)).c_str(),
              100.0 * infer_correct / per_app);
  std::printf("  runtime: computed=%llu redirected=%llu uncomputed=%llu\n",
              static_cast<unsigned long long>(rt.stats().computed),
              static_cast<unsigned long long>(rt.stats().redirected),
              static_cast<unsigned long long>(
                  rt.stats().uncomputed_delivered));

  // ---- vs cloud / edge deployments ---------------------------------------
  // The three §4 compute locations, at a scale where their bottlenecks
  // bite: a continental path (Seattle -> Boston on the US-WAN), a cloud
  // datacenter off the path (Houston), an on-fiber site on the path
  // (Chicago), and a ResNet-scale model (too big for the edge CPU). The
  // photonic engine is WDM-parallel: 64 wavelength lanes at 10 GBd (the
  // architecture of [50]; our time-multiplexed unit is one lane).
  note("");
  note("inference deployment comparison, Seattle -> Boston, 100M-MAC model");
  {
    const net::topology uswan = net::make_uswan_topology();
    digital::dnn_model big;
    for (int l = 0; l < 6; ++l) {
      digital::dense_layer layer;
      layer.weights = phot::matrix(4096, 4096);
      layer.bias.assign(4096, 0.0);
      layer.relu = l < 5;
      big.layers.push_back(std::move(layer));
    }
    const double macs = static_cast<double>(big.mac_count());
    constexpr double wdm_lanes = 64.0;
    constexpr double symbol_rate = 10e9;
    const double photonic_compute_s =
        macs * 4.0 / (wdm_lanes * symbol_rate);  // 4 differential passes

    const auto lat = apps::compare_deployments(
        uswan, /*src=*/0, /*dst=*/11, /*cloud=*/5, /*site=*/7, big,
        photonic_compute_s);
    std::printf("  model: %.0fM MACs; photonic engine: %.0f lanes x %.0f GBd\n",
                macs / 1e6, wdm_lanes, symbol_rate / 1e9);
    std::printf("  %-28s %12s\n", "cloud offload (via Houston)",
                fmt_time(lat.cloud_s).c_str());
    std::printf("  %-28s %12s\n", "edge CPU at source",
                fmt_time(lat.edge_s).c_str());
    std::printf("  %-28s %12s   <-- on-fiber wins\n",
                "on-fiber (Chicago, on path)",
                fmt_time(lat.on_fiber_s).c_str());
  }

  std::printf("\n");
  return 0;
}
