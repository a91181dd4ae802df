// wan_inference.cpp — the paper's Figure-1 scenario, end to end.
//
// A 4-node WAN (A, B, C, D). A photonic compute transponder at site C is
// configured with a trained DNN (image recognition). A phone at site A
// sends images to a user at site D; the classification result is computed
// *while the packet crosses the WAN* and arrives at D inside the packet.
#include <cstdio>

#include "apps/ml_inference.hpp"
#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "digital/dnn.hpp"

using namespace onfiber;

int main() {
  std::printf("Figure-1 scenario: on-fiber image recognition A -> C -> D\n\n");

  // 1. Train a model (stands in for the models the controller distributes
  //    "across network devices in advance", §4). Photonic-aware training
  //    uses the P3 transfer as the activation so the analog engine
  //    reproduces the trained behaviour.
  const auto data = digital::make_synthetic_dataset(
      /*dim=*/16, /*classes=*/4, /*per_class=*/25, /*sigma=*/0.08, 7);
  const auto model =
      digital::train_mlp(data, {12}, 40, 0.08, 11,
                         digital::activation_kind::photonic_sin2, 2.0);
  std::printf("trained model: 16-12-4 MLP, reference accuracy %.1f%%\n",
              100.0 * digital::reference_accuracy(model, data));

  // 2. Build the WAN and deploy the photonic compute transponder at C.
  net::shard_engine engine;
  core::onfiber_runtime runtime(engine, net::make_figure1_topology());
  core::photonic_engine& site_c = runtime.deploy_engine(/*node=*/2, {}, 99);
  site_c.configure_dnn(apps::to_photonic_task(model));
  runtime.install_compute_routes_via_nearest_site();

  // 3. Send 10 "images" from A addressed to D.
  const net::ipv4 phone = runtime.fabric().topo().node_at(0).address;
  const net::ipv4 viewer = runtime.fabric().topo().node_at(3).address;
  for (std::uint32_t i = 0; i < 10; ++i) {
    runtime.submit(core::make_dnn_request(phone, viewer, data.samples[i * 9],
                                          model.output_dim(), i),
                   /*ingress=*/0);
  }
  engine.run();

  // 4. At D, read the results out of the delivered packets.
  std::printf("\n%-8s %-12s %-10s %-12s\n", "image", "predicted", "label",
              "latency");
  int correct = 0;
  for (const auto& d : runtime.deliveries()) {
    const auto h = proto::peek_compute_header(d.pkt);
    const auto result = core::read_dnn_result(d.pkt);
    if (!h || !result) continue;
    const bool ok =
        result->predicted_class == data.labels[h->task_id * 9];
    correct += ok;
    std::printf("%-8u class %-6u %-10zu %8.3f ms %s\n", h->task_id,
                result->predicted_class, data.labels[h->task_id * 9],
                (d.time_s - d.pkt.created_s) * 1e3, ok ? "" : "  <-- wrong");
  }
  std::printf(
      "\n%d/10 correct; computed at site C in transit "
      "(%llu computed, %llu redirected, %llu reached D uncomputed)\n",
      correct,
      static_cast<unsigned long long>(runtime.stats().computed),
      static_cast<unsigned long long>(runtime.stats().redirected),
      static_cast<unsigned long long>(runtime.stats().uncomputed_delivered));
  return 0;
}
