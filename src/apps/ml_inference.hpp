// ml_inference.hpp — Table 1, C1: machine learning inference on fiber.
//
// Maps a trained digital::dnn_model onto the photonic engine's fused
// P1+P3 DNN task and evaluates it three ways:
//   * accuracy: photonic (noisy, quantized) vs float reference vs int8
//     digital, over the synthetic dataset;
//   * deployment latency: cloud offload (detour to a datacenter node) vs
//     edge device (slow local compute) vs on-fiber (computed in transit) —
//     the §4 comparison that motivates the whole paper.
#pragma once

#include <cstdint>
#include <vector>

#include "core/photonic_engine.hpp"
#include "digital/dnn.hpp"
#include "network/topology.hpp"

namespace onfiber::apps {

/// Convert a trained model into the engine's task form.
[[nodiscard]] core::dnn_task to_photonic_task(const digital::dnn_model& model);

/// Classification accuracy of the photonic engine on a dataset. Each
/// sample is wrapped in a compute packet, and the packets go through
/// photonic_engine::process_batch in chunks of `batch_size` — the same
/// code path packets take at a network site. A chunk's layers run as
/// pooled GEMMs (weight rails split once per row per chunk); at the
/// default of 1 every packet is a batch of one, the per-packet datapath.
/// Larger chunks draw noise in a different order, so accuracy is
/// statistically equivalent rather than bit-identical across sizes.
struct photonic_eval {
  double accuracy = 0.0;
  double mean_compute_latency_s = 0.0;
  std::uint64_t optical_symbols = 0;
};
[[nodiscard]] photonic_eval evaluate_photonic(core::photonic_engine& engine,
                                              const digital::dnn_model& model,
                                              const digital::dataset& data,
                                              std::size_t batch_size = 1);

/// Deployment latency model for one inference request of `input_bytes`
/// issued at `src` for a consumer at `dst` (§4's three compute locations).
struct deployment_latency {
  double cloud_s = 0.0;     ///< src -> datacenter -> dst + accelerator time
  double edge_s = 0.0;      ///< compute at src on an edge CPU, then send
  double on_fiber_s = 0.0;  ///< compute in transit at a site on the path
};
[[nodiscard]] deployment_latency compare_deployments(
    const net::topology& topo, net::node_id src, net::node_id dst,
    net::node_id cloud, net::node_id on_fiber_site,
    const digital::dnn_model& model, double photonic_compute_s);

}  // namespace onfiber::apps
