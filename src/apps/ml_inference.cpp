#include "apps/ml_inference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/compute_packets.hpp"
#include "digital/device_model.hpp"
#include "network/spf.hpp"

namespace onfiber::apps {

core::dnn_task to_photonic_task(const digital::dnn_model& model) {
  if (model.layers.empty()) {
    throw std::invalid_argument("to_photonic_task: empty model");
  }
  core::dnn_task task;
  for (const auto& layer : model.layers) {
    core::photonic_layer pl;
    pl.weights = layer.weights;
    pl.bias = layer.bias;
    pl.activation = layer.relu;
    pl.activation_scale = model.activation_scale;
    task.layers.push_back(std::move(pl));
  }
  return task;
}

photonic_eval evaluate_photonic(core::photonic_engine& engine,
                                const digital::dnn_model& model,
                                const digital::dataset& data) {
  if (!engine.supports(proto::primitive_id::p1_p3_dnn)) {
    throw std::invalid_argument("evaluate_photonic: engine lacks DNN task");
  }
  photonic_eval eval;
  std::size_t correct = 0;
  double total_latency = 0.0;
  const net::ipv4 src(10, 0, 0, 2);
  const net::ipv4 dst(10, 0, 1, 2);
  for (std::size_t i = 0; i < data.samples.size(); ++i) {
    net::packet pkt = core::make_dnn_request(
        src, dst, data.samples[i], model.output_dim(),
        static_cast<std::uint32_t>(i));
    const core::engine_report report = engine.process(pkt);
    if (!report.computed) {
      throw std::runtime_error("evaluate_photonic: engine did not compute");
    }
    total_latency += report.compute_latency_s;
    eval.optical_symbols += report.optical_symbols;
    const auto result = core::read_dnn_result(pkt);
    if (result && result->predicted_class == data.labels[i]) ++correct;
  }
  const auto n = static_cast<double>(data.samples.size());
  eval.accuracy = n > 0 ? static_cast<double>(correct) / n : 0.0;
  eval.mean_compute_latency_s = n > 0 ? total_latency / n : 0.0;
  return eval;
}

photonic_eval evaluate_photonic_batched(core::photonic_engine& engine,
                                        const digital::dnn_model& model,
                                        const digital::dataset& data,
                                        std::size_t batch_size) {
  if (!engine.supports(proto::primitive_id::p1_p3_dnn)) {
    throw std::invalid_argument(
        "evaluate_photonic_batched: engine lacks DNN task");
  }
  if (batch_size == 0) {
    throw std::invalid_argument("evaluate_photonic_batched: batch_size 0");
  }
  photonic_eval eval;
  std::size_t correct = 0;
  double total_latency = 0.0;
  const net::ipv4 src(10, 0, 0, 2);
  const net::ipv4 dst(10, 0, 1, 2);
  for (std::size_t begin = 0; begin < data.samples.size();
       begin += batch_size) {
    const std::size_t end =
        std::min(begin + batch_size, data.samples.size());
    std::vector<net::packet> packets;
    packets.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      packets.push_back(core::make_dnn_request(
          src, dst, data.samples[i], model.output_dim(),
          static_cast<std::uint32_t>(i)));
    }
    std::vector<net::packet*> ptrs;
    ptrs.reserve(packets.size());
    for (net::packet& p : packets) ptrs.push_back(&p);
    const core::batch_report report = engine.process_batch(ptrs);
    if (report.computed_packets != packets.size()) {
      throw std::runtime_error(
          "evaluate_photonic_batched: engine did not compute a packet");
    }
    total_latency += report.compute_latency_s;
    eval.optical_symbols += report.optical_symbols;
    for (std::size_t i = begin; i < end; ++i) {
      const auto result = core::read_dnn_result(packets[i - begin]);
      if (result && result->predicted_class == data.labels[i]) ++correct;
    }
  }
  const auto n = static_cast<double>(data.samples.size());
  eval.accuracy = n > 0 ? static_cast<double>(correct) / n : 0.0;
  eval.mean_compute_latency_s = n > 0 ? total_latency / n : 0.0;
  return eval;
}

deployment_latency compare_deployments(const net::topology& topo,
                                       net::node_id src, net::node_id dst,
                                       net::node_id cloud,
                                       net::node_id on_fiber_site,
                                       const digital::dnn_model& model,
                                       double photonic_compute_s) {
  deployment_latency out;
  net::spf_engine spf(topo);
  const auto delay = [&spf](net::node_id a, net::node_id b) {
    const double d = spf.dist(a, b);
    if (std::isinf(d)) {
      throw std::invalid_argument("compare_deployments: unreachable pair");
    }
    return d;
  };

  const std::uint64_t macs = model.mac_count();

  // Cloud: detour through the datacenter, TPU-class compute there.
  const digital::device_model tpu = digital::make_tpu_model();
  out.cloud_s = delay(src, cloud) + tpu.gemv_latency_s(macs) +
                delay(cloud, dst);

  // Edge: compute at the source on a weak CPU, then ship the result.
  const digital::device_model edge = digital::make_edge_cpu_model();
  out.edge_s = edge.gemv_latency_s(macs) + delay(src, dst);

  // On-fiber: the packet flows src -> site -> dst; the analog evaluation
  // happens at the site while the packet is in transit.
  out.on_fiber_s =
      delay(src, on_fiber_site) + photonic_compute_s + delay(on_fiber_site, dst);
  return out;
}

}  // namespace onfiber::apps
