// inference_service.cpp — the whole system in one run: a controller
// service allocates DNN transponders on the US-WAN against churning user
// demands, publishes two-field routes into the live data plane, and
// inference packets from several cities are computed in flight.
#include <cstdio>

#include "apps/ml_inference.hpp"
#include "controller/service.hpp"
#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "digital/dnn.hpp"
#include "network/stats.hpp"

using namespace onfiber;

int main() {
  std::printf("on-fiber inference service on the US-WAN\n\n");

  // Model + data.
  const auto data = digital::make_synthetic_dataset(16, 4, 40, 0.08, 7);
  const auto model =
      digital::train_mlp(data, {12}, 40, 0.08, 11,
                         digital::activation_kind::photonic_sin2, 2.0);

  // Data plane: DNN transponders at Salt Lake (3) and Chicago (7).
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_uswan_topology());
  const core::dnn_task task = apps::to_photonic_task(model);
  rt.deploy_engine(3, {}, 21).configure_dnn(task);
  rt.deploy_engine(7, {}, 22).configure_dnn(task);

  // Controller service: tracks demands, publishes routes into the runtime.
  std::vector<ctrl::transponder_info> inventory{
      {0, 3, {proto::primitive_id::p1_p3_dnn}, 1e6},
      {1, 7, {proto::primitive_id::p1_p3_dnn}, 1e6},
  };
  ctrl::service_config cfg;
  cfg.epoch_s = 5e-3;
  ctrl::controller_service svc(engine, rt.fabric().topo(), inventory, cfg);
  svc.set_publish_callback(
      [&rt](const std::vector<ctrl::compute_route_entry>& routes) {
        for (const auto& r : routes) {
          rt.set_compute_route(r.at, r.dst_prefix, r.primitive, r.next_hop);
        }
      });

  // Three user populations with different lifetimes.
  struct population {
    net::node_id src, dst;
    const char* name;
  };
  const population pops[] = {
      {0, 10, "Seattle -> NewYork"},
      {2, 11, "LosAngeles -> Boston"},
      {5, 9, "Houston -> WashingtonDC"},
  };
  std::uint32_t demand_id = 0;
  for (const auto& p : pops) {
    ctrl::compute_demand d;
    d.id = demand_id++;
    d.src = p.src;
    d.dst = p.dst;
    d.chain = {proto::primitive_id::p1_p3_dnn};
    d.rate_ops_s = 1e3;
    d.value = 1.0;
    svc.add_demand(d, 0.0, 60e-3);
  }
  svc.start();

  // Each population fires 20 inference requests over 50 ms.
  phot::rng gen(5);
  std::uint32_t req_id = 0;
  for (const auto& p : pops) {
    double t = 1e-3;  // after the first controller epoch
    for (int i = 0; i < 20; ++i) {
      t += gen.exponential(400.0);
      const auto sample = static_cast<std::size_t>(gen.below(160));
      net::packet pkt = core::make_dnn_request(
          rt.fabric().topo().node_at(p.src).address,
          rt.fabric().topo().node_at(p.dst).address, data.samples[sample],
          model.output_dim(), (req_id++ << 8) | static_cast<std::uint32_t>(sample));
      engine.schedule_global(
          t, [&rt, pkt = std::move(pkt), src = p.src]() mutable {
            pkt.created_s = rt.fabric().sim_for(src).now();
            rt.submit(std::move(pkt), src);
          });
    }
  }
  engine.run();

  // Report.
  net::summary latency;
  std::size_t correct = 0, with_result = 0;
  for (const auto& d : rt.deliveries()) {
    const auto h = proto::peek_compute_header(d.pkt);
    const auto r = core::read_dnn_result(d.pkt);
    if (!h || !r) continue;
    ++with_result;
    latency.add(d.time_s - d.pkt.created_s);
    if (r->predicted_class == data.labels[h->task_id & 0xff]) ++correct;
  }
  std::printf("requests delivered : %zu (of 60)\n", rt.deliveries().size());
  std::printf("computed in flight : %llu at %zu sites (busy: SLC %.1f us, CHI %.1f us)\n",
              static_cast<unsigned long long>(rt.stats().computed),
              rt.sites().size(), rt.site_busy_s(3) * 1e6,
              rt.site_busy_s(7) * 1e6);
  std::printf("accuracy           : %.1f%% (%zu/%zu)\n",
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(with_result),
              correct, with_result);
  std::printf("latency            : p50 %.2f ms, p99 %.2f ms\n",
              latency.percentile(50) * 1e3, latency.percentile(99) * 1e3);
  std::printf("controller         : %zu epochs, %zu reconfigs, %.2f ms install downtime\n",
              svc.history().size(), svc.total_reconfigs(),
              svc.total_downtime_s() * 1e3);
  return 0;
}
