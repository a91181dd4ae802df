// E23 — §4: "a novel packet routing and scheduling policy ... should
// mitigate congestion and achieve efficient load balancing" when multiple
// end-users demand the same photonic compute transponders.
//
// Offered load vs completion latency at a serial analog engine
// (queueing at the transponder), and the relief from spreading flows
// across replicated sites (steering_policy::flow_spread).
#include <cstdio>

#include "bench_util.hpp"
#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "network/stats.hpp"
#include "photonics/rng.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

struct load_result {
  double p50_s = 0.0;
  double p99_s = 0.0;
  std::uint64_t computed = 0;
};

/// `rate_rps` GEMV requests/s from A to D on the Figure-1 WAN for 30 ms.
load_result run_load(double rate_rps, bool second_site, bool spread,
                     std::uint64_t seed) {
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(64, 64);
  for (double& w : task.weights.data) w = 0.2;
  rt.deploy_engine(1, {}, 11).configure_gemv(task);  // site B
  if (second_site) {
    rt.deploy_engine(2, {}, 12).configure_gemv(task);  // site C replica
  }
  rt.install_compute_routes_via_nearest_site();
  if (spread) {
    rt.set_steering_policy(
        core::onfiber_runtime::steering_policy::flow_spread);
  }

  phot::rng gen(seed);
  const std::vector<double> x(64, 0.5);
  constexpr double horizon_s = 30e-3;
  double t = 0.0;
  std::uint32_t id = 0;
  while ((t += gen.exponential(rate_rps)) < horizon_s) {
    net::packet pkt = core::make_gemv_request(
        rt.fabric().topo().node_at(0).address,
        rt.fabric().topo().node_at(3).address, x, 64, id);
    // Distinct flows so spread steering has entropy to hash on.
    pkt.flow_hash = static_cast<std::uint32_t>(gen());
    engine.schedule_global(t, [&rt, pkt = std::move(pkt)]() mutable {
      pkt.created_s = rt.fabric().sim_for(0).now();
      rt.submit(std::move(pkt), 0);
    });
    ++id;
  }
  engine.run();

  net::summary latency;
  for (const auto& d : rt.deliveries()) {
    latency.add(d.time_s - d.pkt.created_s);
  }
  return load_result{latency.percentile(50), latency.percentile(99),
                     rt.stats().computed};
}

}  // namespace

int main() {
  banner("E23 / Sec. 4", "engine congestion and the flow-spread policy");

  // Service time: 64 rows x 4 passes x 64 symbols ~ 16k symbols ~ 1.6 us
  // plus 256 x 5 ns fixed pass latency ~ 2.9 us/packet: the serial engine
  // saturates near ~340k requests/s.
  note("one serial engine at site B, GEMV 64->64 requests A -> D");
  std::printf("  %14s | %12s %12s | %12s %12s\n", "offered rps",
              "1-site p50", "1-site p99", "2-site+spread p50", "p99");
  for (const double rate : {50e3, 150e3, 250e3, 320e3}) {
    const load_result one = run_load(rate, false, false, 7);
    const load_result two = run_load(rate, true, true, 7);
    std::printf("  %14.0f | %12s %12s | %12s %12s\n", rate,
                fmt_time(one.p50_s).c_str(), fmt_time(one.p99_s).c_str(),
                fmt_time(two.p50_s).c_str(), fmt_time(two.p99_s).c_str());
  }

  // ---- batching ------------------------------------------------------------
  note("");
  note("request batching: per-sample site time vs batch size (the other");
  note("§4 scheduling lever — amortize the per-packet overheads)");
  {
    std::printf("  %10s %20s\n", "batch", "site time / sample");
    for (const int batch : {1, 4, 16, 64}) {
      net::shard_engine engine;
      core::onfiber_runtime rt(engine, net::make_figure1_topology());
      core::gemv_task task;
      task.weights = phot::matrix(8, 16);
      for (double& w : task.weights.data) w = 0.2;
      rt.deploy_engine(1, {}, 31).configure_gemv(task);
      rt.install_compute_routes_via_nearest_site();
      net::packet pkt = core::make_gemv_request(
          rt.fabric().topo().node_at(0).address,
          rt.fabric().topo().node_at(3).address,
          std::vector<double>(16 * static_cast<std::size_t>(batch), 0.5),
          8 * static_cast<std::size_t>(batch));
      auto h = proto::peek_compute_header(pkt);
      h->batch = static_cast<std::uint8_t>(batch);
      proto::rewrite_compute_header(pkt, *h);
      rt.submit(std::move(pkt), 0);
      engine.run();
      std::printf("  %10d %20s\n", batch,
                  fmt_time(rt.site_busy_s(1) / batch).c_str());
    }
  }

  note("");
  note("replication without spreading does not help (all flows still hash");
  note("to the delay-nearest site):");
  {
    const load_result two_nearest = run_load(320e3, true, false, 7);
    const load_result two_spread = run_load(320e3, true, true, 7);
    std::printf("  2 sites, nearest steering : p99 %s\n",
                fmt_time(two_nearest.p99_s).c_str());
    std::printf("  2 sites, flow spread      : p99 %s\n",
                fmt_time(two_spread.p99_s).c_str());
  }

  std::printf("\n");
  return 0;
}
