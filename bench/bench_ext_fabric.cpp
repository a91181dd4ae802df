// E27 — WAN datapath throughput: wall-clock packet-forwarding rate of
// the event-driven fabric (the simulator substrate every end-to-end
// experiment rides on).
//
// The paper's argument (§2.2, §5) is that on-fiber compute keeps up with
// packets *in flight*; the simulator must not be the bottleneck when we
// compare photonic and digital models at WAN scale. This bench measures
// the zero-allocation datapath — typed pool-backed hop events, recycled
// payload buffers, flat post-convergence route caches — as packets/s and
// hops/s across topology size, payload size, and hook density, and
// records the trajectory in BENCH_fabric.json. The headline key
// (fabric.packets_per_s) is compared against the seed engine's recorded
// fig4.packets_per_s = 14202/s (BENCH_kernels.json, PR 1).
//
// Both sweeps run on a shard_engine, but they are different workloads:
// fabric.packets_per_s and the chain/payload/hook keys push one stream
// end to end through a chain on one shard, while
// fabric.shards{K}.packets_per_s injects stride-8 flows from every node
// of a 32-node chain at once. shards1 is not the headline at one shard.
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "network/fabric.hpp"
#include "network/shard_engine.hpp"
#include "network/topology.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

/// Seed-recorded fig4.packets_per_s (BENCH_kernels.json) — the WAN
/// throughput every pre-PR-3 end-to-end experiment was capped by.
constexpr double kSeedFig4PacketsPerS = 14202.3969;

struct sweep_result {
  double packets_per_s = 0.0;
  double hops_per_s = 0.0;
};

/// Push `packets` end-to-end through a linear chain of `nodes`, sending
/// in bursts so the event queue stays warm, payloads recycling through
/// the fabric pool. `hook_every` > 0 installs a pass-through hook at
/// every k-th node (transponder-style intercept density).
sweep_result run_chain(std::size_t nodes, std::size_t payload_bytes,
                       int packets, int hook_every) {
  net::shard_engine engine;
  net::wan_fabric fabric(engine, net::make_linear_topology(nodes, 50.0));
  fabric.install_shortest_path_routes();
  std::uint64_t hook_hits = 0;
  if (hook_every > 0) {
    for (std::size_t at = 0; at < nodes; at += static_cast<std::size_t>(hook_every)) {
      fabric.set_hook(static_cast<net::node_id>(at),
                      [&hook_hits](net::node_id, net::packet&, double) {
                        ++hook_hits;
                        return net::hook_decision{};
                      });
    }
  }
  const net::ipv4 src = fabric.topo().node_at(0).address;
  const net::ipv4 dst =
      fabric.topo().node_at(static_cast<net::node_id>(nodes - 1)).address;

  const auto push = [&](int count) {
    for (int i = 0; i < count; ++i) {
      net::packet pkt;
      pkt.src = src;
      pkt.dst = dst;  // send() stamps recommended_ttl(): 127 hops survive
      pkt.payload = fabric.pool().acquire();
      pkt.payload.assign(payload_bytes, 0xab);
      fabric.send(std::move(pkt), 0);
      if (i % 64 == 63) engine.run();
    }
    engine.run();
  };

  push(packets / 10 + 1);  // warm the event pool and route caches

  const std::uint64_t before = fabric.delivered();
  stopwatch sw;
  push(packets);
  const double dt = sw.elapsed_s();
  const std::uint64_t delivered = fabric.delivered() - before;

  sweep_result r;
  r.packets_per_s = static_cast<double>(delivered) / dt;
  r.hops_per_s = r.packets_per_s * static_cast<double>(nodes - 1);
  return r;
}

/// Sharded-engine throughput: uniform stride-8 flows (node i -> i+8 for
/// every i with both endpoints on the chain) keep all shards busy —
/// a single-source chain workload has no spatial parallelism to mine.
/// Everything is injected in one global event; link serialization then
/// spreads the wave so each conservative window (lookahead = one hop's
/// propagation delay) carries thousands of events per shard.
sweep_result run_chain_sharded(std::size_t shards, std::size_t nodes,
                               int total_packets) {
  constexpr std::size_t kStride = 8;
  net::shard_engine engine(shards);
  net::wan_fabric fabric(engine, net::make_linear_topology(nodes, 50.0));
  fabric.install_shortest_path_routes();

  std::vector<net::node_id> sources;
  for (std::size_t i = 0; i + kStride < nodes; ++i) {
    sources.push_back(static_cast<net::node_id>(i));
  }
  const int per_source =
      total_packets / static_cast<int>(sources.size()) + 1;
  engine.schedule_global(0.0, [&fabric, &sources, per_source] {
    for (const net::node_id src : sources) {
      const net::ipv4 from = fabric.topo().node_at(src).address;
      const net::ipv4 to =
          fabric.topo().node_at(src + kStride).address;
      for (int i = 0; i < per_source; ++i) {
        net::packet pkt;
        pkt.src = from;
        pkt.dst = to;
        pkt.payload = fabric.pool_of(src).acquire();
        pkt.payload.assign(256, 0xab);
        fabric.send(std::move(pkt), src);
      }
    }
  });

  stopwatch sw;
  engine.run();
  const double dt = sw.elapsed_s();
  sweep_result r;
  r.packets_per_s = static_cast<double>(fabric.delivered()) / dt;
  r.hops_per_s = r.packets_per_s * static_cast<double>(kStride);
  return r;
}

/// ONFIBER_FABRIC_PACKETS shrinks the per-config packet budget (the
/// tsan stage uses it: full-size sweeps under tsan take minutes).
int packet_budget(int fallback) {
  if (const char* env = std::getenv("ONFIBER_FABRIC_PACKETS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  banner("E27 / WAN datapath", "fabric packet-forwarding throughput");
  note("two workloads, both on shard_engine: fabric.packets_per_s and the");
  note("chain/payload/hook keys push one stream end to end on one shard;");
  note("fabric.shards{K}.packets_per_s injects stride-8 flows from every");
  note("node of a 32-node chain at once (not comparable with the headline)");
  note("");
  const std::string json_arg = json_path_from_args(argc, argv);
  json_report report(json_arg.empty() ? "BENCH_fabric.json" : json_arg);
  record_simd_levels(report);

  const int kPackets = packet_budget(30000);

  note("linear chains, 256 B payload, no hooks (topology-size sweep)");
  std::printf("  %8s %14s %14s\n", "nodes", "packets/s", "hops/s");
  double headline = 0.0;
  for (const std::size_t nodes : {4u, 8u, 16u, 32u, 64u, 128u}) {
    const sweep_result r = run_chain(nodes, 256, kPackets, 0);
    std::printf("  %8zu %14.0f %14.0f\n", nodes, r.packets_per_s,
                r.hops_per_s);
    report.set("fabric.chain" + std::to_string(nodes) + ".packets_per_s",
               r.packets_per_s);
    if (nodes == 16u) headline = r.packets_per_s;
  }

  note("");
  note("payload-size sweep (16-node chain, no hooks)");
  std::printf("  %8s %14s %14s\n", "bytes", "packets/s", "hops/s");
  for (const std::size_t bytes : {0u, 64u, 512u, 4096u}) {
    const sweep_result r = run_chain(16, bytes, kPackets, 0);
    std::printf("  %8zu %14.0f %14.0f\n", bytes, r.packets_per_s,
                r.hops_per_s);
    report.set("fabric.payload" + std::to_string(bytes) + ".packets_per_s",
               r.packets_per_s);
  }

  note("");
  note("hook-density sweep (16-node chain, 256 B; pass-through hooks)");
  std::printf("  %8s %14s %14s\n", "hooks", "packets/s", "hops/s");
  for (const int every : {0, 4, 2, 1}) {
    const sweep_result r = run_chain(16, 256, kPackets, every);
    const int hooked = every == 0 ? 0 : (16 + every - 1) / every;
    std::printf("  %7d%% %14.0f %14.0f\n", hooked * 100 / 16,
                r.packets_per_s, r.hops_per_s);
    report.set("fabric.hooks" + std::to_string(hooked * 100 / 16) +
                   "pct.packets_per_s",
               r.packets_per_s);
  }

  note("");
  note("tracing-enabled spot check (16-node chain, 256 B; full obs plane)");
  {
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::registry::global().reset_values();
    obs::tracer::global().clear();
    const sweep_result r = run_chain(16, 256, kPackets, 0);
    std::printf("  %8s %14.0f %14.0f\n", "traced", r.packets_per_s,
                r.hops_per_s);
    report.set("fabric.packets_per_s_traced", r.packets_per_s);
    obs::exporter::append_flat(
        [&report](const std::string& key, double value) {
          report.set(key, value);
        });
    obs::set_enabled(was_enabled);
  }

  note("");
  note("sharded engine (32-node chain, stride-8 uniform flows, 256 B)");
  std::printf("  %8s %14s %14s %10s\n", "shards", "packets/s", "hops/s",
              "speedup");
  {
    std::vector<std::size_t> shard_counts = {1, 2, 4};
    if (const char* env = std::getenv("ONFIBER_SHARDS")) {
      const int n = std::atoi(env);
      if (n > 1) shard_counts = {1, static_cast<std::size_t>(n)};
    }
    // Parallel speedup is bounded by the machine: record both the raw
    // hardware thread count and the CPUs this process may actually use
    // (the affinity mask — containers and CI runners often pin fewer)
    // next to the shard keys so the numbers stay interpretable.
    report.set("fabric.shards.hw_concurrency",
               static_cast<double>(std::thread::hardware_concurrency()));
    report.set("fabric.shards.cpu_affinity",
               static_cast<double>(cpu_affinity_count()));
    const int total = 4 * kPackets;
    double base = 0.0;
    for (const std::size_t shards : shard_counts) {
      const sweep_result r = run_chain_sharded(shards, 32, total);
      if (shards == 1) base = r.packets_per_s;
      std::printf("  %8zu %14.0f %14.0f %9.2fx\n", shards, r.packets_per_s,
                  r.hops_per_s, base > 0.0 ? r.packets_per_s / base : 0.0);
      report.set("fabric.shards" + std::to_string(shards) + ".packets_per_s",
                 r.packets_per_s);
    }
  }

  const double speedup = headline / kSeedFig4PacketsPerS;
  note("");
  std::printf("  headline (16-node chain): %.0f packets/s = %.1fx the seed\n",
              headline, speedup);
  std::printf("  fig4 simulator rate of %.0f packets/s\n",
              kSeedFig4PacketsPerS);
  report.set("fabric.packets_per_s", headline);
  report.set("fabric.seed_fig4_packets_per_s", kSeedFig4PacketsPerS);
  report.set("fabric.speedup_vs_fig4_seed", speedup);
  if (!report.write()) {
    note("WARNING: could not write the JSON report");
  }

  std::printf("\n");
  return 0;
}
