// E16 — §5: "photonic compute transponders can support up to 800 Gbps
// network bandwidth on one wavelength ... shared among many users".
//
// Per-user goodput as an 800G wavelength is shared, multi-channel line
// capacity, and what fraction of a shared slice typical compute payloads
// consume.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "network/fabric.hpp"
#include "network/stats.hpp"
#include "network/workload.hpp"
#include "photonics/wdm.hpp"

using namespace onfiber;
using namespace onfiber::bench;

int main() {
  banner("E16 / Sec. 5", "800G wavelength shared among on-fiber users");

  // ---- the 800G channel ------------------------------------------------------
  const phot::wdm_channel ch = phot::make_800g_channel();
  note("channel configuration (Che, OFC'22 [12]-class pluggable)");
  std::printf("  %.0f GBd x %d b/sym x 2 pol x (1 - %.0f%% FEC) = %.1f Gb/s net\n",
              ch.symbol_rate_gbaud, ch.bits_per_symbol,
              ch.fec_overhead * 100.0, ch.net_rate_bps() / 1e9);

  // ---- fair share vs user count ------------------------------------------------
  note("");
  note("max-min fair share per user");
  std::printf("  %10s %16s %28s\n", "users", "share",
              "1500B compute pkts / s / user");
  for (const std::uint64_t users : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const double share = phot::wdm_line::fair_share_bps(ch, users);
    std::printf("  %10llu %13.1f Gb/s %28.0f\n",
                static_cast<unsigned long long>(users), share / 1e9,
                share / (1500.0 * 8.0));
  }

  // ---- line capacity -------------------------------------------------------------
  note("");
  note("C-band line capacity with 800G channels (100 GHz grid)");
  std::printf("  %10s %18s\n", "channels", "line capacity");
  for (const int channels : {1, 8, 40, 80}) {
    phot::wdm_line line;
    for (int i = 0; i < channels; ++i) {
      line.add_channel(phot::make_800g_channel(i));
    }
    std::printf("  %10d %15.1f Tb/s\n", channels,
                line.total_capacity_bps() / 1e12);
  }

  // ---- simulated sharing on the packet fabric -----------------------------------
  note("");
  note("packet-level check: N users saturating one 800G span (2 ms window,");
  note("FIFO link) — goodput splits fairly and sums to line rate");
  std::printf("  %8s %18s %18s %12s\n", "users", "total goodput",
              "per-user mean", "Jain");
  for (const std::size_t users : {2u, 4u, 8u}) {
    net::shard_engine engine;
    net::topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_link(a, b, 100.0, ch.net_rate_bps());
    net::wan_fabric fabric(engine, topo);
    fabric.install_shortest_path_routes();

    // Each user is one injector of one-packet flows: 1480 B payloads,
    // offered at ~2x its fair share so the link saturates. The plane
    // keys every packet id on its injector (bits 44 and up hold
    // injector + 1), so per-user accounting reads it back from the id.
    constexpr double window_s = 2e-3;
    net::workload_config wc;
    net::flow_class& one_packet = wc.tenants[0];
    one_packet.flow_rate_fps =
        2.0 * ch.net_rate_bps() / static_cast<double>(users) /
        (1500.0 * 8.0);
    one_packet.mice_fraction = 1.0;
    one_packet.mice = {1.3, 1480.0, 1480.0};
    one_packet.mtu_bytes = 1480;
    wc.seed = 100;
    net::workload_plane plane(fabric, wc);
    for (std::size_t u = 0; u < users; ++u) {
      plane.add_injector({a, topo.node_at(b).address, 0, {}});
    }

    std::vector<double> user_bytes(users, 0.0);
    fabric.set_deliver_callback(
        [&](const net::packet& pkt, net::node_id, double) {
          user_bytes[(pkt.id >> 44) - 1] +=
              static_cast<double>(pkt.wire_bytes());
        });
    plane.start(window_s);
    // Count deliveries for transmissions inside the window (shift the
    // horizon by the propagation delay so in-flight packets land); the
    // backlog beyond it is exactly the over-subscription.
    engine.primary().run_until(window_s + topo.links()[0].delay_s());
    double total = 0.0;
    for (const double v : user_bytes) total += v;
    std::printf("  %8zu %15.1f Gb/s %15.1f Gb/s %12.3f\n", users,
                total * 8.0 / window_s / 1e9,
                total * 8.0 / window_s / static_cast<double>(users) / 1e9,
                net::jain_fairness(user_bytes));
  }

  // ---- compute-demand perspective ----------------------------------------------
  note("");
  note("compute traffic perspective: a 64-element GEMV request is ~104 B of");
  note("payload; one 800G wavelength carries");
  {
    const double request_bits = (20.0 + 20.0 + 64.0 + 8.0) * 8.0;
    std::printf("  %.1f M GEMV requests/s (before engine throughput limits)\n",
                ch.net_rate_bps() / request_bits / 1e6);
    const double engine_rate =
        10e9 / (64.0 * 4.0);  // one signed GEMV row set per packet
    std::printf("  vs one analog engine lane at ~%.1f M evaluations/s —\n",
                engine_rate / 1e6);
    note("  bandwidth is not the bottleneck; engine parallelism is (Sec. 5");
    note("  'distributed on-fiber photonic computing').");
  }

  std::printf("\n");
  return 0;
}
