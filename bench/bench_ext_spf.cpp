// E28 — incremental SPF reconvergence: routing-plane cost of a link
// event at WAN/DC scale.
//
// The paper's controller (§5) must keep routes converged while links
// flap; the seed fabric recomputed every shortest-path tree from
// scratch on each reconvergence (O(n) Dijkstras + an O(n^2) table
// sweep). The persistent spf_engine repairs only the subtrees a link
// event actually disturbs and patches the affected table entries in
// place. This bench drives a 1280-node fat-tree and a 256-node Waxman
// WAN under sustained flaps and reports, per event, the incremental
// reconvergence latency, the full-rebuild baseline on the same link
// state, and the fraction of routes touched — the acceptance bar is
// <10% of routes touched and >=10x over full rebuild on the >=1024-node
// topology; the bench exits 1 when either bar fails. Results land in
// BENCH_controller.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "controller/controller.hpp"
#include "network/fabric.hpp"
#include "network/spf.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

/// Deterministic xorshift64 so the flap sequence is identical run-to-run.
struct xorshift {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

struct flap_report {
  double first_install_s = 0.0;     ///< initial full build + full sweep
  double incr_mean_s = 0.0;         ///< mean event -> routes-patched latency
  double incr_max_s = 0.0;
  double full_mean_s = 0.0;         ///< mean full rebuild on same link state
  double touched_mean = 0.0;        ///< mean flat routes rewritten per event
  double touched_frac = 0.0;        ///< touched_mean / n(n-1)
  std::size_t events = 0;
};

/// Sustained random flaps: toggle a random link, reconverge, measure the
/// full span (engine delta pass + table patch). Every `sample_every`
/// events, time the old-shape baseline: a fresh fabric at the same link
/// state doing its first install (n Dijkstras + n^2 sweep).
flap_report run_flaps(const net::topology& topo, int events,
                      int sample_every, std::uint64_t seed) {
  flap_report rep;
  rep.events = static_cast<std::size_t>(events);
  const auto n = static_cast<double>(topo.node_count());

  net::shard_engine engine;
  net::wan_fabric fabric(engine, topo);
  {
    stopwatch sw;
    fabric.install_shortest_path_routes();
    rep.first_install_s = sw.elapsed_s();
  }

  obs::counter& touched = obs::registry::global().get_counter(
      "routing.routes_touched");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);

  std::vector<bool> up(topo.links().size(), true);
  xorshift rng{seed};
  double incr_total = 0.0;
  double full_total = 0.0;
  std::uint64_t touched_total = 0;
  int full_samples = 0;
  for (int event = 0; event < events; ++event) {
    const std::size_t li = rng.below(topo.links().size());
    up[li] = !up[li];
    const std::uint64_t touched0 = touched.value();
    stopwatch sw;
    if (up[li]) {
      fabric.restore_link(li);
    } else {
      fabric.fail_link(li);
    }
    fabric.install_shortest_path_routes();
    const double dt = sw.elapsed_s();
    incr_total += dt;
    if (dt > rep.incr_max_s) rep.incr_max_s = dt;
    touched_total += touched.value() - touched0;

    if (event % sample_every == 0) {
      // Baseline: what the seed code paid for this same event — rebuild
      // every tree and rewrite every table entry. A fresh fabric at the
      // same link state runs exactly that on its first install
      // (construction cost excluded from the timed span).
      net::shard_engine base_engine;
      net::wan_fabric base(base_engine, topo);
      for (std::size_t i = 0; i < up.size(); ++i) {
        if (!up[i]) base.fail_link(i);
      }
      stopwatch full_sw;
      base.install_shortest_path_routes();
      full_total += full_sw.elapsed_s();
      ++full_samples;
    }
  }
  obs::set_enabled(was_enabled);

  rep.incr_mean_s = incr_total / events;
  rep.full_mean_s = full_samples > 0 ? full_total / full_samples : 0.0;
  rep.touched_mean = static_cast<double>(touched_total) / events;
  rep.touched_frac = rep.touched_mean / (n * (n - 1.0));
  return rep;
}

void emit(json_report& report, const std::string& key,
          const flap_report& r, std::size_t nodes, std::size_t links) {
  std::printf("  %-10s %6zu %7zu %12s %12s %9.1fx %10.1f %9.4f%%\n",
              key.c_str(), nodes, links, fmt_time(r.incr_mean_s).c_str(),
              fmt_time(r.full_mean_s).c_str(),
              r.incr_mean_s > 0.0 ? r.full_mean_s / r.incr_mean_s : 0.0,
              r.touched_mean, r.touched_frac * 100.0);
  const std::string p = "spf." + key + ".";
  report.set(p + "nodes", static_cast<double>(nodes));
  report.set(p + "links", static_cast<double>(links));
  report.set(p + "flap_events", static_cast<double>(r.events));
  report.set(p + "first_install_us", r.first_install_s * 1e6);
  report.set(p + "incremental_reconverge_us", r.incr_mean_s * 1e6);
  report.set(p + "incremental_reconverge_max_us", r.incr_max_s * 1e6);
  report.set(p + "full_rebuild_us", r.full_mean_s * 1e6);
  report.set(p + "speedup_vs_full",
             r.incr_mean_s > 0.0 ? r.full_mean_s / r.incr_mean_s : 0.0);
  report.set(p + "routes_touched_mean", r.touched_mean);
  report.set(p + "routes_touched_frac", r.touched_frac);
}

/// Failover planning against live trees: the runtime's on_timeout path
/// asks "cheapest capable site, excluding the pinned one" per stuck
/// task; with shared trees each query is O(sites) table reads.
double failover_plan_us(const net::topology& topo) {
  net::spf_engine eng(topo);
  const auto n = static_cast<net::node_id>(topo.node_count());
  std::vector<net::node_id> capable;
  for (net::node_id s = 1; s < n && capable.size() < 8; s += n / 9 + 1) {
    capable.push_back(s);
  }
  constexpr int kQueries = 20000;
  xorshift rng{99};
  stopwatch sw;
  for (int i = 0; i < kQueries; ++i) {
    const auto src = static_cast<net::node_id>(rng.below(n));
    const auto dst = static_cast<net::node_id>(rng.below(n));
    const auto plan = ctrl::plan_failover_site(
        eng, capable, capable[static_cast<std::size_t>(i) % capable.size()],
        src, dst);
    (void)plan;
  }
  return sw.elapsed_s() / kQueries * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  banner("E28 / incremental SPF",
         "routing reconvergence under sustained link flaps");
  const std::string json_arg = json_path_from_args(argc, argv);
  json_report report(json_arg.empty() ? "BENCH_controller.json" : json_arg);
  record_simd_levels(report);

  note("per flap event: incremental = delta pass + in-place table patch;");
  note("full = fresh n-Dijkstra build + n^2 sweep at the same link state");
  std::printf("  %-10s %6s %7s %12s %12s %10s %10s %10s\n", "topology",
              "nodes", "links", "incr/event", "full/event", "speedup",
              "touched", "frac");

  const net::topology wan = net::make_waxman_topology(256, 11);
  const flap_report wan_rep = run_flaps(wan, 120, 8, 0xfeedbeef);
  emit(report, "waxman256", wan_rep, wan.node_count(), wan.links().size());

  const net::topology dc = net::make_fattree_topology(32);  // 1280 nodes
  const flap_report dc_rep = run_flaps(dc, 64, 16, 0xdecaf);
  emit(report, "fattree32", dc_rep, dc.node_count(), dc.links().size());

  // Headline keys: the >=1024-node acceptance numbers.
  const double speedup = dc_rep.incr_mean_s > 0.0
                             ? dc_rep.full_mean_s / dc_rep.incr_mean_s
                             : 0.0;
  report.set("spf.speedup_vs_full", speedup);
  report.set("spf.routes_touched_frac", dc_rep.touched_frac);

  note("");
  const double plan_us = failover_plan_us(wan);
  std::printf("  failover-site planning on shared trees: %.2f us/query\n",
              plan_us);
  report.set("spf.failover_plan_us", plan_us);

  note("");
  std::printf("  headline (fat-tree k=32, %zu nodes): %.1fx over full"
              " rebuild,\n  %.4f%% of routes touched per event"
              " (bars: >=10x, <10%%)\n",
              dc.node_count(), speedup, dc_rep.touched_frac * 100.0);
  if (!report.write()) {
    note("WARNING: could not write the JSON report");
  }

  std::printf("\n");
  const bool bars_met = speedup >= 10.0 && dc_rep.touched_frac < 0.10;
  if (!bars_met) {
    std::fprintf(stderr, "bench_ext_spf: acceptance bar missed\n");
    return 1;
  }
  return 0;
}
