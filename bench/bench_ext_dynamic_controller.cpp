// E21 — §3 extension: the controller as a continuously running service.
//
// Demands churn over time; each epoch the controller re-solves, diffs
// into transponder reconfigurations and refreshes the two-field routes.
// Measures satisfaction tracking, reconfiguration volume vs churn rate,
// and solver choice under churn.
#include <cstdio>

#include "bench_util.hpp"
#include "controller/service.hpp"
#include "network/topology.hpp"
#include "photonics/rng.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

struct churn_workload {
  std::vector<ctrl::compute_demand> demands;
  std::vector<std::pair<double, double>> lifetimes;
};

churn_workload make_churn(const net::topology& topo, std::size_t count,
                          double mean_lifetime_s, double horizon_s,
                          std::uint64_t seed) {
  phot::rng g(seed);
  constexpr proto::primitive_id prims[] = {
      proto::primitive_id::p1_dot_product,
      proto::primitive_id::p2_pattern_match,
      proto::primitive_id::p1_p3_dnn,
  };
  churn_workload w;
  for (std::uint32_t i = 0; i < count; ++i) {
    ctrl::compute_demand d;
    d.id = i;
    d.src = static_cast<net::node_id>(g.below(topo.node_count()));
    do {
      d.dst = static_cast<net::node_id>(g.below(topo.node_count()));
    } while (d.dst == d.src);
    d.chain = {prims[i % 3]};
    d.rate_ops_s = 1e3 + static_cast<double>(g.below(3000));
    d.value = 1.0;
    const double start = g.uniform(0.0, horizon_s * 0.8);
    const double life = g.exponential(1.0 / mean_lifetime_s);
    w.demands.push_back(d);
    w.lifetimes.emplace_back(start, std::min(start + life, horizon_s));
  }
  return w;
}

}  // namespace

int main() {
  banner("E21 / Sec. 3", "controller service under demand churn");

  const net::topology topo = net::make_uswan_topology();
  std::vector<ctrl::transponder_info> inventory;
  for (std::uint32_t t = 0; t < 8; ++t) {
    inventory.push_back(ctrl::transponder_info{
        t, static_cast<net::node_id>((t * 3) % topo.node_count()),
        {proto::primitive_id::p1_dot_product,
         proto::primitive_id::p2_pattern_match,
         proto::primitive_id::p1_p3_dnn},
        6e3});
  }

  // ---- satisfaction + reconfig volume vs churn rate ------------------------
  note("40 demands over a 10 s horizon, epoch 0.5 s, local-search solver");
  std::printf("  %18s %14s %16s %18s\n", "mean lifetime", "mean satisfied",
              "total reconfigs", "mean routes/epoch");
  for (const double lifetime_s : {0.5, 2.0, 8.0}) {
    net::shard_engine engine;
    ctrl::service_config cfg;
    cfg.epoch_s = 0.5;
    ctrl::controller_service svc(engine, topo, inventory, cfg);
    const auto w = make_churn(topo, 40, lifetime_s, 10.0, 7);
    for (std::size_t i = 0; i < w.demands.size(); ++i) {
      svc.add_demand(w.demands[i], w.lifetimes[i].first,
                     w.lifetimes[i].second);
    }
    svc.start();
    engine.run();
    double value = 0.0, routes = 0.0, active = 0.0;
    for (const auto& e : svc.history()) {
      value += e.satisfied_value;
      routes += static_cast<double>(e.route_entries);
      active += static_cast<double>(e.active_demands);
    }
    const double epochs = static_cast<double>(svc.history().size());
    std::printf("  %15.1f s  %7.1f/%5.1f %16zu %18.1f\n", lifetime_s,
                value / epochs, active / epochs, svc.total_reconfigs(),
                routes / epochs);
  }

  // ---- model-distribution cost (§4) --------------------------------------------
  note("");
  note("reconfiguration downtime vs model size (§4: models distributed to");
  note("devices in advance; churn makes redistribution a running cost)");
  std::printf("  %16s %16s %18s\n", "task bytes", "per-op downtime",
              "downtime over 10 s");
  for (const double task_kb : {16.0, 64.0, 1024.0, 16384.0}) {
    net::shard_engine engine;
    ctrl::service_config cfg;
    cfg.epoch_s = 0.5;
    cfg.reconfig.task_bytes = task_kb * 1024.0;
    ctrl::controller_service svc(engine, topo, inventory, cfg);
    const auto w = make_churn(topo, 40, 2.0, 10.0, 7);
    for (std::size_t i = 0; i < w.demands.size(); ++i) {
      svc.add_demand(w.demands[i], w.lifetimes[i].first,
                     w.lifetimes[i].second);
    }
    svc.start();
    engine.run();
    std::printf("  %13.0f kB %16s %18s\n", task_kb,
                fmt_time(cfg.reconfig.op_downtime_s()).c_str(),
                fmt_time(svc.total_downtime_s()).c_str());
  }

  // ---- solver choice under churn ----------------------------------------------
  note("");
  note("solver choice under 2 s-lifetime churn (same workload)");
  std::printf("  %-14s %16s %16s\n", "solver", "mean satisfied",
              "total reconfigs");
  for (const auto solver :
       {ctrl::solver_kind::greedy, ctrl::solver_kind::local_search}) {
    net::shard_engine engine;
    ctrl::service_config cfg;
    cfg.epoch_s = 0.5;
    cfg.solver = solver;
    ctrl::controller_service svc(engine, topo, inventory, cfg);
    const auto w = make_churn(topo, 40, 2.0, 10.0, 7);
    for (std::size_t i = 0; i < w.demands.size(); ++i) {
      svc.add_demand(w.demands[i], w.lifetimes[i].first,
                     w.lifetimes[i].second);
    }
    svc.start();
    const stopwatch timer;
    engine.run();
    double value = 0.0;
    for (const auto& e : svc.history()) value += e.satisfied_value;
    std::printf("  %-14s %16.1f %16zu   (wall %s)\n",
                solver == ctrl::solver_kind::greedy ? "greedy"
                                                    : "local search",
                value / static_cast<double>(svc.history().size()),
                svc.total_reconfigs(), fmt_time(timer.elapsed_s()).c_str());
  }

  std::printf("\n");
  return 0;
}
