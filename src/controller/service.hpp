// service.hpp — the controller as a running service.
//
// §3: "a centralized controller to continuously track the status of all
// photonic compute transponders and dynamically reconfigure them to
// accommodate a diverse set of photonic computing tasks according to
// users' demands."
//
// `controller_service` closes that loop inside the discrete-event
// simulation: demands arrive and depart over time; each epoch (an engine
// global event) the controller re-solves the allocation, diffs it
// against the previous one into reconfiguration ops, and publishes fresh
// two-field routes. The data plane (core::onfiber_runtime) consumes the
// routes through a callback so this library stays independent of core.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "controller/controller.hpp"
#include "network/shard_engine.hpp"

namespace onfiber::ctrl {

enum class solver_kind : std::uint8_t { greedy, local_search, exact };

/// Cost of retasking a transponder (§4: "on-fiber machine learning
/// inference requires trained DNN models to be distributed across network
/// devices in advance"): task state ships over a control channel and the
/// engine is unavailable while installing.
struct reconfig_cost_model {
  double task_bytes = 64e3;         ///< weights/patterns per primitive
  double control_rate_bps = 1e9;    ///< control-plane channel to the site
  double install_s = 1e-3;          ///< engine calibration/settling

  /// Downtime of one reconfiguration op.
  [[nodiscard]] double op_downtime_s() const {
    return task_bytes * 8.0 / control_rate_bps + install_s;
  }
};

struct service_config {
  double epoch_s = 0.1;        ///< re-optimization cadence
  solver_kind solver = solver_kind::local_search;
  std::size_t max_epochs = 0;  ///< 0 = run until the demands end
  reconfig_cost_model reconfig{};
};

/// Statistics of one controller epoch.
struct epoch_report {
  std::uint64_t epoch = 0;
  double time_s = 0.0;
  std::size_t active_demands = 0;
  double satisfied_value = 0.0;
  std::size_t reconfig_ops = 0;
  double reconfig_downtime_s = 0.0;  ///< summed engine-unavailable time
  std::size_t route_entries = 0;
};

class controller_service {
 public:
  /// Called each epoch with the freshly computed routes (e.g. to install
  /// them into an onfiber_runtime).
  using publish_fn =
      std::function<void(const std::vector<compute_route_entry>&)>;

  controller_service(net::shard_engine& engine, const net::topology& topo,
                     std::vector<transponder_info> transponders,
                     service_config config = {});

  /// Register a demand active during [start_s, end_s).
  void add_demand(compute_demand demand, double start_s, double end_s);

  void set_publish_callback(publish_fn cb) { publish_ = std::move(cb); }

  /// Schedule the epoch loop; call before running the engine.
  void start();

  [[nodiscard]] const std::vector<epoch_report>& history() const {
    return history_;
  }

  /// Total reconfiguration ops issued over the run.
  [[nodiscard]] std::size_t total_reconfigs() const {
    std::size_t n = 0;
    for (const auto& e : history_) n += e.reconfig_ops;
    return n;
  }

  /// Total engine downtime spent installing tasks over the run.
  [[nodiscard]] double total_downtime_s() const {
    double t = 0.0;
    for (const auto& e : history_) t += e.reconfig_downtime_s;
    return t;
  }

 private:
  struct timed_demand {
    compute_demand demand;
    double start_s;
    double end_s;
  };

  void run_epoch();
  [[nodiscard]] allocation_problem current_problem() const;
  [[nodiscard]] allocation_result solve(const allocation_problem& p) const;

  net::shard_engine& engine_;
  const net::topology& topo_;
  /// Persistent all-links-up SPF engine shared across epochs: the
  /// per-source trees the solvers and route expansion query are built
  /// once (lazily, per source actually used) instead of re-running
  /// Dijkstra every epoch. Mutable because solve() is const and tree
  /// construction is a cache fill.
  mutable net::spf_engine spf_;
  std::vector<transponder_info> transponders_;
  service_config config_;
  std::vector<timed_demand> demands_;
  publish_fn publish_;

  allocation_problem prev_problem_;
  allocation_result prev_result_;
  bool has_prev_ = false;
  std::uint64_t epoch_ = 0;
  std::vector<epoch_report> history_;
};

}  // namespace onfiber::ctrl
