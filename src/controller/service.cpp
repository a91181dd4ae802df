#include "controller/service.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace onfiber::ctrl {

namespace {

/// Active primitive set per transponder under an allocation.
std::map<std::uint32_t, std::set<proto::primitive_id>> active_map(
    const allocation_problem& p, const allocation_result& r) {
  std::map<std::uint32_t, std::set<proto::primitive_id>> m;
  for (const auto& a : r.assignments) {
    if (!a.satisfied) continue;
    const compute_demand& d = p.demands[a.demand_id];
    for (std::size_t s = 0; s < a.transponder_ids.size(); ++s) {
      m[a.transponder_ids[s]].insert(d.chain[s]);
    }
  }
  return m;
}

}  // namespace

controller_service::controller_service(net::shard_engine& engine,
                                       const net::topology& topo,
                                       std::vector<transponder_info>
                                           transponders,
                                       service_config config)
    : engine_(engine),
      topo_(topo),
      spf_(topo),
      transponders_(std::move(transponders)),
      config_(config) {
  if (config_.epoch_s <= 0.0) {
    throw std::invalid_argument("controller_service: epoch must be > 0");
  }
}

void controller_service::add_demand(compute_demand demand, double start_s,
                                    double end_s) {
  if (end_s <= start_s) {
    throw std::invalid_argument("controller_service: empty demand lifetime");
  }
  demands_.push_back(timed_demand{std::move(demand), start_s, end_s});
}

allocation_problem controller_service::current_problem() const {
  allocation_problem p;
  p.topo = &topo_;
  p.transponders = transponders_;
  const double now = engine_.primary().now();
  for (const auto& td : demands_) {
    if (td.start_s <= now && now < td.end_s) p.demands.push_back(td.demand);
  }
  return p;
}

allocation_result controller_service::solve(
    const allocation_problem& p) const {
  switch (config_.solver) {
    case solver_kind::greedy:
      return solve_greedy(p, &spf_);
    case solver_kind::local_search:
      return solve_local_search(p, 16, &spf_);
    case solver_kind::exact:
      return solve_exact(p, 16, &spf_);
  }
  return solve_greedy(p, &spf_);
}

void controller_service::run_epoch() {
  const allocation_problem p = current_problem();
  const allocation_result r = solve(p);

  // Reconfigurations: primitives newly active on each transponder vs the
  // previous epoch (demand sets differ between epochs, so the diff works
  // on the transponder-primitive level, not demand indices).
  std::size_t reconfigs = 0;
  const auto next_active = active_map(p, r);
  if (has_prev_) {
    const auto prev_active = active_map(prev_problem_, prev_result_);
    for (const auto& [tid, prims] : next_active) {
      const auto it = prev_active.find(tid);
      for (const auto prim : prims) {
        if (it == prev_active.end() || it->second.count(prim) == 0) {
          ++reconfigs;
        }
      }
    }
  } else {
    for (const auto& [tid, prims] : next_active) reconfigs += prims.size();
  }

  const auto routes = routes_for_allocation(p, r, &spf_);
  if (publish_) publish_(routes);

  const double now = engine_.primary().now();
  history_.push_back(epoch_report{
      epoch_, now, p.demands.size(), r.satisfied_value, reconfigs,
      static_cast<double>(reconfigs) * config_.reconfig.op_downtime_s(),
      routes.size()});
  prev_problem_ = p;
  prev_result_ = r;
  has_prev_ = true;
  ++epoch_;

  // Keep the loop alive while demands remain in the future or active.
  double horizon = 0.0;
  for (const auto& td : demands_) horizon = std::max(horizon, td.end_s);
  const bool more_epochs =
      config_.max_epochs == 0 || epoch_ < config_.max_epochs;
  if (more_epochs && now + config_.epoch_s <= horizon) {
    engine_.schedule_global(now + config_.epoch_s, [this] { run_epoch(); });
  }
}

void controller_service::start() {
  engine_.schedule_global(engine_.primary().now(), [this] { run_epoch(); });
}

}  // namespace onfiber::ctrl
