#include "controller/controller.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

namespace onfiber::ctrl {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Delay oracle + residual capacities. Delays come from a shared
/// incremental-SPF engine when the caller has one (its per-source trees
/// persist across solves) or from an owned all-links-up engine built for
/// this solve. Either way only the sources the solve touches get a tree
/// — the seed's eager all-pairs matrix is gone — and each tree dist is
/// bit-identical to path_delay_s over the seed Dijkstra's path (same
/// left-to-right float accumulation), so solver outputs are unchanged.
struct solver_context {
  const allocation_problem& problem;
  net::spf_engine* spf = nullptr;
  std::unique_ptr<net::spf_engine> owned;  ///< fallback when none shared
  std::vector<double> residual;            ///< per transponder

  explicit solver_context(const allocation_problem& p,
                          net::spf_engine* shared = nullptr)
      : problem(p), spf(shared) {
    if (p.topo == nullptr) {
      throw std::invalid_argument("allocation_problem: missing topology");
    }
    if (spf == nullptr) {
      owned = std::make_unique<net::spf_engine>(*p.topo);
      spf = owned.get();
    }
    residual.reserve(p.transponders.size());
    for (const auto& t : p.transponders) residual.push_back(t.capacity_ops_s);
  }

  /// Shortest delay u -> v [s]; inf when unreachable, 0 when u == v.
  [[nodiscard]] double delay(net::node_id u, net::node_id v) const {
    return spf->dist(u, v);
  }

  /// Delay of src -> sites... -> dst for a concrete site sequence.
  [[nodiscard]] double chain_delay(const compute_demand& d,
                                   const std::vector<std::uint32_t>& tids) const {
    double total = 0.0;
    net::node_id cur = d.src;
    for (const std::uint32_t tid : tids) {
      const net::node_id s = problem.transponders[tid].node;
      const double leg = delay(cur, s);
      if (leg == inf) return inf;
      total += leg;
      cur = s;
    }
    const double tail = delay(cur, d.dst);
    if (tail == inf) return inf;
    return total + tail;
  }
};

/// Try to place `d` greedily given residual capacities; returns the site
/// tuple (transponder ids) or nullopt.
std::optional<std::vector<std::uint32_t>> place_greedy(
    const solver_context& ctx, const std::vector<double>& residual,
    const compute_demand& d) {
  std::vector<std::uint32_t> chosen;
  // A demand may use the same transponder for several stages only if the
  // transponder has capacity for each stage evaluation.
  std::vector<double> local = residual;
  net::node_id cur = d.src;
  for (const auto prim : d.chain) {
    std::uint32_t best_tid = 0;
    double best_cost = inf;
    bool found = false;
    for (std::uint32_t tid = 0; tid < ctx.problem.transponders.size();
         ++tid) {
      const transponder_info& t = ctx.problem.transponders[tid];
      if (!t.supports(prim) || local[tid] < d.rate_ops_s) continue;
      const double cost =
          ctx.delay(cur, t.node) + ctx.delay(t.node, d.dst);
      if (cost < best_cost) {
        best_cost = cost;
        best_tid = tid;
        found = true;
      }
    }
    if (!found || best_cost == inf) return std::nullopt;
    chosen.push_back(best_tid);
    local[best_tid] -= d.rate_ops_s;
    cur = ctx.problem.transponders[best_tid].node;
  }
  return chosen;
}

/// Apply/release an assignment's capacity.
void apply_capacity(std::vector<double>& residual,
                    const allocation_problem& p, const compute_demand& d,
                    const std::vector<std::uint32_t>& tids, double sign) {
  (void)p;
  for (const std::uint32_t tid : tids) {
    residual[tid] -= sign * d.rate_ops_s;
  }
}

/// Recompute the aggregate fields of a result from its assignments.
void finalize(const allocation_problem& p, const solver_context& ctx,
              allocation_result& r) {
  r.satisfied_value = 0.0;
  r.total_delay_s = 0.0;
  std::set<std::uint32_t> used;
  for (auto& a : r.assignments) {
    if (!a.satisfied) continue;
    const auto& d = p.demands[a.demand_id];
    a.path_delay_s = ctx.chain_delay(d, a.transponder_ids);
    r.satisfied_value += d.value;
    r.total_delay_s += a.path_delay_s;
    for (const auto tid : a.transponder_ids) used.insert(tid);
  }
  r.transponders_used = used.size();
}

/// Demands ordered by (value desc, id asc) for greedy processing.
std::vector<std::size_t> value_order(const allocation_problem& p) {
  std::vector<std::size_t> order(p.demands.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (p.demands[a].value != p.demands[b].value) {
      return p.demands[a].value > p.demands[b].value;
    }
    return p.demands[a].id < p.demands[b].id;
  });
  return order;
}

void validate(const allocation_problem& p) {
  if (p.topo == nullptr) {
    throw std::invalid_argument("allocation_problem: missing topology");
  }
  for (const auto& d : p.demands) {
    if (d.chain.empty()) {
      throw std::invalid_argument("compute_demand: empty chain");
    }
    if (d.src >= p.topo->node_count() || d.dst >= p.topo->node_count()) {
      throw std::invalid_argument("compute_demand: bad endpoints");
    }
    if (d.rate_ops_s <= 0.0 || d.value <= 0.0) {
      throw std::invalid_argument("compute_demand: non-positive rate/value");
    }
  }
  for (const auto& t : p.transponders) {
    if (t.node >= p.topo->node_count()) {
      throw std::invalid_argument("transponder_info: bad node");
    }
  }
}

}  // namespace

allocation_result solve_greedy(const allocation_problem& p,
                               net::spf_engine* spf) {
  validate(p);
  solver_context ctx(p, spf);
  allocation_result r;
  r.assignments.resize(p.demands.size());
  for (std::size_t i = 0; i < p.demands.size(); ++i) {
    r.assignments[i].demand_id = static_cast<std::uint32_t>(i);
  }
  std::vector<double> residual = ctx.residual;
  for (const std::size_t di : value_order(p)) {
    const compute_demand& d = p.demands[di];
    auto placed = place_greedy(ctx, residual, d);
    if (placed) {
      apply_capacity(residual, p, d, *placed, +1.0);
      r.assignments[di].satisfied = true;
      r.assignments[di].transponder_ids = std::move(*placed);
    }
  }
  finalize(p, ctx, r);
  return r;
}

allocation_result solve_local_search(const allocation_problem& p,
                                     std::size_t max_rounds,
                                     net::spf_engine* spf) {
  validate(p);
  solver_context ctx(p, spf);
  allocation_result best = solve_greedy(p, ctx.spf);

  // Track residual capacity under `best`.
  std::vector<double> residual = ctx.residual;
  for (const auto& a : best.assignments) {
    if (a.satisfied) {
      apply_capacity(residual, p, p.demands[a.demand_id], a.transponder_ids,
                     +1.0);
    }
  }

  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool improved = false;

    // Move 1: delay-improving single-stage reassignments.
    for (auto& a : best.assignments) {
      if (!a.satisfied) continue;
      const compute_demand& d = p.demands[a.demand_id];
      for (std::size_t stage = 0; stage < a.transponder_ids.size(); ++stage) {
        const std::uint32_t cur_tid = a.transponder_ids[stage];
        const double cur_delay = ctx.chain_delay(d, a.transponder_ids);
        for (std::uint32_t tid = 0; tid < p.transponders.size(); ++tid) {
          if (tid == cur_tid) continue;
          const transponder_info& t = p.transponders[tid];
          if (!t.supports(d.chain[stage]) || residual[tid] < d.rate_ops_s) {
            continue;
          }
          std::vector<std::uint32_t> trial = a.transponder_ids;
          trial[stage] = tid;
          const double trial_delay = ctx.chain_delay(d, trial);
          if (trial_delay < cur_delay - 1e-12) {
            residual[cur_tid] += d.rate_ops_s;
            residual[tid] -= d.rate_ops_s;
            a.transponder_ids = std::move(trial);
            improved = true;
            break;
          }
        }
      }
    }

    // Move 2: try to satisfy previously unsatisfied demands (capacity may
    // have shifted; also consider relocating one blocking stage).
    for (auto& a : best.assignments) {
      if (a.satisfied) continue;
      const compute_demand& d = p.demands[a.demand_id];
      auto placed = place_greedy(ctx, residual, d);
      if (placed) {
        apply_capacity(residual, p, d, *placed, +1.0);
        a.satisfied = true;
        a.transponder_ids = std::move(*placed);
        improved = true;
        continue;
      }
      // Relocation: find a satisfied demand stage on a transponder that
      // would unblock `d`, and move it to any other feasible transponder.
      for (auto& other : best.assignments) {
        if (!other.satisfied || other.demand_id == a.demand_id) continue;
        const compute_demand& od = p.demands[other.demand_id];
        bool unblocked = false;
        for (std::size_t stage = 0; stage < other.transponder_ids.size();
             ++stage) {
          const std::uint32_t blocking = other.transponder_ids[stage];
          for (std::uint32_t alt = 0; alt < p.transponders.size(); ++alt) {
            if (alt == blocking) continue;
            if (!p.transponders[alt].supports(od.chain[stage]) ||
                residual[alt] < od.rate_ops_s) {
              continue;
            }
            // Tentatively move, then retry `d`.
            residual[blocking] += od.rate_ops_s;
            residual[alt] -= od.rate_ops_s;
            auto retry = place_greedy(ctx, residual, d);
            if (retry) {
              other.transponder_ids[stage] = alt;
              apply_capacity(residual, p, d, *retry, +1.0);
              a.satisfied = true;
              a.transponder_ids = std::move(*retry);
              improved = true;
              unblocked = true;
              break;
            }
            residual[blocking] -= od.rate_ops_s;
            residual[alt] += od.rate_ops_s;
          }
          if (unblocked) break;
        }
        if (unblocked) break;
      }
    }

    if (!improved) break;
  }
  finalize(p, ctx, best);
  return best;
}

namespace {

/// Enumerate feasible site tuples for one demand given residuals.
void enumerate_tuples(const solver_context& ctx,
                      const std::vector<double>& residual,
                      const compute_demand& d, std::size_t stage,
                      std::vector<std::uint32_t>& prefix,
                      std::vector<double>& local,
                      std::vector<std::vector<std::uint32_t>>& out) {
  if (stage == d.chain.size()) {
    if (ctx.chain_delay(d, prefix) < inf) out.push_back(prefix);
    return;
  }
  for (std::uint32_t tid = 0; tid < ctx.problem.transponders.size(); ++tid) {
    const transponder_info& t = ctx.problem.transponders[tid];
    if (!t.supports(d.chain[stage]) || local[tid] < d.rate_ops_s) continue;
    prefix.push_back(tid);
    local[tid] -= d.rate_ops_s;
    enumerate_tuples(ctx, residual, d, stage + 1, prefix, local, out);
    local[tid] += d.rate_ops_s;
    prefix.pop_back();
  }
}

struct bnb_state {
  const allocation_problem& p;
  const solver_context& ctx;
  std::vector<double> residual;
  std::vector<std::optional<std::vector<std::uint32_t>>> chosen;
  double best_score = -inf;
  std::vector<std::optional<std::vector<std::uint32_t>>> best_chosen;
  std::vector<double> value_suffix;  ///< sum of demand values from index i

  double current_value = 0.0;
  double current_delay = 0.0;

  void search(std::size_t di) {
    // Bound: even satisfying everything remaining cannot beat best.
    const double optimistic = current_value + value_suffix[di];
    if (optimistic < best_score - 1e-12) return;

    if (di == p.demands.size()) {
      // Scalarized objective: satisfied value dominates; delay and
      // resource use break ties (weighted small enough never to trade
      // against a unit of demand value at WAN delay scales).
      std::set<std::uint32_t> used;
      for (const auto& c : chosen) {
        if (c) {
          for (const auto tid : *c) used.insert(tid);
        }
      }
      const double score = current_value - 1e-4 * current_delay -
                           1e-8 * static_cast<double>(used.size());
      if (score > best_score) {
        best_score = score;
        best_chosen = chosen;
      }
      return;
    }

    const compute_demand& d = p.demands[di];
    std::vector<std::vector<std::uint32_t>> tuples;
    std::vector<std::uint32_t> prefix;
    std::vector<double> local = residual;
    enumerate_tuples(ctx, residual, d, 0, prefix, local, tuples);

    // Prefer low-delay tuples so good solutions are found early.
    std::sort(tuples.begin(), tuples.end(),
              [&](const auto& a, const auto& b) {
                return ctx.chain_delay(d, a) < ctx.chain_delay(d, b);
              });

    for (const auto& tuple : tuples) {
      for (const auto tid : tuple) residual[tid] -= d.rate_ops_s;
      chosen[di] = tuple;
      current_value += d.value;
      current_delay += ctx.chain_delay(d, tuple);
      search(di + 1);
      current_delay -= ctx.chain_delay(d, tuple);
      current_value -= d.value;
      chosen[di].reset();
      for (const auto tid : tuple) residual[tid] += d.rate_ops_s;
    }
    // Option: leave the demand unsatisfied.
    search(di + 1);
  }
};

}  // namespace

allocation_result solve_exact(const allocation_problem& p,
                              std::size_t max_demands,
                              net::spf_engine* spf) {
  validate(p);
  if (p.demands.size() > max_demands) {
    throw std::invalid_argument(
        "solve_exact: instance exceeds max_demands guard");
  }
  solver_context ctx(p, spf);
  bnb_state state{p, ctx, ctx.residual,
                  std::vector<std::optional<std::vector<std::uint32_t>>>(
                      p.demands.size()),
                  -inf,
                  {},
                  {},
                  0.0,
                  0.0};
  state.value_suffix.assign(p.demands.size() + 1, 0.0);
  for (std::size_t i = p.demands.size(); i-- > 0;) {
    state.value_suffix[i] = state.value_suffix[i + 1] + p.demands[i].value;
  }
  state.search(0);

  allocation_result r;
  r.assignments.resize(p.demands.size());
  for (std::size_t i = 0; i < p.demands.size(); ++i) {
    r.assignments[i].demand_id = static_cast<std::uint32_t>(i);
    if (i < state.best_chosen.size() && state.best_chosen[i]) {
      r.assignments[i].satisfied = true;
      r.assignments[i].transponder_ids = *state.best_chosen[i];
    }
  }
  finalize(p, ctx, r);
  return r;
}

std::vector<compute_route_entry> routes_for_allocation(
    const allocation_problem& p, const allocation_result& r,
    net::spf_engine* spf) {
  validate(p);
  std::unique_ptr<net::spf_engine> owned;
  if (spf == nullptr) {
    owned = std::make_unique<net::spf_engine>(*p.topo);
    spf = owned.get();
  }
  std::vector<compute_route_entry> out;
  // First writer wins per (node, prefix, primitive).
  std::set<std::tuple<net::node_id, std::uint32_t, int, std::uint8_t>> seen;

  for (const auto& a : r.assignments) {
    if (!a.satisfied) continue;
    const compute_demand& d = p.demands[a.demand_id];
    const net::prefix dst_prefix = p.topo->node_at(d.dst).attached_prefix;

    net::node_id cur = d.src;
    for (std::size_t stage = 0; stage < a.transponder_ids.size(); ++stage) {
      const net::node_id site =
          p.transponders[a.transponder_ids[stage]].node;
      const auto leg = spf->path(cur, site);
      for (std::size_t i = 0; i + 1 < leg.size(); ++i) {
        const auto key = std::make_tuple(
            leg[i], dst_prefix.network.value, dst_prefix.length,
            static_cast<std::uint8_t>(d.chain[stage]));
        if (seen.insert(key).second) {
          out.push_back(compute_route_entry{leg[i], dst_prefix,
                                            d.chain[stage], leg[i + 1]});
        }
      }
      cur = site;
    }
    // After the last stage the packet carries its result and follows plain
    // IP routes to dst; no compute entries needed.
  }
  return out;
}

std::vector<reconfig_op> plan_reconfiguration(const allocation_problem& p,
                                              const allocation_result& prev,
                                              const allocation_result& next) {
  // Active primitive set per transponder under an allocation.
  const auto active = [&](const allocation_result& r) {
    std::map<std::uint32_t, std::set<proto::primitive_id>> m;
    for (const auto& a : r.assignments) {
      if (!a.satisfied) continue;
      const compute_demand& d = p.demands[a.demand_id];
      for (std::size_t stage = 0; stage < a.transponder_ids.size(); ++stage) {
        m[a.transponder_ids[stage]].insert(d.chain[stage]);
      }
    }
    return m;
  };
  const auto before = active(prev);
  const auto after = active(next);

  std::vector<reconfig_op> ops;
  for (const auto& [tid, prims] : after) {
    const auto it = before.find(tid);
    for (const auto prim : prims) {
      if (it == before.end() || it->second.count(prim) == 0) {
        ops.push_back(reconfig_op{tid, prim});
      }
    }
  }
  return ops;
}

std::optional<failover_plan> plan_failover_site(
    net::spf_engine& spf, std::span<const net::node_id> capable_sites,
    net::node_id exclude_site, net::node_id src, net::node_id dst) {
  std::optional<failover_plan> best;
  for (const net::node_id site : capable_sites) {
    if (site == exclude_site) continue;
    double via = 0.0;
    if (site != src) {
      const double leg = spf.dist(src, site);
      if (leg == inf) continue;
      via += leg;
    }
    if (site != dst) {
      const double leg = spf.dist(site, dst);
      if (leg == inf) continue;
      via += leg;
    }
    if (!best || via < best->via_delay_s) {
      best = failover_plan{site, via};
    }
  }
  return best;
}

}  // namespace onfiber::ctrl
