// controller.hpp — the centralized controller of §3.
//
// "a centralized controller to continuously track the status of all
//  photonic compute transponders and dynamically reconfigure them ...
//  The optimization formulation takes user demands in terms of photonic
//  computing task dependency graphs (e.g., a computation DAG) and network
//  topology as input. It then takes the number of transponders at each
//  node as resource constraints. The optimization objective is to satisfy
//  as many compute demands as possible while minimizing the resource
//  utilization of transponders."
//
// The allocation problem is NP-hard (the paper concedes in §5 that it
// "is fundamentally an integer problem"). Three solvers are provided:
//   * greedy          — value-ordered, per-stage nearest feasible site;
//   * local search    — greedy + reassignment/satisfaction moves;
//   * exact (B&B)     — branch and bound, exponential, small instances.
// Bench E14 compares their quality and runtime.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "network/spf.hpp"
#include "network/topology.hpp"
#include "protocol/compute_header.hpp"

namespace onfiber::ctrl {

/// A registered photonic compute transponder.
struct transponder_info {
  std::uint32_t id = 0;
  net::node_id node = net::invalid_node;
  std::vector<proto::primitive_id> primitives;  ///< configurable task set
  double capacity_ops_s = 1e6;  ///< analog evaluations per second

  [[nodiscard]] bool supports(proto::primitive_id p) const {
    for (const auto q : primitives) {
      if (q == p) return true;
    }
    return false;
  }
};

/// One user demand: a chain of compute stages (a path-shaped task DAG;
/// §3's "computation DAG" restricted to chains, which cover all Table-1
/// use cases) that must execute in order somewhere between src and dst.
struct compute_demand {
  std::uint32_t id = 0;
  net::node_id src = net::invalid_node;
  net::node_id dst = net::invalid_node;
  std::vector<proto::primitive_id> chain;  ///< stage primitives, in order
  double rate_ops_s = 1e3;  ///< evaluations/s consumed on each stage's site
  double value = 1.0;       ///< objective weight
};

/// Assignment of one demand.
struct demand_assignment {
  std::uint32_t demand_id = 0;
  bool satisfied = false;
  std::vector<std::uint32_t> transponder_ids;  ///< one per chain stage
  double path_delay_s = 0.0;  ///< src -> sites... -> dst total delay
};

struct allocation_result {
  std::vector<demand_assignment> assignments;
  double satisfied_value = 0.0;
  double total_delay_s = 0.0;       ///< over satisfied demands
  std::size_t transponders_used = 0;

  /// Scalarized objective: satisfied value dominates; delay and resource
  /// use break ties (weighted small enough never to trade against a unit
  /// of demand value at WAN delay scales).
  [[nodiscard]] double score() const {
    return satisfied_value - 1e-4 * total_delay_s -
           1e-8 * static_cast<double>(transponders_used);
  }
};

/// The allocation problem instance.
struct allocation_problem {
  const net::topology* topo = nullptr;
  std::vector<transponder_info> transponders;
  std::vector<compute_demand> demands;
};

// Every solver takes an optional shared incremental-SPF engine over
// p.topo. When given, delay lookups reuse its persistent per-source
// trees (built lazily, only for sources the solve actually touches, and
// reusable across epochs); when null, a throwaway all-links-up engine is
// built for the solve. Results are identical either way provided the
// shared engine's link state is all-up — the historical solver contract.

/// Greedy solver: demands in descending value order; each stage placed on
/// the feasible transponder minimizing incremental path delay.
[[nodiscard]] allocation_result solve_greedy(const allocation_problem& p,
                                             net::spf_engine* spf = nullptr);

/// Greedy + hill climbing: single-stage reassignment moves and attempts
/// to satisfy unsatisfied demands after capacity shuffles.
[[nodiscard]] allocation_result solve_local_search(
    const allocation_problem& p, std::size_t max_rounds = 16,
    net::spf_engine* spf = nullptr);

/// Exact branch and bound. Exponential in demand count — intended for
/// instances up to ~12 demands; throws std::invalid_argument beyond
/// `max_demands` as a guard.
[[nodiscard]] allocation_result solve_exact(const allocation_problem& p,
                                            std::size_t max_demands = 16,
                                            net::spf_engine* spf = nullptr);

// ---------------------------------------------------------------- routes

/// A compute-route row for the data plane: at `at`, packets for
/// `dst_prefix` requiring `primitive` take `next_hop`.
struct compute_route_entry {
  net::node_id at = net::invalid_node;
  net::prefix dst_prefix{};
  proto::primitive_id primitive = proto::primitive_id::none;
  net::node_id next_hop = net::invalid_node;
};

/// Expand an allocation into per-node two-field routes (§3: the controller
/// "delivers next-hop updates to all routers"). For each satisfied demand,
/// routes steer along src -> site(s) -> dst shortest paths.
[[nodiscard]] std::vector<compute_route_entry> routes_for_allocation(
    const allocation_problem& p, const allocation_result& r,
    net::spf_engine* spf = nullptr);

// -------------------------------------------------------------- failover

/// Controller's answer to "this compute site stopped responding: where
/// should the retry go?" (§3: the controller continuously tracks
/// transponder status and reconfigures).
struct failover_plan {
  net::node_id site = net::invalid_node;  ///< alternate compute site
  double via_delay_s = 0.0;  ///< src -> site -> dst delay over live links
};

/// Pick the capable site minimizing src -> site -> dst propagation delay
/// over the links `spf` holds up, excluding `exclude_site` (the site the
/// data plane observed timing out — invalid_node excludes nothing, which
/// yields the primary site). nullopt when no capable site is reachable.
/// Delays are O(1) lookups in the engine's trees, bit-equal to the
/// per-leg path_delay_s sums of topology::shortest_path. The trees must
/// already cover the queried sources when called from shard threads
/// (wan_fabric's first install guarantees that for its engine).
[[nodiscard]] std::optional<failover_plan> plan_failover_site(
    net::spf_engine& spf, std::span<const net::node_id> capable_sites,
    net::node_id exclude_site, net::node_id src, net::node_id dst);

// -------------------------------------------------------- reconfiguration

/// One transponder retasking operation.
struct reconfig_op {
  std::uint32_t transponder_id = 0;
  proto::primitive_id install = proto::primitive_id::none;
};

/// Plan the reconfigurations needed to serve `next` given `prev`
/// (transponders whose active primitive set changes).
[[nodiscard]] std::vector<reconfig_op> plan_reconfiguration(
    const allocation_problem& p, const allocation_result& prev,
    const allocation_result& next);

}  // namespace onfiber::ctrl
