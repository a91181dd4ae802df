// runtime.hpp — the on-fiber computing runtime: WAN fabric + photonic
// compute transponders + compute-aware routing (paper Fig. 1 end to end).
//
// The runtime installs a hook at every fabric node implementing the §3
// data plane:
//   * plain packets forward normally (backward compatibility);
//   * compute packets that transit a node hosting an engine supporting
//     their primitive are processed there (serially — one analog engine
//     per transponder), then continue to their destination carrying the
//     result;
//   * compute packets elsewhere are steered by the two-field
//     (destination, primitive) tables that the centralized controller —
//     or the built-in nearest-site heuristic — installs.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/photonic_engine.hpp"
#include "network/fabric.hpp"
#include "obs/metrics.hpp"
#include "protocol/compute_routing.hpp"

namespace onfiber::core {

class onfiber_runtime final : public net::packet_event_sink {
 public:
  /// The fabric partitions the topology across the engine's shards and
  /// hooks run on the owning shard's thread. Site state stays per-node
  /// (a node lives on exactly one shard), while the runtime's counters,
  /// delivery log, and reliability layer become per-shard and are
  /// merged deterministically on read. Reliable tasks are owned by the
  /// shard of their ingress node: the task table, RTO timers, and
  /// failover planning all live there, while acks ride the fabric (and
  /// its cross-shard parcel channels) like any other packet.
  /// Control-plane entry points — submit_reliable, enable_reliability,
  /// set_bit_error_rate — must be called from setup or a schedule_global
  /// event.
  onfiber_runtime(net::shard_engine& engine, net::topology topo);

  onfiber_runtime(const onfiber_runtime&) = delete;
  onfiber_runtime& operator=(const onfiber_runtime&) = delete;

  /// Deploy a photonic compute transponder at a node. Returns the engine
  /// for task configuration. One engine per node in this model (the
  /// paper's "photonic compute transponder at site B" granularity).
  photonic_engine& deploy_engine(net::node_id at, engine_config config,
                                 std::uint64_t seed);

  /// Does `at` host an engine supporting `p`?
  [[nodiscard]] bool site_supports(net::node_id at,
                                   proto::primitive_id p) const;

  /// Nodes hosting engines.
  [[nodiscard]] std::vector<net::node_id> sites() const;

  /// Manually install a compute route (controller output): at node `at`,
  /// compute packets for `dst` needing `p` go toward `next_hop`.
  void set_compute_route(net::node_id at, net::prefix dst,
                         proto::primitive_id p, net::node_id next_hop);

  /// Built-in heuristic: for every (node, primitive, destination), steer
  /// via the supporting site minimizing total path delay. The centralized
  /// controller's optimizer (src/controller) produces better placements;
  /// this gives examples/tests a working default. Also records the
  /// capable sites that spread steering (below) picks from.
  void install_compute_routes_via_nearest_site();

  /// How compute packets pick among capable sites (§4: "this new policy
  /// should mitigate congestion and achieve efficient load balancing").
  enum class steering_policy : std::uint8_t {
    nearest_site,  ///< all flows to the delay-optimal site (default)
    flow_spread,   ///< hash flows across ALL capable sites — relieves a
                   ///< hot serial engine at some path-stretch cost.
                   ///< Hops toward the chosen site follow the fabric's
                   ///< installed routes (stale inside a reconvergence
                   ///< window, like all forwarding).
  };
  void set_steering_policy(steering_policy p) { steering_ = p; }

  // ---------------------------------------------- admission / backpressure
  //
  // A site's compute queue — serial work admitted but not yet
  // re-injected — is bounded. Without a bound, overload grows the queue
  // (and the event backlog behind an ever-receding busy_until_s)
  // without limit; with one, overload degrades goodput gracefully: the
  // overflow packet is either deferred (forwarded raw toward its
  // destination, where it counts as uncomputed_delivered) or dropped at
  // the hook. The check adds no events and removes none below the
  // bound, so traces of workloads that never overflow are bit-identical
  // to the unbounded runtime.
  struct admission_config {
    /// Maximum packets queued at one site (admitted computes still in
    /// service). 0 = unbounded (the historical behavior).
    std::size_t max_site_queue = 4096;
    enum class overflow_policy : std::uint8_t {
      defer,  ///< skip compute here; forward the packet raw
      drop,   ///< discard the packet (a fabric hook_drop)
    };
    overflow_policy policy = overflow_policy::defer;
  };
  void set_admission(admission_config cfg) { admission_ = cfg; }

  struct admission_stats {
    std::uint64_t admitted = 0;  ///< packets committed to a site queue
    std::uint64_t deferred = 0;  ///< overflow packets forwarded raw
    std::uint64_t dropped = 0;   ///< overflow packets discarded
    /// High-watermark over all sites: the in-service backlog an
    /// arriving packet found, plus that packet when admitted.
    std::uint64_t max_queue_depth = 0;
  };
  /// Counters kept per shard and summed on read (max for the watermark).
  [[nodiscard]] const admission_stats& admission() const;

  /// Delivery-log control for open-loop workloads: the per-delivery log
  /// (deliveries()) materializes every delivered packet, which cannot
  /// reach millions of packets. Turn it off and attach an observer —
  /// called on the delivering shard's thread for every non-ack delivery
  /// (aggregate per shard, e.g. net::completion_recorder).
  void set_record_deliveries(bool on) { record_deliveries_ = on; }
  using delivery_observer_fn =
      std::function<void(const net::packet&, net::node_id, double)>;
  void set_delivery_observer(delivery_observer_fn fn) {
    on_delivered_ = std::move(fn);
  }

  /// Inject a packet at a node.
  void submit(net::packet pkt, net::node_id ingress);

  [[nodiscard]] net::wan_fabric& fabric() { return fabric_; }
  [[nodiscard]] const net::wan_fabric& fabric() const { return fabric_; }

  // ------------------------------------------------------------- results
  struct delivery {
    net::packet pkt;
    net::node_id at = net::invalid_node;
    double time_s = 0.0;
  };
  /// Delivered packets. A 1-shard runtime returns the log in raw event
  /// order. Multi-shard runtimes keep one log per shard and merge by
  /// (time_s, at) on read — deterministic because same-node deliveries
  /// are same-shard (already ordered) and cross-node ties at the exact
  /// same double timestamp do not occur in the golden workloads.
  [[nodiscard]] const std::vector<delivery>& deliveries() const;

  struct runtime_stats {
    std::uint64_t computed = 0;             ///< packets computed at a site
    std::uint64_t redirected = 0;           ///< compute-route redirects
    std::uint64_t uncomputed_delivered = 0; ///< required compute never ran
    std::uint64_t malformed_dropped = 0;    ///< bad compute headers dropped
  };
  /// Counters are kept per shard and summed on read (order-independent
  /// integer sums — deterministic at any shard count).
  [[nodiscard]] const runtime_stats& stats() const;

  /// Aggregate compute latency spent at each site (indexed by node id;
  /// 0 for nodes without engines).
  [[nodiscard]] double site_busy_s(net::node_id at) const;

  // -------------------------------------------------------- reliability
  //
  // End-to-end ack/retry/failover for compute tasks (§5: on-fiber compute
  // must survive drops, link failures and reconvergence windows). A task
  // submitted via submit_reliable() is tracked in a table keyed by
  // task_id; the destination's delivery triggers an ack packet back to
  // the source, and a timer retransmits the stored request with
  // exponential backoff until the ack lands or the retry cap is hit.
  // After `failover_after` consecutive timeouts the runtime asks the
  // controller (ctrl::plan_failover_site) for an alternate compute site
  // over live links and pins the task's retries to it.
  //
  // Sharded fabrics: every task is owned by the shard of its ingress
  // node — its table entry, RTO timers, and failover planning run on
  // that shard's event loop, and retransmits re-enter the fabric at the
  // ingress. The destination side is stateless: requests carry
  // proto::flag_tracked, so acking and duplicate accounting are decided
  // from the wire alone on whichever shard delivers. Acks are ordinary
  // fabric packets (they queue, cross shards as parcels, and can be
  // lost); an ack landing off the owner shard hands completion over
  // via an engine parcel one lookahead later. Failover planning reads
  // only coordinator-owned state (link map, capable-site tables) that is
  // never written while shard threads run, so planning on the owner
  // shard is race-free and keeps recovery traces bit-identical at any
  // shard count.

  struct reliability_config {
    double initial_rto_s = 0.05;  ///< first retransmit timeout
    double backoff = 2.0;         ///< rto multiplier per timeout
    int max_retries = 6;          ///< retransmits before terminal failure
    int failover_after = 2;       ///< consecutive timeouts before failover
  };

  struct reliability_stats {
    std::uint64_t submitted = 0;   ///< tasks entered into the table
    std::uint64_t completed = 0;   ///< tasks acknowledged end to end
    std::uint64_t failed = 0;      ///< tasks past the retry cap
    std::uint64_t retransmits = 0; ///< retry transmissions
    std::uint64_t failovers = 0;   ///< controller-driven site changes
    std::uint64_t acks_sent = 0;   ///< acks emitted at destinations
    std::uint64_t duplicate_deliveries = 0;  ///< dupes from retransmits
    double total_completion_s = 0.0;  ///< sum of submit->ack latencies
    double max_completion_s = 0.0;    ///< worst submit->ack latency

    [[nodiscard]] double mean_completion_s() const {
      return completed > 0 ? total_completion_s /
                                 static_cast<double>(completed)
                           : 0.0;
    }
  };

  /// One line of the recovery trace. Traces are appended in event order,
  /// so at a fixed seed the whole trace is bit-reproducible (the
  /// determinism tests compare them across runs and thread counts).
  struct reliability_event {
    enum class kind : std::uint8_t {
      submit,
      retransmit,
      failover,
      ack,
      fail,
    };
    kind what = kind::submit;
    std::uint32_t task_id = 0;
    double time_s = 0.0;
    net::node_id site = net::invalid_node;  ///< pinned site (failover only)
  };

  /// Called once per task that exhausts its retries (terminal failure).
  using task_failure_fn = std::function<void(std::uint32_t task_id)>;

  /// Turn the reliability layer on (idempotent). The config applies
  /// live: initial_rto_s seeds the timer of tasks submitted afterwards,
  /// while backoff / max_retries / failover_after are read at each
  /// timeout, so reconfiguring also governs tasks already in flight.
  void enable_reliability(reliability_config cfg);
  void enable_reliability() { enable_reliability(reliability_config{}); }
  [[nodiscard]] bool reliability_enabled() const {
    return reliability_enabled_;
  }
  void set_task_failure_callback(task_failure_fn cb) {
    on_task_failed_ = std::move(cb);
  }

  /// Submit a compute packet with end-to-end tracking. The packet must
  /// carry a valid compute header; its task_id keys the task table and
  /// must not collide with a task still in flight. Returns the task_id.
  /// Control-plane in sharded mode: call from setup or schedule_global.
  std::uint32_t submit_reliable(net::packet pkt, net::node_id ingress);

  /// Tasks still awaiting an ack (summed across shards).
  [[nodiscard]] std::size_t tasks_in_flight() const {
    std::size_t n = 0;
    for (const auto& rs : rel_shards_) n += rs->pending.size();
    return n;
  }

  /// Counters summed across shards (integer sums are order-independent;
  /// total_completion_s is summed per shard then across shards in fixed
  /// shard order — deterministic per shard count, though the double sum
  /// is not comparable bit-for-bit between different shard counts).
  [[nodiscard]] const reliability_stats& reliability() const;
  /// A 1-shard runtime returns the trace in raw event order. Multi-shard
  /// runtimes merge the per-shard traces by (time_s, task_id) with a
  /// stable sort: all events of one task are recorded on its owner
  /// shard, so per-task order survives the merge.
  [[nodiscard]] const std::vector<reliability_event>& recovery_trace() const;

  /// Cross-shard task-completion handoff (packet_event_sink): an ack
  /// that landed off its task's owner shard arrives here, on the owner
  /// shard, as an engine parcel. Not for direct use.
  static constexpr std::uint8_t op_complete_task = 0;
  void on_packet_event(std::uint8_t op, net::packet&& pkt,
                       std::uint32_t node) override;

 private:
  struct site {
    std::unique_ptr<photonic_engine> engine;
    double busy_until_s = 0.0;  ///< serial analog engine availability
    double total_busy_s = 0.0;
    std::uint64_t computed = 0;
    /// Completion times of admitted-but-unfinished computes, pruned
    /// against now on every arrival: the bounded "site queue" of
    /// admission_config.
    std::deque<double> service_done;
  };

  struct pending_task {
    net::packet request;          ///< stored copy for retransmission
    net::node_id ingress = net::invalid_node;
    proto::primitive_id primitive = proto::primitive_id::none;
    double rto_s = 0.0;           ///< current retransmit timeout
    int attempts = 0;             ///< consecutive timeouts so far
    std::uint64_t generation = 0; ///< invalidates stale timers
    double submitted_s = 0.0;     ///< first submission time
    net::node_id pinned_site = net::invalid_node;  ///< failover target
  };

  /// Reliability state owned by one shard's event loop. The pending
  /// table, trace, and owner-side stats belong to the shards that
  /// submitted the tasks; the delivered-history ring (duplicate
  /// accounting) and acks_sent/duplicate counters are written by the
  /// shards where tracked results deliver. A 1-shard runtime has exactly
  /// one. Cache-line aligned like wan_fabric::shard_state.
  struct alignas(64) rel_shard {
    std::unordered_map<std::uint32_t, pending_task> pending;
    std::vector<reliability_event> trace;
    reliability_stats stats;
    /// Task ids whose result already delivered at a node of this shard
    /// (ring + membership set, capped at kCompletedHistory): duplicate
    /// deliveries from retransmits are counted from here, including
    /// ones landing after the ack erased the pending entry.
    std::vector<std::uint32_t> delivered_ring;
    std::size_t delivered_next = 0;
    std::unordered_set<std::uint32_t> delivered_set;
  };

  net::hook_decision on_packet(net::node_id at, net::packet& pkt, double now);

  void on_delivery(const net::packet& pkt, net::node_id at, double now);
  void send_tracked(pending_task& task, std::uint32_t task_id);
  void on_timeout(std::uint32_t task_id, std::uint64_t generation);
  void complete_task(std::uint32_t task_id, double now);

  /// The reliability bucket owning task `task_id`'s table entry, or
  /// nullptr for an id the directory has never seen.
  [[nodiscard]] rel_shard* owner_shard_of(std::uint32_t task_id);

  /// Destination-side duplicate accounting on `rs` (the delivering
  /// shard's bucket).
  void remember_delivered(rel_shard& rs, std::uint32_t task_id);
  [[nodiscard]] static bool recently_delivered(const rel_shard& rs,
                                               std::uint32_t task_id) {
    return rs.delivered_set.contains(task_id);
  }
  /// Task-id reuse: erase the id from every shard's delivered history
  /// (control-plane — submit_reliable runs with shard threads parked).
  void forget_completed(std::uint32_t task_id);

  /// Record one site utilization/queue-depth sample (tracing only).
  void sample_site_timeline(net::node_id at, const site& s, double now,
                            std::size_t queue_depth) const;

  /// Site queue depth with the in-service backlog pruned to `now`.
  [[nodiscard]] static std::size_t queue_depth_of(site& s, double now);
  /// The admission bucket mutated by `at`'s shard thread.
  [[nodiscard]] admission_stats& admission_of(net::node_id at) {
    return shard_admission_[fabric_.shard_of(at)];
  }

  /// Per-packet fixed overhead at a compute site: optical preamble
  /// detection (17 symbols on the P2 matcher) + result insertion.
  [[nodiscard]] double site_overhead_s(const site& s) const;

  /// The event loop owning `at`. Site compute re-injection must ride
  /// the shard that runs the site's hook.
  [[nodiscard]] net::simulator& sim_for(net::node_id at) {
    return fabric_.sim_for(at);
  }
  /// The stats bucket mutated by `at`'s shard thread.
  [[nodiscard]] runtime_stats& stats_of(net::node_id at) {
    return shard_stats_[fabric_.shard_of(at)];
  }

  net::wan_fabric fabric_;
  /// All-links-up SPF baseline over the fabric's topology: answers the
  /// "which site would install-time routing have used?" question during
  /// failover planning without re-running Dijkstra per timeout. Copied
  /// in the constructor from fabric_.spf() right after the first route
  /// install (every tree built, all links up) and never mutated
  /// afterwards, so shard-thread queries are pure reads (fabric_.spf()
  /// goes on tracking *live* link state and cannot serve as this
  /// baseline).
  net::spf_engine baseline_spf_;
  std::vector<std::unique_ptr<site>> sites_;  // indexed by node id
  std::vector<proto::compute_routing_table<net::node_id>> compute_tables_;
  /// One delivery log / stats bucket per shard (single-writer each);
  /// merged views are rebuilt on demand.
  std::vector<std::vector<delivery>> shard_deliveries_;
  std::vector<runtime_stats> shard_stats_;
  mutable std::vector<delivery> deliveries_merged_;
  mutable runtime_stats stats_cache_;

  admission_config admission_{};
  /// One bucket per shard (single-writer each); merged view on read.
  std::vector<admission_stats> shard_admission_;
  mutable admission_stats admission_cache_;
  bool record_deliveries_ = true;
  delivery_observer_fn on_delivered_;

  steering_policy steering_ = steering_policy::nearest_site;
  /// Sites supporting each primitive, in node order (filled with the
  /// compute routes; empty until then). Spread steering hashes a flow
  /// onto one of them and forwards on fabric_.next_hop_to_node toward
  /// it — the installed routes, so it follows every reconvergence.
  std::array<std::vector<net::node_id>,
             static_cast<std::size_t>(proto::primitive_id::p1_p3_dnn) + 1>
      capable_sites_{};

  // -------------------------------------------------- reliability state
  bool reliability_enabled_ = false;
  reliability_config reliability_cfg_{};
  /// One bucket per shard (single-writer each, see rel_shard).
  std::vector<std::unique_ptr<rel_shard>> rel_shards_;
  /// task_id -> ingress node (whose shard owns the task). Written only
  /// by submit_reliable (control-plane: shard threads parked), read
  /// from shard threads; entries are overwritten on id reuse, never
  /// erased mid-run.
  std::unordered_map<std::uint32_t, net::node_id> task_ingress_;
  mutable reliability_stats reliability_cache_;
  mutable std::vector<reliability_event> trace_merged_;
  task_failure_fn on_task_failed_;

  /// Capacity of each shard's delivered-history ring.
  static constexpr std::size_t kCompletedHistory = 1024;

  // Observability handles (resolved once in the constructor; incremented
  // only while obs::enabled()). Mirror runtime_stats /
  // reliability_stats so the obs plane can be cross-checked against the
  // legacy counters.
  obs::counter* obs_computed_ = nullptr;
  obs::counter* obs_redirected_ = nullptr;
  obs::counter* obs_uncomputed_ = nullptr;
  obs::counter* obs_malformed_ = nullptr;
  obs::counter* obs_adm_admitted_ = nullptr;
  obs::counter* obs_adm_deferred_ = nullptr;
  obs::counter* obs_adm_dropped_ = nullptr;
  obs::counter* obs_rel_submitted_ = nullptr;
  obs::counter* obs_rel_completed_ = nullptr;
  obs::counter* obs_rel_failed_ = nullptr;
  obs::counter* obs_rel_retransmits_ = nullptr;
  obs::counter* obs_rel_failovers_ = nullptr;
  obs::counter* obs_rel_acks_ = nullptr;
  obs::counter* obs_rel_duplicates_ = nullptr;
};

}  // namespace onfiber::core
