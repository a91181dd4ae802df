// fabric.hpp — the packet-forwarding WAN: topology + routers + links,
// driven by a shard_engine (one shard by default).
//
// Each node forwards on a flat next-hop table keyed by destination node
// (every node owns one distinct /24, so resolving an address to its node
// is the whole longest-prefix match). Links model serialization
// (bytes/capacity) plus fiber propagation delay, with FIFO queueing per
// link direction. A per-node intercept hook lets higher layers (the
// on-fiber runtime in src/core) examine and mutate packets in flight and
// override forwarding — that hook is exactly where photonic compute
// transponders attach, mirroring Fig. 4's "transponder plugged into the
// router" placement.
//
// The hot loop is allocation-free at steady state: hops ride typed
// packet events (event_sim.hpp), payload buffers recycle through a
// payload_pool, and routes are served from the flat next-hop table,
// the only copy of the installed routes.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "network/event_sim.hpp"
#include "network/shard_engine.hpp"
#include "network/packet.hpp"
#include "network/routing.hpp"
#include "network/spf.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "photonics/rng.hpp"

namespace onfiber::net {

/// What a node-level hook wants done with a packet.
struct hook_decision {
  enum class action_type {
    continue_forwarding,  ///< normal next-hop forwarding
    redirect,             ///< forward toward `redirect_to` instead
    consume,              ///< packet is absorbed at this node
    drop,                 ///< discard (counts as a drop)
  };
  action_type action = action_type::continue_forwarding;
  node_id redirect_to = invalid_node;
};

/// Per-reason drop counters; dropped() is their sum.
struct drop_stats {
  std::uint64_t ttl_expired = 0;   ///< TTL hit zero before delivery
  std::uint64_t link_down = 0;     ///< black-holed into a failed link
  std::uint64_t no_route = 0;      ///< no installed route to the destination
  std::uint64_t hook_drop = 0;     ///< a node hook said drop
  std::uint64_t bad_redirect = 0;  ///< hook redirect to an invalid node

  [[nodiscard]] std::uint64_t total() const {
    return ttl_expired + link_down + no_route + hook_drop + bad_redirect;
  }
};

class wan_fabric final : public packet_event_sink {
 public:
  /// Called when a packet reaches the node owning its destination prefix.
  using deliver_fn = std::function<void(const packet&, node_id, double)>;
  /// Per-node intercept, called on every packet transiting the node
  /// (including at the destination, before delivery). On `consume` the
  /// hook may steal the packet's payload (std::move) — the fabric is done
  /// with it. A hook that writes payload bytes of a packet it lets
  /// continue must clear `pkt.memo` (packet::header_memo): later hops'
  /// hooks may read the memo instead of re-parsing the payload.
  using hook_fn = std::function<hook_decision(node_id, packet&, double)>;

  /// The topology is partitioned across the engine's shards
  /// (partition_topology), a packet crossing a shard boundary rides the
  /// engine's bounded parcel channels, and control-plane work (flaps,
  /// reconvergence) runs as engine global events. With several shards
  /// the engine's lookahead is set to the minimum cross-shard link
  /// delay; with one, every hop stays on shard 0's queue.
  wan_fabric(shard_engine& engine, topology topo);

  /// Install shortest-path (by delay) routes for every node pair,
  /// avoiding failed links. Call again after fail_link/restore_link to
  /// reconverge. The first call builds the incremental-SPF engine's
  /// per-source trees and writes every route; later calls patch only the
  /// routes whose first hop the engine's delta passes changed —
  /// bit-identical tables either way (the Spf/Routing suites pin it).
  void install_shortest_path_routes();

  /// Take a link out of service: packets queued onto it are lost, routes
  /// keep pointing at it until reinstalled (the reconvergence window —
  /// the SPF engine delta-updates its trees eagerly here, but the
  /// datapath's next-hop table stays stale until the install call). The
  /// delta pass is timed into `routing.spf_delta_ns` while obs is on.
  void fail_link(std::size_t link_index);
  void restore_link(std::size_t link_index);

  /// One scripted link outage: the link goes down at `fail_at_s` and
  /// comes back at `restore_at_s` (simulation time).
  struct link_flap {
    std::size_t link_index = 0;
    double fail_at_s = 0.0;
    double restore_at_s = 0.0;
  };

  /// Fault-injection schedule (§5 WAN realities): each flap fails and
  /// later restores its link; after every state change the routing plane
  /// reconverges (install_shortest_path_routes) only once
  /// `reconvergence_delay_s` has elapsed — in that window packets chase
  /// stale routes into the dead link and are black-holed. A deterministic
  /// phot::rng stream seeded with `jitter_seed` adds up to
  /// `reconvergence_jitter_s` of extra per-event reconvergence delay, so
  /// schedules are bit-reproducible per seed.
  void schedule_flaps(std::span<const link_flap> flaps,
                      double reconvergence_delay_s,
                      std::uint64_t jitter_seed = 0,
                      double reconvergence_jitter_s = 0.0);

  /// Routing-plane reconvergences executed so far (scheduled flaps only).
  [[nodiscard]] std::uint64_t reconvergences() const {
    return reconvergences_;
  }

  /// Install or replace the intercept hook at one node.
  void set_hook(node_id at, hook_fn hook);

  void set_deliver_callback(deliver_fn cb) { on_deliver_ = std::move(cb); }

  /// Inject a packet at a node; forwarding begins immediately. Packets
  /// still carrying the struct default TTL (64) are stamped with
  /// recommended_ttl() so a long-diameter topology cannot silently
  /// black-hole default-constructed traffic; an explicitly set TTL is
  /// honored as-is.
  void send(packet pkt, node_id ingress);

  /// TTL that survives this topology: twice the hop diameter (detours —
  /// failover pins, hook redirects, delay-metric routes longer than the
  /// min-hop path — can exceed one diameter) plus margin, clamped to
  /// [64, 255].
  [[nodiscard]] std::uint8_t recommended_ttl() const {
    return recommended_ttl_;
  }

  /// Failure injection: flip payload bits with this per-bit probability
  /// on every link traversal (uncorrected post-FEC error floor). 0
  /// disables. Deterministic per seed: draws come from counter-based
  /// streams keyed on (seed, link, direction, per-direction transmit
  /// sequence), so the corruption pattern is a pure function of each
  /// packet's traversal history — bit-identical at any shard count, on
  /// reruns, and regardless of when this is called (reseeding mid-run
  /// is an ordinary control-plane event; see the .cpp note).
  void set_bit_error_rate(double ber, std::uint64_t seed);

  /// Packets that suffered at least one bit flip so far.
  [[nodiscard]] std::uint64_t corrupted() const {
    std::uint64_t total = 0;
    for (const auto& s : shard_states_) total += s->corrupted;
    return total;
  }

  [[nodiscard]] const topology& topo() const { return topo_; }
  /// The incremental-SPF engine, which holds this fabric's only copy of
  /// link state (the per-hop check reads it). Its trees always reflect
  /// the *current* link state (eagerly delta-updated by
  /// fail_link/restore_link), not the possibly stale installed routes.
  /// Higher layers (controller failover planning, compute-route
  /// install) query paths/delays here instead of re-running Dijkstra.
  /// Mutations happen on the control plane only; after the first
  /// install, shard-thread queries are pure reads.
  [[nodiscard]] spf_engine& spf() { return spf_; }

  // ---------------------------------------------------------- sharding
  [[nodiscard]] std::size_t shard_count() const {
    return shard_states_.size();
  }
  [[nodiscard]] std::uint32_t shard_of(node_id at) const {
    return node_shard_[at];
  }
  /// The event loop owning `at`. Code running inside a hook at node X
  /// may schedule through sim_for(X) only — other shards' queues belong
  /// to other threads.
  [[nodiscard]] simulator& sim_for(node_id at) {
    return engine_.shard(node_shard_[at]);
  }
  /// The engine driving this fabric.
  [[nodiscard]] shard_engine& engine() { return engine_; }

  /// Recycled payload buffers: senders can acquire() here so steady-state
  /// traffic reuses the allocations of delivered/dropped packets. Shard
  /// 0's pool — setup-time callers only when sharded; code running on a
  /// shard thread must use pool_of(its own node).
  [[nodiscard]] payload_pool& pool() { return shard_states_[0]->pool; }

  /// The payload pool owned by `at`'s shard (== pool() with one shard).
  [[nodiscard]] payload_pool& pool_of(node_id at) {
    return state_of(at).pool;
  }

  /// Installed next hop at `at` toward address `dst`: the flat route to
  /// the node owning dst's /24 (nullopt when no node prefix covers dst
  /// or no route is installed). Lets higher layers — the reliability
  /// layer's failover steering — follow the same converged routes the
  /// data plane uses instead of a stale private copy.
  [[nodiscard]] std::optional<node_id> next_hop(node_id at, ipv4 dst) const;

  /// Converged next hop from `at` toward destination *node* `dest`, from
  /// the flat post-convergence route cache (invalid_node when
  /// unreachable or out of range). Reflects exactly the routes the data
  /// plane forwards on — including staleness inside a flap's
  /// reconvergence window — so higher layers steering by it (the
  /// runtime's flow-spread policy) follow every reinstall with no
  /// private copy to refresh. Written only by
  /// install_shortest_path_routes (control plane), so shard-thread reads
  /// are race-free.
  [[nodiscard]] node_id next_hop_to_node(node_id at, node_id dest) const;

  /// Typed packet-hop dispatch (packet_event_sink). Not for direct use;
  /// public only because the runtime schedules held packets back through
  /// the owning shard's event loop with `op_inject`.
  static constexpr std::uint8_t op_arrive = 0;  ///< hop lands at `node`
  static constexpr std::uint8_t op_inject = 1;  ///< send(pkt, node) now
  void on_packet_event(std::uint8_t op, packet&& pkt,
                       std::uint32_t node) override;

  // ------------------------------------------------------------- stats
  //
  // Counters live per shard (each mutated only by its owning event
  // loop); the accessors sum across shards. Integer sums are
  // order-independent, so the totals are deterministic at any shard
  // count.
  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t total = 0;
    for (const auto& s : shard_states_) total += s->delivered;
    return total;
  }
  [[nodiscard]] std::uint64_t dropped() const { return drops().total(); }
  /// Per-reason drop breakdown (summed across shards).
  [[nodiscard]] const drop_stats& drops() const;

 private:
  static constexpr std::uint32_t no_link = ~std::uint32_t{0};

  /// Flat post-convergence route: next hop + precomputed egress link for
  /// one (node, destination-node) pair. `next == invalid_node` means no
  /// route (unreachable, or not installed yet).
  struct flat_route {
    node_id next = invalid_node;
    std::uint32_t link = no_link;
  };

  /// send() minus the default-TTL stamp: the op_inject re-entry path
  /// (runtime compute re-injection) must not refresh a packet's
  /// remaining TTL mid-journey.
  /// Clears pkt.memo: every send and every compute re-entry starts a new
  /// payload generation. The hop functions below take the packet by
  /// rvalue reference, so one hop moves it once — into the next event.
  void inject(packet&& pkt, node_id ingress);

  /// fail_link/restore_link: the SPF delta pass, timed while obs is on.
  void set_link_state(std::size_t link_index, bool up);

  void arrive(packet&& pkt, node_id at);
  void forward_to(packet&& pkt, node_id from, node_id next);
  void forward_on(packet&& pkt, node_id from, node_id next, std::size_t li);

  /// Egress link index from `from` toward adjacent `next`.
  [[nodiscard]] std::size_t egress_link(node_id from, node_id next) const;

  /// Destination node for `pkt.dst`, maintaining pkt.dest_hint: the hint
  /// is revalidated against the node's attached prefix and re-resolved
  /// through dest_of_ when stale. invalid_node when no attached prefix
  /// covers dst.
  [[nodiscard]] node_id resolve_dest(packet& pkt) const;

  /// Record one lifecycle hop for `pkt` (tracing enabled only). `now_s`
  /// is the caller's already-loaded shard clock: hot-path call sites
  /// must not re-read a clock (or evaluate anything else) just to trace.
  void trace_hop(const packet& pkt, node_id at, double now_s,
                 obs::hop_action action, obs::drop_reason reason,
                 std::uint32_t aux);

  shard_engine& engine_;
  topology topo_;
  spf_engine spf_;  ///< SSSP trees + link state over topo_, delta-repaired
  std::vector<hook_fn> hooks_;  // one per node (may be null)
  deliver_fn on_deliver_;

  /// attached_prefix -> owning node, for dest_hint resolution (built
  /// once; topology is immutable).
  routing_table<node_id> dest_of_;
  /// flat_routes_[at * n + dest_node]: the installed routes. Written only
  /// by install_shortest_path_routes (every pair on the first install,
  /// the dirty pairs on each reconvergence).
  std::vector<flat_route> flat_routes_;
  /// egress_matrix_[from * n + to]: first link index joining the pair in
  /// incident order, or no_link (mirrors egress_link()'s scan).
  std::vector<std::uint32_t> egress_matrix_;

  /// Mutable datapath state owned by one shard's event loop: counters,
  /// the payload pool, the BER stream and its scratch. A 1-shard fabric
  /// has exactly one. Cache-line aligned so two shards' counters never
  /// false-share.
  struct alignas(64) shard_state {
    std::uint64_t delivered = 0;
    std::uint64_t corrupted = 0;
    drop_stats drops;
    payload_pool pool;
    std::vector<std::uint64_t> flip_scratch;  ///< bit positions of one draw
    bool ttl_warned = false;  ///< one-shot TTL-blackhole warning latch
  };
  [[nodiscard]] shard_state& state_of(node_id at) {
    return *shard_states_[node_shard_[at]];
  }

  std::vector<std::unique_ptr<shard_state>> shard_states_;
  std::vector<std::uint32_t> node_shard_;  ///< node -> owning shard

  /// Maybe corrupt a packet in flight (failure injection). `ss` is the
  /// forwarding shard's state (scratch + counter); `li`/`dir` identify
  /// the link direction being traversed, which keys the error stream.
  /// Any flip clears pkt.memo.
  void apply_bit_errors(shard_state& ss, packet& pkt, std::size_t li,
                        int dir);

  /// Latch-once stderr warning when a shard's ttl-expired drops exceed
  /// its deliveries — the signature of a default TTL too small for the
  /// topology (use recommended_ttl()).
  void warn_ttl_blackhole(shard_state& ss);

  // Per-link, per-direction transmit availability time (FIFO model).
  // Direction 0: a->b, 1: b->a. Each direction of a cross-shard link is
  // written only by the shard owning its sending endpoint.
  std::vector<std::array<double, 2>> link_free_at_;
  /// Per-link, per-direction transmit sequence numbers — the counter
  /// half of the BER stream key. Single-writer like link_free_at_, and
  /// advanced on every traversal (BER on or off) so the stream a given
  /// traversal draws from never depends on when BER was (re)configured.
  std::vector<std::array<std::uint64_t, 2>> link_tx_seq_;
  mutable drop_stats drops_cache_;

  double bit_error_rate_ = 0.0;
  std::uint64_t ber_seed_ = 0;
  std::uint8_t recommended_ttl_ = 64;

  std::uint64_t reconvergences_ = 0;
  /// First install done? Gates full-sweep vs dirty-patch reconvergence.
  bool routes_installed_ = false;

  // Observability handles (resolved once; incremented only while
  // obs::enabled()). Mirrors delivered_/drops_/corrupted_ so the obs
  // plane can be cross-checked against the legacy counters.
  obs::counter* obs_delivered_ = nullptr;
  obs::counter* obs_hops_ = nullptr;
  obs::counter* obs_corrupted_ = nullptr;
  obs::counter* obs_reconvergences_ = nullptr;
  obs::counter* obs_routes_touched_ = nullptr;
  obs::histogram* obs_reconverge_ns_ = nullptr;
  obs::histogram* obs_spf_delta_ns_ = nullptr;
  std::array<obs::counter*, 5> obs_drops_{};  // indexed like drop_reason-1
  /// The global tracer, resolved once: tracer::global()'s init-guard
  /// check is off the per-hop path.
  obs::tracer* tracer_ = nullptr;
};

}  // namespace onfiber::net
