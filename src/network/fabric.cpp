#include "network/fabric.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"

namespace onfiber::net {

wan_fabric::wan_fabric(shard_engine& engine, topology topo)
    : engine_(engine),
      topo_(std::move(topo)),
      spf_(topo_),
      hooks_(topo_.node_count()),
      link_free_at_(topo_.links().size(), std::array<double, 2>{0.0, 0.0}),
      link_tx_seq_(topo_.links().size(),
                   std::array<std::uint64_t, 2>{0, 0}) {
  const std::size_t n = topo_.node_count();
  // Lookup caches (addr index, pair->link map) are built now, on the
  // construction thread: shard threads hit node_for_address and
  // link_between, and a lazy first build over there would race.
  topo_.prime_lookup_caches();
  // Destination resolution: attached prefixes are assigned by
  // topology::add_node as distinct same-length prefixes, so containment
  // identifies the owning node uniquely and matches LPM. Routes are
  // then keyed by node, in flat_routes_.
  for (const node& nd : topo_.nodes()) {
    dest_of_.insert(nd.attached_prefix, nd.id);
  }
  flat_routes_.assign(n * n, flat_route{});
  // Egress matrix: first link per (from, to) pair in incident order,
  // mirroring egress_link()'s scan on the seed path.
  egress_matrix_.assign(n * n, no_link);
  for (node_id from = 0; from < n; ++from) {
    for (const std::size_t li : topo_.incident_links(from)) {
      const node_id to = topo_.neighbor(from, li);
      std::uint32_t& slot = egress_matrix_[from * n + to];
      if (slot == no_link) slot = static_cast<std::uint32_t>(li);
    }
  }

  // Hop diameter (unweighted BFS from every node; the topology is
  // immutable, so compute once). Feeds recommended_ttl(): delay-metric
  // routes and failover detours can run longer than the min-hop path,
  // so the recommendation is two diameters plus margin.
  std::uint32_t diameter = 0;
  {
    constexpr std::uint32_t unvisited = ~std::uint32_t{0};
    std::vector<std::uint32_t> dist(n);
    std::vector<node_id> queue(n);
    for (node_id s = 0; s < n; ++s) {
      std::fill(dist.begin(), dist.end(), unvisited);
      std::size_t head = 0;
      std::size_t tail = 0;
      dist[s] = 0;
      queue[tail++] = s;
      while (head < tail) {
        const node_id u = queue[head++];
        for (const std::size_t li : topo_.incident_links(u)) {
          const node_id v = topo_.neighbor(u, li);
          if (dist[v] == unvisited) {
            dist[v] = dist[u] + 1;
            queue[tail++] = v;
          }
        }
      }
      for (node_id v = 0; v < n; ++v) {
        if (dist[v] != unvisited && dist[v] > diameter) diameter = dist[v];
      }
    }
  }
  recommended_ttl_ = static_cast<std::uint8_t>(
      std::clamp<std::uint32_t>(2 * diameter + 8, 64, 255));

  // Shard the node set. A 1-shard engine is one shard holding
  // everything — node_shard_ all zero keeps every datapath branch on
  // the local path.
  const std::size_t shards = engine_.shard_count();
  node_shard_.assign(n, 0);
  if (shards > 1) {
    node_shard_ = partition_topology(topo_, shards);
    // Conservative lookahead: the smallest propagation delay a packet
    // must spend crossing a shard boundary bounds how far shards may
    // run ahead of each other.
    double lookahead = std::numeric_limits<double>::infinity();
    for (const link& l : topo_.links()) {
      if (node_shard_[l.a] != node_shard_[l.b]) {
        lookahead = std::min(lookahead, l.delay_s());
      }
    }
    engine_.set_lookahead(lookahead);
  }
  shard_states_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shard_states_.push_back(std::make_unique<shard_state>());
  }

  obs::registry& reg = obs::registry::global();
  obs_delivered_ = &reg.get_counter("fabric.delivered");
  obs_hops_ = &reg.get_counter("fabric.hops");
  obs_corrupted_ = &reg.get_counter("fabric.corrupted");
  obs_reconvergences_ = &reg.get_counter("fabric.reconvergences");
  obs_routes_touched_ = &reg.get_counter("routing.routes_touched");
  obs_reconverge_ns_ = &reg.get_histogram("routing.reconverge_ns");
  obs_spf_delta_ns_ = &reg.get_histogram("routing.spf_delta_ns");
  obs_drops_[0] = &reg.get_counter("fabric.drop.ttl_expired");
  obs_drops_[1] = &reg.get_counter("fabric.drop.link_down");
  obs_drops_[2] = &reg.get_counter("fabric.drop.no_route");
  obs_drops_[3] = &reg.get_counter("fabric.drop.hook_drop");
  obs_drops_[4] = &reg.get_counter("fabric.drop.bad_redirect");
  tracer_ = &obs::tracer::global();
}

const drop_stats& wan_fabric::drops() const {
  drops_cache_ = drop_stats{};
  for (const auto& s : shard_states_) {
    drops_cache_.ttl_expired += s->drops.ttl_expired;
    drops_cache_.link_down += s->drops.link_down;
    drops_cache_.no_route += s->drops.no_route;
    drops_cache_.hook_drop += s->drops.hook_drop;
    drops_cache_.bad_redirect += s->drops.bad_redirect;
  }
  return drops_cache_;
}

void wan_fabric::trace_hop(const packet& pkt, node_id at, double now_s,
                           obs::hop_action action, obs::drop_reason reason,
                           std::uint32_t aux) {
  obs::hop_record r;
  r.trace_id = pkt.trace_id;
  r.node = at;
  r.time_s = now_s;
  r.action = action;
  r.reason = reason;
  r.aux = aux;
  tracer_->record(r);
}

void wan_fabric::install_shortest_path_routes() {
  const bool timed = obs::enabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  const auto n = static_cast<node_id>(topo_.node_count());
  std::uint64_t touched = 0;
  // Write the route for one (src, dst) pair from the engine's tree.
  // `touched` counts actual next-hop changes — on the patch path that is
  // (up to no-net-change flap pairs) the dirty set.
  const auto patch = [&](node_id src, node_id dst) {
    if (src == dst) return;
    flat_route& flat = flat_routes_[src * n + dst];
    const node_id nh = spf_.first_hop(src, dst);
    if (nh == invalid_node) {
      // Unreachable (possibly due to failures): retract any stale route.
      if (flat.next != invalid_node) {
        flat = flat_route{};
        ++touched;
      }
      return;
    }
    if (flat.next != nh) {
      flat.next = nh;
      flat.link = egress_matrix_[src * n + nh];
      ++touched;
    }
  };
  if (!routes_installed_) {
    // First convergence: build every source tree (n single-source
    // Dijkstras — already far cheaper than the seed's n^2 per-pair runs)
    // and write the full table. From here on, shard-thread queries
    // against the engine are pure reads.
    spf_.ensure_all_trees();
    spf_.clear_dirty();
    for (node_id src = 0; src < n; ++src) {
      for (node_id dst = 0; dst < n; ++dst) patch(src, dst);
    }
    routes_installed_ = true;
  } else {
    // Reconvergence: only routes the delta passes dirtied since the last
    // install can differ from what is installed — patch those in place.
    spf_.drain_dirty(patch);
  }
  if (timed) {
    obs_reconvergences_->add();
    obs_routes_touched_->add(touched);
    const auto dt = std::chrono::steady_clock::now() - t0;
    obs_reconverge_ns_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
}

void wan_fabric::fail_link(std::size_t link_index) {
  // Delta-repair the SPF trees now (control plane; shards parked). The
  // datapath keeps forwarding on the stale installed routes until the
  // next install_shortest_path_routes() — the reconvergence window —
  // but live-path queries (failover planning) see the real state.
  set_link_state(link_index, false);
}

void wan_fabric::restore_link(std::size_t link_index) {
  set_link_state(link_index, true);
}

void wan_fabric::set_link_state(std::size_t link_index, bool up) {
  const bool timed = obs::enabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  spf_.set_link_state(link_index, up);
  if (timed) {
    const auto dt = std::chrono::steady_clock::now() - t0;
    obs_spf_delta_ns_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
}

void wan_fabric::schedule_flaps(std::span<const link_flap> flaps,
                                double reconvergence_delay_s,
                                std::uint64_t jitter_seed,
                                double reconvergence_jitter_s) {
  if (reconvergence_delay_s < 0.0 || reconvergence_jitter_s < 0.0) {
    throw std::invalid_argument(
        "wan_fabric: reconvergence delay/jitter must be >= 0");
  }
  // Draw all jitter up front, in flap order, so the schedule is fixed at
  // scheduling time regardless of event interleaving. Everything here is
  // control plane: these run as engine global events with every shard
  // parked, so link state and the route table are never written while a
  // datapath thread is in flight.
  phot::rng jitter{jitter_seed};
  const auto reconverge_after = [&](double event_s) {
    const double extra = reconvergence_jitter_s > 0.0
                             ? jitter.uniform(0.0, reconvergence_jitter_s)
                             : 0.0;
    engine_.schedule_global(event_s + reconvergence_delay_s + extra, [this] {
      install_shortest_path_routes();
      ++reconvergences_;
    });
  };
  // Validate the whole schedule first: a bad flap must not leave the
  // flaps before it scheduled.
  for (const link_flap& f : flaps) {
    if (f.link_index >= topo_.links().size()) {
      throw std::out_of_range("wan_fabric: bad flap link index");
    }
    if (f.restore_at_s < f.fail_at_s) {
      throw std::invalid_argument("wan_fabric: flap restores before failing");
    }
  }
  for (const link_flap& f : flaps) {
    engine_.schedule_global(f.fail_at_s,
                            [this, li = f.link_index] { fail_link(li); });
    reconverge_after(f.fail_at_s);
    engine_.schedule_global(f.restore_at_s,
                            [this, li = f.link_index] { restore_link(li); });
    reconverge_after(f.restore_at_s);
  }
}

std::optional<node_id> wan_fabric::next_hop(node_id at, ipv4 dst) const {
  const node_id* dest = dest_of_.lookup_ptr(dst);
  if (dest == nullptr) return std::nullopt;
  const node_id next = next_hop_to_node(at, *dest);
  if (next == invalid_node) return std::nullopt;
  return next;
}

node_id wan_fabric::next_hop_to_node(node_id at, node_id dest) const {
  const std::size_t n = topo_.node_count();
  if (at >= n || dest >= n || at == dest) return invalid_node;
  return flat_routes_[at * n + dest].next;
}

void wan_fabric::set_hook(node_id at, hook_fn hook) {
  if (at >= hooks_.size()) throw std::out_of_range("wan_fabric: bad node");
  hooks_[at] = std::move(hook);
}

void wan_fabric::send(packet pkt, node_id ingress) {
  // A packet still carrying the struct default TTL gets the topology's
  // recommendation: a default-constructed packet should never be
  // black-holed by a long-diameter network (chain128 needs 127 hops
  // against the historical default of 64). Deliberately small TTLs are
  // left alone — only the exact default is treated as "unset".
  if (pkt.ttl == 64 && recommended_ttl_ > 64) pkt.ttl = recommended_ttl_;
  inject(std::move(pkt), ingress);
}

void wan_fabric::inject(packet&& pkt, node_id ingress) {
  if (ingress >= topo_.node_count()) {
    throw std::out_of_range("wan_fabric: bad ingress node");
  }
  // A new payload generation: whatever the runtime hook memoized about
  // the compute header before (a retransmit's original, or the request
  // before compute wrote its result) no longer holds.
  pkt.memo = {};
  simulator& sim = sim_for(ingress);
  if (obs::enabled()) {
    if (pkt.trace_id == 0) {
      pkt.trace_id = tracer_->next_trace_id();
    }
    trace_hop(pkt, ingress, sim.now(), obs::hop_action::inject,
              obs::drop_reason::none, 0);
  }
  sim.schedule_packet(0.0, std::move(pkt), ingress, op_arrive, this);
}

void wan_fabric::on_packet_event(std::uint8_t op, packet&& pkt,
                                 std::uint32_t node) {
  if (op == op_arrive) {
    arrive(std::move(pkt), node);
  } else {
    // op_inject re-entry (runtime compute re-injection): no TTL stamp —
    // the packet is mid-journey and keeps whatever TTL it has left.
    inject(std::move(pkt), node);
  }
}

void wan_fabric::set_bit_error_rate(double ber, std::uint64_t seed) {
  if (ber < 0.0 || ber >= 1.0) {
    throw std::invalid_argument("wan_fabric: BER must be in [0, 1)");
  }
  // Control-plane event (sharded callers go through schedule_global /
  // setup, so no datapath thread is in flight). Draws are keyed on
  // (seed, link, direction, transmit seq) — there is no stream cursor
  // to restart, so reseeding mid-run is order-independent: traversals
  // before this call keep the corruption pattern of the old seed,
  // traversals after it deterministically use the new one, at any
  // shard count.
  bit_error_rate_ = ber;
  ber_seed_ = seed;
}

void wan_fabric::apply_bit_errors(shard_state& ss, packet& pkt,
                                  std::size_t li, int dir) {
  // The transmit sequence advances on every traversal, BER on or off:
  // the stream a traversal draws from depends only on the traffic that
  // crossed this link direction before it, never on when BER was
  // (re)configured.
  const std::uint64_t seq = link_tx_seq_[li][static_cast<std::size_t>(dir)]++;
  if (bit_error_rate_ <= 0.0 || pkt.payload.empty()) return;
  const std::uint64_t bit_count =
      static_cast<std::uint64_t>(pkt.payload.size()) * 8;
  const double bits = static_cast<double>(bit_count);
  // One counter-based stream per traversal. Per-link-direction transmit
  // order is single-writer (the shard owning the sending endpoint) and
  // identical at any shard count — the same invariant the golden
  // delivery traces rest on — so corruption is too.
  phot::counter_rng gen{phot::counter_rng::key_of(
      ber_seed_, static_cast<std::uint64_t>(li),
      static_cast<std::uint64_t>(dir), seq)};
  std::uint64_t flips = gen.poisson(bit_error_rate_ * bits);
  if (flips == 0) return;
  // A high-BER draw can exceed the payload's bit count; flipping more
  // than every bit once is meaningless, so clamp.
  if (flips > bit_count) flips = bit_count;
  ss.flip_scratch.clear();
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::uint64_t bit = gen.below(bit_count);
    pkt.payload[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
    ss.flip_scratch.push_back(bit);
  }
  // Even a flip that later cancels out forces the next hook to re-check
  // the checksum.
  pkt.memo = {};
  // Positions are drawn with replacement, so the same bit flipped an even
  // number of times cancels out. Count the packet as corrupted only if
  // some bit's net parity actually changed.
  std::sort(ss.flip_scratch.begin(), ss.flip_scratch.end());
  bool net_change = false;
  for (std::size_t i = 0; i < ss.flip_scratch.size();) {
    std::size_t j = i;
    while (j < ss.flip_scratch.size() &&
           ss.flip_scratch[j] == ss.flip_scratch[i]) {
      ++j;
    }
    if (((j - i) & 1U) != 0) {
      net_change = true;
      break;
    }
    i = j;
  }
  if (net_change) {
    ++ss.corrupted;
    if (obs::enabled()) obs_corrupted_->add();
  }
}

void wan_fabric::warn_ttl_blackhole(shard_state& ss) {
  if (ss.ttl_warned || ss.drops.ttl_expired <= ss.delivered) return;
  ss.ttl_warned = true;
  std::fprintf(stderr,
               "onfiber: ttl-expired drops (%llu) exceed deliveries (%llu) — "
               "packets are injected with a TTL too small for this topology; "
               "leave packet::ttl at its default (send() stamps "
               "recommended_ttl() = %u) or raise it explicitly\n",
               static_cast<unsigned long long>(ss.drops.ttl_expired),
               static_cast<unsigned long long>(ss.delivered),
               static_cast<unsigned>(recommended_ttl_));
}

std::size_t wan_fabric::egress_link(node_id from, node_id next) const {
  const std::size_t n = topo_.node_count();
  if (from < n && next < n) {
    const std::uint32_t li = egress_matrix_[from * n + next];
    if (li != no_link) return li;
  }
  throw std::invalid_argument("wan_fabric: no link toward next hop");
}

node_id wan_fabric::resolve_dest(packet& pkt) const {
  const std::uint32_t hint = pkt.dest_hint;
  if (hint < topo_.node_count() &&
      topo_.node_at(hint).attached_prefix.contains(pkt.dst)) {
    return hint;
  }
  const node_id* d = dest_of_.lookup_ptr(pkt.dst);
  pkt.dest_hint = d != nullptr ? *d : invalid_node;
  return pkt.dest_hint;
}

void wan_fabric::forward_to(packet&& pkt, node_id from, node_id next) {
  forward_on(std::move(pkt), from, next, egress_link(from, next));
}

void wan_fabric::forward_on(packet&& pkt, node_id from, node_id next,
                            std::size_t li) {
  shard_state& ss = state_of(from);
  simulator& sim = sim_for(from);
  if (!spf_.link_up(li)) {
    // Black-holed until routing reconverges.
    ++ss.drops.link_down;
    if (obs::enabled()) {
      obs_drops_[1]->add();
      trace_hop(pkt, from, sim.now(), obs::hop_action::drop,
                obs::drop_reason::link_down, static_cast<std::uint32_t>(li));
    }
    ss.pool.recycle(std::move(pkt));
    return;
  }
  const link& l = topo_.links()[li];
  const int dir = l.a == from ? 0 : 1;

  const double bits = static_cast<double>(pkt.wire_bytes()) * 8.0;
  const double serialize_s = bits / l.capacity_bps;
  const double now = sim.now();

  // FIFO queueing: wait until the transmitter frees up.
  double start = link_free_at_[li][static_cast<std::size_t>(dir)];
  if (start < now) start = now;
  const double done = start + serialize_s;
  link_free_at_[li][static_cast<std::size_t>(dir)] = done;

  const double arrival = done + l.delay_s();
  apply_bit_errors(ss, pkt, li, dir);
  if (obs::enabled()) {
    obs_hops_->add();
    trace_hop(pkt, from, now, obs::hop_action::forward,
              obs::drop_reason::none, next);
  }
  const std::uint32_t next_shard = node_shard_[next];
  if (next_shard != node_shard_[from]) {
    // Shard boundary: the hop leaves as a timestamped parcel and is
    // merged into the destination shard's queue at the next window
    // barrier in (time, src_shard, seq) order.
    engine_.emit_parcel(node_shard_[from], next_shard, arrival,
                        std::move(pkt), next, op_arrive, this);
    return;
  }
  sim.schedule_packet_at(arrival, std::move(pkt), next, op_arrive, this);
}

void wan_fabric::arrive(packet&& pkt, node_id at) {
  shard_state& ss = state_of(at);
  const double now = sim_for(at).now();
  // Node-level intercept (compute transponder attach point).
  if (hooks_[at]) {
    const hook_decision d = hooks_[at](at, pkt, now);
    switch (d.action) {
      case hook_decision::action_type::consume:
        ss.pool.recycle(std::move(pkt));
        return;
      case hook_decision::action_type::drop:
        ++ss.drops.hook_drop;
        if (obs::enabled()) {
          obs_drops_[3]->add();
          trace_hop(pkt, at, now, obs::hop_action::drop,
                    obs::drop_reason::hook_drop, 0);
        }
        ss.pool.recycle(std::move(pkt));
        return;
      case hook_decision::action_type::redirect:
        if (d.redirect_to == invalid_node ||
            d.redirect_to >= topo_.node_count()) {
          ++ss.drops.bad_redirect;
          if (obs::enabled()) {
            obs_drops_[4]->add();
            trace_hop(pkt, at, now, obs::hop_action::drop,
                      obs::drop_reason::bad_redirect, 0);
          }
          ss.pool.recycle(std::move(pkt));
          return;
        }
        if (pkt.ttl == 0) {
          ++ss.drops.ttl_expired;
          warn_ttl_blackhole(ss);
          if (obs::enabled()) {
            obs_drops_[0]->add();
            trace_hop(pkt, at, now, obs::hop_action::drop,
                      obs::drop_reason::ttl_expired, 0);
          }
          ss.pool.recycle(std::move(pkt));
          return;
        }
        --pkt.ttl;
        if (obs::enabled()) {
          trace_hop(pkt, at, now, obs::hop_action::redirect,
                    obs::drop_reason::none, d.redirect_to);
        }
        forward_to(std::move(pkt), at, d.redirect_to);
        return;
      case hook_decision::action_type::continue_forwarding:
        break;
    }
  }

  // Local delivery?
  if (topo_.node_at(at).attached_prefix.contains(pkt.dst)) {
    ++ss.delivered;
    if (obs::enabled()) {
      obs_delivered_->add();
      trace_hop(pkt, at, now, obs::hop_action::deliver,
                obs::drop_reason::none, 0);
    }
    if (on_deliver_) on_deliver_(pkt, at, now);
    ss.pool.recycle(std::move(pkt));
    return;
  }

  // Forwarding: the installed flat route toward the destination node.
  const node_id dest = resolve_dest(pkt);
  const flat_route flat = dest != invalid_node
                              ? flat_routes_[at * topo_.node_count() + dest]
                              : flat_route{};
  if (flat.next == invalid_node) {
    ++ss.drops.no_route;
    if (obs::enabled()) {
      obs_drops_[2]->add();
      trace_hop(pkt, at, now, obs::hop_action::drop,
                obs::drop_reason::no_route, 0);
    }
    ss.pool.recycle(std::move(pkt));
    return;
  }
  if (pkt.ttl == 0) {
    ++ss.drops.ttl_expired;
    warn_ttl_blackhole(ss);
    if (obs::enabled()) {
      obs_drops_[0]->add();
      trace_hop(pkt, at, now, obs::hop_action::drop,
                obs::drop_reason::ttl_expired, 0);
    }
    ss.pool.recycle(std::move(pkt));
    return;
  }
  --pkt.ttl;
  forward_on(std::move(pkt), at, flat.next, flat.link);
}

}  // namespace onfiber::net
