#include "core/runtime.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "controller/controller.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace onfiber::core {

onfiber_runtime::onfiber_runtime(net::shard_engine& engine,
                                 net::topology topo)
    : fabric_(engine, std::move(topo)), baseline_spf_(fabric_.topo()) {
  sites_.resize(fabric_.topo().node_count());
  compute_tables_.resize(fabric_.topo().node_count());
  shard_deliveries_.resize(fabric_.shard_count());
  shard_stats_.resize(fabric_.shard_count());
  shard_admission_.resize(fabric_.shard_count());
  rel_shards_.reserve(fabric_.shard_count());
  for (std::size_t i = 0; i < fabric_.shard_count(); ++i) {
    rel_shards_.push_back(std::make_unique<rel_shard>());
  }
  fabric_.install_shortest_path_routes();
  // The first install built every tree of the fabric's engine over the
  // all-links-up topology: the baseline is a copy of it, taken here on
  // the construction thread with every tree present, so on_timeout's
  // shard-thread queries never trigger a first build over there.
  baseline_spf_ = fabric_.spf();
  const auto n = static_cast<net::node_id>(fabric_.topo().node_count());
  for (net::node_id id = 0; id < n; ++id) {
    fabric_.set_hook(id, [this](net::node_id at, net::packet& pkt,
                                double now) {
      return on_packet(at, pkt, now);
    });
  }
  fabric_.set_deliver_callback(
      [this](const net::packet& pkt, net::node_id at, double t) {
        on_delivery(pkt, at, t);
      });

  obs::registry& reg = obs::registry::global();
  obs_computed_ = &reg.get_counter("runtime.computed");
  obs_redirected_ = &reg.get_counter("runtime.redirected");
  obs_uncomputed_ = &reg.get_counter("runtime.uncomputed_delivered");
  obs_malformed_ = &reg.get_counter("runtime.malformed_dropped");
  obs_adm_admitted_ = &reg.get_counter("runtime.admission.admitted");
  obs_adm_deferred_ = &reg.get_counter("runtime.admission.deferred");
  obs_adm_dropped_ = &reg.get_counter("runtime.admission.dropped");
  obs_rel_submitted_ = &reg.get_counter("reliability.submitted");
  obs_rel_completed_ = &reg.get_counter("reliability.completed");
  obs_rel_failed_ = &reg.get_counter("reliability.failed");
  obs_rel_retransmits_ = &reg.get_counter("reliability.retransmits");
  obs_rel_failovers_ = &reg.get_counter("reliability.failovers");
  obs_rel_acks_ = &reg.get_counter("reliability.acks_sent");
  obs_rel_duplicates_ = &reg.get_counter("reliability.duplicate_deliveries");
}

const std::vector<onfiber_runtime::delivery>& onfiber_runtime::deliveries()
    const {
  // One shard: the raw event-order log.
  if (shard_deliveries_.size() == 1) return shard_deliveries_[0];
  deliveries_merged_.clear();
  for (const auto& log : shard_deliveries_) {
    deliveries_merged_.insert(deliveries_merged_.end(), log.begin(),
                              log.end());
  }
  std::stable_sort(deliveries_merged_.begin(), deliveries_merged_.end(),
                   [](const delivery& a, const delivery& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     return a.at < b.at;
                   });
  return deliveries_merged_;
}

const onfiber_runtime::runtime_stats& onfiber_runtime::stats() const {
  stats_cache_ = runtime_stats{};
  for (const runtime_stats& s : shard_stats_) {
    stats_cache_.computed += s.computed;
    stats_cache_.redirected += s.redirected;
    stats_cache_.uncomputed_delivered += s.uncomputed_delivered;
    stats_cache_.malformed_dropped += s.malformed_dropped;
  }
  return stats_cache_;
}

const onfiber_runtime::admission_stats& onfiber_runtime::admission() const {
  admission_cache_ = admission_stats{};
  for (const admission_stats& s : shard_admission_) {
    admission_cache_.admitted += s.admitted;
    admission_cache_.deferred += s.deferred;
    admission_cache_.dropped += s.dropped;
    admission_cache_.max_queue_depth =
        std::max(admission_cache_.max_queue_depth, s.max_queue_depth);
  }
  return admission_cache_;
}

std::size_t onfiber_runtime::queue_depth_of(site& s, double now) {
  std::deque<double>& q = s.service_done;
  while (!q.empty() && q.front() <= now) q.pop_front();
  return q.size();
}

onfiber_runtime::rel_shard* onfiber_runtime::owner_shard_of(
    std::uint32_t task_id) {
  const auto it = task_ingress_.find(task_id);
  if (it == task_ingress_.end()) return nullptr;
  return rel_shards_[fabric_.shard_of(it->second)].get();
}

void onfiber_runtime::remember_delivered(rel_shard& rs,
                                         std::uint32_t task_id) {
  if (rs.delivered_set.contains(task_id)) return;
  if (rs.delivered_ring.size() < kCompletedHistory) {
    rs.delivered_ring.push_back(task_id);
  } else {
    rs.delivered_set.erase(rs.delivered_ring[rs.delivered_next]);
    rs.delivered_ring[rs.delivered_next] = task_id;
  }
  rs.delivered_next = (rs.delivered_next + 1) % kCompletedHistory;
  rs.delivered_set.insert(task_id);
}

void onfiber_runtime::forget_completed(std::uint32_t task_id) {
  // Legal task-id reuse after completion: the old completion must not
  // make the new task's deliveries look like duplicates. The stale ring
  // slots stay behind but are harmless — remember_delivered() skips ids
  // already in the set, and the erase below removes set membership.
  // Safe to touch every shard's bucket: submit_reliable is control
  // plane, so no shard thread is running.
  for (auto& rs : rel_shards_) rs->delivered_set.erase(task_id);
}

void onfiber_runtime::sample_site_timeline(net::node_id at, const site& s,
                                           double now,
                                           std::size_t queue_depth) const {
  obs::site_sample sample;
  sample.time_s = now;
  sample.site = at;
  sample.queue_depth = static_cast<std::uint32_t>(queue_depth);
  sample.busy_s = s.total_busy_s;
  sample.utilization = now > 0.0 ? s.total_busy_s / now : 0.0;
  obs::timeline::global().record(sample);
}

void onfiber_runtime::on_delivery(const net::packet& pkt, net::node_id at,
                                  double now) {
  const auto h = proto::peek_compute_header(pkt);
  // Acks are control plane: complete the task, record nothing. The
  // task's table lives on the shard of its ingress node; when the ack
  // lands there (the common case — requesters address replies to their
  // ingress), completion is a plain local call. An ack landing
  // elsewhere hands off via an engine parcel one lookahead later
  // (note.created_s carries the true ack arrival time for the latency
  // stats; a retry timer firing inside that handoff window can cause
  // one benign extra retransmit).
  if (h && h->is_ack()) {
    const auto owner = task_ingress_.find(h->task_id);
    if (owner == task_ingress_.end()) return;  // never submitted here
    const std::uint32_t owner_shard = fabric_.shard_of(owner->second);
    if (owner_shard == fabric_.shard_of(at)) {
      complete_task(h->task_id, now);
      return;
    }
    net::packet note;
    note.id = h->task_id;
    note.created_s = now;
    fabric_.engine().emit_parcel(fabric_.shard_of(at), owner_shard,
                                 now + fabric_.engine().lookahead(),
                                 std::move(note), owner->second,
                                 op_complete_task, this);
    return;
  }
  if (h && h->requires_compute() && !h->has_result()) {
    ++stats_of(at).uncomputed_delivered;
    if (obs::enabled()) obs_uncomputed_->add();
  }
  if (record_deliveries_) {
    shard_deliveries_[fabric_.shard_of(at)].push_back(delivery{pkt, at, now});
  }
  if (on_delivered_) on_delivered_(pkt, at, now);

  // Destination side of the reliability layer — stateless with respect
  // to the task table: the wire's flag_tracked bit identifies tracked
  // traffic, so acking and duplicate accounting are decided on the
  // delivering shard alone.
  if (!reliability_enabled_ || !h || !h->is_tracked()) return;
  // A task that demanded compute but arrived raw is not done — no ack,
  // no history; the retry timer (and eventually failover to a capable
  // site) gets another chance at the computation.
  if (h->requires_compute() && !h->has_result()) return;
  rel_shard& rs = *rel_shards_[fabric_.shard_of(at)];
  if (recently_delivered(rs, h->task_id)) {
    ++rs.stats.duplicate_deliveries;
    if (obs::enabled()) obs_rel_duplicates_->add();
  } else {
    remember_delivered(rs, h->task_id);
  }
  // Emit the end-to-end ack back to the packet's source — every result
  // delivery re-acks, so a lost first ack is repaired by the retransmit
  // round-trip. The ack is a header-only compute packet riding the same
  // fabric: it queues, it crosses shard boundaries as a parcel, it can
  // be black-holed by a dead link.
  net::packet ack;
  ack.payload = fabric_.pool_of(at).acquire();  // recycled allocation if any
  ack.src = fabric_.topo().node_at(at).address;
  ack.dst = pkt.src;
  proto::compute_header ah;
  ah.primitive = h->primitive;
  ah.task_id = h->task_id;
  ah.flags = proto::flag_ack | proto::flag_has_result;
  proto::attach_compute_header(ack, ah);
  ack.flow_hash = net::flow_hash_of(
      ack.src, ack.dst, 7002, 7003, static_cast<std::uint8_t>(ack.proto));
  ++rs.stats.acks_sent;
  if (obs::enabled()) obs_rel_acks_->add();
  fabric_.send(std::move(ack), at);
}

void onfiber_runtime::on_packet_event(std::uint8_t op, net::packet&& pkt,
                                      std::uint32_t /*node*/) {
  // Cross-shard completion handoff (see on_delivery's ack branch): the
  // parcel's id names the task, created_s the true ack arrival time.
  if (op == op_complete_task) {
    complete_task(static_cast<std::uint32_t>(pkt.id), pkt.created_s);
  }
}

void onfiber_runtime::enable_reliability(reliability_config cfg) {
  if (cfg.initial_rto_s <= 0.0 || cfg.backoff < 1.0 || cfg.max_retries < 0 ||
      cfg.failover_after < 1) {
    throw std::invalid_argument("onfiber_runtime: bad reliability config");
  }
  reliability_enabled_ = true;
  reliability_cfg_ = cfg;
}

std::uint32_t onfiber_runtime::submit_reliable(net::packet pkt,
                                               net::node_id ingress) {
  if (!reliability_enabled_) enable_reliability();
  if (ingress >= fabric_.topo().node_count()) {
    throw std::out_of_range("submit_reliable: bad ingress node");
  }
  const auto h = proto::peek_compute_header(pkt);
  if (!h) {
    throw std::invalid_argument(
        "submit_reliable: packet carries no valid compute header");
  }
  rel_shard* prev_owner = owner_shard_of(h->task_id);
  if (prev_owner != nullptr && prev_owner->pending.contains(h->task_id)) {
    throw std::invalid_argument(
        "submit_reliable: task_id already in flight");
  }
  // Mark the request tracked on the wire: the destination shard decides
  // acking and duplicate accounting from this bit alone (and every
  // retransmit copies it along).
  proto::compute_header tracked = *h;
  tracked.flags |= proto::flag_tracked;
  proto::rewrite_compute_header(pkt, tracked);

  const std::uint32_t owner_shard = fabric_.shard_of(ingress);
  rel_shard& rs = *rel_shards_[owner_shard];
  pending_task task;
  task.request = std::move(pkt);
  task.ingress = ingress;
  task.primitive = h->primitive;
  task.rto_s = reliability_cfg_.initial_rto_s;
  task.submitted_s = sim_for(ingress).now();
  // The id is live again: its previous completion (if any) must not make
  // this task's deliveries look like duplicates.
  forget_completed(h->task_id);
  task_ingress_[h->task_id] = ingress;
  const auto [it, inserted] = rs.pending.emplace(h->task_id, std::move(task));
  ++rs.stats.submitted;
  if (obs::enabled()) obs_rel_submitted_->add();
  rs.trace.push_back(reliability_event{reliability_event::kind::submit,
                                       h->task_id, sim_for(ingress).now(),
                                       net::invalid_node});
  send_tracked(it->second, h->task_id);
  return h->task_id;
}

void onfiber_runtime::send_tracked(pending_task& task,
                                   std::uint32_t task_id) {
  ++task.generation;
  net::packet copy = task.request;
  // The failover pin rides the packet (see packet::pinned_site): every
  // node's hook can steer this copy toward the alternate site without
  // consulting the owner shard's table.
  copy.pinned_site = task.pinned_site;
  fabric_.send(std::move(copy), task.ingress);
  // Retransmit timer on the owning shard's event loop: it fires on the
  // same thread that owns the task entry, and the retransmit re-enters
  // the fabric at the ingress — also owner-shard-local.
  sim_for(task.ingress)
      .schedule(task.rto_s, [this, task_id, gen = task.generation] {
        on_timeout(task_id, gen);
      });
}

void onfiber_runtime::on_timeout(std::uint32_t task_id,
                                 std::uint64_t generation) {
  rel_shard* owner = owner_shard_of(task_id);
  if (owner == nullptr) return;
  rel_shard& rs = *owner;
  const auto it = rs.pending.find(task_id);
  if (it == rs.pending.end()) return;  // acked in the meantime
  pending_task& task = it->second;
  if (task.generation != generation) return;  // stale timer
  const double now = sim_for(task.ingress).now();

  if (task.attempts >= reliability_cfg_.max_retries) {
    // Terminal failure: retries exhausted.
    rs.trace.push_back(reliability_event{reliability_event::kind::fail,
                                         task_id, now, net::invalid_node});
    ++rs.stats.failed;
    if (obs::enabled()) obs_rel_failed_->add();
    rs.pending.erase(it);
    if (on_task_failed_) on_task_failed_(task_id);
    return;
  }

  ++task.attempts;
  task.rto_s *= reliability_cfg_.backoff;

  // Repeated timeouts mean the current compute site (or the path to it)
  // is gone: ask the controller for an alternate site over live links and
  // pin this task's retries to it. Planning runs right here on the owner
  // shard — its inputs (the immutable topology's lookup caches, the
  // pre-built SPF trees, the capable-site tables) are coordinator-owned
  // and only ever written during control-plane events with every shard
  // parked, so the reads are race-free; deferring the decision to a
  // separate coordinator event would shift retransmit times and break
  // the shard-count invariance of the recovery trace. Both plans answer
  // from SSSP trees (O(1) delay lookups) instead of per-leg Dijkstra:
  // the baseline from the never-mutated all-up engine, the live plan
  // from the fabric engine, whose trees are eagerly delta-repaired on
  // every fail/restore and hold the fabric's only copy of link state.
  if (task.attempts >= reliability_cfg_.failover_after) {
    const net::topology& topo = fabric_.topo();
    const auto dst_node = topo.node_for_address(task.request.dst);
    const auto& capable =
        capable_sites_[static_cast<std::size_t>(task.primitive)];
    if (dst_node && !capable.empty()) {
      net::node_id exclude = task.pinned_site;
      if (exclude == net::invalid_node) {
        // First failover: exclude the site the default (install-time)
        // routing would have used.
        const auto primary = ctrl::plan_failover_site(
            baseline_spf_, capable, net::invalid_node, task.ingress,
            *dst_node);
        if (primary) exclude = primary->site;
      }
      const auto plan = ctrl::plan_failover_site(
          fabric_.spf(), capable, exclude, task.ingress, *dst_node);
      if (plan && plan->site != task.pinned_site) {
        task.pinned_site = plan->site;
        ++rs.stats.failovers;
        if (obs::enabled()) obs_rel_failovers_->add();
        rs.trace.push_back(
            reliability_event{reliability_event::kind::failover, task_id,
                              now, plan->site});
      }
    }
  }

  ++rs.stats.retransmits;
  if (obs::enabled()) obs_rel_retransmits_->add();
  rs.trace.push_back(reliability_event{reliability_event::kind::retransmit,
                                       task_id, now, task.pinned_site});
  send_tracked(task, task_id);
}

void onfiber_runtime::complete_task(std::uint32_t task_id, double now) {
  rel_shard* owner = owner_shard_of(task_id);
  if (owner == nullptr) return;
  rel_shard& rs = *owner;
  const auto it = rs.pending.find(task_id);
  if (it == rs.pending.end()) return;  // duplicate ack
  const double latency = now - it->second.submitted_s;
  ++rs.stats.completed;
  if (obs::enabled()) obs_rel_completed_->add();
  rs.stats.total_completion_s += latency;
  if (latency > rs.stats.max_completion_s) {
    rs.stats.max_completion_s = latency;
  }
  rs.trace.push_back(reliability_event{reliability_event::kind::ack, task_id,
                                       now, net::invalid_node});
  rs.pending.erase(it);
}

const onfiber_runtime::reliability_stats& onfiber_runtime::reliability()
    const {
  reliability_cache_ = reliability_stats{};
  for (const auto& rs : rel_shards_) {
    const reliability_stats& s = rs->stats;
    reliability_cache_.submitted += s.submitted;
    reliability_cache_.completed += s.completed;
    reliability_cache_.failed += s.failed;
    reliability_cache_.retransmits += s.retransmits;
    reliability_cache_.failovers += s.failovers;
    reliability_cache_.acks_sent += s.acks_sent;
    reliability_cache_.duplicate_deliveries += s.duplicate_deliveries;
    reliability_cache_.total_completion_s += s.total_completion_s;
    if (s.max_completion_s > reliability_cache_.max_completion_s) {
      reliability_cache_.max_completion_s = s.max_completion_s;
    }
  }
  return reliability_cache_;
}

const std::vector<onfiber_runtime::reliability_event>&
onfiber_runtime::recovery_trace() const {
  // One shard: the raw event-order trace.
  if (rel_shards_.size() == 1) return rel_shards_[0]->trace;
  trace_merged_.clear();
  for (const auto& rs : rel_shards_) {
    trace_merged_.insert(trace_merged_.end(), rs->trace.begin(),
                         rs->trace.end());
  }
  // Every event of one task is recorded on its owner shard, so a stable
  // sort on (time, task) keeps per-task order (failover before its
  // retransmit at the same timestamp) while interleaving tasks
  // deterministically.
  std::stable_sort(trace_merged_.begin(), trace_merged_.end(),
                   [](const reliability_event& a, const reliability_event& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     return a.task_id < b.task_id;
                   });
  return trace_merged_;
}

photonic_engine& onfiber_runtime::deploy_engine(net::node_id at,
                                                engine_config config,
                                                std::uint64_t seed) {
  if (at >= sites_.size()) {
    throw std::out_of_range("onfiber_runtime: bad node id");
  }
  auto s = std::make_unique<site>();
  s->engine = std::make_unique<photonic_engine>(config, seed);
  sites_[at] = std::move(s);
  return *sites_[at]->engine;
}

bool onfiber_runtime::site_supports(net::node_id at,
                                    proto::primitive_id p) const {
  return at < sites_.size() && sites_[at] != nullptr &&
         sites_[at]->engine->supports(p);
}

std::vector<net::node_id> onfiber_runtime::sites() const {
  std::vector<net::node_id> out;
  for (net::node_id id = 0; id < sites_.size(); ++id) {
    if (sites_[id] != nullptr) out.push_back(id);
  }
  return out;
}

void onfiber_runtime::set_compute_route(net::node_id at, net::prefix dst,
                                        proto::primitive_id p,
                                        net::node_id next_hop) {
  if (at >= compute_tables_.size()) {
    throw std::out_of_range("onfiber_runtime: bad node id");
  }
  compute_tables_[at].insert_compute(dst, p, next_hop);
}

void onfiber_runtime::install_compute_routes_via_nearest_site() {
  const net::topology& topo = fabric_.topo();
  const auto n = static_cast<net::node_id>(topo.node_count());

  // Delays and first hops come from the fabric's incremental-SPF engine
  // — the same live link state the old per-pair Dijkstra sweep read, but
  // from n persistent trees instead of n^2 runs. The trees are already
  // built after the fabric's first route install; ensure_all_trees is a
  // no-op then (and a control-plane build when called earlier).
  net::spf_engine& spf = fabric_.spf();
  spf.ensure_all_trees();

  constexpr proto::primitive_id prims[] = {
      proto::primitive_id::p1_dot_product,
      proto::primitive_id::p2_pattern_match,
      proto::primitive_id::p3_nonlinear,
      proto::primitive_id::p1_p3_dnn,
  };

  // Capable sites per primitive, in node order: the candidates below and
  // the spread-steering targets (steering == flow_spread), which follow
  // the fabric's installed routes toward them.
  for (auto& v : capable_sites_) v.clear();
  for (const net::node_id s : sites()) {
    for (const auto p : prims) {
      if (site_supports(s, p)) {
        capable_sites_[static_cast<std::size_t>(p)].push_back(s);
      }
    }
  }

  for (net::node_id u = 0; u < n; ++u) {
    for (const auto p : prims) {
      if (site_supports(u, p)) continue;  // computed in transit here
      const auto& capable = capable_sites_[static_cast<std::size_t>(p)];
      for (net::node_id d = 0; d < n; ++d) {
        if (d == u) continue;
        // Best supporting site by via-delay.
        net::node_id best_site = net::invalid_node;
        double best = std::numeric_limits<double>::infinity();
        for (const net::node_id s : capable) {  // never u: it lacks p
          const double via = spf.dist(u, s) + spf.dist(s, d);
          if (via < best) {
            best = via;
            best_site = s;
          }
        }
        if (best_site == net::invalid_node) continue;
        const net::node_id nh = spf.first_hop(u, best_site);
        if (nh == net::invalid_node) continue;
        compute_tables_[u].insert_compute(topo.node_at(d).attached_prefix, p,
                                          nh);
      }
    }
  }
}

void onfiber_runtime::submit(net::packet pkt, net::node_id ingress) {
  fabric_.send(std::move(pkt), ingress);
}

double onfiber_runtime::site_busy_s(net::node_id at) const {
  if (at >= sites_.size() || sites_[at] == nullptr) return 0.0;
  return sites_[at]->total_busy_s;
}

double onfiber_runtime::site_overhead_s(const site&) const {
  // 17 optical symbols of preamble (pilot + 16 bits) on the P2 matcher at
  // its 10 GHz symbol rate, plus a fixed optical path latency for result
  // insertion.
  constexpr double preamble_s = 17.0 / 10e9;
  constexpr double insertion_s = 5e-9;
  return preamble_s + insertion_s;
}

net::hook_decision onfiber_runtime::on_packet(net::node_id at,
                                              net::packet& pkt, double now) {
  net::hook_decision keep_going;
  if (pkt.proto != net::ip_proto::compute) return keep_going;

  // One checksum-first parse per payload generation: the first hop to
  // see this payload parses it and memoizes the primitive and flags on
  // the packet; later hops read the memo until the fabric (injection, a
  // bit flip) or the compute handoff below clears it. A header corrupted
  // in flight therefore still fails the next hop's parse.
  std::optional<proto::compute_header> parsed;
  if (!pkt.memo.valid) {
    parsed = proto::peek_compute_header(pkt);
    if (!parsed) {
      ++stats_of(at).malformed_dropped;
      if (obs::enabled()) obs_malformed_->add();
      return net::hook_decision{net::hook_decision::action_type::drop,
                                net::invalid_node};
    }
    pkt.memo = net::packet::header_memo{
        1, static_cast<std::uint8_t>(parsed->primitive), parsed->flags};
  }
  const auto primitive = static_cast<proto::primitive_id>(pkt.memo.primitive);
  if (pkt.memo.flags & proto::flag_has_result) return keep_going;

  // Compute here?
  if (site_supports(at, primitive)) {
    site& s = *sites_[at];
    // Admission control: bound the site's compute queue (admitted work
    // still in service) before committing to compute here. Deferral
    // forwards the packet raw — it may compute at a later capable hop or
    // deliver uncomputed — so overload sheds work instead of growing
    // memory; drop discards it at the hook. Neither path schedules
    // events, so traces below the bound are bit-identical to the
    // unbounded runtime. The backlog is pruned on every arrival, bounded
    // or not, so the depth is always the work still in service.
    const std::size_t depth = queue_depth_of(s, now);
    if (admission_.max_site_queue > 0 && depth >= admission_.max_site_queue) {
      admission_stats& ad = admission_of(at);
      ad.max_queue_depth = std::max<std::uint64_t>(ad.max_queue_depth, depth);
      if (obs::enabled()) sample_site_timeline(at, s, now, depth);
      if (admission_.policy == admission_config::overflow_policy::drop) {
        ++ad.dropped;
        if (obs::enabled()) obs_adm_dropped_->add();
        return net::hook_decision{net::hook_decision::action_type::drop,
                                  net::invalid_node};
      }
      ++ad.deferred;
      if (obs::enabled()) obs_adm_deferred_->add();
      // Mark the packet so downstream steering leaves it alone: without
      // the flag, every node between here and the destination would
      // redirect it straight back to this (overloaded) site. The memo
      // holds only primitive and flags, so the rewrite starts from a
      // full parse; it refreshes the memo's flags.
      if (!parsed) parsed = proto::peek_compute_header(pkt);
      if (parsed) {
        parsed->flags |= proto::flag_deferred;
        proto::rewrite_compute_header(pkt, *parsed);
        pkt.memo.flags = parsed->flags;
      }
      return keep_going;
    }
    // Serve on arrival, one engine call per packet. process() leaves a
    // packet it cannot compute (wrong shape, bad bounds) untouched, so
    // it falls through to normal forwarding, raw, and the destination
    // sees the failure.
    const engine_report report = s.engine->process(pkt);
    if (!report.computed) return keep_going;
    // The engine rewrote the header (result, chain promotion).
    pkt.memo = {};
    admission_stats& ad = admission_of(at);
    ++ad.admitted;
    ad.max_queue_depth = std::max<std::uint64_t>(ad.max_queue_depth, depth + 1);

    // One site overhead plus the analog evaluation time; the serial
    // engine queues the packet behind in-progress work. The packet stays
    // in the site queue until its evaluation finishes at `done`.
    const double start = now > s.busy_until_s ? now : s.busy_until_s;
    const double service = site_overhead_s(s) + report.compute_latency_s;
    const double done = start + service;
    s.busy_until_s = done;
    s.total_busy_s += service;
    s.service_done.push_back(done);
    ++stats_of(at).computed;
    ++s.computed;
    if (obs::enabled()) {
      obs_adm_admitted_->add();
      sample_site_timeline(at, s, now, 0);
      obs_computed_->add();
      obs::hop_record r;
      r.trace_id = pkt.trace_id;
      r.node = at;
      r.time_s = now;
      r.action = obs::hop_action::compute;
      obs::tracer::global().record(r);
    }
    // Hold the packet until the analog evaluation finishes, then let it
    // continue toward its destination (it now carries the result):
    // op_inject re-enters it through fabric::send at `done` as a typed
    // event — no per-packet closure or payload copy.
    sim_for(at).schedule_packet_at(done, std::move(pkt), at,
                                   net::wan_fabric::op_inject, &fabric_);
    return net::hook_decision{net::hook_decision::action_type::consume,
                              net::invalid_node};
  }

  // An admission-deferred packet rides the plain routes from here on:
  // steering it (spread or compute tables) would bounce it back toward
  // the site that just shed it, ping-ponging until the TTL expires.
  if (pkt.memo.flags & proto::flag_deferred) return keep_going;

  // Failover pinning: a retransmit copy the controller re-homed after
  // repeated timeouts carries its target site in the packet
  // (packet::pinned_site, stamped by send_tracked) and follows the
  // reconverged plain routes toward it, overriding the (possibly stale)
  // compute tables. Packet state only — no task-table lookup, so the
  // check is safe on any shard's thread.
  if (pkt.pinned_site != net::invalid_node && pkt.pinned_site != at &&
      pkt.pinned_site < fabric_.topo().node_count()) {
    const auto hop = fabric_.next_hop(
        at, fabric_.topo().node_at(pkt.pinned_site).address);
    if (hop && *hop != at) {
      ++stats_of(at).redirected;
      if (obs::enabled()) obs_redirected_->add();
      return net::hook_decision{net::hook_decision::action_type::redirect,
                                *hop};
    }
  }

  // Flow-spread steering (§4 congestion mitigation): hash the flow
  // across ALL capable sites so no single serial engine becomes the
  // bottleneck. Per-flow deterministic, so every node along the way
  // agrees on the chosen site and the packet converges to it.
  if (steering_ == steering_policy::flow_spread) {
    const auto& candidates =
        capable_sites_[static_cast<std::size_t>(primitive)];
    if (!candidates.empty()) {
      const net::node_id target =
          candidates[pkt.flow_hash % candidates.size()];
      const net::node_id hop = fabric_.next_hop_to_node(at, target);
      if (hop != net::invalid_node) {
        ++stats_of(at).redirected;
        if (obs::enabled()) obs_redirected_->add();
        return net::hook_decision{net::hook_decision::action_type::redirect,
                                  hop};
      }
    }
  }

  // Steer toward a capable site if a compute route exists.
  const auto next = compute_tables_[at].lookup(pkt.dst, primitive);
  if (next) {
    ++stats_of(at).redirected;
    if (obs::enabled()) obs_redirected_->add();
    return net::hook_decision{net::hook_decision::action_type::redirect,
                              *next};
  }
  return keep_going;
}

}  // namespace onfiber::core
