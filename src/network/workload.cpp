#include "network/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "network/event_sim.hpp"
#include "network/stats.hpp"
#include "network/topology.hpp"

namespace onfiber::net {

namespace {

// Key salts: distinct draw domains under one workload seed.
constexpr std::uint64_t kArrivalSalt = 0x776c6f61642d6172ULL;  // "wload-ar"
constexpr std::uint64_t kFlowSalt = 0x776c6f61642d666cULL;     // "wload-fl"
constexpr std::uint64_t kBurstSalt = 0x776c6f61642d6275ULL;    // "wload-bu"

}  // namespace

double bounded_pareto::quantile(double u) const {
  // Inverse CDF of the Pareto(alpha, lo) truncated at hi:
  //   F(x) = (1 - (lo/x)^a) / (1 - (lo/hi)^a)
  const double ratio_a = std::pow(lo_bytes / hi_bytes, alpha);
  const double x =
      lo_bytes / std::pow(1.0 - u * (1.0 - ratio_a), 1.0 / alpha);
  return std::clamp(x, lo_bytes, hi_bytes);
}

workload_plane::workload_plane(wan_fabric& fabric, workload_config cfg)
    : fabric_(&fabric), cfg_(std::move(cfg)) {
  if (cfg_.tenants.empty()) {
    throw std::invalid_argument("workload_plane: need >= 1 tenant");
  }
  for (const flow_class& fc : cfg_.tenants) {
    if (fc.flow_rate_fps <= 0.0) {
      throw std::invalid_argument("workload_plane: flow rate must be > 0");
    }
    if (fc.mice_fraction < 0.0 || fc.mice_fraction > 1.0) {
      throw std::invalid_argument("workload_plane: mice_fraction in [0,1]");
    }
    for (const bounded_pareto* bp : {&fc.mice, &fc.elephants}) {
      if (bp->alpha <= 0.0 || bp->lo_bytes <= 0.0 ||
          bp->hi_bytes < bp->lo_bytes) {
        throw std::invalid_argument("workload_plane: bad pareto bounds");
      }
    }
    if (fc.mtu_bytes == 0) {
      throw std::invalid_argument("workload_plane: mtu must be >= 1 byte");
    }
    if (fc.min_packet_gap_s < 0.0 ||
        fc.max_packet_gap_s < fc.min_packet_gap_s) {
      throw std::invalid_argument("workload_plane: bad packet gap range");
    }
  }
  if (cfg_.diurnal.period_s < 0.0 || cfg_.diurnal.depth < 0.0 ||
      cfg_.diurnal.depth > 1.0) {
    throw std::invalid_argument("workload_plane: bad diurnal config");
  }
  if (cfg_.bursts.episodes_per_s < 0.0) {
    throw std::invalid_argument("workload_plane: bad burst rate");
  }
  if (cfg_.bursts.episodes_per_s > 0.0) {
    if (cfg_.bursts.amplitude < 1.0) {
      throw std::invalid_argument("workload_plane: burst amplitude < 1");
    }
    if (cfg_.bursts.duration_s <= 0.0 ||
        cfg_.bursts.duration_s > 1.0 / cfg_.bursts.episodes_per_s) {
      // One episode per cell keeps burst membership an O(1) pure
      // function of t; longer episodes would need a scan.
      throw std::invalid_argument(
          "workload_plane: burst duration must be in (0, 1/episodes_per_s]");
    }
  }
}

std::uint32_t workload_plane::add_injector(injector_config cfg) {
  if (started_) {
    throw std::logic_error("workload_plane: add_injector after start()");
  }
  if (cfg.tenant >= cfg_.tenants.size()) {
    throw std::invalid_argument("workload_plane: tenant index out of range");
  }
  const auto idx = static_cast<std::uint32_t>(injectors_.size());
  auto in = std::make_unique<injector>();
  in->cfg = std::move(cfg);
  in->arrivals = phot::counter_rng(
      phot::counter_rng::key_of(cfg_.seed, kArrivalSalt, idx));
  const flow_class& fc = cfg_.tenants[in->cfg.tenant];
  double peak = 1.0 + cfg_.diurnal.depth;
  if (cfg_.bursts.episodes_per_s > 0.0) peak *= cfg_.bursts.amplitude;
  in->lambda_max = fc.flow_rate_fps * peak;
  injectors_.push_back(std::move(in));
  return idx;
}

double workload_plane::diurnal_factor(double t) const {
  if (cfg_.diurnal.period_s <= 0.0) return 1.0;
  const double phase =
      2.0 * std::numbers::pi * t / cfg_.diurnal.period_s +
      cfg_.diurnal.phase_rad;
  return 1.0 + cfg_.diurnal.depth * std::sin(phase);
}

double workload_plane::burst_factor(double t) const {
  if (cfg_.bursts.episodes_per_s <= 0.0 || t < 0.0) return 1.0;
  const double cell = 1.0 / cfg_.bursts.episodes_per_s;
  // Episode k starts at (k + u_k) * cell with u_k a counter draw — a pure
  // function of (seed, k). duration <= cell, so only the episode of this
  // cell or the previous one can cover t.
  const auto k0 = static_cast<std::int64_t>(std::floor(t / cell));
  for (std::int64_t k = k0; k >= 0 && k >= k0 - 1; --k) {
    phot::counter_rng g(phot::counter_rng::key_of(
        cfg_.seed, kBurstSalt, static_cast<std::uint64_t>(k)));
    const double start = (static_cast<double>(k) + g.uniform()) * cell;
    if (t >= start && t < start + cfg_.bursts.duration_s) {
      return cfg_.bursts.amplitude;
    }
  }
  return 1.0;
}

double workload_plane::rate_factor(double t) const {
  return diurnal_factor(t) * burst_factor(t);
}

void workload_plane::start(double until_s) {
  if (started_) throw std::logic_error("workload_plane: start() twice");
  started_ = true;
  for (std::uint32_t idx = 0; idx < injectors_.size(); ++idx) {
    schedule_next_flow(idx, until_s);
  }
}

void workload_plane::schedule_next_flow(std::uint32_t idx, double until_s) {
  injector& in = *injectors_[idx];
  const flow_class& fc = cfg_.tenants[in.cfg.tenant];
  // Lewis–Shedler thinning against the tenant's peak rate: candidate
  // gaps at lambda_max, accepted with probability lambda(t)/lambda_max.
  // All draws come from the injector's own counter stream, consumed in
  // injector-local order — shard placement never changes the sequence.
  for (;;) {
    const double u = in.arrivals.uniform();
    in.clock += -std::log(1.0 - u) / in.lambda_max;
    if (!(in.clock < until_s)) return;  // horizon: the stream ends
    const double lambda = fc.flow_rate_fps * rate_factor(in.clock);
    if (in.arrivals.uniform() * in.lambda_max <= lambda) break;
    ++in.stats.thinning_rejects;
  }
  fabric_->sim_for(in.cfg.ingress)
      .schedule_at(in.clock, [this, idx, until_s] {
        start_flow(idx, until_s);
        schedule_next_flow(idx, until_s);
      });
}

void workload_plane::start_flow(std::uint32_t idx, double until_s) {
  injector& in = *injectors_[idx];
  const flow_class& fc = cfg_.tenants[in.cfg.tenant];
  // Flow attributes are a pure function of (seed, injector, flow index):
  // independent of arrival-draw interleaving and shard placement.
  phot::counter_rng draw(
      phot::counter_rng::key_of(cfg_.seed, kFlowSalt, idx, in.flow_seq));
  live_flow f;
  f.injector = idx;
  f.seq = in.flow_seq++;
  f.mtu = fc.mtu_bytes;
  const bool mouse = draw.uniform() < fc.mice_fraction;
  const bounded_pareto& dist = mouse ? fc.mice : fc.elephants;
  f.size_bytes = std::max<std::size_t>(
      1, static_cast<std::size_t>(dist.quantile(draw.uniform())));
  f.packet_count =
      static_cast<std::uint32_t>((f.size_bytes + f.mtu - 1) / f.mtu);
  const auto sport =
      static_cast<std::uint16_t>(1024 + draw.below(60000));
  const ipv4 src = fabric_->topo().node_at(in.cfg.ingress).address;
  f.flow_hash = flow_hash_of(src, in.cfg.dst, sport, 443,
                             static_cast<std::uint8_t>(ip_proto::udp));
  f.gap_s = fc.min_packet_gap_s +
            draw.uniform() * (fc.max_packet_gap_s - fc.min_packet_gap_s);
  ++in.stats.flows;
  emit_packet(f, until_s);
}

void workload_plane::emit_packet(live_flow f, double until_s) {
  injector& in = *injectors_[f.injector];
  simulator& sim = fabric_->sim_for(in.cfg.ingress);
  const double now = sim.now();

  flow_packet_view v;
  v.injector = f.injector;
  v.flow_seq = f.seq;
  v.packet_index = f.next_packet;
  v.packet_count = f.packet_count;
  v.payload_bytes =
      std::min(f.mtu, f.size_bytes - std::size_t{f.next_packet} * f.mtu);
  v.flow_hash = f.flow_hash;
  v.src = fabric_->topo().node_at(in.cfg.ingress).address;
  v.dst = in.cfg.dst;
  v.time_s = now;
  v.packet_id = (std::uint64_t{f.injector} + 1) << 44 | ++in.packet_seq;

  packet pkt;
  if (in.cfg.factory) {
    pkt = in.cfg.factory(v);
  } else {
    pkt.src = v.src;
    pkt.dst = v.dst;
    pkt.proto = ip_proto::udp;
    pkt.payload = fabric_->pool_of(in.cfg.ingress).acquire();
    pkt.payload.resize(v.payload_bytes);  // zero-filled: content-free load
  }
  if (pkt.id == 0) pkt.id = v.packet_id;
  if (pkt.flow_hash == 0) pkt.flow_hash = v.flow_hash;
  pkt.created_s = now;
  ++in.stats.packets;
  in.stats.payload_bytes += static_cast<double>(pkt.payload.size());
  fabric_->send(std::move(pkt), in.cfg.ingress);

  if (++f.next_packet >= f.packet_count) return;
  const double next_t = now + f.gap_s;
  if (!(next_t < until_s)) {
    ++in.stats.truncated_chains;  // horizon cut this flow short
    return;
  }
  sim.schedule_at(next_t,
                  [this, f, until_s] { emit_packet(f, until_s); });
}

workload_plane::plane_stats workload_plane::stats() const {
  plane_stats sum;
  for (const auto& in : injectors_) {
    sum.flows += in->stats.flows;
    sum.packets += in->stats.packets;
    sum.payload_bytes += in->stats.payload_bytes;
    sum.thinning_rejects += in->stats.thinning_rejects;
    sum.truncated_chains += in->stats.truncated_chains;
  }
  return sum;
}

completion_recorder::completion_recorder(wan_fabric& fabric)
    : fabric_(&fabric) {
  shards_.reserve(fabric.shard_count());
  for (std::size_t i = 0; i < fabric.shard_count(); ++i) {
    shards_.push_back(std::make_unique<shard_bucket>());
  }
}

void completion_recorder::record(const packet& pkt, node_id at, double now) {
  shard_bucket& b = *shards_[fabric_->shard_of(at)];
  b.latencies.push_back(now - pkt.created_s);
}

std::uint64_t completion_recorder::delivered() const {
  std::uint64_t n = 0;
  for (const auto& b : shards_) n += b->latencies.size();
  return n;
}

double completion_recorder::latency_percentile(double p) const {
  if (std::isnan(p)) {
    throw std::invalid_argument("completion_recorder: NaN percentile");
  }
  std::vector<double> all;
  all.reserve(delivered());
  for (const auto& b : shards_) {
    all.insert(all.end(), b->latencies.begin(), b->latencies.end());
  }
  if (all.empty()) return 0.0;
  // Sorting by value makes the merge order irrelevant: the percentile is
  // a function of the multiset, hence identical at every shard count.
  std::sort(all.begin(), all.end());
  return nearest_rank(all, std::clamp(p, 0.0, 100.0));
}

}  // namespace onfiber::net
