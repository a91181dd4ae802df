// workload.hpp — open-loop workload plane: streaming arrival processes
// generated incrementally inside the event engine.
//
// The ROADMAP's production-traffic north star ("millions of concurrent
// flows") cannot be reached by pre-materializing arrival vectors: this
// plane schedules each flow arrival as an event that draws the next one,
// so memory is O(active flows), not O(total packets). Flow sizes are
// heavy-tailed (bounded Pareto mice/elephants, generalizing the load
// balancer's hand-rolled flow maker), the arrival rate is modulated by a
// diurnal sinusoid and deterministic microburst episodes (Lewis–Shedler
// thinning against the peak rate), and per-tenant flow classes let one
// plane mix e.g. compute requests with plain forwarding background.
//
// Determinism contract: every draw comes from a counter stream keyed on
// (seed, salt, injector, flow) — pure functions of the key, never of
// shard placement or wall-clock interleaving — so the emitted packet
// streams (timestamps, payloads, ids, flow hashes) are bit-identical
// across shard counts, reruns, and thread counts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "network/address.hpp"
#include "network/fabric.hpp"
#include "network/packet.hpp"
#include "photonics/rng.hpp"

namespace onfiber::net {

/// Power-law distribution truncated to [lo_bytes, hi_bytes].
struct bounded_pareto {
  double alpha = 1.3;       ///< tail index (smaller = heavier tail)
  double lo_bytes = 2e3;    ///< minimum value
  double hi_bytes = 30e3;   ///< maximum value (truncation point)

  /// Inverse CDF at u in [0, 1).
  [[nodiscard]] double quantile(double u) const;
};

/// One tenant's flow class: how often flows arrive and what they look
/// like. Defaults mirror the load balancer's mice/elephants mix.
struct flow_class {
  double flow_rate_fps = 100.0;  ///< mean flow arrivals/s at base rate
  double mice_fraction = 0.8;    ///< probability a flow is a mouse
  bounded_pareto mice{1.3, 2e3, 30e3};        ///< mouse sizes [bytes]
  bounded_pareto elephants{1.3, 0.5e6, 8e6};  ///< elephant sizes [bytes]
  std::size_t mtu_bytes = 1400;  ///< per-packet payload bytes
  double min_packet_gap_s = 50e-6;  ///< in-flow pacing, drawn per flow
  double max_packet_gap_s = 2e-3;
};

/// Sinusoidal rate modulation: factor(t) = 1 + depth*sin(2*pi*t/period
/// + phase). period_s = 0 disables (factor 1).
struct diurnal_config {
  double period_s = 0.0;
  double depth = 0.0;  ///< in [0, 1]
  double phase_rad = 0.0;
};

/// Deterministic microburst episodes: each cell of width 1/episodes_per_s
/// contains one episode of `duration_s` at a counter-drawn offset, during
/// which the arrival rate is multiplied by `amplitude`. episodes_per_s = 0
/// disables. Requires duration_s <= 1/episodes_per_s so membership is an
/// O(1) pure function of t.
struct microburst_config {
  double episodes_per_s = 0.0;
  double duration_s = 1e-3;
  double amplitude = 8.0;  ///< >= 1
};

struct workload_config {
  std::vector<flow_class> tenants = std::vector<flow_class>(1);  ///< one default class
  diurnal_config diurnal{};
  microburst_config bursts{};
  std::uint64_t seed = 1;
};

/// What a packet factory sees for each emission. All fields are pure
/// functions of (workload seed, injector, flow index, packet index).
struct flow_packet_view {
  std::uint32_t injector = 0;
  std::uint64_t flow_seq = 0;      ///< per-injector flow index
  std::uint32_t packet_index = 0;  ///< 0-based within the flow
  std::uint32_t packet_count = 0;
  std::size_t payload_bytes = 0;   ///< this packet's share of the flow
  std::uint32_t flow_hash = 0;
  ipv4 src{};
  ipv4 dst{};
  double time_s = 0.0;
  /// Unique across the plane: (injector + 1) << 44 | the injector's
  /// 1-based packet count, so the id names its injector.
  std::uint64_t packet_id = 0;
};

/// Open-loop traffic source driving a wan_fabric from inside its event
/// engine. Construct, add injectors, call start(until_s) once before
/// running the engine; arrivals then self-schedule on each injector's
/// owning shard until the horizon. Stats are safe to read once the
/// engine has finished a run.
class workload_plane {
 public:
  using factory_fn = std::function<packet(const flow_packet_view&)>;

  struct injector_config {
    node_id ingress = 0;      ///< node whose shard owns this stream
    ipv4 dst{};               ///< destination address for default packets
    std::size_t tenant = 0;   ///< index into workload_config::tenants
    factory_fn factory;       ///< null: plain UDP packet, pooled payload
  };

  struct plane_stats {
    std::uint64_t flows = 0;
    std::uint64_t packets = 0;
    double payload_bytes = 0.0;
    std::uint64_t thinning_rejects = 0;  ///< Lewis–Shedler candidate rejects
    std::uint64_t truncated_chains = 0;  ///< flows cut short by the horizon
  };

  workload_plane(wan_fabric& fabric, workload_config cfg);

  /// Register a stream; returns its injector index.
  std::uint32_t add_injector(injector_config cfg);

  /// Time-varying rate multiplier diurnal(t) * burst(t) — a pure function
  /// of t (exposed for tests; identical across shard counts).
  [[nodiscard]] double rate_factor(double t) const;

  /// Arm every injector: schedules each stream's first flow arrival on
  /// the ingress node's simulator. Call once, before the engine runs.
  /// Streams stop drawing new flows and emitting packets at `until_s`;
  /// in-flight packets drain normally.
  void start(double until_s);

  /// Summed over injectors.
  [[nodiscard]] plane_stats stats() const;
  [[nodiscard]] const plane_stats& injector_stats(std::uint32_t idx) const {
    return injectors_[idx]->stats;
  }

 private:
  struct live_flow {
    std::uint32_t injector = 0;
    std::uint64_t seq = 0;
    std::uint32_t next_packet = 0;
    std::uint32_t packet_count = 0;
    std::size_t size_bytes = 0;
    std::size_t mtu = 0;
    std::uint32_t flow_hash = 0;
    double gap_s = 0.0;
  };

  // Heap-allocated so injector addresses are stable across add_injector
  // calls; each is written only by its owning shard's thread while the
  // engine runs.
  struct alignas(64) injector {
    injector_config cfg;
    phot::counter_rng arrivals{0};  ///< gap + thinning draws, injector-keyed
    double clock = 0.0;          ///< flow-arrival process time
    double lambda_max = 0.0;     ///< thinning envelope [flows/s]
    std::uint64_t flow_seq = 0;
    std::uint64_t packet_seq = 0;
    plane_stats stats;
  };

  void schedule_next_flow(std::uint32_t idx, double until_s);
  void start_flow(std::uint32_t idx, double until_s);
  void emit_packet(live_flow f, double until_s);

  [[nodiscard]] double diurnal_factor(double t) const;
  [[nodiscard]] double burst_factor(double t) const;

  wan_fabric* fabric_;
  workload_config cfg_;
  std::vector<std::unique_ptr<injector>> injectors_;
  bool started_ = false;
};

/// Shard-safe completion recorder: per-shard latency samples merged on
/// read, so percentiles are exact and identical at every shard count.
/// Wire it up via onfiber_runtime::set_delivery_observer (or a fabric
/// deliver callback); record() must be called from the delivering
/// shard's thread.
class completion_recorder {
 public:
  explicit completion_recorder(wan_fabric& fabric);

  void record(const packet& pkt, node_id at, double now);

  [[nodiscard]] std::uint64_t delivered() const;
  /// Exact nearest-rank percentile of delivery latency over all shards
  /// (as summary::percentile); p is clamped to [0, 100], and a NaN p
  /// throws std::invalid_argument. 0 when nothing was delivered.
  [[nodiscard]] double latency_percentile(double p) const;

 private:
  struct alignas(64) shard_bucket {
    std::vector<double> latencies;
  };

  wan_fabric* fabric_;
  std::vector<std::unique_ptr<shard_bucket>> shards_;
};

}  // namespace onfiber::net
