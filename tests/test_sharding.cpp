// Sharded parallel event engine: golden delivery traces must be
// bit-identical across shard counts {1, 2, 4} and across reruns, and
// must match the golden values committed below, which were captured
// from the single-threaded event loop (a 1-shard engine runs exactly
// that loop: same queue, same seq stream).
//
// The scenario is a 16-node chain with GEMV compute sites at nodes 5
// and 10, bidirectional compute traffic (node 0 -> 15 and 15 -> 0), and
// a flapping mid-chain link with jittered reconvergence — so packets
// cross every shard boundary, die in the flap window, and reroute,
// while the control plane (flaps, reconvergence) runs as global events.
// Traces are pinned by an FNV-1a digest over exact double bit patterns.
//
// Bit errors are exercised both ways: corruption draws come from
// counter-based streams keyed on (seed, link, direction, transmit
// sequence), so the flip pattern is a pure function of each packet's
// traversal history and the golden trace holds with BER on at any
// shard count. The reliability layer is likewise shard-aware (per-shard
// task tables on the submitting node's shard, acks as ordinary
// packets), so recovery traces are pinned across shard counts too.
//
// Run with ONFIBER_REGOLD=1 to print the observed values for
// re-capture after an intentional change.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "network/shard_channel.hpp"
#include "network/shard_engine.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"
#include "protocol/compute_header.hpp"
#include "golden_digest.hpp"

namespace onfiber {
namespace {

struct trace_entry {
  std::uint32_t task_id;
  net::node_id at;
  double time_s;

  bool operator==(const trace_entry&) const = default;
};

struct scenario_result {
  std::vector<trace_entry> trace;
  std::uint64_t delivered = 0;
  std::uint64_t computed = 0;
  std::uint64_t corrupted = 0;
  net::drop_stats drops;
  net::shard_engine_stats engine;
};

/// 16-node chain, GEMV sites at 5 and 10, nearest-site compute routing,
/// link 7 flapping, 40 interleaved up/down requests injected as engine
/// global events.
void drive_chain_scenario(core::onfiber_runtime& rt, double ber) {
  core::gemv_task task;
  task.weights = phot::matrix(4, 16);
  for (std::size_t i = 0; i < task.weights.data.size(); ++i) {
    task.weights.data[i] = 0.05 + 0.01 * static_cast<double>(i % 7);
  }
  rt.deploy_engine(5, {}, 21).configure_gemv(task);
  rt.deploy_engine(10, {}, 22).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const net::wan_fabric::link_flap flaps[] = {{7, 0.004, 0.007}};
  rt.fabric().schedule_flaps(flaps, 0.002, 17, 0.0005);
  if (ber > 0.0) rt.fabric().set_bit_error_rate(ber, 99);

  for (int i = 0; i < 40; ++i) {
    rt.fabric().engine().schedule_global(0.0004 * i, [&rt, i] {
      std::vector<double> x(16);
      for (std::size_t k = 0; k < x.size(); ++k) {
        x[k] = -1.0 + 2.0 * static_cast<double>((k * 31 + i * 7) % 97) / 96.0;
      }
      const bool up = i % 2 == 0;
      const net::node_id src = up ? 0 : 15;
      const net::node_id dst = up ? 15 : 0;
      rt.submit(core::make_gemv_request(
                    rt.fabric().topo().node_at(src).address,
                    rt.fabric().topo().node_at(dst).address, x, 4,
                    static_cast<std::uint32_t>(i)),
                src);
    });
  }
}

scenario_result run_chain(std::size_t shards, double ber = 0.0) {
  net::shard_engine engine(shards);
  core::onfiber_runtime rt(engine, net::make_linear_topology(16));
  drive_chain_scenario(rt, ber);
  engine.run(5'000'000);
  EXPECT_FALSE(engine.overran());

  scenario_result r;
  for (const auto& d : rt.deliveries()) {
    const auto h = proto::peek_compute_header(d.pkt);
    r.trace.push_back(trace_entry{h ? h->task_id : ~std::uint32_t{0}, d.at,
                                  d.time_s});
  }
  r.delivered = rt.fabric().delivered();
  r.computed = rt.stats().computed;
  r.corrupted = rt.fabric().corrupted();
  r.drops = rt.fabric().drops();
  r.engine = engine.stats();
  return r;
}

/// deliveries() returns raw event order at 1 shard and a (time, node)
/// merge at more; normalize to the merge order so traces from different
/// shard counts are comparable element-wise.
std::vector<trace_entry> normalized(const std::vector<trace_entry>& trace) {
  std::vector<trace_entry> t = trace;
  std::stable_sort(t.begin(), t.end(),
                   [](const trace_entry& a, const trace_entry& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     return a.at < b.at;
                   });
  return t;
}

std::uint64_t trace_digest(const std::vector<trace_entry>& trace) {
  golden::fnv1a64 d;
  for (const trace_entry& e : trace) {
    d.add(e.task_id);
    d.add(e.at);
    d.add_bits(e.time_s);
  }
  return d.value();
}

/// Committed chain-scenario result: trace length and digest (the raw
/// single-threaded order is already (time, node) sorted, so one digest
/// pins both the raw and the normalized trace) plus every counter.
struct chain_golden {
  std::size_t trace_size;
  std::uint64_t digest;
  std::uint64_t delivered;
  std::uint64_t computed;
  std::uint64_t corrupted;
  std::uint64_t drops_total;
  std::uint64_t link_down;
  std::uint64_t no_route;
  std::uint64_t hook_drop;
};

constexpr chain_golden kChainGolden{24, 0x074b191e59653949ull, 24, 40, 0,
                                    16, 6, 10, 0};
constexpr chain_golden kChainGoldenBer{17, 0x9f9df3579f073cd0ull, 17, 33,
                                       16, 23, 4, 9, 10};

void expect_matches(const chain_golden& g, const scenario_result& r) {
  if (golden::regold_requested()) {
    std::printf(
        "chain size=%zu digest=0x%016llx delivered=%llu computed=%llu "
        "corrupted=%llu drops=%llu link_down=%llu no_route=%llu "
        "hook_drop=%llu\n",
        r.trace.size(),
        static_cast<unsigned long long>(trace_digest(normalized(r.trace))),
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.computed),
        static_cast<unsigned long long>(r.corrupted),
        static_cast<unsigned long long>(r.drops.total()),
        static_cast<unsigned long long>(r.drops.link_down),
        static_cast<unsigned long long>(r.drops.no_route),
        static_cast<unsigned long long>(r.drops.hook_drop));
  }
  EXPECT_EQ(r.trace.size(), g.trace_size);
  // Exact: sharding may not perturb a single ULP of any timestamp.
  EXPECT_EQ(trace_digest(normalized(r.trace)), g.digest);
  EXPECT_EQ(r.delivered, g.delivered);
  EXPECT_EQ(r.computed, g.computed);
  EXPECT_EQ(r.corrupted, g.corrupted);
  EXPECT_EQ(r.drops.total(), g.drops_total);
  EXPECT_EQ(r.drops.link_down, g.link_down);
  EXPECT_EQ(r.drops.no_route, g.no_route);
  EXPECT_EQ(r.drops.hook_drop, g.hook_drop);
}

/// One shard is one (time, seq) queue: the raw trace — not normalized,
/// so same-timestamp ordering counts — must match the golden capture,
/// and no window or parcel machinery may run.
void expect_single_queue(const chain_golden& g, const scenario_result& r) {
  EXPECT_EQ(trace_digest(r.trace), g.digest);
  EXPECT_EQ(r.engine.windows, 0u);
  EXPECT_EQ(r.engine.parcels, 0u);
}

TEST(ShardedDeterminism, GoldenTraceBitIdenticalAcrossShardCounts) {
  // Sanity on the reference itself: traffic flowed, flaps killed some.
  EXPECT_GE(kChainGolden.delivered, 20u);
  EXPECT_GT(kChainGolden.drops_total, 0u);

  for (const std::size_t shards : golden::shard_count_sweep()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const scenario_result r = run_chain(shards);
    expect_matches(kChainGolden, r);
    if (shards == 1) {
      expect_single_queue(kChainGolden, r);
    } else {
      // The parallel machinery must actually have been exercised.
      EXPECT_GT(r.engine.windows, 0u);
      EXPECT_GT(r.engine.parcels, 0u);
    }
  }
}

TEST(ShardedDeterminism, GoldenTraceWithBitErrorsAcrossShardCounts) {
  // Same chain-flap scenario with BER on: corruption draws come from
  // counter streams keyed by traversal history, so the delivery trace —
  // including which packets corrupt — is exact-double identical at any
  // shard count.
  EXPECT_GE(kChainGoldenBer.delivered, 10u);  // corrupted headers dropped
  EXPECT_GT(kChainGoldenBer.drops_total, 0u);
  EXPECT_GT(kChainGoldenBer.corrupted, 0u);  // BER must actually bite
  for (const std::size_t shards : golden::shard_count_sweep()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const scenario_result r = run_chain(shards, 1e-4);
    expect_matches(kChainGoldenBer, r);
    if (shards == 1) expect_single_queue(kChainGoldenBer, r);
  }
}

/// Committed window schedule of the chain scenario: how many
/// conservative windows and cross-shard parcels the engine ran at a
/// given shard count. The trace digest alone would not catch a handshake
/// change that moved window boundaries without moving a delivery.
struct window_golden {
  std::size_t shards;
  double ber;
  std::uint64_t windows;
  std::uint64_t parcels;
};

constexpr window_golden kWindowGolden[] = {
    {2, 0.0, 58, 24},
    {2, 1e-4, 58, 20},
    {4, 0.0, 58, 88},
    {4, 1e-4, 58, 73},
};

TEST(ShardedDeterminism, WindowScheduleMatchesParent) {
  for (const window_golden& g : kWindowGolden) {
    SCOPED_TRACE("shards=" + std::to_string(g.shards) +
                 " ber=" + std::to_string(g.ber));
    const scenario_result r = run_chain(g.shards, g.ber);
    if (golden::regold_requested()) {
      std::printf("window shards=%zu ber=%g windows=%llu parcels=%llu\n",
                  g.shards, g.ber,
                  static_cast<unsigned long long>(r.engine.windows),
                  static_cast<unsigned long long>(r.engine.parcels));
    }
    EXPECT_EQ(r.engine.windows, g.windows);
    EXPECT_EQ(r.engine.parcels, g.parcels);
  }
}

TEST(ShardedDeterminism, BitIdenticalAcrossReruns) {
  const scenario_result a = run_chain(4);
  const scenario_result b = run_chain(4);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_TRUE(a.trace == b.trace);
  EXPECT_EQ(a.engine.parcels, b.engine.parcels);
}

// ---------------------------------------------------------------------
// Backpressure: a bounded cross-shard channel that fills must stall the
// producer (stalls counted, producer drains its own inbound to stay
// live) and never drop a parcel.

/// One delivery of the backpressure burst: exact arrival-time bits,
/// delivering node and packet id.
struct burst_delivery {
  std::uint64_t time_bits;
  net::node_id at;
  std::uint64_t id;

  bool operator==(const burst_delivery&) const = default;
};

struct burst_result {
  std::vector<burst_delivery> deliveries;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  net::shard_engine_stats engine;
};

constexpr std::size_t kBurstPackets = 400;

/// One burst on an 8-node chain: every packet travels node 0 -> 7 and
/// crosses every shard boundary within a few conservative windows, far
/// more parcels than a small channel holds.
burst_result run_burst(std::size_t shards, std::size_t capacity) {
  net::shard_engine engine(shards, capacity);
  net::wan_fabric fabric(engine, net::make_linear_topology(8));
  fabric.install_shortest_path_routes();

  burst_result r;
  // Every delivery happens at node 7, so only its shard's thread
  // appends; run() returning orders the appends before the reads.
  fabric.set_deliver_callback(
      [&r](const net::packet& pkt, net::node_id at, double t) {
        r.deliveries.push_back(
            burst_delivery{std::bit_cast<std::uint64_t>(t), at, pkt.id});
      });
  engine.schedule_global(0.0, [&fabric] {
    for (std::size_t i = 0; i < kBurstPackets; ++i) {
      net::packet pkt;
      pkt.src = fabric.topo().node_at(0).address;
      pkt.dst = fabric.topo().node_at(7).address;
      pkt.id = i;
      pkt.payload.resize(64);
      fabric.send(pkt, 0);
    }
  });
  engine.run();
  EXPECT_FALSE(engine.overran());
  r.delivered = fabric.delivered();
  r.drops = fabric.drops().total();
  r.engine = engine.stats();
  return r;
}

TEST(ShardedBackpressure, FullChannelStallsProducerWithoutDrops) {
  constexpr std::size_t kCapacity = 8;
  const burst_result r = run_burst(2, kCapacity);

  EXPECT_EQ(r.delivered, kBurstPackets);
  ASSERT_EQ(r.deliveries.size(), kBurstPackets);
  for (const burst_delivery& d : r.deliveries) EXPECT_EQ(d.at, 7u);
  EXPECT_EQ(r.drops, 0u);
  EXPECT_EQ(r.engine.parcels, kBurstPackets);
  EXPECT_GT(r.engine.producer_stalls, 0u);
  EXPECT_LE(r.engine.max_channel_depth, kCapacity);
}

TEST(ShardedBackpressure, CapacityOneMatchesDefaultCapacity) {
  // With one-parcel channels nearly every push stalls, shard 0's on the
  // calling thread included, so the arrival wait's draining carries the
  // whole burst. The delivered sequence must not move by a single bit.
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const burst_result wide =
        run_burst(shards, net::spsc_channel::kDefaultCapacity);
    const burst_result tight = run_burst(shards, 1);
    ASSERT_EQ(wide.deliveries.size(), kBurstPackets);
    EXPECT_TRUE(tight.deliveries == wide.deliveries);
    EXPECT_EQ(tight.drops, 0u);
    EXPECT_GT(tight.engine.producer_stalls, 0u);
    EXPECT_LE(tight.engine.max_channel_depth, 1u);
    EXPECT_EQ(tight.engine.windows, wide.engine.windows);
    EXPECT_EQ(tight.engine.parcels, wide.engine.parcels);
  }
}

/// Tests below flip the process-wide tracing flag; the guard restores
/// it (the suite may run under ONFIBER_TRACE=1) and zeroes the metrics.
struct obs_state_guard {
  bool prev = obs::enabled();
  obs_state_guard() { obs::registry::global().reset_values(); }
  ~obs_state_guard() {
    obs::set_enabled(prev);
    obs::registry::global().reset_values();
  }
};

TEST(ShardedBackpressure, StallCounterSumsAcrossEngines) {
  // Two engines in one process share engine.producer_stalls; each must
  // add its own stalls, however many the other already reported.
  obs_state_guard guard;
  obs::set_enabled(true);
  const burst_result a = run_burst(2, 8);
  const burst_result b = run_burst(2, 8);
  EXPECT_GT(a.engine.producer_stalls, 0u);
  EXPECT_GT(b.engine.producer_stalls, 0u);
  EXPECT_EQ(
      obs::registry::global().get_counter("engine.producer_stalls").value(),
      a.engine.producer_stalls + b.engine.producer_stalls);
}

TEST(ShardedEngine, ShardZeroRunsOnCallingThread) {
  net::shard_engine engine(2);
  net::wan_fabric fabric(engine, net::make_linear_topology(8));
  fabric.install_shortest_path_routes();
  ASSERT_EQ(fabric.shard_of(0), 0u);
  ASSERT_EQ(fabric.shard_of(7), 1u);

  // Each slot is written only by the thread that delivers at its node.
  std::thread::id at_node0;
  std::thread::id at_node7;
  fabric.set_deliver_callback(
      [&](const net::packet&, net::node_id at, double) {
        (at == 0 ? at_node0 : at_node7) = std::this_thread::get_id();
      });
  engine.schedule_global(0.0, [&fabric] {
    for (const net::node_id from : {0u, 7u}) {
      net::packet pkt;
      pkt.src = fabric.topo().node_at(from).address;
      pkt.dst = fabric.topo().node_at(7 - from).address;
      pkt.payload.resize(64);
      fabric.send(pkt, from);
    }
  });
  engine.run();
  ASSERT_EQ(fabric.delivered(), 2u);
  EXPECT_EQ(at_node0, std::this_thread::get_id());
  EXPECT_NE(at_node7, std::this_thread::get_id());
  EXPECT_NE(at_node7, std::thread::id{});
}

TEST(ShardedAttribution, WindowTimersRecordOnlyWhileTracing) {
  obs_state_guard guard;
  auto& reg = obs::registry::global();
  const char* const kTimers[] = {
      "engine.shard0.exec_ns",  "engine.shard1.exec_ns",
      "engine.shard0.wait_ns",  "engine.shard1.wait_ns",
      "engine.shard0.merge_ns", "engine.shard1.merge_ns",
      "engine.global_ns"};

  obs::set_enabled(false);
  expect_matches(kChainGolden, run_chain(2));
  for (const char* name : kTimers) {
    EXPECT_EQ(reg.get_counter(name).value(), 0u) << name;
  }

  // Timing is host-side only: the traced run's digest may not move.
  obs::set_enabled(true);
  expect_matches(kChainGolden, run_chain(2));
  EXPECT_GT(reg.get_counter("engine.shard0.exec_ns").value(), 0u);
  EXPECT_GT(reg.get_counter("engine.shard1.exec_ns").value(), 0u);
  EXPECT_GT(reg.get_counter("engine.global_ns").value(), 0u);
}

TEST(ShardedChannel, SpscPushPopBounds) {
  net::spsc_channel ch(4);
  net::parcel p;
  for (std::uint64_t i = 0; i < 4; ++i) {
    p.seq = i;
    EXPECT_TRUE(ch.try_push(std::move(p)));
  }
  p.seq = 99;
  EXPECT_FALSE(ch.try_push(std::move(p)));
  EXPECT_EQ(p.seq, 99u);  // rejected parcel is left intact
  net::parcel out;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ch.try_pop(out));
    EXPECT_EQ(out.seq, i);
  }
  EXPECT_FALSE(ch.try_pop(out));
  EXPECT_TRUE(ch.empty());
}

// ---------------------------------------------------------------------
// Partitioning: contiguous blocks for chains, balanced regions for
// meshes, deterministic everywhere.

TEST(ShardedPartition, ChainCutsIntoContiguousBlocks) {
  const net::topology chain = net::make_linear_topology(32);
  const auto part = net::partition_topology(chain, 4);
  ASSERT_EQ(part.size(), 32u);
  for (std::size_t u = 0; u < part.size(); ++u) {
    EXPECT_EQ(part[u], u / 8) << "node " << u;
  }
}

TEST(ShardedPartition, MeshPartitionIsBalancedAndDeterministic) {
  const net::topology wan = net::make_uswan_topology();
  const auto part = net::partition_topology(wan, 3);
  ASSERT_EQ(part.size(), wan.node_count());
  std::vector<std::size_t> sizes(3, 0);
  for (const std::uint32_t s : part) {
    ASSERT_LT(s, 3u);
    ++sizes[s];
  }
  for (const std::size_t n : sizes) {
    EXPECT_GE(n, 2u);  // 12 nodes over 3 shards: no shard starved
    EXPECT_LE(n, 6u);
  }
  EXPECT_EQ(part, net::partition_topology(wan, 3));
}

TEST(ShardedPartition, MoreShardsThanNodesClamps) {
  const net::topology chain = net::make_linear_topology(3);
  const auto part = net::partition_topology(chain, 8);
  ASSERT_EQ(part.size(), 3u);
  for (const std::uint32_t s : part) EXPECT_LT(s, 3u);
}

// ---------------------------------------------------------------------
// Guard rails.

TEST(ShardedGuards, ReliabilityAllowedAtAnyShardCount) {
  // The single-shard restriction is gone: task tables live on the
  // submitting node's shard and acks travel as ordinary packets, so
  // enabling reliability is legal at any shard count.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    net::shard_engine engine(shards);
    core::onfiber_runtime rt(engine, net::make_linear_topology(8));
    EXPECT_NO_THROW(rt.enable_reliability()) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------
// Reliability across shards: the PR 2 flap scenario (figure-1, two
// flapping links, retransmit + backoff + failover) must complete every
// task and produce a bit-identical recovery trace at any shard count.

struct reliable_run {
  std::vector<core::onfiber_runtime::reliability_event> trace;
  core::onfiber_runtime::reliability_stats stats;
};

/// Figure-1 topology (4 nodes: A=0, B=1, C=2, D=3; links 0 A-B, 2 B-D
/// flap), GEMV sites at B and C, 12 reliable A -> D tasks submitted at
/// t = 0. Mirrors test_reliability.cpp's run_flap_scenario, and is the
/// same scenario test_spf.cpp's routing golden pins.
reliable_run run_flap_reliable(std::size_t shards) {
  net::shard_engine engine(shards);
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(1, 4);
  for (double& w : task.weights.data) w = 0.5;
  rt.deploy_engine(1, {}, 71).configure_gemv(task);
  rt.deploy_engine(2, {}, 72).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const net::wan_fabric::link_flap flaps[] = {
      {0, 0.000, 0.050},  // A-B
      {2, 0.010, 0.060},  // B-D
  };
  rt.fabric().schedule_flaps(flaps, 0.004, /*jitter_seed=*/5,
                             /*reconvergence_jitter_s=*/0.002);

  core::onfiber_runtime::reliability_config cfg;
  cfg.initial_rto_s = 0.020;
  cfg.backoff = 2.0;
  cfg.failover_after = 2;
  rt.enable_reliability(cfg);

  engine.schedule_global(0.0, [&rt] {
    const std::vector<double> x(4, 0.5);
    for (std::uint32_t id = 0; id < 12; ++id) {
      rt.submit_reliable(
          core::make_gemv_request(rt.fabric().topo().node_at(0).address,
                                  rt.fabric().topo().node_at(3).address, x,
                                  1, id),
          0);
    }
  });
  engine.run(5'000'000);
  EXPECT_FALSE(engine.overran());
  return reliable_run{rt.recovery_trace(), rt.reliability()};
}

void expect_same_stats(const core::onfiber_runtime::reliability_stats& a,
                       const core::onfiber_runtime::reliability_stats& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.acks_sent, b.acks_sent);
  EXPECT_EQ(a.duplicate_deliveries, b.duplicate_deliveries);
  EXPECT_EQ(a.max_completion_s, b.max_completion_s);  // exact
}

void expect_same_recovery(const reliable_run& a, const reliable_run& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.trace[i].what),
              static_cast<int>(b.trace[i].what))
        << "event " << i;
    EXPECT_EQ(a.trace[i].task_id, b.trace[i].task_id) << "event " << i;
    // Exact doubles: sharding may not perturb a single ULP.
    EXPECT_EQ(a.trace[i].time_s, b.trace[i].time_s) << "event " << i;
    EXPECT_EQ(a.trace[i].site, b.trace[i].site) << "event " << i;
  }
  expect_same_stats(a.stats, b.stats);
}

/// Committed flap-recovery result, captured from the single-threaded
/// event loop: trace length and digest plus every reliability counter.
constexpr std::size_t kRecoveryTraceSize = 60;
constexpr std::uint64_t kRecoveryDigest = 0xc0c60d4213e1104dull;

core::onfiber_runtime::reliability_stats golden_recovery_stats() {
  core::onfiber_runtime::reliability_stats g;
  g.submitted = 12;
  g.completed = 12;
  g.failed = 0;
  g.retransmits = 24;
  g.failovers = 12;
  g.acks_sent = 12;
  g.duplicate_deliveries = 0;
  g.max_completion_s = 0x1.17dbb97c6f595p-4;
  return g;
}

TEST(ShardedReliability, FlapRecoveryEquivalentAcrossShardCounts) {
  // The reference really exercises recovery and everything completes.
  const auto golden_stats = golden_recovery_stats();
  EXPECT_EQ(golden_stats.completed, golden_stats.submitted);
  EXPECT_GT(golden_stats.retransmits, 0u);
  for (const std::size_t shards : golden::shard_count_sweep()) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const reliable_run r = run_flap_reliable(shards);
    const std::uint64_t digest = golden::recovery_digest(r.trace);
    if (golden::regold_requested()) {
      const auto& st = r.stats;
      std::printf(
          "recovery size=%zu digest=0x%016llx submitted=%llu "
          "completed=%llu failed=%llu retransmits=%llu failovers=%llu "
          "acks_sent=%llu duplicates=%llu max_completion=%a\n",
          r.trace.size(), static_cast<unsigned long long>(digest),
          static_cast<unsigned long long>(st.submitted),
          static_cast<unsigned long long>(st.completed),
          static_cast<unsigned long long>(st.failed),
          static_cast<unsigned long long>(st.retransmits),
          static_cast<unsigned long long>(st.failovers),
          static_cast<unsigned long long>(st.acks_sent),
          static_cast<unsigned long long>(st.duplicate_deliveries),
          st.max_completion_s);
    }
    EXPECT_EQ(r.trace.size(), kRecoveryTraceSize);
    EXPECT_EQ(digest, kRecoveryDigest);
    expect_same_stats(golden_stats, r.stats);
  }
}

TEST(ShardedReliability, RecoveryTraceBitIdenticalAcrossReruns) {
  const reliable_run a = run_flap_reliable(4);
  const reliable_run b = run_flap_reliable(4);
  expect_same_recovery(a, b);
  EXPECT_EQ(a.stats.completed, 12u);
}

}  // namespace
}  // namespace onfiber
