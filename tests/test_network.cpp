// Tests for the network substrate: addressing, LPM tables, event
// simulator, topology, fabric, traffic, stats.
#include <gtest/gtest.h>

#include <vector>

#include "network/address.hpp"
#include "network/event_sim.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "network/stats.hpp"
#include "network/topology.hpp"
#include "network/traffic.hpp"
#include "photonics/rng.hpp"

namespace onfiber::net {
namespace {

// ---------------------------------------------------------------- address

TEST(Address, RoundTripText) {
  const ipv4 a(192, 168, 1, 42);
  EXPECT_EQ(a.to_string(), "192.168.1.42");
  EXPECT_EQ(parse_ipv4("192.168.1.42"), a);
}

TEST(Address, ParseRejectsMalformed) {
  EXPECT_THROW((void)parse_ipv4(""), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("1.2.3"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("1.2.3.256"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("1..2.3"), std::invalid_argument);
  EXPECT_THROW((void)parse_ipv4("a.b.c.d"), std::invalid_argument);
}

TEST(Address, PrefixContains) {
  const prefix p(ipv4(10, 1, 0, 0), 16);
  EXPECT_TRUE(p.contains(ipv4(10, 1, 2, 3)));
  EXPECT_TRUE(p.contains(ipv4(10, 1, 255, 255)));
  EXPECT_FALSE(p.contains(ipv4(10, 2, 0, 0)));
}

TEST(Address, ZeroLengthPrefixMatchesEverything) {
  const prefix p(ipv4(0), 0);
  EXPECT_TRUE(p.contains(ipv4(255, 255, 255, 255)));
  EXPECT_TRUE(p.contains(ipv4(0)));
}

TEST(Address, HostPrefixMatchesOnlyItself) {
  const prefix p(ipv4(10, 0, 0, 7), 32);
  EXPECT_TRUE(p.contains(ipv4(10, 0, 0, 7)));
  EXPECT_FALSE(p.contains(ipv4(10, 0, 0, 6)));
}

// ---------------------------------------------------------------- routing

TEST(Routing, LongestPrefixWins) {
  routing_table<int> t;
  t.insert(prefix(ipv4(10, 0, 0, 0), 8), 1);
  t.insert(prefix(ipv4(10, 1, 0, 0), 16), 2);
  t.insert(prefix(ipv4(10, 1, 2, 0), 24), 3);
  EXPECT_EQ(t.lookup(ipv4(10, 1, 2, 3)).value(), 3);
  EXPECT_EQ(t.lookup(ipv4(10, 1, 9, 9)).value(), 2);
  EXPECT_EQ(t.lookup(ipv4(10, 9, 9, 9)).value(), 1);
  EXPECT_FALSE(t.lookup(ipv4(11, 0, 0, 0)).has_value());
}

TEST(Routing, DefaultRoute) {
  routing_table<int> t;
  t.insert(prefix(ipv4(0), 0), 99);
  EXPECT_EQ(t.lookup(ipv4(1, 2, 3, 4)).value(), 99);
}

TEST(Routing, EraseRemovesEntry) {
  routing_table<int> t;
  t.insert(prefix(ipv4(10, 0, 0, 0), 8), 1);
  EXPECT_TRUE(t.erase(prefix(ipv4(10, 0, 0, 0), 8)));
  EXPECT_FALSE(t.lookup(ipv4(10, 1, 1, 1)).has_value());
  EXPECT_FALSE(t.erase(prefix(ipv4(10, 0, 0, 0), 8)));
}

TEST(Routing, InsertReplaces) {
  routing_table<int> t;
  t.insert(prefix(ipv4(10, 0, 0, 0), 8), 1);
  t.insert(prefix(ipv4(10, 0, 0, 0), 8), 2);
  EXPECT_EQ(t.lookup(ipv4(10, 1, 1, 1)).value(), 2);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Routing, TrieMatchesLinearReferenceFuzz) {
  phot::rng g(77);
  routing_table<std::uint32_t> trie;
  linear_routing_ref<std::uint32_t> ref;
  // Random inserts and erases.
  for (int i = 0; i < 400; ++i) {
    const int len = static_cast<int>(g.below(33));
    const std::uint32_t mask =
        len == 0 ? 0U : ~std::uint32_t{0} << (32 - len);
    const prefix p(ipv4(static_cast<std::uint32_t>(g()) & mask), len);
    if (g.uniform() < 0.8) {
      const auto v = static_cast<std::uint32_t>(g.below(1000));
      trie.insert(p, v);
      ref.insert(p, v);
    } else {
      EXPECT_EQ(trie.erase(p), ref.erase(p));
    }
  }
  // Random lookups must agree exactly.
  for (int i = 0; i < 2000; ++i) {
    const ipv4 addr(static_cast<std::uint32_t>(g()));
    EXPECT_EQ(trie.lookup(addr), ref.lookup(addr));
  }
}

// --------------------------------------------------------------- event sim

TEST(EventSim, ExecutesInTimeOrder) {
  simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(EventSim, SimultaneousEventsFifo) {
  simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventSim, HandlersCanSchedule) {
  simulator sim;
  int count = 0;
  std::function<void()> reschedule = [&] {
    if (++count < 5) sim.schedule(1.0, reschedule);
  };
  sim.schedule(0.0, reschedule);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(EventSim, RunUntilStopsAtBoundary) {
  simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventSim, NegativeDelayClamped) {
  simulator sim;
  sim.schedule(1.0, [&] {
    sim.schedule(-5.0, [] {});  // must not go back in time
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(EventSim, RunUntilClearsStaleOverrun) {
  // Regression: a capped run() used to leave overran_ set forever; a
  // subsequent run_until() that drained the queue still reported a
  // phantom overrun.
  simulator sim;
  for (int i = 0; i < 4; ++i) sim.schedule(1.0 * i, [] {});
  sim.run(2);
  EXPECT_TRUE(sim.overran());
  sim.run_until(10.0);
  EXPECT_TRUE(sim.empty());
  EXPECT_FALSE(sim.overran());
}

TEST(EventSim, RunUntilHonorsEventCap) {
  simulator sim;
  int fired = 0;
  for (int i = 0; i < 6; ++i) sim.schedule(0.1 * i, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(5.0, 3), 3u);
  EXPECT_TRUE(sim.overran());
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.run_until(5.0), 3u);
  EXPECT_FALSE(sim.overran());
  EXPECT_EQ(fired, 6);
}

TEST(EventSim, RunUntilNoOverrunWhenRemainingWorkIsLater) {
  // Events beyond the time boundary don't count as overrun work.
  simulator sim;
  sim.schedule(1.0, [] {});
  sim.schedule(9.0, [] {});
  sim.run_until(2.0, 1);
  EXPECT_FALSE(sim.overran());
  EXPECT_EQ(sim.pending(), 1u);
}

namespace {
/// Records typed packet-event dispatches for the EventSim tests.
struct recording_sink final : packet_event_sink {
  std::vector<std::pair<std::uint8_t, std::uint32_t>> seen;
  std::vector<std::uint64_t> ids;
  void on_packet_event(std::uint8_t op, packet&& pkt,
                       std::uint32_t node) override {
    seen.emplace_back(op, node);
    ids.push_back(pkt.id);
  }
};
}  // namespace

TEST(EventSim, TypedAndCallbackEventsShareOneOrder) {
  simulator sim;
  recording_sink sink;
  std::vector<int> order;
  packet a;
  a.id = 1;
  sim.schedule(1.0, [&] { order.push_back(10); });
  sim.schedule_packet(1.0, std::move(a), 7, 2, &sink);
  sim.schedule(1.0, [&] { order.push_back(11); });
  packet b;
  b.id = 2;
  sim.schedule_packet_at(0.5, std::move(b), 3, 9, &sink);
  sim.run();
  // t=0.5: packet b; t=1.0 FIFO: callback 10, packet a, callback 11.
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(sink.seen[0], (std::pair<std::uint8_t, std::uint32_t>{9, 3u}));
  EXPECT_EQ(sink.seen[1], (std::pair<std::uint8_t, std::uint32_t>{2, 7u}));
  EXPECT_EQ(sink.ids, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(order, (std::vector<int>{10, 11}));
}

TEST(EventSim, RecordSlotsAreRecycled) {
  // A ping-pong of typed events must not grow the record slab: the slot
  // released at dispatch is reused for the hop scheduled from inside it.
  simulator sim;
  struct chain_sink final : packet_event_sink {
    simulator* sim = nullptr;
    int hops = 0;
    void on_packet_event(std::uint8_t op, packet&& pkt,
                         std::uint32_t node) override {
      if (++hops < 1000) {
        sim->schedule_packet(1e-6, std::move(pkt), node + 1, op, this);
      }
    }
  } sink;
  sink.sim = &sim;
  packet pkt;
  pkt.payload.assign(64, 0x5a);
  sim.schedule_packet(0.0, std::move(pkt), 0, 0, &sink);
  sim.run();
  EXPECT_EQ(sink.hops, 1000);
}

// ------------------------------------------------------------ payload pool

TEST(PayloadPool, RecyclesAllocations) {
  payload_pool pool;
  std::vector<std::uint8_t> buf;
  buf.assign(512, 0xab);
  const std::uint8_t* data = buf.data();
  pool.recycle(std::move(buf));
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::uint8_t> reused = pool.acquire();
  EXPECT_TRUE(reused.empty());           // cleared before reuse
  EXPECT_GE(reused.capacity(), 512u);    // same allocation
  EXPECT_EQ(reused.data(), data);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.acquire().empty());   // empty pool: fresh buffer
}

TEST(PayloadPool, IgnoresEmptyAndRespectsCap) {
  payload_pool pool;
  pool.set_max_buffers(2);
  pool.recycle(std::vector<std::uint8_t>{});  // capacity 0: ignored
  EXPECT_EQ(pool.size(), 0u);
  for (int i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> buf;
    buf.assign(16, 0);
    pool.recycle(std::move(buf));
  }
  EXPECT_EQ(pool.size(), 2u);
}

// ---------------------------------------------------------------- topology

TEST(Topology, Figure1Shape) {
  const topology t = make_figure1_topology();
  EXPECT_EQ(t.node_count(), 4u);
  EXPECT_EQ(t.links().size(), 5u);
  EXPECT_EQ(t.node_at(0).name, "A");
  EXPECT_EQ(t.node_at(3).name, "D");
}

TEST(Topology, ShortestPathPrefersLowDelay) {
  const topology t = make_figure1_topology();
  // A -> D: direct link is 1200 km; A-B-D is 850 km; A-C-D is 850 km.
  const auto path = t.shortest_path(0, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 3u);
}

TEST(Topology, PathDelayMatchesSum) {
  const topology t = make_linear_topology(4, 100.0);
  const auto path = t.shortest_path(0, 3);
  EXPECT_NEAR(t.path_delay_s(path), 3.0 * phot::fiber_delay_s(100.0), 1e-12);
}

TEST(Topology, UnreachableReturnsEmpty) {
  topology t;
  t.add_node("x");
  t.add_node("y");
  EXPECT_TRUE(t.shortest_path(0, 1).empty());
}

TEST(Topology, NodeForAddress) {
  const topology t = make_linear_topology(3);
  const auto n = t.node_for_address(t.node_at(1).address);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 1u);
  EXPECT_FALSE(t.node_for_address(ipv4(192, 0, 2, 1)).has_value());
}

TEST(Topology, RejectsBadLinks) {
  topology t;
  const node_id a = t.add_node("a");
  EXPECT_THROW(t.add_link(a, a, 10.0), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, 99, 10.0), std::invalid_argument);
}

TEST(Topology, UswanIsConnected) {
  const topology t = make_uswan_topology();
  EXPECT_EQ(t.node_count(), 12u);
  for (node_id v = 1; v < t.node_count(); ++v) {
    EXPECT_FALSE(t.shortest_path(0, v).empty()) << "node " << v;
  }
}

TEST(Topology, FatTreeCounts) {
  const topology t = make_fattree_topology(4);
  // k=4: 4 core + 4 pods x (2 agg + 2 edge) = 20 switches.
  EXPECT_EQ(t.node_count(), 20u);
  // Links: per pod 2x2 agg-edge + 2x2 agg-core = 8 -> 32 total.
  EXPECT_EQ(t.links().size(), 32u);
  EXPECT_THROW(make_fattree_topology(3), std::invalid_argument);
}

// ------------------------------------------------------------------ fabric

TEST(Fabric, DeliversAlongShortestPath) {
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(4, 100.0));
  fabric.install_shortest_path_routes();
  bool delivered = false;
  double at_time = 0.0;
  fabric.set_deliver_callback(
      [&](const packet&, node_id at, double t) {
        delivered = true;
        at_time = t;
        EXPECT_EQ(at, 3u);
      });
  packet pkt;
  pkt.src = fabric.topo().node_at(0).address;
  pkt.dst = fabric.topo().node_at(3).address;
  pkt.payload.resize(100);
  fabric.send(pkt, 0);
  engine.run();
  EXPECT_TRUE(delivered);
  // 3 hops of 100 km each, plus serialization.
  EXPECT_GT(at_time, 3.0 * phot::fiber_delay_s(100.0));
  EXPECT_LT(at_time, 3.0 * phot::fiber_delay_s(100.0) + 1e-3);
  EXPECT_EQ(fabric.delivered(), 1u);
}

TEST(Fabric, TtlExpiryDrops) {
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(5, 10.0));
  fabric.install_shortest_path_routes();
  packet pkt;
  pkt.src = fabric.topo().node_at(0).address;
  pkt.dst = fabric.topo().node_at(4).address;
  pkt.ttl = 2;  // needs 4 hops
  fabric.send(pkt, 0);
  engine.run();
  EXPECT_EQ(fabric.delivered(), 0u);
  EXPECT_EQ(fabric.dropped(), 1u);
}

TEST(Fabric, HookConsume) {
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(3, 10.0));
  fabric.install_shortest_path_routes();
  int seen = 0;
  fabric.set_hook(1, [&](node_id, packet&, double) {
    ++seen;
    return hook_decision{hook_decision::action_type::consume, invalid_node};
  });
  packet pkt;
  pkt.dst = fabric.topo().node_at(2).address;
  fabric.send(pkt, 0);
  engine.run();
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(fabric.delivered(), 0u);
}

TEST(Fabric, HookRedirect) {
  shard_engine engine;
  // Triangle: 0-1, 1-2, 0-2. Send 0->2 but redirect at 0 via 1.
  topology topo;
  const node_id n0 = topo.add_node("a");
  const node_id n1 = topo.add_node("b");
  const node_id n2 = topo.add_node("c");
  topo.add_link(n0, n1, 10.0);
  topo.add_link(n1, n2, 10.0);
  topo.add_link(n0, n2, 10.0);
  wan_fabric fabric(engine, topo);
  fabric.install_shortest_path_routes();
  std::vector<node_id> visits;
  fabric.set_hook(n1, [&](node_id at, packet&, double) {
    visits.push_back(at);
    return hook_decision{};
  });
  fabric.set_hook(n0, [&](node_id, packet& pkt, double) {
    if (pkt.ttl == 64) {  // only redirect on first visit
      return hook_decision{hook_decision::action_type::redirect, n1};
    }
    return hook_decision{};
  });
  packet pkt;
  pkt.dst = fabric.topo().node_at(n2).address;
  fabric.send(pkt, n0);
  engine.run();
  EXPECT_EQ(visits.size(), 1u);
  EXPECT_EQ(fabric.delivered(), 1u);
}

TEST(Fabric, SerializationQueueing) {
  shard_engine engine;
  topology topo = make_linear_topology(2, 1.0);
  wan_fabric fabric(engine, topo);
  fabric.install_shortest_path_routes();
  std::vector<double> arrivals;
  fabric.set_deliver_callback(
      [&](const packet&, node_id, double t) { arrivals.push_back(t); });
  // Two back-to-back 1250-byte packets on a 100 Gb/s link: the second
  // is delayed by one serialization time (~0.1 us... 1270B*8/100e9).
  for (int i = 0; i < 2; ++i) {
    packet pkt;
    pkt.dst = fabric.topo().node_at(1).address;
    pkt.payload.resize(1250);
    fabric.send(pkt, 0);
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const double serialize = 1270.0 * 8.0 / 100e9;
  EXPECT_NEAR(arrivals[1] - arrivals[0], serialize, 1e-12);
}

TEST(Fabric, LinkBytesAccounted) {
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(3, 10.0));
  fabric.install_shortest_path_routes();
  packet pkt;
  pkt.dst = fabric.topo().node_at(2).address;
  pkt.payload.resize(80);
  fabric.send(pkt, 0);
  engine.run();
  EXPECT_DOUBLE_EQ(fabric.link_bytes()[0], 100.0);  // 20B header + 80B
  EXPECT_DOUBLE_EQ(fabric.link_bytes()[1], 100.0);
}

TEST(Fabric, DropStatsPerReason) {
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(5, 10.0));
  fabric.install_shortest_path_routes();
  const auto send_to_end = [&](std::uint8_t ttl) {
    packet pkt;
    pkt.src = fabric.topo().node_at(0).address;
    pkt.dst = fabric.topo().node_at(4).address;
    pkt.ttl = ttl;
    fabric.send(pkt, 0);
    engine.run();
  };

  send_to_end(2);  // needs 4 hops
  EXPECT_EQ(fabric.drops().ttl_expired, 1u);

  packet stray;
  stray.dst = ipv4(192, 168, 0, 1);  // no attached prefix anywhere
  fabric.send(stray, 0);
  engine.run();
  EXPECT_EQ(fabric.drops().no_route, 1u);

  fabric.set_hook(1, [&](node_id, packet&, double) {
    return hook_decision{hook_decision::action_type::drop, invalid_node};
  });
  send_to_end(64);
  EXPECT_EQ(fabric.drops().hook_drop, 1u);

  fabric.set_hook(1, [&](node_id, packet&, double) {
    return hook_decision{hook_decision::action_type::redirect, invalid_node};
  });
  send_to_end(64);
  EXPECT_EQ(fabric.drops().bad_redirect, 1u);

  fabric.set_hook(1, wan_fabric::hook_fn{});  // clear the hook
  fabric.fail_link(1);  // routes still point at it: black hole
  send_to_end(64);
  EXPECT_EQ(fabric.drops().link_down, 1u);

  EXPECT_EQ(fabric.drops().total(), 5u);
  EXPECT_EQ(fabric.dropped(), 5u);  // aggregate stays the sum
  EXPECT_EQ(fabric.delivered(), 0u);
}

TEST(Fabric, HighBerFlipCountClampedToPayloadBits) {
  // Seed 7's stream for (link 0, dir 0, seq 0) opens with a
  // poisson(0.9 * 8) draw of 12 — more flips than a 1-byte payload has
  // bits. The clamp caps it at 8; the packet still traverses and the
  // corruption counter advances exactly once.
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(2, 10.0));
  fabric.install_shortest_path_routes();
  fabric.set_bit_error_rate(0.9, 7);
  std::vector<std::uint8_t> delivered_payload;
  fabric.set_deliver_callback([&](const packet& pkt, node_id, double) {
    delivered_payload = pkt.payload;
  });
  packet pkt;
  pkt.dst = fabric.topo().node_at(1).address;
  pkt.payload.assign(1, 0x00);
  fabric.send(pkt, 0);
  engine.run();
  EXPECT_EQ(fabric.corrupted(), 1u);
  ASSERT_EQ(delivered_payload.size(), 1u);
  // Replay the counter stream for this traversal: node 0 -> 1 is the
  // first transmit on link 0 direction 0. The fabric must apply the
  // clamped flip count.
  phot::counter_rng replay{phot::counter_rng::key_of(7, 0, 0, 0)};
  std::uint64_t flips = replay.poisson(0.9 * 8.0);
  ASSERT_GT(flips, 8u);
  flips = 8;
  std::uint8_t expect = 0x00;
  for (std::uint64_t i = 0; i < flips; ++i) {
    expect ^= static_cast<std::uint8_t>(1U << (replay.below(8) % 8));
  }
  EXPECT_EQ(delivered_payload[0], expect);
}

TEST(Fabric, BitErrorCountsNetCorruptionOnly) {
  // Positions are drawn with replacement, so a bit flipped an even
  // number of times cancels out and the payload arrives intact. The
  // corruption counter must track packets whose payload actually
  // changed, not packets that merely drew flips (the old behavior).
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(2, 10.0));
  fabric.install_shortest_path_routes();
  constexpr double ber = 0.25;
  constexpr std::uint64_t seed = 5;
  constexpr int packets = 200;
  fabric.set_bit_error_rate(ber, seed);

  std::uint64_t changed = 0;
  fabric.set_deliver_callback([&](const packet& pkt, node_id, double) {
    if (pkt.payload[0] != 0x00) ++changed;
  });
  for (int i = 0; i < packets; ++i) {
    packet pkt;
    pkt.dst = fabric.topo().node_at(1).address;
    pkt.payload.assign(1, 0x00);
    fabric.send(std::move(pkt), 0);
  }
  engine.run();

  // Replay the counter streams: packets traverse the single link in
  // send order, so the i-th packet is transmit seq i on (link 0, dir 0)
  // and draws from the stream keyed by (seed, 0, 0, i).
  std::uint64_t flip_events = 0;
  for (int i = 0; i < packets; ++i) {
    phot::counter_rng replay{phot::counter_rng::key_of(
        seed, 0, 0, static_cast<std::uint64_t>(i))};
    std::uint64_t flips = replay.poisson(ber * 8.0);
    if (flips == 0) continue;
    if (flips > 8) flips = 8;
    ++flip_events;
    for (std::uint64_t f = 0; f < flips; ++f) (void)replay.below(8);
  }
  EXPECT_EQ(fabric.delivered(), static_cast<std::uint64_t>(packets));
  EXPECT_EQ(fabric.corrupted(), changed);
  // The scenario really exercises cancellation — some packets drew
  // flips yet arrived intact (this is what the old counter overcounted).
  EXPECT_LT(changed, flip_events);
  EXPECT_GT(changed, 0u);
}

TEST(Fabric, MidRunReseedIsOrderIndependent) {
  // set_bit_error_rate is an ordinary control-plane event: draws are
  // keyed by per-link-direction transmit sequence, which advances on
  // every traversal whether BER is on or off, so the corruption a
  // packet suffers depends only on the traffic that preceded it on the
  // link — never on when BER was (re)configured.
  const auto run = [](bool late) {
    shard_engine engine;
    wan_fabric fabric(engine, make_linear_topology(2, 10.0));
    fabric.install_shortest_path_routes();
    if (!late) fabric.set_bit_error_rate(0.25, 11);
    std::vector<std::vector<std::uint8_t>> payloads;
    fabric.set_deliver_callback([&](const packet& pkt, node_id, double) {
      payloads.push_back(pkt.payload);
    });
    for (int i = 0; i < 10; ++i) {
      packet pkt;
      pkt.dst = fabric.topo().node_at(1).address;
      pkt.payload.assign(4, 0x00);
      fabric.send(std::move(pkt), 0);
      engine.run();  // drain so traversals happen in send order
      if (late && i == 4) fabric.set_bit_error_rate(0.25, 11);
    }
    return payloads;
  };
  const auto from_start = run(false);
  const auto enabled_late = run(true);
  ASSERT_EQ(from_start.size(), 10u);
  ASSERT_EQ(enabled_late.size(), 10u);
  const std::vector<std::uint8_t> clean(4, 0x00);
  // Packets before the late enable pass through untouched...
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(enabled_late[i], clean);
  // ...and packets after it corrupt exactly as if BER had been on from
  // the start: same link, same transmit sequence, same stream.
  bool any_corrupted = false;
  for (std::size_t i = 5; i < 10; ++i) {
    EXPECT_EQ(enabled_late[i], from_start[i]);
    if (from_start[i] != clean) any_corrupted = true;
  }
  EXPECT_TRUE(any_corrupted);  // the shared suffix really exercises BER
}

TEST(Fabric, RecommendedTtlTracksTopologyDiameter) {
  // Small topologies clamp to the historical default floor of 64; a
  // 128-node chain (hop diameter 127) wants 2*127 + 8 = 262, clamped
  // to the field's ceiling of 255.
  {
    shard_engine engine;
    wan_fabric fabric(engine, make_linear_topology(4, 10.0));
    EXPECT_EQ(fabric.recommended_ttl(), 64u);
  }
  {
    shard_engine engine;
    wan_fabric fabric(engine, make_linear_topology(128, 1.0));
    EXPECT_EQ(fabric.recommended_ttl(), 255u);
  }
}

TEST(Fabric, DefaultTtlDeliversAcrossLongChain) {
  // Regression: a default-constructed packet (ttl = 64) crossing a
  // 128-node chain needs 127 hops. send() must stamp recommended_ttl()
  // instead of letting the fabric silently black-hole it at hop 64.
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(128, 1.0));
  fabric.install_shortest_path_routes();
  node_id delivered_at = invalid_node;
  fabric.set_deliver_callback(
      [&](const packet&, node_id at, double) { delivered_at = at; });
  packet pkt;  // ttl left at the struct default
  pkt.dst = fabric.topo().node_at(127).address;
  fabric.send(pkt, 0);
  engine.run();
  EXPECT_EQ(delivered_at, 127u);
  EXPECT_EQ(fabric.delivered(), 1u);
  EXPECT_EQ(fabric.drops().ttl_expired, 0u);
}

TEST(Fabric, TtlBlackholeWarnsOnStderrOnce) {
  // An explicitly small TTL is honored as-is (only the exact default is
  // restamped). When ttl-expired drops exceed deliveries the fabric
  // warns once — and only once — on stderr.
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(128, 1.0));
  fabric.install_shortest_path_routes();
  const auto send_small_ttl = [&] {
    packet pkt;
    pkt.ttl = 5;
    pkt.dst = fabric.topo().node_at(127).address;
    fabric.send(pkt, 0);
  };
  testing::internal::CaptureStderr();
  send_small_ttl();
  engine.run();
  const std::string first = testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("ttl-expired"), std::string::npos);
  EXPECT_NE(first.find("recommended_ttl"), std::string::npos);
  EXPECT_EQ(fabric.drops().ttl_expired, 1u);

  testing::internal::CaptureStderr();
  send_small_ttl();
  engine.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(fabric.drops().ttl_expired, 2u);
}

TEST(Fabric, DestHintRevalidatedWhenHookRewritesDst) {
  // A hook rewriting dst mid-path invalidates the flat-cache hint; the
  // packet must fall back to the trie and deliver at the new target.
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(4, 10.0));
  fabric.install_shortest_path_routes();
  fabric.set_hook(1, [&](node_id, packet& pkt, double) {
    pkt.dst = fabric.topo().node_at(2).address;  // was node 3
    return hook_decision{};
  });
  node_id delivered_at = invalid_node;
  fabric.set_deliver_callback(
      [&](const packet&, node_id at, double) { delivered_at = at; });
  packet pkt;
  pkt.dst = fabric.topo().node_at(3).address;
  fabric.send(pkt, 0);
  engine.run();
  EXPECT_EQ(delivered_at, 2u);
  EXPECT_EQ(fabric.delivered(), 1u);
  EXPECT_EQ(fabric.dropped(), 0u);
}

TEST(Fabric, FlatCacheFollowsReconvergence) {
  // Triangle: after the direct link fails AND routes reconverge, the
  // flat caches must steer around it (no stale fast-path entries).
  shard_engine engine;
  topology topo;
  const node_id n0 = topo.add_node("a");
  const node_id n1 = topo.add_node("b");
  const node_id n2 = topo.add_node("c");
  topo.add_link(n0, n2, 10.0);  // direct, preferred
  topo.add_link(n0, n1, 10.0);
  topo.add_link(n1, n2, 10.0);
  wan_fabric fabric(engine, topo);
  fabric.install_shortest_path_routes();
  EXPECT_EQ(fabric.next_hop(n0, topo.node_at(n2).address).value(), n2);
  fabric.fail_link(0);
  fabric.install_shortest_path_routes();
  EXPECT_EQ(fabric.next_hop(n0, topo.node_at(n2).address).value(), n1);
  packet pkt;
  pkt.dst = fabric.topo().node_at(n2).address;
  fabric.send(pkt, n0);
  engine.run();
  EXPECT_EQ(fabric.delivered(), 1u);
  EXPECT_EQ(fabric.dropped(), 0u);
}

TEST(Fabric, DeliveredPayloadBuffersReturnToPool) {
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(3, 10.0));
  fabric.install_shortest_path_routes();
  for (int i = 0; i < 4; ++i) {
    packet pkt;
    pkt.dst = fabric.topo().node_at(2).address;
    pkt.payload = fabric.pool().acquire();
    pkt.payload.assign(128, static_cast<std::uint8_t>(i));
    fabric.send(std::move(pkt), 0);
    engine.run();
  }
  EXPECT_EQ(fabric.delivered(), 4u);
  // After the first delivery every send reuses the recycled buffer.
  EXPECT_EQ(fabric.pool().size(), 1u);
}

// ----------------------------------------------------------------- traffic

TEST(Traffic, DeterministicPerSeed) {
  traffic_config cfg;
  traffic_generator g1(cfg, ipv4(10, 0, 0, 1), ipv4(10, 1, 0, 1), 5);
  traffic_generator g2(cfg, ipv4(10, 0, 0, 1), ipv4(10, 1, 0, 1), 5);
  const auto a = g1.generate_count(50);
  const auto b = g2.generate_count(50);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].pkt.payload, b[i].pkt.payload);
  }
}

TEST(Traffic, RateApproximatelyRespected) {
  traffic_config cfg;
  cfg.packet_rate_pps = 1e4;
  traffic_generator g(cfg, ipv4(1, 0, 0, 1), ipv4(2, 0, 0, 1), 7);
  const auto arrivals = g.generate(1.0);
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 1e4, 400.0);
}

TEST(Traffic, PayloadBoundsRespected) {
  traffic_config cfg;
  cfg.min_payload_bytes = 100;
  cfg.max_payload_bytes = 200;
  traffic_generator g(cfg, ipv4(1, 0, 0, 1), ipv4(2, 0, 0, 1), 9);
  for (const auto& a : g.generate_count(200)) {
    EXPECT_GE(a.pkt.payload.size(), 100u);
    EXPECT_LE(a.pkt.payload.size(), 200u);
  }
}

TEST(Traffic, RejectsBadConfig) {
  traffic_config cfg;
  cfg.packet_rate_pps = 0.0;
  EXPECT_THROW(traffic_generator(cfg, ipv4(1, 0, 0, 1), ipv4(2, 0, 0, 1), 1),
               std::invalid_argument);
}

TEST(Traffic, PlantSignatureBounds) {
  std::vector<std::uint8_t> payload(16, 0);
  const std::vector<std::uint8_t> sig{1, 2, 3, 4};
  plant_signature(payload, sig, 12);
  EXPECT_EQ(payload[12], 1);
  EXPECT_EQ(payload[15], 4);
  EXPECT_THROW(plant_signature(payload, sig, 13), std::invalid_argument);
}

// ------------------------------------------------------------------- stats

TEST(Stats, SummaryPercentiles) {
  summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Stats, SummaryEmpty) {
  const summary s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(Stats, PercentileRangeChecked) {
  summary s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1.0), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(101.0), std::invalid_argument);
}

TEST(Stats, JainFairness) {
  EXPECT_DOUBLE_EQ(jain_fairness({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({1.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 1.0);
}

TEST(Stats, SummaryKeepsInsertionOrder) {
  // samples() is documented to return insertion order; the order
  // statistics used to sort the internal vector in place as a side
  // effect, silently reordering what samples() exposed.
  summary s;
  const std::vector<double> inserted{5.0, 1.0, 4.0, 2.0, 3.0};
  for (const double v : inserted) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_EQ(s.samples(), inserted);
  // Interleaved adds keep both views consistent.
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_EQ(s.samples().back(), 0.5);
}

TEST(Stats, SummaryStddev) {
  summary s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  // Sample stddev of this classic set is ~2.138.
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  summary one;
  one.add(1.0);
  EXPECT_DOUBLE_EQ(one.stddev(), 0.0);
}

TEST(Traffic, EmptyHorizonYieldsNothing) {
  traffic_config cfg;
  cfg.packet_rate_pps = 1.0;  // ~1 packet/s
  traffic_generator g(cfg, ipv4(1, 0, 0, 1), ipv4(2, 0, 0, 1), 3);
  EXPECT_TRUE(g.generate(1e-9).empty());
}

TEST(Fabric, SendInvalidIngressThrows) {
  shard_engine engine;
  wan_fabric fabric(engine, make_linear_topology(2, 10.0));
  packet pkt;
  EXPECT_THROW(fabric.send(pkt, 7), std::out_of_range);
}

TEST(Stats, FlowHashStable) {
  const auto h1 = flow_hash_of(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8), 80, 443, 6);
  const auto h2 = flow_hash_of(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8), 80, 443, 6);
  EXPECT_EQ(h1, h2);
  const auto h3 = flow_hash_of(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8), 81, 443, 6);
  EXPECT_NE(h1, h3);
}

}  // namespace
}  // namespace onfiber::net
