// Tests for the observability plane (src/obs): the metrics registry,
// the packet-lifecycle tracer, the site timeline, the exporter — and the
// load-bearing guarantee that enabling any of it cannot move a single
// bit of the simulation. The golden-parity tests rerun the determinism
// suite's flap + bit-error scenario and the reliability recovery
// scenario with tracing on and off and compare the traces with exact
// double equality.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "core/runtime.hpp"
#include "network/topology.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "protocol/compute_header.hpp"

namespace onfiber {
namespace {

/// Every test in this file mutates the process-wide obs state; the
/// guard restores the enabled flag (the whole suite may run under
/// ONFIBER_TRACE=1) and leaves the rings/metrics zeroed.
struct obs_state_guard {
  bool prev = obs::enabled();
  obs_state_guard() {
    obs::registry::global().reset_values();
    obs::tracer::global().clear();
    obs::timeline::global().clear();
  }
  ~obs_state_guard() {
    obs::set_enabled(prev);
    obs::registry::global().reset_values();
    obs::tracer::global().clear();
    obs::timeline::global().clear();
  }
};

// ------------------------------------------------------------ registry

TEST(ObsRegistry, HandlesAreStableAcrossReset) {
  obs_state_guard guard;
  obs::registry& reg = obs::registry::global();
  obs::counter& c = reg.get_counter("test.obs.counter");
  obs::gauge& g = reg.get_gauge("test.obs.gauge");
  obs::histogram& h = reg.get_histogram("test.obs.hist");

  c.add();
  c.add(4);
  g.set(2.5);
  h.observe(0.25);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  EXPECT_EQ(h.count(), 1u);

  reg.reset_values();
  // Same objects, zeroed values: cached raw pointers stay valid.
  EXPECT_EQ(&reg.get_counter("test.obs.counter"), &c);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsRegistry, HistogramBucketsAndAggregates) {
  obs_state_guard guard;
  obs::histogram h;
  h.observe(1.0);
  h.observe(1.5);   // same power-of-two bucket as 1.0
  h.observe(0.001);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 102.501);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 102.501 / 4.0);
  // The bucket ladder is monotone and covers the observations.
  std::uint64_t total = 0;
  for (int i = 0; i < obs::histogram::kBuckets; ++i) total += h.bucket(i);
  EXPECT_EQ(total, 4u);
  EXPECT_LT(obs::histogram::bucket_upper_bound(3),
            obs::histogram::bucket_upper_bound(4));
}

// ------------------------------------------------------------- tracer

TEST(ObsTracer, RingWrapsAndKeepsNewest) {
  obs::tracer tr;
  constexpr std::size_t cap = obs::tracer::kCapacity;
  for (std::uint32_t i = 0; i < cap + 6; ++i) {
    obs::hop_record r;
    r.trace_id = 1;
    r.node = i;
    r.time_s = static_cast<double>(i);
    tr.record(r);
  }
  EXPECT_EQ(tr.total_recorded(), cap + 6);
  const auto snap = tr.snapshot();
  ASSERT_EQ(snap.size(), cap);
  // Oldest to newest: records 6 .. cap + 5 survive.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].node, 6u + i);
  }
}

// ---------------------------------------------- golden-parity scenario
//
// The determinism suite's Fig. 1 flap + BER scenario, parameterized on
// tracing. The delivery trace, counters and recovery trace must be
// bit-identical either way.

struct trace_entry {
  std::uint32_t task_id;
  net::node_id at;
  double time_s;

  bool operator==(const trace_entry&) const = default;
};

struct scenario_result {
  std::vector<trace_entry> trace;
  std::uint64_t delivered = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t computed = 0;
  std::uint64_t redirected = 0;
  std::uint64_t malformed = 0;
  net::drop_stats drops;
};

scenario_result run_flap_ber_scenario(bool tracing) {
  obs::set_enabled(tracing);
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  core::gemv_task task;
  task.weights = phot::matrix(4, 16);
  for (std::size_t i = 0; i < task.weights.data.size(); ++i) {
    task.weights.data[i] = 0.05 + 0.01 * static_cast<double>(i % 7);
  }
  rt.deploy_engine(1, {}, 21).configure_gemv(task);
  rt.deploy_engine(2, {}, 22).configure_gemv(task);
  rt.install_compute_routes_via_nearest_site();

  const net::wan_fabric::link_flap flaps[] = {
      {0, 0.004, 0.011},
      {2, 0.006, 0.013},
  };
  rt.fabric().schedule_flaps(flaps, 0.002, 17, 0.0005);
  rt.fabric().set_bit_error_rate(1e-4, 99);

  std::vector<double> x(16);
  for (int i = 0; i < 48; ++i) {
    engine.schedule_global(0.0004 * i, [&rt, &x, i]() mutable {
      for (std::size_t k = 0; k < x.size(); ++k) {
        x[k] =
            -1.0 + 2.0 * static_cast<double>((k * 31 + i * 7) % 97) / 96.0;
      }
      rt.submit(core::make_gemv_request(
                    rt.fabric().topo().node_at(0).address,
                    rt.fabric().topo().node_at(3).address, x, 4,
                    static_cast<std::uint32_t>(i)),
                0);
    });
  }
  engine.run(1'000'000);
  EXPECT_FALSE(engine.overran());

  scenario_result r;
  for (const auto& d : rt.deliveries()) {
    const auto h = proto::peek_compute_header(d.pkt);
    r.trace.push_back(trace_entry{h ? h->task_id : ~std::uint32_t{0}, d.at,
                                  d.time_s});
  }
  r.delivered = rt.fabric().delivered();
  r.corrupted = rt.fabric().corrupted();
  r.computed = rt.stats().computed;
  r.redirected = rt.stats().redirected;
  r.malformed = rt.stats().malformed_dropped;
  r.drops = rt.fabric().drops();
  return r;
}

TEST(ObsParity, GoldenDeliveryTraceBitIdenticalWithTracingOn) {
  obs_state_guard guard;
  const scenario_result off = run_flap_ber_scenario(false);
  obs::registry::global().reset_values();
  obs::tracer::global().clear();
  const scenario_result on = run_flap_ber_scenario(true);

  ASSERT_EQ(off.trace.size(), on.trace.size());
  for (std::size_t i = 0; i < off.trace.size(); ++i) {
    EXPECT_EQ(off.trace[i].task_id, on.trace[i].task_id) << "entry " << i;
    EXPECT_EQ(off.trace[i].at, on.trace[i].at) << "entry " << i;
    // Exact: tracing may not perturb a single ULP.
    EXPECT_EQ(off.trace[i].time_s, on.trace[i].time_s) << "entry " << i;
  }
  EXPECT_EQ(off.delivered, on.delivered);
  EXPECT_EQ(off.corrupted, on.corrupted);
  EXPECT_EQ(off.computed, on.computed);
  EXPECT_EQ(off.drops.total(), on.drops.total());
}

TEST(ObsParity, CountersMatchLegacyTotalsOnGoldenRun) {
  obs_state_guard guard;
  obs::set_enabled(true);
  obs::registry::global().reset_values();
  obs::tracer::global().clear();
  const scenario_result r = run_flap_ber_scenario(true);

  obs::registry& reg = obs::registry::global();
  EXPECT_EQ(reg.get_counter("fabric.delivered").value(), r.delivered);
  EXPECT_EQ(reg.get_counter("fabric.corrupted").value(), r.corrupted);
  EXPECT_EQ(reg.get_counter("runtime.computed").value(), r.computed);
  EXPECT_EQ(reg.get_counter("runtime.redirected").value(), r.redirected);
  EXPECT_EQ(reg.get_counter("runtime.malformed_dropped").value(),
            r.malformed);
  EXPECT_EQ(reg.get_counter("fabric.drop.link_down").value(),
            r.drops.link_down);
  EXPECT_EQ(reg.get_counter("fabric.drop.no_route").value(),
            r.drops.no_route);
  EXPECT_EQ(reg.get_counter("fabric.drop.hook_drop").value(),
            r.drops.hook_drop);
  EXPECT_EQ(reg.get_counter("fabric.drop.ttl_expired").value() +
                reg.get_counter("fabric.drop.link_down").value() +
                reg.get_counter("fabric.drop.no_route").value() +
                reg.get_counter("fabric.drop.hook_drop").value() +
                reg.get_counter("fabric.drop.bad_redirect").value(),
            r.drops.total());
  // The timeline sampled the compute sites.
  EXPECT_GT(obs::timeline::global().total_recorded(), 0u);
}

TEST(ObsParity, PacketLifeCoversInjectToDeliver) {
  obs_state_guard guard;
  obs::set_enabled(true);
  obs::registry::global().reset_values();
  obs::tracer::global().clear();
  (void)run_flap_ber_scenario(true);

  // Find the first healthy A -> D request: injected at A, computed en
  // route, delivered at D. (Which trace id that is depends on the flap
  // and bit-error schedules, so scan instead of pinning one.)
  std::vector<obs::hop_record> life;
  for (std::uint64_t id = 1; id <= 48; ++id) {
    auto candidate = obs::tracer::global().packet_life(id);
    if (!candidate.empty() &&
        candidate.back().action == obs::hop_action::deliver) {
      life = std::move(candidate);
      break;
    }
  }
  ASSERT_GE(life.size(), 3u);
  EXPECT_EQ(life.front().action, obs::hop_action::inject);
  EXPECT_EQ(life.front().node, 0u);
  EXPECT_EQ(life.back().action, obs::hop_action::deliver);
  EXPECT_EQ(life.back().node, 3u);
  const std::uint64_t id = life.front().trace_id;
  bool computed = false;
  for (const auto& rec : life) {
    if (rec.action == obs::hop_action::compute) computed = true;
    EXPECT_EQ(rec.trace_id, id);
  }
  EXPECT_TRUE(computed);
  // Times are monotone along one packet's life.
  for (std::size_t i = 1; i < life.size(); ++i) {
    EXPECT_LE(life[i - 1].time_s, life[i].time_s);
  }
}

TEST(ObsParity, RecoveryTraceBitIdenticalWithTracingOn) {
  obs_state_guard guard;
  const auto run = [](bool tracing) {
    obs::set_enabled(tracing);
    net::shard_engine engine;
    core::onfiber_runtime rt(engine, net::make_figure1_topology());
    core::gemv_task task;
    task.weights = phot::matrix(1, 4);
    for (double& w : task.weights.data) w = 0.5;
    rt.deploy_engine(1, {}, 71).configure_gemv(task);
    rt.deploy_engine(2, {}, 72).configure_gemv(task);
    rt.install_compute_routes_via_nearest_site();

    const net::wan_fabric::link_flap flaps[] = {
        {0, 0.000, 0.050},
        {2, 0.010, 0.060},
    };
    rt.fabric().schedule_flaps(flaps, 0.004, 5, 0.002);

    core::onfiber_runtime::reliability_config cfg;
    cfg.initial_rto_s = 0.020;
    cfg.backoff = 2.0;
    cfg.failover_after = 2;
    rt.enable_reliability(cfg);
    const std::vector<double> x(4, 0.5);
    for (std::uint32_t id = 0; id < 12; ++id) {
      rt.submit_reliable(
          core::make_gemv_request(rt.fabric().topo().node_at(0).address,
                                  rt.fabric().topo().node_at(3).address, x,
                                  1, id),
          0);
    }
    engine.run();
    return rt.recovery_trace();
  };

  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.size(), on.size());
  ASSERT_GT(off.size(), 12u);  // submits plus actual recovery activity
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(static_cast<int>(off[i].what), static_cast<int>(on[i].what))
        << "event " << i;
    EXPECT_EQ(off[i].task_id, on[i].task_id) << i;
    EXPECT_EQ(off[i].time_s, on[i].time_s) << i;  // exact
    EXPECT_EQ(off[i].site, on[i].site) << i;
  }
}

// ----------------------------------------------------------- exporter

TEST(ObsExporter, FlatJsonAndCsvAreDeterministic) {
  obs_state_guard guard;
  obs::registry& reg = obs::registry::global();
  reg.get_counter("test.export.b").add(2);
  reg.get_counter("test.export.a").add(1);
  reg.get_histogram("test.export.h").observe(0.5);

  const std::string json = obs::exporter::metrics_json();
  // Sorted by name: a before b before h.
  EXPECT_NE(json.find("\"test.export.a\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.b\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.h.count\": 1"), std::string::npos);
  EXPECT_LT(json.find("test.export.a"), json.find("test.export.b"));

  const std::string csv = obs::exporter::metrics_csv();
  EXPECT_NE(csv.find("test.export.a,metric,1"), std::string::npos);
  EXPECT_EQ(obs::exporter::metrics_json(), json);  // stable across calls

  obs::hop_record r;
  r.trace_id = 7;
  r.node = 2;
  r.time_s = 0.5;
  r.action = obs::hop_action::drop;
  r.reason = obs::drop_reason::link_down;
  obs::tracer::global().record(r);
  const std::string trace = obs::exporter::trace_csv();
  EXPECT_NE(trace.find("trace_id,time_s,node,action,reason,aux"),
            std::string::npos);
  EXPECT_NE(trace.find("drop,link_down"), std::string::npos);
}

TEST(ObsExporter, AppendFlatPrefixesKeys) {
  obs_state_guard guard;
  obs::registry::global().get_counter("test.append.x").add(3);
  std::vector<std::pair<std::string, double>> sunk;
  obs::exporter::append_flat(
      [&](const std::string& k, double v) { sunk.emplace_back(k, v); });
  bool found = false;
  for (const auto& [k, v] : sunk) {
    EXPECT_EQ(k.rfind("obs.", 0), 0u) << k;
    if (k == "obs.test.append.x") {
      found = true;
      EXPECT_DOUBLE_EQ(v, 3.0);
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------ kernel timers

/// Four DNN packets through one process_batch; returns their payloads.
std::vector<std::vector<std::uint8_t>> run_dnn_batch() {
  core::dnn_task task;
  core::photonic_layer hidden;
  hidden.weights = phot::matrix(6, 8);
  core::photonic_layer out;
  out.weights = phot::matrix(3, 6);
  out.activation = false;
  for (std::size_t i = 0; i < hidden.weights.data.size(); ++i) {
    hidden.weights.data[i] = 0.1 * static_cast<double>(i % 11) - 0.5;
  }
  for (std::size_t i = 0; i < out.weights.data.size(); ++i) {
    out.weights.data[i] = 0.5 - 0.1 * static_cast<double>(i % 7);
  }
  task.layers = {std::move(hidden), std::move(out)};
  core::photonic_engine engine({}, 17);
  engine.configure_dnn(std::move(task));

  std::vector<net::packet> pkts;
  for (std::uint32_t t = 0; t < 4; ++t) {
    std::vector<double> x(8);
    for (std::size_t k = 0; k < x.size(); ++k) {
      x[k] = static_cast<double>((k * 5 + t * 3) % 9) / 8.0;
    }
    pkts.push_back(core::make_dnn_request(net::ipv4(10, 0, 0, 2),
                                          net::ipv4(10, 0, 1, 2), x, 3, t));
  }
  std::vector<net::packet*> ptrs;
  for (net::packet& p : pkts) ptrs.push_back(&p);
  EXPECT_EQ(engine.process_batch(ptrs).computed_packets, pkts.size());
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const net::packet& p : pkts) payloads.push_back(p.payload);
  return payloads;
}

TEST(ObsKernelTimers, EngineBatchReachesGemmHistogram) {
  obs_state_guard guard;
  obs::histogram& gemm = obs::registry::global().get_histogram(
      "kernel.gemm_wall_s");
  obs::set_enabled(false);
  const auto off = run_dnn_batch();
  EXPECT_EQ(gemm.count(), 0u);
  obs::set_enabled(true);
  const auto on = run_dnn_batch();
  EXPECT_GT(gemm.count(), 0u);
  EXPECT_EQ(off, on);
}

TEST(ObsEngineTimers, EachEngineCallRecordsOneSample) {
  // A P2 packet in a process_batch() is one engine call: one sample
  // across the process and batch histograms, not one in each.
  obs_state_guard guard;
  obs::set_enabled(true);
  obs::registry& reg = obs::registry::global();
  obs::histogram& proc = reg.get_histogram("engine.process_wall_s");
  obs::histogram& batch = reg.get_histogram("engine.batch_wall_s");
  core::photonic_engine engine({}, 5);
  core::match_task task;
  task.patterns = {std::vector<phot::tbit>(8, phot::tbit::wildcard)};
  task.patterns[0][0] = phot::tbit::zero;
  engine.configure_match(std::move(task));
  const std::uint8_t word[] = {0x5a};
  net::packet a = core::make_match_request(net::ipv4(10, 0, 0, 2),
                                           net::ipv4(10, 0, 1, 2), word);
  net::packet b = a;
  net::packet* one[] = {&a};
  EXPECT_EQ(engine.process_batch(one).computed_packets, 1u);
  EXPECT_EQ(proc.count() + batch.count(), 1u);
  EXPECT_EQ(batch.count(), 1u);
  EXPECT_TRUE(engine.process(b).computed);
  EXPECT_EQ(proc.count(), 1u);
  EXPECT_EQ(batch.count(), 1u);
}

// -------------------------------------------------------- scoped timer

TEST(ObsScopedTimer, RecordsOnlyWhenEnabled) {
  obs_state_guard guard;
  obs::histogram h;
  obs::set_enabled(false);
  { obs::scoped_timer t(h); }
  EXPECT_EQ(h.count(), 0u);
  obs::set_enabled(true);
  { obs::scoped_timer t(h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 0.0);
}

}  // namespace
}  // namespace onfiber
