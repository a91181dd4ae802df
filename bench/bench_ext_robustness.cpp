// E26 — end-to-end robustness: inference service quality vs residual
// link bit-error rate, and task survival across link flaps.
//
// Part 1 connects the physical layer to the application: post-FEC bit
// errors corrupt compute packets in flight; header corruption is caught
// by the checksum (packet dropped, §3 protocol — always classified
// bad_checksum), payload corruption flows into the analog computation.
// Measures delivery rate, detected-drop rate and end accuracy across BER.
//
// Part 2 exercises the reliability layer (§5 WAN realities): a scripted
// link-flap schedule with a routing-reconvergence window on the Fig. 1
// topology. The seed data path loses every task in flight across the
// outage; the ack/retry/failover path recovers them — retransmits ride
// exponential backoff, and repeated timeouts trigger controller-driven
// failover to the alternate compute site. Counters land in
// BENCH_robustness.json via --json.
//
// Part 3 repeats the reliable flap run on the sharded parallel engine
// at 1/2/4 shards: completion, retransmit, and failover counts must not
// move with the shard count (robustness.shards*.{...} keys — the
// baseline script presence-checks them).
#include <cstdio>

#include "apps/ml_inference.hpp"
#include "bench_util.hpp"
#include "core/compute_packets.hpp"
#include "core/runtime.hpp"
#include "digital/dnn.hpp"
#include "network/shard_engine.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

constexpr int kPackets = 120;

/// Submit `kPackets` DNN requests A -> D, one per millisecond, reliably
/// or via the plain (seed) path. Returns (with_result, correct).
struct flap_outcome {
  int with_result = 0;
  int correct = 0;
};

flap_outcome run_flap_scenario(bool reliable,
                               const digital::dataset& data,
                               const digital::dnn_model& model,
                               core::onfiber_runtime::reliability_stats* out,
                               net::drop_stats* baseline_drops) {
  net::shard_engine engine;
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 11).configure_dnn(apps::to_photonic_task(model));
  rt.deploy_engine(2, {}, 12).configure_dnn(apps::to_photonic_task(model));
  rt.install_compute_routes_via_nearest_site();

  // Both links of the primary compute site (B) flap mid-run; plain
  // routes reconverge 5 ms after each event, compute routes never do —
  // recovery is entirely on the reliability layer.
  const net::wan_fabric::link_flap flaps[] = {
      {0, 0.020, 0.060},  // A-B
      {2, 0.030, 0.070},  // B-D
  };
  rt.fabric().schedule_flaps(flaps, 0.005, /*jitter_seed=*/13,
                             /*reconvergence_jitter_s=*/0.001);

  if (reliable) {
    core::onfiber_runtime::reliability_config cfg;
    cfg.initial_rto_s = 0.020;
    cfg.backoff = 2.0;
    cfg.max_retries = 6;
    cfg.failover_after = 2;
    rt.enable_reliability(cfg);
  }

  for (int i = 0; i < kPackets; ++i) {
    engine.schedule_global(1e-3 * i, [&rt, &data, &model, i, reliable] {
      net::packet pkt = core::make_dnn_request(
          rt.fabric().topo().node_at(0).address,
          rt.fabric().topo().node_at(3).address,
          data.samples[static_cast<std::size_t>(i) % data.samples.size()],
          model.output_dim(), static_cast<std::uint32_t>(i));
      if (reliable) {
        rt.submit_reliable(std::move(pkt), 0);
      } else {
        rt.submit(std::move(pkt), 0);
      }
    });
  }
  engine.run(2'000'000);
  if (engine.overran()) note("WARNING: event cap hit (runaway schedule?)");

  flap_outcome o;
  std::vector<bool> seen(kPackets, false);
  for (const auto& d : rt.deliveries()) {
    const auto h = proto::peek_compute_header(d.pkt);
    const auto r = core::read_dnn_result(d.pkt);
    if (!h || !r || h->task_id >= kPackets) continue;
    if (seen[h->task_id]) continue;  // retransmit duplicates
    seen[h->task_id] = true;
    ++o.with_result;
    const std::size_t idx = h->task_id % data.samples.size();
    if (r->predicted_class == data.labels[idx]) ++o.correct;
  }
  if (out) *out = rt.reliability();
  if (baseline_drops) *baseline_drops = rt.fabric().drops();
  return o;
}

/// Part 3: the same reliable flap scenario on the sharded parallel
/// engine. Submissions enter through schedule_global (the control-plane
/// clock); tasks are owned by the submitting node's shard and acks ride
/// the cross-shard parcel channels.
core::onfiber_runtime::reliability_stats run_flap_reliable_sharded(
    std::size_t shards, const digital::dataset& data,
    const digital::dnn_model& model) {
  net::shard_engine engine(shards);
  core::onfiber_runtime rt(engine, net::make_figure1_topology());
  rt.deploy_engine(1, {}, 11).configure_dnn(apps::to_photonic_task(model));
  rt.deploy_engine(2, {}, 12).configure_dnn(apps::to_photonic_task(model));
  rt.install_compute_routes_via_nearest_site();

  const net::wan_fabric::link_flap flaps[] = {
      {0, 0.020, 0.060},  // A-B
      {2, 0.030, 0.070},  // B-D
  };
  rt.fabric().schedule_flaps(flaps, 0.005, /*jitter_seed=*/13,
                             /*reconvergence_jitter_s=*/0.001);

  core::onfiber_runtime::reliability_config cfg;
  cfg.initial_rto_s = 0.020;
  cfg.backoff = 2.0;
  cfg.max_retries = 6;
  cfg.failover_after = 2;
  rt.enable_reliability(cfg);

  for (int i = 0; i < kPackets; ++i) {
    engine.schedule_global(1e-3 * i, [&rt, &data, &model, i] {
      rt.submit_reliable(
          core::make_dnn_request(
              rt.fabric().topo().node_at(0).address,
              rt.fabric().topo().node_at(3).address,
              data.samples[static_cast<std::size_t>(i) %
                           data.samples.size()],
              model.output_dim(), static_cast<std::uint32_t>(i)),
          0);
    });
  }
  engine.run(2'000'000);
  if (engine.overran()) note("WARNING: event cap hit (runaway schedule?)");
  return rt.reliability();
}

}  // namespace

int main(int argc, char** argv) {
  banner("E26 / robustness", "inference quality vs BER; flap recovery");
  json_report report(json_path_from_args(argc, argv).empty()
                         ? "BENCH_robustness.json"
                         : json_path_from_args(argc, argv));
  record_simd_levels(report);

  const auto data = digital::make_synthetic_dataset(16, 4, 30, 0.08, 7);
  const auto model =
      digital::train_mlp(data, {12}, 40, 0.08, 11,
                         digital::activation_kind::photonic_sin2, 2.0);

  note("120 inference packets A -> D (Fig. 1 WAN, DNN at site C)");
  std::printf("  %12s %12s %14s %14s %12s\n", "BER", "delivered",
              "header drops", "right class", "accuracy");
  for (const double ber : {0.0, 1e-6, 1e-5, 1e-4, 1e-3}) {
    net::shard_engine engine;
    core::onfiber_runtime rt(engine, net::make_figure1_topology());
    rt.deploy_engine(2, {}, 11).configure_dnn(apps::to_photonic_task(model));
    rt.install_compute_routes_via_nearest_site();
    if (ber > 0.0) rt.fabric().set_bit_error_rate(ber, 99);

    for (int i = 0; i < kPackets; ++i) {
      rt.submit(core::make_dnn_request(
                    rt.fabric().topo().node_at(0).address,
                    rt.fabric().topo().node_at(3).address,
                    data.samples[static_cast<std::size_t>(i) %
                                 data.samples.size()],
                    model.output_dim(), static_cast<std::uint32_t>(i)),
                0);
    }
    engine.run();

    int correct = 0, with_result = 0;
    for (const auto& d : rt.deliveries()) {
      const auto h = proto::peek_compute_header(d.pkt);
      const auto r = core::read_dnn_result(d.pkt);
      if (!h || !r) continue;
      ++with_result;
      const std::size_t idx = h->task_id % data.samples.size();
      if (r->predicted_class == data.labels[idx]) ++correct;
    }
    std::printf("  %12.0e %12zu %14llu %14d %11.1f%%\n", ber,
                rt.deliveries().size(),
                static_cast<unsigned long long>(
                    rt.stats().malformed_dropped),
                correct,
                with_result > 0 ? 100.0 * correct / with_result : 0.0);
    if (ber == 1e-4) {
      report.set("ber_1e4_delivered",
                 static_cast<double>(rt.deliveries().size()));
      report.set("ber_1e4_header_drops",
                 static_cast<double>(rt.stats().malformed_dropped));
      report.set("ber_1e4_accuracy_pct",
                 with_result > 0 ? 100.0 * correct / with_result : 0.0);
    }
  }

  note("");
  note("shape: the checksum converts header corruption into clean drops;");
  note("payload corruption degrades accuracy only at BERs far above the");
  note("post-FEC floor of a healthy coherent link (~1e-15)");

  // ---------------------------------------------- part 2: flap recovery
  banner("E26b / reliability",
         "link-flap schedule: seed path vs ack/retry/failover");
  note("both links of compute site B flap (20-70 ms window), plain routes");
  note("reconverge after ~5 ms, compute routes stay stale");

  net::drop_stats baseline_drops;
  const flap_outcome seed_path =
      run_flap_scenario(false, data, model, nullptr, &baseline_drops);
  // The reliable run doubles as the obs plane's showcase: collect every
  // counter and merge them into the report under obs.* keys.
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::registry::global().reset_values();
  obs::tracer::global().clear();
  core::onfiber_runtime::reliability_stats rel{};
  const flap_outcome reliable_path =
      run_flap_scenario(true, data, model, &rel, nullptr);
  obs::set_enabled(obs_was_enabled);

  const double seed_rate = 100.0 * seed_path.with_result / kPackets;
  const double rel_rate =
      100.0 * static_cast<double>(rel.completed) / kPackets;
  std::printf("  %18s %10s %10s %10s %10s %10s\n", "path", "tasks",
              "completed", "rate", "retries", "failovers");
  std::printf("  %18s %10d %10d %9.1f%% %10s %10s\n", "seed (no retry)",
              kPackets, seed_path.with_result, seed_rate, "-", "-");
  std::printf("  %18s %10d %10llu %9.1f%% %10llu %10llu\n",
              "ack/retry/failover", kPackets,
              static_cast<unsigned long long>(rel.completed), rel_rate,
              static_cast<unsigned long long>(rel.retransmits),
              static_cast<unsigned long long>(rel.failovers));
  std::printf("  completion latency: mean %s, max %s\n",
              fmt_time(rel.mean_completion_s()).c_str(),
              fmt_time(rel.max_completion_s).c_str());
  std::printf(
      "  seed-path drops by reason: link_down %llu, no_route %llu, "
      "hook %llu, ttl %llu, bad_redirect %llu (total %llu)\n",
      static_cast<unsigned long long>(baseline_drops.link_down),
      static_cast<unsigned long long>(baseline_drops.no_route),
      static_cast<unsigned long long>(baseline_drops.hook_drop),
      static_cast<unsigned long long>(baseline_drops.ttl_expired),
      static_cast<unsigned long long>(baseline_drops.bad_redirect),
      static_cast<unsigned long long>(baseline_drops.total()));
  note("");
  note("every task in flight across the outage dies on the seed path;");
  note("retransmits with backoff + controller failover to site C recover");
  note("them, and the recovery trace is bit-identical at fixed seed");

  report.set("flap_tasks", kPackets);
  report.set("flap_seed_completed", seed_path.with_result);
  report.set("flap_seed_delivery_rate_pct", seed_rate);
  report.set("flap_seed_dropped", static_cast<double>(baseline_drops.total()));
  report.set("flap_seed_drop_link_down",
             static_cast<double>(baseline_drops.link_down));
  report.set("flap_seed_drop_no_route",
             static_cast<double>(baseline_drops.no_route));
  report.set("flap_seed_drop_hook_drop",
             static_cast<double>(baseline_drops.hook_drop));
  report.set("flap_seed_drop_ttl_expired",
             static_cast<double>(baseline_drops.ttl_expired));
  report.set("flap_seed_drop_bad_redirect",
             static_cast<double>(baseline_drops.bad_redirect));
  report.set("flap_reliable_completed", static_cast<double>(rel.completed));
  report.set("flap_reliable_with_result", reliable_path.with_result);
  report.set("flap_reliable_delivery_rate_pct", rel_rate);
  report.set("flap_reliable_failed", static_cast<double>(rel.failed));
  report.set("flap_retransmits", static_cast<double>(rel.retransmits));
  report.set("flap_failovers", static_cast<double>(rel.failovers));
  report.set("flap_acks_sent", static_cast<double>(rel.acks_sent));
  report.set("flap_duplicate_deliveries",
             static_cast<double>(rel.duplicate_deliveries));
  report.set("flap_mean_completion_ms", rel.mean_completion_s() * 1e3);
  report.set("flap_max_completion_ms", rel.max_completion_s * 1e3);
  obs::exporter::append_flat(
      [&report](const std::string& key, double value) {
        report.set(key, value);
      });

  // -------------------------------------- part 3: sharded reliability
  banner("E26c / sharded reliability",
         "flap recovery on the parallel engine (1/2/4 shards)");
  note("same scenario, per-shard task tables, acks over parcel channels;");
  note("counters must not move with the shard count");
  std::printf("  %8s %10s %10s %10s %10s %14s\n", "shards", "completed",
              "rate", "retries", "failovers", "max latency");
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    const auto s = run_flap_reliable_sharded(shards, data, model);
    std::printf("  %8zu %10llu %9.1f%% %10llu %10llu %14s\n", shards,
                static_cast<unsigned long long>(s.completed),
                100.0 * static_cast<double>(s.completed) / kPackets,
                static_cast<unsigned long long>(s.retransmits),
                static_cast<unsigned long long>(s.failovers),
                fmt_time(s.max_completion_s).c_str());
    const std::string prefix = "robustness.shards" + std::to_string(shards);
    report.set(prefix + ".completed", static_cast<double>(s.completed));
    report.set(prefix + ".failed", static_cast<double>(s.failed));
    report.set(prefix + ".retransmits", static_cast<double>(s.retransmits));
    report.set(prefix + ".failovers", static_cast<double>(s.failovers));
    report.set(prefix + ".max_completion_ms", s.max_completion_s * 1e3);
  }

  if (!report.write()) {
    note("WARNING: could not write the JSON report");
  }

  std::printf("\n");
  return 0;
}
