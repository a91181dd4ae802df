#!/usr/bin/env bash
# Build the release preset and record the benchmark baselines in the repo
# root: kernel performance in BENCH_kernels.json (the fig2a speedup_x key
# is the scalar-vs-fused ratio the roadmap tracks), reliability /
# robustness numbers in BENCH_robustness.json, WAN-datapath
# throughput in BENCH_fabric.json, routing-plane reconvergence in
# BENCH_controller.json, and the open-loop traffic/admission sweep in
# BENCH_traffic.json. Run after perf- or reliability-relevant changes.
set -euo pipefail

cd "$(dirname "$0")/.."
JSON_OUT="${1:-BENCH_kernels.json}"
ROBUSTNESS_OUT="${2:-BENCH_robustness.json}"
FABRIC_OUT="${3:-BENCH_fabric.json}"
CONTROLLER_OUT="${4:-BENCH_controller.json}"
TRAFFIC_OUT="${5:-BENCH_traffic.json}"

cmake --preset release
cmake --build --preset release -j"$(nproc)" --target \
  bench_fig2a_dot_product bench_fig2b_pattern_match bench_fig2c_nonlinear \
  bench_table1_ml_inference \
  bench_fig4_transponder_path bench_ext_robustness bench_ext_fabric \
  bench_ext_spf bench_ext_traffic

./build-release/bench/bench_fig2a_dot_product --json "$JSON_OUT"
./build-release/bench/bench_fig2b_pattern_match --json "$JSON_OUT"
./build-release/bench/bench_fig2c_nonlinear --json "$JSON_OUT"
./build-release/bench/bench_table1_ml_inference --json "$JSON_OUT"
./build-release/bench/bench_fig4_transponder_path --json "$JSON_OUT"
./build-release/bench/bench_ext_robustness --json "$ROBUSTNESS_OUT"
./build-release/bench/bench_ext_fabric --json "$FABRIC_OUT"
./build-release/bench/bench_ext_spf --json "$CONTROLLER_OUT"
./build-release/bench/bench_ext_traffic --json "$TRAFFIC_OUT"

# The batched-datapath keys must be present: their absence means a bench
# binary silently skipped the batched measurement (stale build or a
# regression in the GEMM path), which would otherwise go unnoticed.
for key in fig2a.batch_ns_per_mac table1.batch_inferences_per_s; do
  if ! grep -q "\"$key\"" "$JSON_OUT"; then
    echo "bench_baseline: missing key $key in $JSON_OUT" >&2
    exit 1
  fi
done

# Kernel-performance keys: the headline ns/MAC numbers, the accuracy and
# energy context that keeps them honest (ENOB, J/MAC), the wall-clock
# keys of the fig2b/fig2c primitives, and the SIMD tier the sample plane
# dispatched to. A missing key means a bench silently skipped a section.
for key in fig2a.fused_ns_per_mac fig2a.scalar_ns_per_mac \
           fig2a.optical_gemm_b1_ns_per_mac fig2a.launch_ns_per_symbol \
           fig2a.gemv_rows_per_s fig2a.dac_enob_bits fig2a.adc_enob_bits \
           fig2a.energy_per_mac_j fig2b.ns_per_word \
           fig2c.ns_per_activation kernels.simd_level \
           sys.simd_active_level sys.simd_detected_level; do
  if ! grep -q "\"$key\"" "$JSON_OUT"; then
    echo "bench_baseline: missing key $key in $JSON_OUT" >&2
    exit 1
  fi
done

# The sharded-engine sweep must have produced its per-shard-count keys:
# a missing one means the sweep silently skipped a configuration (or the
# bench predates the sharded engine).
for key in fabric.shards1.packets_per_s fabric.shards2.packets_per_s \
           fabric.shards4.packets_per_s; do
  if ! grep -q "\"$key\"" "$FABRIC_OUT"; then
    echo "bench_baseline: missing key $key in $FABRIC_OUT" >&2
    exit 1
  fi
done

# The sharded-reliability sweep must have recorded its per-shard-count
# completion keys: a missing one means part 3 silently skipped a shard
# count (or the bench predates shard-aware reliability).
for key in robustness.shards1.completed robustness.shards2.completed \
           robustness.shards4.completed; do
  if ! grep -q "\"$key\"" "$ROBUSTNESS_OUT"; then
    echo "bench_baseline: missing key $key in $ROBUSTNESS_OUT" >&2
    exit 1
  fi
done

# The incremental-SPF bench must have recorded the acceptance-bar keys
# (>=1024-node headline plus the per-topology rows): a missing one means
# the flap sweep silently skipped a topology or the headline rollup.
for key in spf.speedup_vs_full spf.routes_touched_frac \
           spf.fattree32.incremental_reconverge_us \
           spf.fattree32.full_rebuild_us \
           spf.fattree32.routes_touched_frac \
           spf.waxman256.incremental_reconverge_us \
           spf.failover_plan_us; do
  if ! grep -q "\"$key\"" "$CONTROLLER_OUT"; then
    echo "bench_baseline: missing key $key in $CONTROLLER_OUT" >&2
    exit 1
  fi
done

# The open-loop traffic sweep must have recorded all three load levels
# (0.5x / 1.0x / 2.0x capacity) plus the headline keys: a missing level
# means the sweep silently skipped a load point, and a missing headline
# means the rollup after the sweep was dropped.
for key in traffic.load50.offered_pps traffic.load50.goodput_pps \
           traffic.load50.p99_completion_s \
           traffic.load100.offered_pps traffic.load100.goodput_pps \
           traffic.load100.p99_completion_s \
           traffic.load200.offered_pps traffic.load200.goodput_pps \
           traffic.load200.p99_completion_s \
           traffic.load200.deferred traffic.load200.max_queue_depth \
           traffic.sustained_pkts_per_s traffic.p99_completion_s \
           traffic.capacity_pps; do
  if ! grep -q "\"$key\"" "$TRAFFIC_OUT"; then
    echo "bench_baseline: missing key $key in $TRAFFIC_OUT" >&2
    exit 1
  fi
done

# The observability plane must have merged its counters into the bench
# reports (obs.* keys from exporter::append_flat). A missing key means a
# bench ran with the obs spot-check phase dropped or the plane silently
# disabled.
if ! grep -q '"obs\.fabric\.delivered"' "$FABRIC_OUT"; then
  echo "bench_baseline: missing obs.fabric.delivered in $FABRIC_OUT" >&2
  exit 1
fi
if ! grep -q '"obs\.reliability\.' "$ROBUSTNESS_OUT"; then
  echo "bench_baseline: missing obs.reliability.* keys in $ROBUSTNESS_OUT" >&2
  exit 1
fi

echo
echo "== $JSON_OUT =="
cat "$JSON_OUT"
echo
echo "== $ROBUSTNESS_OUT =="
cat "$ROBUSTNESS_OUT"
echo
echo "== $FABRIC_OUT =="
cat "$FABRIC_OUT"
echo
echo "== $CONTROLLER_OUT =="
cat "$CONTROLLER_OUT"
echo
echo "== $TRAFFIC_OUT =="
cat "$TRAFFIC_OUT"
