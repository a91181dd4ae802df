#!/usr/bin/env bash
# One-command correctness gate: build the asan preset (Debug +
# Address/UB sanitizers) and run the full test suite under it. Any
# memory error, UB trap, or test failure fails the script. Use before
# sending a change; CI can call this directly.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j"$(nproc)"

# Doc-count gate: every "<N> tests" in README.md must equal the number
# of tests ctest registers, so the stated count cannot drift.
registered=$(ctest --preset asan -N | tail -1 | grep -oE '[0-9]+$')
stated=$(grep -oE '\b[0-9]+ tests\b' README.md | awk '{print $1}' | sort -u)
if [ -z "$stated" ] || [ "$stated" != "$registered" ]; then
  echo "check: README states $(echo $stated) tests;" \
    "ctest registers $registered" >&2
  exit 1
fi

# Datapath gate first: the golden-trace determinism and per-reason drop
# tests guard the zero-allocation event engine's bit-reproducibility —
# fail fast (with full output) before the broad sweep.
ctest --preset asan --no-tests=error -R 'DatapathDeterminism|DatapathDropStats|EventSim|PayloadPool'

ctest --preset asan -j"$(nproc)"

# Observability gate: rerun the determinism and obs suites with the
# tracing plane forced on. Golden traces must stay bit-identical —
# instrumentation that perturbs a single timestamp fails here. The
# shard engine's window timers only run while tracing, so the sharded
# goldens (traces and window schedule) rerun here too.
ONFIBER_TRACE=1 ctest --preset asan --no-tests=error \
  -R 'DatapathDeterminism|ShardedDeterminism|Obs' -j"$(nproc)"

# Sharded-reliability asan gate: the reliability layer's per-shard task
# tables, cross-shard ack handoff, and failover planning re-run with an
# extra ONFIBER_SHARDS=4 sweep entry under Address/UB sanitizers.
ONFIBER_SHARDS=4 ctest --preset asan --no-tests=error \
  -R 'Reliability|Sharded'

# Traffic-plane asan gate: the open-loop workload golden traces and the
# admission-control overload pins re-run with an extra ONFIBER_SHARDS=4
# sweep entry under Address/UB sanitizers — the bounded site queues and
# the per-shard arrival streams are exactly where an off-by-one in the
# depth accounting or a cross-shard write would hide. Every compute
# packet is served through the site queue's flush, so the batching
# suite runs here too.
ONFIBER_SHARDS=4 ctest --preset asan --no-tests=error \
  -R 'Traffic|Admission|Batching'

# Routing-plane asan gate: the incremental-SPF engine's delta passes
# (subtree clearing, boundary reseeding, equality-tight restore fronts)
# and the fabric's patch-based reconvergence re-run explicitly under
# Address/UB sanitizers — pointer-chained child lists and epoch-stamped
# scratch are exactly the structures asan is for.
ctest --preset asan --no-tests=error -R 'Spf|Routing'

# SIMD dispatch gate: the sample-plane kernel, determinism, and RNG
# suites re-run under asan with the dispatch pinned to scalar and then
# to the host's best tier (the default run above already exercised the
# env-resolved level). The scalar pass walks the pure-scalar TU; the
# second pass walks the widest per-ISA TU the machine has, so the
# vector kernels themselves run under Address/UB sanitizers. Outputs
# are bit-identical across tiers by contract (test_simd_dispatch pins
# exact double equality), so both passes must see identical results.
# The P2 matcher runs on the dispatched counter fills and blocked sums,
# so its reference and golden tests run at both tiers too, as do the
# single-dot and GEMM oracles (every P1 caller runs on the engine's one
# driver, whose readout fills and moment sums are dispatched:
# successive unsigned and signed single dots, both GEMM modes and the
# unsigned row, each bit for bit against the shared per-pass oracle's
# per-readout mode, and the readouts' moments and distribution against
# its per-symbol mode) and the
# grid-snap rounding pins. The on-fiber launch, which runs on powers
# through the dispatched RIN and modulator passes, is pinned against the
# field launch it replaced. The cross-row fill, the batched readout
# sums, the readout moment sums and the readout currents are pinned
# against their per-row and per-readout forms at every tier, and the
# pool-dispatch test runs
# GEMMs on both sides of the break-even size.
for simd_level in scalar native; do
  if [ "$simd_level" = native ]; then
    unset ONFIBER_SIMD
  else
    export ONFIBER_SIMD="$simd_level"
  fi
  ctest --preset asan --no-tests=error \
    -R 'SimdDispatch|Kernels|Determinism|CounterNormal|CounterStream|EngineGolden|GemmMatchesPerPassReference|IntensityLaunchMatchesFieldLaunch|PatternMatch|DotProductUnit|GridSnap|RowFillMatchesPerRowFill|BatchedReadoutSumsMatchPerReadoutSums|MomentSumsMatchPerReadoutSums|ReadoutMomentsMatchPerSymbolOracle|ReadoutDistributionMatchesPerSymbolOracle|PoolDispatch' \
    -j"$(nproc)"
done
unset ONFIBER_SIMD

# Thread-sanitizer pass over the worker-pool surface: the persistent
# pool, batched GEMM/engine paths, and the two-pass kernels run under
# -fsanitize=thread to catch data races the deterministic fold could
# mask. Scoped to the concurrency-relevant suites to keep it fast. The
# GEMM's rows fill their streams and sum their readout moments on pool
# workers into shared per-call engine buffers at ONFIBER_THREADS>1, so
# the engine golden (1 and 3 threads), the GEMM oracle of both modes
# and of the unsigned row (3 threads) and the readouts' statistical
# oracles run here too. Only a GEMM above
# the pool's break-even size runs on the workers, as row ranges written
# into those shared buffers; the pool-dispatch test and the pool
# determinism sweeps run such GEMMs at 3 threads and assert that they
# dispatch, and the cross-row fill and batched readout sums those
# ranges call, and the moment sums, run here with them.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan --no-tests=error \
  -R 'PoolDeterminism|TwoPassKernels|BatchedEngine|Batching|Parallel|EngineGolden|GemmMatchesPerPassReference|PoolDispatch|RowFillMatchesPerRowFill|BatchedReadoutSumsMatchPerReadoutSums|MomentSumsMatchPerReadoutSums|ReadoutMomentsMatchPerSymbolOracle|ReadoutDistributionMatchesPerSymbolOracle'

# Sharded-engine tsan gate: the determinism and reliability suites
# re-run with an extra ONFIBER_SHARDS=4 sweep entry, and the fabric
# bench drives the sharded sweep end to end (shrunk packet budget —
# full-size sweeps under tsan take minutes). Any cross-shard race in
# the window barrier, the SPSC channels, the per-shard reliability
# tables, the lock-free tracer, or the site-queue flush that serves
# every compute packet on its shard's thread fails here. The admission
# suite's bounded site queues and defer path run on shard threads at
# more than one shard, so it runs here too. The datapath goldens run
# here as well: packets carry their compute-header memo inside parcels
# from one shard thread to another.
ONFIBER_SHARDS=4 ctest --preset tsan --no-tests=error \
  -R 'Sharded|Reliability|Batching|Admission|DatapathDeterminism'

# Routing-plane tsan gate: the golden shard-sweep and reconvergence
# tests re-run at ONFIBER_SHARDS=4 under -fsanitize=thread. Shard
# threads read the SPF trees (failover planning) and the fabric's flat
# routes (flow-spread steering) while the control plane is the only
# writer — any route mutation leaking into the datapath window is a
# race and fails here.
ONFIBER_SHARDS=4 ctest --preset tsan --no-tests=error \
  -R 'Spf|Routing|SpreadSteering|TrafficPlaneDeterminism'
ONFIBER_SHARDS=4 ONFIBER_FABRIC_PACKETS=2000 ONFIBER_TRACE=1 \
  ./build-tsan/bench/bench_ext_fabric --json /tmp/bench_fabric_tsan.json \
  > /dev/null
rm -f /tmp/bench_fabric_tsan.json

# Incremental-SPF bench smoke: the fat-tree run exits 1 when it misses
# its acceptance bars (>=10x over a full rebuild, <10% of routes
# touched per flap), so a delta-pass regression fails here.
./build-tsan/bench/bench_ext_spf --json /tmp/bench_spf_tsan.json > /dev/null
rm -f /tmp/bench_spf_tsan.json

# Reachability gate: every onfiber:: function a src/ library defines, out
# of line or inline in a header, must be reached by a shipped binary
# (bench/, examples/, tools/, perfbench) or be allow-listed with a reason
# in scripts/unused_symbols.allow, so code that only tests call cannot
# pile up unnoticed. Constructors, destructors and operators are out of
# its scope, templates count only as instantiated, and constexpr code
# that only compile time evaluates needs an allow-list entry.
scripts/unused_symbols.sh > /dev/null
