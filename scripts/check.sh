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
# instrumentation that perturbs a single timestamp fails here.
ONFIBER_TRACE=1 ctest --preset asan --no-tests=error \
  -R 'DatapathDeterminism|Obs' -j"$(nproc)"

# Sharded-reliability asan gate: the reliability layer's per-shard task
# tables, cross-shard ack handoff, and failover planning re-run with an
# extra ONFIBER_SHARDS=4 sweep entry under Address/UB sanitizers.
ONFIBER_SHARDS=4 ctest --preset asan --no-tests=error \
  -R 'Reliability|Sharded'

# Traffic-plane asan gate: the open-loop workload golden traces and the
# admission-control overload pins re-run with an extra ONFIBER_SHARDS=4
# sweep entry under Address/UB sanitizers — the bounded site queues and
# the per-shard arrival streams are exactly where an off-by-one in the
# depth accounting or a cross-shard write would hide.
ONFIBER_SHARDS=4 ctest --preset asan --no-tests=error \
  -R 'Traffic|Admission'

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
for simd_level in scalar native; do
  if [ "$simd_level" = native ]; then
    unset ONFIBER_SIMD
  else
    export ONFIBER_SIMD="$simd_level"
  fi
  ctest --preset asan --no-tests=error \
    -R 'SimdDispatch|Kernels|Determinism|CounterNormal|CounterStream' \
    -j"$(nproc)"
done
unset ONFIBER_SIMD

# Thread-sanitizer pass over the worker-pool surface: the persistent
# pool, batched GEMM/engine paths, and the two-pass kernels run under
# -fsanitize=thread to catch data races the deterministic fold could
# mask. Scoped to the concurrency-relevant suites to keep it fast.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan --no-tests=error \
  -R 'PoolDeterminism|TwoPassKernels|BatchedEngine|Batching|Parallel'

# Sharded-engine tsan gate: the determinism and reliability suites
# re-run with an extra ONFIBER_SHARDS=4 sweep entry, and the fabric
# bench drives the sharded sweep end to end (shrunk packet budget —
# full-size sweeps under tsan take minutes). Any cross-shard race in
# the window barrier, the SPSC channels, the per-shard reliability
# tables, or the lock-free tracer fails here.
ONFIBER_SHARDS=4 ctest --preset tsan --no-tests=error -R 'Sharded|Reliability'

# Routing-plane tsan gate: the golden shard-sweep and reconvergence
# tests re-run at ONFIBER_SHARDS=4 under -fsanitize=thread. Shard
# threads read the SPF trees (failover planning) while the control
# plane is the only writer — any tree mutation leaking into the
# datapath window is a race and fails here.
ONFIBER_SHARDS=4 ctest --preset tsan --no-tests=error -R 'Spf|Routing'
ONFIBER_SHARDS=4 ONFIBER_FABRIC_PACKETS=2000 ONFIBER_TRACE=1 \
  ./build-tsan/bench/bench_ext_fabric --json /tmp/bench_fabric_tsan.json \
  > /dev/null
rm -f /tmp/bench_fabric_tsan.json
