#!/usr/bin/env python3
"""End-to-end benchmark of the on-fiber computing simulator.

Builds the benchmark binary (perfbench.cpp, against the library in ../src)
into .bench_build/perfbench, runs one workload for a fixed wall-clock
budget and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With --trace 1 they are the per-layer metrics:
the budget is split between an untraced and a traced (ONFIBER_TRACE=1)
run of the same seed, whose simulated results must be identical.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig1_infer --seed 1 --seconds 20 --trace 0

The exit code is 0 only when every result agreed with its digital
reference closely enough and every accounting identity held; a build
failure exits non-zero without printing a result.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "onfiber_perfbench")

WORKLOADS = ("fig1_infer", "ids_overload", "flap_recover")

# Roughly the host-speed probe's time on the 4-core Xeon this benchmark
# was tuned on, when that host is quiet. Host times are reported in
# seconds of that host.
PROBE_REFERENCE_S = 0.0055

# name -> unit. Host-time metrics are medians over the run's repetitions;
# simulated-time metrics are identical in every repetition.
END_TO_END = {
    "setup_s": "s",
    "sim_s_per_host_s": "sim_s/s",
    "peak_rss_mb": "MiB",
    "goodput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "served_frac": "frac",
    "slo_attain": "frac",
    "accuracy": "frac",
}

PER_LAYER = {
    "photonics.kernel_calls": "count",
    "photonics.kernel_us_per_call": "us",
    "photonics.pool_dispatches": "count",
    "photonics.rows_per_dispatch": "rows",
    "photonics.pool_overhead_frac": "frac",
    "photonics.j_per_result": "J",
    "core.engine_calls": "count",
    "core.engine_host_us_per_call": "us",
    "core.replay_us_per_request": "us",
    "core.admitted": "count",
    "core.deferred": "count",
    "core.dropped": "count",
    "core.admit_frac": "frac",
    "core.max_queue_depth": "count",
    "core.site_busy_frac": "frac",
    "core.redirected": "count",
    "core.rel_completed_frac": "frac",
    "core.retransmits": "count",
    "core.failovers": "count",
    "core.duplicates": "count",
    "core.useful_tx_frac": "frac",
    "core.latency_samples": "count",
    "network.hops": "count",
    "network.delivered": "count",
    "network.drops.ttl_expired": "count",
    "network.drops.link_down": "count",
    "network.drops.no_route": "count",
    "network.drops.hook_drop": "count",
    "network.drops.bad_redirect": "count",
    "network.self_host_s": "s",
    "network.host_ns_per_hop": "ns",
    "network.events": "count",
    "network.windows": "count",
    "network.parcels": "count",
    "network.producer_stalls": "count",
    "network.flows": "count",
    "network.packets": "count",
    "network.thinning_rejects": "count",
    "network.factory_host_s": "s",
    "network.reconvergences": "count",
    "network.routes_touched": "count",
    "network.reconverge_host_s": "s",
    "setup.model_s": "s",
    "setup.runtime_s": "s",
    "setup.deploy_s": "s",
    "setup.routes_s": "s",
    "setup.workload_s": "s",
    "setup.samples": "count",
    "bench.observer_host_s": "s",
    "bench.reps": "count",
    "bench.traced_reps": "count",
    "bench.host_speed": "x",
    "obs.trace_overhead_frac": "frac",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; stderr carries the log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "--build", BUILD, "--target", "onfiber_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def drive(workload, seed, seconds, traced, min_reps=3):
    """Run the benchmark binary; returns (reps, env)."""
    env = dict(os.environ)
    env["ONFIBER_TRACE"] = "1" if traced else "0"
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--min-reps", str(min_reps)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=float(seconds) + 150.0)
    if proc.returncode != 0:
        log(proc.stderr)
        raise RuntimeError(f"onfiber_perfbench exited with {proc.returncode}")
    reps, stamp = [], None
    for line in proc.stdout.splitlines():
        obj = json.loads(line)
        if "rep" in obj:
            reps.append(obj)
        elif "env" in obj:
            stamp = obj["env"]
    if not reps or stamp is None:
        raise RuntimeError("onfiber_perfbench printed no repetitions")
    return reps, stamp


def host_median(reps, key):
    return statistics.median(r["host"][key] for r in reps)


def host_time(reps, key):
    """A host time in reference-host seconds.

    Each repetition also times a fixed probe (perfbench.cpp, host_probe_s).
    A repetition's time for `key` over its probe time cancels the shared
    host's slow phases in part. Other load on the host only ever adds
    time, so the fastest quartile of these ratios is taken.
    PROBE_REFERENCE_S turns the ratio back into seconds.
    """
    ratios = [r["host"][key] / r["host"]["probe_s"] for r in reps]
    fastest_quartile = statistics.quantiles(ratios, n=4, method="inclusive")[0]
    return fastest_quartile * PROBE_REFERENCE_S


def violations_of(reps, label):
    """Violations the binary reported plus repetition determinism."""
    out = [f"{label}: {v}" for r in reps for v in r["violations"]]
    if any(r["sim"] != reps[0]["sim"] for r in reps):
        out.append(f"{label}: simulated results differ between repetitions")
    if any(r["obs"] != reps[0]["obs"] for r in reps):
        out.append(f"{label}: obs counts differ between repetitions")
    return out


def end_to_end(reps):
    sim = reps[0]["sim"]
    values = {
        "setup_s": host_time(reps, "setup_s"),
        "sim_s_per_host_s": sim["horizon_s"] / host_time(reps, "run_s"),
        "peak_rss_mb": max(r["host"]["peak_rss_mb"] for r in reps),
    }
    for key in ("goodput_rps", "latency_p50_s", "latency_p99_s",
                "served_frac", "slo_attain", "accuracy"):
        values[key] = sim[key]
    return values


def per_layer(plain, traced):
    sim, obs = traced[0]["sim"], traced[0]["obs"]
    values = {k: sim[k] for k in PER_LAYER if k in sim}
    values.update({k: obs[k] for k in PER_LAYER if k in obs})
    for key in ("photonics.kernel_us_per_call", "core.replay_us_per_request",
                "network.self_host_s", "network.factory_host_s",
                "network.reconverge_host_s", "bench.observer_host_s"):
        values[key] = host_time(traced, key)
    for key in ("photonics.pool_overhead_frac", "network.producer_stalls"):
        values[key] = host_median(traced, key)
    for key in ("setup.model_s", "setup.runtime_s", "setup.deploy_s",
                "setup.routes_s", "setup.workload_s"):
        values[key] = host_time(plain, key)
    values["setup.samples"] = host_median(plain, "setup.samples")
    calls = obs["core.engine_calls"]
    values["core.engine_host_us_per_call"] = (
        host_time(traced, "core.engine_host_s") / calls * 1e6
        if calls else 0.0)
    hops = obs["network.hops"]
    values["network.host_ns_per_hop"] = (
        values["network.self_host_s"] / hops * 1e9 if hops else 0.0)
    values["core.latency_samples"] = sim["latency_samples"]
    values["bench.reps"] = len(plain)
    values["bench.traced_reps"] = len(traced)
    values["bench.host_speed"] = (
        PROBE_REFERENCE_S / host_median(plain, "probe_s"))
    values["obs.trace_overhead_frac"] = (
        host_time(traced, "run_s") / host_time(plain, "run_s") - 1.0)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2

    if args.trace:
        plain, stamp = drive(args.workload, args.seed, args.seconds / 2, False)
        traced, _ = drive(args.workload, args.seed, args.seconds / 2, True)
        problems = violations_of(plain, "untraced") + violations_of(
            traced, "traced")
        if plain[0]["sim"] != traced[0]["sim"]:
            problems.append("tracing changed the simulated results")
        runs = plain + traced
        values, units = per_layer(plain, traced), PER_LAYER
    else:
        plain, stamp = drive(args.workload, args.seed, args.seconds, False)
        problems = violations_of(plain, "untraced")
        runs = plain
        values, units = end_to_end(plain), END_TO_END

    sim = plain[0]["sim"]
    stamp = dict(stamp, kernel_threads=sim["env.kernel_threads"],
                 pool_threads=sim["env.pool_threads"], shards=sim["env.shards"])
    print(json.dumps({"env": stamp}))
    for p in problems:
        log("perfbench: VIOLATION", p)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
