#!/usr/bin/env python3
"""The repository benchmark: simulator speed and simulated outcomes.

Builds the perfbench binary from this checkout's sources (into
.bench_build/perfbench), runs one workload for a host-time budget, checks
its outputs, and prints every metric by name, unit and kind. The last line
of stdout is the result object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload rb-avalanche --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, measured untraced. --trace 1
reports the per-layer metrics from the layer-isolating loops and traced
batches, and writes the spans of the last traced batch next to the build.
See perfbench/README.md for the workloads and what each metric predicts.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Metrics that measure the simulator on this host; every other metric is a
# simulated output of the model, identical for a given seed on every host.
HOST_METRICS = {
    "sim_ops_per_s", "setup_s", "peak_rss_mb",
    "sim.switch_ns_t8", "sim.switch_ns_t64", "sim.gap_share",
    "tsx.load_ns_fresh", "tsx.load_ns_repeat",
    "locks.self_ns_per_op", "locks.wasted_share",
    "ds.lookup_ns", "ds.update_ns",
    "service.request_ns", "service.traffic_ns",
    "harness.build_s", "harness.start_s", "harness.loop_share",
    "trace.speed_ratio",
}
# Simulated outputs compared exactly against reference.json. Context-switch
# counts are left out: a schedule optimisation may change them without
# changing any simulated result.
REFERENCE_FIELDS = (
    "ops", "spec_ops", "nonspec_ops", "attempts", "elapsed_cycles",
    "tx_begins", "tx_commits", "tx_aborts", "abort_conflict",
    "abort_capacity", "abort_pause", "abort_spurious", "abort_explicit",
    "abort_other", "latency_samples", "latency_p50", "latency_p99",
    "latency_p999", "final_size", "final_checksum", "queue_p999",
    "service_p999", "hot_shard_share",
)

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; False if either fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(left, 1))
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return False
        if proc.returncode != 0:
            log(f"perfbench: build step exited {proc.returncode}: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def reference_errors(raw):
    """Exact comparison of the simulated outputs, for the reference seeds."""
    try:
        with open(REFERENCE) as f:
            ref = json.load(f)
    except (OSError, ValueError) as e:
        return [f"cannot read reference: {e}"]
    want = ref.get(raw["workload"], {}).get(str(raw["seed"]))
    if want is None:
        return []
    got = raw["outputs"]
    return [f"output {k} = {got.get(k)} differs from reference {want[k]}"
            for k in REFERENCE_FIELDS if got.get(k) != want[k]]


def report(raw, names, errors, failed):
    host = raw["host"]
    out = raw["outputs"]
    print(f"workload {raw['workload']} seed {raw['seed']} trace {raw['trace']}: "
          f"{raw['batches']} untraced + {raw['traced_batches']} traced batches")
    print(f"host: cpu_model={raw['cpu_model']!r} nproc={host['nproc']:.0f} "
          f"calibration_mops={host['calibration_mops']:.1f}")
    print(f"per batch: {out['ops']:.0f} ops in {out['elapsed_cycles']:.0f} "
          f"simulated cycles; latency over {out['latency_samples']:.0f} samples")
    for name, unit in names.items():
        kind = "host" if name in HOST_METRICS else "simulated"
        print(f"  {name:30s} {raw['metrics'][name]:>16.6g} {unit:12s} {kind}")
    if raw["trace"]:
        print("traced host time by bucket (share of run_workload wall time):")
        for name, share in raw["bucket_shares"].items():
            print(f"  {name:30s} {share:8.4f}")
    failed_frac = failed / raw["attempted"] if raw["attempted"] else 1.0
    print(f"output checks: {'ok' if not errors else 'FAILED'} "
          f"(failed_frac {failed_frac:g})")
    for e in errors:
        print(f"  error: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 2
    spans = os.path.join(BUILD, f"spans-{args.workload}.tsv")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: binary did not finish: {e}")
        return 2
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: binary exited {proc.returncode} without a result")
        return 2

    with open(SPEC) as f:
        spec = json.load(f)
    names = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    ref_errors = reference_errors(raw)
    errors = raw["errors"] + ref_errors
    if not args.trace and any(raw["metrics"][n] <= 0 for n in names):
        errors.append("an end-to-end metric is not positive")
    # A reference mismatch fails every op of the run (all batches agree).
    failed = raw["attempted"] if ref_errors else raw["failed"]
    if errors and failed == 0:
        failed = raw["attempted"]
    report(raw, names, errors, failed)
    correct = not errors and proc.returncode == 0
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(failed),
        "metrics": {n: {"value": raw["metrics"][n], "unit": unit}
                    for n, unit in names.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
