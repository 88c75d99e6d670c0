#!/usr/bin/env python3
"""FL benchmark: time-to-accuracy, round latency and bytes per round.

Builds perfbench/fl_bench from the checkout's sources (CMake, Release, into
.bench_build/perfbench), runs one workload for about --seconds, checks the
outputs, and prints the metrics. The last stdout line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The line before it is a detail record: the host/build manifest, the tail
percentile and its sample count, and every value behind the medians.

  python3 perfbench/run.py --workload vision-resnet --seed 1 --seconds 30 --trace 0
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("vision-resnet", "crowd-secure", "text-async")
TAIL_PERCENTILE = 90  # of one training run's timed rounds
MIB = 1024.0 * 1024.0
PHASES = ("dispatch", "train", "screen", "aggregate", "eval", "checkpoint")

E2E_UNITS = {
    "setup_s": "s",
    "rounds_to_target": "rounds",
    "time_to_target_s": "s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "final_accuracy": "fraction",
    "peak_rss_mib": "MiB",
    "wire_mib_per_round": "MiB",
    "upload_ok_frac": "fraction",
}

LAYER_UNITS = {
    "tensor.gemm_gflops": "GFLOP/s",
    "tensor.grouped_speedup": "x",
    "nn.train_layers_ms": "ms",
    "nn.train_plan_ms": "ms",
    "nn.plan_over_layers": "x",
    "nn.plan_compile_ms": "ms",
    **{"fl.phase.%s_ms" % p: "ms" for p in PHASES},
    "fl.cpu_util": "fraction",
    "fl.eval_ms": "ms",
    "fl.checkpoint_save_ms": "ms",
    "fl.checkpoint_load_ms": "ms",
    "fl.checkpoint_bytes": "bytes",
    "fl.population.materialize_us": "us",
    "fl.uploads.accepted": "count",
    "fl.uploads.dropped": "count",
    "fl.uploads.timed_out": "count",
    "fl.uploads.retried": "count",
    "fl.uploads.failed_frac": "fraction",
    "core.cross_aggregate_ms": "ms",
    "comm.encode_upload_us": "us",
    "comm.decode_upload_us": "us",
    "comm.compression_ratio": "x",
    "privacy.sanitize_us": "us",
    "privacy.masked_sum_ms": "ms",
    "obs.trace_overhead_frac": "fraction",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds fl_bench; returns its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "fl_bench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=1200)
    return os.path.join(BUILD_DIR, "fl_bench")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_rev():
    """git HEAD, or "unknown" outside a repository (the manifest's
    binary_sha256 still identifies the build)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def rounds_to_target(accuracy, target):
    """First 1-based round whose accuracy reaches the target, or None."""
    return next((i + 1 for i, a in enumerate(accuracy) if a >= target), None)


def read_events(path):
    events = []
    if os.path.exists(path):
        with open(path) as f:
            events = [json.loads(line) for line in f if line.strip()]
    return events


def check_digests(record, binary_sha):
    """The final model of a (workload, run seed) pair must be identical in
    every run of one build: digests persist per build binary. Returns one
    (description, passed) pair per training run."""
    checks = []
    path = os.path.join(BUILD_DIR, "digests.json")
    try:
        with open(path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    if store.get("binary") != binary_sha:
        store = {"binary": binary_sha, "digests": {}}
    for run in record["runs"]:
        key = "%s/%d" % (record["workload"], run["run_seed"])
        seen = store["digests"].setdefault(key, run["digest"])
        checks.append(("final digest of %s matches earlier runs" % key,
                       seen == run["digest"]))
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(store, f)
    os.replace(tmp, path)
    return checks


def e2e_metrics(record):
    """The end-to-end metrics of one benchmark record (plus detail)."""
    runs = [r for r in record["runs"] if not r["traced"]]
    rounds = record["rounds"]
    # The host is shared: another tenant's burst slows the training runs it
    # overlaps and never speeds one up, while a slower program slows every
    # run. So the round-time statistics are taken per training run and the
    # least-disturbed run's value is reported. (Pooled over all runs, the
    # crowd-secure p90 read 81 ms on a quiet 4-vCPU KVM guest and 100-106 ms
    # with a memory-streaming neighbour on half of the time; the per-run
    # minimum read 77-82 ms.)
    p50_per_run = [statistics.median(r["round_ms"]) for r in runs]
    tail_per_run = [percentile(r["round_ms"], TAIL_PERCENTILE) for r in runs]
    p50 = min(p50_per_run)
    # Convergence, accuracy and traffic come from the first `stat_runs`
    # training runs, which every run completes, so they are a function of
    # the seed and the code and not of how many runs the host had time for.
    # One training run's convergence depends strongly on its run seed; the
    # mean over the training runs far less. A run that never reaches the
    # target counts as rounds + 1.
    fixed = runs[:record["stat_runs"]]
    reached = [rounds_to_target(r["accuracy"], record["target"]) or rounds + 1
               for r in fixed]
    rtt = statistics.fmean(reached)
    setups = [r["setup_s"] for r in record["runs"]]
    setups += [t["setup_s"] for t in record["setup_trials"]]
    dispatches = sum(r["dispatches"] for r in fixed)
    failed = sum(r["dropouts"] + r["timeouts"] + r["rejected"] for r in fixed)
    metrics = {
        "setup_s": statistics.median(setups),
        "rounds_to_target": rtt,
        "time_to_target_s": rtt * p50 / 1000.0,
        "round_ms_p50": p50,
        "round_ms_tail": min(tail_per_run),
        "final_accuracy": statistics.median(r["final_accuracy"] for r in fixed),
        "peak_rss_mib": record["peak_rss_bytes"] / MIB,
        "wire_mib_per_round": statistics.median(
            r["wire_bytes"] / rounds / MIB for r in fixed),
        "upload_ok_frac": 1.0 - failed / dispatches,
    }
    detail = {
        "round_samples_per_run": rounds - 1,
        "tail_percentile": TAIL_PERCENTILE,
        "round_ms_p50_per_run": p50_per_run,
        "round_ms_tail_per_run": tail_per_run,
        "training_runs": len(runs),
        "stat_runs": len(fixed),
        "rounds_to_target_per_run": reached,
        "final_accuracy_per_run": [r["final_accuracy"] for r in fixed],
        "setup_samples": len(setups),
        "failed_frac": failed / dispatches,
    }
    return metrics, detail


def layer_metrics(record, events):
    """The per-layer metrics of one traced benchmark record."""
    runs = record["runs"]
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    metrics = dict(record["probes"])
    steady = [e for e in events if e["round"] > 1]
    for phase in PHASES:
        metrics["fl.phase.%s_ms" % phase] = statistics.median(
            e[phase + "_ms"] for e in steady)
    # Checkpoints are saved by fl_bench, not by the round loop, so the
    # round events carry none: the phase is the median save of the traced
    # runs, over the rounds that save.
    saves = [ms for r in traced for ms in r["checkpoint_ms"]]
    if saves:
        metrics["fl.phase.checkpoint_ms"] = statistics.median(saves)
    wall = sum(r["loop_wall_s"] for r in untraced)
    cpu = sum(r["loop_cpu_s"] for r in untraced)
    metrics["fl.cpu_util"] = cpu / (wall * record["fl_threads"])
    run = untraced[0]
    failed = run["dropouts"] + run["timeouts"] + run["rejected"]
    metrics["fl.uploads.accepted"] = run["dispatches"] - failed - run["inflight"]
    metrics["fl.uploads.dropped"] = run["dropouts"] + run["rejected"]
    metrics["fl.uploads.timed_out"] = run["timeouts"]
    metrics["fl.uploads.retried"] = run["retries"]
    metrics["fl.uploads.failed_frac"] = failed / run["dispatches"]
    traced_p50 = statistics.median(ms for r in traced for ms in r["round_ms"])
    untraced_p50 = statistics.median(ms for r in untraced for ms in r["round_ms"])
    metrics["obs.trace_overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    return metrics


def write_chrome_trace(record, events, path):
    """Benchmark spans plus the last traced run's phase events, folded in as
    children of that run's round spans, as Chrome trace-event JSON."""
    trace = [{"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": 1}
             for name, ts, dur in record["spans"]]
    round_spans = [s for s in record["spans"] if s[0] == "round"]
    steady = [e for e in events if e["round"] > 1]
    for (_, ts, _), event in zip(round_spans[-len(steady):], steady):
        for phase in PHASES:
            dur = event[phase + "_ms"] * 1000.0
            if dur > 0:
                trace.append({"name": "phase." + phase, "ph": "X", "ts": ts,
                              "dur": dur, "pid": 1, "tid": 2,
                              "args": {"round": event["round"]}})
                ts += dur
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, f)


def evaluate(record, binary_sha, trace, events):
    """Metrics, detail and correctness checks for one record. Checks are
    (description, passed) pairs; `binary_sha` None skips the persisted
    digest comparison."""
    checks = check_digests(record, binary_sha) if binary_sha else []
    first = record["runs"][0]["round1_digest"]
    checks += [("set-up trial replays run 0's first round",
                t["round1_digest"] == first) for t in record["setup_trials"]]
    checks += [("plan cohort bitwise equal to layers cohort",
                record["plan_equals_layers"]),
               ("masked sum unmasks exactly", record["masked_sum_exact"]),
               ("checkpoint reload restores the model", record["resume_exact"])]
    e2e, detail = e2e_metrics(record)
    checks += [("median final accuracy %.3f >= floor %.3f"
                % (e2e["final_accuracy"], record["floor"]),
                e2e["final_accuracy"] >= record["floor"]),
               ("median run reaches target %.3f" % record["target"],
                statistics.median(detail["rounds_to_target_per_run"])
                <= record["rounds"])]
    if trace:
        values, units = layer_metrics(record, events), LAYER_UNITS
    else:
        values, units = e2e, E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    detail["e2e"] = e2e
    detail["failed_checks"] = [name for name, ok in checks if not ok]
    return metrics, detail, checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as error:
        log("build failed: %s" % error)
        return 2
    work_dir = os.path.join(BUILD_DIR, "work", args.workload)
    os.makedirs(work_dir, exist_ok=True)
    events_path = os.path.join(work_dir, "events.jsonl")
    if os.path.exists(events_path):
        os.remove(events_path)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work_dir", work_dir],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
        env=dict(os.environ, TMPDIR=work_dir))  # state-store spill files
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log("fl_bench exited with %d" % proc.returncode)
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    events = read_events(events_path)
    binary_sha = file_sha256(binary)
    metrics, detail, checks = evaluate(record, binary_sha, args.trace == 1,
                                       events)
    if args.trace:
        write_chrome_trace(record, events, os.path.join(
            BUILD_DIR, "traces", "%s-seed%d.json" % (args.workload, args.seed)))

    detail["manifest"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "simd_tier": record["simd_tier"],
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "source_rev": source_rev(),
        "binary_sha256": binary_sha,
        "fl_threads": record["fl_threads"],
    }
    detail["workload"] = args.workload
    detail["seed"] = args.seed
    failed = detail["failed_checks"]
    for name in failed:
        log("check failed: " + name)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
