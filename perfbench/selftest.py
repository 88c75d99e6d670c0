#!/usr/bin/env python3
"""Self-test of the FL benchmark.

Offline (default, no build): feeds a synthetic fl_bench record through
run.py's evaluation and checks that every metric BENCHMARK.json names is
emitted once, with its unit, as a finite number, that the result line
serialises and parses with exactly the contract's keys, and that the
correctness checks catch a broken record.

--live additionally builds and runs the real benchmark briefly on every
workload in both trace modes and checks the printed lines the same way.

  python3 perfbench/selftest.py [--live]
"""

import copy
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, specs, where):
    """Problems with one parsed result line against the metric specs."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("%s: keys %s" % (where, sorted(result)))
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append("%s: %s is not a whole number" % (where, key))
    if result.get("attempted", 0) < 1:
        problems.append("%s: attempted < 1" % where)
    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(wanted):
        problems.append("%s: metric names differ: missing %s, extra %s" % (
            where, sorted(set(wanted) - set(metrics)),
            sorted(set(metrics) - set(wanted))))
    for name, unit in wanted.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            problems.append("%s: %s is %r, want unit %s" % (where, name, entry, unit))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s value %r is not a finite number" % (where, name, value))
    return problems


def synthetic_record(rounds=12, runs=4):
    """A plausible fl_bench record: two traced/untraced pairs of runs."""
    def run_entry(i, traced):
        acc = [min(0.9, 0.1 + 0.08 * r) for r in range(rounds)]
        return {
            "run_seed": 1000 + i // 2, "traced": traced, "setup_s": 0.2 + 0.01 * i,
            "round1_digest": "00000000000000aa",
            "round_ms": [50.0 + (r * 7 + i) % 11 for r in range(rounds - 1)],
            "accuracy": acc, "checkpoint_ms": [2.0, 2.5],
            "final_accuracy": acc[-1],
            "digest": "%016x" % (1000 + i // 2), "wire_bytes": 4096 * rounds,
            "dispatches": 10 * rounds, "dropouts": 3, "stragglers": 0,
            "rejected": 1, "timeouts": 2, "retries": 2, "inflight": 5,
            "loop_wall_s": 1.0, "loop_cpu_s": 1.5,
        }
    probes = {name: 1.5 for name in run.LAYER_UNITS
              if not name.startswith(("fl.phase.", "fl.uploads.", "fl.cpu_util",
                                      "obs."))}
    return {
        "workload": "text-async", "seed": 1, "rounds": rounds,
        "stat_runs": runs // 2, "target": 0.5,
        "floor": 0.6, "clients_per_round": 10, "fl_threads": 2,
        "simd_tier": "generic", "compiler": "test", "build_type": "Release",
        "peak_rss_bytes": 64 << 20,
        "setup_trials": [{"setup_s": 0.2, "round1_digest": "00000000000000aa"}] * 3,
        "runs": [run_entry(i, i % 2 == 0) for i in range(runs)],
        "plan_equals_layers": True, "masked_sum_exact": True, "resume_exact": True,
        "probes": probes, "spans": [["round", 10.0, 5.0]],
    }


def synthetic_events(rounds=12):
    event = {p + "_ms": 1.0 for p in run.PHASES}
    return [dict(event, round=r + 1) for r in range(rounds)]


def offline(bench):
    problems = []
    record = synthetic_record()
    for trace, specs in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
        metrics, detail, checks = run.evaluate(record, None, trace,
                                               synthetic_events())
        if detail["failed_checks"]:
            problems.append("clean record flagged: %s" % detail["failed_checks"])
        line = json.dumps({"correct": True, "attempted": len(checks),
                           "failed": 0, "metrics": metrics})
        problems += check_result(json.loads(line), specs, "offline trace=%d" % trace)
    e2e = run.e2e_metrics(record)[0]
    if e2e["rounds_to_target"] != 6:
        problems.append("rounds_to_target %r, want 6" % e2e["rounds_to_target"])
    broken = copy.deepcopy(record)
    broken["plan_equals_layers"] = False
    broken["setup_trials"][0] = {"setup_s": 0.2, "round1_digest": "ff"}
    broken["runs"] = [dict(r, accuracy=[0.1] * 12, final_accuracy=0.1)
                      for r in broken["runs"]]
    found = run.evaluate(broken, None, False, [])[1]["failed_checks"]
    if len(found) != 4:
        problems.append("broken record: want 4 failed checks, got %s" % found)
    # check_digests persists digests per build; exercise it on a scratch store.
    run.BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-selftest")
    os.makedirs(run.BUILD_DIR, exist_ok=True)
    store = os.path.join(run.BUILD_DIR, "digests.json")
    if os.path.exists(store):
        os.remove(store)
    def failures(rec, binary):
        return [name for name, ok in run.check_digests(rec, binary) if not ok]
    first = failures(record, "build-a")
    changed = copy.deepcopy(record)
    for r in changed["runs"]:
        if r["run_seed"] == 1000:  # the traced and untraced run of one seed
            r["digest"] = "%016x" % 7
    second = failures(changed, "build-a")
    rebuilt = failures(changed, "build-b")
    if first or len(second) != 2 or rebuilt:
        problems.append("digest persistence: %s / %s / %s" % (first, second, rebuilt))
    return problems


def live(bench):
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = "%s trace=%d" % (workload, trace)
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", "7",
                                    "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900)
            if proc.returncode != 0:
                problems.append("%s: exit %d" % (where, proc.returncode))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems += check_result(result, specs, where)
            if result.get("correct") is not True:
                problems.append("%s: correct is %r" % (where, result.get("correct")))
            print("ok  " + where, flush=True)
    return problems


def main():
    bench = load_benchmark()
    problems = []
    for specs, units in ((bench["end_to_end"], run.E2E_UNITS),
                         (bench["per_layer"], run.LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in specs}
        if declared != units:
            problems.append("BENCHMARK.json and run.py disagree: %s vs %s"
                            % (declared, units))
    problems += offline(bench)
    if "--live" in sys.argv[1:]:
        problems += live(bench)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
