#!/usr/bin/env python3
"""Measures how steady the benchmark's metrics are and derives bounds.

Runs each workload once per seed (seeds 1..N), in `--sets` repeated sets,
and reports for every metric its median, quartiles and spread (the
distance between the first and third quartile as a share of the median,
as statistics.quantiles(values, n=4) gives them). From the spread it
derives a bound: three times the widest spread seen on any workload,
rounded up to a whole percent and capped at 25%. set_up time always gets
the cap, the largest bound. With two or more sets it also reports how far
each set's median drifted from the first set's, in the worse direction.

Metrics that repeat exactly whenever a seed is run again are marked
"exact": the simulated outcomes, which a change to host code alone must
leave unchanged. Exactness needs each seed run at least twice, so pass
--sets 2 (or more) to judge it.

    python3 perfbench/steadiness.py --workloads layout_grid,serve_compile \\
        --seeds 10 --sets 1
    python3 perfbench/steadiness.py --trace --seeds 2 --sets 2

Results can be written as JSON with --out (inside the checkout).
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP = 0.25


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect output: %s\n%s" % (" ".join(cmd),
                                                       proc.stdout))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0, q1, q3, mid


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", action="store_true",
                        help="measure the per-layer metrics instead")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    widest = defaultdict(float)
    for workload in workloads:
        runs = []  # (set, seed, metrics)
        for s in range(args.sets):
            for seed in range(1, args.seeds + 1):
                runs.append((s, seed, run_once(workload, seed, seconds,
                                               args.trace)))
                print("%s set %d seed %d done" % (workload, s, seed),
                      file=sys.stderr)
        rows = {}
        for name in sorted(runs[0][2]):
            values = [m[name] for _, _, m in runs]
            by_seed = defaultdict(set)
            for _, seed, m in runs:
                by_seed[seed].add(m[name])
            repeated = any(len([1 for _, s2, _ in runs if s2 == seed]) > 1
                           for seed in by_seed)
            exact = repeated and all(len(v) == 1 for v in by_seed.values())
            first_set = [m[name] for s, _, m in runs if s == 0]
            sp, q1, q3, mid = spread(first_set)
            drifts = []
            for s in range(1, args.sets):
                later = statistics.median(m[name] for s2, _, m in runs if s2 == s)
                base = statistics.median(first_set)
                worse = (later - base) if better.get(name) == "lower" \
                    else (base - later)
                drifts.append(worse / base if base else 0.0)
            if name != "setup_s":
                widest[name] = max(widest[name], sp)
            rows[name] = {"median": mid, "q1": q1, "q3": q3, "spread": sp,
                          "drift": drifts, "exact": exact,
                          "all_values": values}
        report[workload] = rows

    derived = {}
    for name in set(widest) | {"setup_s"}:
        if name == "setup_s":
            derived[name] = CAP
        else:
            derived[name] = min(CAP, max(0.01, math.ceil(
                3 * widest[name] * 100) / 100))

    for workload, rows in report.items():
        print("\n== %s (%d seeds x %d sets, %d s runs%s)" % (
            workload, args.seeds, args.sets, seconds,
            ", traced" if args.trace else ""))
        print("%-34s %14s %14s %14s %8s %8s %8s %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "drift",
            "exact"))
        for name, r in rows.items():
            bound = bounds.get(name)
            drift = max(r["drift"]) if r["drift"] else float("nan")
            flag = ""
            if bound is not None and name != "setup_s" and r["spread"] > bound:
                flag = "  SPREAD > BOUND"
            if bound is not None and r["drift"] and drift > bound:
                flag += "  DRIFT > BOUND"
            print("%-34s %14.6g %14.6g %14.6g %7.2f%% %8s %7.2f%% %s%s" % (
                name, r["median"], r["q1"], r["q3"], 100 * r["spread"],
                "" if bound is None else "%.2f" % bound, 100 * drift,
                "exact" if r["exact"] else "", flag))
    if not args.trace:
        print("\nderived bounds (3 x widest spread, capped at %.2f):" % CAP)
        for name in sorted(derived):
            print("  %-20s %.2f" % (name, derived[name]))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "sets": args.sets, "seeds": args.seeds,
             "trace": args.trace, "workloads": report,
             "derived_bounds": derived}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
