#!/usr/bin/env python3
"""Tolerance-gated perf-trajectory check for bench_micro results.

Compares a fresh google-benchmark JSON file (--benchmark_format=json)
against a committed trajectory snapshot (results/trajectory/). Absolute
throughput depends on the runner, so the gate works on *within-run ratios*
— event core vs clock core blocks/sec, extent batching on vs off — which
are machine-independent: both sides of each ratio ran on the same machine
seconds apart.

Four kinds of gate:
  1. hard floors — invariants of the implementation (the event core's
     closed-form phase path must deliver >= 2x the clock extent path on
     the cache-less sequential grid);
  2. regression tolerance — each tracked ratio must stay within
     --tolerance (default 0.5, i.e. no worse than half) of the ratio
     recorded in the committed baseline snapshot;
  3. snapshot freshness (--require-fresh) — every committed snapshot is
     stamped (--stamp) with a fingerprint of the bench-visible sources;
     when the working tree's fingerprint no longer matches the latest
     snapshot's stamp, bench-visible code changed without a new snapshot
     and the gate fails. Pre-stamp snapshots only warn;
  4. build type — bench_micro records the project's CMAKE_BUILD_TYPE as
     the `flo_build_type` context key; when both the fresh run and the
     baseline carry it, they must agree (a Debug run against a Release
     baseline compares nothing).

Exit status 0 when every gate holds, 1 otherwise.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import sys

# (name, numerator benchmark, denominator benchmark, hard floor or None)
TRACKED_RATIOS = [
    ("sim_core_event_over_clock", "BM_SimCoreEvent", "BM_SimCoreClock", 2.0),
    ("extent_streaming_on_over_off", "BM_ExtentSimulationStreaming/1",
     "BM_ExtentSimulationStreaming/0", 1.0),
    ("extent_warm_on_over_off", "BM_ExtentSimulation/1",
     "BM_ExtentSimulation/0", None),
]


# Everything bench_micro's tracked benchmarks can see: the storage
# simulator stack plus the benchmark definitions themselves. Editing any
# of these without re-recording a snapshot is exactly the drift the
# freshness gate exists to catch.
FINGERPRINTED_GLOBS = [
    "src/storage/*.hpp",
    "src/storage/*.cpp",
    "bench/bench_micro.cpp",
]

STAMP_KEY = "flo_source_fingerprint"
BUILD_TYPE_KEY = "flo_build_type"


def source_fingerprint(repo_root):
    """Content hash of the bench-visible sources, stable across machines."""
    digest = hashlib.sha256()
    paths = []
    for pattern in FINGERPRINTED_GLOBS:
        paths.extend(glob.glob(os.path.join(repo_root, pattern)))
    if not paths:
        raise SystemExit(f"error: no bench-visible sources under {repo_root}")
    for path in sorted(paths):
        digest.update(os.path.relpath(path, repo_root).encode())
        digest.update(b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def stamp_snapshot(path, repo_root):
    with open(path) as f:
        doc = json.load(f)
    doc[STAMP_KEY] = source_fingerprint(repo_root)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"stamped {path} with {STAMP_KEY}={doc[STAMP_KEY]}")


def check_freshness(baseline_path, repo_root):
    """Returns an error string, a warning string, or (None, None)."""
    with open(baseline_path) as f:
        stamp = json.load(f).get(STAMP_KEY)
    if stamp is None:
        return None, (f"{baseline_path} predates snapshot stamping; "
                      "freshness not enforced")
    current = source_fingerprint(repo_root)
    if current != stamp:
        return (f"bench-visible sources (fingerprint {current}) changed "
                f"since the latest snapshot {baseline_path} (stamp {stamp}); "
                "re-run bench_micro and commit a new stamped "
                "results/trajectory/BENCH_simulator.pr<N>.json"), None
    return None, None


def build_type(path):
    """The project build type bench_micro recorded, or None if unstamped."""
    with open(path) as f:
        return json.load(f).get("context", {}).get(BUILD_TYPE_KEY)


def items_per_second(path):
    """Throughput per benchmark name.

    A run recorded with --benchmark_repetitions carries one `<name>_median`
    aggregate row per benchmark (run_name = <name>); that median is used.
    Otherwise (a single repetition) the plain iteration row is used. The
    mean/stddev/cv aggregates are never read as throughputs.
    """
    with open(path) as f:
        doc = json.load(f)
    iterations = {}
    medians = {}
    for row in doc.get("benchmarks", []):
        ips = row.get("items_per_second")
        if not ips:
            continue
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                medians[row["run_name"]] = float(ips)
        else:
            iterations[row["name"]] = float(ips)
    iterations.update(medians)
    return iterations


def ratios_of(per):
    out = {}
    for name, num, den, _floor in TRACKED_RATIOS:
        if num in per and den in per and per[den] > 0:
            out[name] = per[num] / per[den]
    return out


def latest_snapshot(directory):
    """Picks the highest-numbered BENCH_simulator.pr<N>.json in `directory`.

    Gating against the latest committed snapshot (instead of a pinned PR
    number) means each PR that lands a new snapshot automatically tightens
    the trajectory for the next one, with no CI edit.
    """
    best = None
    best_n = -1
    for entry in os.listdir(directory):
        m = re.fullmatch(r"BENCH_simulator\.pr(\d+)\.json", entry)
        if m and int(m.group(1)) > best_n:
            best_n = int(m.group(1))
            best = os.path.join(directory, entry)
    if best is None:
        raise SystemExit(
            f"error: no BENCH_simulator.pr<N>.json snapshots in {directory}")
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh bench_micro JSON output")
    parser.add_argument("--baseline",
                        help="committed trajectory snapshot to gate against")
    parser.add_argument("--baseline-dir",
                        help="directory of trajectory snapshots; the "
                             "highest-numbered BENCH_simulator.pr<N>.json "
                             "becomes the baseline")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional regression of each ratio "
                             "vs the baseline (default 0.5)")
    parser.add_argument("--stamp", action="store_true",
                        help="write the bench-visible source fingerprint "
                             "into the given JSON file and exit")
    parser.add_argument("--repo-root", default=".",
                        help="repository root for the source fingerprint "
                             "(default: current directory)")
    parser.add_argument("--require-fresh", action="store_true",
                        help="fail when the baseline snapshot's stamp does "
                             "not match the working tree's bench-visible "
                             "sources (unstamped baselines only warn)")
    args = parser.parse_args()
    if args.baseline and args.baseline_dir:
        parser.error("--baseline and --baseline-dir are mutually exclusive")
    if args.stamp:
        stamp_snapshot(args.current, args.repo_root)
        return 0
    if args.baseline_dir:
        args.baseline = latest_snapshot(args.baseline_dir)
        print(f"baseline: {args.baseline}")

    current = ratios_of(items_per_second(args.current))
    if not current:
        print("error: no tracked ratios found in", args.current)
        return 1
    baseline = {}
    if args.baseline:
        baseline = ratios_of(items_per_second(args.baseline))

    failures = []
    if args.baseline:
        current_type = build_type(args.current)
        baseline_type = build_type(args.baseline)
        if (current_type is not None and baseline_type is not None
                and current_type != baseline_type):
            failures.append(
                f"build type {current_type!r} of {args.current} differs "
                f"from build type {baseline_type!r} of the baseline "
                f"{args.baseline}; record both with the same "
                "CMAKE_BUILD_TYPE")
    if args.require_fresh and args.baseline:
        error, warning = check_freshness(args.baseline, args.repo_root)
        if error:
            failures.append(error)
        if warning:
            print("warning:", warning)
    print(f"{'ratio':34} {'current':>10} {'baseline':>10}  gate")
    for name, _num, _den, floor in TRACKED_RATIOS:
        if name not in current:
            continue
        cur = current[name]
        base = baseline.get(name)
        gates = []
        if floor is not None:
            gates.append(f">= {floor:g}")
            if cur < floor:
                failures.append(f"{name}: {cur:.2f} below hard floor {floor:g}")
        if base is not None:
            allowed = base * (1.0 - args.tolerance)
            gates.append(f">= {allowed:.2f} (baseline*{1 - args.tolerance:g})")
            if cur < allowed:
                failures.append(
                    f"{name}: {cur:.2f} regressed beyond tolerance "
                    f"(baseline {base:.2f}, floor {allowed:.2f})")
        print(f"{name:34} {cur:10.2f} "
              f"{base if base is not None else float('nan'):10.2f}  "
              f"{'; '.join(gates) if gates else 'tracked only'}")

    if failures:
        print("\nPERF TRAJECTORY GATE FAILED:")
        for f in failures:
            print(" -", f)
        return 1
    print("\nperf trajectory OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
