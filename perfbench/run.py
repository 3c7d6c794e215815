#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload layout_grid --seed 1 --seconds 20 --trace 0

flo_perfbench (perfbench/CMakeLists.txt) is compiled in Release mode into
.bench_build/perfbench on first use and rebuilt incrementally afterwards.
Build output goes to stderr; the binary's stdout is passed through, so the
last line of stdout is its JSON result. Extra flags (--record, --self-test)
are forwarded to the binary unchanged. The exit code is the binary's, or 1
when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "flo_perfbench"
JOBS = "4"


def run_quiet(cmd):
    """Runs a build step; its output is shown on stderr only on failure.
    The compiler's temporary files stay inside the build tree."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env=dict(os.environ, TMPDIR=str(tmp)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build():
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        if not run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_quiet(["cmake", "--build", str(BUILD_DIR), "--target",
                      "flo_perfbench", "-j", JOBS])


def clean_env():
    """The library reads FLO_* knobs (simulator core, solver, QoS, metrics)
    from the environment; the benchmark pins its own configuration."""
    return {k: v for k, v in os.environ.items() if not k.startswith("FLO_")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace")
    args, extra = parser.parse_known_args()

    if not build():
        return 1
    cmd = [str(BINARY), "--data-dir", str(BENCH_DIR / "expected"),
           "--out-dir", str(ROOT / ".bench_build" / "perfbench-out")]
    for flag in ("workload", "seed", "seconds", "trace"):
        value = getattr(args, flag)
        if value is not None:
            cmd += ["--" + flag, value]
    cmd += extra
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=clean_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
