#!/usr/bin/env python3
"""Build and run the three-site ORDUP cluster benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the repository's library targets from src/ plus the benchmark
binary) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls rebuild only what changed. The benchmark's last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
exit code is non-zero on any build, run or correctness failure. WAL and
scratch directories always live under .bench_build/work in the checkout,
so the WAL is fsynced on the checkout's own disk wherever the build tree
goes; they are removed after a successful run and kept after a failed one.
Span traces of --trace 1 runs go to .bench_build/traces.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("durable_small", "volatile_small", "store_wide")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    """Configure (once) and build; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "esr_cluster_bench", "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step {cmd[:2]} failed: {err}")
            return False
        if rc != 0:
            log(f"build step {' '.join(cmd[:2])} exited {rc}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "ordup_node.h")):
        log(f"no repository sources under {ROOT}/src; nothing to benchmark")
        return 2
    base = build_base()
    build_dir = os.path.join(base, "perfbench")
    if not build(build_dir):
        return 2
    cmd = [os.path.join(build_dir, "esr_cluster_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_build", "work"),
           "--out-dir", os.path.join(ROOT, ".bench_build", "traces")]
    try:
        # The binary enforces its own deadlines; this one only guards
        # against a hang outside them. run() kills and reaps on timeout.
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    if rc != 0:
        log(f"benchmark exited {rc}")
        return rc if rc > 0 else 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
