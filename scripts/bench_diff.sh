#!/usr/bin/env bash
# Compares two perfbench trajectory files (BENCH_<n>.json at the repository
# root) workload by workload:
#
#   - end-to-end metrics (the `--trace 0` result lines): B against A, judged
#     against the regression bounds in BENCHMARK.json. A metric fails when
#     B is worse than A, in the metric's direction, by more than its bound
#     (a fraction of A). A run of B that was not correct fails too.
#   - per-layer metrics (the `--trace 1` result lines): A, B and the
#     relative change, printed without a verdict. On a shared host these
#     follow CPU steal; read them beside each side's steal percentage.
#
# Each argument is a trajectory file, optionally suffixed with the side to
# read: `FILE` reads the file's own change, `FILE:parent` the parent
# commit it was measured against. Where a side holds several runs of one
# workload and trace, the median of each metric is used.
#
# Usage:
#   scripts/bench_diff.sh BENCH_16.json:parent BENCH_16.json   # within a PR
#   scripts/bench_diff.sh BENCH_16.json BENCH_17.json          # across PRs
#
# Exit status: 0 when every end-to-end metric is within its bound, 1 when
# one is not, 2 on a usage or file error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 2 ]]; then
  echo "usage: scripts/bench_diff.sh A[:parent|:change] B[:parent|:change]" >&2
  exit 2
fi

exec python3 - "$1" "$2" <<'EOF'
import json
import statistics
import sys


def load(arg):
    path, _, side = arg.partition(":")
    side = side or "change"
    try:
        with open(path) as f:
            doc = json.load(f)
        block = doc["sides"][side]
    except (OSError, ValueError, KeyError) as err:
        sys.exit(f"bench_diff: cannot read side '{side}' of {path}: {err!r}")
    return f"{path}:{side}", block


def by_run(block):
    """(workload, trace) -> {metric: median value}, plus correctness."""
    grouped = {}
    for run in block["runs"]:
        key = (run["workload"], run["trace"])
        grouped.setdefault(key, []).append(run)
    out = {}
    for key, runs in grouped.items():
        metrics = {}
        for run in runs:
            for name, m in run["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
        out[key] = {
            "metrics": {k: statistics.median(v) for k, v in metrics.items()},
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "steal": statistics.median(r["steal_pct"] for r in runs),
        }
    return out


def rel(a, b):
    return (b - a) / a if a else (0.0 if b == a else float("inf"))


name_a, block_a = load(sys.argv[1])
name_b, block_b = load(sys.argv[2])
with open("BENCHMARK.json") as f:
    bench = json.load(f)
bounds = {m["name"]: m for m in bench["end_to_end"]}
layers = [m["name"] for m in bench["per_layer"]]
runs_a, runs_b = by_run(block_a), by_run(block_b)

print(f"A = {name_a} (sha {block_a.get('sha', '?')})")
print(f"B = {name_b} (sha {block_b.get('sha', '?')})")
failures = 0
for w in bench["workloads"]:
    workload = w["name"]
    print(f"\n== {workload}")
    a, b = runs_a.get((workload, 0)), runs_b.get((workload, 0))
    if a is None or b is None:
        print("  end-to-end: missing a --trace 0 run on one side")
        failures += 1
    else:
        print(f"  end-to-end (steal A {a['steal']:.1f}%, B {b['steal']:.1f}%)")
        if not b["correct"]:
            print(f"  FAIL  B not correct ({b['failed']} of {b['attempted']} failed)")
            failures += 1
        for name, spec in bounds.items():
            va, vb = a["metrics"].get(name), b["metrics"].get(name)
            if va is None or vb is None:
                print(f"  FAIL  {name}: missing")
                failures += 1
                continue
            change = rel(va, vb)
            worse = change if spec["better"] == "lower" else -change
            verdict = "FAIL" if worse > spec["bound"] else "ok  "
            failures += verdict == "FAIL"
            print(f"  {verdict}  {name:24s} {va:12.6g} -> {vb:12.6g} "
                  f"{spec['unit']:3s} {change:+7.1%}  (bound {spec['bound']:.0%})")
    a, b = runs_a.get((workload, 1)), runs_b.get((workload, 1))
    if a is None or b is None:
        print("  per-layer: missing a --trace 1 run on one side")
        continue
    print(f"  per-layer, not judged (steal A {a['steal']:.1f}%, B {b['steal']:.1f}%)")
    for name in layers:
        va, vb = a["metrics"].get(name), b["metrics"].get(name)
        if va is None or vb is None:
            continue
        print(f"        {name:40s} {va:12.6g} -> {vb:12.6g} {rel(va, vb):+8.1%}")

print(f"\nbench_diff: {'FAIL' if failures else 'ok'} "
      f"({failures} end-to-end problem(s))")
sys.exit(1 if failures else 0)
EOF
