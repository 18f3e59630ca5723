#!/usr/bin/env bash
# Paired A/B perfbench runner: builds two commits from `git archive` copies
# and runs `python3 perfbench/run.py` on both, workload by workload, in
# alternating pairs (the parent runs first in even rounds, the change in
# odd ones), so slow drift on a shared host hits both sides alike.
#
# Each workload runs --trace 0 pairs until KEPT_PAIRS (10) of them are
# kept, but at most MAX_PAIRS (30), then TRACE_PAIRS (1) --trace 1 pair.
# Every run uses perfbench/README.md's seed (7) and BENCHMARK.json's
# run_seconds. Each run records its CPU steal: the hypervisor's share of
# CPU time, from /proc/stat deltas over the run. A pair in which either run
# saw more steal than STEAL_MAX (10) percent is dropped from the results and
# listed under "dropped". For every end-to-end metric in BENCHMARK.json the
# script prints both sides' median and interquartile range and how many
# kept pairs the change won, and it writes the BENCH_<n>.json shape that
# scripts/bench_diff.sh reads. It judges nothing: the bounds stay in
# BENCHMARK.json, and scripts/bench_diff.sh applies them.
#
# Usage:
#   scripts/bench_ab.sh PARENT CHANGE > BENCH_<n>.json
#
# WORK_DIR, if set, is where the two copies are built; a copy already at
# its commit is reused. Unset, a new mktemp -d is used and removed on exit.
#
# The JSON goes to stdout; progress and the summary go to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 2 ]]; then
  echo "usage: scripts/bench_ab.sh PARENT CHANGE > BENCH_<n>.json" >&2
  exit 2
fi
PARENT_SHA=$(git rev-parse --verify "$1^{commit}")
CHANGE_SHA=$(git rev-parse --verify "$2^{commit}")

if [[ -z "${WORK_DIR:-}" ]]; then
  WORK_DIR=$(mktemp -d)
  trap 'rm -rf "$WORK_DIR"' EXIT
fi
mkdir -p "$WORK_DIR"
# A copy already at the right commit is kept, with its build tree.
for side in parent change; do
  sha=$PARENT_SHA
  [[ $side == change ]] && sha=$CHANGE_SHA
  dir=$WORK_DIR/$side
  if [[ "$(cat "$dir/.bench_ab_sha" 2>/dev/null)" != "$sha" ]]; then
    rm -rf "$dir"
    mkdir "$dir"
    git archive "$sha" | tar -x -C "$dir"
    echo "$sha" > "$dir/.bench_ab_sha"
  fi
done

# Each copy builds into its own .bench_build.
unset CARGO_TARGET_DIR
python3 - "$WORK_DIR" "$PARENT_SHA" "$CHANGE_SHA" <<'EOF'
import json
import os
import platform
import statistics
import subprocess
import sys
import time

work_dir, parent_sha, change_sha = sys.argv[1:4]
SEED = 7          # perfbench/README.md's invocation
KEPT_PAIRS = 10   # --trace 0 pairs kept per workload
MAX_PAIRS = 30    # --trace 0 pairs attempted per workload at most
TRACE_PAIRS = 1   # --trace 1 pairs per workload, run after the others
STEAL_MAX = 10.0  # highest steal percentage a kept run may see
with open("BENCHMARK.json") as f:
    bench = json.load(f)
seconds = bench["run_seconds"]
workloads = [w["name"] for w in bench["workloads"]]
end_to_end = bench["end_to_end"]
sides = {"parent": parent_sha, "change": change_sha}


def log(msg):
    print(f"bench_ab: {msg}", file=sys.stderr, flush=True)


def cpu_times():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def run(side, workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    steal0, total0 = cpu_times()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=os.path.join(work_dir, side),
                          stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    steal1, total1 = cpu_times()
    steal_pct = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        log(f"{side} {workload} --trace {trace} exited {proc.returncode}")
    if result is None:
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    return {"workload": workload, "seed": SEED, "seconds": seconds,
            "trace": trace, "steal_pct": round(steal_pct, 2),
            "wall_s": round(wall, 1), "result": result}


# One short run per side builds its perfbench tree, so no kept run pays
# for a build.
for side in sides:
    log(f"building {side} ({sides[side][:12]})")
    subprocess.run(["python3", "perfbench/run.py", "--workload",
                    workloads[0], "--seed", str(SEED), "--seconds", "1"],
                   cwd=os.path.join(work_dir, side), stdout=subprocess.DEVNULL,
                   check=True)

kept = {side: [] for side in sides}
dropped = []


def run_pair(workload, trace, i):
    """Runs pair i, alternating which side goes first; True when kept."""
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    pair = {side: run(side, workload, trace) for side in order}
    steals = {side: pair[side]["steal_pct"] for side in order}
    log(f"--trace {trace} pair {i + 1} {workload}: steal "
        + " ".join(f"{s} {v:.1f}%" for s, v in steals.items()))
    if max(steals.values()) > STEAL_MAX:
        dropped.append({"pair": i + 1, **{s: pair[s] for s in order}})
        return False
    for side in order:
        kept[side].append(pair[side])
    return True


kept_pairs = {w: 0 for w in workloads}
for i in range(MAX_PAIRS):
    todo = [w for w in workloads if kept_pairs[w] < KEPT_PAIRS]
    if not todo:
        break
    for workload in todo:
        kept_pairs[workload] += run_pair(workload, 0, i)
for i in range(TRACE_PAIRS):
    for workload in workloads:
        run_pair(workload, 1, i)
short = [w for w in workloads if kept_pairs[w] < KEPT_PAIRS]
if short:
    log(f"fewer than {KEPT_PAIRS} kept --trace 0 pairs after {MAX_PAIRS} "
        f"for {', '.join(short)}: their metrics are unresolved")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


log(f"{len(dropped)} pair(s) dropped for steal above {STEAL_MAX:g}%")
print(f"{'workload':<15} {'metric':<20} {'parent':>12} {'iqr':>6} "
      f"{'change':>12} {'iqr':>6} {'delta':>7} {'wins':>6}", file=sys.stderr)
for workload in workloads:
    runs = {side: [r for r in kept[side]
                   if r["workload"] == workload and r["trace"] == 0]
            for side in sides}
    for metric in end_to_end:
        name = metric["name"]
        # Kept runs are appended pair by pair, so index i is one pair.
        paired = [(p["result"]["metrics"][name]["value"],
                   c["result"]["metrics"][name]["value"])
                  for p, c in zip(runs["parent"], runs["change"])
                  if name in p["result"]["metrics"]
                  and name in c["result"]["metrics"]]
        if not paired:
            continue
        values = {"parent": [p for p, _ in paired],
                  "change": [c for _, c in paired]}
        stats = {side: quartiles(values[side]) for side in sides}
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in paired)
        cells = []
        for side in sides:
            q1, med, q3 = stats[side]
            iqr = 100 * (q3 - q1) / med if med else 0.0
            cells.append(f"{med:>12.6g} {iqr:>5.1f}%")
        p_med, c_med = stats["parent"][1], stats["change"][1]
        delta = 100 * (c_med - p_med) / p_med if p_med else 0.0
        print(f"{workload:<15} {name:<20} {cells[0]} {cells[1]} "
              f"{delta:>+6.1f}% {wins:>2}/{len(paired):<3}",
              file=sys.stderr)

cpu = next((line.split(":", 1)[1].strip()
            for line in open("/proc/cpuinfo") if line.startswith("model name")),
           platform.processor())
about = (
    f"perfbench trajectory: python3 perfbench/run.py --seed {SEED} "
    f"--seconds {seconds} for {', '.join(workloads)}, parent and change "
    f"each built from its own git archive copy by scripts/bench_ab.sh. "
    f"Per workload, --trace 0 pairs ran until {KEPT_PAIRS} were kept (at "
    f"most {MAX_PAIRS}), then {TRACE_PAIRS} --trace 1 pair(s), alternating "
    f"which side runs first; a pair in which either run saw more than "
    f"{STEAL_MAX:g}% CPU steal is listed under dropped and left out of "
    f"runs. Kept --trace 0 pairs: "
    + ", ".join(f"{w} {kept_pairs[w]}" for w in workloads)
    + ". Compare with scripts/bench_diff.sh.")
doc = {
    "about": about,
    "host": {"nproc": os.cpu_count(), "cpu": cpu,
             "kernel": platform.release()},
    "steal_max_pct": STEAL_MAX,
    "sides": {side: {"sha": sides[side], "runs": kept[side]}
              for side in sides},
    "dropped": dropped,
}
json.dump(doc, sys.stdout, indent=1)
print()
EOF
