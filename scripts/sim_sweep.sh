#!/usr/bin/env bash
# Amnesia-recovery seed sweep: every asynchronous method that supports
# recovery, at seeds 1-12, with site 2 of 4 amnesia-crashed at 100 ms and
# restarted at 300 ms, recovered from file-backed storage and checked with
# --verify (converged, serializable, within epsilon). The fingerprint runs
# the same schedule at seed 7 only; other seeds lose different parts of the
# unflushed WAL tail, so recovery is gated on all of them here. Two sharded
# ORDUP schedules join at the same seeds: 8 sites, 4 shards, and site 0 or
# site 1 amnesia-crashed, so a crashed site's order services fail over
# while its own cross-shard requests are in flight.
#
# Each run gets a 3 GB address-space cap and a 60 s timeout, so a runaway
# run fails instead of exhausting the machine. Each failing run is printed
# with its exit code and verdict line; the last line counts the runs that
# passed. The script exits 1 when any run failed.
#
# Usage:
#   scripts/sim_sweep.sh [BUILD_DIR]   # default: build
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
METHODS="ordup ordup-ts commu ritu ritu-sv compe compe-ord"
SEEDS=$(seq 1 12)
SCHEDULES=()
for method in $METHODS; do
  SCHEDULES+=("--method=$method --sites=4 --amnesia-crash=2:100:300")
done
for site in 0 1; do
  SCHEDULES+=("--method=ordup --sites=8 --shards=4 --amnesia-crash=$site:100:300")
done

# Build logs go to stderr so stdout is only the sweep report.
cmake -B "$BUILD_DIR" -S . >&2 || exit 1
cmake --build "$BUILD_DIR" -j "$(nproc)" --target esrsim >&2 || exit 1
ESRSIM=$(cd "$BUILD_DIR" && pwd)/examples/esrsim

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

total=0
passed=0
for schedule in "${SCHEDULES[@]}"; do
  for seed in $SEEDS; do
    total=$((total + 1))
    run="$WORK/$total"
    args="$schedule --seed=$seed"
    # shellcheck disable=SC2086
    (
      ulimit -v 3145728
      exec timeout 60 "$ESRSIM" $args --recovery-dir="$run.recovery" \
        --verify
    ) > "$run.out" 2>&1
    rc=$?
    if [ "$rc" -eq 0 ]; then
      passed=$((passed + 1))
    else
      verdict=$(grep -m1 'converged:' "$run.out" || true)
      echo "FAIL (exit $rc): esrsim $args --verify: ${verdict:-no verdict}"
    fi
    rm -rf "$run.recovery" "$run.out"
  done
done

echo "sim_sweep: $passed/$total runs passed --verify"
[ "$passed" -eq "$total" ]
