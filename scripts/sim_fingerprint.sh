#!/usr/bin/env bash
# Prints one sha256 per deterministic simulator output, so a change meant
# to keep simulated behaviour byte-identical is checked with one diff:
#
#   scripts/sim_fingerprint.sh > before.txt    # on the base commit
#   scripts/sim_fingerprint.sh > after.txt     # on the change
#   diff before.txt after.txt
#
# Covered outputs (each read identical across repeated runs):
#   - esrsim --verify stdout for all 10 methods
#   - hop traces: stdout and the --trace-out waterfall JSONL of traced
#     esrsim --verify runs of ORDUP, COMPE (with aborts), COMMU, RITU-MV,
#     RITU-SV, ORDUP-TS and COMPE-ORD, and of the fully replicated amnesia
#     run below
#   - a sharded esrsim run (4 shards, RF 2, 8 sites) with a global standby
#     sequencer and an amnesia crash of site 0 recovered from file-backed
#     storage: its stdout plus every site's .ckpt and .wal file
#   - a second sharded run (seed 8, no standby) with an amnesia crash of
#     site 1, which hosts no order server: its stdout plus every site's
#     .ckpt and .wal file
#   - the same kind of run fully replicated (ORDUP, 4 sites, a global
#     standby sequencer, an amnesia crash of site 2): its stdout plus every
#     site's .ckpt and .wal file
#   - the same fully replicated run without its standby and with
#     --checkpoint-ms above the run's length, so no checkpoint truncates
#     the WAL: every .wal line of the other runs hashes an empty file, and
#     this run's non-empty .wal files pin the WAL record bytes
#   - COMPE (with aborts, so the commit-decision gate runs), COMMU,
#     ORDUP-TS (the apply count), RITU-MV with version GC (version images
#     and the GC floor), ordered COMPE (the order watermark together with
#     decisions) and RITU-SV (the single-version store and its lock
#     counters) amnesia runs (4 sites, an amnesia crash of site 2): each
#     one's stdout plus every site's .ckpt and .wal file
#   - stdout and .metrics.prom of bench_table1_methods, bench_sharding,
#     bench_ordup_ordering_ablation, bench_epsilon_bound, bench_convergence
#     and bench_async_vs_sync
#   - stdout and .metrics.prom of bench_adaptive_epsilon, the one output
#     that runs the admission-sampling timer; its google-benchmark BM_
#     lines are wall-clock timings and are left out
#
# Every --verify run is also a verdict gate: esrsim exits 1 when a run
# does not converge, is not serializable or exceeds epsilon, and set -e
# then stops the script.
#
# scripts/sim_fingerprint.expected holds the committed output, and
# scripts/run_tier2.sh fails when a fresh run differs from it. A change
# meant to alter simulator output regenerates the file and commits it with
# the change, saying which lines moved and why:
#
#   scripts/sim_fingerprint.sh > scripts/sim_fingerprint.expected
#
# Usage:
#   scripts/sim_fingerprint.sh [BUILD_DIR]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
BENCHES="bench_table1_methods bench_sharding bench_ordup_ordering_ablation
  bench_epsilon_bound bench_convergence bench_async_vs_sync"

# Build logs go to stderr so stdout is only the fingerprint.
cmake -B "$BUILD_DIR" -S . >&2
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" -j "$(nproc)" --target esrsim $BENCHES \
  bench_adaptive_epsilon >&2
BUILD_DIR=$(cd "$BUILD_DIR" && pwd)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

hash() { sha256sum "$1" | cut -d' ' -f1; }

for method in ordup ordup-ts commu ritu ritu-sv compe compe-ord 2pc quorum \
              quasi; do
  "$BUILD_DIR/examples/esrsim" --method="$method" --verify > esrsim.out
  echo "$(hash esrsim.out)  esrsim --method=$method --verify"
done

for method in ordup compe commu ritu ritu-sv ordup-ts compe-ord; do
  "$BUILD_DIR/examples/esrsim" --method="$method" --verify \
    --trace-out=trace.jsonl > traced.out
  echo "$(hash traced.out)  esrsim --method=$method --verify --trace-out: stdout"
  echo "$(hash trace.jsonl)  esrsim --method=$method --verify --trace-out:" \
    "trace.jsonl"
done

"$BUILD_DIR/examples/esrsim" --method=ordup --sites=8 --shards=4 \
  --replication-factor=2 --sequencer-standby=1 --amnesia-crash=0:100:300 \
  --recovery-dir=recovery --seed=7 --verify > sharded.out
echo "$(hash sharded.out)  esrsim sharded amnesia run: stdout"
for file in recovery/*; do
  echo "$(hash "$file")  esrsim sharded amnesia run: $(basename "$file")"
done

mkdir sharded-site1
(
  cd sharded-site1
  "$BUILD_DIR/examples/esrsim" --method=ordup --sites=8 --shards=4 \
    --replication-factor=2 --amnesia-crash=1:100:300 --recovery-dir=recovery \
    --seed=8 --verify > sharded.out
  echo "$(hash sharded.out)  esrsim sharded amnesia run, site 1: stdout"
  for file in recovery/*; do
    echo "$(hash "$file")  esrsim sharded amnesia run, site 1:" \
      "$(basename "$file")"
  done
)

mkdir full
(
  cd full
  "$BUILD_DIR/examples/esrsim" --method=ordup --sites=4 \
    --sequencer-standby=1 --amnesia-crash=2:100:300 --recovery-dir=recovery \
    --seed=7 --verify > full.out
  echo "$(hash full.out)  esrsim full-replication amnesia run: stdout"
  for file in recovery/*; do
    echo "$(hash "$file")  esrsim full-replication amnesia run:" \
      "$(basename "$file")"
  done
)

mkdir full-wal
(
  cd full-wal
  "$BUILD_DIR/examples/esrsim" --method=ordup --sites=4 \
    --amnesia-crash=2:100:300 --recovery-dir=recovery --checkpoint-ms=100000 \
    --seed=7 --verify > full.out
  echo "$(hash full.out)  esrsim full-replication amnesia run, no" \
    "checkpoint: stdout"
  for file in recovery/*; do
    echo "$(hash "$file")  esrsim full-replication amnesia run, no" \
      "checkpoint: $(basename "$file")"
  done
)

n=0
for args in "--method=compe" "--method=commu" "--method=ordup-ts" \
            "--method=ritu --version-gc" "--method=compe-ord" \
            "--method=ritu-sv"; do
  n=$((n + 1))
  mkdir "amnesia-$n"
  (
    cd "amnesia-$n"
    # shellcheck disable=SC2086
    "$BUILD_DIR/examples/esrsim" $args --sites=4 \
      --amnesia-crash=2:100:300 --recovery-dir=recovery --seed=7 --verify \
      > amnesia.out
    echo "$(hash amnesia.out)  esrsim $args amnesia run: stdout"
    for file in recovery/*; do
      echo "$(hash "$file")  esrsim $args amnesia run: $(basename "$file")"
    done
  )
done

mkdir full-traced
(
  cd full-traced
  "$BUILD_DIR/examples/esrsim" --method=ordup --sites=4 \
    --sequencer-standby=1 --amnesia-crash=2:100:300 --recovery-dir=recovery \
    --seed=7 --verify --trace-out=trace.jsonl > full.out
  echo "$(hash full.out)  esrsim full-replication amnesia run --trace-out:" \
    "stdout"
  echo "$(hash trace.jsonl)  esrsim full-replication amnesia run" \
    "--trace-out: trace.jsonl"
)

for bench in $BENCHES; do
  "$BUILD_DIR/bench/$bench" > "$bench.out"
  echo "$(hash "$bench.out")  $bench: stdout"
  echo "$(hash "$bench.metrics.prom")  $bench: $bench.metrics.prom"
done

bench=bench_adaptive_epsilon
"$BUILD_DIR/bench/$bench" | grep -v '^BM_' > "$bench.out"
echo "$(hash "$bench.out")  $bench: stdout without BM_ lines"
echo "$(hash "$bench.metrics.prom")  $bench: $bench.metrics.prom"
