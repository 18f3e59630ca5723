#!/usr/bin/env bash
# esrd smoke gate: boots a real 3-process ORDUP cluster on loopback TCP
# (the deployment shape documented in README.md's esrd quickstart),
# SIGKILLs one follower mid-run and restarts it over the same WAL
# directory, then SIGKILLs it again and restarts it with its data directory
# wiped, and finally SIGKILLs the sequencer site and restarts it over its
# WAL. It asserts that every site drains cleanly (exit 0), converges to
# an identical state digest, ends with its whole applied prefix stable
# (status `stable` == `applied_watermark`, the restarted site included)
# and so holds no history (`history_msets` == 0), that the wiped site
# caught up through a snapshot (`snapshots_installed` >= 1), and that
# every site runs in the epoch the restarted sequencer's seal–probe–unseal
# opened (`sequencer_epoch` == 3). This is the
# end-to-end proof that the runtime binding — TcpTransport, TimerWheel,
# thread-pool strands, WAL replay, incarnation-based order-hole healing and
# snapshot catch-up below the peers' trimmed history — works outside the
# simulator.
#
# Usage:
#   scripts/run_esrd_smoke.sh [base-port]   # default: a random high port
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${1:-$((20000 + RANDOM % 20000))}"
P0=$BASE; P1=$((BASE + 1)); P2=$((BASE + 2))
PEERS="127.0.0.1:${P0},127.0.0.1:${P1},127.0.0.1:${P2}"

cmake -B build -S .
cmake --build build -j "$(nproc)" --target esrd

DIR=$(mktemp -d /tmp/esrd_smoke_XXXXXX)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

spawn() {  # spawn <site> <duration_s>
  local site=$1 dur=$2
  build/examples/esrd --site="$site" --peers="$PEERS" --sequencer-site=0 \
    --data-dir="$DIR/site_$site" --workload-rate=200 --duration-s="$dur" \
    --retry-ms=50 --status-file="$DIR/status_$site.json" \
    >>"$DIR/esrd_$site.log" 2>&1 &
  PIDS[$site]=$!
}

spawn 0 10
spawn 1 10
spawn 2 10
echo "esrd smoke: 3 sites up (ports $P0 $P1 $P2), dir $DIR"

sleep 2
echo "esrd smoke: SIGKILL follower site 2"
kill -9 "${PIDS[2]}"
wait "${PIDS[2]}" 2>/dev/null || true
sleep 0.5
spawn 2 7   # restarts over the same WAL
echo "esrd smoke: site 2 restarted over its WAL"

sleep 2.5
echo "esrd smoke: SIGKILL follower site 2 again"
kill -9 "${PIDS[2]}"
wait "${PIDS[2]}" 2>/dev/null || true
rm -rf "$DIR/site_2"
sleep 0.5
# Nothing to replay: the peers have trimmed their history below their
# stable watermarks, so only a snapshot can bring this site back.
spawn 2 4.5   # finishes with the others
echo "esrd smoke: site 2 restarted with its data directory wiped"

sleep 1.5
echo "esrd smoke: SIGKILL sequencer site 0"
kill -9 "${PIDS[0]}"
wait "${PIDS[0]}" 2>/dev/null || true
sleep 0.5
# The restarted order server comes up sealed and probes sites 1 and 2
# before it grants again, in epoch 3.
spawn 0 2.5   # finishes with the others
echo "esrd smoke: site 0 restarted over its WAL"

FAIL=0
for site in 0 1 2; do
  if ! wait "${PIDS[$site]}"; then
    echo "esrd smoke: site $site did not drain cleanly"
    FAIL=1
  fi
done
trap - EXIT

digest() {
  sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' "$DIR/status_$1.json"
}
D0=$(digest 0); D1=$(digest 1); D2=$(digest 2)
echo "esrd smoke: digests $D0 $D1 $D2"
[[ -n "$D0" && "$D0" == "$D1" && "$D1" == "$D2" ]] || {
  echo "esrd smoke: digests diverged (logs in $DIR)"
  exit 1
}
[[ "$FAIL" -eq 0 ]] || { echo "esrd smoke: drain failure (logs in $DIR)"; exit 1; }
# Stability must reach every process: the linger after each drain (750 ms)
# outlasts the 50 ms retry interval that carries the final watermarks.
field() {  # field <site> <numeric status key>
  sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p" "$DIR/status_$1.json"
}
for site in 0 1 2; do
  W=$(field "$site" applied_watermark); S=$(field "$site" stable)
  H=$(field "$site" history_msets)
  echo "esrd smoke: site $site watermark $W stable $S history $H"
  [[ -n "$W" && "$W" == "$S" ]] || {
    echo "esrd smoke: site $site stable $S short of watermark $W (logs in $DIR)"
    exit 1
  }
  # Stable equals applied, so every applied MSet was trimmed.
  [[ "$H" == "0" ]] || {
    echo "esrd smoke: site $site still holds $H MSets (logs in $DIR)"
    exit 1
  }
  E=$(field "$site" sequencer_epoch)
  [[ "$E" == "3" ]] || {
    echo "esrd smoke: site $site in sequencer epoch $E, not 3 (logs in $DIR)"
    exit 1
  }
done
SNAP=$(field 2 snapshots_installed)
echo "esrd smoke: site 2 installed ${SNAP:-0} snapshot(s)"
[[ -n "$SNAP" && "$SNAP" -ge 1 ]] || {
  echo "esrd smoke: wiped site 2 did not catch up by snapshot (logs in $DIR)"
  exit 1
}
rm -rf "$DIR"
echo "esrd smoke: OK"
