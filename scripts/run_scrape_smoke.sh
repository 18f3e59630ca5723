#!/usr/bin/env bash
# Scrape smoke gate: starts a long-running esrsim with the live metrics
# endpoint enabled, scrapes /metrics twice over loopback, and asserts the
# exposition is present, carries the core series, and that both the
# workload counters and the exporter's own scrape counter advance between
# scrapes. Exercises the exact deployment shape documented in README.md
# (esrsim --serve-metrics-port=N --run-forever + an external scraper).
#
# Usage:
#   scripts/run_scrape_smoke.sh [port]   # default port 9464
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-9464}"

cmake -B build -S .
cmake --build build -j "$(nproc)" --target esrsim

build/examples/esrsim --method=commu --sites=3 --duration-ms=200 \
  --serve-metrics-port="$PORT" --metrics-publish-ms=50 --run-forever \
  >/tmp/esrsim_scrape_smoke.log 2>&1 &
SIM_PID=$!
trap 'kill "$SIM_PID" 2>/dev/null || true' EXIT

# Pull one series' value out of an exposition (prints -1 when absent).
series_value() {
  awk -v name="$2" '$1 == name { print int($2); found = 1 }
                    END { if (!found) print -1 }' <<<"$1"
}

# Wait for the endpoint to come up (the sim prints the URL on stdout).
scrape1=""
for _ in $(seq 1 50); do
  if scrape1=$(curl -fsS "http://127.0.0.1:${PORT}/metrics" 2>/dev/null); then
    break
  fi
  sleep 0.1
done
[[ -n "$scrape1" ]] || { echo "scrape smoke: endpoint never came up"; exit 1; }

sleep 1
scrape2=$(curl -fsS "http://127.0.0.1:${PORT}/metrics")

for body in "$scrape1" "$scrape2"; do
  grep -q '^esr_info' <<<"$body" || { echo "scrape smoke: no esr_info"; exit 1; }
  grep -q '^# TYPE esr_updates_submitted_total counter' <<<"$body" \
    || { echo "scrape smoke: missing updates counter TYPE"; exit 1; }
done

sub1=$(series_value "$scrape1" esr_updates_submitted_total)
sub2=$(series_value "$scrape2" esr_updates_submitted_total)
scr1=$(series_value "$scrape1" esr_exporter_scrapes_total)
scr2=$(series_value "$scrape2" esr_exporter_scrapes_total)
seq1=$(series_value "$scrape1" esr_exporter_snapshot_sequence)
seq2=$(series_value "$scrape2" esr_exporter_snapshot_sequence)
echo "updates_submitted: $sub1 -> $sub2, exporter_scrapes: $scr1 -> $scr2," \
     "snapshot_sequence: $seq1 -> $seq2"
(( sub2 > sub1 )) || { echo "scrape smoke: workload counter did not advance"; exit 1; }
(( scr2 > scr1 )) || { echo "scrape smoke: scrape counter did not advance"; exit 1; }
# The publish sequence must be present and strictly monotone across
# scrapes (the sim publishes every --metrics-publish-ms of simulated time,
# far more than once per wall second here).
(( seq1 >= 1 )) || { echo "scrape smoke: no snapshot sequence"; exit 1; }
(( seq2 > seq1 )) || { echo "scrape smoke: snapshot sequence not monotone"; exit 1; }

kill -TERM "$SIM_PID"
wait "$SIM_PID" || { echo "scrape smoke: esrsim did not exit cleanly"; exit 1; }
trap - EXIT
grep -q 'converged=yes' /tmp/esrsim_scrape_smoke.log \
  || { echo "scrape smoke: drained session did not converge"; exit 1; }
echo "scrape smoke: OK"
