#!/usr/bin/env bash
# Trace smoke gate: starts a long-running esrsim with hop tracing and the
# live endpoint enabled, curls GET /traces over loopback, and asserts the
# payload is well-formed waterfall JSON (array of ET objects carrying
# telescoped segments) while the simulation keeps running. Exercises the
# deployment shape documented in README.md (esrsim --run-forever
# --trace-ets=N + an external consumer of /traces).
#
# Usage:
#   scripts/run_trace_smoke.sh [port]   # default port 9465
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-9465}"

cmake -B build -S .
cmake --build build -j "$(nproc)" --target esrsim

build/examples/esrsim --method=ordup --sites=3 --duration-ms=200 \
  --trace-ets=64 --serve-metrics-port="$PORT" --metrics-publish-ms=50 \
  --run-forever >/tmp/esrsim_trace_smoke.log 2>&1 &
SIM_PID=$!
trap 'kill "$SIM_PID" 2>/dev/null || true' EXIT

# Wait for the endpoint, then for the first completed waterfalls to show
# up in the published snapshot (the payload is "[]" until an update ET
# reaches stability and a publish tick fires).
body=""
for _ in $(seq 1 100); do
  if body=$(curl -fsS "http://127.0.0.1:${PORT}/traces" 2>/dev/null) \
     && [[ "$body" == \[\{* ]]; then
    break
  fi
  sleep 0.1
done
[[ -n "$body" ]] || { echo "trace smoke: endpoint never came up"; exit 1; }
[[ "$body" == \[\{* ]] || { echo "trace smoke: no waterfalls published: $body"; exit 1; }

# Structural checks on the waterfall JSON.
for field in '"et":' '"segments":' '"commit_to_stable_us":' '"hops":' \
             '"sequencer_rtt"' '"stability_fan_in"'; do
  grep -qF "$field" <<<"$body" \
    || { echo "trace smoke: payload missing $field"; exit 1; }
done
case "$body" in
  *]) ;;
  *) echo "trace smoke: payload is not a closed JSON array"; exit 1 ;;
esac

# /metrics must still be served alongside /traces from the same listener.
curl -fsS "http://127.0.0.1:${PORT}/metrics" | grep -q '^esr_info' \
  || { echo "trace smoke: /metrics broke"; exit 1; }

# A second scrape should still answer promptly (the sim thread never
# blocks on the exporter; the exporter serves immutable snapshots).
curl -fsS --max-time 2 "http://127.0.0.1:${PORT}/traces" >/dev/null \
  || { echo "trace smoke: second /traces scrape failed"; exit 1; }

kill -TERM "$SIM_PID"
wait "$SIM_PID" || { echo "trace smoke: esrsim did not exit cleanly"; exit 1; }
trap - EXIT
grep -q 'converged=yes' /tmp/esrsim_trace_smoke.log \
  || { echo "trace smoke: drained session did not converge"; exit 1; }
echo "trace smoke: OK"
