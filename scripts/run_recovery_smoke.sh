#!/usr/bin/env bash
# Recovery smoke gate: runs bench_recovery at two checkpoint intervals —
# 10 ms (a checkpoint covers the crash; short WAL replay) and 160 ms (no
# checkpoint before the crash; recovery rides WAL replay + anti-entropy
# catch-up) — and asserts the bench's post-recovery verdict: every run must
# converge AND pass the 1SR check (analysis::CheckUpdateSerializability
# over the recorded history). bench_recovery exits non-zero and prints
# FAIL on any violation; the grep below is belt and braces.
#
# Usage:
#   scripts/run_recovery_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)" --target bench_recovery

out=$(build/bench/bench_recovery 10000 160000)
echo "$out"
grep -q '^PASS' <<<"$out"
echo "recovery smoke: OK"
