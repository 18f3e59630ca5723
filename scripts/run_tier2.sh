#!/usr/bin/env bash
# Tier-2 gate: the full tier-1 suite rebuilt under ASan + UBSan with its
# asserts on (-DESR_SANITIZE=ON without -DNDEBUG, separate build dir:
# build-asan), libstdc++ debug-mode and TSan passes over chosen suites, and
# the simulator gates. Run this
# before merging anything that touches src/; it is the recurring home for
# the sanitizer coverage ROADMAP.md calls for.
#
# Usage:
#   scripts/run_tier2.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# halt_on_error keeps UBSan findings from scrolling past as warnings.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
scripts/run_tier1.sh --sanitize

# The durability/recovery suites get an explicit second pass under the
# sanitizers: WAL replay + amnesia restart churn through buffer reuse and
# re-registration paths that deserve the extra repetition. The metrics
# exporter rides along because its scrape thread is the codebase's only
# real concurrency — the snapshot-handoff and shutdown races are exactly
# what ASan/TSan-class tooling exists to catch. The tracing suites join
# the pass because hop recording threads per-message context through every
# transport (bounded-eviction and finalize paths deserve the repetition)
# and /traces shares the exporter's snapshot handoff. The sequencer suites
# join because seal–probe–unseal failover tears down and resurrects order
# servers mid-run — handler re-registration and weak_ptr linger guards are
# classic use-after-free territory. The sharding suites join because
# partial replication tears through the same hazards at once: per-shard
# sequencer failover, owner-crash amnesia recovery, and cross-site query
# shadows whose lifetimes end at three different owners. The runtime suite
# joins because it drives the same protocol through both bindings — and
# the real one (thread pool, strands, timer wheel, TCP) is where lifetime
# bugs hide behind scheduling luck. Its pattern also picks up
# runtime_wire_test, whose decoders read truncated and bit-flipped frames
# from exact-size heap buffers, so ASan reports any over-read.
# The mv_store suites join for the concurrent store: striped-lock
# partitioning and GC's erase-range pruning are pointer-heavy paths worth
# the double run. The hold-back buffer and its four users (ORDUP, the
# runtime's OrdupNode, ordered COMPE and the stable queues) join because all of them release through the buffer's pop-then-deliver
# path: the payload leaves the buffer before a delivery callback runs,
# and that callback may re-enter its owner. The apply ledger joins with
# ORDUP and ORDUP-TS (both matched by 'ordup'): its trim pops two deques
# and erases map entries while pins come and go. The ET tracer's unit
# tests (obs_test) join hop_trace and critical_path: its hop side moves
# traces out of an evictable map into a bounded ring and hands out
# pointers into both. The stability tracker's tests join because its
# origin records are created by acks, restored from checkpoints and
# erased by stability or an abort, and MaybeBroadcastStable reads one
# through a pointer. The network, mailbox, 2PC, quorum, facade and
# exposition suites join because those components hold obs::Counter
# handles into a registry they do not own, so destruction order is a
# use-after-free hazard.
(
  cd build-asan
  ctest --output-on-failure \
    -R 'recovery|failure|http_exporter|hop_trace|critical_path|quantile|sequencer|shard|runtime|mv_store|total_order_buffer|stable_queue|ordup|compe|apply_ledger|obs|stability_tracker|network|mailbox|two_phase_commit|quorum|replicated_system|metrics_exposition' \
    --repeat until-fail:2 -j "$(nproc)"
)

# libstdc++ debug-mode pass (-D_GLIBCXX_DEBUG, separate build dir:
# build-glibcxx-debug) over the sequencer, shard, recovery, network, 2PC,
# quorum and mv_store suites. Its checked iterators abort on any use of an
# invalidated iterator, the class of bug behind the sharded amnesia runaway
# (an entry erased under a range-for over a std::map), which the ASan pass
# cannot see: the map's increment runs inside the uninstrumented libstdc++. The network, 2PC and
# quorum suites join because a site's messages to itself now take the
# network's zero-delay loopback instead of a synchronous call, which moved
# every handler that used to run inside its sender's loop. The mv_store
# suites join for the store's per-role tables: GcBelow erases a range of
# each version chain, and digests and snapshots scan the current,
# write-timestamp and chain tables side by side.
cmake -B build-glibcxx-debug -S . -DCMAKE_CXX_FLAGS=-D_GLIBCXX_DEBUG
cmake --build build-glibcxx-debug -j "$(nproc)" --target sequencer_test \
  sequencer_failover_test shard_test sharding_integration_test \
  recovery_test recovery_integration_test network_test \
  two_phase_commit_test quorum_test mv_store_test mv_store_stress_test
(
  cd build-glibcxx-debug
  ctest --output-on-failure \
    -R 'sequencer|shard|recovery|network|two_phase_commit|quorum|mv_store' \
    -j "$(nproc)"
)

# ThreadSanitizer pass (separate build dir: TSan and ASan cannot share a
# process) over the genuinely multithreaded suites: the runtime binding's
# conformance tests (strand serialization, timer-wheel cancellation, TCP
# delivery, OrdupNode over real threads), the exporter's scrape-thread
# handoff, and the concurrent store's append/read/GC/snapshot stress
# (mv_store_stress_test is written for exactly this pass). Everything else
# is single-threaded simulator code that TSan would only slow down.
cmake -B build-tsan -S . -DESR_SANITIZE_THREAD=ON
cmake --build build-tsan -j "$(nproc)" --target runtime_conformance_test \
  http_exporter_test mv_store_stress_test
(
  cd build-tsan
  ctest --output-on-failure -R 'runtime_conformance|http_exporter|mv_store_stress' \
    --repeat until-fail:2 -j "$(nproc)"
)

# Simulator byte-identity gate: every deterministic simulator output must
# hash as committed (see scripts/sim_fingerprint.sh to regenerate).
scripts/sim_fingerprint.sh build | diff -u scripts/sim_fingerprint.expected -

# Amnesia-recovery gate: every recovering method must pass --verify at
# seeds 1-12, not only at the fingerprint's seed 7.
scripts/sim_sweep.sh build

# Real-socket end-to-end gate: 3-process esrd cluster with a follower
# SIGKILL + WAL restart must drain and converge.
scripts/run_esrd_smoke.sh
