#ifndef ESR_ESR_CONFIG_H_
#define ESR_ESR_CONFIG_H_

#include <cstdint>
#include <string>

#include "recovery/recovery_config.h"
#include "shard/placement_map.h"
#include "sim/network.h"

namespace esr::core {

/// Which replica control method (or synchronous baseline) a
/// ReplicatedSystem runs.
enum class Method {
  /// Ordered updates: MSets executed in one global order everywhere;
  /// queries asynchronous (paper section 3.1). Ordering via the
  /// centralized order server.
  kOrdup,
  /// ORDUP's decentralized variant (same section: "we may use a
  /// Lamport-style global timestamp to mark the ordering"): the total
  /// order is the Lamport-timestamp order, and a site releases an MSet
  /// once every origin's clock watermark has passed its timestamp. No
  /// order server; commits are fully local, releases wait on watermarks.
  kOrdupTs,
  /// Commutative operations: updates and queries fully asynchronous;
  /// admission restricted to commuting operation classes (section 3.2).
  kCommu,
  /// Read-independent timestamped updates, multi-version mode with VTNC
  /// visibility (section 3.3).
  kRituMulti,
  /// RITU single-version overwrite mode (Thomas write rule); divergence
  /// bounding "reduces to COMMU" (section 3.3).
  kRituSingle,
  /// Compensation-based backward method, unordered (commutative) mode
  /// (section 4).
  kCompe,
  /// COMPE over a global total order: admits non-commutative operations;
  /// aborts roll back the log suffix and replay (section 4.2).
  kCompeOrdered,
  /// Synchronous baseline: read-one/write-all with two-phase commit.
  kSync2pc,
  /// Synchronous baseline: weighted-voting quorums (Gifford).
  kSyncQuorum,
  /// Related-work baseline: quasi-copies (Alonso/Barbara/Garcia-Molina,
  /// paper section 5.2). All updates execute 1SR at a primary site;
  /// read-only cached copies lag behind, refreshed when a per-object
  /// version-lag bound (or a timer) triggers. Inconsistency comes only
  /// from cache lag — there is no per-query epsilon control.
  kQuasiCopy,
};

std::string_view MethodToString(Method method);

/// Closed-loop adaptive epsilon admission (paper section 3.2: limiting the
/// inconsistency budget gives queries "a better chance of completion" —
/// here the budget is tuned from observed divergence instead of fixed).
///
/// The controller keeps one *scale* in [0, 1] per site. A new query ET
/// declaring bounds [min, max] is admitted with
///
///   effective = min + round(scale * (max - min))
///
/// and the scale moves on a fixed simulated-time sampling tick:
///
///   * *loosen* (toward the declared max) when queries at the site blocked
///     (COMMU/RITU kUnavailable attempts) or restarted (ORDUP strict
///     restarts) since the last tick;
///   * *tighten* (toward the declared min) when queries completed with low
///     mean epsilon utilization while the site's MSet backlog and the
///     observed replica divergence are calm — consistency is currently
///     free, so take it;
///   * hold otherwise.
///
/// The tick period, the steps and the thresholds are the constants of
/// AdmissionController (admission.h).
///
/// All inputs are sampled from simulated-time state (the PR-1 metrics
/// feeds: epsilon utilization, replica divergence, MSet queue depth), so a
/// (SystemConfig, seed) pair still fully determines the execution.
struct AdmissionConfig {
  /// Master switch; off = every query runs at its declared max epsilon.
  bool enabled = false;
  /// Starting scale: 0 admits at the declared min (tight; "approaching 1SR
  /// for free" until the loop observes pressure), 1 at the declared max.
  double initial_scale = 0.0;
  /// Min bound paired with the declared epsilon by the two-argument
  /// BeginQuery overload (per-query bounds override it).
  int64_t default_min_epsilon = 0;
};

/// Whole-system configuration. A (SystemConfig, seed) pair fully determines
/// a simulated execution.
struct SystemConfig {
  int num_sites = 3;
  Method method = Method::kOrdup;
  uint64_t seed = 42;

  sim::NetworkConfig network;

  /// Site hosting the centralized order server (ORDUP, COMPE-ordered).
  SiteId sequencer_site = 0;

  /// Standby order server site: kept sealed (refuses grants) until the
  /// failure injector reports the active sequencer site down, then takes
  /// over via seal–probe–unseal in a fresh epoch. kInvalidSiteId (default)
  /// disables failover — a sequencer crash stalls ordering until restart.
  SiteId sequencer_standby = kInvalidSiteId;

  /// Group sequencing: a site's SequencerClient coalesces concurrent order
  /// requests and flushes a contiguous-block request once `seq_batch_max`
  /// are queued or `seq_batch_linger_us` after the first, whichever comes
  /// first. (1, 0) — the defaults — reproduce the original
  /// one-grant-per-round-trip behavior exactly.
  int32_t seq_batch_max = 1;
  SimDuration seq_batch_linger_us = 0;

  /// Modeled per-request-message service time at the order server (the
  /// sequencer as a single-server queue). 0 = infinitely fast server, the
  /// original behavior; > 0 makes the sequencer a contended resource whose
  /// load batching amortizes.
  SimDuration seq_service_us = 0;

  /// Delay between the failure injector reporting the sequencer site down
  /// and the standby starting its takeover (models failure detection).
  SimDuration seq_failover_detect_us = 10'000;

  /// COMMU: when > 0, an update ET must wait (kUnavailable at submit) while
  /// any of its objects' lock-counters is at or above this limit — the
  /// paper's "limit the update ETs in addition to query ETs" option.
  int64_t commu_update_lock_limit = 0;

  /// ORDUP: give every query ET its own global order number from the
  /// sequencer (paper section 3.1: "if these are ordered the same way as
  /// the update ETs, then the overlap will be empty, yielding an SRlog").
  /// A sequenced query waits until its site's applied watermark reaches its
  /// position, reads there with zero inconsistency, and releases its
  /// position (a no-op MSet) when it ends. Other sites skip the query's
  /// position immediately. Off by default: queries pin the local watermark
  /// instead (no coordination).
  bool ordup_sequenced_queries = false;

  /// Hash partitions of each site's store (rounded up to a power of two).
  /// Digests are partition-count-invariant, so any value preserves the
  /// determinism digests. The real runtime defaults higher
  /// (OrdupNodeConfig) — in the sim only scan locality changes.
  int store_partitions = 1;

  /// Stability-driven version GC (RITU-multi): on each VTNC advance a site
  /// prunes versions strictly below min(VTNC, oldest active query pin),
  /// keeping each chain's newest at-or-below version so pinned snapshot
  /// reads stay servable. Off by default: sites prune at independently-
  /// advancing VTNCs, so full-state digests diverge transiently —
  /// Converged() switches to the GC-invariant latest-version digest when
  /// this is on.
  bool version_gc = false;

  /// Period of Lamport-clock heartbeats that advance VTNC watermarks
  /// (0 disables; RITU-multi wants them on).
  SimDuration heartbeat_interval_us = 50'000;

  /// Closed-loop adaptive epsilon admission (see AdmissionConfig).
  AdmissionConfig admission;

  /// Record every event into the history recorder (disable for very long
  /// benchmark runs where only counters matter).
  bool record_history = true;

  /// Hop-level causal tracing (the EtTracer's hop side): record
  /// per-message hop spans — stable-queue deliveries, sequencer round
  /// trips, total-order waits, catch-up exchanges — for the critical-path
  /// waterfall analyzer. Off by default; when off the stable queues and
  /// sequencer clients get no tracer, so the per-message hot path is
  /// untouched.
  bool record_hops = false;

  /// Completed hop traces kept (FIFO ring, oldest evicted) when
  /// record_hops is on. Sizes /traces and the waterfall reports.
  int64_t trace_max_ets = 512;

  /// --- Live metrics scrape endpoint ---------------------------------------
  /// TCP port for the pull-based Prometheus HTTP exporter (obs::HttpExporter
  /// serving GET /metrics and GET /healthz on a loopback socket from its own
  /// thread). -1 disables (default); 0 binds an OS-assigned ephemeral port
  /// (read it back via ReplicatedSystem::metrics_exporter()->port()).
  int metrics_port = -1;

  /// Simulated-time cadence of PublishMetricsSnapshot(): how often the sim
  /// loop renders a fresh exposition and hands it to the exporter thread.
  /// 0 disables the periodic publisher (explicit PublishMetricsSnapshot()
  /// calls still work). Only meaningful with metrics_port >= 0.
  SimDuration metrics_publish_interval_us = 100'000;

  /// Partial replication (src/shard/): shard.num_shards > 1 partitions the
  /// object universe across per-shard replica sets of
  /// shard.replication_factor owner sites each. Updates, apply-acks and
  /// stability notices route to owner sites only; ordering runs one
  /// sequencer per shard. ORDUP only (asserted at facade construction);
  /// the default (1 shard) preserves the fully-replicated behavior and its
  /// determinism digests exactly.
  shard::ShardConfig shard;

  /// Durable checkpoint + WAL recovery (src/recovery/). Off by default;
  /// when enabled every site logs delivered MSets and protocol decisions
  /// ahead of application, takes periodic fuzzy checkpoints, and an
  /// amnesia-crashed site rebuilds via checkpoint + WAL replay + anti-
  /// entropy catch-up instead of resuming with frozen volatile state.
  recovery::RecoveryConfig recovery;

  /// --- Quasi-copies baseline ----------------------------------------------
  /// Refresh a cached object after this many primary updates to it (the
  /// "version condition" closeness predicate). 1 = eager refresh.
  int64_t quasi_version_lag = 1;
  /// Additional periodic refresh of all dirty objects (0 disables; the
  /// "delay condition"). Runs on its own timer at exactly this period,
  /// independent of heartbeats.
  SimDuration quasi_refresh_interval_us = 0;
};

}  // namespace esr::core

#endif  // ESR_ESR_CONFIG_H_
