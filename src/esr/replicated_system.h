#ifndef ESR_ESR_REPLICATED_SYSTEM_H_
#define ESR_ESR_REPLICATED_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/history.h"
#include "cc/quorum.h"
#include "cc/two_phase_commit.h"
#include "common/status.h"
#include "esr/admission.h"
#include "esr/config.h"
#include "esr/replica_control.h"
#include "obs/et_tracer.h"
#include "obs/metric_registry.h"
#include "recovery/recovery_manager.h"
#include "shard/placement_map.h"
#include "sim/failure_injector.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace esr::obs {
class HttpExporter;
class MetricsSnapshotChannel;
}  // namespace esr::obs

namespace esr::core {

/// Callback receiving a query read's value.
using ReadCallback = std::function<void(Result<Value>)>;

/// The library's top-level object: a simulated distributed system of
/// `config.num_sites` replica sites running one replica control method (or
/// one of the synchronous coherency-control baselines).
///
/// Typical use:
///
///   SystemConfig config;
///   config.method = Method::kCommu;
///   ReplicatedSystem system(config);
///   system.SubmitUpdate(/*origin=*/0, {Operation::Increment(kAcct, 10)});
///   EtId q = system.BeginQuery(/*site=*/2, /*epsilon=*/3);
///   system.Read(q, kAcct, [](Result<Value> v) { ... });
///   system.EndQuery(q);
///   system.RunUntilQuiescent();   // drains propagation
///   assert(system.Converged());
///
/// All calls execute on the simulator's virtual time; nothing blocks the
/// calling thread. Completion callbacks fire from simulator events.
class ReplicatedSystem {
 public:
  explicit ReplicatedSystem(const SystemConfig& config);
  ~ReplicatedSystem();

  ReplicatedSystem(const ReplicatedSystem&) = delete;
  ReplicatedSystem& operator=(const ReplicatedSystem&) = delete;

  const SystemConfig& config() const { return config_; }
  sim::Simulator& simulator() { return simulator_; }
  sim::Network& network() { return *network_; }
  sim::FailureInjector& failures() { return *failures_; }
  analysis::HistoryRecorder& history() { return history_; }
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }
  /// The ET tracer: lifecycle gauges always, hop traces when
  /// config.record_hops.
  obs::EtTracer& tracer() { return tracer_; }
  const obs::EtTracer& tracer() const { return tracer_; }
  /// Null unless config.admission.enabled (and the method is asynchronous).
  const AdmissionController* admission() const { return admission_.get(); }
  /// Null unless config.recovery.enabled (and the method is asynchronous).
  recovery::RecoveryManager* recovery_manager() { return recovery_.get(); }
  const recovery::RecoveryManager* recovery_manager() const {
    return recovery_.get();
  }

  /// --- Update epsilon-transactions ---------------------------------------

  /// Admits and commits an update ET at `origin`. Returns the ET id on
  /// admission; `done` fires at local commit (async methods) or global
  /// commit (sync baselines). Admission failures are returned immediately.
  Result<EtId> SubmitUpdate(SiteId origin, std::vector<store::Operation> ops,
                            CommitFn done = nullptr);

  /// COMPE: announces the global outcome of a tentative update ET. Must be
  /// called from the ET's origin site context.
  Status Decide(EtId et, bool commit);

  /// --- Sagas (COMPE only; paper section 4.2) ------------------------------
  ///
  /// A saga groups tentative update ETs whose decisions are deferred to
  /// the saga's end: "during the saga each step may be uncompensated for.
  /// By clearing the lock-counters only at the end of the entire saga the
  /// query ETs have a conservative estimate (upper bound) of the total
  /// potential inconsistency." EndSaga(commit) finalizes every step;
  /// EndSaga(abort) compensates them in reverse submission order.

  /// Opens a saga whose steps will originate at `origin`.
  Result<EtId> BeginSaga(SiteId origin);

  /// Submits one update ET as the saga's next step (committed
  /// optimistically like any COMPE update; its decision waits for EndSaga).
  Result<EtId> SubmitSagaStep(EtId saga, std::vector<store::Operation> ops,
                              CommitFn done = nullptr);

  /// Decides every step of the saga: all-commit, or all-abort in reverse
  /// order (the classic saga compensation sequence).
  Status EndSaga(EtId saga, bool commit);

  /// --- Query epsilon-transactions ----------------------------------------

  /// Starts a query ET at `site` with inconsistency limit `epsilon` and an
  /// optional value-units limit (the magnitude of in-progress change the
  /// query may ignore; enforced by the counter-based methods COMMU and
  /// RITU-SV, see QueryState::value_epsilon). With adaptive admission
  /// enabled the declared values become the query's *max* bounds and the
  /// min bound is config.admission.default_min_epsilon (clamped to the
  /// declared value).
  EtId BeginQuery(SiteId site, int64_t epsilon = kUnboundedEpsilon,
                  int64_t value_epsilon = kUnboundedEpsilon);

  /// Starts a query ET with explicit per-query admission bounds: the
  /// adaptive controller grants an effective epsilon inside
  /// [bounds.min_epsilon, bounds.max_epsilon] (and likewise for value
  /// units); with the controller disabled the query runs at the max.
  EtId BeginQuery(SiteId site, const QueryBounds& bounds);

  /// Single read attempt; may return kUnavailable (retry later) or
  /// kInconsistencyLimit (restart required). Not supported by the sync
  /// baselines (use Read).
  Result<Value> TryRead(EtId query, ObjectId object);

  /// Read with automatic retry/restart driven by the simulator: retries
  /// kUnavailable every 1 ms of simulated time and transparently
  /// restarts the query in strict mode on kInconsistencyLimit. `done`
  /// always eventually fires with a value (asynchronous methods guarantee
  /// progress at quiescence).
  void Read(EtId query, ObjectId object, ReadCallback done);

  /// Finishes a query ET; releases any pause it holds and records it.
  Status EndQuery(EtId query);

  /// Inspection of a live query's state (null when unknown/finished).
  const QueryState* query_state(EtId query) const;

  /// --- Execution control ---------------------------------------------------

  /// Runs the simulator until no events remain (all propagation, retries
  /// and heartbeats drained). Heartbeats are stopped first so the event
  /// queue can empty.
  void RunUntilQuiescent();

  /// Runs the simulator for `duration` of virtual time.
  void RunFor(SimDuration duration);

  /// --- Observability --------------------------------------------------------

  /// Refreshes the derived gauges that are pulled from component state
  /// rather than pushed on events: per-site transport backlog, outstanding
  /// non-stable ETs, MSet-log depth and compensation totals, network
  /// in-flight datagrams, per-object replica divergence, and convergence.
  void SampleGauges();

  /// SampleGauges() + deterministic Prometheus text exposition of every
  /// instrument. A (SystemConfig, seed) pair produces identical snapshots.
  std::string MetricsSnapshot();

  /// Renders MetricsSnapshot() and publishes it to the exporter's snapshot
  /// channel (no-op with the scrape endpoint disabled). Runs automatically
  /// every config.metrics_publish_interval_us of simulated time while the
  /// simulator advances, and once more when RunUntilQuiescent() drains.
  void PublishMetricsSnapshot();

  /// Recent completed ET waterfalls as a JSON array ("[]" when hop tracing
  /// is off). The same rendering is published to the snapshot channel so
  /// the exporter thread can serve GET /traces without touching sim state.
  std::string TracesJson() const;

  /// Orderly end of the scrape endpoint's life: stops the periodic publish
  /// timer, publishes one final snapshot (so the drained counters are
  /// scrapeable up to the very last instant), then stops the exporter
  /// thread. Idempotent; no-op when the endpoint is disabled. Call this
  /// before tearing the system down while scrapers may still be attached —
  /// relying on destructor order instead races a final in-flight scrape
  /// against member destruction.
  void ShutdownMetricsEndpoint();

  /// Live scrape endpoint (config.metrics_port >= 0); null when disabled
  /// or when the exporter failed to bind.
  obs::HttpExporter* metrics_exporter() { return metrics_exporter_.get(); }
  /// The sim→exporter snapshot handoff cell; null when disabled.
  const obs::MetricsSnapshotChannel* metrics_channel() const {
    return metrics_channel_.get();
  }

  /// --- State inspection ----------------------------------------------------

  /// True when every replica holds identical object state.
  bool Converged() const;

  /// A replica's current value of an object (single-version methods read
  /// the store; RITU-MV reads the latest version; quorum reads the local
  /// versioned replica).
  Value SiteValue(SiteId site, ObjectId object) const;

  uint64_t SiteDigest(SiteId site) const;

  store::MvStore& site_store(SiteId site);
  store::MsetLog& site_mset_log(SiteId site);
  msg::StableQueueManager& site_queues(SiteId site);
  ReplicaControlMethod* site_method(SiteId site);
  cc::TwoPhaseCommitEngine* site_tpc(SiteId site);
  cc::QuorumEngine* site_quorum(SiteId site);

  /// Site currently hosting the active order server (moves on failover).
  SiteId sequencer_home() const {
    return order_services_.empty() ? config_.sequencer_site
                                   : order_services_[0].home;
  }
  /// A site's order-server client (null for the sync baselines).
  msg::SequencerClient* site_seq_client(SiteId site);
  /// The order server hosted at `site` (null unless `site` is the
  /// configured sequencer home or standby).
  msg::SequencerServer* site_seq_server(SiteId site);

  /// --- Partial replication -------------------------------------------------

  /// The placement map; null when config.shard.num_shards <= 1 (full
  /// replication — every pre-sharding behavior, including digests, is
  /// preserved exactly).
  const shard::PlacementMap* placement() const { return placement_.get(); }
  /// Site hosting shard `k`'s active order server (moves on failover).
  SiteId shard_sequencer_home(ShardId shard) const {
    return order_services_[static_cast<size_t>(shard) + 1].home;
  }
  /// A site's order client for shard `k` (null when unsharded).
  msg::SequencerClient* site_shard_seq_client(SiteId site, ShardId shard);

 private:
  struct SiteRuntime;

  bool IsSyncMethod() const {
    return config_.method == Method::kSync2pc ||
           config_.method == Method::kSyncQuorum;
  }
  /// Assembles a site's MethodContext (also used when an amnesia restart
  /// recreates the method instance).
  MethodContext MakeContext(SiteId s);
  /// Installs the per-site recovery bindings, the catch-up message
  /// handlers, and the sequencer orphan handler.
  void BindRecoverySite(SiteId s);
  /// Hangs stability-driven version GC off the site's StabilityTracker
  /// VTNC-advance hook (no-op unless config.version_gc and RITU-MV). Must
  /// be re-run whenever the tracker instance is recreated (amnesia
  /// restart).
  void InstallVersionGc(SiteId s);
  /// Amnesia fault hooks (recovery enabled): the crashed site loses all
  /// volatile state and, on restart, rebuilds via checkpoint + WAL replay +
  /// anti-entropy catch-up.
  void AmnesiaCrash(SiteId s);
  void AmnesiaRestart(SiteId s);
  /// Installs metrics, the service-time model, and the local
  /// high-watermark reader on order service `i`'s server hosted at `s`.
  void ConfigureSeqServer(SiteId s, size_t i);
  /// Arms order service `i`'s standby takeover after its home went down
  /// (fires config_.seq_failover_detect_us later; skipped if the home came
  /// back, the standby is down, or a failover already happened).
  void ScheduleSequencerFailover(size_t i, SiteId down_home);
  /// Partial replication: forwards one divergence-bounded read of a
  /// non-locally-owned object to the first owner of the object's shard.
  void ForwardRead(EtId query, ObjectId object, ReadCallback done);
  /// Registers the owner-side query-forwarding handlers (read request,
  /// response, finish) on site `s`'s mailbox.
  void BindQueryForwarding(SiteId s);
  /// Releases every owner-side shadow of `query` (direct facade cleanup —
  /// used when the origin site can no longer send QueryFinish itself).
  void ReleaseQueryShadows(EtId query);
  /// Currently-up sites except `exclude` (takeover probe targets).
  std::vector<SiteId> UpPeers(SiteId exclude) const;
  /// Schedules `step` after `first`, then again after each delay it
  /// returns, until it returns nullopt. The only self-rescheduling chain in
  /// the facade: every periodic timer and every read retry runs on it.
  void Loop(SimDuration first,
            std::function<std::optional<SimDuration>()> step);
  /// Switches periodic_[i] on and starts its chain; the chain stops at its
  /// first tick after the task is switched off.
  void StartPeriodic(size_t i);
  void SampleAdmissionSignals();
  /// Strict restart: release method-held attempt resources, reset the
  /// query's accounting, bump counters.
  void RestartQuery(QueryState& q);
  void ScheduleReadRetry(EtId query, ObjectId object, ReadCallback done);

  /// One pass over all objects comparing replica values (shared by
  /// SampleGauges and the admission sampler).
  struct DivergenceScan {
    int64_t divergent_objects = 0;
    int64_t max_spread = 0;
  };
  DivergenceScan ScanDivergence(bool export_per_object_gauges);

  /// Class label for an update's first mutated object ("unclassified" when
  /// none is registered) — the object_class tag on hop traces.
  std::string ObjectClassLabel(const std::vector<store::Operation>& ops) const;

  SystemConfig config_;
  /// Declared before every component holding handles into it, so it
  /// outlives them all.
  obs::MetricRegistry metrics_;
  obs::EventFamily events_{metrics_, "esr_events_total"};  // facade events
  sim::Simulator simulator_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<sim::FailureInjector> failures_;
  ObjectClassRegistry registry_;
  analysis::HistoryRecorder history_;
  /// Shared by every site's method instance; with config.record_hops also
  /// installed in every site's stable queues and sequencer client.
  obs::EtTracer tracer_;
  std::vector<std::unique_ptr<SiteRuntime>> sites_;
  /// Partial replication (config_.shard.num_shards > 1, ORDUP only): the
  /// deterministic object -> shard -> owner-set assignment every routing,
  /// ordering, and recovery decision reads. Null when unsharded.
  std::unique_ptr<shard::PlacementMap> placement_;
  /// One centralized order server (paper section 3.1) and where it runs.
  /// Entry 0 of order_services_ is the global server; with partial
  /// replication, entry k + 1 orders placement shard k. Empty for the
  /// sync baselines.
  struct OrderService {
    /// Order-service id (metric label, method hooks): a shard id, or
    /// kGlobalOrder for the global server.
    ShardId shard = kGlobalOrder;
    /// Shifts every sequencer message type so all instances share one
    /// mailbox (kShardSeqTypeBase + k * kShardSeqTypeStride; 0 = global).
    msg::MessageType type_offset = 0;
    /// Site whose server grants: config.sequencer_site or the shard's
    /// first owner, moving to `standby` on failover.
    SiteId home = kInvalidSiteId;
    /// Site of the sealed standby server: config.sequencer_standby or the
    /// shard's second owner (kInvalidSiteId when there is none).
    SiteId standby = kInvalidSiteId;
    /// Durable grant floor (next-to-grant, epoch) staged by the
    /// checkpoint-restore binding for the AmnesiaRestart re-seed; 0/0 when
    /// the restarted site's checkpoint holds none.
    SequenceNumber restored_floor = 0;
    int64_t restored_epoch = 0;
  };
  std::vector<OrderService> order_services_;
  /// One in-flight forwarded read (partial replication).
  struct RemoteRead {
    EtId query = kInvalidEtId;
    SiteId origin = kInvalidSiteId;
    ReadCallback done;
  };
  std::unordered_map<int64_t, RemoteRead> pending_remote_reads_;
  int64_t next_read_request_id_ = 1;
  /// Owner-side shadow query states, keyed by (owner site, query ET). A
  /// shadow accumulates the inconsistency charged at that owner and holds
  /// any strict-read applier pause until QueryFinish releases it.
  std::map<std::pair<SiteId, EtId>, QueryState> shadow_queries_;
  /// Owners each live query has forwarded reads to (QueryFinish fan-out).
  std::unordered_map<EtId, std::vector<SiteId>> forwarded_owners_;
  EtId next_et_ = 1;
  std::unordered_map<EtId, QueryState> active_queries_;
  struct Saga {
    SiteId origin;
    std::vector<EtId> steps;
  };
  std::unordered_map<EtId, Saga> sagas_;
  /// Runs `run` every `interval`, the first time `first` after it starts.
  /// The constructor builds one per configured timer: heartbeats (one per
  /// site, staggered), quasi-copy refresh, admission sampling, checkpoints
  /// and the metrics publisher.
  struct PeriodicTask {
    SimDuration first;
    SimDuration interval;
    std::function<void()> run;
    bool on = false;
  };
  std::vector<PeriodicTask> periodic_;
  /// The metrics publisher's entry, switched off by ShutdownMetricsEndpoint.
  std::optional<size_t> publish_task_;

  /// Live scrape endpoint (config.metrics_port >= 0): the sim loop
  /// publishes immutable snapshots into the channel; the exporter thread
  /// serves them. shared_ptr because the exporter thread outlives any one
  /// snapshot and holds its own reference to the channel.
  std::shared_ptr<obs::MetricsSnapshotChannel> metrics_channel_;
  std::unique_ptr<obs::HttpExporter> metrics_exporter_;

  std::unique_ptr<recovery::RecoveryManager> recovery_;
  std::unique_ptr<AdmissionController> admission_;
  /// Cumulative per-site admission signals from *completed* queries (live
  /// queries are folded in at sample time, so the cumulative view stays
  /// monotone as queries end).
  struct AdmissionTotals {
    int64_t completed = 0;
    double utilization_sum = 0;
    int64_t value_completed = 0;
    double value_utilization_sum = 0;
    int64_t blocked = 0;
    int64_t restarts = 0;
  };
  std::vector<AdmissionTotals> admission_totals_;
  /// The cumulative view at the previous sampling tick (for deltas).
  std::vector<AdmissionTotals> admission_prev_;
};

}  // namespace esr::core

#endif  // ESR_ESR_REPLICATED_SYSTEM_H_
