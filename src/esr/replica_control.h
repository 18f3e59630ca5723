#ifndef ESR_ESR_REPLICA_CONTROL_H_
#define ESR_ESR_REPLICA_CONTROL_H_

#include <any>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/history.h"
#include "common/status.h"
#include "common/types.h"
#include "common/value.h"
#include "esr/config.h"
#include "esr/mset.h"
#include "esr/object_class_registry.h"
#include "esr/query_state.h"
#include "esr/stability_tracker.h"
#include "msg/lamport_clock.h"
#include "msg/mailbox.h"
#include "obs/et_tracer.h"
#include "obs/metric_registry.h"
#include "recovery/checkpointer.h"
#include "msg/sequencer.h"
#include "msg/stable_queue.h"
#include "runtime/interfaces.h"
#include "store/mset_log.h"
#include "store/mv_store.h"

namespace esr::recovery {
class SiteRecovery;
}  // namespace esr::recovery

namespace esr::core {

/// Order-service id of the global order server. Each placement shard's
/// order service is identified by its ShardId (0, 1, ...).
constexpr ShardId kGlobalOrder = -1;

/// Everything a per-site replica control method instance needs. All
/// pointers are owned by the ReplicatedSystem facade and outlive the method.
struct MethodContext {
  SiteId site = kInvalidSiteId;
  int num_sites = 0;
  /// Time source for history, tracer and hop timestamps (the simulator
  /// under the sim facade).
  runtime::Clock* simulator = nullptr;
  msg::Mailbox* mailbox = nullptr;
  msg::StableQueueManager* queues = nullptr;
  msg::LamportClock* clock = nullptr;
  msg::SequencerClient* sequencer = nullptr;
  StabilityTracker* stability = nullptr;
  /// The site's store: RITU-MV uses its version chains, every other
  /// method its single current value per object.
  store::MvStore* store = nullptr;
  store::MsetLog* mset_log = nullptr;
  ObjectClassRegistry* registry = nullptr;  // shared, schema-level
  analysis::HistoryRecorder* history = nullptr;  // shared
  obs::MetricRegistry* metrics = nullptr;        // shared, required
  obs::EtTracer* tracer = nullptr;               // shared
  const SystemConfig* config = nullptr;
  /// Per-site durability handle; null unless SystemConfig::recovery.enabled.
  /// Methods call its Log*/AlreadyApplied hooks at their message-processing
  /// points; it is owned by the RecoveryManager (outside the site), so it
  /// survives amnesia crashes.
  recovery::SiteRecovery* recovery = nullptr;
  /// Partial replication: the deterministic object -> shard -> owner-set
  /// map, shared across sites. Null (default) = fully replicated; non-null
  /// switches MSet/ack/stability routing to owner sites and ORDUP to
  /// per-shard order services.
  const shard::PlacementMap* placement = nullptr;
  /// Per-shard sequencer clients of this site, indexed by ShardId. Empty
  /// unless placement is set (then `sequencer` above is unused).
  std::vector<msg::SequencerClient*> shard_sequencers;
  /// Iterates the query ETs currently active at this site (COMPE uses this
  /// to charge queries affected by a compensation).
  std::function<void(const std::function<void(QueryState&)>&)>
      for_each_active_query;
};

/// Completion callback of an update ET submission. For asynchronous methods
/// it fires at *local* commit (ordering assigned, MSets queued durably);
/// remote propagation continues in the background — that asymmetry versus
/// the synchronous baselines is the paper's whole point.
using CommitFn = std::function<void(Status)>;

/// Base class of the per-site replica control method instances.
///
/// The base owns the MSet pipeline every forward/backward method shares
/// (paper §2.2): the local-commit step at the origin (CommitLocal), the
/// receive path with its recovery gate (DeliverMset), reliable MSet
/// broadcast, apply-acknowledgment, stability notices and clock gossip.
/// A method supplies the strategy points (Table 1): admission, the
/// ordering prelude of SubmitUpdate, the processing rule of an MSet
/// (ProcessMset), and divergence-bounded query reads.
class ReplicaControlMethod {
 public:
  explicit ReplicaControlMethod(MethodContext ctx);
  virtual ~ReplicaControlMethod() = default;

  ReplicaControlMethod(const ReplicaControlMethod&) = delete;
  ReplicaControlMethod& operator=(const ReplicaControlMethod&) = delete;

  /// Admission check: may `ops` run under this method? (COMMU:
  /// commutativity classes; RITU: read independence.) Called at the origin
  /// before SubmitUpdate.
  virtual Status AdmitUpdate(const std::vector<store::Operation>& ops);

  /// Commits an update ET at this (origin) site: assigns ordering metadata,
  /// runs CommitLocal, applies locally per the method's processing rule,
  /// and completes `done`.
  virtual void SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                            CommitFn done) = 0;

  /// An MSet reached this site: a stable-queue delivery (the kMsetMsg
  /// handler), a WAL replay or a catch-up response. Runs the recovery gate,
  /// then the method's ProcessMset unless the gate skipped the MSet.
  void DeliverMset(const Mset& mset);

  /// Divergence-bounded query read. Returns the value, or kUnavailable
  /// (retry later: the condition clears as the system progresses), or
  /// kInconsistencyLimit (this attempt can never proceed within epsilon;
  /// the caller restarts the query in strict mode).
  virtual Result<Value> TryQueryRead(QueryState& query, ObjectId object) = 0;

  /// A query ET started at this site (default: no-op).
  virtual void OnQueryBegin(QueryState& query);

  /// A query ET finished at this site (release pauses etc.; default no-op).
  virtual void OnQueryEnd(QueryState& query);

  /// A query ET at this site hit kInconsistencyLimit and is about to be
  /// strict-restarted via QueryState::ResetForRestart(). Unlike OnQueryEnd
  /// the query is *not* over: methods must release per-attempt resources
  /// (ORDUP/ORDUP-TS: the applier pause) but keep identity-scoped state
  /// such as a sequenced-ORDUP order position. Default: no-op.
  virtual void OnQueryRestart(QueryState& query);

  /// COMPE only: the global outcome of a tentative update ET originated at
  /// this site. Default: error (forward methods take no decisions).
  virtual Status SubmitDecision(EtId et, bool commit);

  /// An update ET became stable at this site (applied everywhere).
  virtual void OnStable(EtId et);

  /// Checkpoint support: fills / reads back the checkpoint fields the
  /// method owns — `cut.order_watermark` (ORDUP/COMPE-ORD total-order
  /// position), `cut.shard_watermarks` (sharded ORDUP), `apply_count` (the
  /// ORDUP and ORDUP-TS apply ledger) and COMPE's decision lists. Default:
  /// nothing to carry.
  virtual void SnapshotDurable(recovery::CheckpointData& /*out*/) const {}
  virtual void RestoreDurable(const recovery::CheckpointData& /*in*/) {}

  /// WAL replay of an MSet already reflected in the checkpoint being
  /// restored: the store effects are present, but volatile divergence
  /// bookkeeping may need rebuilding (COMMU lock counters for unstable
  /// ETs). Default: no-op.
  virtual void OnReplayReflected(const Mset& mset);

  /// WAL replay of a COMPE commit/abort decision (duplicate-tolerant).
  /// Default: no-op (only COMPE logs decisions).
  virtual void ReplayDecision(EtId et, bool commit);

  /// Position `seq` of order service `service` (kGlobalOrder or a shard
  /// id), granted to this site, was orphaned by an amnesia crash (the
  /// requesting update died with the site). Ordered methods release it as
  /// a no-op so that service's total order keeps no gap. Default: no-op.
  virtual void ReleaseOrphanPosition(ShardId /*service*/,
                                     SequenceNumber /*seq*/) {}

  /// Highest position of order service `service` this site has observed at
  /// the protocol layer (applied or held back), independent of its
  /// sequencer client's own grants. A sequencer takeover probes this to
  /// recover the grant high watermark. Methods that consume no order from
  /// the service return 0.
  virtual SequenceNumber MaxOrderSeen(ShardId /*service*/) const {
    return 0;
  }

 protected:
  /// Reliable propagation of an MSet to MsetTargets(mset).
  void PropagateMset(const Mset& mset);

  /// The sites that apply an MSet: every site when fully replicated, the
  /// owner sites of its shards under partial replication (the MSet carries
  /// shard_positions and ctx_.placement is set). Sorted.
  std::vector<SiteId> MsetReplicas(const Mset& mset) const;

  /// The sites an MSet is delivered to: its replicas other than this one.
  std::vector<SiteId> MsetTargets(const Mset& mset) const;

  /// Starts the stability record of this site's own update `mset` (the
  /// stability notice later goes to the same replicas and nowhere else).
  /// A no-op for other origins' MSets, no-op fillers, and ETs already
  /// tracked or stable.
  void TrackOutgoing(const Mset& mset);

  /// The local-commit step of this site's own update, run once its
  /// ordering metadata is assigned: starts its stability record, records
  /// the commit in the history (its order is the global position, or the
  /// first shard position, or 0), marks it committed for the tracer before
  /// the enqueue span, propagates it and counts it. The method then applies
  /// it by its own rule and completes the submission. A tentative (COMPE)
  /// update is not tracked here: its origin tracks it at submit, because
  /// an abort may arrive before the order grant and drops the record for
  /// good.
  void CommitLocal(const Mset& mset);

  /// The method's processing rule for an MSet that passed the recovery
  /// gate: apply it now, or hold it until its order allows.
  virtual void ProcessMset(const Mset& mset) = 0;

  /// Records a local application in the history and runs the
  /// ack/stability protocol for it. Call after the method applied the
  /// MSet's operations by its own rule.
  void RecordApplied(const Mset& mset);

  /// Records a read served at this site in the history, when enabled:
  /// `inc` is its charge and `site_apply_index` the site's apply position
  /// at read time. The pin is `query.order_pin`, which only ORDUP sets.
  void RecordRead(const QueryState& query, ObjectId object, const Value& v,
                  int64_t inc, int64_t site_apply_index);

  /// Applies the history holds for this site (for methods with no index).
  int64_t HistoryApplyCount() const {
    return static_cast<int64_t>(ctx_.history->site_applies(ctx_.site).size());
  }

  /// Sends this site's Lamport clock to everyone (heartbeat); scheduled
  /// periodically by the facade.
  void SendHeartbeat();

  /// True when `et`'s stability notice may be broadcast once all acks are
  /// in. COMPE overrides: tentative updates must also be decided-commit.
  virtual bool ReadyForStable(EtId et);

  /// Sends `et`'s stability notice once ReadyForStable allows it (called
  /// when acks complete, and by COMPE when a commit decision unblocks an
  /// already-fully-acked ET).
  void MaybeBroadcastStable(EtId et);

  /// True while this site is replaying its WAL (shared observability side
  /// effects — history, tracer — are suppressed so recovery does not
  /// double-count applies the pre-crash run already recorded).
  bool InReplay() const;

  /// Called after an incoming heartbeat or stability notice advanced the
  /// per-origin clock watermarks. Watermark-driven methods (ORDUP-TS)
  /// override to re-check their release conditions. Default: no-op.
  virtual void OnWatermarkAdvance() {}

 public:
  /// Called by the facade while draining to quiescence: push out anything
  /// the method batches (quasi-copies flushes lagging cache refreshes).
  /// Default: no-op.
  virtual void OnQuiesceFlush() {}

  /// Periodic method-owned timer tick, scheduled by the facade at
  /// SystemConfig::quasi_refresh_interval_us independently of heartbeats.
  /// Quasi-copies implements the "delay condition" here. Default: no-op.
  virtual void OnRefreshTimer() {}

 protected:

  MethodContext ctx_;
  /// The method's esr.* and quasi.* events, as `esr_events_total{event}`.
  obs::EventFamily events_{*ctx_.metrics, "esr_events_total"};

 private:
  friend class ReplicatedSystem;

  /// Recovery gate of DeliverMset: returns true when the delivery must be
  /// skipped — a post-recovery duplicate of an MSet this site already
  /// applied, or a foreground delivery parked until the catch-up exchange
  /// completes (see SiteRecovery::MaybeHoldDelivery). Otherwise writes the
  /// MSet to the WAL (a no-op during replay) and returns false.
  bool RecoveryFilterDelivery(const Mset& mset);

  void OnApplyAckMsg(SiteId source, const std::any& body);
  void OnStableMsg(SiteId source, const std::any& body);
  void OnHeartbeatMsg(SiteId source, const std::any& body);
};

/// Factory: builds the method instance for `config.method` at one site.
/// Synchronous baselines are not built here (the facade wires cc::
/// engines directly).
std::unique_ptr<ReplicaControlMethod> MakeMethod(const MethodContext& ctx);

}  // namespace esr::core

#endif  // ESR_ESR_REPLICA_CONTROL_H_
