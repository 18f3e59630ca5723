#ifndef ESR_RECOVERY_RECOVERY_MANAGER_H_
#define ESR_RECOVERY_RECOVERY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "esr/mset.h"
#include "msg/mailbox.h"
#include "obs/metric_registry.h"
#include "recovery/applied_cut.h"
#include "recovery/checkpointer.h"
#include "recovery/recovery_config.h"
#include "recovery/storage.h"
#include "recovery/wal.h"
#include "runtime/interfaces.h"

namespace esr::recovery {

/// Anti-entropy catch-up protocol messages (replica-control range 100+;
/// 100..104 are taken by mset.h).
inline constexpr msg::MessageType kCatchupRequestMsg = 105;
inline constexpr msg::MessageType kCatchupResponseMsg = 106;

/// Recovering site -> peer: "send me what I missed". `cut` is what the
/// requester reflects after local replay; `unstable` lists the ETs applied
/// locally but not yet known stable. For those the requester originated,
/// the peer reports which it has applied or knows stable, so the origin can
/// finish their accounting.
struct CatchupRequest {
  SiteId from = kInvalidSiteId;
  /// Monotonically increasing per-requester exchange id. A site that
  /// amnesia-crashes mid-catch-up abandons the exchange; responses to it
  /// may still be retained (and eventually delivered) by the reliable
  /// queues, so the next exchange must be able to tell them apart —
  /// otherwise a stale response would complete the new exchange early and
  /// release held foreground deliveries before the real responses arrive.
  int64_t exchange = 0;
  /// Per-origin applied timestamps and, under partial replication, the
  /// per-shard delivery watermarks (owned shards = stream cursor,
  /// non-owned = INT64_MAX). Its order watermark is 0: unsharded no-op
  /// fillers are always served.
  AppliedCut cut;
  /// ALL ETs applied locally but not known stable, regardless of origin: a
  /// stability notice that died in the requester's unflushed WAL tail is
  /// never re-broadcast, so peers must say which of these they know stable
  /// (otherwise e.g. a re-armed COMMU lock counter would never drain).
  std::vector<std::pair<EtId, LamportTimestamp>> unstable;
};

/// Peer -> recovering site. `complete` is false when the peer has already
/// truncated WAL records the requester would have needed. Truncation waits
/// for every site to hold an MSet durably (see TruncationView), so in
/// practice this flags misconfiguration; it is counted in
/// esr_recovery_incomplete_catchup_total.
struct CatchupResponse {
  SiteId from = kInvalidSiteId;
  /// Echo of CatchupRequest::exchange; responses whose id does not match
  /// the requester's current exchange are ignored.
  int64_t exchange = 0;
  bool complete = true;
  /// MSets past the requester's cut, timestamp-sorted, deduplicated.
  std::vector<core::Mset> msets;
  /// COMPE decisions the peer has logged.
  std::vector<std::pair<EtId, bool>> decisions;
  /// Of the requester's own `unstable` ETs: those this peer has applied
  /// (an apply-ack the origin may have lost).
  std::vector<EtId> acked;
  /// Of the requester's `unstable` ETs: those this peer knows stable.
  std::vector<std::pair<EtId, LamportTimestamp>> stable_known;
};

/// How a recovery run went; exposed for tests and the recovery benchmark.
struct RecoveryReport {
  bool had_checkpoint = false;
  int64_t checkpoint_lsn = 0;
  int64_t replayed_records = 0;
  /// WAL MSets re-delivered through the method (not reflected in ckpt).
  int64_t replayed_msets = 0;
  /// WAL MSets already reflected in the checkpoint (counters rebuilt only).
  int64_t skipped_reflected = 0;
  int64_t catchup_msets = 0;
  SimTime restarted_at = 0;
  /// Simulated time when the last expected catch-up response was applied;
  /// -1 while catch-up is still in flight.
  SimTime catchup_done_at = -1;
};

/// Callbacks the ReplicatedSystem facade installs per site. They are the
/// seam that keeps this subsystem below esr_core in the layering: the
/// facade knows the concrete sites, methods and stability trackers and
/// fills or reads CheckpointData's typed fields through them; this
/// subsystem owns the byte layout and only orchestrates.
struct SiteBindings {
  /// Fills every CheckpointData field except `cut.applied` and `last_lsn`,
  /// which the RecoveryManager sets itself.
  std::function<void(CheckpointData&)> snapshot;
  /// Rebuilds the site from a decoded checkpoint (or a default-constructed
  /// one when no checkpoint exists).
  std::function<void(const CheckpointData&)> restore;
  /// Normal-path MSet delivery (the kMsetMsg handler body). Used both for
  /// WAL replay and catch-up application.
  std::function<void(const core::Mset&)> deliver;
  /// Replay of an MSet already reflected in the checkpoint: methods rebuild
  /// volatile divergence bookkeeping (e.g. COMMU lock counters) only.
  std::function<void(const core::Mset&)> replay_reflected;
  /// COMPE decision replay / catch-up (duplicate-tolerant).
  std::function<void(EtId, bool)> decide;
  /// Origin-side apply-ack replay / catch-up (duplicate-tolerant).
  std::function<void(EtId, SiteId)> ack;
  /// Stability-notice replay / catch-up (duplicate-tolerant).
  std::function<void(EtId, const LamportTimestamp&)> stable;
  /// True when this site knows `et` is globally stable.
  std::function<bool(EtId)> is_stable;
  /// Requester-side: ALL locally-applied-but-unstable ETs (any origin).
  std::function<std::vector<std::pair<EtId, LamportTimestamp>>()> unstable;
  /// Requester-side, partial replication: live per-shard delivery
  /// watermarks (owned = stream cursor, non-owned = INT64_MAX). Unset when
  /// unsharded.
  std::function<std::map<ShardId, SequenceNumber>()> shard_watermarks;
};

class RecoveryManager;

/// Per-site durability handle. Protocol code reaches it through
/// MethodContext::recovery (null when recovery is disabled) and calls the
/// Log* hooks at the same points where the corresponding messages are
/// processed; during WAL replay the hooks are no-ops so replay never
/// re-logs.
class SiteRecovery {
 public:
  bool in_replay() const { return in_replay_; }

  /// True when `mset` is already reflected in this site's state, i.e. its
  /// live applied cut covers it.
  bool AlreadyApplied(const core::Mset& mset) const;

  void LogMset(const core::Mset& mset);
  void LogDecision(EtId et, bool commit);
  void LogAck(EtId et, SiteId replica);
  void LogStable(EtId et, const LamportTimestamp& ts);

  /// Catch-up gate for foreground MSet deliveries. While the catch-up
  /// exchange is in flight, a retransmitted post-outage MSet may arrive
  /// BEFORE the peer response carrying an older one this site lost with its
  /// unflushed WAL tail; applying it would advance the per-origin watermark
  /// past the hole and make the catch-up copy look like a duplicate. So
  /// deliveries are parked here until every response has been applied, then
  /// re-delivered in timestamp order. Returns true when `mset` was parked.
  bool MaybeHoldDelivery(const core::Mset& mset);

  /// Raises the live applied cut; called from RecordApplied.
  void OnApplied(const core::Mset& mset);

  /// True while the site's catch-up exchange is in flight.
  bool catching_up() const { return !catchup_waiting_.empty(); }

  Wal& wal() { return *wal_; }
  const RecoveryReport& report() const { return report_; }

 private:
  friend class RecoveryManager;

  SiteRecovery(SiteId site, int num_sites, std::unique_ptr<Wal> wal);

  SiteId site_;
  std::unique_ptr<Wal> wal_;
  SiteBindings bindings_;
  /// What this site has applied, raised by OnApplied. Its order watermark
  /// stays that of the checkpoint the site last recovered from: Raise
  /// learns no order position, and only WAL replay asks it about fillers.
  AppliedCut applied_;
  /// applied_ as of this site's latest checkpoint, with that checkpoint's
  /// order and per-shard watermarks: the durable part of the cut. Together
  /// with the flushed WAL it bounds what the site can reconstruct after an
  /// amnesia crash, and via the cross-site minimum it is the floor below
  /// which no recovering site still needs a WAL record.
  AppliedCut ckpt_;
  /// Newest per-origin MSet this site has truncated out of its WAL: the
  /// limit of what it can serve to peers.
  AppliedCut dropped_;
  /// ETs whose MSet-log records (tentative, still at rollback risk) are in
  /// this site's latest checkpoint: an amnesia restart re-arms them, so
  /// their COMPE decisions must stay servable from peer WALs.
  std::unordered_set<EtId> ckpt_tentative_ets_;
  bool in_replay_ = false;
  /// Peers whose catch-up response for the current exchange is still
  /// outstanding; empty when no exchange is in flight.
  std::unordered_set<SiteId> catchup_waiting_;
  /// Current exchange id; bumped by every BuildCatchupRequest.
  int64_t catchup_exchange_ = 0;
  /// True while ApplyCatchupResponse feeds MSets through the method (those
  /// must bypass the MaybeHoldDelivery gate that parks foreground traffic).
  bool applying_catchup_ = false;
  /// Foreground deliveries parked until catch-up completes.
  std::vector<core::Mset> held_;
  RecoveryReport report_;
};

/// Owns the durable storage and the per-site recovery state — deliberately
/// OUTSIDE the sites, so an amnesia crash (which wipes a site's volatile
/// state) cannot touch it: this object *is* the simulated stable storage,
/// plus the recovery orchestration over it.
///
/// The facade drives the lifecycle: Log* hooks during normal operation,
/// OnCrash when an amnesia crash hits, then on restart RecoverSite (load
/// checkpoint + replay WAL suffix) followed by the catch-up exchange
/// (Build/Apply helpers here; message transport in the facade).
class RecoveryManager {
 public:
  RecoveryManager(runtime::Clock* clock, obs::MetricRegistry* metrics,
                  const RecoveryConfig& config, int num_sites);
  ~RecoveryManager();

  SiteRecovery* site(SiteId s) { return sites_[static_cast<size_t>(s)].get(); }
  const RecoveryConfig& config() const { return config_; }
  StorageBackend* storage() { return storage_.get(); }

  void BindSite(SiteId s, SiteBindings bindings);

  /// Amnesia crash: the unflushed WAL tail is lost with the site.
  void OnCrash(SiteId s);

  /// Any crash (amnesia or fail-stop) of `down` makes it unresponsive:
  /// recovering sites waiting on its catch-up response stop counting it so
  /// their exchange can complete (a liveness stall under combined failures
  /// otherwise — a never-restarting peer would park foreground deliveries
  /// forever). If the peer does come back, its late response still applies
  /// idempotently as long as the exchange id matches.
  void OnPeerDown(SiteId down);

  /// Takes a fuzzy checkpoint of `s` and truncates its WAL down to the
  /// records a peer (or a future replay) could still need.
  void TakeCheckpoint(SiteId s);

  /// Restart path: loads the latest valid checkpoint (or starts empty),
  /// restores the site through its bindings, and replays the WAL.
  void RecoverSite(SiteId s);

  /// Catch-up protocol steps; the facade moves the structs between sites.
  /// BeginCatchup takes the peers whose responses are awaited — the facade
  /// passes the currently-up peers only (down peers are reached by the
  /// request through the reliable queues anyway and their late responses
  /// apply idempotently, but the exchange must not block on them).
  CatchupRequest BuildCatchupRequest(SiteId s);
  CatchupResponse BuildCatchupResponse(SiteId responder,
                                       const CatchupRequest& request);
  void BeginCatchup(SiteId s, const std::vector<SiteId>& peers);
  void ApplyCatchupResponse(SiteId s, const CatchupResponse& response);

  const RecoveryReport& last_report(SiteId s) const {
    return sites_[static_cast<size_t>(s)]->report_;
  }

 private:
  /// Cross-site state a checkpoint's truncation decision needs. The
  /// RecoveryManager owns every site's stable storage, so it can evaluate
  /// these global conditions directly.
  struct TruncationView {
    /// What EVERY site can reconstruct from its own durable state. Its
    /// per-origin part is each site's checkpoint raised by its flushed WAL:
    /// truncation must not drop committed MSets above it, because global
    /// stability only proves every site *applied* them, and an amnesia
    /// crash can still lose an applied-but-unflushed MSet — which only a
    /// peer's WAL can then heal. Its order and per-shard parts are the
    /// checkpointed watermarks alone (a site with no checkpointed shard map
    /// contributes 0 for every shard — keep everything): below them no
    /// recovering site needs a record to fill its order buffer or shard
    /// streams, and non-owners report INT64_MAX and never need them.
    AppliedCut floor;
    /// ETs whose tentative application is reconstructible from SOME site's
    /// WAL (flushed or still buffered — the buffer may yet become durable)
    /// or latest checkpoint's MSet log. Catch-up serves COMPE decisions
    /// from peer WALs, so a decision record must survive truncation until
    /// its ET leaves this set: an abort truncated everywhere while a
    /// crashed site's durable state still re-arms the mset tentatively
    /// could never reach that site again — permanent divergence.
    std::unordered_set<EtId> needed_decisions;
  };
  TruncationView BuildTruncationView() const;

  /// Completes the current exchange: stamps the report, records the lag,
  /// and re-delivers the parked foreground MSets in timestamp order.
  void FinishCatchup(SiteRecovery& site);

  runtime::Clock* clock_;
  obs::MetricRegistry* metrics_;
  RecoveryConfig config_;
  int num_sites_;
  std::unique_ptr<StorageBackend> storage_;
  std::vector<std::unique_ptr<SiteRecovery>> sites_;
};

}  // namespace esr::recovery

#endif  // ESR_RECOVERY_RECOVERY_MANAGER_H_
