#ifndef ESR_ESR_STABILITY_TRACKER_H_
#define ESR_ESR_STABILITY_TRACKER_H_

#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "recovery/checkpointer.h"

namespace esr::core {

/// Tracks which update ETs have become *stable* — applied at every replica —
/// and derives the VTNC (visible transaction number counter) that RITU's
/// multi-version divergence bounding reads below (paper section 3.3).
///
/// Protocol (driven by the replica control methods):
///  * The origin calls TrackOutgoing() when it commits an update ET. The
///    ET's origin record (timestamp, the replicas that apply its MSet, the
///    acks so far) lives here and nowhere else.
///  * Every site (origin included) calls ObserveMset() when the MSet is
///    applied locally, and the replicas send apply-acks to the origin, which
///    feeds them to RecordAck(). When every replica acked, the origin sends
///    a stability notice to the other replicas and everyone calls
///    MarkStable(), which drops the origin record.
///
/// VTNC correctness relies on two facts: (1) each origin's Lamport clock is
/// monotonic, so its MSets carry increasing timestamps, and (2) MSets and
/// clock heartbeats travel over FIFO stable queues, so once a site has seen
/// timestamp W from origin o, no *unknown* MSet from o with timestamp <= W
/// can still be in flight to it. Hence
///
///   VTNC = max T such that T <= min_o watermark(o)  and every known
///          non-stable MSet has timestamp > T,
///
/// is a timestamp below which no active or future update can create a
/// version — exactly the Modular Synchronization visibility condition.
class StabilityTracker {
 public:
  StabilityTracker(SiteId self, int num_sites);

  /// Invoked (at this site) when an ET becomes stable.
  std::function<void(EtId)> on_stable;

  /// Invoked whenever the VTNC strictly advances, with the new value. Fired
  /// only after the tracker reaches a consistent state (never mid-update:
  /// ObserveMset registers its outstanding entry *before* checking, so the
  /// hook can't observe a watermark bump without the MSet that carried it).
  /// The store layer hangs version GC off this hook (DESIGN.md §15).
  std::function<void(LamportTimestamp)> on_vtnc_advance;

  /// Origin side: starts the record of outgoing update ET `et`. A no-op
  /// once `et` is stable or already tracked, so a recovered origin may call
  /// it again for every own MSet it re-reads from its WAL.
  void TrackOutgoing(EtId et, LamportTimestamp ts,
                     std::vector<SiteId> replicas);

  /// Origin side: drops the record of an aborted ET (it never becomes
  /// stable).
  void DropOutgoing(EtId et);

  /// Origin side: records an apply-ack from `replica` (the origin acks
  /// itself when it applies locally). Returns true when every replica has
  /// now acknowledged — the caller should then send the stability notice
  /// and call MarkStable locally. An ack for an ET not tracked yet starts
  /// an ack-only record, so the caller passes one only while the site
  /// recovers: a recovering origin can hear its peers' acks before it
  /// re-reads its own MSet from its WAL or a catch-up response.
  bool RecordAck(EtId et, SiteId replica);

  /// True once `et` is stable or while the origin holds a record of it.
  bool Knows(EtId et) const { return IsStable(et) || outgoing_.count(et); }

  /// Origin side: every replica of `et` acked it (the same answer RecordAck
  /// gave for its last ack).
  bool AcksComplete(EtId et) const;

  /// Origin side: the record of tracked outgoing ET `et`, or null. Valid
  /// until the next call that changes the tracker.
  const recovery::OutgoingRecord* FindOutgoing(EtId et) const;

  /// Union of the replicas of every tracked outgoing ET, sorted. Under
  /// partial replication these are the only peers that can answer
  /// ack/stability questions about those ETs, so a recovering origin adds
  /// them to its catch-up target set.
  std::vector<SiteId> OutgoingTargets() const;

  /// Any site: the MSet (et, ts, origin) has been applied locally.
  void ObserveMset(EtId et, LamportTimestamp ts, SiteId origin);

  /// Any site: origin's Lamport clock has reached at least `clock`
  /// (piggybacked on MSets and periodic heartbeats).
  void ObserveClock(SiteId origin, LamportTimestamp clock);

  /// Any site: the ET is stable everywhere. Fires on_stable once.
  void MarkStable(EtId et);

  bool IsStable(EtId et) const { return stable_.count(et) > 0; }

  /// Number of ETs known at this site that are not yet stable.
  int64_t OutstandingCount() const {
    return static_cast<int64_t>(outstanding_by_ts_.size());
  }

  /// Current VTNC (see class comment). Monotonically non-decreasing.
  LamportTimestamp Vtnc() const;

  /// Floor of the per-origin clock watermarks over the *other* sites (self
  /// excluded — a site always knows its own activity). No unknown MSet
  /// from any origin can carry a timestamp at or below this floor; the
  /// decentralized ORDUP variant releases its hold-back buffer up to it.
  LamportTimestamp WatermarkFloor() const;

  /// Checkpointable image of the tracker (see recovery::StabilitySnapshot).
  recovery::StabilitySnapshot ExportSnapshot() const;
  void RestoreSnapshot(const recovery::StabilitySnapshot& snapshot);

 private:
  /// Raises origin's watermark without firing on_vtnc_advance (callers fire
  /// via MaybeAdvanceVtnc once their whole update is in place).
  void BumpWatermark(SiteId origin, LamportTimestamp clock);
  /// Fires on_vtnc_advance if the VTNC moved past the last reported value.
  void MaybeAdvanceVtnc();
  /// Every replica of the record acked (acks come only from replicas).
  bool Complete(const recovery::OutgoingRecord& out) const;

  SiteId self_;
  int num_sites_;
  /// Known-but-not-yet-stable ETs ordered by timestamp.
  std::map<LamportTimestamp, EtId> outstanding_by_ts_;
  std::unordered_map<EtId, LamportTimestamp> outstanding_ts_;
  std::unordered_set<EtId> stable_;
  /// Origin side: one record per outgoing ET not yet stable.
  std::unordered_map<EtId, recovery::OutgoingRecord> outgoing_;
  /// Per-origin clock watermark (self is implicitly infinite: this site
  /// always knows its own MSets).
  std::vector<LamportTimestamp> watermark_;
  /// Last VTNC value reported through on_vtnc_advance (the hook only ever
  /// sees strictly increasing values).
  LamportTimestamp last_vtnc_;
};

/// Largest timestamp strictly smaller than `ts` (used to place the VTNC
/// just below the first outstanding update).
LamportTimestamp PredTimestamp(LamportTimestamp ts);

}  // namespace esr::core

#endif  // ESR_ESR_STABILITY_TRACKER_H_
