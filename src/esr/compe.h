#ifndef ESR_ESR_COMPE_H_
#define ESR_ESR_COMPE_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "esr/lock_counters.h"
#include "esr/replica_control.h"
#include "msg/total_order_buffer.h"

namespace esr::core {

/// Compensation-based backward replica control (COMPE, paper section 4).
///
/// MSets are applied *optimistically* before their global update commits
/// ("for performance reasons, the system may start running MSets before the
/// global update is committed"). The origin later announces a commit or
/// abort decision; an abort is compensated at every replica:
///
///  * **Unordered mode** (`ordered == false`): admission is restricted to
///    commutative operations (same registry discipline as COMMU), MSets
///    apply on arrival, and compensation takes the O(1) fast path — "if all
///    MSets are commutative, then the system can simply apply the
///    compensation without any overhead".
///  * **Ordered mode** (`ordered == true`): MSets execute in a global total
///    order (sequencer + hold-back buffer), any operations are admitted,
///    and compensating an MSet in the log's interior triggers the general
///    rollback: undo the suffix in reverse, drop the aborted MSet, replay —
///    "the log is then replayed, the MSets re-executed".
///
/// *Divergence bounding*: the per-object lock-counter counts *potential
/// compensations* — applied-but-undecided tentative MSets. A query read is
/// charged that count; past epsilon it waits for decisions. When an actual
/// compensation lands on an object a live query has read, the query's
/// counter is bumped too ("each time a rollback happens the system needs to
/// increase the inconsistency counter of conflicting query ETs") — the
/// up-front potential charge already covered it, so this never exceeds the
/// budget; the benches report both numbers to show bound >= actual.
///
/// The MSet log records of an ET are retained until the ET is stable
/// (decided commit + applied everywhere) and at the log head — "COMPE must
/// remember the executed MSets until there is no risk of rollback".
class CompeMethod : public ReplicaControlMethod {
 public:
  CompeMethod(const MethodContext& ctx, bool ordered);

  Status AdmitUpdate(const std::vector<store::Operation>& ops) override;
  void SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                    CommitFn done) override;
  Result<Value> TryQueryRead(QueryState& query, ObjectId object) override;
  Status SubmitDecision(EtId et, bool commit) override;
  void OnStable(EtId et) override;

  int64_t TentativeCount(ObjectId object) const {
    return counters_.Count(object);
  }
  bool DecidedCommit(EtId et) const { return decided_commit_.count(et) > 0; }

  void SnapshotDurable(recovery::CheckpointData& out) const override;
  void RestoreDurable(const recovery::CheckpointData& in) override;
  void ReplayDecision(EtId et, bool commit) override;
  // COMPE runs fully replicated: its only order service is kGlobalOrder.
  void ReleaseOrphanPosition(ShardId service, SequenceNumber seq) override;
  SequenceNumber MaxOrderSeen(ShardId /*service*/) const override {
    return buffer_.MaxOffered();
  }

 protected:
  bool ReadyForStable(EtId et) override;
  /// Unordered: applies on arrival. Ordered: holds the MSet at its global
  /// position (OfferOrdered).
  void ProcessMset(const Mset& mset) override;

 private:
  void ApplyLocal(const Mset& mset);
  /// Ordered mode: holds the MSet at its global position and applies
  /// every MSet the position's arrival makes contiguous.
  void OfferOrdered(Mset mset);
  void OnDecisionMsg(SiteId source, const std::any& body);
  void HandleDecision(EtId et, bool commit);

  bool ordered_;
  msg::TotalOrderBuffer<Mset> buffer_;
  LockCounterTable counters_;
  /// Objects (with change magnitudes) whose counters this site incremented
  /// for a tentative ET.
  std::unordered_map<EtId, std::vector<WeightedObject>> tentative_objects_;
  std::unordered_set<EtId> decided_commit_;
  /// Aborts that arrived before the (ordered) MSet was released: skip it.
  std::unordered_set<EtId> abort_before_apply_;
};

}  // namespace esr::core

#endif  // ESR_ESR_COMPE_H_
