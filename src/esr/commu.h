#ifndef ESR_ESR_COMMU_H_
#define ESR_ESR_COMMU_H_

#include <unordered_map>
#include <vector>

#include "esr/lock_counters.h"
#include "esr/replica_control.h"

namespace esr::core {

/// Commutative operations (COMMU, paper section 3.2).
///
/// *Admission*: all update operations on an object must be mutually
/// commutative — enforced through the shared ObjectClassRegistry (an
/// object's class is pinned by its first update).
///
/// *MSet delivery/processing*: no ordering restriction whatsoever; MSets
/// are applied the moment they arrive ("commutative update MSets can be
/// processed asynchronously in any order"). Update and query propagation
/// are both fully asynchronous — Table 1's best row.
///
/// *Divergence bounding*: per-object lock-counters. Every site increments
/// an object's counter when it learns of an update ET touching it (origin:
/// at submit; replica: at MSet arrival) and decrements when the ET becomes
/// stable. A query read is charged the number of not-yet-stable update ETs
/// on the object it has not already accounted for; past its epsilon it
/// waits (kUnavailable) until stability notices drain the counters.
/// Optionally updates themselves wait while a counter is at the configured
/// limit ("we can limit the update ETs in addition to query ETs").
class CommuMethod : public ReplicaControlMethod {
 public:
  using ReplicaControlMethod::ReplicaControlMethod;

  Status AdmitUpdate(const std::vector<store::Operation>& ops) override;
  void SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                    CommitFn done) override;
  Result<Value> TryQueryRead(QueryState& query, ObjectId object) override;
  void OnStable(EtId et) override;

  /// Current lock-counter of an object at this site (tests/benches).
  int64_t LockCount(ObjectId object) const { return counters_.Count(object); }

  void OnReplayReflected(const Mset& mset) override;

 protected:
  /// Objects (with change magnitudes) updated by an ET, tracked until
  /// stability.
  std::unordered_map<EtId, std::vector<WeightedObject>> in_progress_;
  LockCounterTable counters_;

  /// Applies the MSet on arrival and arms its lock-counters until it is
  /// stable.
  void ProcessMset(const Mset& mset) override;
};

}  // namespace esr::core

#endif  // ESR_ESR_COMMU_H_
