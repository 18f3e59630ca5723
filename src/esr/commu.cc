#include "esr/commu.h"

#include <algorithm>
#include <cassert>

namespace esr::core {

Status CommuMethod::AdmitUpdate(const std::vector<store::Operation>& ops) {
  ESR_RETURN_IF_ERROR(ReplicaControlMethod::AdmitUpdate(ops));
  // The registry pins each object's commutative class; cross-class updates
  // (the ones that would break "all updates on an object commute") are
  // rejected here, at the origin, before anything propagates.
  return ctx_.registry->AdmitAll(ops);
}

void CommuMethod::SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                               CommitFn done) {
  // Optional update-side throttle (paper: "if the lock-counter of an object
  // exceeds a specified limit, then the update ET trying to write must
  /// either wait or abort").
  if (ctx_.config->commu_update_lock_limit > 0) {
    for (const WeightedObject& w : WeighOperations(ops)) {
      const ObjectId object = w.object;
      if (counters_.Count(object) >= ctx_.config->commu_update_lock_limit) {
        events_.Increment("esr.update_throttled");
        if (done) {
          done(Status::Unavailable("lock-counter at limit for object " +
                                   std::to_string(object)));
        }
        return;
      }
    }
  }
  const LamportTimestamp ts = ctx_.clock->Tick();
  Mset mset;
  mset.et = et;
  mset.origin = ctx_.site;
  mset.timestamp = ts;
  mset.operations = std::move(ops);
  CommitLocal(mset);
  ProcessMset(mset);
  if (done) done(Status::Ok());
}

void CommuMethod::ProcessMset(const Mset& mset) {
  std::vector<WeightedObject> objects = WeighOperations(mset.operations);
  counters_.Increment(objects);
  in_progress_.emplace(mset.et, std::move(objects));
  Status s = ctx_.store->ApplyAll(mset.operations);
  assert(s.ok());
  (void)s;
  RecordApplied(mset);
}

void CommuMethod::OnReplayReflected(const Mset& mset) {
  // The MSet's store effects are in the checkpoint, but its lock-counter
  // contribution is volatile: re-arm it unless the ET is already stable
  // (stability is what would have decremented the counter).
  if (mset.et == kInvalidEtId) return;
  if (ctx_.stability->IsStable(mset.et)) return;
  if (in_progress_.count(mset.et) > 0) return;
  std::vector<WeightedObject> objects = WeighOperations(mset.operations);
  counters_.Increment(objects);
  in_progress_.emplace(mset.et, std::move(objects));
}

void CommuMethod::OnStable(EtId et) {
  auto it = in_progress_.find(et);
  if (it == in_progress_.end()) return;
  counters_.Decrement(it->second);
  in_progress_.erase(it);
}

Result<Value> CommuMethod::TryQueryRead(QueryState& query, ObjectId object) {
  query.pinned = true;
  const int64_t inc = counters_.Charge(query, object);
  const int64_t winc = counters_.WeightCharge(query, object);
  const bool count_ok = query.epsilon == kUnboundedEpsilon ||
                        query.inconsistency + inc <= query.epsilon;
  const bool value_ok =
      query.value_epsilon == kUnboundedEpsilon ||
      query.value_inconsistency + winc <= query.value_epsilon;
  if (!count_ok || !value_ok) {
    // Unlike ORDUP, waiting helps: the counters drop as stability notices
    // arrive, so the read is retried rather than restarted.
    ++query.blocked_attempts;
    events_.Increment("esr.query_blocked");
    return Status::Unavailable(
        count_ok ? "in-flight change magnitude exceeds value budget"
                 : "lock-counters exceed remaining inconsistency budget");
  }
  query.inconsistency += inc;
  query.value_inconsistency += winc;
  counters_.CommitCharge(query, object);
  Value v = ctx_.store->Read(object);
  ++query.reads;
  RecordRead(query, object, v, inc, HistoryApplyCount());
  return v;
}

}  // namespace esr::core
