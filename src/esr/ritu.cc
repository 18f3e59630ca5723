#include "esr/ritu.h"

namespace esr::core {

RituMethod::RituMethod(const MethodContext& ctx, bool multiversion)
    : CommuMethod(ctx), multiversion_(multiversion) {}

Status RituMethod::AdmitUpdate(const std::vector<store::Operation>& ops) {
  ESR_RETURN_IF_ERROR(ReplicaControlMethod::AdmitUpdate(ops));
  for (const store::Operation& op : ops) {
    if (!op.IsReadIndependent()) {
      return Status::FailedPrecondition(
          "RITU admits read-independent timestamped writes only; got " +
          std::string(store::OpKindToString(op.kind)));
    }
  }
  return ctx_.registry->AdmitAll(ops);
}

void RituMethod::SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                              CommitFn done) {
  const LamportTimestamp ts = ctx_.clock->Tick();
  // Stamp every write with the ET's timestamp; the store resolves
  // concurrent writes by it (Thomas rule, or the version chain's order).
  for (store::Operation& op : ops) op.timestamp = ts;
  Mset mset;
  mset.et = et;
  mset.origin = ctx_.site;
  mset.timestamp = ts;
  mset.operations = std::move(ops);
  CommitLocal(mset);
  ProcessMset(mset);
  if (done) done(Status::Ok());
}

void RituMethod::OnReplayReflected(const Mset& mset) {
  // Multi-version mode keeps everything durable in the version snapshot;
  // single-version mode re-arms COMMU's volatile lock-counters.
  if (!multiversion_) CommuMethod::OnReplayReflected(mset);
}

void RituMethod::ProcessMset(const Mset& mset) {
  if (!multiversion_) {
    // Single-version overwrite under the Thomas write rule, with COMMU's
    // lock-counter window for divergence bounding.
    CommuMethod::ProcessMset(mset);
    return;
  }
  for (const store::Operation& op : mset.operations) {
    ctx_.store->AppendVersion(op.object, op.timestamp, op.value);
  }
  RecordApplied(mset);
}

LamportTimestamp RituMethod::Vtnc() const { return ctx_.stability->Vtnc(); }

Result<Value> RituMethod::TryQueryRead(QueryState& query, ObjectId object) {
  if (!multiversion_) {
    // "RITU reduces to COMMU" in single-version mode.
    return CommuMethod::TryQueryRead(query, object);
  }
  if (!query.pinned) {
    query.pinned = true;
    query.vtnc_pin = ctx_.stability->Vtnc();
  }
  const LamportTimestamp pin = *query.vtnc_pin;
  const auto latest = ctx_.store->ReadLatest(object);
  Value v;
  int64_t inc = 0;
  if (latest.has_value() && latest->timestamp > pin) {
    const bool budget_left = query.epsilon == kUnboundedEpsilon ||
                             query.inconsistency + 1 <= query.epsilon;
    if (budget_left && !query.strict) {
      // Read the fresh version and pay one unit ("each time a query ET
      // reads such a version its inconsistency counter is increased by
      // one").
      v = latest->value;
      inc = 1;
    } else {
      // Fall back to the pinned snapshot: versions at-or-below the pin are
      // immutable and complete, so this read is serializable and free.
      const auto snap = ctx_.store->ReadAtOrBefore(object, pin);
      v = snap.has_value() ? snap->value : Value();
      events_.Increment("esr.ritu_snapshot_reads");
    }
  } else {
    v = latest.has_value() ? latest->value : Value();
  }
  query.inconsistency += inc;
  ++query.reads;
  RecordRead(query, object, v, inc, HistoryApplyCount());
  return v;
}

}  // namespace esr::core
