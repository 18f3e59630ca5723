#include "esr/ordup_ts.h"

#include <cassert>

namespace esr::core {

OrdupTsMethod::OrdupTsMethod(const MethodContext& ctx)
    : ReplicaControlMethod(ctx) {
  assert(ctx_.config->heartbeat_interval_us > 0 &&
         "ORDUP-TS release progress requires clock heartbeats");
}

void OrdupTsMethod::SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                                 CommitFn done) {
  const LamportTimestamp ts = ctx_.clock->Tick();
  Mset mset;
  mset.et = et;
  mset.origin = ctx_.site;
  mset.timestamp = ts;
  mset.operations = std::move(ops);
  CommitLocal(mset);
  // Local commit is immediate; the MSet still waits in the hold-back
  // buffer until the timestamp order is closed below it. Unlike a
  // delivered MSet (ProcessMset) it leaves the origin watermarks alone.
  holdback_.emplace(ts, std::move(mset));
  TryRelease();
  if (done) done(Status::Ok());
}

void OrdupTsMethod::ProcessMset(const Mset& mset) {
  holdback_.emplace(mset.timestamp, mset);
  // The MSet's own timestamp advances its origin's watermark (the base
  // records it in RecordApplied only at apply time, which is too late for
  // release gating).
  ctx_.stability->ObserveClock(mset.origin, mset.timestamp);
  ctx_.clock->Observe(mset.timestamp);
  TryRelease();
}

void OrdupTsMethod::TryRelease() {
  if (ledger_.paused()) return;
  while (!holdback_.empty()) {
    const LamportTimestamp floor = ctx_.stability->WatermarkFloor();
    auto it = holdback_.begin();
    if (!(it->first <= floor)) break;
    Mset mset = std::move(it->second);
    holdback_.erase(it);
    Status s = ctx_.store->ApplyAll(mset.operations);
    assert(s.ok());
    (void)s;
    ledger_.RecordApply(mset.operations);
    RecordApplied(mset);
  }
}

void OrdupTsMethod::SnapshotDurable(recovery::CheckpointData& out) const {
  out.apply_count = ledger_.applied();
}

void OrdupTsMethod::RestoreDurable(const recovery::CheckpointData& in) {
  ledger_.RestoreApplied(in.apply_count);
}

Result<Value> OrdupTsMethod::TryQueryRead(QueryState& query,
                                          ObjectId object) {
  Result<int64_t> inc = ledger_.Charge(query, object);
  if (!inc.ok()) {
    events_.Increment("esr.query_limit_hits");
    return inc.status();
  }
  Value v = ctx_.store->Read(object);
  ++query.reads;
  RecordRead(query, object, v, *inc, ledger_.applied());
  return v;
}

void OrdupTsMethod::OnQueryEnd(QueryState& query) {
  if (ledger_.Release(query)) TryRelease();
}

void OrdupTsMethod::OnQueryRestart(QueryState& query) {
  // Same contract as ORDUP: the abandoned attempt's pin and release pause
  // must be handed back here, never dropped by ResetForRestart() alone.
  if (ledger_.Release(query)) TryRelease();
}

}  // namespace esr::core
