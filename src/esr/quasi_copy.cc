#include "esr/quasi_copy.h"

#include <cassert>

namespace esr::core {

QuasiCopyMethod::QuasiCopyMethod(const MethodContext& ctx)
    : ReplicaControlMethod(ctx) {
  ctx_.mailbox->RegisterHandler(
      kQuasiForward, [this](SiteId /*source*/, const std::any& body) {
        const auto* fwd = std::any_cast<Forwarded>(&body);
        assert(fwd != nullptr);
        ApplyAtPrimary(fwd->et, fwd->origin, fwd->ops);
      });
  ctx_.mailbox->RegisterHandler(
      kQuasiForwardAck, [this](SiteId /*source*/, const std::any& body) {
        const auto* ack = std::any_cast<ForwardAck>(&body);
        assert(ack != nullptr);
        auto it = pending_.find(ack->et);
        if (it == pending_.end()) return;
        CommitFn done = std::move(it->second);
        pending_.erase(it);
        if (done) {
          done(ack->ok ? Status::Ok()
                       : Status::Aborted("rejected at primary"));
        }
      });
}

void QuasiCopyMethod::SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                                   CommitFn done) {
  if (IsPrimary()) {
    ApplyAtPrimary(et, ctx_.site, ops);
    if (done) done(Status::Ok());
    return;
  }
  // Forward to the primary; the commit callback fires on its ack — this is
  // the synchronous round trip every quasi-copies update pays.
  pending_.emplace(et, std::move(done));
  msg::Envelope forward{kQuasiForward, Forwarded{et, ctx_.site, std::move(ops)}};
  forward.trace = TraceContext{.et = et, .origin = ctx_.site};
  ctx_.queues->Send(kQuasiPrimary, std::move(forward), /*size_bytes=*/256);
  events_.Increment("quasi.forwarded");
}

void QuasiCopyMethod::ApplyAtPrimary(EtId et, SiteId origin,
                                     const std::vector<store::Operation>& ops) {
  assert(IsPrimary());
  Status s = ctx_.store->ApplyAll(ops);
  assert(s.ok());
  (void)s;
  events_.Increment("quasi.primary_applied");
  // No CommitLocal: quasi-copy updates skip MSet propagation and the
  // stability protocol, so a commit span would float in esr_et_in_flight
  // forever. The primary-apply counter above is the method's lifecycle
  // signal.
  if (ctx_.config->record_history) {
    analysis::UpdateRecord record;
    record.et = et;
    record.origin = origin;
    record.commit_time = ctx_.simulator->Now();
    record.ops = ops;
    ctx_.history->RecordUpdateCommit(std::move(record));
    ctx_.history->RecordApply(et, ctx_.site, ctx_.simulator->Now());
  }
  // Closeness bookkeeping: refresh an object once its version lag hits the
  // bound.
  for (const store::Operation& op : ops) {
    if (!op.IsUpdate()) continue;
    dirty_.insert(op.object);
    if (++lag_[op.object] >= ctx_.config->quasi_version_lag) {
      RefreshObject(op.object);
    }
  }
  if (origin != ctx_.site) {
    msg::Envelope ack{kQuasiForwardAck, ForwardAck{et, true}};
    ack.trace = TraceContext{.et = et, .origin = origin};
    ctx_.queues->Send(origin, std::move(ack), /*size_bytes=*/48);
  }
}

void QuasiCopyMethod::RefreshObject(ObjectId object) {
  assert(IsPrimary());
  lag_[object] = 0;
  dirty_.erase(object);
  // Timestamped overwrite so reordered refreshes never regress a cache.
  Mset refresh;
  refresh.et = -(++refresh_seq_);  // synthetic id: not an update ET
  refresh.origin = ctx_.site;
  refresh.timestamp = ctx_.clock->Tick();
  refresh.operations = {store::Operation::TimestampedWrite(
      object, ctx_.store->Read(object), refresh.timestamp)};
  PropagateMset(refresh);
  events_.Increment("quasi.refreshes");
}

void QuasiCopyMethod::FlushDirty() {
  if (!IsPrimary()) return;
  std::vector<ObjectId> objects(dirty_.begin(), dirty_.end());
  for (ObjectId object : objects) RefreshObject(object);
}

void QuasiCopyMethod::ProcessMset(const Mset& mset) {
  // A cache refresh from the primary.
  assert(!IsPrimary());
  Status s = ctx_.store->ApplyAll(mset.operations);
  assert(s.ok());
  (void)s;
  events_.Increment("quasi.refresh_applied");
}

Result<Value> QuasiCopyMethod::TryQueryRead(QueryState& query,
                                            ObjectId object) {
  // Reads are local and unconditional; inconsistency is structural (cache
  // lag), not metered — quasi-copies has no per-query epsilon control,
  // which is precisely the contrast with ESR the paper draws.
  query.pinned = true;
  Value v = ctx_.store->Read(object);
  ++query.reads;
  RecordRead(query, object, v, /*inc=*/0, /*site_apply_index=*/0);
  return v;
}

}  // namespace esr::core
