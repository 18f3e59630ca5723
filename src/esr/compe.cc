#include "esr/compe.h"

#include <algorithm>
#include <cassert>

#include "recovery/recovery_manager.h"

namespace esr::core {

CompeMethod::CompeMethod(const MethodContext& ctx, bool ordered)
    : ReplicaControlMethod(ctx), ordered_(ordered) {
  ctx_.mailbox->RegisterHandler(
      kDecisionMsg, [this](SiteId source, const std::any& body) {
        OnDecisionMsg(source, body);
      });
}

Status CompeMethod::AdmitUpdate(const std::vector<store::Operation>& ops) {
  ESR_RETURN_IF_ERROR(ReplicaControlMethod::AdmitUpdate(ops));
  if (!ordered_) {
    // Unordered COMPE shares COMMU's commutativity discipline; without it,
    // replicas applying in different orders would diverge even without
    // aborts.
    return ctx_.registry->AdmitAll(ops);
  }
  return Status::Ok();
}

void CompeMethod::SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                               CommitFn done) {
  const LamportTimestamp ts = ctx_.clock->Tick();
  Mset mset;
  mset.et = et;
  mset.origin = ctx_.site;
  mset.timestamp = ts;
  mset.operations = std::move(ops);
  mset.tentative = true;
  // Tracked at submit, not by CommitLocal: SubmitDecision looks the ET up
  // here, and in ordered mode its abort may arrive before the order grant.
  TrackOutgoing(mset);
  if (!ordered_) {
    CommitLocal(mset);
    ApplyLocal(mset);
    if (done) done(Status::Ok());
    return;
  }
  ctx_.sequencer->Request([this, mset = std::move(mset),
                           done = std::move(done)](SequenceNumber seq) mutable {
    mset.global_order = seq;
    // The MSet propagates even when its global abort outran the ordering
    // response (the client can decide any time after submission): its
    // sequence number must fill the total order everywhere, and every site
    // skips or compensates it through the normal abort paths.
    CommitLocal(mset);
    if (abort_before_apply_.count(mset.et) > 0) {
      // The history record was only created now: patch its aborted flag.
      if (ctx_.config->record_history) {
        ctx_.history->RecordUpdateAborted(mset.et);
      }
      events_.Increment("esr.compe_abort_before_order");
    }
    OfferOrdered(std::move(mset));
    if (done) done(Status::Ok());
  }, TraceContext{.et = et, .origin = ctx_.site});
}

void CompeMethod::ProcessMset(const Mset& mset) {
  if (ordered_) {
    OfferOrdered(mset);
  } else {
    ApplyLocal(mset);
  }
}

void CompeMethod::OfferOrdered(Mset mset) {
  const SequenceNumber seq = mset.global_order;
  if (!buffer_.Offer(seq, std::move(mset))) return;  // duplicate
  while (buffer_.Head() != nullptr) {
    const Mset next = buffer_.Pop();
    if (next.et == kInvalidEtId) {
      // Gap-filler no-op (an orphaned order position released after an
      // amnesia crash): advance the watermark only.
      continue;
    }
    if (abort_before_apply_.erase(next.et) > 0) {
      // The global abort outran the ordered release; never apply.
      events_.Increment("esr.compe_apply_skipped");
      if (ctx_.tracer != nullptr && !InReplay()) {
        ctx_.tracer->OnSkip(next.et, ctx_.site);
      }
      continue;
    }
    ApplyLocal(next);
  }
}

void CompeMethod::ApplyLocal(const Mset& mset) {
  std::vector<WeightedObject> objects = WeighOperations(mset.operations);
  Status s = ctx_.mset_log->ApplyAndLog(*ctx_.store, mset.et,
                                        mset.operations);
  assert(s.ok());
  (void)s;
  if (!decided_commit_.count(mset.et)) {
    // Still tentative at this site: count the potential compensation.
    counters_.Increment(objects);
    tentative_objects_.emplace(mset.et, std::move(objects));
  }
  RecordApplied(mset);
}

Status CompeMethod::SubmitDecision(EtId et, bool commit) {
  if (ctx_.stability->FindOutgoing(et) == nullptr &&
      !decided_commit_.count(et) &&
      !ctx_.mset_log->Contains(et)) {
    return Status::NotFound("ET " + std::to_string(et) +
                            " is not a tentative update at this origin");
  }
  msg::Envelope decision{kDecisionMsg, Decision{et, commit}};
  decision.trace = TraceContext{.et = et, .origin = ctx_.site};
  for (SiteId s = 0; s < ctx_.num_sites; ++s) {
    if (s == ctx_.site) continue;
    ctx_.queues->Send(s, decision, /*size_bytes=*/48);
  }
  HandleDecision(et, commit);
  return Status::Ok();
}

void CompeMethod::OnDecisionMsg(SiteId /*source*/, const std::any& body) {
  const auto* decision = std::any_cast<Decision>(&body);
  assert(decision != nullptr);
  HandleDecision(decision->et, decision->commit);
}

void CompeMethod::HandleDecision(EtId et, bool commit) {
  if (ctx_.recovery != nullptr) ctx_.recovery->LogDecision(et, commit);
  // During WAL replay the pre-crash run already recorded the decision in
  // the shared history/tracer/counters; only the state transitions rerun.
  const bool replaying = InReplay();
  if (commit) {
    decided_commit_.insert(et);
    if (!replaying) events_.Increment("esr.compe_commits");
    auto it = tentative_objects_.find(et);
    if (it != tentative_objects_.end()) {
      counters_.Decrement(it->second);
      tentative_objects_.erase(it);
    }
    // If all acks already arrived at the origin, stability was gated on
    // this decision.
    if (ctx_.stability->AcksComplete(et)) MaybeBroadcastStable(et);
    return;
  }
  // Abort: compensate the local application (or suppress it if it has not
  // been released yet in ordered mode).
  if (!replaying) events_.Increment("esr.compe_aborts");
  // The tracer counts one terminal phase per ET and closes its hop trace
  // once; the origin processes its own decision first, so the aborted
  // phase carries the origin site.
  if (ctx_.tracer != nullptr && et > 0 && !replaying) {
    ctx_.tracer->OnAborted(et, ctx_.site, ctx_.simulator->Now());
  }
  if (ctx_.config->record_history && !replaying) {
    ctx_.history->RecordUpdateAborted(et);
  }
  auto it = tentative_objects_.find(et);
  std::vector<WeightedObject> objects;
  if (it != tentative_objects_.end()) {
    objects = it->second;
    counters_.Decrement(it->second);
    tentative_objects_.erase(it);
  }
  if (ctx_.mset_log->Contains(et)) {
    Status s = ctx_.mset_log->Compensate(*ctx_.store, et);
    assert(s.ok());
    (void)s;
    if (!replaying) events_.Increment("esr.compensations");
    // Charge live queries that already read the compensated objects — the
    // paper's post-hoc accounting. Their up-front potential charge covered
    // this, so epsilon still bounds the total.
    if (ctx_.for_each_active_query) {
      ctx_.for_each_active_query([&objects, this](QueryState& q) {
        for (const WeightedObject& w : objects) {
          const ObjectId o = w.object;
          if (q.read_objects.count(o)) {
            ++q.compensation_hits;
            events_.Increment("esr.query_compensation_hits");
            break;
          }
        }
      });
    }
  } else if (ordered_) {
    abort_before_apply_.insert(et);
  }
  // Origin cleanup: an aborted ET never becomes stable.
  ctx_.stability->DropOutgoing(et);
}

bool CompeMethod::ReadyForStable(EtId et) {
  return decided_commit_.count(et) > 0;
}

void CompeMethod::ReplayDecision(EtId et, bool commit) {
  HandleDecision(et, commit);
}

void CompeMethod::SnapshotDurable(recovery::CheckpointData& out) const {
  if (ordered_) out.cut.order_watermark = buffer_.Watermark();
  out.decided_commit.assign(decided_commit_.begin(), decided_commit_.end());
  std::sort(out.decided_commit.begin(), out.decided_commit.end());
  out.abort_before_apply.assign(abort_before_apply_.begin(),
                                abort_before_apply_.end());
  std::sort(out.abort_before_apply.begin(), out.abort_before_apply.end());
}

void CompeMethod::RestoreDurable(const recovery::CheckpointData& in) {
  if (ordered_) buffer_.SkipThrough(in.cut.order_watermark);
  decided_commit_ = std::unordered_set<EtId>(in.decided_commit.begin(),
                                             in.decided_commit.end());
  abort_before_apply_ = std::unordered_set<EtId>(in.abort_before_apply.begin(),
                                                 in.abort_before_apply.end());
  // Applied-but-undecided MSets survive in the restored MSet log (records
  // are only dropped once stable); re-arm their potential-compensation
  // counters. Decided-commit records keep no counter (it was released at
  // decision time).
  for (const store::MsetLog::RecordSnapshot& rec : ctx_.mset_log->Snapshot()) {
    const EtId et = rec.mset_id;
    if (decided_commit_.count(et) > 0 || tentative_objects_.count(et) > 0) {
      continue;
    }
    std::vector<WeightedObject> objects = WeighOperations(rec.ops);
    counters_.Increment(objects);
    tentative_objects_.emplace(et, std::move(objects));
  }
}

void CompeMethod::ReleaseOrphanPosition(ShardId /*service*/,
                                        SequenceNumber seq) {
  if (!ordered_) return;
  // The order position was granted to an update lost in an amnesia crash:
  // fill the gap everywhere with a no-op MSet.
  Mset noop;
  noop.et = kInvalidEtId;
  noop.origin = ctx_.site;
  noop.global_order = seq;
  noop.timestamp = ctx_.clock->Tick();
  PropagateMset(noop);
  OfferOrdered(std::move(noop));
}

void CompeMethod::OnStable(EtId et) {
  decided_commit_.erase(et);
  // Records are dropped from the log head once there is no rollback risk.
  ctx_.mset_log->TruncateStable(
      [this](int64_t id) { return ctx_.stability->IsStable(id); });
}

Result<Value> CompeMethod::TryQueryRead(QueryState& query, ObjectId object) {
  query.pinned = true;
  const int64_t inc = counters_.Charge(query, object);
  if (query.epsilon != kUnboundedEpsilon &&
      query.inconsistency + inc > query.epsilon) {
    // Waiting helps: decisions drain the tentative counters.
    ++query.blocked_attempts;
    events_.Increment("esr.query_blocked");
    return Status::Unavailable(
        "potential compensations exceed remaining inconsistency budget");
  }
  query.inconsistency += inc;
  counters_.CommitCharge(query, object);
  query.read_objects.insert(object);
  Value v = ctx_.store->Read(object);
  ++query.reads;
  RecordRead(query, object, v, inc, HistoryApplyCount());
  return v;
}

}  // namespace esr::core
