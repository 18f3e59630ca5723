#include "esr/replica_control.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "recovery/recovery_manager.h"

#include "esr/commu.h"
#include "esr/compe.h"
#include "esr/ordup.h"
#include "esr/ordup_ts.h"
#include "esr/quasi_copy.h"
#include "esr/ritu.h"

namespace esr::core {

std::string_view MethodToString(Method method) {
  switch (method) {
    case Method::kOrdup:
      return "ORDUP";
    case Method::kOrdupTs:
      return "ORDUP-TS";
    case Method::kCommu:
      return "COMMU";
    case Method::kRituMulti:
      return "RITU-MV";
    case Method::kRituSingle:
      return "RITU-SV";
    case Method::kCompe:
      return "COMPE";
    case Method::kCompeOrdered:
      return "COMPE-ORD";
    case Method::kSync2pc:
      return "SYNC-2PC";
    case Method::kSyncQuorum:
      return "SYNC-QUORUM";
    case Method::kQuasiCopy:
      return "QUASI";
  }
  return "?";
}

ReplicaControlMethod::ReplicaControlMethod(MethodContext ctx)
    : ctx_(std::move(ctx)) {
  assert(ctx_.mailbox != nullptr);
  ctx_.mailbox->RegisterHandler(
      kMsetMsg, [this](SiteId /*source*/, const std::any& body) {
        const auto* mset = std::any_cast<Mset>(&body);
        assert(mset != nullptr);
        DeliverMset(*mset);
      });
  ctx_.mailbox->RegisterHandler(
      kApplyAckMsg, [this](SiteId source, const std::any& body) {
        OnApplyAckMsg(source, body);
      });
  ctx_.mailbox->RegisterHandler(
      kStableMsg, [this](SiteId source, const std::any& body) {
        OnStableMsg(source, body);
      });
  ctx_.mailbox->RegisterHandler(
      kHeartbeatMsg, [this](SiteId source, const std::any& body) {
        OnHeartbeatMsg(source, body);
      });
}

Status ReplicaControlMethod::AdmitUpdate(
    const std::vector<store::Operation>& ops) {
  for (const store::Operation& op : ops) {
    if (!op.IsUpdate()) {
      return Status::InvalidArgument(
          "update ETs carry update operations only; reads belong in query "
          "ETs");
    }
  }
  return Status::Ok();
}

void ReplicaControlMethod::OnQueryBegin(QueryState& /*query*/) {}
void ReplicaControlMethod::OnQueryEnd(QueryState& /*query*/) {}
void ReplicaControlMethod::OnQueryRestart(QueryState& /*query*/) {}

Status ReplicaControlMethod::SubmitDecision(EtId /*et*/, bool /*commit*/) {
  return Status::FailedPrecondition(
      "decisions apply to COMPE tentative updates only");
}

void ReplicaControlMethod::OnStable(EtId /*et*/) {}

bool ReplicaControlMethod::ReadyForStable(EtId /*et*/) { return true; }

void ReplicaControlMethod::OnReplayReflected(const Mset& /*mset*/) {}

void ReplicaControlMethod::ReplayDecision(EtId /*et*/, bool /*commit*/) {}

bool ReplicaControlMethod::InReplay() const {
  return ctx_.recovery != nullptr && ctx_.recovery->in_replay();
}

void ReplicaControlMethod::DeliverMset(const Mset& mset) {
  if (RecoveryFilterDelivery(mset)) return;
  ProcessMset(mset);
}

bool ReplicaControlMethod::RecoveryFilterDelivery(const Mset& mset) {
  // The MSet just reached this site's method: the total-order wait starts
  // here (closed by RecordApplied). This must run before the
  // recovery==nullptr early-out or non-recovery runs would lose the hop.
  if (ctx_.tracer != nullptr && mset.et > 0 && !InReplay()) {
    ctx_.tracer->OrderWaitBegin(mset.et, ctx_.site, ctx_.simulator->Now());
  }
  if (ctx_.recovery == nullptr) return false;
  if (mset.et != kInvalidEtId && ctx_.recovery->AlreadyApplied(mset)) {
    return true;
  }
  if (ctx_.recovery->MaybeHoldDelivery(mset)) return true;
  ctx_.recovery->LogMset(mset);
  return false;
}

void ReplicaControlMethod::CommitLocal(const Mset& mset) {
  if (!mset.tentative) TrackOutgoing(mset);
  if (ctx_.config->record_history) {
    analysis::UpdateRecord record;
    record.et = mset.et;
    record.origin = ctx_.site;
    record.commit_time = ctx_.simulator->Now();
    record.ops = mset.operations;
    record.order = mset.shard_positions.empty()
                       ? mset.global_order
                       : mset.shard_positions.front().second;
    record.timestamp = mset.timestamp;
    ctx_.history->RecordUpdateCommit(std::move(record));
  }
  // The tracer learns the ET's origin here, before the enqueue span.
  if (ctx_.tracer != nullptr && mset.et > 0) {
    ctx_.tracer->OnLocalCommit(mset.et, ctx_.site, ctx_.simulator->Now());
  }
  PropagateMset(mset);
  events_.Increment("esr.updates_committed");
}

std::vector<SiteId> ReplicaControlMethod::MsetReplicas(
    const Mset& mset) const {
  if (ctx_.placement != nullptr && !mset.shard_positions.empty()) {
    std::vector<ShardId> shards;
    shards.reserve(mset.shard_positions.size());
    for (const auto& [shard, pos] : mset.shard_positions) shards.push_back(shard);
    return ctx_.placement->OwnersOf(shards);
  }
  std::vector<SiteId> replicas(static_cast<size_t>(ctx_.num_sites));
  std::iota(replicas.begin(), replicas.end(), SiteId{0});
  return replicas;
}

std::vector<SiteId> ReplicaControlMethod::MsetTargets(const Mset& mset) const {
  std::vector<SiteId> targets = MsetReplicas(mset);
  targets.erase(std::remove(targets.begin(), targets.end(), ctx_.site),
                targets.end());
  return targets;
}

void ReplicaControlMethod::TrackOutgoing(const Mset& mset) {
  if (mset.origin != ctx_.site || mset.et <= 0) return;
  ctx_.stability->TrackOutgoing(mset.et, mset.timestamp, MsetReplicas(mset));
}

void ReplicaControlMethod::PropagateMset(const Mset& mset) {
  // Write-ahead: the origin logs every MSet it broadcasts — including
  // gap-filler no-ops, which a recovering ordered site needs to close its
  // total-order holes — before the transport sees it.
  if (ctx_.recovery != nullptr) ctx_.recovery->LogMset(mset);
  const int64_t size_bytes =
      64 + 32 * static_cast<int64_t>(mset.operations.size());
  msg::Envelope envelope{kMsetMsg, mset};
  envelope.trace = TraceContext{.et = mset.et, .origin = mset.origin};
  const std::vector<SiteId> targets = MsetTargets(mset);
  for (SiteId s : targets) ctx_.queues->Send(s, envelope, size_bytes);
  events_.Increment("esr.msets_propagated",
                    static_cast<int64_t>(targets.size()));
  // Gap-filler no-op MSets (et == kInvalidEtId) and synthetic quasi-copy
  // refreshes (negative ids) are transport noise, not ET lifecycle events.
  if (ctx_.tracer != nullptr && mset.et > 0) {
    ctx_.tracer->OnEnqueue(mset.et, ctx_.site, targets);
  }
}

void ReplicaControlMethod::RecordRead(const QueryState& query,
                                      ObjectId object, const Value& v,
                                      int64_t inc, int64_t site_apply_index) {
  if (!ctx_.config->record_history) return;
  analysis::ReadRecord r;
  r.query = query.id;
  r.site = ctx_.site;
  r.object = object;
  r.value = v;
  r.time = ctx_.simulator->Now();
  r.inconsistency_increment = inc;
  r.pin = query.order_pin;
  r.site_apply_index = site_apply_index;
  ctx_.history->RecordRead(std::move(r));
}

void ReplicaControlMethod::RecordApplied(const Mset& mset) {
  // During WAL replay the pre-crash run already recorded this apply in the
  // shared history/tracer/metrics; re-recording would double-count it.
  const bool replaying = InReplay();
  if (ctx_.config->record_history && !replaying) {
    ctx_.history->RecordApply(mset.et, ctx_.site, ctx_.simulator->Now());
  }
  if (!replaying) events_.Increment("esr.msets_applied");
  if (ctx_.tracer != nullptr && mset.et > 0 && !replaying) {
    ctx_.tracer->OnApply(mset.et, ctx_.site, ctx_.simulator->Now());
  }
  if (!replaying) {
    for (const store::Operation& op : mset.operations) {
      ctx_.metrics
          ->GetCounter("esr_ops_applied_total",
                       {{"object_class",
                         std::string(store::OpKindToString(op.kind))},
                        {"site", std::to_string(ctx_.site)}})
          .Increment();
    }
  }
  ctx_.stability->ObserveMset(mset.et, mset.timestamp, mset.origin);
  // Merge the MSet's timestamp into the local clock so that locally issued
  // timestamps stay ahead of everything observed (VTNC monotonicity relies
  // on this).
  ctx_.clock->Observe(mset.timestamp);
  if (ctx_.recovery != nullptr) ctx_.recovery->OnApplied(mset);
  if (mset.origin == ctx_.site) {
    // A recovered origin re-applying its own WAL-logged MSet must track it
    // for the stability notice again (the pre-crash record lived past the
    // checkpoint and died with the site).
    if (ctx_.recovery != nullptr) TrackOutgoing(mset);
    if (ctx_.stability->RecordAck(mset.et, ctx_.site)) {
      MaybeBroadcastStable(mset.et);
    }
  } else {
    msg::Envelope ack{kApplyAckMsg, ApplyAck{mset.et, ctx_.site}};
    ack.trace = TraceContext{.et = mset.et, .origin = mset.origin};
    ctx_.queues->Send(mset.origin, std::move(ack), /*size_bytes=*/48);
  }
}

void ReplicaControlMethod::OnApplyAckMsg(SiteId /*source*/,
                                         const std::any& body) {
  const auto* ack = std::any_cast<ApplyAck>(&body);
  assert(ack != nullptr);
  // A late ack for an ET this origin dropped (an aborted COMPE ET) would
  // re-create a record nothing erases. Only a recovering origin keeps acks
  // for ETs it does not know: it may not have re-read its own MSet yet.
  const bool recovering =
      ctx_.recovery != nullptr &&
      (ctx_.recovery->in_replay() || ctx_.recovery->catching_up());
  if (!recovering && !ctx_.stability->Knows(ack->et)) return;
  // An ack for an ET already stable here changes nothing (RecordAck drops
  // it); a recovered replica re-acks every MSet catch-up re-applies.
  if (ctx_.stability->IsStable(ack->et)) return;
  if (ctx_.recovery != nullptr) ctx_.recovery->LogAck(ack->et, ack->replica);
  if (ctx_.stability->RecordAck(ack->et, ack->replica)) {
    MaybeBroadcastStable(ack->et);
  }
}

void ReplicaControlMethod::MaybeBroadcastStable(EtId et) {
  if (!ReadyForStable(et)) return;
  const recovery::OutgoingRecord* out = ctx_.stability->FindOutgoing(et);
  assert(out != nullptr && "stable ET not tracked at origin");
  const LamportTimestamp ts = out->ts;
  if (ctx_.recovery != nullptr) ctx_.recovery->LogStable(et, ts);
  msg::Envelope notice{kStableMsg, StableNotice{et, ts}};
  notice.trace = TraceContext{.et = et, .origin = ctx_.site};
  for (SiteId s : out->replicas) {
    if (s != ctx_.site) ctx_.queues->Send(s, notice, /*size_bytes=*/48);
  }
  events_.Increment("esr.stable");
  ctx_.stability->MarkStable(et);  // drops the record
  if (ctx_.tracer != nullptr && et > 0) {
    ctx_.tracer->OnStable(et, ctx_.site, ctx_.simulator->Now());
  }
  OnStable(et);
}

void ReplicaControlMethod::OnStableMsg(SiteId /*source*/,
                                       const std::any& body) {
  const auto* notice = std::any_cast<StableNotice>(&body);
  assert(notice != nullptr);
  ctx_.clock->Observe(notice->timestamp);
  ctx_.stability->ObserveClock(/*origin=*/notice->timestamp.site,
                               notice->timestamp);
  const bool was_stable = ctx_.stability->IsStable(notice->et);
  ctx_.stability->MarkStable(notice->et);
  if (!was_stable) {
    if (ctx_.recovery != nullptr) {
      ctx_.recovery->LogStable(notice->et, notice->timestamp);
    }
    OnStable(notice->et);
  }
  OnWatermarkAdvance();
}

void ReplicaControlMethod::SendHeartbeat() {
  const LamportTimestamp now = ctx_.clock->Now();
  for (SiteId s = 0; s < ctx_.num_sites; ++s) {
    if (s == ctx_.site) continue;
    ctx_.queues->Send(s, msg::Envelope{kHeartbeatMsg, Heartbeat{now}},
                      /*size_bytes=*/32);
  }
}

void ReplicaControlMethod::OnHeartbeatMsg(SiteId source,
                                          const std::any& body) {
  const auto* hb = std::any_cast<Heartbeat>(&body);
  assert(hb != nullptr);
  ctx_.clock->Observe(hb->clock);
  ctx_.stability->ObserveClock(source, hb->clock);
  OnWatermarkAdvance();
}

std::unique_ptr<ReplicaControlMethod> MakeMethod(const MethodContext& ctx) {
  switch (ctx.config->method) {
    case Method::kOrdup:
      return std::make_unique<OrdupMethod>(ctx);
    case Method::kOrdupTs:
      return std::make_unique<OrdupTsMethod>(ctx);
    case Method::kCommu:
      return std::make_unique<CommuMethod>(ctx);
    case Method::kRituMulti:
      return std::make_unique<RituMethod>(ctx, /*multiversion=*/true);
    case Method::kRituSingle:
      return std::make_unique<RituMethod>(ctx, /*multiversion=*/false);
    case Method::kCompe:
      return std::make_unique<CompeMethod>(ctx, /*ordered=*/false);
    case Method::kCompeOrdered:
      return std::make_unique<CompeMethod>(ctx, /*ordered=*/true);
    case Method::kQuasiCopy:
      return std::make_unique<QuasiCopyMethod>(ctx);
    case Method::kSync2pc:
    case Method::kSyncQuorum:
      assert(false && "synchronous baselines are wired by the facade");
      return nullptr;
  }
  return nullptr;
}

}  // namespace esr::core
