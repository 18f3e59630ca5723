#include "esr/ordup.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace esr::core {

namespace {
/// Non-owned shards report "infinity" in checkpoint watermarks: this site
/// never needs records of those streams.
constexpr SequenceNumber kShardWatermarkInfinity =
    std::numeric_limits<SequenceNumber>::max();
}  // namespace

OrdupMethod::OrdupMethod(const MethodContext& ctx)
    : ReplicaControlMethod(ctx) {
  if (ctx_.placement == nullptr) {
    assert(ctx_.sequencer != nullptr);
    streams_[kGlobalOrder];  // default-construct the stream
  } else {
    assert(static_cast<int>(ctx_.shard_sequencers.size()) ==
           ctx_.placement->num_shards());
    for (ShardId k : ctx_.placement->OwnedShards(ctx_.site)) streams_[k];
  }
}

OrdupMethod::Positions OrdupMethod::PositionsOf(const Mset& mset) {
  if (mset.shard_positions.empty()) return {{kGlobalOrder, mset.global_order}};
  return mset.shard_positions;
}

msg::SequencerClient* OrdupMethod::Client(ShardId service) const {
  return service == kGlobalOrder ? ctx_.sequencer
                                 : ctx_.shard_sequencers[service];
}

Mset OrdupMethod::Noop(ShardId service, SequenceNumber seq) const {
  Mset noop;
  noop.et = kInvalidEtId;
  noop.origin = ctx_.site;
  if (service == kGlobalOrder) {
    noop.global_order = seq;
  } else {
    noop.shard_positions = {{service, seq}};
  }
  return noop;
}

void OrdupMethod::ReleasePositionRemotely(ShardId service,
                                          SequenceNumber seq) {
  Mset noop = Noop(service, seq);
  noop.timestamp = ctx_.clock->Tick();
  PropagateMset(noop);
}

void OrdupMethod::SubmitUpdate(EtId et, std::vector<store::Operation> ops,
                               CommitFn done) {
  const LamportTimestamp ts = ctx_.clock->Tick();
  // "Sorting time: at update" — the order is obtained before the update
  // commits, and that round trip is the price ORDUP pays up front.
  std::vector<ShardId> services =
      ctx_.placement == nullptr ? std::vector<ShardId>{kGlobalOrder}
                                : ctx_.placement->ShardsOf(ops);
  assert(!services.empty());
  if (services.size() == 1) {
    // One order service: one round trip, and no coordination with any
    // site that does not follow it.
    const ShardId k = services.front();
    Client(k)->Request(
        [this, et, ts, k, ops = std::move(ops),
         done = std::move(done)](SequenceNumber seq) mutable {
          FinishCommit(et, ts, std::move(ops), {{k, seq}}, std::move(done));
        },
        TraceContext{.et = et, .origin = ctx_.site});
    return;
  }
  auto state = std::make_shared<CrossCommit>();
  state->et = et;
  state->ts = ts;
  state->ops = std::move(ops);
  state->done = std::move(done);
  state->shards = std::move(services);
  AcquireNextShard(std::move(state));
}

void OrdupMethod::AcquireNextShard(std::shared_ptr<CrossCommit> state) {
  if (state->next_shard == state->shards.size()) {
    // Every touched shard's position is held under its cross lock; the
    // vector is now immutable, so release all locks and commit.
    for (const auto& [k, token] : state->tokens) {
      Client(k)->ReleaseCross(token);
    }
    FinishCommit(state->et, state->ts, std::move(state->ops),
                 std::move(state->positions), std::move(state->done));
    return;
  }
  const ShardId k = state->shards[state->next_shard];
  Client(k)->RequestCross(
      [this, state, k](SequenceNumber pos, int64_t token) {
        state->positions.emplace_back(k, pos);
        state->tokens.emplace_back(k, token);
        ++state->next_shard;
        AcquireNextShard(state);
      },
      TraceContext{.et = state->et, .origin = ctx_.site});
}

void OrdupMethod::FinishCommit(EtId et, LamportTimestamp ts,
                               std::vector<store::Operation> ops,
                               Positions positions, CommitFn done) {
  std::sort(positions.begin(), positions.end());
  Mset mset;
  mset.et = et;
  mset.origin = ctx_.site;
  mset.timestamp = ts;
  mset.operations = std::move(ops);
  if (positions.front().first == kGlobalOrder) {
    mset.global_order = positions.front().second;
  } else {
    mset.shard_positions = positions;  // per-shard positions carry the order
  }
  // Owner-set stability: the ET is stable once every owner of its shards
  // applied it — non-owners never see it and never ack.
  CommitLocal(mset);
  OfferMset(mset);  // applies locally iff this site follows a named stream
  if (done) done(Status::Ok());
}

void OrdupMethod::ProcessMset(const Mset& mset) {
  if (ctx_.placement != nullptr && InReplay() && mset.origin == ctx_.site) {
    // A WAL-replayed own MSet whose shards this site does not own is never
    // applied here (no owned stream holds it), but its stability record
    // still has to come back.
    const bool names_owned_stream = std::any_of(
        mset.shard_positions.begin(), mset.shard_positions.end(),
        [this](const auto& position) {
          return streams_.count(position.first) != 0;
        });
    if (!names_owned_stream) {
      TrackOutgoing(mset);
      return;
    }
  }
  OfferMset(mset);
}

void OrdupMethod::OfferMset(const Mset& mset) {
  auto held = std::make_shared<const Held>(Held{mset, PositionsOf(mset)});
  bool offered = false;
  for (const auto& [k, p] : held->positions) {
    auto it = streams_.find(k);
    if (it == streams_.end()) continue;  // not followed at this site
    offered |= it->second.Offer(p, std::shared_ptr<const Held>(held));
  }
  if (offered) Drain();
}

bool OrdupMethod::AtBarrier(const Held& held) const {
  for (const auto& [k, p] : held.positions) {
    auto it = streams_.find(k);
    if (it == streams_.end()) continue;
    if (it->second.Watermark() != p - 1) return false;
  }
  return true;
}

void OrdupMethod::Drain() {
  if (ledger_.paused()) return;
  bool progress = true;
  while (progress) {
    progress = false;
    // Ascending service order keeps the drain deterministic. A head MSet
    // that spans streams applies only when at the head of all of them;
    // applying one MSet can unblock another, so restart from the lowest.
    for (const auto& [k, st] : streams_) {
      const std::shared_ptr<const Held>* head = st.Head();
      if (head == nullptr || !AtBarrier(**head)) continue;
      ApplyNow(*head);
      progress = true;
      break;
    }
    if (ledger_.paused()) return;
  }
}

void OrdupMethod::ApplyNow(std::shared_ptr<const Held> held) {
  // Pop every followed stream the MSet names, atomically with respect to
  // the drain: the barrier held, so each named stream's head is this
  // MSet's position.
  for (const auto& [k, p] : held->positions) {
    auto it = streams_.find(k);
    if (it == streams_.end()) continue;
    assert(it->second.Watermark() == p - 1);
    it->second.Pop();
  }
  const Mset& mset = held->mset;
  // No-op filling a sequenced query's or an orphaned position: advance
  // only.
  if (mset.et == kInvalidEtId) return;
  // Apply only the operations on objects this site owns; the rest belong
  // to owners of the MSet's other shards.
  Mset local = mset;
  if (ctx_.placement != nullptr) {
    std::erase_if(local.operations, [this](const store::Operation& op) {
      return !ctx_.placement->OwnsObject(ctx_.site, op.object);
    });
  }
  Status s = ctx_.store->ApplyAll(local.operations);
  assert(s.ok());
  (void)s;
  ledger_.RecordApply(local.operations);
  RecordApplied(local);
}

void OrdupMethod::OnReplayReflected(const Mset& mset) {
  // A checkpoint-reflected MSet replayed from the WAL: store effects are
  // present (or the site never applies it — a non-owner origin), but an
  // own MSet committed after the checkpoint still needs its stability
  // record back.
  TrackOutgoing(mset);
}

void OrdupMethod::SnapshotDurable(recovery::CheckpointData& out) const {
  out.apply_count = ledger_.applied();
  auto global = streams_.find(kGlobalOrder);
  if (global != streams_.end()) {
    out.cut.order_watermark = global->second.Watermark();
  }
  if (ctx_.placement == nullptr) return;
  out.cut.shard_watermarks.clear();
  for (ShardId k = 0; k < ctx_.placement->num_shards(); ++k) {
    auto it = streams_.find(k);
    out.cut.shard_watermarks[k] = it != streams_.end()
                                      ? it->second.Watermark()
                                      : kShardWatermarkInfinity;
  }
}

void OrdupMethod::RestoreDurable(const recovery::CheckpointData& in) {
  ledger_.RestoreApplied(in.apply_count);
  Positions watermarks(in.cut.shard_watermarks.begin(),
                       in.cut.shard_watermarks.end());
  watermarks.emplace_back(kGlobalOrder, in.cut.order_watermark);
  for (const auto& [k, wm] : watermarks) {
    auto it = streams_.find(k);
    if (it == streams_.end() || wm == kShardWatermarkInfinity) continue;
    it->second.SkipThrough(wm);
  }
}

void OrdupMethod::ReleaseOrphanPosition(ShardId service, SequenceNumber seq) {
  // The position was granted to an update that died in an amnesia crash:
  // fill it with a no-op at every site following the service (locally
  // included) so no stream waits forever.
  ReleasePositionRemotely(service, seq);
  OfferMset(Noop(service, seq));
}

SequenceNumber OrdupMethod::MaxOrderSeen(ShardId service) const {
  auto it = streams_.find(service);
  return it == streams_.end() ? 0 : it->second.MaxOffered();
}

Result<Value> OrdupMethod::TrySequencedRead(QueryState& query,
                                            ObjectId object) {
  auto it = query_positions_.find(query.id);
  if (it == query_positions_.end()) {
    // The sequence response has not arrived yet.
    ++query.blocked_attempts;
    return Status::Unavailable("awaiting the query's global order number");
  }
  const SequenceNumber position = it->second;
  const SequenceNumber watermark = streams_.at(kGlobalOrder).Watermark();
  if (watermark < position - 1) {
    // Not yet at the query's serialization point: earlier updates are
    // still outstanding.
    ++query.blocked_attempts;
    return Status::Unavailable("applier has not reached the query position");
  }
  // Watermark is exactly position-1 (the query's own number gaps the
  // stream, so it can never pass). Reads here are one-copy serializable —
  // "the overlap will be empty, yielding an SRlog". The charge is always
  // 0, so the pin is not registered with the ledger.
  assert(watermark == position - 1);
  query.pinned = true;
  query.order_pin = ledger_.applied();
  Value v = ctx_.store->Read(object);
  ++query.reads;
  RecordRead(query, object, v, /*inc=*/0, ledger_.applied());
  return v;
}

Result<Value> OrdupMethod::TryQueryRead(QueryState& query, ObjectId object) {
  if (ctx_.config->ordup_sequenced_queries) {
    return TrySequencedRead(query, object);
  }
  if (ctx_.placement != nullptr &&
      !ctx_.placement->OwnsObject(ctx_.site, object)) {
    // The facade forwards reads of non-owned objects to an owner site
    // before reaching the method; getting here is a routing bug.
    assert(false && "read of a non-owned object reached the method");
    return Status::FailedPrecondition("object not owned at this site");
  }
  // Strict (restarted, or epsilon already exhausted at start) queries
  // read at an exact point of the site's apply order: the ledger freezes
  // the followed streams at the pin.
  Result<int64_t> inc = ledger_.Charge(query, object);
  if (!inc.ok()) {
    // The conflicting updates are already applied; this attempt can never
    // proceed within budget. The facade restarts the query strictly.
    events_.Increment("esr.query_limit_hits");
    return inc.status();
  }
  Value v = ctx_.store->Read(object);
  ++query.reads;
  RecordRead(query, object, v, *inc, ledger_.applied());
  return v;
}

void OrdupMethod::OnQueryBegin(QueryState& query) {
  if (!ctx_.config->ordup_sequenced_queries) return;
  // The query takes its own number in the global order. Other sites skip
  // the number right away; this site holds the gap until the query ends,
  // so every read happens exactly at the query's serial position.
  const EtId id = query.id;
  ctx_.sequencer->Request([this, id](SequenceNumber position) {
    ReleasePositionRemotely(kGlobalOrder, position);
    if (ended_before_position_.erase(id) > 0) {
      // The query was abandoned before its number arrived: release the
      // local gap too.
      OfferMset(Noop(kGlobalOrder, position));
      return;
    }
    query_positions_.emplace(id, position);
  });
}

void OrdupMethod::OnQueryEnd(QueryState& query) {
  if (ledger_.Release(query)) Drain();
  if (ctx_.config->ordup_sequenced_queries) {
    auto it = query_positions_.find(query.id);
    if (it == query_positions_.end()) {
      ended_before_position_.insert(query.id);
      return;
    }
    const SequenceNumber position = it->second;
    query_positions_.erase(it);
    OfferMset(Noop(kGlobalOrder, position));
  }
}

void OrdupMethod::OnQueryRestart(QueryState& query) {
  // The restarted attempt is abandoned but the query lives on: release its
  // pin and applier pause (ResetForRestart() must not clear the flag
  // itself — that would leave the ledger's pause held and the streams
  // frozen). A sequenced query keeps its order position across restarts.
  if (ledger_.Release(query)) Drain();
}

}  // namespace esr::core
