#include "runtime/ordup_node.h"

#include <algorithm>
#include <utility>

#include "common/wire.h"
#include "msg/mailbox.h"
#include "msg/sequencer_wire.h"
#include "recovery/checkpointer.h"
#include "recovery/codec.h"

namespace esr::runtime {

namespace {

/// Catch-up responses carry at most this many MSets (requester iterates).
constexpr int32_t kCatchupBatch = 256;

std::string EncodeMset(const core::Mset& mset) {
  recovery::Encoder e;
  e.MsetRec(mset);
  return e.Take();
}

}  // namespace

std::string EncodePositions(std::initializer_list<SequenceNumber> positions) {
  wire::Encoder e;
  for (SequenceNumber p : positions) e.Varint(static_cast<uint64_t>(p));
  return e.Take();
}

bool DecodePositions(std::string_view payload,
                     std::initializer_list<SequenceNumber*> out) {
  wire::Decoder d(payload);
  for (SequenceNumber* p : out) *p = static_cast<SequenceNumber>(d.Varint());
  return d.ok();
}

OrdupNode::OrdupNode(OrdupNodeConfig config, Transport* transport,
                     Clock* clock, recovery::Wal* wal,
                     obs::MetricRegistry* metrics)
    : config_(config),
      transport_(transport),
      clock_(clock),
      wal_(wal),
      metrics_(metrics),
      store_(store::MvStoreOptions{.partitions = config.store_partitions}),
      peer_applied_(static_cast<size_t>(config.num_sites), 0),
      told_(static_cast<size_t>(config.num_sites), 0),
      seq_client_(this, clock, config.sequencer_site, config.incarnation) {
  // ET ids, like the client's request ids, start from the incarnation: they
  // must never collide with a previous life of this site (the sequencer
  // site dedups request retries by id, so a reused id would be answered
  // with the dead predecessor's position). Wall-clock µs outruns any
  // realistic submit count, so `incarnation > previous incarnation +
  // previous submits` holds.
  submit_counter_ = config_.incarnation;
  seq_client_.set_high_watermark_provider([this] { return MaxOrderSeen(); });
  if (metrics_ != nullptr) {
    m_submitted_ = &metrics_->GetCounter("esr_runtime_updates_submitted_total");
    m_applied_ = &metrics_->GetCounter("esr_runtime_msets_applied_total");
    m_stable_ = &metrics_->GetCounter("esr_runtime_ets_stable_total");
    m_retransmits_ = &metrics_->GetCounter("esr_runtime_retransmits_total");
    m_duplicates_ = &metrics_->GetCounter("esr_runtime_duplicates_total");
    m_snapshots_sent_ =
        &metrics_->GetCounter("esr_runtime_snapshots_sent_total");
    m_snapshots_installed_ =
        &metrics_->GetCounter("esr_runtime_snapshots_installed_total");
    m_commit_stable_us_ =
        &metrics_->GetHistogram("esr_runtime_commit_to_stable_us");
    m_submit_commit_us_ =
        &metrics_->GetHistogram("esr_runtime_submit_to_commit_us");
    m_applied_watermark_ = &metrics_->GetGauge("esr_runtime_applied_watermark");
    m_stable_watermark_ = &metrics_->GetGauge("esr_runtime_stable_watermark");
    m_history_msets_ = &metrics_->GetGauge("esr_runtime_history_msets");
  }
}

void OrdupNode::Start() {
  if (running_) return;
  // Replay before running_: re-applying the log sends no apply acks (peers
  // learn this site's watermark from the retry loop instead).
  ReplayWal();
  running_ = true;
  transport_->SetHandler([this](SiteId from, Message msg) {
    if (!running_) return;
    HandleMessage(from, std::move(msg));
  });
  transport_->Start();
  if (config_.self == config_.sequencer_site) {
    // With peers, seal until the probe answers (or RetryTick times it
    // out): the durable WAL floor alone cannot prove no higher position was
    // granted before the crash — a peer may have seen a grant this site
    // never flushed.
    const bool probe = config_.num_sites > 1;
    msg::SequencerPort* port = this;
    seq_server_ = std::make_unique<msg::SequencerServer>(
        port, clock_, /*start_sealed=*/probe, /*epoch=*/1, MaxOrderSeen() + 1,
        config_.incarnation);
    if (probe) {
      std::vector<SiteId> peers;
      for (SiteId s = 0; s < config_.num_sites; ++s) {
        if (s != config_.self) peers.push_back(s);
      }
      seq_server_->BeginTakeover(/*durable_floor=*/1, peers);
    }
  }
  if (config_.num_sites > 1 && applied_watermark() >= 0) {
    SendCatchupRequest();
  }
  retry_timer_ =
      clock_->Schedule(config_.retry_interval_us, [this] { RetryTick(); });
}

void OrdupNode::Stop() {
  if (!running_) return;
  running_ = false;
  if (retry_timer_ != 0) clock_->Cancel(retry_timer_);
  retry_timer_ = 0;
}

void OrdupNode::ReplayWal() {
  if (wal_ == nullptr) return;
  // Only MSets matter: stability is re-learned from peers, so kStable
  // records that older versions wrote are skipped.
  std::vector<recovery::WalRecord> records = wal_->ReadAll();
  for (recovery::WalRecord& rec : records) {
    if (rec.type == recovery::WalRecordType::kMset &&
        rec.mset.global_order >= 1) {
      Admit(std::move(rec.mset), /*persist=*/false);
    }
  }
}

EtId OrdupNode::SubmitUpdate(std::vector<store::Operation> ops,
                             std::function<void()> on_stable) {
  const EtId et =
      submit_counter_++ * static_cast<int64_t>(config_.num_sites) +
      static_cast<int64_t>(config_.self) + 1;
  ++submitted_count_;
  if (m_submitted_ != nullptr) m_submitted_->Increment();
  // Until its grant, the ET lives in the client's pending request.
  seq_client_.Request(
      [this, et, local = LocalEt{std::move(ops), clock_->Now(), 0,
                                 std::move(on_stable)}](
          SequenceNumber position) mutable {
        OnGranted(et, position, std::move(local));
      },
      TraceContext{et, 0, config_.self, msg::kSeqRequest});
  return et;
}

void OrdupNode::HandleMessage(SiteId from, Message msg) {
  switch (msg.type) {
    case core::kMsetMsg: {
      recovery::Decoder d(msg.payload);
      core::Mset mset = d.MsetRec();
      if (d.ok() && mset.global_order >= 1) {
        Admit(std::move(mset), /*persist=*/true);
      }
      break;
    }
    case core::kApplyAckMsg: {
      // Credited to the transport sender: a payload field could name any
      // site, letting one peer make an ET stable on another's behalf.
      SequenceNumber applied = 0;
      if (DecodePositions(msg.payload, {&applied})) ObservePeer(from, applied);
      break;
    }
    case kWatermarkMsg: {
      SequenceNumber applied = 0;
      SequenceNumber echo = 0;
      if (DecodePositions(msg.payload, {&applied, &echo})) {
        HandleWatermark(from, applied, echo);
      }
      break;
    }
    case msg::kSeqRequest: {
      auto req = msg::DecodeSeqBatchRequest(msg.payload);
      if (!req) break;
      // The request's trace rides the envelope, where SendTo stamped the
      // same context the client gave the request.
      req->trace = msg.trace;
      HandleSeqRequest(from, *req);
      break;
    }
    case msg::kSeqResponse: {
      auto grant = msg::DecodeSeqBatchGrant(msg.payload);
      if (grant) seq_client_.OnGrant(from, *grant);
      break;
    }
    case msg::kSeqProbeRequest: {
      auto probe = msg::DecodeSeqProbeRequest(msg.payload);
      if (probe) seq_client_.OnProbe(from, *probe);
      break;
    }
    case msg::kSeqProbeResponse: {
      auto answer = msg::DecodeSeqProbeResponse(msg.payload);
      if (answer && seq_server_) seq_server_->OnProbeAnswer(from, *answer);
      break;
    }
    case msg::kSeqEpochAnnounce: {
      auto ann = msg::DecodeSeqEpochAnnounce(msg.payload);
      if (ann) seq_client_.OnEpochAnnounce(from, *ann);
      break;
    }
    case kCatchupReqMsg: {
      SequenceNumber after = 0;
      if (DecodePositions(msg.payload, {&after})) HandleCatchupReq(from, after);
      break;
    }
    case kCatchupRespMsg:
      HandleCatchupResp(from, msg.payload);
      break;
    case kSnapshotRespMsg:
      HandleSnapshotResp(from, msg.payload);
      break;
    case kPosProbeReqMsg: {
      SequenceNumber pos = 0;
      if (DecodePositions(msg.payload, {&pos})) HandlePosProbeReq(from, pos);
      break;
    }
    case kPosProbeRespMsg:
      HandlePosProbeResp(from, msg.payload);
      break;
    default:
      break;
  }
}

/// --- Sequencer -------------------------------------------------------------

void OrdupNode::HandleSeqRequest(SiteId from, const msg::SeqBatchRequest& req) {
  if (seq_server_ == nullptr || seq_server_->sealed()) return;
  // Incarnation bookkeeping happens before the epoch gate: even a
  // stale-epoch request proves the site restarted.
  auto inc_it = last_incarnation_.find(from);
  if (inc_it == last_incarnation_.end()) {
    last_incarnation_[from] = req.incarnation;
  } else if (req.incarnation > inc_it->second) {
    inc_it->second = req.incarnation;
    // The previous life of `from` is dead with amnesia. Any position it was
    // granted but that never showed up as an MSet is a permanent hole in
    // the total order (the new life uses fresh request ids, so the retry
    // path can never fill it) — heal each one.
    for (const auto& [pos, owner] : unfilled_grants_) {
      if (owner.first == from && owner.second < req.incarnation) {
        StartHealing(pos);
      }
    }
  }
  const int64_t epoch = seq_server_->epoch();
  if (req.epoch != epoch) {
    // Stale epoch. A client that restarted after the epoch announce has no
    // way to learn the current epoch on its own (the announce is broadcast
    // once, at probe completion) — repeat it to this client, which then
    // re-sends every pending request in the new epoch.
    msg::SeqEpochAnnounce ann{epoch, config_.self, seq_server_->NextToGrant()};
    SendTo(from, msg::kSeqEpochAnnounce, msg::EncodeSeqEpochAnnounce(ann),
           kInvalidEtId);
    return;
  }
  const std::pair<SiteId, int64_t> key{from, req.request_id};
  auto it = granted_.find(key);
  if (it != granted_.end()) {
    // Retry of a granted request: repeat the identical grant (the original
    // may be in flight or lost — never grant the same request twice).
    const auto [first, count] = it->second;
    SendGrant(from, msg::SeqBatchGrant{req.request_id, first, count, epoch},
              req.trace);
    return;
  }
  // The server grants [first, end) and sends it through SendGrant; a
  // request it drops (a count out of range) leaves NextToGrant() alone.
  const SequenceNumber first = seq_server_->NextToGrant();
  seq_server_->OnRequest(from, req);
  const SequenceNumber end = seq_server_->NextToGrant();
  if (end == first) return;
  granted_.emplace(key,
                   std::make_pair(first, static_cast<int32_t>(end - first)));
  for (SequenceNumber p = first; p < end; ++p) {
    unfilled_grants_.emplace(p, std::make_pair(from, req.incarnation));
  }
}

void OrdupNode::SendRequest(SiteId to, const msg::SeqBatchRequest& request) {
  SendTo(to, msg::kSeqRequest, msg::EncodeSeqBatchRequest(request),
         request.trace.et);
}

void OrdupNode::SendProbeAnswer(SiteId to,
                                const msg::SeqProbeResponse& answer) {
  SendTo(to, msg::kSeqProbeResponse, msg::EncodeSeqProbeResponse(answer),
         kInvalidEtId);
}

void OrdupNode::SendGrant(SiteId to, const msg::SeqBatchGrant& grant,
                          const TraceContext& trace) {
  SendTo(to, msg::kSeqResponse, msg::EncodeSeqBatchGrant(grant), trace.et);
}

void OrdupNode::SendProbe(SiteId to, const msg::SeqProbeRequest& probe) {
  SendTo(to, msg::kSeqProbeRequest, msg::EncodeSeqProbeRequest(probe),
         kInvalidEtId);
}

void OrdupNode::AnnounceEpoch(const msg::SeqEpochAnnounce& announce) {
  // Every client re-sends its pending requests under fresh ids in the new
  // epoch, so the old epoch's grants are never asked for again.
  granted_.clear();
  Broadcast(msg::kSeqEpochAnnounce, msg::EncodeSeqEpochAnnounce(announce),
            kInvalidEtId);
  seq_client_.OnEpochAnnounce(config_.self, announce);
}

void OrdupNode::OnGranted(EtId et, SequenceNumber position, LocalEt local) {
  core::Mset mset;
  mset.et = et;
  mset.origin = config_.self;
  mset.global_order = position;
  mset.timestamp = LamportTimestamp{++lamport_, config_.self};
  mset.operations = std::move(local.ops);
  mset.tentative = false;
  unstable_.emplace(position, std::move(local));
  const std::string payload = EncodeMset(mset);
  Admit(std::move(mset), /*persist=*/true);
  Broadcast(core::kMsetMsg, payload, et);
}

/// --- Order-hole healing (sequencer server only) ----------------------------

void OrdupNode::StartHealing(SequenceNumber pos) {
  if (healing_.count(pos) > 0) return;  // in flight
  if (pos <= applied_watermark() || order_.Find(pos) != nullptr) return;
  std::unordered_set<SiteId>& awaiting = healing_[pos];
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    if (s != config_.self) awaiting.insert(s);
  }
  if (awaiting.empty()) {  // single-site cluster: nobody else to ask
    healing_.erase(pos);
    FillHole(pos);
    return;
  }
  Broadcast(kPosProbeReqMsg, EncodePositions({pos}), kInvalidEtId);
}

void OrdupNode::HandlePosProbeReq(SiteId from, SequenceNumber pos) {
  // A trimmed position was applied everywhere, so no live server probes
  // it; should one ask anyway, stay silent rather than deny holding it (a
  // denial from every site would fill a real MSet's position with a no-op).
  if (pos <= history_floor_) return;
  const core::Mset* found = FindMset(pos);
  recovery::Encoder e;
  e.Varint(static_cast<uint64_t>(pos));
  e.U8(found != nullptr ? 1 : 0);
  if (found != nullptr) e.MsetRec(*found);
  SendTo(from, kPosProbeRespMsg, e.Take(), kInvalidEtId);
}

void OrdupNode::HandlePosProbeResp(SiteId from, std::string_view payload) {
  recovery::Decoder d(payload);
  const auto pos = static_cast<SequenceNumber>(d.Varint());
  const bool has = d.U8() != 0;
  if (!d.ok()) return;
  auto it = healing_.find(pos);
  if (it == healing_.end()) return;  // already healed or filled naturally
  if (has) {
    core::Mset mset = d.MsetRec();
    if (!d.ok() || mset.global_order != pos) return;
    // The predecessor did broadcast before dying — at least one site holds
    // the real MSet. Adopt and re-broadcast it; never fill with a no-op.
    healing_.erase(it);
    const EtId et = mset.et;
    const std::string payload = EncodeMset(mset);
    Admit(std::move(mset), /*persist=*/true);
    Broadcast(core::kMsetMsg, payload, et);
    return;
  }
  it->second.erase(from);
  if (it->second.empty()) {
    // Every site denied holding the position, so the grant died inside the
    // client: the MSet was never broadcast anywhere. Filling with a no-op
    // is safe — the only process that could still produce the real MSet is
    // the dead incarnation.
    healing_.erase(it);
    FillHole(pos);
  }
}

void OrdupNode::FillHole(SequenceNumber pos) {
  if (pos <= applied_watermark() || order_.Find(pos) != nullptr) return;
  core::Mset noop;
  noop.et = submit_counter_++ * static_cast<int64_t>(config_.num_sites) +
            static_cast<int64_t>(config_.self) + 1;
  noop.origin = config_.self;
  noop.global_order = pos;
  noop.timestamp = LamportTimestamp{++lamport_, config_.self};
  noop.tentative = false;
  const EtId et = noop.et;
  const std::string payload = EncodeMset(noop);
  Admit(std::move(noop), /*persist=*/true);
  Broadcast(core::kMsetMsg, payload, et);
}

/// --- Total order admission + apply ----------------------------------------

void OrdupNode::Admit(core::Mset mset, bool persist) {
  const SequenceNumber order = mset.global_order;
  // Server healing bookkeeping: the position is no longer a candidate hole
  // (no-ops at non-servers — both maps stay empty there).
  unfilled_grants_.erase(order);
  healing_.erase(order);
  if (!order_.Offer(order, std::move(mset))) {
    // Duplicate, and `mset` is untouched. If it reached the applied prefix
    // and originated elsewhere, our ack was probably lost — repeat it.
    if (m_duplicates_ != nullptr) m_duplicates_->Increment();
    if (running_ && order <= applied_watermark() &&
        mset.origin != config_.self && mset.origin != kInvalidSiteId) {
      SendApplyAck(mset.origin, mset.et);
    }
    return;
  }
  if (persist && wal_ != nullptr) wal_->AppendMset(*order_.Find(order));
  DrainHoldback();
}

void OrdupNode::DrainHoldback() {
  const SequenceNumber before = applied_watermark();
  while (order_.Head() != nullptr) ApplyInOrder(order_.Pop());
  gap_since_ = order_.Empty() ? -1 : clock_->Now();
  if (applied_watermark() > before) {
    if (m_applied_watermark_ != nullptr) {
      m_applied_watermark_->Set(static_cast<double>(applied_watermark()));
    }
    AdvanceStable();
  }
}

void OrdupNode::ApplyInOrder(core::Mset mset) {
  store_.ApplyAll(mset.operations);
  lamport_ = std::max(lamport_, mset.timestamp.counter) + 1;
  ++applied_count_;
  if (m_applied_ != nullptr) m_applied_->Increment();
  if (mset.origin == config_.self) {
    auto it = unstable_.find(mset.global_order);
    if (it != unstable_.end()) {
      LocalEt& local = it->second;
      local.committed_at = clock_->Now();
      if (m_submit_commit_us_ != nullptr) {
        m_submit_commit_us_->Observe(
            static_cast<double>(local.committed_at - local.submitted_at));
      }
    }
  } else if (running_ && mset.origin != kInvalidSiteId) {
    SendApplyAck(mset.origin, mset.et);
  }
  history_.emplace(mset.global_order, std::move(mset));
}

const core::Mset* OrdupNode::FindMset(SequenceNumber pos) const {
  auto h = history_.find(pos);
  if (h != history_.end()) return &h->second;
  return order_.Find(pos);
}

/// --- Stability -------------------------------------------------------------

void OrdupNode::ObservePeer(SiteId from, SequenceNumber applied) {
  if (from < 0 || from >= config_.num_sites || from == config_.self) return;
  SequenceNumber& known = peer_applied_[static_cast<size_t>(from)];
  if (applied <= known) return;
  known = applied;
  AdvanceStable();
}

void OrdupNode::HandleWatermark(SiteId from, SequenceNumber applied,
                                SequenceNumber echo) {
  if (from < 0 || from >= config_.num_sites || from == config_.self) return;
  // The peer knows less of this site than it was told: that message was
  // lost (or is still in flight). Tell it again on the next retry tick.
  SequenceNumber& told = told_[static_cast<size_t>(from)];
  told = std::min(told, echo);
  ObservePeer(from, applied);
}

void OrdupNode::AdvanceStable() {
  SequenceNumber stable = applied_watermark();
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    if (s != config_.self) {
      stable = std::min(stable, peer_applied_[static_cast<size_t>(s)]);
    }
  }
  if (stable > stable_watermark_) {
    if (m_stable_ != nullptr) m_stable_->Increment(stable - stable_watermark_);
    stable_watermark_ = stable;
    if (m_stable_watermark_ != nullptr) {
      m_stable_watermark_->Set(static_cast<double>(stable));
    }
    // Every site has applied the stable prefix, so no live peer asks for it
    // again; a restarted one that lost it gets a snapshot instead.
    history_.erase(history_.begin(), history_.upper_bound(stable));
    history_floor_ = std::max(history_floor_, stable);
  }
  // Refreshed on every call: Admit calls here after each applied batch.
  if (m_history_msets_ != nullptr) {
    m_history_msets_->Set(static_cast<double>(history_.size()));
  }
  // Extract before the callback runs: it may submit (and so re-enter).
  while (!unstable_.empty() && unstable_.begin()->first <= stable) {
    LocalEt local = std::move(unstable_.extract(unstable_.begin()).mapped());
    if (local.committed_at > 0 && m_commit_stable_us_ != nullptr) {
      m_commit_stable_us_->Observe(
          static_cast<double>(clock_->Now() - local.committed_at));
    }
    if (local.on_stable) local.on_stable();
  }
}

void OrdupNode::SendApplyAck(SiteId origin, EtId et) {
  SendTo(origin, core::kApplyAckMsg, EncodePositions({applied_watermark()}),
         et);
  if (origin >= 0 && origin < config_.num_sites) {
    SequenceNumber& told = told_[static_cast<size_t>(origin)];
    told = std::max(told, applied_watermark());
  }
}

void OrdupNode::SendWatermark(SiteId to) {
  SendTo(to, kWatermarkMsg,
         EncodePositions(
             {applied_watermark(), peer_applied_[static_cast<size_t>(to)]}),
         kInvalidEtId);
  told_[static_cast<size_t>(to)] = applied_watermark();
}

/// --- Catch-up / backfill ----------------------------------------------------

void OrdupNode::SendCatchupRequest() {
  if (config_.num_sites <= 1) return;
  // Round-robin over peers so one slow peer cannot wedge backfill.
  SiteId target = kInvalidSiteId;
  for (int i = 0; i < config_.num_sites; ++i) {
    const SiteId cand = catchup_rr_;
    catchup_rr_ = (catchup_rr_ + 1) % config_.num_sites;
    if (cand != config_.self) {
      target = cand;
      break;
    }
  }
  if (target == kInvalidSiteId) return;
  SendTo(target, kCatchupReqMsg, EncodePositions({applied_watermark()}),
         kInvalidEtId);
}

void OrdupNode::HandleCatchupReq(SiteId from, SequenceNumber after) {
  ObservePeer(from, after);  // the requester's applied watermark
  if (after < history_floor_) {
    SendSnapshot(from);
    return;
  }
  wire::Encoder e;
  auto it = history_.upper_bound(after);
  int32_t n = 0;
  recovery::Encoder entries;
  for (; it != history_.end() && n < kCatchupBatch; ++it, ++n) {
    entries.MsetRec(it->second);
  }
  if (n == 0) return;  // nothing to offer
  e.Varint(static_cast<uint64_t>(applied_watermark()));
  e.Varint(static_cast<uint32_t>(n));
  e.Raw(entries.bytes());
  SendTo(from, kCatchupRespMsg, e.Take(), kInvalidEtId);
}

void OrdupNode::HandleCatchupResp(SiteId from, std::string_view payload) {
  recovery::Decoder d(payload);
  const auto responder_applied = static_cast<SequenceNumber>(d.Varint());
  const auto n = static_cast<uint32_t>(d.Varint(UINT32_MAX));
  if (!d.ok()) return;
  const SequenceNumber before = applied_watermark();
  for (uint32_t i = 0; i < n && d.ok(); ++i) {
    core::Mset mset = d.MsetRec();
    if (!d.ok() || mset.global_order < 1) break;
    Admit(std::move(mset), /*persist=*/true);
  }
  ObservePeer(from, responder_applied);
  // A full batch means the responder has more; keep pulling.
  if (applied_watermark() > before &&
      n >= static_cast<uint32_t>(kCatchupBatch)) {
    SendCatchupRequest();
  }
}

void OrdupNode::SendSnapshot(SiteId to) {
  // The applied prefix is a consistent cut of the total order, so the
  // store as it stands is the image at applied_watermark().
  recovery::CheckpointData image;
  image.cut.order_watermark = applied_watermark();
  image.clock_counter = lamport_;
  image.store_entries = store_.SnapshotEntries();
  std::string payload = recovery::EncodeCheckpoint(image);
  // Leave room for the transport's per-message envelope.
  if (payload.size() + 64 > kMaxFramePayloadBytes) return;
  SendTo(to, kSnapshotRespMsg, std::move(payload), kInvalidEtId);
  if (m_snapshots_sent_ != nullptr) m_snapshots_sent_->Increment();
}

void OrdupNode::HandleSnapshotResp(SiteId from, std::string_view payload) {
  recovery::CheckpointData image;
  if (!recovery::DecodeCheckpoint(payload, &image)) return;
  const SequenceNumber image_watermark = image.cut.order_watermark;
  if (image_watermark <= applied_watermark()) return;  // stale
  // The image replaces the whole applied prefix: the responder applied the
  // same total order up to image_watermark.
  store_.Clear();
  for (auto& [object, value, write_ts] : image.store_entries) {
    store_.RestoreEntry(object, std::move(value), write_ts);
  }
  order_.SkipThrough(image_watermark);
  lamport_ = std::max(lamport_, image.clock_counter);
  history_.clear();
  history_floor_ = image_watermark;
  auto drop_through = [image_watermark](auto& by_position) {
    by_position.erase(by_position.begin(),
                      by_position.upper_bound(image_watermark));
  };
  drop_through(unfilled_grants_);
  drop_through(healing_);
  if (m_snapshots_installed_ != nullptr) m_snapshots_installed_->Increment();
  if (m_applied_watermark_ != nullptr) {
    m_applied_watermark_->Set(static_cast<double>(applied_watermark()));
  }
  DrainHoldback();
  ObservePeer(from, image_watermark);
  AdvanceStable();
}

/// --- Retry loop -------------------------------------------------------------

void OrdupNode::RetryTick() {
  if (!running_) return;
  const SimTime now = clock_->Now();
  // The sequencer's startup probe asks silent peers again each tick (they
  // may still be booting); after kProbeTicks it unseals on what it heard.
  if (seq_server_ != nullptr && seq_server_->recovering()) {
    if (++probe_ticks_ < kProbeTicks) {
      seq_server_->ResendProbe();
    } else {
      seq_server_->FinishTakeover();
    }
  }
  // Re-send in-flight sequencer requests (HandleSeqRequest dedups them).
  const int64_t resent = seq_client_.ResendInflight();
  if (m_retransmits_ != nullptr && resent > 0) {
    m_retransmits_->Increment(resent);
  }
  // Re-send each local MSet not yet stable to the peers whose known
  // watermark is below its position.
  for (const auto& [pos, local] : unstable_) {
    const core::Mset* mset = FindMset(pos);
    if (mset == nullptr) continue;
    std::string payload;
    for (SiteId s = 0; s < config_.num_sites; ++s) {
      if (s == config_.self || peer_applied_[static_cast<size_t>(s)] >= pos) {
        continue;
      }
      if (payload.empty()) payload = EncodeMset(*mset);
      SendTo(s, core::kMsetMsg, payload, mset->et);
      if (m_retransmits_ != nullptr) m_retransmits_->Increment();
    }
  }
  // Stability gossip: at most one watermark message per peer per tick. A
  // peer hears this site's watermark once it moved past what the peer was
  // told (apply acks also tell). While stability stalls for a whole tick,
  // the peers that look behind hear it too: their reply carries fresh
  // progress, or their echo shows a lost message to re-send.
  const bool stalled = stable_watermark_ < applied_watermark() &&
                       stable_watermark_ == stable_at_last_tick_;
  stable_at_last_tick_ = stable_watermark_;
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    if (s == config_.self) continue;
    const auto i = static_cast<size_t>(s);
    if (told_[i] < applied_watermark() ||
        (stalled && peer_applied_[i] < applied_watermark())) {
      SendWatermark(s);
    }
  }
  // Re-probe unanswered sites for every hole still being healed.
  for (const auto& [pos, awaiting] : healing_) {
    const std::string payload = EncodePositions({pos});
    for (SiteId s : awaiting) {
      SendTo(s, kPosProbeReqMsg, payload, kInvalidEtId);
    }
  }
  // A total-order gap that outlived its grace period: pull a backfill.
  if (gap_since_ >= 0 && now - gap_since_ >= config_.gap_timeout_us) {
    SendCatchupRequest();
    gap_since_ = now;  // throttle to one request per timeout
  }
  retry_timer_ =
      clock_->Schedule(config_.retry_interval_us, [this] { RetryTick(); });
}

/// --- Plumbing ---------------------------------------------------------------

void OrdupNode::SendTo(SiteId to, int type, std::string payload, EtId et) {
  Message msg;
  msg.type = type;
  msg.payload = std::move(payload);
  msg.trace = TraceContext{et, 0, config_.self, static_cast<int32_t>(type)};
  transport_->Send(to, std::move(msg));
}

void OrdupNode::Broadcast(int type, const std::string& payload, EtId et) {
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    if (s == config_.self) continue;
    SendTo(s, type, payload, et);
  }
}

std::string OrdupNode::DebugStuck(int limit) const {
  std::string out =
      "ungranted=" + std::to_string(seq_client_.PendingCount()) + " ";
  int n = 0;
  for (const auto& [pos, local] : unstable_) {
    if (n++ >= limit) break;
    out += "unstable{pos=" + std::to_string(pos) + "} ";
  }
  out += "epoch=" + std::to_string(seq_client_.epoch()) +
         " applied=" + std::to_string(applied_watermark()) +
         " stable=" + std::to_string(stable_watermark_) + " peers=";
  for (SequenceNumber w : peer_applied_) out += std::to_string(w) + ",";
  return out;
}

}  // namespace esr::runtime
