#include "recovery/recovery_manager.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

namespace esr::recovery {

namespace {

obs::LabelSet SiteLabel(SiteId site) {
  return {{"site", std::to_string(site)}};
}

/// An MSet that names a position only, for asking a cut about an ET or an
/// order slot that is not at hand as a logged MSet.
core::Mset PositionOnly(EtId et, SiteId origin, LamportTimestamp timestamp,
                        SequenceNumber global_order) {
  core::Mset mset;
  mset.et = et;
  mset.origin = origin;
  mset.timestamp = timestamp;
  mset.global_order = global_order;
  return mset;
}

}  // namespace

SiteRecovery::SiteRecovery(SiteId site, int num_sites,
                           std::unique_ptr<Wal> wal)
    : site_(site), wal_(std::move(wal)) {
  for (AppliedCut* cut : {&applied_, &ckpt_, &dropped_}) {
    cut->applied.assign(static_cast<size_t>(num_sites), kZeroTimestamp);
  }
}

bool SiteRecovery::AlreadyApplied(const core::Mset& mset) const {
  // Outside replay the order buffer and the shard streams deduplicate
  // fillers themselves, and the live cut learns no filler.
  if (mset.et == kInvalidEtId && !in_replay_) return false;
  return applied_.Covers(mset);
}

void SiteRecovery::LogMset(const core::Mset& mset) {
  if (in_replay_) return;
  wal_->AppendMset(mset);
}

void SiteRecovery::LogDecision(EtId et, bool commit) {
  if (in_replay_) return;
  wal_->AppendDecision(et, commit);
}

void SiteRecovery::LogAck(EtId et, SiteId replica) {
  if (in_replay_) return;
  wal_->AppendAck(et, replica);
}

void SiteRecovery::LogStable(EtId et, const LamportTimestamp& ts) {
  if (in_replay_) return;
  wal_->AppendStable(et, ts);
}

bool SiteRecovery::MaybeHoldDelivery(const core::Mset& mset) {
  if (catchup_waiting_.empty() || in_replay_ || applying_catchup_) {
    return false;
  }
  held_.push_back(mset);
  return true;
}

void SiteRecovery::OnApplied(const core::Mset& mset) { applied_.Raise(mset); }

RecoveryManager::RecoveryManager(runtime::Clock* clock,
                                 obs::MetricRegistry* metrics,
                                 const RecoveryConfig& config, int num_sites)
    : clock_(clock),
      metrics_(metrics),
      config_(config),
      num_sites_(num_sites),
      storage_(MakeStorage(config)) {
  sites_.reserve(static_cast<size_t>(num_sites));
  for (SiteId s = 0; s < num_sites; ++s) {
    // A simulated run owns its stable storage: a reused file directory must
    // not hand one run's checkpoint or WAL to the next.
    storage_->ReplaceWal(s, "");
    storage_->WriteCheckpoint(s, "");
    auto wal = std::make_unique<Wal>(clock_, storage_.get(), s, config_,
                                     metrics_);
    sites_.push_back(std::unique_ptr<SiteRecovery>(
        new SiteRecovery(s, num_sites, std::move(wal))));
  }
  if (metrics_ != nullptr) {
    metrics_->Describe("esr_checkpoints_total", "Fuzzy checkpoints taken");
    metrics_->Describe("esr_checkpoint_bytes",
                       "Size of the latest checkpoint");
    metrics_->Describe("esr_wal_bytes",
                       "Stored WAL size after the latest checkpoint");
    metrics_->Describe("esr_recovery_amnesia_crashes_total",
                       "Amnesia crashes (volatile state lost)");
    metrics_->Describe("esr_recovery_runs_total", "Recovery runs completed");
    metrics_->Describe("esr_recovery_replayed_records_total",
                       "WAL records scanned during replay");
    metrics_->Describe("esr_recovery_replayed_msets_total",
                       "MSets re-delivered from the WAL during replay");
    metrics_->Describe("esr_recovery_skipped_reflected_total",
                       "Replayed MSets already reflected in the checkpoint");
    metrics_->Describe("esr_recovery_catchup_msets_total",
                       "MSets obtained from peers during catch-up");
    metrics_->Describe("esr_recovery_incomplete_catchup_total",
                       "Catch-up responses limited by peer WAL truncation");
    metrics_->Describe("esr_recovery_stale_catchup_total",
                       "Catch-up responses ignored for a stale exchange id");
    metrics_->Describe("esr_recovery_catchup_peer_skipped_total",
                       "Catch-up responders skipped because they were down");
    metrics_->Describe("esr_recovery_catchup_lag_us",
                       "Restart to catch-up-complete latency");
  }
}

RecoveryManager::~RecoveryManager() = default;

void RecoveryManager::BindSite(SiteId s, SiteBindings bindings) {
  sites_[static_cast<size_t>(s)]->bindings_ = std::move(bindings);
}

void RecoveryManager::OnCrash(SiteId s) {
  SiteRecovery& site = *sites_[static_cast<size_t>(s)];
  site.wal_->DropUnflushed();
  // A crash mid-catch-up abandons the exchange; the next restart runs a
  // fresh one (parked deliveries are re-obtainable from peer WALs), with a
  // new exchange id so in-flight responses to this one are ignored.
  site.catchup_waiting_.clear();
  site.applying_catchup_ = false;
  site.held_.clear();
  if (metrics_ != nullptr) {
    metrics_->GetCounter("esr_recovery_amnesia_crashes_total", SiteLabel(s))
        .Increment();
  }
}

RecoveryManager::TruncationView RecoveryManager::BuildTruncationView() const {
  TruncationView view;
  for (SiteId u = 0; u < num_sites_; ++u) {
    const SiteRecovery& peer = *sites_[static_cast<size_t>(u)];
    AppliedCut recoverable = peer.ckpt_;
    for (const WalRecord& record : peer.wal_->ReadAll()) {
      if (record.type != WalRecordType::kMset) continue;
      const core::Mset& mset = record.mset;
      if (mset.et == kInvalidEtId) continue;
      view.needed_decisions.insert(mset.et);
      // A shard stream's records reach the WAL from many origins out of
      // position order, so only the checkpointed stream cursor is a floor.
      if (mset.shard_positions.empty()) recoverable.Raise(mset);
    }
    // Buffered appends are NOT durable (they do not raise the floor), but
    // the next flush may make them so — their decisions must stay
    // servable.
    for (const WalRecord& record : peer.wal_->UnflushedRecords()) {
      if (record.type == WalRecordType::kMset &&
          record.mset.et != kInvalidEtId) {
        view.needed_decisions.insert(record.mset.et);
      }
    }
    view.needed_decisions.insert(peer.ckpt_tentative_ets_.begin(),
                                 peer.ckpt_tentative_ets_.end());
    view.floor = u == 0 ? std::move(recoverable)
                        : AppliedCut::Min(view.floor, recoverable);
  }
  return view;
}

void RecoveryManager::TakeCheckpoint(SiteId s) {
  SiteRecovery& site = *sites_[static_cast<size_t>(s)];
  site.wal_->Flush();

  CheckpointData data;
  data.cut.applied = site.applied_.applied;
  site.bindings_.snapshot(data);
  data.last_lsn = site.wal_->next_lsn() - 1;
  std::string encoded = EncodeCheckpoint(data);
  storage_->WriteCheckpoint(s, encoded);
  site.ckpt_ = data.cut;
  site.ckpt_tentative_ets_.clear();
  for (const store::MsetLog::RecordSnapshot& rec : data.mset_log) {
    site.ckpt_tentative_ets_.insert(rec.mset_id);
  }

  // Truncate: acks/stables are reflected in the checkpoint's stability
  // snapshot and can always go. A decision must stay servable to
  // recovering peers for as long as ANY site's durable state can still
  // reconstruct the decided ET tentatively (catch-up serves decisions from
  // WAL records only; an abort truncated everywhere while a crashed site's
  // checkpoint re-arms the tentative mset could never reach it again). A
  // committed MSet can go once it is (a) reflected here, (b) globally
  // stable, and (c) durably recoverable at EVERY site — (b) alone is not
  // enough under amnesia, because an applied-but-unflushed MSet dies with
  // its site's volatile state and then only a peer's WAL can re-supply it.
  // An aborted MSet never becomes stable; it can go once its compensation
  // is reflected in the checkpoint just written (the abort record precedes
  // it in this WAL, so the rollback ran before the snapshot) and every
  // site's durable order watermark has passed its total-order position — a
  // recovering ordered site below that position would still need the
  // record to fill its hold-back buffer.
  const TruncationView view = BuildTruncationView();
  std::unordered_set<EtId> aborted;
  for (const WalRecord& record : site.wal_->ReadAll()) {
    if (record.type == WalRecordType::kDecision && !record.commit) {
      aborted.insert(record.et);
    }
  }
  site.wal_->Truncate([&](const WalRecord& record) {
    switch (record.type) {
      case WalRecordType::kDecision:
        return view.needed_decisions.count(record.et) > 0;
      case WalRecordType::kAck:
      case WalRecordType::kStable:
        return false;
      case WalRecordType::kMset:
        break;
    }
    const core::Mset& mset = record.mset;
    const bool reflected = data.cut.Covers(mset);
    const bool durable_everywhere = view.floor.Covers(mset);
    if (mset.et == kInvalidEtId) {
      // A sharded filler is a shard stream's only record of its position,
      // so it waits for every site's checkpointed cursor; an unsharded one
      // can go once this checkpoint passed it.
      return !(mset.shard_positions.empty() ? reflected : durable_everywhere);
    }
    const bool stable =
        site.bindings_.is_stable && site.bindings_.is_stable(mset.et);
    if (reflected && stable && durable_everywhere) {
      site.dropped_.Raise(mset);
      return false;
    }
    // Asked as of the filler at the MSet's order position.
    const bool order_passed_everywhere =
        mset.global_order == 0 ||
        view.floor.Covers(PositionOnly(kInvalidEtId, kInvalidSiteId,
                                       kZeroTimestamp, mset.global_order));
    if (reflected && order_passed_everywhere && aborted.count(mset.et) > 0) {
      // Not in dropped_: a requester behind this timestamp never needs an
      // aborted MSet, so not serving it is not incompleteness.
      return false;
    }
    return true;
  });

  if (metrics_ != nullptr) {
    metrics_->GetCounter("esr_checkpoints_total", SiteLabel(s)).Increment();
    metrics_->GetGauge("esr_checkpoint_bytes", SiteLabel(s))
        .Set(static_cast<double>(encoded.size()));
    metrics_->GetGauge("esr_wal_bytes", SiteLabel(s))
        .Set(static_cast<double>(site.wal_->StorageBytes()));
  }
}

static void RecoverySortMsets(std::vector<core::Mset>& msets) {
  std::sort(msets.begin(), msets.end(),
            [](const core::Mset& a, const core::Mset& b) {
              if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
              if (a.global_order != b.global_order) {
                return a.global_order < b.global_order;
              }
              return a.et < b.et;
            });
}

void RecoveryManager::RecoverSite(SiteId s) {
  SiteRecovery& site = *sites_[static_cast<size_t>(s)];
  site.report_ = RecoveryReport{};
  site.report_.restarted_at = clock_->Now();

  CheckpointData data;
  if (DecodeCheckpoint(storage_->ReadCheckpoint(s), &data)) {
    site.report_.had_checkpoint = true;
    site.report_.checkpoint_lsn = data.last_lsn;
  }
  data.cut.applied.resize(static_cast<size_t>(num_sites_), kZeroTimestamp);
  // The live cut restarts at the durable one; WAL replay and catch-up raise
  // it from there.
  site.applied_ = data.cut;
  site.ckpt_ = data.cut;
  site.ckpt_tentative_ets_.clear();
  for (const store::MsetLog::RecordSnapshot& rec : data.mset_log) {
    site.ckpt_tentative_ets_.insert(rec.mset_id);
  }

  site.in_replay_ = true;
  site.bindings_.restore(data);
  for (const WalRecord& record : site.wal_->ReadAll()) {
    switch (record.type) {
      case WalRecordType::kMset:
        if (site.AlreadyApplied(record.mset)) {
          ++site.report_.skipped_reflected;
          if (record.mset.et != kInvalidEtId &&
              site.bindings_.replay_reflected) {
            site.bindings_.replay_reflected(record.mset);
          }
        } else {
          ++site.report_.replayed_msets;
          site.bindings_.deliver(record.mset);
        }
        break;
      case WalRecordType::kDecision:
        site.bindings_.decide(record.et, record.commit);
        break;
      case WalRecordType::kAck:
        site.bindings_.ack(record.et, record.replica);
        break;
      case WalRecordType::kStable:
        site.bindings_.stable(record.et, record.ts);
        break;
    }
    ++site.report_.replayed_records;
  }
  site.in_replay_ = false;

  if (metrics_ != nullptr) {
    metrics_->GetCounter("esr_recovery_runs_total", SiteLabel(s)).Increment();
    metrics_->GetCounter("esr_recovery_replayed_records_total", SiteLabel(s))
        .Increment(site.report_.replayed_records);
    metrics_->GetCounter("esr_recovery_replayed_msets_total", SiteLabel(s))
        .Increment(site.report_.replayed_msets);
    metrics_->GetCounter("esr_recovery_skipped_reflected_total", SiteLabel(s))
        .Increment(site.report_.skipped_reflected);
  }
}

CatchupRequest RecoveryManager::BuildCatchupRequest(SiteId s) {
  SiteRecovery& site = *sites_[static_cast<size_t>(s)];
  CatchupRequest request;
  request.from = s;
  request.exchange = ++site.catchup_exchange_;
  request.cut.applied = site.applied_.applied;
  // The method's stream cursors, not the live cut: they also count the
  // fillers a stream applied and mark non-owned shards INT64_MAX, so peers
  // ship no other shard's traffic.
  if (site.bindings_.shard_watermarks) {
    request.cut.shard_watermarks = site.bindings_.shard_watermarks();
  }
  if (site.bindings_.unstable) {
    request.unstable = site.bindings_.unstable();
  }
  return request;
}

CatchupResponse RecoveryManager::BuildCatchupResponse(
    SiteId responder, const CatchupRequest& request) {
  SiteRecovery& site = *sites_[static_cast<size_t>(responder)];
  // The decision of what to serve reads durable state only, so buffered
  // appends must be visible.
  site.wal_->Flush();

  CatchupResponse response;
  response.from = responder;
  response.exchange = request.exchange;
  for (size_t o = 0; o < site.dropped_.applied.size(); ++o) {
    const LamportTimestamp requester_has = o < request.cut.applied.size()
                                               ? request.cut.applied[o]
                                               : kZeroTimestamp;
    if (requester_has < site.dropped_.applied[o]) response.complete = false;
  }

  std::unordered_set<EtId> seen_ets;
  std::set<std::pair<SiteId, SequenceNumber>> seen_noops;
  std::set<std::pair<ShardId, SequenceNumber>> seen_shard_noops;
  std::unordered_set<EtId> seen_decisions;
  for (const WalRecord& record : site.wal_->ReadAll()) {
    if (record.type == WalRecordType::kDecision) {
      if (seen_decisions.insert(record.et).second) {
        response.decisions.emplace_back(record.et, record.commit);
      }
      continue;
    }
    if (record.type != WalRecordType::kMset) continue;
    const core::Mset& mset = record.mset;
    if (mset.et == kInvalidEtId && mset.shard_positions.empty()) {
      // Always served: the requester's order buffer skips what it passed.
      if (mset.global_order > 0 &&
          seen_noops.emplace(mset.origin, mset.global_order).second) {
        response.msets.push_back(mset);
      }
      continue;
    }
    if (request.cut.Covers(mset)) continue;
    if (mset.et != kInvalidEtId) {
      if (seen_ets.insert(mset.et).second) response.msets.push_back(mset);
    } else if (seen_shard_noops.insert(mset.shard_positions.front()).second) {
      // Sharded fillers have no ET: dedup on the (shard, position) pair
      // they fill.
      response.msets.push_back(mset);
    }
  }
  RecoverySortMsets(response.msets);

  for (const auto& [et, ts] : request.unstable) {
    if (ts.site != request.from) continue;  // the requester's own ETs only
    if (site.bindings_.is_stable && site.bindings_.is_stable(et)) {
      response.stable_known.emplace_back(et, ts);
    } else if (site.applied_.Covers(
                   PositionOnly(et, request.from, ts, /*global_order=*/0))) {
      response.acked.push_back(et);
    }
  }

  // Stability reconciliation (applied after the MSets on the requester):
  // report every ET this peer knows stable among (a) the MSets shipped
  // above — the requester is about to apply them and would otherwise wait
  // for a stability notice that was already broadcast — and (b) the
  // requester's applied-but-unstable set, whose notices may have died in
  // its unflushed WAL tail.
  std::unordered_set<EtId> stable_reported;
  for (const auto& [et, ts] : response.stable_known) stable_reported.insert(et);
  if (site.bindings_.is_stable) {
    for (const core::Mset& mset : response.msets) {
      if (mset.et != kInvalidEtId && site.bindings_.is_stable(mset.et) &&
          stable_reported.insert(mset.et).second) {
        response.stable_known.emplace_back(mset.et, mset.timestamp);
      }
    }
    for (const auto& [et, ts] : request.unstable) {
      if (site.bindings_.is_stable(et) && stable_reported.insert(et).second) {
        response.stable_known.emplace_back(et, ts);
      }
    }
  }
  return response;
}

void RecoveryManager::BeginCatchup(SiteId s, const std::vector<SiteId>& peers) {
  SiteRecovery& site = *sites_[static_cast<size_t>(s)];
  site.catchup_waiting_.clear();
  for (SiteId p : peers) {
    if (p != s) site.catchup_waiting_.insert(p);
  }
  if (site.catchup_waiting_.empty()) FinishCatchup(site);
}

void RecoveryManager::OnPeerDown(SiteId down) {
  for (auto& site_ptr : sites_) {
    SiteRecovery& site = *site_ptr;
    if (site.catchup_waiting_.erase(down) == 0) continue;
    if (metrics_ != nullptr) {
      metrics_
          ->GetCounter("esr_recovery_catchup_peer_skipped_total",
                       SiteLabel(site.site_))
          .Increment();
    }
    if (site.catchup_waiting_.empty()) FinishCatchup(site);
  }
}

void RecoveryManager::FinishCatchup(SiteRecovery& site) {
  site.catchup_waiting_.clear();
  site.report_.catchup_done_at = clock_->Now();
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("esr_recovery_catchup_lag_us")
        .Observe(static_cast<double>(site.report_.catchup_done_at -
                                     site.report_.restarted_at));
  }
  // Release the foreground deliveries parked during the exchange, oldest
  // first; duplicates of MSets a response already carried are dropped by
  // the AlreadyApplied gate in RecoveryFilterDelivery.
  std::vector<core::Mset> held = std::move(site.held_);
  site.held_.clear();
  RecoverySortMsets(held);
  for (const core::Mset& mset : held) {
    site.bindings_.deliver(mset);
  }
}

void RecoveryManager::ApplyCatchupResponse(SiteId s,
                                           const CatchupResponse& response) {
  SiteRecovery& site = *sites_[static_cast<size_t>(s)];
  if (response.exchange != site.catchup_exchange_) {
    // Response to an exchange abandoned by a crash; the reliable queues
    // retained it. Applying it would complete the current exchange early
    // and release held deliveries before the real responses arrive.
    if (metrics_ != nullptr) {
      metrics_->GetCounter("esr_recovery_stale_catchup_total", SiteLabel(s))
          .Increment();
    }
    return;
  }
  if (!response.complete && metrics_ != nullptr) {
    metrics_->GetCounter("esr_recovery_incomplete_catchup_total", SiteLabel(s))
        .Increment();
  }
  int64_t delivered = 0;
  site.applying_catchup_ = true;
  for (const core::Mset& mset : response.msets) {
    if (mset.et != kInvalidEtId && site.AlreadyApplied(mset)) continue;
    ++delivered;
    site.bindings_.deliver(mset);
  }
  site.report_.catchup_msets += delivered;
  for (EtId et : response.acked) {
    site.bindings_.ack(et, response.from);
  }
  for (const auto& [et, commit] : response.decisions) {
    site.bindings_.decide(et, commit);
  }
  for (const auto& [et, ts] : response.stable_known) {
    site.bindings_.stable(et, ts);
  }
  site.applying_catchup_ = false;
  if (metrics_ != nullptr && delivered > 0) {
    metrics_->GetCounter("esr_recovery_catchup_msets_total", SiteLabel(s))
        .Increment(delivered);
  }
  // A late response from a peer already dropped from the waiting set (it
  // crashed mid-exchange and came back) is applied above for healing but
  // must not complete the exchange twice.
  if (site.catchup_waiting_.erase(response.from) > 0 &&
      site.catchup_waiting_.empty()) {
    FinishCatchup(site);
  }
}

}  // namespace esr::recovery
