#include "msg/sequencer.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <utility>

#include "obs/et_tracer.h"
#include "obs/metric_registry.h"

namespace esr::msg {
namespace {

/// Positions and epochs from the network are advanced by one or spanned by
/// a count; one this close to the type's limit would overflow.
constexpr int64_t kMaxWireValue =
    std::numeric_limits<int64_t>::max() - kMaxSeqBatchCount;

const std::vector<double> kBatchSizeBounds = {1, 2, 4, 8, 16, 32, 64, 128};
const std::vector<double> kRttBounds = {100,    250,    500,    1'000,
                                        2'500,  5'000,  10'000, 25'000,
                                        50'000, 100'000};

/// {shard="k"} for per-shard sequencer instances; empty (the original
/// unlabeled series) for the global one.
obs::LabelSet ShardLabels(int32_t shard) {
  if (shard < 0) return {};
  return {{"shard", std::to_string(shard)}};
}

}  // namespace

// ---------------------------------------------------------------------------
// SequencerServer
// ---------------------------------------------------------------------------

SequencerServer::SequencerServer(SequencerPort* port, runtime::Clock* clock,
                                 bool start_sealed, int64_t epoch,
                                 SequenceNumber first, int64_t incarnation)
    : port_(port),
      clock_(clock),
      next_(first),
      epoch_(epoch),
      sealed_(start_sealed),
      probe_id_(incarnation) {
  assert(port != nullptr && clock != nullptr);
  assert(epoch >= 1 && first >= 1);
}

void SequencerServer::set_metrics(obs::MetricRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    metrics_->GetGauge("esr_seq_epoch", ShardLabels(metric_shard_))
        .Set(static_cast<double>(epoch_));
  }
}

void SequencerServer::Seal() { sealed_ = true; }

void SequencerServer::OnRequest(SiteId source, const SeqBatchRequest& req) {
  if (req.count < 1 || req.count > kMaxSeqBatchCount) return;  // malformed
  if (sealed_ || recovering_ || req.epoch != epoch_) {
    // Sealed epoch, mid-takeover, or a request stamped for another epoch:
    // dropped, not an error — the requester re-sends once it processes the
    // epoch announce for the successor.
    if (metrics_ != nullptr) {
      metrics_->GetCounter("esr_seq_sealed_drops_total",
                           ShardLabels(metric_shard_))
          .Increment();
    }
    return;
  }
  // Positions are assigned at arrival (FIFO), even when the response is
  // delayed by the service-time model: order is fixed by arrival order.
  const SequenceNumber first = next_;
  next_ += req.count;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("esr_seq_grants_total", ShardLabels(metric_shard_))
        .Increment(req.count);
    metrics_->GetCounter("esr_seq_batches_total", ShardLabels(metric_shard_))
        .Increment();
    metrics_
        ->GetHistogram("esr_seq_batch_size", ShardLabels(metric_shard_),
                       kBatchSizeBounds)
        .Observe(static_cast<double>(req.count));
  }
  if (service_time_us_ <= 0) {
    port_->SendGrant(source,
                     SeqBatchGrant{req.request_id, first, req.count, epoch_},
                     req.trace);
    return;
  }
  // One unit of service time per request *message* — precisely the cost
  // batching amortizes. Responses are serialized through a busy-until
  // horizon, modeling the sequencer as a single-server queue.
  busy_until_ = std::max(busy_until_, clock_->Now()) + service_time_us_;
  clock_->ScheduleAt(
      busy_until_, [this, alive = std::weak_ptr<int>(alive_), source,
                    id = req.request_id, first, count = req.count,
                    trace = req.trace]() {
        if (alive.expired()) return;  // server died (amnesia) meanwhile
        port_->SendGrant(source, SeqBatchGrant{id, first, count, epoch_},
                         trace);
      });
}

void SequencerServer::BeginTakeover(SequenceNumber durable_floor,
                                    const std::vector<SiteId>& peers) {
  sealed_ = true;
  recovering_ = true;
  // The cross-lock does not survive the epoch: lock holders re-acquire in
  // the successor epoch (their stale grants release any below-floor holes),
  // and queued waiters re-send on the announce.
  cross_locked_ = false;
  cross_holder_ = kInvalidSiteId;
  cross_holder_req_ = 0;
  cross_queue_.clear();
  // `durable_floor` is a floor on next-to-grant (the checkpointed value);
  // peer probes and the local watermark arrive as highest-position-seen and
  // convert with +1. Taking the max of all of them can never land at or
  // below a position that was already granted.
  recovered_floor_ = std::max({durable_floor, next_, SequenceNumber{1}});
  recovered_epoch_ = epoch_;
  if (local_high_watermark_) {
    recovered_floor_ = std::max(recovered_floor_, local_high_watermark_() + 1);
  }
  awaiting_probe_.clear();
  ++probe_id_;
  for (SiteId peer : peers) {
    if (peer == port_->self()) continue;
    awaiting_probe_.insert(peer);
  }
  if (awaiting_probe_.empty()) {
    FinishTakeover();
    return;
  }
  ResendProbe();
}

void SequencerServer::ResendProbe() {
  for (SiteId peer : awaiting_probe_) {
    port_->SendProbe(peer, SeqProbeRequest{probe_id_, port_->self()});
  }
}

void SequencerServer::OnProbeAnswer(SiteId source,
                                    const SeqProbeResponse& answer) {
  if (!recovering_ || answer.probe_id != probe_id_) return;  // stale probe
  if (answer.max_seen < 0 || answer.max_seen > kMaxWireValue ||
      answer.epoch < 0 || answer.epoch > kMaxWireValue) {
    return;  // malformed
  }
  // The transport sender, not answer.from: otherwise one peer could answer
  // for another that never saw the probe, and the unseal would miss the
  // highest position that silent peer holds.
  if (awaiting_probe_.erase(source) == 0) return;  // duplicate or unasked
  recovered_floor_ = std::max(recovered_floor_, answer.max_seen + 1);
  recovered_epoch_ = std::max(recovered_epoch_, answer.epoch);
  if (awaiting_probe_.empty()) FinishTakeover();
}

void SequencerServer::FinishTakeover() {
  if (!recovering_) return;
  awaiting_probe_.clear();
  next_ = recovered_floor_;
  epoch_ = std::max(epoch_, recovered_epoch_) + 1;
  sealed_ = false;
  recovering_ = false;
  if (metrics_ != nullptr) {
    metrics_->GetGauge("esr_seq_epoch", ShardLabels(metric_shard_))
        .Set(static_cast<double>(epoch_));
    metrics_->GetCounter("esr_seq_failovers_total", ShardLabels(metric_shard_))
        .Increment();
  }
  // Every client — including the one co-located with this server — learns
  // the new (epoch, home, floor) and re-sends anything outstanding.
  port_->AnnounceEpoch(SeqEpochAnnounce{epoch_, port_->self(), next_});
}

void SequencerServer::OnCrossRequest(SiteId source,
                                     const SeqCrossRequest& req) {
  if (sealed_ || recovering_ || req.epoch != epoch_) {
    if (metrics_ != nullptr) {
      metrics_->GetCounter("esr_seq_sealed_drops_total",
                           ShardLabels(metric_shard_))
          .Increment();
    }
    return;
  }
  if (cross_locked_) {
    cross_queue_.emplace_back(source, req);
    if (metrics_ != nullptr) {
      metrics_->GetCounter("esr_seq_cross_queued_total",
                           ShardLabels(metric_shard_))
          .Increment();
    }
    return;
  }
  GrantCross(source, req.request_id, req.trace);
}

void SequencerServer::GrantCross(SiteId source, int64_t request_id,
                                 const TraceContext& trace) {
  cross_locked_ = true;
  cross_holder_ = source;
  cross_holder_req_ = request_id;
  // The position is assigned at grant time like any other, so single-shard
  // batches keep flowing around a held cross-lock; only cross requests wait.
  const SequenceNumber position = next_++;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("esr_seq_grants_total", ShardLabels(metric_shard_))
        .Increment();
    metrics_->GetCounter("esr_seq_cross_grants_total",
                         ShardLabels(metric_shard_))
        .Increment();
  }
  port_->SendCrossGrant(source, SeqCrossGrant{request_id, position, epoch_},
                        trace);
}

void SequencerServer::OnCrossRelease(SiteId source,
                                     const SeqCrossRelease& rel) {
  if (!cross_locked_ || rel.request_id != cross_holder_req_ ||
      source != cross_holder_) {
    // A release for a superseded epoch's lock (reset by the takeover) or a
    // duplicate: ignore.
    return;
  }
  cross_locked_ = false;
  cross_holder_ = kInvalidSiteId;
  cross_holder_req_ = 0;
  if (!cross_queue_.empty()) {
    auto [next_source, next_req] = cross_queue_.front();
    cross_queue_.erase(cross_queue_.begin());
    GrantCross(next_source, next_req.request_id, next_req.trace);
  }
}

// ---------------------------------------------------------------------------
// SequencerClient
// ---------------------------------------------------------------------------

SequencerClient::SequencerClient(SequencerPort* port, runtime::Clock* clock,
                                 SiteId home, int64_t incarnation)
    : port_(port),
      clock_(clock),
      home_(home),
      incarnation_(incarnation),
      next_request_id_(incarnation + 1) {
  assert(port != nullptr && clock != nullptr);
}

void SequencerClient::set_batching(int32_t batch_max, SimDuration linger_us) {
  batch_max_ = std::max(batch_max, int32_t{1});
  linger_us_ = std::max<SimDuration>(linger_us, 0);
}

void SequencerClient::Request(Callback done, TraceContext trace) {
  Entry entry;
  entry.done = std::move(done);
  entry.trace = trace;
  entry.begin = clock_->Now();
  entry.seq_to = home_;
  if (tracer_ != nullptr && trace.valid()) {
    tracer_->SeqBegin(trace.et, port_->self(), home_, entry.begin);
  }
  queue_.push_back(std::move(entry));
  if (static_cast<int32_t>(queue_.size()) >= batch_max_) {
    Flush();
    return;
  }
  if (!linger_scheduled_) {
    linger_scheduled_ = true;
    clock_->Schedule(linger_us_, [this, alive = std::weak_ptr<int>(alive_)]() {
      if (alive.expired()) return;
      linger_scheduled_ = false;
      Flush();
    });
  }
}

void SequencerClient::Flush() {
  if (queue_.empty()) return;
  linger_scheduled_ = false;
  const auto max_count = static_cast<size_t>(kMaxSeqBatchCount);
  for (size_t begin = 0; begin < queue_.size(); begin += max_count) {
    const size_t end = std::min(queue_.size(), begin + max_count);
    const int64_t id = next_request_id_++;
    std::vector<Entry>& batch = inflight_[id];
    batch.assign(std::make_move_iterator(queue_.begin() + begin),
                 std::make_move_iterator(queue_.begin() + end));
    port_->SendRequest(home_, BatchRequest(id, batch));
  }
  queue_.clear();
}

SeqBatchRequest SequencerClient::BatchRequest(
    int64_t id, const std::vector<Entry>& entries) const {
  // The batch rides on the causal context of its first (oldest) request so
  // both legs of the round trip stay traceable.
  return SeqBatchRequest{id, static_cast<int32_t>(entries.size()), epoch_,
                         entries.front().trace, incarnation_};
}

int64_t SequencerClient::ResendInflight() {
  for (const auto& [id, entries] : inflight_) {
    port_->SendRequest(home_, BatchRequest(id, entries));
  }
  return static_cast<int64_t>(inflight_.size());
}

void SequencerClient::RequestCross(CrossCallback done, TraceContext trace) {
  const int64_t id = next_request_id_++;
  CrossEntry entry;
  entry.done = std::move(done);
  entry.trace = trace;
  entry.begin = clock_->Now();
  cross_inflight_.emplace(id, std::move(entry));
  SendCrossRequest(id, trace);
}

void SequencerClient::SendCrossRequest(int64_t id, const TraceContext& trace) {
  port_->SendCrossRequest(home_,
                          SeqCrossRequest{id, port_->self(), epoch_, trace});
}

void SequencerClient::ReleaseCross(int64_t token) {
  port_->SendCrossRelease(home_, SeqCrossRelease{token, port_->self()});
}

void SequencerClient::OnCrossGrant(SiteId /*from*/,
                                   const SeqCrossGrant& grant) {
  if (grant.epoch != epoch_) {
    // Same reasoning as stale batch grants: a below-floor position is a
    // permanent hole (release as orphan); the old epoch's lock died with
    // the takeover, so nothing to release — the still-inflight request is
    // re-sent by the epoch announce.
    if (metrics_ != nullptr) {
      metrics_->GetCounter("esr_seq_stale_grants_total",
                           ShardLabels(metric_shard_))
          .Increment();
    }
    if (orphan_handler_ && grant.position < epoch_first_) {
      orphan_handler_(grant.position);
    }
    return;
  }
  max_grant_seen_ = std::max(max_grant_seen_, grant.position);
  if (cross_abandoned_.erase(grant.request_id) > 0) {
    // The requester died with amnesia: account for the position AND free
    // the lock the dead ET took, or the shard's cross traffic stalls.
    if (orphan_handler_) orphan_handler_(grant.position);
    ReleaseCross(grant.request_id);
    return;
  }
  auto it = cross_inflight_.find(grant.request_id);
  if (it == cross_inflight_.end()) return;  // duplicate response
  CrossEntry entry = std::move(it->second);
  cross_inflight_.erase(it);
  if (metrics_ != nullptr && entry.begin >= 0) {
    metrics_
        ->GetHistogram("esr_seq_rtt_us", ShardLabels(metric_shard_),
                       kRttBounds)
        .Observe(static_cast<double>(clock_->Now() - entry.begin));
  }
  entry.done(grant.position, grant.request_id);
}

void SequencerClient::OnGrant(SiteId /*from*/, const SeqBatchGrant& grant) {
  if (grant.count < 1 || grant.count > kMaxSeqBatchCount || grant.first < 1 ||
      grant.first > kMaxWireValue) {
    return;  // malformed
  }
  if (grant.epoch != epoch_) {
    // A grant from a superseded epoch (the sequencer failed over while it
    // was in flight). Positions at or above the new epoch's floor were
    // re-granted by the takeover and must be discarded — releasing them
    // would double-fill the total order. Positions *below* the floor were
    // never seen by the takeover probe and never re-granted: they are
    // permanent holes every hold-back buffer would wait on forever, so
    // release them as orphan no-ops. (With cascaded failovers faster than
    // announce propagation an intermediate epoch could in principle have
    // re-granted such a position; the single-failure assumption — see
    // DESIGN.md — rules that out.)
    if (metrics_ != nullptr) {
      metrics_->GetCounter("esr_seq_stale_grants_total",
                           ShardLabels(metric_shard_))
          .Increment();
    }
    if (orphan_handler_) {
      const SequenceNumber stale_last = grant.first + grant.count - 1;
      for (SequenceNumber seq = grant.first;
           seq <= stale_last && seq < epoch_first_; ++seq) {
        orphan_handler_(seq);
      }
    }
    return;
  }
  const SequenceNumber last = grant.first + grant.count - 1;
  if (auto orphan = abandoned_.find(grant.request_id);
      orphan != abandoned_.end()) {
    // The requester crashed with amnesia after asking; the granted
    // positions must still be accounted for in the total order.
    if (orphan->second != grant.count) return;  // not this request's grant
    abandoned_.erase(orphan);
    max_grant_seen_ = std::max(max_grant_seen_, last);
    if (orphan_handler_) {
      for (SequenceNumber seq = grant.first; seq <= last; ++seq) {
        orphan_handler_(seq);
      }
    }
    return;
  }
  auto it = inflight_.find(grant.request_id);
  if (it == inflight_.end()) return;  // duplicate response
  if (static_cast<int32_t>(it->second.size()) != grant.count) return;
  std::vector<Entry> entries = std::move(it->second);
  inflight_.erase(it);
  max_grant_seen_ = std::max(max_grant_seen_, last);
  const SimTime now = clock_->Now();
  for (size_t i = 0; i < entries.size(); ++i) {
    Entry& entry = entries[i];
    CloseSpan(entry);
    if (metrics_ != nullptr && entry.begin >= 0) {
      metrics_
          ->GetHistogram("esr_seq_rtt_us", ShardLabels(metric_shard_),
                         kRttBounds)
          .Observe(static_cast<double>(now - entry.begin));
    }
    entry.done(grant.first + static_cast<SequenceNumber>(i));
  }
}

void SequencerClient::OnEpochAnnounce(SiteId /*from*/,
                                      const SeqEpochAnnounce& ann) {
  if (ann.epoch <= epoch_) return;  // stale or duplicate announce
  if (ann.first < 1) return;        // malformed
  epoch_ = ann.epoch;
  epoch_first_ = ann.first;
  home_ = ann.home;
  // The announced floor is a lower bound on the order's high watermark;
  // folding it in keeps probe answers monotone across cascaded failovers.
  max_grant_seen_ = std::max(max_grant_seen_, ann.first - 1);
  // Grants for abandoned requests were issued (if ever) by the sealed
  // epoch and will be discarded as stale — nothing will arrive for these
  // ids anymore. Dropping them here is what bounds abandoned_.
  if (!abandoned_.empty() || !cross_abandoned_.empty()) {
    if (metrics_ != nullptr) {
      metrics_->GetCounter("esr_seq_abandoned_dropped_total",
                           ShardLabels(metric_shard_))
          .Increment(static_cast<int64_t>(abandoned_.size() +
                                          cross_abandoned_.size()));
    }
    abandoned_.clear();
    cross_abandoned_.clear();
  }
  // Everything in flight was granted (at best) by the sealed epoch; re-send
  // it all to the new home as one batch, oldest first, ahead of anything
  // not yet flushed. Spans are not re-opened: the measured RTT honestly
  // includes the failover delay.
  if (!inflight_.empty()) {
    std::vector<Entry> resend;
    for (auto& [id, entries] : inflight_) {
      for (Entry& entry : entries) resend.push_back(std::move(entry));
    }
    inflight_.clear();
    for (Entry& entry : queue_) resend.push_back(std::move(entry));
    queue_ = std::move(resend);
  }
  Flush();
  // Cross requests re-send individually (they are never batched), oldest
  // first, stamped for the new epoch and aimed at the new home.
  for (const auto& [id, entry] : cross_inflight_) {
    SendCrossRequest(id, entry.trace);
  }
}

void SequencerClient::OnProbe(SiteId from, const SeqProbeRequest& probe) {
  port_->SendProbeAnswer(from, SeqProbeResponse{probe.probe_id, port_->self(),
                                                LocalHighWatermark(), epoch_});
}

SequenceNumber SequencerClient::LocalHighWatermark() const {
  SequenceNumber mark = max_grant_seen_;
  if (high_watermark_provider_) {
    mark = std::max(mark, high_watermark_provider_());
  }
  return mark;
}

void SequencerClient::AbandonPending() {
  // The requester's volatile state is gone; close every open round-trip
  // span now (the trip ends here — leaving them unterminated would skew
  // the critical-path waterfall).
  for (Entry& entry : queue_) CloseSpan(entry);
  for (auto& [id, entries] : inflight_) {
    for (Entry& entry : entries) CloseSpan(entry);
    // The request is already in the stable queues and will be granted;
    // remember how many positions to release as orphans.
    abandoned_[id] = static_cast<int32_t>(entries.size());
  }
  // Queued entries were never sent — no grant will ever arrive for them,
  // so they simply vanish with the crash.
  queue_.clear();
  inflight_.clear();
  linger_scheduled_ = false;
  // Cross requests are always sent immediately, so every pending one may
  // still be granted (and holds, or will hold, its shard's cross-lock).
  for (const auto& [id, entry] : cross_inflight_) {
    (void)entry;
    cross_abandoned_.insert(id);
  }
  cross_inflight_.clear();
}

void SequencerClient::CloseSpan(const Entry& entry) {
  if (tracer_ == nullptr || !entry.trace.valid()) return;
  tracer_->SeqEnd(entry.trace.et, port_->self(), entry.seq_to, clock_->Now());
}

int64_t SequencerClient::PendingCount() const {
  int64_t pending = static_cast<int64_t>(queue_.size()) +
                    static_cast<int64_t>(cross_inflight_.size());
  for (const auto& [id, entries] : inflight_) {
    pending += static_cast<int64_t>(entries.size());
  }
  return pending;
}

}  // namespace esr::msg
