#include "obs/et_tracer.h"

#include <algorithm>
#include <string>
#include <utility>

namespace esr::obs {

namespace {

/// FNV-1a, folding arbitrary integers in.
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void Mix(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    Mix(s.size());
  }
};

}  // namespace

std::string_view EtPhaseToString(EtPhase phase) {
  switch (phase) {
    case EtPhase::kSubmit:
      return "submit";
    case EtPhase::kLocalCommit:
      return "local_commit";
    case EtPhase::kEnqueue:
      return "enqueue";
    case EtPhase::kApply:
      return "apply";
    case EtPhase::kStable:
      return "stable";
    case EtPhase::kAborted:
      return "aborted";
  }
  return "unknown";
}

std::string_view HopKindToString(HopKind kind) {
  switch (kind) {
    case HopKind::kQueue: return "queue";
    case HopKind::kSeqRtt: return "seq_rtt";
    case HopKind::kOrderWait: return "order_wait";
    case HopKind::kCatchup: return "catchup";
  }
  return "unknown";
}

EtTracer::EtTracer(MetricRegistry* metrics, int num_sites)
    : metrics_(metrics), num_sites_(num_sites) {
  queue_depth_.assign(static_cast<size_t>(num_sites < 0 ? 0 : num_sites), 0);
  if (metrics_ != nullptr) {
    metrics_->Describe("esr_et_phase_total",
                       "ET lifecycle events by phase (and site for apply)");
    metrics_->Describe("esr_mset_queue_depth",
                       "MSets enqueued toward a site and not yet applied");
    metrics_->Describe("esr_et_in_flight",
                       "Committed update ETs not yet stable or aborted");
    metrics_->Describe("esr_stability_lag_us",
                       "Local-commit to global-stability lag per update ET");
    metrics_->Describe("esr_apply_lag_us",
                       "Local-commit to remote-apply lag per (ET, site)");
  }
}

void EtTracer::EnableHops(int64_t max_completed) {
  hops_enabled_ = true;
  max_completed_ = std::max<int64_t>(1, max_completed);
}

void EtTracer::CountPhase(EtPhase phase, SiteId site) {
  if (metrics_ == nullptr) return;
  LabelSet labels{{"phase", std::string(EtPhaseToString(phase))}};
  if (phase == EtPhase::kApply) {
    labels.push_back({"site", std::to_string(site)});
  }
  metrics_->GetCounter("esr_et_phase_total", std::move(labels)).Increment();
}

void EtTracer::SetDepthGauge(SiteId site) {
  if (metrics_ == nullptr) return;
  metrics_
      ->GetGauge("esr_mset_queue_depth", {{"site", std::to_string(site)}})
      .Set(static_cast<double>(queue_depth_[static_cast<size_t>(site)]));
}

bool EtTracer::SettleTerminal(EtState& state) {
  if (state.terminal) return false;
  state.terminal = true;
  if (state.commit_time >= 0) --in_flight_;
  if (metrics_ != nullptr) {
    metrics_->GetGauge("esr_et_in_flight")
        .Set(static_cast<double>(in_flight_));
  }
  return true;
}

void EtTracer::OnSubmit(EtId et, SiteId origin, SimTime now,
                        std::string object_class) {
  ets_[et].origin = origin;
  CountPhase(EtPhase::kSubmit, origin);
  if (!hops_enabled_ || et <= 0 || open_.count(et) != 0) return;
  if (static_cast<int64_t>(open_.size()) >= kMaxOpenEts) {
    // Deterministic eviction: drop the oldest (smallest) et id.
    EtId victim = kInvalidEtId;
    for (const auto& [id, _] : open_) {
      if (victim == kInvalidEtId || id < victim) victim = id;
    }
    open_.erase(victim);
    ++dropped_ets_;
  }
  EtTrace t;
  t.et = et;
  t.origin = origin;
  t.object_class = std::move(object_class);
  t.submit_time = now;
  t.apply_time.assign(num_sites_, -1);
  open_.emplace(et, std::move(t));
}

void EtTracer::OnLocalCommit(EtId et, SiteId origin, SimTime now) {
  if (EtTrace* t = FindOpen(et); t != nullptr && t->commit_time < 0) {
    t->commit_time = now;
  }
  EtState& state = ets_[et];
  state.origin = origin;
  if (state.commit_time >= 0) return;  // Commit is traced once per ET.
  state.commit_time = now;
  // An ET aborted before its ordering callback ran (COMPE abort racing the
  // sequencer) is already terminal: count the commit but don't re-float it.
  if (!state.terminal) {
    ++in_flight_;
    if (metrics_ != nullptr) {
      metrics_->GetGauge("esr_et_in_flight")
          .Set(static_cast<double>(in_flight_));
    }
  }
  CountPhase(EtPhase::kLocalCommit, origin);
}

void EtTracer::OnEnqueue(EtId et, SiteId origin,
                         const std::vector<SiteId>& targets) {
  CountPhase(EtPhase::kEnqueue, origin);
  EtState& state = ets_[et];
  if (state.origin == kInvalidSiteId) state.origin = origin;
  if (state.enqueued) return;
  state.enqueued = true;
  // The MSet is now pending at each target; only they will apply it.
  for (SiteId s : targets) {
    state.pending.push_back(s);
    ++queue_depth_[static_cast<size_t>(s)];
    SetDepthGauge(s);
  }
  MaybeEvict(et, state);
}

void EtTracer::DrainPending(EtId et, EtState& state, SiteId site) {
  auto it = std::find(state.pending.begin(), state.pending.end(), site);
  if (it == state.pending.end()) return;
  state.pending.erase(it);
  --queue_depth_[static_cast<size_t>(site)];
  SetDepthGauge(site);
  MaybeEvict(et, state);
}

void EtTracer::MaybeEvict(EtId et, const EtState& state) {
  if (state.terminal && state.commit_time >= 0 && state.enqueued &&
      state.pending.empty()) {
    ets_.erase(et);
  }
}

void EtTracer::OnApply(EtId et, SiteId site, SimTime now) {
  CountPhase(EtPhase::kApply, site);
  if (auto it = ets_.find(et); it != ets_.end()) {
    EtState& state = it->second;
    if (metrics_ != nullptr && state.commit_time >= 0 &&
        site != state.origin) {
      metrics_
          ->GetHistogram("esr_apply_lag_us", {{"site", std::to_string(site)}})
          .Observe(static_cast<double>(now - state.commit_time));
    }
    DrainPending(et, state, site);  // may drop the state
  }

  EtTrace* t = FindOpen(et);
  if (t == nullptr) return;
  if (site >= 0 && site < num_sites_ && t->apply_time[site] < 0) {
    t->apply_time[site] = now;
  }
  if (HopRecord* hop = FindHop(*t, HopKind::kOrderWait, 0, site, site);
      hop != nullptr && hop->end < 0) {
    hop->end = now;
  }
}

void EtTracer::OnSkip(EtId et, SiteId site) {
  if (auto it = ets_.find(et); it != ets_.end()) {
    DrainPending(et, it->second, site);
  }
}

void EtTracer::OnStable(EtId et, SiteId site, SimTime now) {
  if (auto it = ets_.find(et); it != ets_.end() && SettleTerminal(it->second)) {
    EtState& state = it->second;
    if (metrics_ != nullptr && state.commit_time >= 0) {
      metrics_->GetHistogram("esr_stability_lag_us")
          .Observe(static_cast<double>(now - state.commit_time));
    }
    CountPhase(EtPhase::kStable, site);
    MaybeEvict(et, state);
  }
  Finalize(et, now, /*aborted=*/false);
}

void EtTracer::OnAborted(EtId et, SiteId site, SimTime now) {
  if (auto it = ets_.find(et); it != ets_.end() && SettleTerminal(it->second)) {
    CountPhase(EtPhase::kAborted, site);
    MaybeEvict(et, it->second);
  }
  Finalize(et, now, /*aborted=*/true);
}

int64_t EtTracer::QueueDepth(SiteId site) const {
  if (site < 0 || site >= num_sites_) return 0;
  return queue_depth_[static_cast<size_t>(site)];
}

EtTrace* EtTracer::FindOpen(EtId et) {
  if (et <= 0) return nullptr;
  auto it = open_.find(et);
  return it == open_.end() ? nullptr : &it->second;
}

HopRecord* EtTracer::FindHop(EtTrace& t, HopKind kind, int32_t msg_type,
                             SiteId from, SiteId to) {
  for (auto& hop : t.hops) {
    if (hop.kind == kind && hop.msg_type == msg_type && hop.from == from &&
        hop.to == to) {
      return &hop;
    }
  }
  return nullptr;
}

HopRecord* EtTracer::AddHop(EtTrace& t, HopKind kind, int32_t msg_type,
                            SiteId from, SiteId to) {
  if (static_cast<int64_t>(t.hops.size()) >= kMaxHopsPerEt) {
    ++t.dropped_hops;
    ++dropped_hops_;
    return nullptr;
  }
  HopRecord hop;
  hop.span = next_span_++;
  hop.kind = kind;
  hop.msg_type = msg_type;
  hop.from = from;
  hop.to = to;
  t.hops.push_back(hop);
  return &t.hops.back();
}

void EtTracer::Finalize(EtId et, SimTime now, bool aborted) {
  auto it = open_.find(et);
  if (et <= 0 || it == open_.end()) return;
  EtTrace t = std::move(it->second);
  open_.erase(it);
  t.stable_time = now;
  t.aborted = aborted;
  completed_.push_back(std::move(t));
  ++completed_total_;
  while (static_cast<int64_t>(completed_.size()) > max_completed_) {
    completed_.pop_front();
  }
}

void EtTracer::QueueSend(const TraceContext& trace, int32_t msg_type,
                         SiteId from, SiteId to, SimTime now) {
  EtTrace* t = FindOpen(trace.et);
  if (t == nullptr) return;
  // Retransmissions re-enter here with the same key: first send wins.
  if (FindHop(*t, HopKind::kQueue, msg_type, from, to) != nullptr) return;
  if (HopRecord* hop = AddHop(*t, HopKind::kQueue, msg_type, from, to);
      hop != nullptr) {
    hop->begin = now;
  }
}

void EtTracer::NetArrive(const TraceContext& trace, SiteId from, SiteId to,
                         SimTime now) {
  EtTrace* t = FindOpen(trace.et);
  if (t == nullptr) return;
  HopRecord* hop = FindHop(*t, HopKind::kQueue, trace.msg_type, from, to);
  if (hop != nullptr && hop->arrive < 0 && hop->end < 0) hop->arrive = now;
}

void EtTracer::QueueDeliver(const TraceContext& trace, int32_t msg_type,
                            SiteId from, SiteId to, SimTime now) {
  EtTrace* t = FindOpen(trace.et);
  if (t == nullptr) return;
  HopRecord* hop = FindHop(*t, HopKind::kQueue, msg_type, from, to);
  if (hop != nullptr && hop->end < 0) {
    if (hop->arrive < 0) hop->arrive = now;
    hop->end = now;
  }
}

void EtTracer::SeqBegin(EtId et, SiteId from, SiteId to, SimTime now) {
  EtTrace* t = FindOpen(et);
  if (t == nullptr) return;
  if (FindHop(*t, HopKind::kSeqRtt, 0, from, to) != nullptr) return;
  if (HopRecord* hop = AddHop(*t, HopKind::kSeqRtt, 0, from, to);
      hop != nullptr) {
    hop->begin = now;
  }
}

void EtTracer::SeqEnd(EtId et, SiteId from, SiteId to, SimTime now) {
  EtTrace* t = FindOpen(et);
  if (t == nullptr) return;
  if (HopRecord* hop = FindHop(*t, HopKind::kSeqRtt, 0, from, to);
      hop != nullptr && hop->end < 0) {
    hop->end = now;
  }
}

void EtTracer::OrderWaitBegin(EtId et, SiteId site, SimTime now) {
  EtTrace* t = FindOpen(et);
  if (t == nullptr) return;
  if (FindHop(*t, HopKind::kOrderWait, 0, site, site) != nullptr) return;
  if (HopRecord* hop = AddHop(*t, HopKind::kOrderWait, 0, site, site);
      hop != nullptr) {
    hop->begin = now;
  }
}

void EtTracer::CatchupBegin(int64_t exchange, SiteId from, SiteId to,
                            SimTime now) {
  if (!hops_enabled_) return;
  if (static_cast<int64_t>(catchup_hops_.size()) >= kMaxCatchupHops) {
    ++dropped_hops_;
    return;
  }
  HopRecord hop;
  hop.span = exchange;
  hop.kind = HopKind::kCatchup;
  hop.from = from;
  hop.to = to;
  hop.begin = now;
  catchup_hops_.push_back(hop);
}

void EtTracer::CatchupEnd(int64_t exchange, SiteId from, SiteId to,
                          SimTime now) {
  // Responses arrive in the order requests resolved; scan backwards so the
  // open hop for this exchange is found quickly.
  for (auto it = catchup_hops_.rbegin(); it != catchup_hops_.rend(); ++it) {
    if (it->span == exchange && it->from == from && it->to == to &&
        it->end < 0) {
      it->end = now;
      return;
    }
  }
}

uint64_t EtTracer::HopDigest() const {
  Fnv f;
  f.Mix(static_cast<uint64_t>(completed_total_));
  f.Mix(static_cast<uint64_t>(dropped_ets_));
  f.Mix(static_cast<uint64_t>(dropped_hops_));
  for (const auto& t : completed_) {
    f.Mix(static_cast<uint64_t>(t.et));
    f.Mix(static_cast<uint64_t>(t.origin));
    f.Mix(t.object_class);
    f.Mix(static_cast<uint64_t>(t.submit_time));
    f.Mix(static_cast<uint64_t>(t.commit_time));
    f.Mix(static_cast<uint64_t>(t.stable_time));
    f.Mix(t.aborted ? 1 : 0);
    for (SimTime at : t.apply_time) f.Mix(static_cast<uint64_t>(at));
    for (const auto& hop : t.hops) {
      f.Mix(static_cast<uint64_t>(hop.kind));
      f.Mix(static_cast<uint64_t>(hop.msg_type));
      f.Mix(static_cast<uint64_t>(hop.from));
      f.Mix(static_cast<uint64_t>(hop.to));
      f.Mix(static_cast<uint64_t>(hop.begin));
      f.Mix(static_cast<uint64_t>(hop.arrive));
      f.Mix(static_cast<uint64_t>(hop.end));
    }
  }
  for (const auto& hop : catchup_hops_) {
    f.Mix(static_cast<uint64_t>(hop.span));
    f.Mix(static_cast<uint64_t>(hop.from));
    f.Mix(static_cast<uint64_t>(hop.to));
    f.Mix(static_cast<uint64_t>(hop.begin));
    f.Mix(static_cast<uint64_t>(hop.end));
  }
  return f.h;
}

}  // namespace esr::obs
