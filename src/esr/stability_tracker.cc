#include "esr/stability_tracker.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace esr::core {

LamportTimestamp PredTimestamp(LamportTimestamp ts) {
  if (ts.site > 0) return LamportTimestamp{ts.counter, ts.site - 1};
  return LamportTimestamp{ts.counter - 1,
                          std::numeric_limits<SiteId>::max()};
}

StabilityTracker::StabilityTracker(SiteId self, int num_sites)
    : self_(self),
      num_sites_(num_sites),
      watermark_(num_sites, kZeroTimestamp),
      last_vtnc_(kZeroTimestamp) {}

void StabilityTracker::TrackOutgoing(EtId et, LamportTimestamp ts,
                                     std::vector<SiteId> replicas) {
  assert(!replicas.empty());
  if (stable_.count(et)) return;  // late re-track after stability
  recovery::OutgoingRecord& out = outgoing_[et];
  if (!out.replicas.empty()) return;  // already tracked
  out.ts = ts;
  out.replicas = std::move(replicas);
}

void StabilityTracker::DropOutgoing(EtId et) { outgoing_.erase(et); }

bool StabilityTracker::RecordAck(EtId et, SiteId replica) {
  if (stable_.count(et)) return false;  // duplicate late ack
  recovery::OutgoingRecord& out = outgoing_[et];
  auto at = std::lower_bound(out.acks.begin(), out.acks.end(), replica);
  if (at == out.acks.end() || *at != replica) out.acks.insert(at, replica);
  return Complete(out);
}

bool StabilityTracker::Complete(const recovery::OutgoingRecord& out) const {
  const size_t needed = out.replicas.empty()
                            ? static_cast<size_t>(num_sites_)
                            : out.replicas.size();
  return out.acks.size() >= needed;
}

bool StabilityTracker::AcksComplete(EtId et) const {
  auto it = outgoing_.find(et);
  return it != outgoing_.end() && Complete(it->second);
}

const recovery::OutgoingRecord* StabilityTracker::FindOutgoing(
    EtId et) const {
  auto it = outgoing_.find(et);
  if (it == outgoing_.end() || it->second.replicas.empty()) return nullptr;
  return &it->second;
}

std::vector<SiteId> StabilityTracker::OutgoingTargets() const {
  std::vector<SiteId> sites;
  for (const auto& [et, out] : outgoing_) {
    sites.insert(sites.end(), out.replicas.begin(), out.replicas.end());
  }
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

void StabilityTracker::ObserveMset(EtId et, LamportTimestamp ts,
                                   SiteId origin) {
  // Watermark bump and outstanding registration are one logical update:
  // the VTNC hook must not fire between them (it would transiently see the
  // watermark past `ts` with the MSet not yet outstanding, and overshoot).
  BumpWatermark(origin, ts);
  if (!stable_.count(et) && !outstanding_ts_.count(et)) {
    outstanding_by_ts_.emplace(ts, et);
    outstanding_ts_.emplace(et, ts);
  }
  MaybeAdvanceVtnc();
}

void StabilityTracker::ObserveClock(SiteId origin, LamportTimestamp clock) {
  BumpWatermark(origin, clock);
  MaybeAdvanceVtnc();
}

void StabilityTracker::BumpWatermark(SiteId origin, LamportTimestamp clock) {
  assert(origin >= 0 && origin < num_sites_);
  watermark_[origin] = std::max(watermark_[origin], clock);
}

void StabilityTracker::MaybeAdvanceVtnc() {
  const LamportTimestamp vtnc = Vtnc();
  if (vtnc <= last_vtnc_) return;
  last_vtnc_ = vtnc;
  if (on_vtnc_advance) on_vtnc_advance(vtnc);
}

void StabilityTracker::MarkStable(EtId et) {
  if (!stable_.insert(et).second) return;  // already stable
  // A stability notice can outrun the MSet itself on non-FIFO channels;
  // then there is nothing outstanding to erase.
  auto it = outstanding_ts_.find(et);
  if (it != outstanding_ts_.end()) {
    outstanding_by_ts_.erase(it->second);
    outstanding_ts_.erase(it);
  }
  outgoing_.erase(et);
  if (on_stable) on_stable(et);
  MaybeAdvanceVtnc();
}

recovery::StabilitySnapshot StabilityTracker::ExportSnapshot() const {
  recovery::StabilitySnapshot snap;
  for (const auto& [ts, et] : outstanding_by_ts_) {
    snap.outstanding.emplace_back(et, ts);
  }
  snap.stable.assign(stable_.begin(), stable_.end());
  std::sort(snap.stable.begin(), snap.stable.end());
  snap.outgoing.assign(outgoing_.begin(), outgoing_.end());
  std::sort(snap.outgoing.begin(), snap.outgoing.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  snap.watermark = watermark_;
  return snap;
}

void StabilityTracker::RestoreSnapshot(
    const recovery::StabilitySnapshot& snapshot) {
  outstanding_by_ts_.clear();
  outstanding_ts_.clear();
  stable_.clear();
  outgoing_.clear();
  for (const auto& [et, ts] : snapshot.outstanding) {
    outstanding_by_ts_.emplace(ts, et);
    outstanding_ts_.emplace(et, ts);
  }
  stable_.insert(snapshot.stable.begin(), snapshot.stable.end());
  outgoing_.insert(snapshot.outgoing.begin(), snapshot.outgoing.end());
  for (size_t o = 0; o < watermark_.size() && o < snapshot.watermark.size();
       ++o) {
    watermark_[o] = snapshot.watermark[o];
  }
  // Resync the hook baseline silently: the restore path re-primes GC
  // itself (via the checkpointed floor); firing mid-restore would run it
  // against a half-rebuilt store.
  last_vtnc_ = std::max(last_vtnc_, Vtnc());
}

LamportTimestamp StabilityTracker::WatermarkFloor() const {
  LamportTimestamp floor{std::numeric_limits<int64_t>::max(), 0};
  for (SiteId o = 0; o < num_sites_; ++o) {
    if (o == self_) continue;
    floor = std::min(floor, watermark_[o]);
  }
  return floor;
}

LamportTimestamp StabilityTracker::Vtnc() const {
  // Watermark floor over the other origins (self excluded: a site always
  // knows its own update activity, which is captured by outstanding_).
  LamportTimestamp floor = WatermarkFloor();
  if (!outstanding_by_ts_.empty()) {
    floor = std::min(floor, PredTimestamp(outstanding_by_ts_.begin()->first));
  }
  return floor;
}

}  // namespace esr::core
