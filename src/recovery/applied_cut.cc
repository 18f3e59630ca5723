#include "recovery/applied_cut.h"

#include <algorithm>

#include "esr/mset.h"

namespace esr::recovery {

namespace {

SequenceNumber ShardAt(const std::map<ShardId, SequenceNumber>& wms,
                       ShardId shard) {
  auto it = wms.find(shard);
  return it == wms.end() ? 0 : it->second;
}

bool OriginInRange(const std::vector<LamportTimestamp>& applied,
                   SiteId origin) {
  return origin >= 0 && origin < static_cast<SiteId>(applied.size());
}

}  // namespace

bool AppliedCut::Covers(const core::Mset& mset) const {
  if (!mset.shard_positions.empty()) {
    return std::all_of(mset.shard_positions.begin(),
                       mset.shard_positions.end(), [this](const auto& entry) {
                         return entry.second <=
                                ShardAt(shard_watermarks, entry.first);
                       });
  }
  if (mset.et == kInvalidEtId) {
    return mset.global_order > 0 && mset.global_order <= order_watermark;
  }
  return OriginInRange(applied, mset.origin) &&
         mset.timestamp <= applied[static_cast<size_t>(mset.origin)];
}

void AppliedCut::Raise(const core::Mset& mset) {
  if (mset.et == kInvalidEtId) return;
  if (!mset.shard_positions.empty()) {
    for (const auto& [shard, pos] : mset.shard_positions) {
      SequenceNumber& wm = shard_watermarks[shard];
      wm = std::max(wm, pos);
    }
    return;
  }
  if (!OriginInRange(applied, mset.origin)) return;
  LamportTimestamp& wm = applied[static_cast<size_t>(mset.origin)];
  wm = std::max(wm, mset.timestamp);
}

AppliedCut AppliedCut::Min(const AppliedCut& a, const AppliedCut& b) {
  AppliedCut out;
  out.applied.assign(std::max(a.applied.size(), b.applied.size()),
                     kZeroTimestamp);
  for (size_t o = 0; o < out.applied.size(); ++o) {
    if (o < a.applied.size() && o < b.applied.size()) {
      out.applied[o] = std::min(a.applied[o], b.applied[o]);
    }
  }
  out.order_watermark = std::min(a.order_watermark, b.order_watermark);
  for (const auto* cut : {&a, &b}) {
    for (const auto& [shard, wm] : cut->shard_watermarks) {
      out.shard_watermarks[shard] =
          std::min(ShardAt(a.shard_watermarks, shard),
                   ShardAt(b.shard_watermarks, shard));
    }
  }
  return out;
}

}  // namespace esr::recovery
