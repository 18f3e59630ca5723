#ifndef ESR_RECOVERY_APPLIED_CUT_H_
#define ESR_RECOVERY_APPLIED_CUT_H_

#include <map>
#include <vector>

#include "common/types.h"

namespace esr::core {
struct Mset;
}  // namespace esr::core

namespace esr::recovery {

/// Which MSets a site reflects: a consistent cut of the streams it applies.
/// Recovery keeps one per question: the live applied state, the latest
/// checkpoint, what a catch-up requester already has, and the cross-site
/// floor below which no site needs a WAL record again.
///
/// An MSet is ordered in one of three ways, so the cut has one coordinate
/// for each:
/// - a timestamped unsharded MSet by its origin: stable queues are FIFO per
///   origin and every method applies one origin's MSets in timestamp order;
/// - an unsharded no-op filler by its total-order position: it fills an
///   order buffer slot and carries no timestamp a site applied;
/// - a sharded MSet or filler by its shard positions: one origin's MSets to
///   different shards apply in different relative orders at different
///   owners, but each shard stream applies contiguously.
struct AppliedCut {
  /// applied[origin]: timestamp of the newest unsharded MSet from `origin`.
  std::vector<LamportTimestamp> applied;
  /// Total-order position passed.
  SequenceNumber order_watermark = 0;
  /// Per-shard stream position passed. A missing shard counts as 0;
  /// INT64_MAX marks a shard the site does not own and never needs.
  std::map<ShardId, SequenceNumber> shard_watermarks;

  /// True when the cut reflects `mset`: every shard position at or below
  /// its shard's watermark for a sharded MSet; else, for a no-op filler,
  /// its order position at or below `order_watermark`; else its timestamp
  /// at or below `applied[origin]`.
  bool Covers(const core::Mset& mset) const;

  /// Raises the cut over an MSet just applied. No-op fillers are ignored:
  /// an order position is learned from a checkpoint, never from a filler.
  void Raise(const core::Mset& mset);

  /// Element-wise minimum: what both cuts reflect. A missing origin or
  /// shard counts as 0.
  static AppliedCut Min(const AppliedCut& a, const AppliedCut& b);
};

}  // namespace esr::recovery

#endif  // ESR_RECOVERY_APPLIED_CUT_H_
