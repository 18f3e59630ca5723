#ifndef ESR_STORE_STORE_PARTITION_H_
#define ESR_STORE_STORE_PARTITION_H_

#include <map>
#include <shared_mutex>
#include <unordered_map>

#include "common/types.h"
#include "common/value.h"

namespace esr::store {

/// One object's slot in the store. The slot carries both store roles side
/// by side:
///
///  * the *multi-version* role (RITU-MV): the timestamp-ordered version
///    chain that AppendVersion/ReadAtOrBefore operate on, and
///  * the *single-version* role (ORDUP/COMMU/COMPE): the current value plus
///    the Thomas-rule write timestamp that Apply/Read operate on.
///
/// A given MvStore instance only ever exercises one role in practice (the
/// method decides), but keeping both in one slot lets the same partitioned
/// concurrent container back every method.
struct ObjectSlot {
  /// Single-version role: current value (default integer 0).
  Value current;
  /// Single-version role: latest applied kTimestampedWrite (Thomas rule).
  LamportTimestamp write_timestamp;
  /// True once the single-version role materialized this slot (Apply /
  /// Restore / RestoreEntry).
  bool has_current = false;
  /// Multi-version role: versions keyed (and thus sorted) by timestamp.
  std::map<LamportTimestamp, Value> versions;
};

/// One hash partition of the store. Its slots are guarded by `mu`:
/// readers take it shared (ReadLatest / ReadAtOrBefore / Read never block
/// each other), writers exclusive. Partitions are independent, so writes
/// to different partitions never contend and a scan can proceed
/// partition-at-a-time without any global lock.
struct StorePartition {
  mutable std::shared_mutex mu;
  std::unordered_map<ObjectId, ObjectSlot> slots;
};

}  // namespace esr::store

#endif  // ESR_STORE_STORE_PARTITION_H_
