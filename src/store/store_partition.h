#ifndef ESR_STORE_STORE_PARTITION_H_
#define ESR_STORE_STORE_PARTITION_H_

#include <map>
#include <shared_mutex>
#include <unordered_map>

#include "common/types.h"
#include "common/value.h"

namespace esr::store {

/// One hash partition of the store: one table per store role, all guarded
/// by `mu`. Readers take it shared (ReadLatest / ReadAtOrBefore / Read never
/// block each other), writers exclusive. Partitions are independent, so
/// writes to different partitions never contend and a scan can proceed
/// partition-at-a-time without any global lock.
struct StorePartition {
  mutable std::shared_mutex mu;
  /// Single-version role (Apply / Read / Restore): an object is
  /// materialized once it has an entry here.
  std::unordered_map<ObjectId, Value> current;
  /// Thomas-rule timestamp of the latest applied kTimestampedWrite, kept
  /// only when non-zero (RITU-SV, quasi-copy refreshes).
  std::unordered_map<ObjectId, LamportTimestamp> write_ts;
  /// Multi-version role (RITU-MV): versions keyed (and thus sorted) by
  /// timestamp. A chain, once created, is never empty.
  std::unordered_map<ObjectId, std::map<LamportTimestamp, Value>> chains;
};

}  // namespace esr::store

#endif  // ESR_STORE_STORE_PARTITION_H_
