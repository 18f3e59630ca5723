#ifndef ESR_STORE_MSET_LOG_H_
#define ESR_STORE_MSET_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/value.h"
#include "store/mv_store.h"
#include "store/operation.h"

namespace esr::store {

/// Per-site log of applied MSets supporting compensation (paper section 4).
///
/// COMPE applies MSets optimistically before their global update commits; if
/// the update later aborts, its local effects must be compensated. Two
/// strategies, chosen per the paper's analysis:
///
///  * **Fast path** — when the aborted MSet consists of exactly-invertible
///    operations (increments) and every later logged operation commutes with
///    them, the inverse operations are applied directly; no rollback. The
///    recorded before-images of later records are adjusted by the same
///    inverse so subsequent rollbacks stay exact.
///  * **General path** — otherwise, the log suffix from the tail down to the
///    aborted MSet is undone in reverse order by restoring before-images,
///    the aborted MSet is removed, and the remaining records are re-executed
///    in order (recapturing before-images). This is the paper's
///    "rollback the entire log ... the log is then replayed".
///
/// Before-images are captured at apply time for every object an MSet
/// updates; this also covers RITU-overwrite rollback ("we must also record
/// the value being overwritten on the log").
class MsetLog {
 public:
  /// Counters describing the compensation work performed, used by the
  /// compensation-cost benchmark (experiment E5).
  struct CompensationStats {
    int64_t fast_path = 0;
    int64_t general_rollbacks = 0;
    /// Total records undone+replayed across all general rollbacks.
    int64_t records_rolled_back = 0;
  };

  MsetLog() = default;

  /// Captures before-images of the objects updated by `update_ops`, applies
  /// them to `store`, and appends a log record. `mset_id` must be new.
  Status ApplyAndLog(MvStore& store, int64_t mset_id,
                     std::vector<Operation> update_ops);

  /// Compensates a previously logged MSet (applies the fast path when legal,
  /// the general rollback-and-replay otherwise) and removes its record.
  Status Compensate(MvStore& store, int64_t mset_id);

  bool Contains(int64_t mset_id) const;

  /// Drops log records from the front while `is_stable(mset_id)` holds:
  /// stable MSets can no longer abort, so their records are no longer needed
  /// ("COMPE must remember the executed MSets until there is no risk of
  /// rollback"). Returns the number of records dropped.
  int64_t TruncateStable(const std::function<bool(int64_t)>& is_stable);

  int64_t size() const { return static_cast<int64_t>(records_.size()); }
  std::vector<int64_t> MsetIds() const;
  const CompensationStats& stats() const { return stats_; }

  /// Checkpointable image of one log record; before-images sorted by object
  /// so snapshots of a seeded run are deterministic.
  struct RecordSnapshot {
    int64_t mset_id = 0;
    std::vector<Operation> ops;
    std::vector<std::pair<ObjectId, Value>> before_images;
  };

  /// Snapshots every record, front (oldest) to back.
  std::vector<RecordSnapshot> Snapshot() const;

  /// Re-appends one checkpointed record verbatim (no store mutation — the
  /// store contents are restored separately by the checkpoint).
  void RestoreRecord(const RecordSnapshot& snapshot);

 private:
  struct Record {
    int64_t mset_id;
    std::vector<Operation> ops;  // update operations, in applied order
    std::unordered_map<ObjectId, Value> before_images;
  };

  /// True when the fast path may compensate `records_[index]`.
  bool FastPathLegal(size_t index) const;

  std::deque<Record> records_;
  CompensationStats stats_;
};

}  // namespace esr::store

#endif  // ESR_STORE_MSET_LOG_H_
