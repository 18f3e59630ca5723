#ifndef ESR_ESR_APPLY_LEDGER_H_
#define ESR_ESR_APPLY_LEDGER_H_

#include <algorithm>
#include <cassert>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "esr/query_state.h"
#include "store/operation.h"

namespace esr::core {

/// One site's apply ledger for ordered updates (ORDUP, paper section 3.1):
/// the apply count, the per-object write index, the charge rule and the
/// strict-query pause.
///
/// A query pins the apply count at its first read. A read is charged one
/// unit per update ET that wrote the object and was applied past the
/// query's mark for it (the pin, or the count at its last read of the
/// object). A strict query, or one with no budget left at its first read,
/// pauses the applier at its pin and so is charged 0; pauses nest.
///
/// Trim rule: every mark is at or above its query's pin, so entries at or
/// below the oldest live pin are dropped. The ledger registers pins itself,
/// by query id, so the owner-side shadows of forwarded reads count too.
/// With no live pin nothing is indexed: a later pin starts above it all. A
/// pin never released only stops trimming; it cannot change a charge.
class ApplyLedger {
 public:
  /// Counts one applied update ET; while a pin is live, indexes each
  /// distinct object it writes.
  void RecordApply(const std::vector<store::Operation>& ops) {
    ++applied_;
    if (pins_.empty()) return;
    for (const store::Operation& op : ops) {
      if (!op.IsUpdate()) continue;
      std::deque<int64_t>& indexes = writes_[op.object];
      if (!indexes.empty() && indexes.back() == applied_) continue;
      indexes.push_back(applied_);
      order_.emplace_back(applied_, op.object);
    }
  }

  /// Charges `query`'s read of `object`, pinning (and for a strict query,
  /// pausing) on the first read. Returns the charge with the query's mark
  /// advanced, or InconsistencyLimit past epsilon, leaving the query's
  /// inconsistency and marks unchanged.
  Result<int64_t> Charge(QueryState& query, ObjectId object) {
    if (!query.pinned) {
      query.pinned = true;
      query.order_pin = applied_;
      pins_[query.id] = applied_;
      if ((query.strict || query.epsilon - query.inconsistency <= 0) &&
          !query.holds_pause) {
        ++pauses_;
        query.holds_pause = true;
      }
    }
    auto mit = query.charged_marks.find(object);
    const int64_t mark =
        mit == query.charged_marks.end() ? query.order_pin : mit->second;
    auto it = writes_.find(object);
    const int64_t inc =
        it == writes_.end()
            ? 0
            : it->second.end() -
                  std::upper_bound(it->second.begin(), it->second.end(), mark);
    if (query.epsilon != kUnboundedEpsilon &&
        query.inconsistency + inc > query.epsilon) {
      return Status::InconsistencyLimit(
          "read of object " + std::to_string(object) + " would add " +
          std::to_string(inc) + " units past epsilon");
    }
    query.inconsistency += inc;
    query.charged_marks[object] = applied_;
    return inc;
  }

  /// Drops `query`'s pin (a no-op for an unregistered one, such as a
  /// sequenced ORDUP query's) and its pause. True when the last pause
  /// lifted, so the caller resumes applying.
  bool Release(QueryState& query) {
    if (pins_.erase(query.id) > 0) Trim();
    if (!query.holds_pause) return false;
    query.holds_pause = false;
    assert(pauses_ > 0);
    return --pauses_ == 0;
  }

  /// Sets the apply count from a checkpoint, before any query pins.
  void RestoreApplied(int64_t applied) {
    assert(pins_.empty());
    applied_ = applied;
  }

  int64_t applied() const { return applied_; }
  bool paused() const { return pauses_ > 0; }
  /// Indexed (update ET, object) entries.
  size_t entries() const { return order_.size(); }

 private:
  /// Pops entries at or below the oldest live pin, oldest first.
  void Trim() {
    int64_t floor = applied_;
    for (const auto& [id, pin] : pins_) floor = std::min(floor, pin);
    while (!order_.empty() && order_.front().first <= floor) {
      auto it = writes_.find(order_.front().second);
      it->second.pop_front();
      if (it->second.empty()) writes_.erase(it);
      order_.pop_front();
    }
  }

  int64_t applied_ = 0;
  int pauses_ = 0;
  /// Per object: ascending apply indexes of the update ETs that wrote it.
  std::unordered_map<ObjectId, std::deque<int64_t>> writes_;
  /// The same entries as (apply index, object), in apply order.
  std::deque<std::pair<int64_t, ObjectId>> order_;
  /// Live pins by query id.
  std::unordered_map<EtId, int64_t> pins_;
};

}  // namespace esr::core

#endif  // ESR_ESR_APPLY_LEDGER_H_
