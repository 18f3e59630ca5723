#include "store/mset_log.h"

#include <algorithm>
#include <string>

namespace esr::store {

Status MsetLog::ApplyAndLog(MvStore& store, int64_t mset_id,
                            std::vector<Operation> update_ops) {
  if (Contains(mset_id)) {
    return Status::AlreadyExists("mset " + std::to_string(mset_id) +
                                 " already logged");
  }
  Record record;
  record.mset_id = mset_id;
  for (const Operation& op : update_ops) {
    if (!op.IsUpdate()) {
      return Status::InvalidArgument("mset log records update operations only");
    }
    // First-touch before-image per object within the MSet.
    record.before_images.emplace(op.object, store.Read(op.object));
  }
  ESR_RETURN_IF_ERROR(store.ApplyAll(update_ops));
  record.ops = std::move(update_ops);
  records_.push_back(std::move(record));
  return Status::Ok();
}

bool MsetLog::Contains(int64_t mset_id) const {
  return std::any_of(records_.begin(), records_.end(),
                     [mset_id](const Record& r) { return r.mset_id == mset_id; });
}

bool MsetLog::FastPathLegal(size_t index) const {
  const Record& target = records_[index];
  // Every operation must have an exact inverse (increments) ...
  for (const Operation& op : target.ops) {
    if (!op.HasExactInverse()) return false;
  }
  // ... and every later logged operation must commute with the target's, so
  // that applying the inverse at the tail equals removing the operation in
  // place (the paper's Inc/Mul example shows why this fails otherwise).
  for (size_t j = index + 1; j < records_.size(); ++j) {
    if (!MutuallyCommutative(target.ops, records_[j].ops)) return false;
  }
  return true;
}

Status MsetLog::Compensate(MvStore& store, int64_t mset_id) {
  size_t index = records_.size();
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].mset_id == mset_id) {
      index = i;
      break;
    }
  }
  if (index == records_.size()) {
    return Status::NotFound("mset " + std::to_string(mset_id) +
                            " not in log (already stable or never applied)");
  }

  if (FastPathLegal(index)) {
    ++stats_.fast_path;
    const Record target = records_[index];
    for (const Operation& op : target.ops) {
      ESR_RETURN_IF_ERROR(store.Apply(op.Inverse()));
      // Keep later before-images consistent with a history in which the
      // compensated operation never ran: un-apply its effect from every
      // later record's saved image of the same object.
      for (size_t j = index + 1; j < records_.size(); ++j) {
        auto it = records_[j].before_images.find(op.object);
        if (it != records_[j].before_images.end()) {
          ESR_RETURN_IF_ERROR(op.Inverse().ApplyTo(it->second));
        }
      }
    }
    records_.erase(records_.begin() + static_cast<int64_t>(index));
    return Status::Ok();
  }

  // General path: undo the suffix in reverse by restoring before-images.
  ++stats_.general_rollbacks;
  stats_.records_rolled_back +=
      static_cast<int64_t>(records_.size() - index);
  for (size_t j = records_.size(); j-- > index;) {
    for (const auto& [object, image] : records_[j].before_images) {
      store.Restore(object, image);
    }
  }
  // Remove the aborted record, then replay the remainder in order,
  // recapturing before-images against the post-compensation state.
  std::vector<Record> tail(records_.begin() + static_cast<int64_t>(index) + 1,
                           records_.end());
  records_.erase(records_.begin() + static_cast<int64_t>(index),
                 records_.end());
  for (Record& r : tail) {
    r.before_images.clear();
    for (const Operation& op : r.ops) {
      r.before_images.emplace(op.object, store.Read(op.object));
    }
    ESR_RETURN_IF_ERROR(store.ApplyAll(r.ops));
    records_.push_back(std::move(r));
  }
  return Status::Ok();
}

int64_t MsetLog::TruncateStable(
    const std::function<bool(int64_t)>& is_stable) {
  int64_t dropped = 0;
  while (!records_.empty() && is_stable(records_.front().mset_id)) {
    records_.pop_front();
    ++dropped;
  }
  return dropped;
}

std::vector<int64_t> MsetLog::MsetIds() const {
  std::vector<int64_t> ids;
  ids.reserve(records_.size());
  for (const Record& r : records_) ids.push_back(r.mset_id);
  return ids;
}

std::vector<MsetLog::RecordSnapshot> MsetLog::Snapshot() const {
  std::vector<RecordSnapshot> out;
  out.reserve(records_.size());
  for (const Record& r : records_) {
    RecordSnapshot snap;
    snap.mset_id = r.mset_id;
    snap.ops = r.ops;
    snap.before_images.assign(r.before_images.begin(), r.before_images.end());
    std::sort(snap.before_images.begin(), snap.before_images.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out.push_back(std::move(snap));
  }
  return out;
}

void MsetLog::RestoreRecord(const RecordSnapshot& snapshot) {
  Record record;
  record.mset_id = snapshot.mset_id;
  record.ops = snapshot.ops;
  for (const auto& [object, value] : snapshot.before_images) {
    record.before_images.emplace(object, value);
  }
  records_.push_back(std::move(record));
}

}  // namespace esr::store
