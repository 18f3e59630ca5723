#include "store/mv_store.h"

#include <algorithm>
#include <iterator>
#include <string>

namespace esr::store {

namespace {

int RoundUpPow2(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// The write_ts table keeps only non-zero timestamps: an absent entry reads
/// back as zero.
LamportTimestamp WriteTimestampIn(const StorePartition& p, ObjectId object) {
  auto it = p.write_ts.find(object);
  return it == p.write_ts.end() ? kZeroTimestamp : it->second;
}

void SetWriteTimestamp(StorePartition& p, ObjectId object,
                       LamportTimestamp ts) {
  if (ts == kZeroTimestamp) {
    p.write_ts.erase(object);
  } else {
    p.write_ts.insert_or_assign(object, ts);
  }
}

}  // namespace

MvStore::MvStore(MvStoreOptions options)
    : partitions_(static_cast<size_t>(
          RoundUpPow2(std::clamp(options.partitions, 1, 4096)))) {
  partition_mask_ = partitions_.size() - 1;
}

void MvStore::AppendVersion(ObjectId object, LamportTimestamp timestamp,
                            Value value) {
  StorePartition& p = partitions_[PartitionIndex(object)];
  std::unique_lock<std::shared_mutex> lock(p.mu);
  p.chains[object].insert_or_assign(timestamp, std::move(value));
}

std::optional<Version> MvStore::ReadLatest(ObjectId object) const {
  const StorePartition& p = partitions_[PartitionIndex(object)];
  std::shared_lock<std::shared_mutex> lock(p.mu);
  auto it = p.chains.find(object);
  if (it == p.chains.end() || it->second.empty()) return std::nullopt;
  const auto& [ts, value] = *it->second.rbegin();
  return Version{ts, value};
}

std::optional<Version> MvStore::ReadAtOrBefore(ObjectId object,
                                               LamportTimestamp at) const {
  const StorePartition& p = partitions_[PartitionIndex(object)];
  std::shared_lock<std::shared_mutex> lock(p.mu);
  auto it = p.chains.find(object);
  if (it == p.chains.end() || it->second.empty()) return std::nullopt;
  const auto& versions = it->second;
  auto vit = versions.upper_bound(at);
  if (vit == versions.begin()) return std::nullopt;
  --vit;
  return Version{vit->first, vit->second};
}

int64_t MvStore::VersionCount(ObjectId object) const {
  const StorePartition& p = partitions_[PartitionIndex(object)];
  std::shared_lock<std::shared_mutex> lock(p.mu);
  auto it = p.chains.find(object);
  if (it == p.chains.end()) return 0;
  return static_cast<int64_t>(it->second.size());
}

Status MvStore::Apply(const Operation& op) {
  if (!op.IsUpdate()) {
    return Status::InvalidArgument("cannot apply a read operation");
  }
  StorePartition& p = partitions_[PartitionIndex(op.object)];
  std::unique_lock<std::shared_mutex> lock(p.mu);
  // Materialize before the Thomas check: an ignored stale write still
  // creates the entry.
  Value& current = p.current[op.object];
  if (op.kind == OpKind::kTimestampedWrite) {
    // Thomas write rule: ignore writes older than the latest applied one.
    // This is exactly what makes RITU single-version updates
    // order-insensitive ("an RITU update trying to overwrite a newer
    // version is ignored", paper section 3.3).
    if (op.timestamp < WriteTimestampIn(p, op.object)) return Status::Ok();
    SetWriteTimestamp(p, op.object, op.timestamp);
    current = op.value;
    return Status::Ok();
  }
  return op.ApplyTo(current);
}

Status MvStore::ApplyAll(const std::vector<Operation>& ops) {
  for (const Operation& op : ops) {
    if (!op.IsUpdate()) continue;
    ESR_RETURN_IF_ERROR(Apply(op));
  }
  return Status::Ok();
}

Value MvStore::Read(ObjectId object) const {
  const StorePartition& p = partitions_[PartitionIndex(object)];
  std::shared_lock<std::shared_mutex> lock(p.mu);
  auto it = p.current.find(object);
  if (it == p.current.end()) return Value();
  return it->second;
}

void MvStore::Restore(ObjectId object, Value value) {
  StorePartition& p = partitions_[PartitionIndex(object)];
  std::unique_lock<std::shared_mutex> lock(p.mu);
  p.current.insert_or_assign(object, std::move(value));
}

LamportTimestamp MvStore::WriteTimestamp(ObjectId object) const {
  const StorePartition& p = partitions_[PartitionIndex(object)];
  std::shared_lock<std::shared_mutex> lock(p.mu);
  return WriteTimestampIn(p, object);
}

int64_t MvStore::ObjectCount() const {
  int64_t count = 0;
  for (const StorePartition& p : partitions_) {
    std::shared_lock<std::shared_mutex> lock(p.mu);
    count += static_cast<int64_t>(p.current.size());
  }
  return count;
}

void MvStore::RestoreEntry(ObjectId object, Value value,
                           LamportTimestamp write_timestamp) {
  StorePartition& p = partitions_[PartitionIndex(object)];
  std::unique_lock<std::shared_mutex> lock(p.mu);
  p.current.insert_or_assign(object, std::move(value));
  SetWriteTimestamp(p, object, write_timestamp);
}

int64_t MvStore::GcBelow(LamportTimestamp watermark) {
  int64_t pruned = 0;
  for (StorePartition& p : partitions_) {
    std::unique_lock<std::shared_mutex> lock(p.mu);
    for (auto& [id, versions] : p.chains) {
      if (versions.size() <= 1) continue;
      // First version strictly above the watermark; the one before it (if
      // any) is the newest at-or-below version and must survive so
      // ReadAtOrBefore(watermark) stays servable.
      auto keep = versions.upper_bound(watermark);
      if (keep == versions.begin()) continue;
      --keep;
      const auto n = std::distance(versions.begin(), keep);
      if (n == 0) continue;
      versions.erase(versions.begin(), keep);
      pruned += static_cast<int64_t>(n);
    }
  }
  {
    std::lock_guard<std::mutex> lock(floor_mu_);
    gc_floor_ = std::max(gc_floor_, watermark);
  }
  gc_pruned_total_.fetch_add(pruned, std::memory_order_relaxed);
  return pruned;
}

LamportTimestamp MvStore::gc_floor() const {
  std::lock_guard<std::mutex> lock(floor_mu_);
  return gc_floor_;
}

void MvStore::SetGcFloor(LamportTimestamp floor) {
  std::lock_guard<std::mutex> lock(floor_mu_);
  gc_floor_ = std::max(gc_floor_, floor);
}

uint64_t MvStore::StateDigest() const { return Digest(false); }

uint64_t MvStore::LatestDigest() const { return Digest(true); }

uint64_t MvStore::Digest(bool latest_only) const {
  // FNV-1a over the rendering of each field. Every field is terminated
  // with a 0x1f unit separator (a byte no rendering contains): without it,
  // distinct states like (id=1, value=23) and (id=12, value=3) render to
  // the same byte stream and collide.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0x1f;
    h *= 1099511628211ULL;
  };
  for (ObjectId id : ObjectIds()) {
    const StorePartition& p = partitions_[PartitionIndex(id)];
    std::shared_lock<std::shared_mutex> lock(p.mu);
    auto chain = p.chains.find(id);
    auto current = p.current.find(id);
    if (chain == p.chains.end() && current == p.current.end()) {
      continue;  // concurrently removed
    }
    mix(std::to_string(id));
    if (chain != p.chains.end()) {
      const auto& versions = chain->second;  // never empty
      auto first = latest_only ? std::prev(versions.end()) : versions.begin();
      for (auto v = first; v != versions.end(); ++v) {
        mix(ToString(v->first));
        mix(v->second.ToString());
      }
    }
    if (current != p.current.end()) mix(current->second.ToString());
  }
  return h;
}

std::vector<ObjectId> MvStore::ObjectIds() const {
  std::vector<ObjectId> ids;
  for (const StorePartition& p : partitions_) {
    std::shared_lock<std::shared_mutex> lock(p.mu);
    for (const auto& [id, value] : p.current) ids.push_back(id);
    for (const auto& [id, versions] : p.chains) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<std::tuple<ObjectId, LamportTimestamp, Value>>
MvStore::SnapshotVersions() const {
  std::vector<std::tuple<ObjectId, LamportTimestamp, Value>> out;
  for (const StorePartition& p : partitions_) {
    std::shared_lock<std::shared_mutex> lock(p.mu);
    for (const auto& [id, versions] : p.chains) {
      for (const auto& [ts, value] : versions) {
        out.emplace_back(id, ts, value);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              if (std::get<0>(a) != std::get<0>(b)) {
                return std::get<0>(a) < std::get<0>(b);
              }
              return std::get<1>(a) < std::get<1>(b);
            });
  return out;
}

std::vector<std::tuple<ObjectId, Value, LamportTimestamp>>
MvStore::SnapshotEntries() const {
  std::vector<std::tuple<ObjectId, Value, LamportTimestamp>> out;
  for (const StorePartition& p : partitions_) {
    std::shared_lock<std::shared_mutex> lock(p.mu);
    for (const auto& [id, value] : p.current) {
      out.emplace_back(id, value, WriteTimestampIn(p, id));
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) < std::get<0>(b);
  });
  return out;
}

int64_t MvStore::MaxChainLength() const {
  int64_t max_len = 0;
  for (const StorePartition& p : partitions_) {
    std::shared_lock<std::shared_mutex> lock(p.mu);
    for (const auto& [id, versions] : p.chains) {
      max_len = std::max(max_len, static_cast<int64_t>(versions.size()));
    }
  }
  return max_len;
}

void MvStore::Clear() {
  for (StorePartition& p : partitions_) {
    std::unique_lock<std::shared_mutex> lock(p.mu);
    p.current.clear();
    p.write_ts.clear();
    p.chains.clear();
  }
  {
    std::lock_guard<std::mutex> lock(floor_mu_);
    gc_floor_ = kZeroTimestamp;
  }
  gc_pruned_total_.store(0, std::memory_order_relaxed);
}

}  // namespace esr::store
