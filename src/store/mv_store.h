#ifndef ESR_STORE_MV_STORE_H_
#define ESR_STORE_MV_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/value.h"
#include "store/operation.h"
#include "store/store_partition.h"

namespace esr::store {

/// One immutable version of an object.
struct Version {
  LamportTimestamp timestamp;
  Value value;

  friend bool operator==(const Version&, const Version&) = default;
};

/// Shape of the concurrent store. The default (one partition) serializes
/// all writers, which is all the single-threaded simulator needs.
struct MvStoreOptions {
  /// Number of hash partitions; rounded up to a power of two and clamped
  /// to [1, 4096]. One partition serializes all writers (still safe, just
  /// unscaled); the real runtime wants >= the worker thread count.
  int partitions = 1;
};

/// The object store of one replica site: concurrent, partitioned, and
/// holding the single current value of each object and, for RITU's
/// multi-version mode, its timestamp-ordered version chain.
///
/// The object space is hashed over N power-of-two partitions, each guarded
/// by its own shared_mutex (striped locking): point reads take the shared
/// side and never block each other, writers contend only within their
/// partition, and scans (digests, snapshots, divergence gauges) proceed
/// partition-at-a-time without any global lock. Each method uses one of
/// two roles, and each partition keeps one table per role
/// (StorePartition), so an object pays only for the role that touched it:
///
///  * Multi-version role (RITU-MV, paper section 3.3): AppendVersion /
///    ReadLatest / ReadAtOrBefore over timestamp-ordered immutable version
///    chains; GcBelow is the only way a version goes. Visibility follows the Modular
///    Synchronization Method's visible transaction number counter (VTNC),
///    implemented by the caller: a query reading at-or-below the VTNC is
///    serializable; reading above it is the controlled inconsistency RITU
///    charges against the query's counter.
///  * Single-version role (ORDUP / COMMU / COMPE / RITU-SV / 2PC): Apply /
///    Read / Restore over one current value per object, with the Thomas
///    write rule for timestamped writes; the write timestamp sits in a
///    side table only objects that took a timestamped write enter. Objects
///    spring into existence on first access with the default value
///    (integer 0); there is no delete.
///
/// *Version GC.* GcBelow(watermark) prunes versions strictly below the
/// given stability watermark but always keeps the newest version at or
/// below it, so ReadAtOrBefore(watermark) — and any pin at or above the
/// watermark — remains servable after pruning. Safety argument: the VTNC
/// only advances past timestamps no future update can carry, and callers
/// clamp the watermark to the oldest live query pin, so no reachable
/// snapshot read can need a pruned version (DESIGN.md §15).
///
/// *Determinism.* All digests and snapshots are computed over globally
/// sorted object ids (and timestamp-sorted chains), so their results are
/// independent of the partition count.
///
/// Thread safety: every method is safe to call concurrently. Scans are
/// partition-at-a-time and therefore *fuzzy* under concurrent writers
/// (they see each partition at a possibly different instant); quiescent
/// scans are exact.
class MvStore {
 public:
  explicit MvStore(MvStoreOptions options = {});

  MvStore(const MvStore&) = delete;
  MvStore& operator=(const MvStore&) = delete;

  /// --- Multi-version role -------------------------------------------------

  /// Appends a version. Appending an identical (timestamp, value) pair is
  /// idempotent; a different value at an existing timestamp replaces it
  /// (COMPE's "adding another version with the same timestamp but bearing
  /// the previous value").
  void AppendVersion(ObjectId object, LamportTimestamp timestamp, Value value);

  /// Latest version by timestamp; nullopt when the object has none.
  std::optional<Version> ReadLatest(ObjectId object) const;

  /// Latest version with timestamp <= `at`; nullopt if none exists.
  std::optional<Version> ReadAtOrBefore(ObjectId object,
                                        LamportTimestamp at) const;

  /// Number of versions stored for `object`.
  int64_t VersionCount(ObjectId object) const;

  /// --- Single-version role ------------------------------------------------

  /// Applies one update operation. For kTimestampedWrite, enforces the
  /// Thomas write rule: a write older than the object's latest applied
  /// write is ignored (returns OK — being ignored is the operation's
  /// defined semantics, not an error).
  Status Apply(const Operation& op);

  /// Applies every update in `ops` (reads skipped); stops at first failure.
  Status ApplyAll(const std::vector<Operation>& ops);

  /// Current value (default-initialized if never written).
  Value Read(ObjectId object) const;

  /// Overwrites an object's value directly, bypassing operation semantics
  /// (compensation rollback restores before-images with it).
  void Restore(ObjectId object, Value value);

  /// Timestamp of the latest applied timestamped write (zero if none).
  LamportTimestamp WriteTimestamp(ObjectId object) const;

  /// Number of objects materialized by the single-version role.
  int64_t ObjectCount() const;

  /// Restores one checkpointed single-version entry with its Thomas-rule
  /// write timestamp (Restore() would leave it unchanged).
  void RestoreEntry(ObjectId object, Value value,
                    LamportTimestamp write_timestamp);

  /// --- Version GC ---------------------------------------------------------

  /// Prunes versions strictly below `watermark`, always keeping each
  /// chain's newest version at or below it (so ReadAtOrBefore(watermark)
  /// stays servable). Returns the number of versions pruned. Never touches
  /// single-version entries. The floor is remembered (gc_floor()) and
  /// checkpointed so a recovering site re-bounds replayed chains.
  int64_t GcBelow(LamportTimestamp watermark);

  /// Highest watermark GC has run at (zero if never).
  LamportTimestamp gc_floor() const;

  /// Restore path: re-seeds the remembered floor without pruning.
  void SetGcFloor(LamportTimestamp floor);

  /// Total versions pruned over this store's lifetime.
  int64_t gc_pruned_total() const {
    return gc_pruned_total_.load(std::memory_order_relaxed);
  }

  /// --- Scans, digests, snapshots (partition-at-a-time, sorted output) -----

  /// Deterministic FNV-1a digest over the full contents: per sorted object
  /// id, every (timestamp, value) version pair then the current value if
  /// the single-version role materialized the object. Two replicas
  /// converged to the same state iff their digests match.
  uint64_t StateDigest() const;

  /// Digest over each object's *newest* version only. Invariant under
  /// GcBelow (GC never removes a chain's newest version) — the convergence
  /// check to use when version GC is enabled, since sites prune at
  /// independently-advancing VTNCs.
  uint64_t LatestDigest() const;

  /// All object ids with at least one version or a materialized current
  /// value, sorted.
  std::vector<ObjectId> ObjectIds() const;

  /// The multi-version checkpoint image: (object, timestamp, value)
  /// triples sorted by object then timestamp. Iterates partitions, then
  /// sorts globally (deterministic for any partition count).
  std::vector<std::tuple<ObjectId, LamportTimestamp, Value>> SnapshotVersions()
      const;

  /// The single-version checkpoint image: sorted (object, value,
  /// write_timestamp) triples over materialized objects.
  std::vector<std::tuple<ObjectId, Value, LamportTimestamp>> SnapshotEntries()
      const;

  /// --- Introspection ------------------------------------------------------

  int partition_count() const { return static_cast<int>(partitions_.size()); }
  /// Length of the longest version chain (O(objects) scan).
  int64_t MaxChainLength() const;

  /// Drops all contents and statistics; the partitioning is kept.
  /// (The amnesia-restart reset — MvStore is not assignable.)
  void Clear();

 private:
  size_t PartitionIndex(ObjectId object) const {
    // Multiplicative (Fibonacci) hash: dense ids spread evenly, strided
    // ids don't alias partitions.
    const uint64_t mixed =
        static_cast<uint64_t>(object) * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>((mixed >> 33) & partition_mask_);
  }

  /// Shared body of StateDigest / LatestDigest: `latest_only` mixes just
  /// each chain's newest version instead of the whole chain.
  uint64_t Digest(bool latest_only) const;

  std::vector<StorePartition> partitions_;
  uint64_t partition_mask_ = 0;

  mutable std::mutex floor_mu_;
  LamportTimestamp gc_floor_;  // guarded by floor_mu_

  std::atomic<int64_t> gc_pruned_total_{0};
};

}  // namespace esr::store

#endif  // ESR_STORE_MV_STORE_H_
