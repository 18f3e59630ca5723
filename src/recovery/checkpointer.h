#ifndef ESR_RECOVERY_CHECKPOINTER_H_
#define ESR_RECOVERY_CHECKPOINTER_H_

#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/value.h"
#include "recovery/applied_cut.h"
#include "store/mset_log.h"

namespace esr::recovery {

/// Origin side: what a site knows about one of its outgoing update ETs
/// until it becomes stable. StabilityTracker keeps one per ET and
/// checkpoints them as they are.
struct OutgoingRecord {
  LamportTimestamp ts = kZeroTimestamp;
  /// The sites that apply the MSet, sorted: every site when fully
  /// replicated, the owners of its shards otherwise. The origin is among
  /// them iff it applies the MSet itself. The stability notice goes to the
  /// others. Empty while only acks are known; every site then counts as a
  /// replica, the full-replication rule.
  std::vector<SiteId> replicas;
  /// Sites that acked, sorted.
  std::vector<SiteId> acks;
};

/// StabilityTracker's checkpointable image. Every list has a fixed order
/// (`outstanding` by timestamp, the others by ET), so snapshots of a
/// seeded run are deterministic. The tracker's hooks are configuration,
/// not state, and are not captured.
struct StabilitySnapshot {
  /// Known-but-not-yet-stable ETs with their timestamps.
  std::vector<std::pair<EtId, LamportTimestamp>> outstanding;
  std::vector<EtId> stable;
  std::vector<std::pair<EtId, OutgoingRecord>> outgoing;
  /// Per-origin clock watermark, indexed by SiteId.
  std::vector<LamportTimestamp> watermark;
};

/// One fuzzy checkpoint of a site — "fuzzy" in the classical sense that it
/// is taken between events without quiescing the system, but because the
/// simulator is single-threaded a snapshot taken inside one event is
/// trivially atomic with respect to protocol state.
///
/// `cut` is THE watermark: an MSet is reflected in the checkpoint iff
/// `cut.Covers(mset)`. Every other fact is a typed field written once: the
/// facade fills the store images and sequencer floors, the replica control
/// method its order positions, apply count and decisions, and the
/// StabilityTracker its snapshot. EncodeCheckpoint and DecodeCheckpoint are
/// the only code that knows the byte layout.
struct CheckpointData {
  /// Highest WAL LSN reflected in this snapshot; replay starts after it.
  int64_t last_lsn = 0;
  /// Lamport clock counter at snapshot time.
  int64_t clock_counter = 0;
  /// The applied cut: per-origin applied timestamps (set by the
  /// RecoveryManager), the total-order delivery watermark (0 for unordered
  /// methods) and, under partial replication, the sharded ORDUP method's
  /// per-shard delivery watermarks (owned shards carry the stream cursor,
  /// non-owned shards INT64_MAX; empty when unsharded).
  AppliedCut cut;
  /// Active order servers hosted at the checkpointed site: one (order
  /// service, next-to-grant, epoch) triple per service whose home this
  /// site is, the service being a shard id or -1 for the global server.
  /// It is the durable floor an amnesia-restarted server re-seeds its
  /// grant cursor from — combined with a peer high-watermark probe — so
  /// granted positions are never reissued. Empty at sites that host only
  /// sealed/standby servers or none.
  std::vector<std::tuple<ShardId, SequenceNumber, int64_t>> seq_floors;
  /// Single-version store image: (object, value, write_timestamp).
  std::vector<std::tuple<ObjectId, Value, LamportTimestamp>> store_entries;
  /// Multi-version store image: (object, timestamp, value).
  std::vector<std::tuple<ObjectId, LamportTimestamp, Value>> versions;
  /// Highest watermark version GC had pruned below at snapshot time (zero
  /// when GC is off / never ran). Restore re-seeds the store's floor so a
  /// recovering site re-prunes versions the WAL replay resurrects.
  LamportTimestamp version_gc_floor;
  /// COMPE compensation log (records still at risk of rollback).
  std::vector<store::MsetLog::RecordSnapshot> mset_log;
  /// ORDUP / ORDUP-TS apply ledger: updates applied so far, the index a
  /// query pins (0 for every other method).
  int64_t apply_count = 0;
  /// COMPE: ETs decided commit, and ETs whose abort arrived before their
  /// MSet was applied. Sorted.
  std::vector<EtId> decided_commit;
  std::vector<EtId> abort_before_apply;
  StabilitySnapshot stability;
};

/// Serializes a checkpoint as one CRC-framed record (magic + format
/// version inside), so a torn checkpoint write is detected and rejected as
/// a whole.
std::string EncodeCheckpoint(const CheckpointData& data);

/// Decodes a checkpoint produced by EncodeCheckpoint of the same format
/// version. Returns false (and leaves `out` untouched) for empty, torn,
/// corrupt, or other-version bytes — the caller then recovers from an
/// empty initial state plus full WAL replay and catch-up.
bool DecodeCheckpoint(std::string_view bytes, CheckpointData* out);

}  // namespace esr::recovery

#endif  // ESR_RECOVERY_CHECKPOINTER_H_
