#include "recovery/checkpointer.h"

#include "recovery/codec.h"

namespace esr::recovery {

namespace {

constexpr uint32_t kCheckpointMagic = 0x45535243u;  // "ESRC"
/// v2 added the sequencer durable floor (seq_next, seq_epoch). v3 added
/// the per-shard delivery watermarks of partial replication. v4 added the
/// per-shard sequencer floors (shard, seq_next, seq_epoch) for sites that
/// host shard order servers. v5 added the version-GC floor. Older blobs
/// still decode — the added fields stay 0/empty (an empty shard-watermark
/// map keeps every sharded WAL record, an absent shard floor falls back to
/// the peer probe, and a zero GC floor just defers re-pruning to the next
/// VTNC advance, all of which are safe).
constexpr uint32_t kCheckpointVersion = 5;

}  // namespace

std::string EncodeCheckpoint(const CheckpointData& data) {
  Encoder enc;
  enc.U32(kCheckpointMagic);
  enc.U32(kCheckpointVersion);
  enc.I64(data.last_lsn);
  enc.I64(data.clock_counter);
  enc.I64(data.order_watermark);
  enc.I64(data.seq_next);
  enc.I64(data.seq_epoch);
  enc.U32(static_cast<uint32_t>(data.applied.size()));
  for (const LamportTimestamp& ts : data.applied) enc.Ts(ts);
  enc.U32(static_cast<uint32_t>(data.shard_watermarks.size()));
  for (const auto& [shard, wm] : data.shard_watermarks) {
    enc.U32(static_cast<uint32_t>(shard));
    enc.I64(wm);
  }
  enc.U32(static_cast<uint32_t>(data.shard_seq_floors.size()));
  for (const auto& [shard, next, epoch] : data.shard_seq_floors) {
    enc.U32(static_cast<uint32_t>(shard));
    enc.I64(next);
    enc.I64(epoch);
  }
  enc.U32(static_cast<uint32_t>(data.store_entries.size()));
  for (const auto& [object, value, write_ts] : data.store_entries) {
    enc.I64(object);
    enc.Val(value);
    enc.Ts(write_ts);
  }
  enc.U32(static_cast<uint32_t>(data.versions.size()));
  for (const auto& [object, ts, value] : data.versions) {
    enc.I64(object);
    enc.Ts(ts);
    enc.Val(value);
  }
  enc.Ts(data.version_gc_floor);
  enc.U32(static_cast<uint32_t>(data.mset_log.size()));
  for (const store::MsetLog::RecordSnapshot& record : data.mset_log) {
    enc.I64(record.mset_id);
    enc.U32(static_cast<uint32_t>(record.ops.size()));
    for (const store::Operation& op : record.ops) enc.Op(op);
    enc.U32(static_cast<uint32_t>(record.before_images.size()));
    for (const auto& [object, value] : record.before_images) {
      enc.I64(object);
      enc.Val(value);
    }
  }
  enc.Str(data.method_blob);
  enc.Str(data.stability_blob);

  std::string out;
  wire::FrameAppend(out, enc.Take());
  return out;
}

bool DecodeCheckpoint(std::string_view bytes, CheckpointData* out) {
  size_t pos = 0;
  std::string_view payload;
  if (!wire::FrameNext(bytes, &pos, &payload)) return false;
  Decoder dec(payload);
  if (dec.U32() != kCheckpointMagic) return false;
  const uint32_t version = dec.U32();
  if (version < 1 || version > kCheckpointVersion) return false;
  CheckpointData data;
  data.last_lsn = dec.I64();
  data.clock_counter = dec.I64();
  data.order_watermark = dec.I64();
  if (version >= 2) {
    data.seq_next = dec.I64();
    data.seq_epoch = dec.I64();
  }
  uint32_t n = dec.U32();
  for (uint32_t i = 0; i < n && dec.ok(); ++i) data.applied.push_back(dec.Ts());
  if (version >= 3) {
    n = dec.U32();
    for (uint32_t i = 0; i < n && dec.ok(); ++i) {
      const ShardId shard = static_cast<ShardId>(dec.U32());
      const SequenceNumber wm = dec.I64();
      data.shard_watermarks.emplace_back(shard, wm);
    }
  }
  if (version >= 4) {
    n = dec.U32();
    for (uint32_t i = 0; i < n && dec.ok(); ++i) {
      const ShardId shard = static_cast<ShardId>(dec.U32());
      const SequenceNumber next = dec.I64();
      const int64_t epoch = dec.I64();
      data.shard_seq_floors.emplace_back(shard, next, epoch);
    }
  }
  n = dec.U32();
  for (uint32_t i = 0; i < n && dec.ok(); ++i) {
    ObjectId object = dec.I64();
    Value value = dec.Val();
    LamportTimestamp write_ts = dec.Ts();
    data.store_entries.emplace_back(object, std::move(value), write_ts);
  }
  n = dec.U32();
  for (uint32_t i = 0; i < n && dec.ok(); ++i) {
    ObjectId object = dec.I64();
    LamportTimestamp ts = dec.Ts();
    Value value = dec.Val();
    data.versions.emplace_back(object, ts, std::move(value));
  }
  if (version >= 5) data.version_gc_floor = dec.Ts();
  n = dec.U32();
  for (uint32_t i = 0; i < n && dec.ok(); ++i) {
    store::MsetLog::RecordSnapshot record;
    record.mset_id = dec.I64();
    uint32_t ops = dec.U32();
    for (uint32_t k = 0; k < ops && dec.ok(); ++k) {
      record.ops.push_back(dec.Op());
    }
    uint32_t images = dec.U32();
    for (uint32_t k = 0; k < images && dec.ok(); ++k) {
      ObjectId object = dec.I64();
      Value value = dec.Val();
      record.before_images.emplace_back(object, std::move(value));
    }
    data.mset_log.push_back(std::move(record));
  }
  data.method_blob = dec.Str();
  data.stability_blob = dec.Str();
  if (!dec.ok()) return false;
  *out = std::move(data);
  return true;
}

}  // namespace esr::recovery
