#include "recovery/checkpointer.h"

#include "recovery/codec.h"

namespace esr::recovery {

namespace {

constexpr uint32_t kCheckpointMagic = 0x45535243u;  // "ESRC"
/// Only this version decodes. A checkpoint of any other version is
/// rejected like a torn one, and recovery falls back to WAL replay plus
/// catch-up; nothing reads a checkpoint written by another build.
constexpr uint32_t kCheckpointVersion = 6;

}  // namespace

std::string EncodeCheckpoint(const CheckpointData& data) {
  Encoder enc;
  // Each list is its length, then its items.
  auto list = [&enc](const auto& items, auto put) {
    enc.U32(static_cast<uint32_t>(items.size()));
    for (const auto& item : items) put(item);
  };
  auto ts = [&enc](const LamportTimestamp& t) { enc.Ts(t); };
  auto et = [&enc](EtId id) { enc.I64(id); };
  auto site = [&enc](SiteId s) { enc.U32(static_cast<uint32_t>(s)); };

  enc.U32(kCheckpointMagic);
  enc.U32(kCheckpointVersion);
  enc.I64(data.last_lsn);
  enc.I64(data.clock_counter);
  enc.I64(data.cut.order_watermark);
  list(data.cut.applied, ts);
  list(data.cut.shard_watermarks, [&enc](const auto& entry) {
    enc.U32(static_cast<uint32_t>(entry.first));
    enc.I64(entry.second);
  });
  list(data.seq_floors, [&enc](const auto& floor) {
    const auto& [service, next, epoch] = floor;
    enc.U32(static_cast<uint32_t>(service));
    enc.I64(next);
    enc.I64(epoch);
  });
  list(data.store_entries, [&enc](const auto& entry) {
    const auto& [object, value, write_ts] = entry;
    enc.I64(object);
    enc.Val(value);
    enc.Ts(write_ts);
  });
  list(data.versions, [&enc](const auto& version) {
    const auto& [object, version_ts, value] = version;
    enc.I64(object);
    enc.Ts(version_ts);
    enc.Val(value);
  });
  enc.Ts(data.version_gc_floor);
  list(data.mset_log, [&](const store::MsetLog::RecordSnapshot& record) {
    enc.I64(record.mset_id);
    list(record.ops, [&enc](const store::Operation& op) { enc.Op(op); });
    list(record.before_images, [&enc](const auto& image) {
      enc.I64(image.first);
      enc.Val(image.second);
    });
  });
  enc.I64(data.apply_count);
  list(data.decided_commit, et);
  list(data.abort_before_apply, et);
  const StabilitySnapshot& stability = data.stability;
  list(stability.outstanding, [&enc](const auto& entry) {
    enc.I64(entry.first);
    enc.Ts(entry.second);
  });
  list(stability.stable, et);
  list(stability.outgoing, [&](const auto& entry) {
    enc.I64(entry.first);
    enc.Ts(entry.second.ts);
    list(entry.second.replicas, site);
    list(entry.second.acks, site);
  });
  list(stability.watermark, ts);

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
  if (dec.U32() != kCheckpointVersion) return false;
  // Reads a length, then that many items; stops early once the decoder
  // latches a failure.
  auto list = [&dec](auto& items, auto get) {
    for (uint32_t i = 0, n = dec.U32(); i < n && dec.ok(); ++i) {
      items.insert(items.end(), get());
    }
  };
  auto ts = [&dec] { return dec.Ts(); };
  auto et = [&dec]() -> EtId { return dec.I64(); };
  auto site = [&dec] { return static_cast<SiteId>(dec.U32()); };

  CheckpointData data;
  data.last_lsn = dec.I64();
  data.clock_counter = dec.I64();
  data.cut.order_watermark = dec.I64();
  list(data.cut.applied, ts);
  list(data.cut.shard_watermarks, [&dec] {
    const ShardId shard = static_cast<ShardId>(dec.U32());
    return std::make_pair(shard, dec.I64());
  });
  list(data.seq_floors, [&dec] {
    const ShardId service = static_cast<ShardId>(dec.U32());
    const SequenceNumber next = dec.I64();
    return std::make_tuple(service, next, dec.I64());
  });
  list(data.store_entries, [&dec] {
    const ObjectId object = dec.I64();
    Value value = dec.Val();
    return std::make_tuple(object, std::move(value), dec.Ts());
  });
  list(data.versions, [&dec] {
    const ObjectId object = dec.I64();
    const LamportTimestamp version_ts = dec.Ts();
    return std::make_tuple(object, version_ts, dec.Val());
  });
  data.version_gc_floor = dec.Ts();
  list(data.mset_log, [&] {
    store::MsetLog::RecordSnapshot record;
    record.mset_id = dec.I64();
    list(record.ops, [&dec] { return dec.Op(); });
    list(record.before_images, [&dec] {
      const ObjectId object = dec.I64();
      return std::make_pair(object, dec.Val());
    });
    return record;
  });
  data.apply_count = dec.I64();
  list(data.decided_commit, et);
  list(data.abort_before_apply, et);
  StabilitySnapshot& stability = data.stability;
  list(stability.outstanding, [&dec] {
    const EtId id = dec.I64();
    return std::make_pair(id, dec.Ts());
  });
  list(stability.stable, et);
  list(stability.outgoing, [&] {
    const EtId id = dec.I64();
    OutgoingRecord record;
    record.ts = dec.Ts();
    list(record.replicas, site);
    list(record.acks, site);
    return std::make_pair(id, std::move(record));
  });
  list(stability.watermark, ts);
  if (!dec.ok()) return false;
  *out = std::move(data);
  return true;
}

}  // namespace esr::recovery
