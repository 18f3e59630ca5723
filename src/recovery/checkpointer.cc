#include "recovery/checkpointer.h"

#include "recovery/codec.h"

namespace esr::recovery {

namespace {

constexpr uint32_t kCheckpointMagic = 0x45535243u;  // "ESRC"

}  // namespace

std::string EncodeCheckpoint(const CheckpointData& data) {
  Encoder enc;
  // Each list is its length, then its items. Positions, LSNs, epochs and
  // counts are non-negative varints; object ids and the clock zigzag ones.
  auto list = [&enc](const auto& items, auto put) {
    enc.Varint(items.size());
    for (const auto& item : items) put(item);
  };
  auto position = [&enc](int64_t v) { enc.Varint(static_cast<uint64_t>(v)); };
  auto ts = [&enc](const LamportTimestamp& t) { enc.Ts(t); };
  auto et = [&enc](EtId id) { enc.I64(id); };
  auto site = [&enc](SiteId s) { enc.Varint32(s); };

  enc.U32(kCheckpointMagic);
  enc.U32(kFormatVersion);
  position(data.last_lsn);
  enc.Zigzag(data.clock_counter);
  position(data.cut.order_watermark);
  list(data.cut.applied, ts);
  list(data.cut.shard_watermarks, [&](const auto& entry) {
    enc.Varint32(entry.first);
    position(entry.second);
  });
  list(data.seq_floors, [&](const auto& floor) {
    const auto& [service, next, epoch] = floor;
    enc.Varint32(service);
    position(next);
    position(epoch);
  });
  list(data.store_entries, [&enc](const auto& entry) {
    const auto& [object, value, write_ts] = entry;
    enc.Zigzag(object);
    enc.Val(value);
    enc.Ts(write_ts);
  });
  list(data.versions, [&enc](const auto& version) {
    const auto& [object, version_ts, value] = version;
    enc.Zigzag(object);
    enc.Ts(version_ts);
    enc.Val(value);
  });
  enc.Ts(data.version_gc_floor);
  list(data.mset_log, [&](const store::MsetLog::RecordSnapshot& record) {
    enc.I64(record.mset_id);
    list(record.ops, [&enc](const store::Operation& op) { enc.Op(op); });
    list(record.before_images, [&enc](const auto& image) {
      enc.Zigzag(image.first);
      enc.Val(image.second);
    });
  });
  position(data.apply_count);
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
  // Another version is refused like a torn checkpoint: recovery falls back
  // to WAL replay plus catch-up.
  if (dec.U32() != kFormatVersion) return false;
  // Reads a length, then that many items; stops early once the decoder
  // latches a failure.
  auto list = [&dec](auto& items, auto get) {
    for (uint64_t i = 0, n = dec.Varint(); i < n && dec.ok(); ++i) {
      items.insert(items.end(), get());
    }
  };
  auto position = [&dec] { return static_cast<int64_t>(dec.Varint()); };
  auto ts = [&dec] { return dec.Ts(); };
  auto et = [&dec]() -> EtId { return dec.I64(); };
  auto site = [&dec]() -> SiteId { return dec.Varint32(); };

  CheckpointData data;
  data.last_lsn = position();
  data.clock_counter = dec.Zigzag();
  data.cut.order_watermark = position();
  list(data.cut.applied, ts);
  list(data.cut.shard_watermarks, [&] {
    const ShardId shard = dec.Varint32();
    return std::make_pair(shard, position());
  });
  list(data.seq_floors, [&] {
    const ShardId service = dec.Varint32();
    const SequenceNumber next = position();
    return std::make_tuple(service, next, position());
  });
  list(data.store_entries, [&dec] {
    const ObjectId object = dec.Zigzag();
    Value value = dec.Val();
    return std::make_tuple(object, std::move(value), dec.Ts());
  });
  list(data.versions, [&dec] {
    const ObjectId object = dec.Zigzag();
    const LamportTimestamp version_ts = dec.Ts();
    return std::make_tuple(object, version_ts, dec.Val());
  });
  data.version_gc_floor = dec.Ts();
  list(data.mset_log, [&] {
    store::MsetLog::RecordSnapshot record;
    record.mset_id = dec.I64();
    list(record.ops, [&dec] { return dec.Op(); });
    list(record.before_images, [&dec] {
      const ObjectId object = dec.Zigzag();
      return std::make_pair(object, dec.Val());
    });
    return record;
  });
  data.apply_count = position();
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
  if (!dec.ok() || !dec.AtEnd()) return false;
  *out = std::move(data);
  return true;
}

}  // namespace esr::recovery
