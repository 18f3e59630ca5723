#include "recovery/codec.h"

namespace esr::recovery {

namespace {

// A Value's tag byte.
constexpr uint8_t kIntValue = 0;
constexpr uint8_t kStringValue = 1;

// The fewest bytes an encoded operation or shard position can take: kind,
// object, operand, value tag, value and a two-field timestamp at one byte
// each; a shard id and a position at one byte each.
constexpr size_t kMinOpBytes = 7;
constexpr size_t kMinShardPositionBytes = 2;

}  // namespace

void Encoder::Val(const Value& v) {
  if (v.is_int()) {
    U8(kIntValue);
    Zigzag(v.AsInt());
  } else {
    U8(kStringValue);
    Str(v.AsString());
  }
}

void Encoder::Op(const store::Operation& op) {
  U8(static_cast<uint8_t>(op.kind));
  Zigzag(op.object);
  Zigzag(op.operand);
  Val(op.value);
  Ts(op.timestamp);
}

void Encoder::MsetRec(const core::Mset& mset) {
  I64(mset.et);
  Varint32(mset.origin);
  Varint(static_cast<uint64_t>(mset.global_order));
  Ts(mset.timestamp);
  U8(mset.tentative ? 1 : 0);
  Varint(mset.operations.size());
  for (const store::Operation& op : mset.operations) Op(op);
  Varint(mset.shard_positions.size());
  for (const auto& [shard, pos] : mset.shard_positions) {
    Varint32(shard);
    Varint(static_cast<uint64_t>(pos));
  }
}

Value Decoder::Val() {
  switch (U8()) {
    case kIntValue:
      return Value(Zigzag());
    case kStringValue:
      return Value(Str());
    default:
      Fail();
      return Value();
  }
}

store::Operation Decoder::Op() {
  store::Operation op;
  const uint8_t kind = U8();
  if (kind > static_cast<uint8_t>(store::OpKind::kTimestampedWrite)) {
    Fail();
    return op;
  }
  op.kind = static_cast<store::OpKind>(kind);
  op.object = Zigzag();
  op.operand = Zigzag();
  op.value = Val();
  op.timestamp = Ts();
  return op;
}

core::Mset Decoder::MsetRec() {
  core::Mset mset;
  mset.et = I64();
  mset.origin = Varint32();
  mset.global_order = static_cast<SequenceNumber>(Varint());
  mset.timestamp = Ts();
  const uint8_t tentative = U8();
  if (tentative > 1) Fail();
  mset.tentative = tentative == 1;
  // Bound each count by the input left, so a corrupt count cannot balloon
  // the vector: every operation occupies at least kMinOpBytes.
  const uint64_t n = Varint();
  if (!ok() || n > Remaining() / kMinOpBytes) {
    Fail();
    return mset;
  }
  mset.operations.reserve(n);
  for (uint64_t i = 0; i < n && ok(); ++i) mset.operations.push_back(Op());
  const uint64_t ns = Varint();
  if (!ok() || ns > Remaining() / kMinShardPositionBytes) {
    Fail();
    return mset;
  }
  mset.shard_positions.reserve(ns);
  for (uint64_t i = 0; i < ns && ok(); ++i) {
    const ShardId shard = Varint32();
    const auto pos = static_cast<SequenceNumber>(Varint());
    mset.shard_positions.emplace_back(shard, pos);
  }
  return mset;
}

}  // namespace esr::recovery
