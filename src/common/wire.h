#ifndef ESR_COMMON_WIRE_H_
#define ESR_COMMON_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.h"

namespace esr::wire {

/// CRC-32 (IEEE, reflected) over `bytes`. Software table implementation —
/// deterministic across platforms.
uint32_t Crc32(std::string_view bytes);

/// Little-endian append-only byte encoder — the primitive layer shared by
/// the recovery WAL/checkpoint codec and the runtime wire protocol. Framing
/// and record semantics live above it.
class Encoder {
 public:
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  /// Unsigned LEB128: seven bits per byte, low group first, the high bit
  /// set on every byte but the last (1 byte below 128, 10 for a u64 above
  /// 2^63). A signed field passes through its unsigned cast, so a negative
  /// value costs the full width.
  void Varint(uint64_t v);
  /// A 32-bit field (a count, a site or shard id) as the varint of its
  /// unsigned cast: 1 byte below 128, 5 for -1, and it round-trips.
  void Varint32(int32_t v) { Varint(static_cast<uint32_t>(v)); }
  /// A signed field that may sit on either side of zero (an object id, an
  /// operand, a Lamport counter): zigzag-mapped (0, -1, 1, -2, ... to
  /// 0, 1, 2, 3, ...), then a varint, so a small negative value is short.
  void Zigzag(int64_t v);
  /// Varint length, then the bytes.
  void Str(std::string_view s);
  /// Zigzag counter, then Varint32 site.
  void Ts(const LamportTimestamp& ts);
  void Raw(std::string_view bytes) { out_.append(bytes); }

  std::string Take() { return std::move(out_); }
  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

/// Matching decoder. On malformed input it latches `ok() == false` and every
/// subsequent getter returns a default value; callers check ok() once at the
/// end rather than after each field.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : in_(bytes) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  /// Reads one LEB128 varint. Fails (returning 0) on a truncated varint, on
  /// one longer than 10 bytes or above 2^64-1, and on a value above `max`,
  /// the field's width (UINT32_MAX for a 32-bit field).
  uint64_t Varint(uint64_t max = UINT64_MAX);
  /// Reads Encoder::Varint32's field; fails above 2^32-1.
  int32_t Varint32() {
    return static_cast<int32_t>(static_cast<uint32_t>(Varint(UINT32_MAX)));
  }
  int64_t Zigzag();
  std::string Str();
  LamportTimestamp Ts();

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ >= in_.size(); }
  /// Bytes left to decode (0 once the input is exhausted or corrupt).
  size_t Remaining() const { return ok_ ? in_.size() - pos_ : 0; }

 protected:
  bool Need(size_t n);
  /// Latch the decoder into the failed state (for derived decoders whose
  /// composite records detect semantic corruption, e.g. ballooned counts).
  void Fail() { ok_ = false; }

 private:
  std::string_view in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Appends one length- and CRC-framed record to `out`:
/// [u32 payload_len][u32 crc32(payload)][payload].
void FrameAppend(std::string& out, std::string_view payload);

/// Outcome of reading one framed record.
enum class FrameResult {
  /// A whole record with a matching CRC; `*payload` and `*pos` are set.
  kFrame,
  /// End of input, a short header or a short payload: more bytes may
  /// still complete the record.
  kIncomplete,
  /// CRC mismatch, or a length prefix above the reader's limit: no further
  /// input can make this record valid.
  kCorrupt,
};

/// Reads the next framed record starting at `*pos`, advancing `*pos` past
/// it on kFrame. A length prefix above `max_payload` is kCorrupt before any
/// payload is buffered. Stream readers (the TCP transport) wait for more
/// bytes on kIncomplete and drop the connection on kCorrupt.
FrameResult FrameRead(std::string_view in, size_t* pos,
                      std::string_view* payload,
                      size_t max_payload = SIZE_MAX);

/// The WAL-reader contract over FrameRead: true only for a whole valid
/// record, so a reader stops at the first record that was not durably
/// written, torn and corrupt alike.
inline bool FrameNext(std::string_view in, size_t* pos,
                      std::string_view* payload) {
  return FrameRead(in, pos, payload) == FrameResult::kFrame;
}

}  // namespace esr::wire

#endif  // ESR_COMMON_WIRE_H_
