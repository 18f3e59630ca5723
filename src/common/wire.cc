#include "common/wire.h"

#include <array>

namespace esr::wire {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char ch : bytes) {
    crc = kTable[(crc ^ ch) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void Encoder::U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

void Encoder::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Encoder::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void Encoder::Varint(uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
}

void Encoder::Zigzag(int64_t v) {
  const auto u = static_cast<uint64_t>(v);
  Varint((u << 1) ^ (v < 0 ? UINT64_MAX : 0));
}

void Encoder::Str(std::string_view s) {
  Varint(s.size());
  out_.append(s);
}

void Encoder::Ts(const LamportTimestamp& ts) {
  Zigzag(ts.counter);
  Varint32(ts.site);
}

bool Decoder::Need(size_t n) {
  if (!ok_ || in_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t Decoder::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(in_[pos_++]);
}

uint32_t Decoder::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(in_[pos_++]))
         << (8 * i);
  }
  return v;
}

uint64_t Decoder::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(in_[pos_++]))
         << (8 * i);
  }
  return v;
}

uint64_t Decoder::Varint(uint64_t max) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (!Need(1)) return 0;
    const auto byte = static_cast<unsigned char>(in_[pos_++]);
    // The 10th byte holds bit 63 alone: anything above 1 overflows.
    if (shift == 63 && byte > 1) break;
    v |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      if (v > max) break;
      return v;
    }
  }
  ok_ = false;
  return 0;
}

int64_t Decoder::Zigzag() {
  const uint64_t u = Varint();
  return static_cast<int64_t>((u >> 1) ^ (0 - (u & 1)));
}

std::string Decoder::Str() {
  const uint64_t len = Varint();
  if (!Need(len)) return {};
  std::string s(in_.substr(pos_, len));
  pos_ += len;
  return s;
}

LamportTimestamp Decoder::Ts() {
  LamportTimestamp ts;
  ts.counter = Zigzag();
  ts.site = Varint32();
  return ts;
}

void FrameAppend(std::string& out, std::string_view payload) {
  Encoder header;
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U32(Crc32(payload));
  out.append(header.bytes());
  out.append(payload);
}

FrameResult FrameRead(std::string_view in, size_t* pos,
                      std::string_view* payload, size_t max_payload) {
  if (in.size() - *pos < 8) return FrameResult::kIncomplete;
  Decoder header(in.substr(*pos, 8));
  uint32_t len = header.U32();
  uint32_t crc = header.U32();
  if (len > max_payload) return FrameResult::kCorrupt;
  if (in.size() - *pos - 8 < len) return FrameResult::kIncomplete;  // torn
  std::string_view body = in.substr(*pos + 8, len);
  if (Crc32(body) != crc) return FrameResult::kCorrupt;
  *payload = body;
  *pos += 8 + len;
  return FrameResult::kFrame;
}

}  // namespace esr::wire
