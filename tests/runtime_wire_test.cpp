// The runtime's wire encodings under hostile input, and their byte budget:
//
//   * wire::Encoder::Varint / Decoder::Varint at the edges of the LEB128
//     range, and the three ways a varint can be malformed (truncated, more
//     than 10 bytes, a 10th byte above 1) or too wide for its field
//   * a seeded loop over every runtime encoding built on the varint — the
//     TcpTransport message envelope, the five sequencer messages, and
//     OrdupNode's position payloads (apply ack, watermark gossip). Each
//     encoding is decoded at every truncation and after 1,000 random bit
//     flips from a heap buffer of exactly its size, so an over-read is an
//     AddressSanitizer report (tier 2 runs this suite under ASan+UBSan)
//   * the exact frame size of the four messages an update costs most of:
//     an MSet with one increment, an apply ack, a sequencer request and a
//     grant, with ids the size a booted daemon's are

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/wire.h"
#include "esr/mset.h"
#include "msg/mailbox.h"
#include "msg/sequencer_wire.h"
#include "recovery/codec.h"
#include "runtime/ordup_node.h"
#include "runtime/tcp_transport.h"

namespace esr::runtime {
namespace {

std::string Varint(uint64_t v) {
  wire::Encoder e;
  e.Varint(v);
  return e.Take();
}

TEST(VarintTest, RoundTripsAtTheEdgesOfTheRange) {
  struct Case {
    uint64_t value;
    size_t bytes;
  };
  const Case cases[] = {
      {0, 1},
      {127, 1},
      {128, 2},
      {uint64_t{UINT32_MAX}, 5},
      {static_cast<uint64_t>(int64_t{-1}), 10},
      {static_cast<uint64_t>(INT64_MAX), 9},
      {static_cast<uint64_t>(INT64_MIN), 10},
  };
  for (const Case& c : cases) {
    const std::string bytes = Varint(c.value);
    EXPECT_EQ(bytes.size(), c.bytes) << c.value;
    wire::Decoder d(bytes);
    EXPECT_EQ(d.Varint(), c.value);
    EXPECT_TRUE(d.ok()) << c.value;
    EXPECT_TRUE(d.AtEnd()) << c.value;
  }
  EXPECT_EQ(Varint(128), std::string("\x80\x01", 2));
  EXPECT_EQ(Varint(UINT64_MAX),
            std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", 10));
}

TEST(VarintTest, MalformedVarintsLatchFailure) {
  const std::string malformed[] = {
      std::string(),                                 // empty
      std::string("\x80", 1),                        // truncated
      std::string("\xff\xff\xff", 3),                // truncated, longer
      std::string(10, '\x80') + std::string(1, 0),   // 11 bytes
      std::string(9, '\xff') + std::string("\x02"),  // 10th byte above 1
      std::string(9, '\xff') + std::string("\x81"),  // 10th byte continues
  };
  for (const std::string& bytes : malformed) {
    wire::Decoder d(bytes);
    EXPECT_EQ(d.Varint(), 0u);
    EXPECT_FALSE(d.ok()) << "a " << bytes.size() << "-byte input";
    // The failure is latched: later reads stay failed.
    EXPECT_EQ(d.U8(), 0u);
    EXPECT_FALSE(d.ok());
  }
}

TEST(VarintTest, ValueAboveTheFieldWidthFails) {
  const std::string widest = Varint(UINT32_MAX);
  wire::Decoder fits(widest);
  EXPECT_EQ(fits.Varint(UINT32_MAX), uint64_t{UINT32_MAX});
  EXPECT_TRUE(fits.ok());

  const std::string wider = Varint(uint64_t{UINT32_MAX} + 1);
  wire::Decoder overflow(wider);
  EXPECT_EQ(overflow.Varint(UINT32_MAX), 0u);
  EXPECT_FALSE(overflow.ok());
}

/// One encoding under test: its bytes, and a decoder that reports whether
/// they decoded. `whole_prefix` is the shortest prefix that still decodes
/// (the envelope's body is the rest of the frame, so any prefix past its
/// fields decodes; every other encoding needs all of its bytes).
struct Target {
  std::string name;
  std::string bytes;
  std::function<bool(std::string_view)> decodes;
  size_t whole_prefix;
};

/// Decodes `bytes` from a heap buffer of exactly their size, so reading
/// one byte past the end trips AddressSanitizer.
bool DecodeExact(const Target& t, const std::string& bytes) {
  std::unique_ptr<char[]> buf(new char[bytes.size()]);
  if (!bytes.empty()) std::memcpy(buf.get(), bytes.data(), bytes.size());
  return t.decodes(std::string_view(buf.get(), bytes.size()));
}

/// The frame payload (FrameRead's output) of EncodeMessageFrame(msg).
std::string EnvelopeOf(const Message& msg) {
  const std::string frame = EncodeMessageFrame(msg);
  size_t pos = 0;
  std::string_view payload;
  EXPECT_EQ(wire::FrameRead(frame, &pos, &payload), wire::FrameResult::kFrame);
  return std::string(payload);
}

std::vector<Target> Targets() {
  constexpr int64_t kBootUs = 1'760'000'000'000'000;
  std::vector<Target> targets;
  // `body` is how many trailing bytes any prefix may lose and still decode.
  auto add = [&](std::string name, std::string bytes, auto decode,
                 size_t body = 0) {
    const size_t whole_prefix = bytes.size() - body;
    targets.push_back(Target{std::move(name), std::move(bytes),
                             [decode](std::string_view b) {
                               return static_cast<bool>(decode(b));
                             },
                             whole_prefix});
  };
  auto envelope = [](std::string_view b) {
    Message out;
    return DecodeMessageFrame(b, &out);
  };
  const std::string body = "an mset body";
  add("envelope",
      EnvelopeOf(Message{core::kMsetMsg, body,
                         TraceContext{kBootUs * 3 + 1, 0, 0, core::kMsetMsg}}),
      envelope, body.size());
  // Every field at a width that needs its varint's continuation bytes.
  add("wide envelope",
      EnvelopeOf(Message{-1, body, TraceContext{-7, -1, -1, -1}}), envelope,
      body.size());
  add("request",
      msg::EncodeSeqBatchRequest(
          msg::SeqBatchRequest{kBootUs + 5, 3, 2, TraceContext{}, kBootUs}),
      msg::DecodeSeqBatchRequest);
  add("grant",
      msg::EncodeSeqBatchGrant(msg::SeqBatchGrant{kBootUs + 5, 123'456, 3, 2}),
      msg::DecodeSeqBatchGrant);
  add("probe", msg::EncodeSeqProbeRequest(msg::SeqProbeRequest{kBootUs, 2}),
      msg::DecodeSeqProbeRequest);
  add("probe answer",
      msg::EncodeSeqProbeResponse(
          msg::SeqProbeResponse{kBootUs, 1, 123'456, 4}),
      msg::DecodeSeqProbeResponse);
  add("announce",
      msg::EncodeSeqEpochAnnounce(msg::SeqEpochAnnounce{4, 1, 123'457}),
      msg::DecodeSeqEpochAnnounce);
  add("ack", EncodePositions({123'456}), [](std::string_view b) {
    SequenceNumber applied = 0;
    return DecodePositions(b, {&applied});
  });
  add("watermark", EncodePositions({123'456, 120'000}),
      [](std::string_view b) {
        SequenceNumber applied = 0;
        SequenceNumber echo = 0;
        return DecodePositions(b, {&applied, &echo});
      });
  return targets;
}

TEST(WireFuzzTest, EveryTruncationFailsCleanlyOrDecodesAPrefix) {
  for (const Target& t : Targets()) {
    ASSERT_TRUE(DecodeExact(t, t.bytes)) << t.name;
    for (size_t len = 0; len < t.bytes.size(); ++len) {
      EXPECT_EQ(DecodeExact(t, t.bytes.substr(0, len)), len >= t.whole_prefix)
          << t.name << " cut to " << len << " of " << t.bytes.size()
          << " bytes";
    }
  }
}

TEST(WireFuzzTest, BitFlipsNeverOverRead) {
  std::mt19937_64 rng(20261019);
  for (const Target& t : Targets()) {
    int decoded = 0;
    for (int i = 0; i < 1000; ++i) {
      std::string bytes = t.bytes;
      // One to three flipped bits per mutation.
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        const size_t bit = rng() % (bytes.size() * 8);
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      }
      if (DecodeExact(t, bytes)) ++decoded;
    }
    // Some flips land in bytes any value fits (ids, bodies): the loop must
    // see both outcomes, or it is not exercising the decoder.
    EXPECT_GT(decoded, 0) << t.name;
    EXPECT_LT(decoded, 1000) << t.name;
  }
}

TEST(WireFuzzTest, EnvelopeRoundTripsEveryTraceField) {
  Message msg;
  msg.type = -1;
  msg.payload = std::string("\0body\xff", 6);
  msg.trace = TraceContext{INT64_MIN, INT64_MAX, -1, INT32_MIN};
  const std::string envelope = EnvelopeOf(msg);
  Message out;
  ASSERT_TRUE(DecodeMessageFrame(envelope, &out));
  EXPECT_EQ(out.type, msg.type);
  EXPECT_EQ(out.payload, msg.payload);
  EXPECT_EQ(out.trace.et, msg.trace.et);
  EXPECT_EQ(out.trace.parent_span, msg.trace.parent_span);
  EXPECT_EQ(out.trace.origin, msg.trace.origin);
  EXPECT_EQ(out.trace.msg_type, msg.trace.msg_type);
}

TEST(ByteBudgetTest, FrameSizesOfAnUpdatesMessages) {
  // A daemon's ids start at its boot time in µs (OrdupNodeConfig::
  // incarnation), so they need all 8 bytes of their fixed fields; the
  // positions, counts and epochs of a cluster a few minutes old are small.
  constexpr int64_t kIncarnation = 1'760'000'000'000'000;
  constexpr SiteId kSelf = 1;
  constexpr int kSites = 3;
  const EtId et = kIncarnation * kSites + kSelf + 1;
  const SequenceNumber position = 100'000;  // a 3-byte varint
  auto frame = [&](int type, std::string payload) {
    Message msg;
    msg.type = type;
    msg.payload = std::move(payload);
    msg.trace = TraceContext{et, 0, kSelf, type};  // as OrdupNode::SendTo
    return EncodeMessageFrame(msg).size();
  };

  // [u32 len][u32 crc], U8 kind, varint type, I64 et, and one byte each
  // for parent span, origin and message type: 21 B (41 B before the
  // envelope took varints and dropped the body's length prefix).
  EXPECT_EQ(frame(core::kApplyAckMsg, ""), 21u);

  core::Mset mset;
  mset.et = et;
  mset.origin = kSelf;
  mset.global_order = position;
  mset.timestamp = LamportTimestamp{position, kSelf};
  mset.operations = {store::Operation::Increment(7, 1)};
  recovery::Encoder mset_payload;
  mset_payload.MsetRec(mset);
  // The MSet record is the WAL's, unchanged; only the envelope shrank.
  EXPECT_EQ(mset_payload.bytes().size(), 79u);
  EXPECT_EQ(frame(core::kMsetMsg, mset_payload.Take()), 100u);  // was 120

  // The ack's applied watermark: 3 bytes, was an 8-byte I64.
  EXPECT_EQ(frame(core::kApplyAckMsg, EncodePositions({position})),
            24u);  // was 49

  // request_id and incarnation stay 8 bytes each; count and epoch take
  // one byte each, and the request no longer repeats the envelope's trace.
  const msg::SeqBatchRequest request{kIncarnation + 17, 1, 2,
                                     TraceContext{et, 0, kSelf, 3},
                                     kIncarnation};
  EXPECT_EQ(frame(msg::kSeqRequest, msg::EncodeSeqBatchRequest(request)),
            39u);  // was 93

  const msg::SeqBatchGrant grant{kIncarnation + 17, position, 1, 2};
  EXPECT_EQ(frame(msg::kSeqResponse, msg::EncodeSeqBatchGrant(grant)),
            34u);  // was 69
}

}  // namespace
}  // namespace esr::runtime
