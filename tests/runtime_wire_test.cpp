// The runtime's wire encodings under hostile input, and their byte budget:
//
//   * wire::Encoder::Varint / Decoder::Varint at the edges of the LEB128
//     range, and the three ways a varint can be malformed (truncated, more
//     than 10 bytes, a 10th byte above 1) or too wide for its field
//   * a seeded loop over every encoding built on the varint — the
//     TcpTransport message envelope, the five sequencer messages,
//     OrdupNode's position payloads (apply ack, watermark gossip), the MSet
//     record, the WAL records and the checkpoint. Each encoding is decoded
//     at every truncation and after 1,000 random bit flips from a heap
//     buffer of exactly its size, so an over-read is an AddressSanitizer
//     report (tier 2 runs this suite under ASan+UBSan)
//   * a WAL stream read back through Wal::ReadAll, truncated and
//     bit-flipped: it yields a prefix of the written records, never a
//     record that was not written
//   * round trips of the MSet record, a WAL record and a checkpoint with
//     every signed field at the edges of its range
//   * the exact frame size of the messages an update costs most of: an
//     MSet with one increment and one with 16, an apply ack, a sequencer
//     request and a grant, with ids the size a booted daemon's are

#include <gtest/gtest.h>

#include <algorithm>
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
#include "recovery/checkpointer.h"
#include "recovery/codec.h"
#include "recovery/storage.h"
#include "recovery/wal.h"
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
/// fields decodes; every other encoding needs all of its bytes). `framed`
/// bytes are a frame's payload: they are framed with a fresh CRC before
/// decoding, so a mutation reaches the decoder instead of the CRC check.
struct Target {
  std::string name;
  std::string bytes;
  std::function<bool(std::string_view)> decodes;
  size_t whole_prefix;
  bool framed = false;
};

/// Decodes `bytes` from a heap buffer of exactly their size, so reading
/// one byte past the end trips AddressSanitizer.
bool DecodeExact(const Target& t, const std::string& bytes) {
  std::string input;
  if (t.framed) {
    wire::FrameAppend(input, bytes);
  } else {
    input = bytes;
  }
  std::unique_ptr<char[]> buf(new char[input.size()]);
  if (!input.empty()) std::memcpy(buf.get(), input.data(), input.size());
  return t.decodes(std::string_view(buf.get(), input.size()));
}

constexpr int64_t kBootUs = 1'760'000'000'000'000;

/// An MSet as a booted daemon's origin 1 sends it: a boot-µs ET id and a
/// 3-byte position and Lamport counter, incrementing `objects` by 1 each.
core::Mset DaemonMset(const std::vector<ObjectId>& objects) {
  constexpr SiteId kSelf = 1;
  constexpr SequenceNumber kPosition = 100'000;
  core::Mset mset;
  mset.et = kBootUs * 3 + kSelf + 1;
  mset.origin = kSelf;
  mset.global_order = kPosition;
  mset.timestamp = LamportTimestamp{kPosition, kSelf};
  for (ObjectId object : objects) {
    mset.operations.push_back(store::Operation::Increment(object, 1));
  }
  return mset;
}

/// A store_wide update's 16 keys: the first 16 Zipf(0.99) draws over 1M
/// objects of perfbench's KeyGen at seed 7 (34 zigzag bytes in all; 200k
/// draws average 2.0 bytes a key).
const std::vector<ObjectId> kWideKeys = {
    33'213, 499'885, 3,      226'709, 4,  1,  99'359, 256'028,
    24,     19'830,  33'856, 3'480,   190, 51, 98'869, 47};

std::string MsetBytes(const core::Mset& mset) {
  recovery::Encoder e;
  e.MsetRec(mset);
  return e.Take();
}

bool MsetDecodes(std::string_view b) {
  recovery::Decoder d(b);
  d.MsetRec();
  return d.ok() && d.AtEnd();
}

recovery::WalRecord MsetRecord(int64_t lsn, core::Mset mset) {
  recovery::WalRecord record;
  record.type = recovery::WalRecordType::kMset;
  record.lsn = lsn;
  record.mset = std::move(mset);
  return record;
}

/// One record of each type, as a site's WAL holds them.
std::vector<recovery::WalRecord> WalRecords() {
  std::vector<recovery::WalRecord> records;
  records.push_back(MsetRecord(1, DaemonMset({7})));
  recovery::WalRecord decision;
  decision.type = recovery::WalRecordType::kDecision;
  decision.lsn = 2;
  decision.et = kBootUs + 9;
  decision.commit = true;
  records.push_back(decision);
  recovery::WalRecord ack;
  ack.type = recovery::WalRecordType::kAck;
  ack.lsn = 3;
  ack.et = kBootUs + 9;
  ack.replica = 2;
  records.push_back(ack);
  recovery::WalRecord stable;
  stable.type = recovery::WalRecordType::kStable;
  stable.lsn = 4;
  stable.et = kBootUs + 9;
  stable.ts = LamportTimestamp{100'001, 2};
  records.push_back(stable);
  records.push_back(MsetRecord(5, DaemonMset(kWideKeys)));
  return records;
}

/// A checkpoint with every list non-empty.
recovery::CheckpointData SampleCheckpoint() {
  recovery::CheckpointData data;
  data.last_lsn = 1'234;
  data.clock_counter = 100'002;
  data.cut.order_watermark = 100'000;
  data.cut.applied = {LamportTimestamp{99'990, 0}, LamportTimestamp{3, 1}};
  data.cut.shard_watermarks = {{0, 500}, {3, INT64_MAX}};
  data.seq_floors = {{-1, 100'001, 2}, {3, 501, 1}};
  data.store_entries.emplace_back(7, Value(int64_t{-12}),
                                  LamportTimestamp{99'000, 2});
  data.store_entries.emplace_back(8, Value(std::string("seat 14C")),
                                  LamportTimestamp{99'001, 1});
  data.versions.emplace_back(7, LamportTimestamp{98'000, 0},
                             Value(int64_t{5}));
  data.version_gc_floor = LamportTimestamp{97'000, 0};
  store::MsetLog::RecordSnapshot rec;
  rec.mset_id = kBootUs + 4;
  rec.ops = {store::Operation::Increment(7, -3)};
  rec.before_images.emplace_back(7, Value(int64_t{-9}));
  data.mset_log.push_back(rec);
  data.apply_count = 100'000;
  data.decided_commit = {kBootUs + 1};
  data.abort_before_apply = {kBootUs + 2};
  data.stability.outstanding = {{kBootUs + 5, LamportTimestamp{99'999, 1}}};
  data.stability.stable = {kBootUs + 3};
  recovery::OutgoingRecord outgoing;
  outgoing.ts = LamportTimestamp{99'999, 1};
  outgoing.replicas = {0, 1, 2};
  outgoing.acks = {1};
  data.stability.outgoing = {{kBootUs + 5, outgoing}};
  data.stability.watermark = {LamportTimestamp{99'990, 0},
                              LamportTimestamp{99'999, 1}};
  return data;
}

/// The payload inside EncodeCheckpoint's frame.
std::string CheckpointPayload(const recovery::CheckpointData& data) {
  const std::string framed = recovery::EncodeCheckpoint(data);
  size_t pos = 0;
  std::string_view payload;
  EXPECT_TRUE(wire::FrameNext(framed, &pos, &payload));
  return std::string(payload);
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
  std::vector<Target> targets;
  // `body` is how many trailing bytes any prefix may lose and still decode.
  auto add = [&](std::string name, std::string bytes, auto decode,
                 size_t body = 0, bool framed = false) {
    const size_t whole_prefix = bytes.size() - body;
    targets.push_back(Target{std::move(name), std::move(bytes),
                             [decode](std::string_view b) {
                               return static_cast<bool>(decode(b));
                             },
                             whole_prefix, framed});
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

  add("mset, one increment", MsetBytes(DaemonMset({7})), MsetDecodes);
  add("mset, 16 increments", MsetBytes(DaemonMset(kWideKeys)), MsetDecodes);
  core::Mset strings = DaemonMset({});
  strings.operations = {
      store::Operation::Write(3, Value(std::string("seat 14C"))),
      store::Operation::Append(4, "; paid"),
      store::Operation::TimestampedWrite(5, Value(int64_t{-2}),
                                         LamportTimestamp{100'000, 1})};
  add("mset, string values", MsetBytes(strings), MsetDecodes);
  core::Mset sharded = DaemonMset({7, 1'000});
  sharded.global_order = 0;
  sharded.tentative = true;
  sharded.shard_positions = {{0, 100'000}, {3, 7}};
  add("mset, shard positions", MsetBytes(sharded), MsetDecodes);

  for (const recovery::WalRecord& record : WalRecords()) {
    add("wal record " + std::to_string(record.lsn),
        recovery::EncodeWalRecord(record), [](std::string_view b) {
          recovery::WalRecord out;
          return recovery::DecodeWalRecord(b, &out);
        });
  }
  add("checkpoint", CheckpointPayload(SampleCheckpoint()),
      [](std::string_view b) {
        recovery::CheckpointData out;
        return recovery::DecodeCheckpoint(b, &out);
      },
      0, /*framed=*/true);
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

TEST(WireFuzzTest, WalStreamReadsBackOnlyRecordsThatWereWritten) {
  const std::vector<recovery::WalRecord> written = WalRecords();
  std::string stream;
  std::vector<size_t> frame_ends;
  for (const recovery::WalRecord& record : written) {
    wire::FrameAppend(stream, recovery::EncodeWalRecord(record));
    frame_ends.push_back(stream.size());
  }
  // `bytes` as a site's whole durable WAL, read back as a restart does.
  auto read = [](const std::string& bytes) {
    recovery::MemoryStorage storage;
    storage.AppendWal(0, bytes);
    recovery::RecoveryConfig config;
    config.enabled = true;
    recovery::Wal wal(nullptr, &storage, 0, config, nullptr);
    return wal.ReadAll();
  };
  // Every record read back is the one written at its place.
  auto expect_written_prefix =
      [&](const std::vector<recovery::WalRecord>& got) {
        ASSERT_LE(got.size(), written.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(recovery::EncodeWalRecord(got[i]),
                    recovery::EncodeWalRecord(written[i]))
              << "record " << i;
        }
      };

  expect_written_prefix(read(stream));
  EXPECT_EQ(read(stream).size(), written.size());
  for (size_t len = 0; len < stream.size(); ++len) {
    SCOPED_TRACE("cut to " + std::to_string(len));
    const std::vector<recovery::WalRecord> got = read(stream.substr(0, len));
    const auto whole = static_cast<size_t>(
        std::upper_bound(frame_ends.begin(), frame_ends.end(), len) -
        frame_ends.begin());
    EXPECT_EQ(got.size(), whole);
    expect_written_prefix(got);
  }
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 1000; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    std::string bytes = stream;
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      const size_t bit = rng() % (bytes.size() * 8);
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    }
    const std::vector<recovery::WalRecord> got = read(bytes);
    // The CRC stops the read at the first frame a flip touched.
    EXPECT_LT(got.size(), written.size());
    expect_written_prefix(got);
  }
}

TEST(RecordEdgeTest, MsetRoundTripsSignedFieldsAtTheirExtremes) {
  core::Mset mset;
  mset.et = INT64_MIN;
  mset.origin = INT32_MAX;
  mset.global_order = INT64_MAX;
  mset.timestamp = LamportTimestamp{INT64_MIN, -1};
  mset.tentative = true;
  mset.operations = {
      store::Operation{store::OpKind::kIncrement, INT64_MIN, INT64_MAX,
                       Value(INT64_MIN), LamportTimestamp{INT64_MAX, INT32_MAX}},
      store::Operation{store::OpKind::kMultiply, INT64_MAX, INT64_MIN,
                       Value(INT64_MAX), LamportTimestamp{-1, INT32_MIN}},
      // A string long enough to need a 2-byte length.
      store::Operation{store::OpKind::kAppend, -1, -1,
                       Value(std::string(300, 'x')), LamportTimestamp{-2, 0}},
  };
  mset.shard_positions = {
      {INT32_MIN, INT64_MIN}, {-1, -1}, {INT32_MAX, INT64_MAX}};
  const std::string bytes = MsetBytes(mset);
  recovery::Decoder d(bytes);
  const core::Mset out = d.MsetRec();
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.AtEnd());
  EXPECT_EQ(out.et, mset.et);
  EXPECT_EQ(out.origin, mset.origin);
  EXPECT_EQ(out.global_order, mset.global_order);
  EXPECT_EQ(out.timestamp, mset.timestamp);
  EXPECT_EQ(out.tentative, mset.tentative);
  EXPECT_EQ(out.operations, mset.operations);
  EXPECT_EQ(out.shard_positions, mset.shard_positions);
}

TEST(RecordEdgeTest, WalRecordAndCheckpointRoundTripTheirExtremes) {
  recovery::WalRecord stable;
  stable.type = recovery::WalRecordType::kStable;
  stable.lsn = INT64_MAX;
  stable.et = INT64_MIN;
  stable.ts = LamportTimestamp{INT64_MIN, INT32_MIN};
  recovery::WalRecord out;
  ASSERT_TRUE(
      recovery::DecodeWalRecord(recovery::EncodeWalRecord(stable), &out));
  EXPECT_EQ(out.type, stable.type);
  EXPECT_EQ(out.lsn, stable.lsn);
  EXPECT_EQ(out.et, stable.et);
  EXPECT_EQ(out.ts, stable.ts);

  recovery::CheckpointData data = SampleCheckpoint();
  data.last_lsn = INT64_MAX;
  data.clock_counter = INT64_MIN;
  data.cut.order_watermark = INT64_MAX;
  data.cut.applied = {LamportTimestamp{INT64_MAX, INT32_MAX},
                      LamportTimestamp{-5, -1}};
  data.store_entries = {{INT64_MIN, Value(INT64_MAX),
                         LamportTimestamp{INT64_MIN, INT32_MIN}}};
  data.apply_count = INT64_MAX;
  recovery::CheckpointData back;
  ASSERT_TRUE(
      recovery::DecodeCheckpoint(recovery::EncodeCheckpoint(data), &back));
  EXPECT_EQ(back.last_lsn, data.last_lsn);
  EXPECT_EQ(back.clock_counter, data.clock_counter);
  EXPECT_EQ(back.cut.order_watermark, data.cut.order_watermark);
  EXPECT_EQ(back.cut.applied, data.cut.applied);
  EXPECT_EQ(back.cut.shard_watermarks, data.cut.shard_watermarks);
  EXPECT_EQ(back.seq_floors, data.seq_floors);
  EXPECT_EQ(back.store_entries, data.store_entries);
  EXPECT_EQ(back.apply_count, data.apply_count);
}

TEST(ByteBudgetTest, FrameSizesOfAnUpdatesMessages) {
  // A daemon's ids start at its boot time in µs (OrdupNodeConfig::
  // incarnation), so they need all 8 bytes of their fixed fields; the
  // positions, counts and epochs of a cluster a few minutes old are small.
  constexpr int64_t kIncarnation = kBootUs;
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

  // The MSet record, also the WAL's: I64 ET, V origin, V order, the
  // timestamp's zigzag counter and V site, U8 tentative, V count, then per
  // operation U8 kind, zigzag object and operand, a U8 value tag and
  // zigzag value, and a 2-byte zero timestamp; last, V shard count.
  const core::Mset one = DaemonMset({7});
  ASSERT_EQ(one.et, et);
  EXPECT_EQ(MsetBytes(one).size(), 26u);  // was 79
  EXPECT_EQ(frame(core::kMsetMsg, MsetBytes(one)), 47u);  // was 100

  // store_wide's 16 increments: 6 B each plus 34 B of keys, was 38 B each.
  EXPECT_EQ(MsetBytes(DaemonMset(kWideKeys)).size(), 149u);  // was 649
  EXPECT_EQ(frame(core::kMsetMsg, MsetBytes(DaemonMset(kWideKeys))),
            170u);  // was 670

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
