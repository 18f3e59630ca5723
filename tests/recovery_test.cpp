// Unit tests for the durability subsystem: CRC-framed codec, the per-site
// WAL with group commit, the storage backends, and checkpoint
// encode/decode. Integration with the replica control methods lives in
// recovery_integration_test.cpp.

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/metric_registry.h"
#include "recovery/checkpointer.h"
#include "recovery/codec.h"
#include "recovery/recovery_manager.h"
#include "recovery/storage.h"
#include "recovery/wal.h"
#include "sim/simulator.h"

namespace esr::recovery {
namespace {

core::Mset SampleMset(EtId et, SiteId origin) {
  core::Mset mset;
  mset.et = et;
  mset.origin = origin;
  mset.global_order = 7;
  mset.timestamp = LamportTimestamp{42, origin};
  mset.operations = {store::Operation::Increment(3, 5),
                     store::Operation::Write(4, Value(int64_t{9}))};
  mset.tentative = true;
  return mset;
}

TEST(CodecTest, ScalarAndCompositeRoundtrip) {
  Encoder enc;
  enc.U8(250);
  enc.U32(0xDEADBEEFu);
  enc.U64(0x0123456789ABCDEFull);
  enc.I64(-77);
  enc.Str("hello wal");
  enc.Ts(LamportTimestamp{9, 2});
  enc.Val(Value(int64_t{-3}));
  enc.MsetRec(SampleMset(11, 1));
  const std::string bytes = enc.Take();

  Decoder dec(bytes);
  EXPECT_EQ(dec.U8(), 250);
  EXPECT_EQ(dec.U32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.I64(), -77);
  EXPECT_EQ(dec.Str(), "hello wal");
  const LamportTimestamp ts = dec.Ts();
  EXPECT_EQ(ts.counter, 9);
  EXPECT_EQ(ts.site, 2);
  EXPECT_EQ(dec.Val().AsInt(), -3);
  const core::Mset mset = dec.MsetRec();
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_EQ(mset.et, 11);
  EXPECT_EQ(mset.origin, 1);
  EXPECT_EQ(mset.global_order, 7);
  ASSERT_EQ(mset.operations.size(), 2u);
  EXPECT_TRUE(mset.tentative);
}

TEST(CodecTest, DecoderLatchesOnTruncatedInput) {
  Encoder enc;
  enc.U64(123);
  std::string bytes = enc.Take();
  bytes.resize(bytes.size() - 1);
  Decoder dec(bytes);
  dec.U64();
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.U32(), 0u) << "getters return defaults once latched";
}

TEST(CodecTest, FramingStopsAtTornAndCorruptFrames) {
  std::string log;
  wire::FrameAppend(log, "alpha");
  wire::FrameAppend(log, "beta");
  wire::FrameAppend(log, "gamma");

  size_t pos = 0;
  std::string_view payload;
  ASSERT_TRUE(wire::FrameNext(log, &pos, &payload));
  EXPECT_EQ(payload, "alpha");
  ASSERT_TRUE(wire::FrameNext(log, &pos, &payload));
  EXPECT_EQ(payload, "beta");
  ASSERT_TRUE(wire::FrameNext(log, &pos, &payload));
  EXPECT_EQ(payload, "gamma");
  EXPECT_FALSE(wire::FrameNext(log, &pos, &payload)) << "clean end of log";

  // Torn tail: the last frame lost bytes in the crash.
  std::string torn = log.substr(0, log.size() - 3);
  pos = 0;
  ASSERT_TRUE(wire::FrameNext(torn, &pos, &payload));
  ASSERT_TRUE(wire::FrameNext(torn, &pos, &payload));
  EXPECT_FALSE(wire::FrameNext(torn, &pos, &payload)) << "torn frame rejected";

  // Bit flip inside the second frame's payload: CRC must catch it.
  std::string corrupt = log;
  corrupt[8 + 5 + 8 + 2] ^= 0x40;  // inside "beta"'s payload
  pos = 0;
  ASSERT_TRUE(wire::FrameNext(corrupt, &pos, &payload));
  EXPECT_EQ(payload, "alpha");
  EXPECT_FALSE(wire::FrameNext(corrupt, &pos, &payload))
      << "CRC mismatch stops";
}

TEST(CodecTest, Crc32DetectsChanges) {
  EXPECT_NE(wire::Crc32("abc"), wire::Crc32("abd"));
  EXPECT_EQ(wire::Crc32("abc"), wire::Crc32("abc"));
  EXPECT_NE(wire::Crc32(""), wire::Crc32("a"));
}

class WalTest : public ::testing::Test {
 protected:
  RecoveryConfig Config(int batch, SimDuration timer_us) {
    RecoveryConfig config;
    config.enabled = true;
    config.group_commit_records = batch;
    config.group_commit_interval_us = timer_us;
    return config;
  }

  sim::Simulator sim_;
  obs::MetricRegistry metrics_;
  MemoryStorage storage_;
};

TEST_F(WalTest, GroupCommitFlushesAtBatchSize) {
  Wal wal(&sim_, &storage_, 0, Config(3, 1'000'000), &metrics_);
  wal.AppendMset(SampleMset(1, 0));
  wal.AppendMset(SampleMset(2, 0));
  EXPECT_EQ(wal.UnflushedCount(), 2);
  EXPECT_TRUE(wal.ReadAll().empty()) << "buffered tail not durable yet";
  wal.AppendMset(SampleMset(3, 0));  // hits the batch size
  EXPECT_EQ(wal.UnflushedCount(), 0);
  const std::vector<WalRecord> records = wal.ReadAll();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 1);
  EXPECT_EQ(records[2].lsn, 3);
  EXPECT_EQ(records[2].mset.et, 3);
}

TEST_F(WalTest, GroupCommitTimerFlushesSmallBatches) {
  Wal wal(&sim_, &storage_, 0, Config(64, 5'000), &metrics_);
  wal.AppendAck(9, 1);
  EXPECT_EQ(wal.UnflushedCount(), 1);
  sim_.RunUntil(10'000);
  EXPECT_EQ(wal.UnflushedCount(), 0) << "timer flushed the lone record";
  const std::vector<WalRecord> records = wal.ReadAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kAck);
  EXPECT_EQ(records[0].et, 9);
  EXPECT_EQ(records[0].replica, 1);
}

TEST_F(WalTest, DropUnflushedModelsAmnesiaDataLoss) {
  Wal wal(&sim_, &storage_, 0, Config(4, 1'000'000), &metrics_);
  wal.AppendMset(SampleMset(1, 0));
  wal.AppendMset(SampleMset(2, 0));
  wal.Flush();
  wal.AppendDecision(2, true);  // stays in the volatile tail
  EXPECT_EQ(wal.UnflushedCount(), 1);
  wal.DropUnflushed();
  EXPECT_EQ(wal.UnflushedCount(), 0);
  const std::vector<WalRecord> records = wal.ReadAll();
  ASSERT_EQ(records.size(), 2u) << "only the flushed prefix survives";
  EXPECT_EQ(records[1].mset.et, 2);
  // LSNs keep advancing past the hole left by the dropped record.
  EXPECT_GE(wal.next_lsn(), 4);
}

TEST_F(WalTest, TruncatePreservesLsnsOfKeptRecords) {
  Wal wal(&sim_, &storage_, 0, Config(1, 1'000'000), &metrics_);
  for (EtId et = 1; et <= 5; ++et) wal.AppendMset(SampleMset(et, 0));
  const int64_t before_bytes = wal.StorageBytes();
  const int64_t dropped =
      wal.Truncate([](const WalRecord& rec) { return rec.lsn > 2; });
  EXPECT_EQ(dropped, 2);
  EXPECT_LT(wal.StorageBytes(), before_bytes);
  const std::vector<WalRecord> records = wal.ReadAll();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 3);
  EXPECT_EQ(records[2].lsn, 5);
  EXPECT_EQ(wal.next_lsn(), 6) << "truncation never reuses LSNs";
}

TEST_F(WalTest, AllRecordTypesRoundtrip) {
  Wal wal(&sim_, &storage_, 0, Config(1, 1'000'000), &metrics_);
  wal.AppendMset(SampleMset(1, 2));
  wal.AppendDecision(1, false);
  wal.AppendAck(1, 2);
  wal.AppendStable(1, LamportTimestamp{5, 2});
  const std::vector<WalRecord> records = wal.ReadAll();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, WalRecordType::kMset);
  EXPECT_EQ(records[1].type, WalRecordType::kDecision);
  EXPECT_FALSE(records[1].commit);
  EXPECT_EQ(records[2].type, WalRecordType::kAck);
  EXPECT_EQ(records[2].replica, 2);
  EXPECT_EQ(records[3].type, WalRecordType::kStable);
  EXPECT_EQ(records[3].ts.counter, 5);
}

TEST_F(WalTest, ReadsNoRecordFromAnOldLayoutMsetRecord) {
  // One kMset record as the fixed-width layout before format version 7
  // wrote it: tag byte 1, I64 LSN 1, then an I64/U32 MSet of ET 11 from
  // site 1 with one increment. Its frame and CRC are valid.
  const std::string old_record(
      "\x58\x00\x00\x00\x38\xc1\x43\x69\x01\x01\x00\x00\x00\x00\x00\x00"
      "\x00\x0b\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x07\x00\x00"
      "\x00\x00\x00\x00\x00\x2a\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00"
      "\x00\x00\x01\x00\x00\x00\x02\x03\x00\x00\x00\x00\x00\x00\x00\x05"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
      96);
  size_t pos = 0;
  std::string_view payload;
  ASSERT_TRUE(wire::FrameNext(old_record, &pos, &payload));
  storage_.AppendWal(0, old_record);
  Wal wal(&sim_, &storage_, 0, Config(1, 1'000'000), &metrics_);
  EXPECT_TRUE(wal.ReadAll().empty());
  EXPECT_EQ(wal.next_lsn(), 1);
}

TEST(StorageTest, MemoryBackendIsolatesSites) {
  MemoryStorage storage;
  storage.AppendWal(0, "aa");
  storage.AppendWal(0, "bb");
  storage.AppendWal(1, "cc");
  EXPECT_EQ(storage.ReadWal(0), "aabb");
  EXPECT_EQ(storage.ReadWal(1), "cc");
  EXPECT_EQ(storage.ReadWal(2), "");
  storage.ReplaceWal(0, "zz");
  EXPECT_EQ(storage.ReadWal(0), "zz");
  EXPECT_EQ(storage.ReadCheckpoint(0), "");
  storage.WriteCheckpoint(0, "ck1");
  storage.WriteCheckpoint(0, "ck2");
  EXPECT_EQ(storage.ReadCheckpoint(0), "ck2") << "checkpoint is replaced";
}

TEST(StorageTest, FileBackendPersistsAcrossInstances) {
  const std::string dir = "recovery_test_storage";
  std::filesystem::remove_all(dir);
  {
    FileStorage storage(dir);
    storage.AppendWal(3, "wal-bytes");
    storage.WriteCheckpoint(3, "ckpt-bytes");
  }
  {
    // A second instance over the same directory models a process restart.
    FileStorage storage(dir);
    EXPECT_EQ(storage.ReadWal(3), "wal-bytes");
    EXPECT_EQ(storage.ReadCheckpoint(3), "ckpt-bytes");
    storage.ReplaceWal(3, "short");
    EXPECT_EQ(storage.ReadWal(3), "short");
  }
  std::filesystem::remove_all(dir);
}

CheckpointData SampleCheckpoint() {
  CheckpointData data;
  data.last_lsn = 17;
  data.clock_counter = 99;
  data.cut.order_watermark = 6;
  data.cut.applied = {LamportTimestamp{4, 0}, LamportTimestamp{9, 1}};
  data.cut.shard_watermarks = {{0, 5}, {2, 11}};
  data.seq_floors = {{-1, 40, 1}, {2, 12, 3}};
  data.store_entries.emplace_back(1, Value(int64_t{10}),
                                  LamportTimestamp{3, 0});
  data.versions.emplace_back(1, LamportTimestamp{3, 0}, Value(int64_t{10}));
  data.version_gc_floor = LamportTimestamp{2, 1};
  store::MsetLog::RecordSnapshot rec;
  rec.mset_id = 8;
  rec.ops = {store::Operation::Increment(1, 2)};
  rec.before_images.emplace_back(1, Value(int64_t{8}));
  data.mset_log.push_back(std::move(rec));
  data.apply_count = 23;
  data.decided_commit = {3, 5};
  data.abort_before_apply = {8};
  data.stability.outstanding = {{11, LamportTimestamp{7, 1}},
                                {12, LamportTimestamp{8, 0}}};
  data.stability.stable = {3, 5};
  OutgoingRecord half_acked;
  half_acked.ts = LamportTimestamp{8, 0};
  half_acked.replicas = {0, 1, 2};
  half_acked.acks = {0, 2};
  data.stability.outgoing = {{12, half_acked}};
  data.stability.watermark = {LamportTimestamp{8, 0}, LamportTimestamp{7, 1},
                              kZeroTimestamp};
  return data;
}

TEST(CheckpointTest, EncodeDecodeRoundtrip) {
  const std::string bytes = EncodeCheckpoint(SampleCheckpoint());
  CheckpointData out;
  ASSERT_TRUE(DecodeCheckpoint(bytes, &out));
  EXPECT_EQ(out.last_lsn, 17);
  EXPECT_EQ(out.clock_counter, 99);
  EXPECT_EQ(out.cut.order_watermark, 6);
  EXPECT_EQ(out.cut.applied, (std::vector<LamportTimestamp>{{4, 0}, {9, 1}}));
  EXPECT_EQ(out.cut.shard_watermarks,
            (std::map<ShardId, SequenceNumber>{{0, 5}, {2, 11}}));
  // One global (service -1) and one shard sequencer floor.
  EXPECT_EQ(out.seq_floors,
            (std::vector<std::tuple<ShardId, SequenceNumber, int64_t>>{
                {-1, 40, 1}, {2, 12, 3}}));
  ASSERT_EQ(out.store_entries.size(), 1u);
  EXPECT_EQ(std::get<0>(out.store_entries[0]), 1);
  EXPECT_EQ(std::get<1>(out.store_entries[0]).AsInt(), 10);
  EXPECT_EQ(std::get<2>(out.store_entries[0]), (LamportTimestamp{3, 0}));
  ASSERT_EQ(out.versions.size(), 1u);
  EXPECT_EQ(std::get<1>(out.versions[0]), (LamportTimestamp{3, 0}));
  EXPECT_EQ(std::get<2>(out.versions[0]).AsInt(), 10);
  EXPECT_EQ(out.version_gc_floor, (LamportTimestamp{2, 1}));
  ASSERT_EQ(out.mset_log.size(), 1u);
  EXPECT_EQ(out.mset_log[0].mset_id, 8);
  ASSERT_EQ(out.mset_log[0].ops.size(), 1u);
  EXPECT_EQ(out.mset_log[0].ops[0].object, 1);
  ASSERT_EQ(out.mset_log[0].before_images.size(), 1u);
  EXPECT_EQ(out.mset_log[0].before_images[0].second.AsInt(), 8);
  EXPECT_EQ(out.apply_count, 23);
  EXPECT_EQ(out.decided_commit, (std::vector<EtId>{3, 5}));
  EXPECT_EQ(out.abort_before_apply, (std::vector<EtId>{8}));
  EXPECT_EQ(out.stability.outstanding,
            (std::vector<std::pair<EtId, LamportTimestamp>>{
                {11, {7, 1}}, {12, {8, 0}}}));
  EXPECT_EQ(out.stability.stable, (std::vector<EtId>{3, 5}));
  ASSERT_EQ(out.stability.outgoing.size(), 1u);
  EXPECT_EQ(out.stability.outgoing[0].first, 12);
  const OutgoingRecord& half_acked = out.stability.outgoing[0].second;
  EXPECT_EQ(half_acked.ts, (LamportTimestamp{8, 0}));
  EXPECT_EQ(half_acked.replicas, (std::vector<SiteId>{0, 1, 2}));
  EXPECT_EQ(half_acked.acks, (std::vector<SiteId>{0, 2}));
  EXPECT_EQ(out.stability.watermark,
            (std::vector<LamportTimestamp>{{8, 0}, {7, 1}, kZeroTimestamp}));
}

TEST(CheckpointTest, RejectsEmptyTornAndCorruptBytes) {
  const std::string bytes = EncodeCheckpoint(SampleCheckpoint());
  CheckpointData out;
  EXPECT_FALSE(DecodeCheckpoint("", &out));
  EXPECT_FALSE(DecodeCheckpoint(bytes.substr(0, bytes.size() / 2), &out));
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_FALSE(DecodeCheckpoint(corrupt, &out));
  EXPECT_FALSE(DecodeCheckpoint("garbage-not-a-checkpoint", &out));
}

TEST(CheckpointTest, RejectsAWellFramedCheckpointOfAnotherVersion) {
  const std::string bytes = EncodeCheckpoint(SampleCheckpoint());
  size_t pos = 0;
  std::string_view payload;
  ASSERT_TRUE(wire::FrameNext(bytes, &pos, &payload));
  CheckpointData out;
  ASSERT_TRUE(DecodeCheckpoint(bytes, &out));
  for (uint32_t version : {kFormatVersion - 1u, kFormatVersion + 1u}) {
    SCOPED_TRACE(version);
    // The version is the little-endian u32 after the magic; re-frame the
    // edited payload so only the version is wrong.
    std::string edited(payload);
    for (int i = 0; i < 4; ++i) {
      edited[4 + i] = static_cast<char>((version >> (8 * i)) & 0xff);
    }
    std::string framed;
    wire::FrameAppend(framed, edited);
    CheckpointData rejected;
    rejected.last_lsn = -1;
    EXPECT_FALSE(DecodeCheckpoint(framed, &rejected));
    EXPECT_EQ(rejected.last_lsn, -1) << "a rejected decode leaves out alone";
  }
}

TEST(CheckpointTest, RefusesAVersion6Checkpoint) {
  // A whole, CRC-valid checkpoint of format version 6 (fixed-width
  // fields): last LSN 17, clock 99, order watermark 6, two applied
  // timestamps, one store entry and an apply count of 6.
  const std::string v6(
      "\x99\x00\x00\x00\xaf\x06\x04\x46\x43\x52\x53\x45\x06\x00\x00\x00"
      "\x11\x00\x00\x00\x00\x00\x00\x00\x63\x00\x00\x00\x00\x00\x00\x00"
      "\x06\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x04\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00"
      "\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
      "\x01\x00\x00\x00\x00\x00\x00\x00\x00\x0a\x00\x00\x00\x00\x00\x00"
      "\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x06\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00",
      161);
  size_t pos = 0;
  std::string_view payload;
  ASSERT_TRUE(wire::FrameNext(v6, &pos, &payload));
  CheckpointData out;
  out.last_lsn = -1;
  EXPECT_FALSE(DecodeCheckpoint(v6, &out));
  EXPECT_EQ(out.last_lsn, -1);
}

core::Mset TimestampedMset(SiteId origin, int64_t counter) {
  core::Mset mset;
  mset.et = 100 + counter;
  mset.origin = origin;
  mset.timestamp = LamportTimestamp{counter, origin};
  return mset;
}

core::Mset Filler(SequenceNumber order) {
  core::Mset filler;
  filler.global_order = order;
  return filler;
}

core::Mset ShardedMset(std::vector<std::pair<ShardId, SequenceNumber>> at) {
  core::Mset mset = TimestampedMset(0, 1);
  mset.shard_positions = std::move(at);
  return mset;
}

TEST(AppliedCutTest, CoversATimestampedMsetByItsOriginsTimestamp) {
  AppliedCut cut;
  cut.applied = {LamportTimestamp{5, 0}, LamportTimestamp{3, 1}};
  EXPECT_TRUE(cut.Covers(TimestampedMset(0, 5)));
  EXPECT_TRUE(cut.Covers(TimestampedMset(1, 2)));
  EXPECT_FALSE(cut.Covers(TimestampedMset(0, 6)));
  EXPECT_FALSE(cut.Covers(TimestampedMset(1, 4)));
  EXPECT_FALSE(cut.Covers(TimestampedMset(2, 1))) << "origin out of range";
  // The order position of a timestamped MSet is not what the cut tests.
  core::Mset ordered = TimestampedMset(0, 5);
  ordered.global_order = 99;
  EXPECT_TRUE(cut.Covers(ordered));
}

TEST(AppliedCutTest, CoversAnUnshardedFillerByItsOrderPosition) {
  AppliedCut cut;
  cut.applied = {LamportTimestamp{50, 0}};
  cut.order_watermark = 4;
  EXPECT_TRUE(cut.Covers(Filler(1)));
  EXPECT_TRUE(cut.Covers(Filler(4)));
  EXPECT_FALSE(cut.Covers(Filler(5)));
  EXPECT_FALSE(cut.Covers(Filler(0))) << "position 0 is no position";
}

TEST(AppliedCutTest, CoversAShardedMsetOnlyWhenEveryShardIsPassed) {
  AppliedCut cut;
  // Shard 0 is owned (cursor 5); shard 2 is not (INT64_MAX); shard 1 was
  // never seen. The per-origin timestamps do not govern sharded MSets.
  cut.shard_watermarks = {{0, 5}, {2, std::numeric_limits<int64_t>::max()}};
  cut.applied = {kZeroTimestamp};
  EXPECT_TRUE(cut.Covers(ShardedMset({{0, 5}})));
  EXPECT_TRUE(cut.Covers(ShardedMset({{0, 3}, {2, 1'000}})));
  EXPECT_FALSE(cut.Covers(ShardedMset({{0, 6}, {2, 1}})));
  EXPECT_FALSE(cut.Covers(ShardedMset({{0, 1}, {1, 1}})));
  core::Mset sharded_filler = Filler(0);
  sharded_filler.shard_positions = {{0, 5}};
  EXPECT_TRUE(cut.Covers(sharded_filler));
}

TEST(AppliedCutTest, RaiseIgnoresFillers) {
  AppliedCut cut;
  cut.applied = {kZeroTimestamp, kZeroTimestamp};
  cut.Raise(Filler(7));
  core::Mset sharded_filler = Filler(0);
  sharded_filler.shard_positions = {{1, 9}};
  cut.Raise(sharded_filler);
  EXPECT_EQ(cut.order_watermark, 0);
  EXPECT_TRUE(cut.shard_watermarks.empty());
  EXPECT_EQ(cut.applied,
            (std::vector<LamportTimestamp>{kZeroTimestamp, kZeroTimestamp}));

  cut.Raise(TimestampedMset(1, 4));
  cut.Raise(TimestampedMset(1, 2));  // never lowers
  cut.Raise(TimestampedMset(5, 9));  // origin out of range
  cut.Raise(ShardedMset({{1, 9}, {3, 2}}));
  EXPECT_EQ(cut.applied,
            (std::vector<LamportTimestamp>{kZeroTimestamp, {4, 1}}));
  EXPECT_EQ(cut.shard_watermarks,
            (std::map<ShardId, SequenceNumber>{{1, 9}, {3, 2}}));
}

TEST(AppliedCutTest, MinReproducesTheTruncationFloors) {
  const SequenceNumber kNotOwned = std::numeric_limits<int64_t>::max();
  AppliedCut a;
  a.applied = {LamportTimestamp{5, 0}, LamportTimestamp{3, 1},
               LamportTimestamp{7, 2}};
  a.order_watermark = 10;
  a.shard_watermarks = {{0, 4}, {1, kNotOwned}, {2, 7}};
  AppliedCut b;
  b.applied = {LamportTimestamp{2, 0}, LamportTimestamp{9, 1},
               LamportTimestamp{7, 2}};
  b.order_watermark = 6;
  b.shard_watermarks = {{0, 8}, {1, 3}};

  // Per origin and for the order the floor is the minimum; per shard the
  // minimum with a missing shard counting as 0 (shard 2, absent at b).
  const AppliedCut ab = AppliedCut::Min(a, b);
  EXPECT_EQ(ab.applied,
            (std::vector<LamportTimestamp>{
                {2, 0}, {3, 1}, {7, 2}}));
  EXPECT_EQ(ab.order_watermark, 6);
  EXPECT_EQ(ab.shard_watermarks,
            (std::map<ShardId, SequenceNumber>{{0, 4}, {1, 3}, {2, 0}}));
  EXPECT_EQ(AppliedCut::Min(b, a).shard_watermarks, ab.shard_watermarks);

  // A site with no checkpointed shard map (never checkpointed, or its
  // checkpoint predates the shards) pins every shard's floor at 0: keep
  // every sharded record.
  AppliedCut never;
  never.applied = {LamportTimestamp{4, 0}, LamportTimestamp{4, 1},
                   LamportTimestamp{4, 2}};
  never.order_watermark = 12;
  const AppliedCut floor = AppliedCut::Min(ab, never);
  EXPECT_EQ(floor.applied,
            (std::vector<LamportTimestamp>{
                {2, 0}, {3, 1}, {4, 2}}));
  EXPECT_EQ(floor.order_watermark, 6);
  EXPECT_EQ(floor.shard_watermarks,
            (std::map<ShardId, SequenceNumber>{{0, 0}, {1, 0}, {2, 0}}));
  EXPECT_FALSE(floor.Covers(ShardedMset({{0, 1}})));
  EXPECT_TRUE(floor.Covers(TimestampedMset(1, 3)));
  EXPECT_FALSE(floor.Covers(TimestampedMset(2, 5)));
}

// Catch-up exchange lifecycle and WAL truncation policy, exercised against
// a bare RecoveryManager with recording stub bindings (no methods, no
// network). The full-stack versions live in recovery_integration_test.cpp.
class RecoveryManagerTest : public ::testing::Test {
 protected:
  static RecoveryConfig ManagerConfig() {
    RecoveryConfig config;
    config.enabled = true;
    // Batch size 1: every append is durable immediately, so the truncation
    // tests see a deterministic WAL without pumping the group-commit timer.
    config.group_commit_records = 1;
    config.group_commit_interval_us = 1'000;
    return config;
  }

  static core::Mset UnorderedMset(EtId et, SiteId origin, int64_t counter) {
    core::Mset mset;
    mset.et = et;
    mset.origin = origin;
    mset.global_order = 0;
    mset.timestamp = LamportTimestamp{counter, origin};
    mset.operations = {store::Operation::Increment(0, 1)};
    mset.tentative = true;
    return mset;
  }

  void BindRecording(SiteId s) {
    SiteBindings b;
    b.snapshot = [](CheckpointData&) {};
    b.restore = [](const CheckpointData&) {};
    b.deliver = [this, s](const core::Mset& mset) {
      delivered_[static_cast<size_t>(s)].push_back(mset.et);
    };
    b.replay_reflected = [](const core::Mset&) {};
    b.decide = [](EtId, bool) {};
    b.ack = [](EtId, SiteId) {};
    b.stable = [](EtId, const LamportTimestamp&) {};
    b.is_stable = [](EtId) { return false; };
    manager_.BindSite(s, std::move(b));
  }

  int64_t CounterValue(const std::string& name, SiteId s) {
    return metrics_.GetCounter(name, {{"site", std::to_string(s)}}).value();
  }

  sim::Simulator sim_;
  obs::MetricRegistry metrics_;
  RecoveryManager manager_{&sim_, &metrics_, ManagerConfig(), 3};
  std::vector<std::vector<EtId>> delivered_{3};
};

TEST_F(RecoveryManagerTest, StaleCatchupResponseIsIgnored) {
  BindRecording(0);
  // First exchange, abandoned by a second crash before any response lands.
  const CatchupRequest r1 = manager_.BuildCatchupRequest(0);
  manager_.BeginCatchup(0, {1, 2});
  manager_.OnCrash(0);
  // Second exchange: a fresh restart, new id.
  const CatchupRequest r2 = manager_.BuildCatchupRequest(0);
  manager_.BeginCatchup(0, {1, 2});
  ASSERT_GT(r2.exchange, r1.exchange);

  // A response to the abandoned exchange arrives late (the reliable queues
  // retained it). It must not count toward the new exchange.
  CatchupResponse stale;
  stale.from = 1;
  stale.exchange = r1.exchange;
  manager_.ApplyCatchupResponse(0, stale);
  CatchupResponse stale2;
  stale2.from = 2;
  stale2.exchange = r1.exchange;
  manager_.ApplyCatchupResponse(0, stale2);
  EXPECT_EQ(manager_.last_report(0).catchup_done_at, -1)
      << "stale responses completed the new exchange";
  EXPECT_EQ(CounterValue("esr_recovery_stale_catchup_total", 0), 2);

  // The real responses complete it; a duplicate does not double-complete.
  CatchupResponse fresh1;
  fresh1.from = 1;
  fresh1.exchange = r2.exchange;
  manager_.ApplyCatchupResponse(0, fresh1);
  manager_.ApplyCatchupResponse(0, fresh1);
  EXPECT_EQ(manager_.last_report(0).catchup_done_at, -1);
  CatchupResponse fresh2;
  fresh2.from = 2;
  fresh2.exchange = r2.exchange;
  manager_.ApplyCatchupResponse(0, fresh2);
  EXPECT_GE(manager_.last_report(0).catchup_done_at, 0);
}

TEST_F(RecoveryManagerTest, PeerDownCompletesCatchupAndReleasesHeld) {
  BindRecording(0);
  const CatchupRequest request = manager_.BuildCatchupRequest(0);
  manager_.BeginCatchup(0, {1, 2});

  // Foreground delivery parked while the exchange is in flight.
  EXPECT_TRUE(manager_.site(0)->MaybeHoldDelivery(UnorderedMset(7, 1, 5)));
  EXPECT_TRUE(delivered_[0].empty());

  // Peer 2 crashes mid-exchange: it stops counting as an expected
  // responder, so peer 1's response alone completes the exchange and the
  // parked delivery is released.
  manager_.OnPeerDown(2);
  EXPECT_EQ(manager_.last_report(0).catchup_done_at, -1);
  CatchupResponse resp;
  resp.from = 1;
  resp.exchange = request.exchange;
  manager_.ApplyCatchupResponse(0, resp);
  EXPECT_GE(manager_.last_report(0).catchup_done_at, 0);
  ASSERT_EQ(delivered_[0].size(), 1u);
  EXPECT_EQ(delivered_[0][0], 7);
  EXPECT_EQ(CounterValue("esr_recovery_catchup_peer_skipped_total", 0), 1);

  // With every peer down the exchange completes immediately.
  BindRecording(1);
  manager_.BuildCatchupRequest(1);
  manager_.BeginCatchup(1, {0, 2});
  manager_.OnPeerDown(0);
  EXPECT_EQ(manager_.last_report(1).catchup_done_at, -1);
  manager_.OnPeerDown(2);
  EXPECT_GE(manager_.last_report(1).catchup_done_at, 0);
}

TEST_F(RecoveryManagerTest, AbortDecisionRetainedWhileAnyWalHoldsTheMset) {
  // Every site logged the tentative MSet (et=5) and its abort decision; the
  // compensation already ran, so checkpoints contain neither (the stub
  // snapshot leaves the MSet log empty) and is_stable stays false forever.
  const core::Mset mset = UnorderedMset(5, 0, 10);
  for (SiteId s = 0; s < 3; ++s) {
    BindRecording(s);
    manager_.site(s)->LogMset(mset);
    manager_.site(s)->LogDecision(5, /*commit=*/false);
    manager_.site(s)->OnApplied(mset);
  }

  // Round 1: each site drops its aborted MSet (abort logged + compensation
  // reflected) but must keep the decision — some OTHER WAL still holds the
  // MSet while this site checkpoints, and until the last one drops it a
  // recovering site could re-arm the tentative apply and need the abort.
  for (SiteId s = 0; s < 3; ++s) {
    manager_.TakeCheckpoint(s);
    std::vector<WalRecord> records = manager_.site(s)->wal().ReadAll();
    ASSERT_EQ(records.size(), 1u) << "site " << s;
    EXPECT_EQ(records[0].type, WalRecordType::kDecision) << "site " << s;
    EXPECT_EQ(records[0].et, 5) << "site " << s;
    EXPECT_FALSE(records[0].commit) << "site " << s;
  }

  // Round 2: no durable state anywhere can reconstruct et=5 tentatively,
  // so the decisions prune too — aborted work does not pin the WAL.
  for (SiteId s = 0; s < 3; ++s) {
    manager_.TakeCheckpoint(s);
    EXPECT_TRUE(manager_.site(s)->wal().ReadAll().empty()) << "site " << s;
  }
}

}  // namespace
}  // namespace esr::recovery
