#include "store/mv_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

namespace esr::store {
namespace {

LamportTimestamp Ts(int64_t counter, SiteId site = 0) {
  return LamportTimestamp{counter, site};
}

// --- Multi-version role -----------------------------------------------------

TEST(MvStoreTest, EmptyObjectHasNoVersions) {
  MvStore store;
  EXPECT_FALSE(store.ReadLatest(0).has_value());
  EXPECT_FALSE(store.ReadAtOrBefore(0, Ts(100)).has_value());
  EXPECT_EQ(store.VersionCount(0), 0);
}

TEST(MvStoreTest, AppendAndReadLatest) {
  MvStore store;
  store.AppendVersion(1, Ts(5), Value(int64_t{50}));
  store.AppendVersion(1, Ts(3), Value(int64_t{30}));  // out of order
  auto latest = store.ReadLatest(1);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->timestamp, Ts(5));
  EXPECT_EQ(latest->value.AsInt(), 50);
  EXPECT_EQ(store.VersionCount(1), 2);
  EXPECT_FALSE(store.ReadLatest(2).has_value());
}

TEST(MvStoreTest, ReadAtOrBeforeWalksTheChain) {
  MvStore store(MvStoreOptions{.partitions = 4});
  store.AppendVersion(7, Ts(2), Value(int64_t{2}));
  store.AppendVersion(7, Ts(4), Value(int64_t{4}));
  store.AppendVersion(7, Ts(9), Value(int64_t{9}));
  EXPECT_FALSE(store.ReadAtOrBefore(7, Ts(1)).has_value());
  EXPECT_EQ(store.ReadAtOrBefore(7, Ts(2))->value.AsInt(), 2)
      << "at-or-before is inclusive";
  EXPECT_EQ(store.ReadAtOrBefore(7, Ts(5))->value.AsInt(), 4);
  EXPECT_EQ(store.ReadAtOrBefore(7, Ts(100))->value.AsInt(), 9);
}

TEST(MvStoreTest, SiteBreaksTimestampTies) {
  MvStore store;
  store.AppendVersion(0, Ts(5, 1), Value(int64_t{11}));
  store.AppendVersion(0, Ts(5, 2), Value(int64_t{22}));
  EXPECT_EQ(store.ReadLatest(0)->value.AsInt(), 22);
  auto snap = store.ReadAtOrBefore(0, Ts(5, 1));
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->value.AsInt(), 11);
}

TEST(MvStoreTest, SameTimestampAppendIsIdempotentOrReplaces) {
  MvStore store;
  store.AppendVersion(0, Ts(5), Value(int64_t{7}));
  store.AppendVersion(0, Ts(5), Value(int64_t{7}));
  EXPECT_EQ(store.VersionCount(0), 1) << "identical append is idempotent";
  // COMPE's "add another version with the same timestamp but bearing the
  // previous value".
  store.AppendVersion(0, Ts(5), Value(int64_t{0}));
  EXPECT_EQ(store.ReadLatest(0)->value.AsInt(), 0);
  EXPECT_EQ(store.VersionCount(0), 1);
}

// The simulator's determinism digests rest on the digest rendering. These
// values were computed by the earlier single-threaded stores over the same
// contents and must hold at every partition count.
TEST(MvStoreTest, MultiVersionDigestMatchesPinnedValue) {
  const std::vector<std::tuple<ObjectId, LamportTimestamp, Value>> expected =
      {{3, Ts(1, 2), Value(int64_t{10})},
       {3, Ts(4, 0), Value(std::string("x"))},
       {11, Ts(2, 1), Value(int64_t{-5})}};
  for (int parts : {1, 2, 8, 64}) {
    MvStore store(MvStoreOptions{.partitions = parts});
    store.AppendVersion(3, Ts(1, 2), Value(int64_t{10}));
    store.AppendVersion(3, Ts(4, 0), Value(std::string("x")));
    store.AppendVersion(11, Ts(2, 1), Value(int64_t{-5}));
    EXPECT_EQ(store.StateDigest(), 0x6553620c85ae6ab5ull) << parts;
    EXPECT_EQ(store.ObjectIds(), (std::vector<ObjectId>{3, 11})) << parts;
    EXPECT_EQ(store.SnapshotVersions(), expected) << parts;
  }
}

TEST(MvStoreTest, MultiVersionDigestOrderIndependent) {
  MvStore a, b(MvStoreOptions{.partitions = 8});
  a.AppendVersion(0, Ts(1), Value(int64_t{1}));
  a.AppendVersion(1, Ts(2), Value(int64_t{2}));
  b.AppendVersion(1, Ts(2), Value(int64_t{2}));
  b.AppendVersion(0, Ts(1), Value(int64_t{1}));
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(MvStoreTest, MultiVersionDigestSeparatesFields) {
  // Each pair renders to the same byte stream without field separators;
  // distinct states must not collide.
  struct Chain {
    ObjectId id;
    LamportTimestamp ts;
    int64_t value;
  };
  const std::vector<std::pair<Chain, Chain>> pairs = {
      {{1, Ts(23), 0}, {12, Ts(3), 0}},         // id | timestamp: "123.0"
      {{0, Ts(2, 1), 11}, {0, Ts(2, 11), 1}},   // timestamp | value: "2.111"
      {{0, Ts(1), 1}, {0, Ts(1), 2}},           // value alone
  };
  for (const auto& [x, y] : pairs) {
    MvStore a, b;
    a.AppendVersion(x.id, x.ts, Value(x.value));
    b.AppendVersion(y.id, y.ts, Value(y.value));
    EXPECT_NE(a.StateDigest(), b.StateDigest()) << x.id << " vs " << y.id;
  }
}

// --- Single-version role ---------------------------------------------------

TEST(MvStoreTest, FreshObjectsReadAsZero) {
  MvStore store;
  EXPECT_EQ(store.Read(42), Value());
  EXPECT_EQ(store.ObjectCount(), 0);
}

TEST(MvStoreTest, ApplyIncrementAndMultiply) {
  MvStore store(MvStoreOptions{.partitions = 4});
  ASSERT_TRUE(store.Apply(Operation::Increment(1, 10)).ok());
  ASSERT_TRUE(store.Apply(Operation::Multiply(1, 3)).ok());
  EXPECT_EQ(store.Read(1).AsInt(), 30);
}

TEST(MvStoreTest, ApplyAllSkipsReadsAndStopsAtFirstFailure) {
  MvStore store;
  ASSERT_TRUE(store
                  .ApplyAll({Operation::Read(1), Operation::Increment(1, 5),
                             Operation::Read(1)})
                  .ok());
  EXPECT_EQ(store.Read(1).AsInt(), 5);
  ASSERT_TRUE(store.Apply(Operation::Append(2, "s")).ok());
  const Status s = store.ApplyAll(
      {Operation::Increment(0, 1), Operation::Increment(2, 1),
       Operation::Increment(3, 1)});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(store.Read(0).AsInt(), 1) << "first op applied before failure";
  EXPECT_EQ(store.Read(3), Value()) << "ops after the failure not applied";
}

TEST(MvStoreTest, ThomasWriteRuleIgnoresStaleWrites) {
  MvStore store(MvStoreOptions{.partitions = 2});
  ASSERT_TRUE(
      store.Apply(Operation::TimestampedWrite(0, Value(int64_t{5}), Ts(10)))
          .ok());
  ASSERT_TRUE(
      store.Apply(Operation::TimestampedWrite(0, Value(int64_t{3}), Ts(5)))
          .ok());
  EXPECT_EQ(store.Read(0).AsInt(), 5);
  EXPECT_EQ(store.WriteTimestamp(0), Ts(10));
  ASSERT_TRUE(
      store.Apply(Operation::TimestampedWrite(0, Value(int64_t{7}), Ts(11, 1)))
          .ok());
  EXPECT_EQ(store.Read(0).AsInt(), 7);
}

TEST(MvStoreTest, TimestampedWritesConvergeRegardlessOfOrder) {
  std::vector<Operation> ops = {
      Operation::TimestampedWrite(0, Value(int64_t{1}), Ts(1, 0)),
      Operation::TimestampedWrite(0, Value(int64_t{2}), Ts(2, 1)),
      Operation::TimestampedWrite(0, Value(int64_t{3}), Ts(3, 0)),
  };
  MvStore forward, reverse;
  ASSERT_TRUE(forward.ApplyAll(ops).ok());
  std::reverse(ops.begin(), ops.end());
  ASSERT_TRUE(reverse.ApplyAll(ops).ok());
  EXPECT_EQ(forward.Read(0).AsInt(), 3);
  EXPECT_EQ(forward.Read(0), reverse.Read(0));
  EXPECT_EQ(forward.StateDigest(), reverse.StateDigest());
}

TEST(MvStoreTest, ApplyRejectsReadAndMaterializesIgnoredWrites) {
  MvStore store;
  EXPECT_FALSE(store.Apply(Operation::Read(0)).ok());
  EXPECT_EQ(store.ObjectCount(), 0);
  // A Thomas-ignored stale write still materializes the entry.
  ASSERT_TRUE(
      store.Apply(Operation::TimestampedWrite(1, Value(int64_t{9}), Ts(5)))
          .ok());
  ASSERT_TRUE(
      store.Apply(Operation::TimestampedWrite(2, Value(int64_t{1}), Ts(0)))
          .ok());
  EXPECT_EQ(store.ObjectCount(), 2);
}

TEST(MvStoreTest, RestoreBypassesSemantics) {
  MvStore store;
  ASSERT_TRUE(store.Apply(Operation::Increment(9, 4)).ok());
  store.Restore(9, Value(int64_t{-1}));
  EXPECT_EQ(store.Read(9).AsInt(), -1);
}

TEST(MvStoreTest, ObjectIdsSorted) {
  MvStore store(MvStoreOptions{.partitions = 8});
  ASSERT_TRUE(store.Apply(Operation::Increment(9, 1)).ok());
  ASSERT_TRUE(store.Apply(Operation::Increment(2, 1)).ok());
  store.AppendVersion(7, Ts(1), Value(int64_t{1}));
  ASSERT_TRUE(store.Apply(Operation::Increment(5, 1)).ok());
  EXPECT_EQ(store.ObjectIds(), (std::vector<ObjectId>{2, 5, 7, 9}));
}

TEST(MvStoreTest, SingleVersionDigestMatchesPinnedValue) {
  const std::vector<std::tuple<ObjectId, Value, LamportTimestamp>> expected =
      {{1, Value(int64_t{23}), kZeroTimestamp},
       {12, Value(std::string("s")), kZeroTimestamp}};
  for (int parts : {1, 8}) {
    MvStore store(MvStoreOptions{.partitions = parts});
    ASSERT_TRUE(store.Apply(Operation::Increment(1, 23)).ok());
    ASSERT_TRUE(store.Apply(Operation::Append(12, "s")).ok());
    EXPECT_EQ(store.StateDigest(), 0xfd3fd8795a45686full) << parts;
    EXPECT_EQ(store.SnapshotEntries(), expected) << parts;
  }
}

TEST(MvStoreTest, SingleVersionDigestSeparatesIdAndValueFields) {
  // (id=1, value=23) and (id=12, value=3) both render to the byte stream
  // "123" without a field separator — distinct states must not collide.
  MvStore a, b;
  ASSERT_TRUE(a.Apply(Operation::Write(1, Value(int64_t{23}))).ok());
  ASSERT_TRUE(b.Apply(Operation::Write(12, Value(int64_t{3}))).ok());
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  // Equal states digest equally however they were reached.
  MvStore c, d;
  ASSERT_TRUE(c.Apply(Operation::Increment(3, 7)).ok());
  ASSERT_TRUE(d.Apply(Operation::Increment(3, 3)).ok());
  ASSERT_TRUE(d.Apply(Operation::Increment(3, 4)).ok());
  EXPECT_EQ(c.StateDigest(), d.StateDigest());
}

TEST(MvStoreTest, RestoreEntryRoundTripsSnapshot) {
  MvStore a(MvStoreOptions{.partitions = 4});
  ASSERT_TRUE(a.Apply(Operation::Increment(3, 7)).ok());
  ASSERT_TRUE(
      a.Apply(Operation::TimestampedWrite(9, Value(int64_t{2}), Ts(4))).ok());
  MvStore b;
  for (const auto& [id, value, ts] : a.SnapshotEntries()) {
    b.RestoreEntry(id, value, ts);
  }
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  EXPECT_EQ(b.WriteTimestamp(9), Ts(4));
}

// One object holding both roles pins the digest order: the id, then its
// chain, then its current value. Around it sit a chain-only object that a
// Thomas-ignored write materialized (its timestamp is below every real one)
// and a current-only object whose write timestamp a zero-stamped
// RestoreEntry cleared.
TEST(MvStoreTest, MixedRoleStatePinned) {
  const std::vector<std::tuple<ObjectId, Value, LamportTimestamp>> entries = {
      {2, Value(int64_t{12}), kZeroTimestamp},
      {5, Value(int64_t{7}), Ts(4, 2)},
      {13, Value(), kZeroTimestamp}};
  for (int parts : {1, 8, 64}) {
    MvStore store(MvStoreOptions{.partitions = parts});
    store.AppendVersion(5, Ts(2, 1), Value(int64_t{20}));
    store.AppendVersion(5, Ts(6, 0), Value(std::string("y")));
    ASSERT_TRUE(
        store.Apply(Operation::TimestampedWrite(5, Value(int64_t{7}), Ts(4, 2)))
            .ok());
    ASSERT_TRUE(
        store.Apply(Operation::TimestampedWrite(5, Value(int64_t{99}), Ts(3)))
            .ok());
    store.AppendVersion(13, Ts(1, 0), Value(int64_t{-3}));
    ASSERT_TRUE(
        store.Apply(Operation::TimestampedWrite(13, Value(int64_t{8}), Ts(-1)))
            .ok());
    store.RestoreEntry(2, Value(int64_t{11}), Ts(9, 1));
    store.RestoreEntry(2, Value(int64_t{12}), kZeroTimestamp);

    EXPECT_EQ(store.StateDigest(), 0x03fb3aa9b43548f3ull) << parts;
    EXPECT_EQ(store.LatestDigest(), 0x53148aec0f0898dcull) << parts;
    EXPECT_EQ(store.ObjectIds(), (std::vector<ObjectId>{2, 5, 13})) << parts;
    EXPECT_EQ(store.ObjectCount(), 3) << parts;
    EXPECT_EQ(store.SnapshotEntries(), entries) << parts;
    EXPECT_EQ(store.Read(13), Value()) << parts;
    EXPECT_EQ(store.WriteTimestamp(2), kZeroTimestamp) << parts;
    EXPECT_EQ(store.WriteTimestamp(5), Ts(4, 2)) << parts;
    EXPECT_EQ(store.MaxChainLength(), 2) << parts;

    store.Clear();
    EXPECT_EQ(store.StateDigest(), MvStore().StateDigest()) << parts;
    EXPECT_EQ(store.WriteTimestamp(5), kZeroTimestamp) << parts;
    EXPECT_EQ(store.MaxChainLength(), 0) << parts;
  }
}

// --- Version GC -------------------------------------------------------------

TEST(MvStoreTest, GcKeepsNewestVersionAtOrBelowWatermark) {
  MvStore store(MvStoreOptions{.partitions = 4});
  for (int64_t c = 1; c <= 10; ++c) {
    store.AppendVersion(1, Ts(c), Value(c));
  }
  // Watermark exactly on a version: that version survives; everything
  // strictly older goes.
  EXPECT_EQ(store.GcBelow(Ts(6)), 5);
  EXPECT_EQ(store.VersionCount(1), 5);
  ASSERT_TRUE(store.ReadAtOrBefore(1, Ts(6)).has_value());
  EXPECT_EQ(store.ReadAtOrBefore(1, Ts(6))->value.AsInt(), 6);
  EXPECT_FALSE(store.ReadAtOrBefore(1, Ts(5)).has_value());
  EXPECT_EQ(store.gc_floor(), Ts(6));
}

TEST(MvStoreTest, GcBetweenVersionsKeepsTheOneBelow) {
  MvStore store;
  store.AppendVersion(1, Ts(2), Value(int64_t{2}));
  store.AppendVersion(1, Ts(8), Value(int64_t{8}));
  // Watermark between versions: Ts(2) is the newest at-or-below version
  // and must survive so ReadAtOrBefore(watermark) still answers.
  EXPECT_EQ(store.GcBelow(Ts(5)), 0);
  EXPECT_EQ(store.ReadAtOrBefore(1, Ts(5))->value.AsInt(), 2);
}

TEST(MvStoreTest, GcNeverEmptiesAChain) {
  MvStore store;
  store.AppendVersion(1, Ts(1), Value(int64_t{1}));
  EXPECT_EQ(store.GcBelow(Ts(100)), 0);
  EXPECT_EQ(store.VersionCount(1), 1);
  ASSERT_TRUE(store.ReadLatest(1).has_value());
}

TEST(MvStoreTest, GcBoundsChainsUnderSustainedWrites) {
  MvStore store(MvStoreOptions{.partitions = 8});
  // Writer advances, GC follows at a lag: chains stay bounded by the lag,
  // not by the write count.
  constexpr int64_t kLag = 16;
  for (int64_t c = 1; c <= 1000; ++c) {
    store.AppendVersion(c % 5, Ts(c), Value(c));
    if (c > kLag) store.GcBelow(Ts(c - kLag));
  }
  EXPECT_LE(store.MaxChainLength(), kLag + 1);
  EXPECT_GT(store.gc_pruned_total(), 0);
  // Digest over latest versions is what convergence checks under GC.
  EXPECT_NE(store.LatestDigest(), 0u);
}

TEST(MvStoreTest, LatestDigestInvariantUnderGc) {
  MvStore pruned(MvStoreOptions{.partitions = 2});
  MvStore full(MvStoreOptions{.partitions = 16});
  for (int64_t c = 1; c <= 20; ++c) {
    pruned.AppendVersion(c % 3, Ts(c), Value(c));
    full.AppendVersion(c % 3, Ts(c), Value(c));
  }
  ASSERT_EQ(pruned.LatestDigest(), full.LatestDigest());
  pruned.GcBelow(Ts(15));
  EXPECT_NE(pruned.StateDigest(), full.StateDigest());
  EXPECT_EQ(pruned.LatestDigest(), full.LatestDigest());
}

TEST(MvStoreTest, SetGcFloorIsMonotone) {
  MvStore store;
  store.SetGcFloor(Ts(5));
  store.SetGcFloor(Ts(3));
  EXPECT_EQ(store.gc_floor(), Ts(5));
}

// --- Clear ------------------------------------------------------------------

TEST(MvStoreTest, ClearDropsEverything) {
  MvStore store(MvStoreOptions{.partitions = 4});
  store.AppendVersion(1, Ts(1), Value(int64_t{1}));
  ASSERT_TRUE(store.Apply(Operation::Increment(2, 5)).ok());
  store.GcBelow(Ts(1));
  store.Clear();
  EXPECT_TRUE(store.ObjectIds().empty());
  EXPECT_EQ(store.ObjectCount(), 0);
  EXPECT_TRUE(store.SnapshotVersions().empty());
  EXPECT_EQ(store.gc_floor(), kZeroTimestamp);
  EXPECT_FALSE(store.ReadLatest(1).has_value());
  EXPECT_EQ(store.Read(2), Value());
}

TEST(MvStoreTest, PartitionCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MvStore(MvStoreOptions{.partitions = 1}).partition_count(), 1);
  EXPECT_EQ(MvStore(MvStoreOptions{.partitions = 3}).partition_count(), 4);
  EXPECT_EQ(MvStore(MvStoreOptions{.partitions = 8}).partition_count(), 8);
  EXPECT_EQ(MvStore(MvStoreOptions{.partitions = -2}).partition_count(), 1);
}

}  // namespace
}  // namespace esr::store
