#include "store/mset_log.h"

#include <gtest/gtest.h>

namespace esr::store {
namespace {

TEST(MsetLogTest, ApplyAndLogAppliesOps) {
  MvStore store;
  MsetLog log;
  ASSERT_TRUE(log.ApplyAndLog(store, 1, {Operation::Increment(0, 10)}).ok());
  EXPECT_EQ(store.Read(0).AsInt(), 10);
  EXPECT_TRUE(log.Contains(1));
  EXPECT_EQ(log.size(), 1);
}

TEST(MsetLogTest, DuplicateMsetIdRejected) {
  MvStore store;
  MsetLog log;
  ASSERT_TRUE(log.ApplyAndLog(store, 1, {Operation::Increment(0, 1)}).ok());
  EXPECT_EQ(log.ApplyAndLog(store, 1, {Operation::Increment(0, 1)}).code(),
            StatusCode::kAlreadyExists);
}

TEST(MsetLogTest, ReadOperationsRejected) {
  MvStore store;
  MsetLog log;
  EXPECT_FALSE(log.ApplyAndLog(store, 1, {Operation::Read(0)}).ok());
}

TEST(MsetLogTest, FastPathCompensatesTailIncrement) {
  MvStore store;
  MsetLog log;
  ASSERT_TRUE(log.ApplyAndLog(store, 1, {Operation::Increment(0, 10)}).ok());
  ASSERT_TRUE(log.ApplyAndLog(store, 2, {Operation::Increment(0, 5)}).ok());
  ASSERT_TRUE(log.Compensate(store, 1).ok());
  EXPECT_EQ(store.Read(0).AsInt(), 5);
  EXPECT_FALSE(log.Contains(1));
  EXPECT_EQ(log.stats().fast_path, 1);
  EXPECT_EQ(log.stats().general_rollbacks, 0);
}

TEST(MsetLogTest, PaperExampleIncThenMulNeedsRollback) {
  // Inc(x,10) . Mul(x,2): compensating the Inc must NOT just apply Dec —
  // the log is rolled back and replayed (paper section 4.1).
  MvStore store;
  store.Restore(0, Value(int64_t{1}));
  MsetLog log;
  ASSERT_TRUE(log.ApplyAndLog(store, 1, {Operation::Increment(0, 10)}).ok());
  ASSERT_TRUE(log.ApplyAndLog(store, 2, {Operation::Multiply(0, 2)}).ok());
  EXPECT_EQ(store.Read(0).AsInt(), 22);  // (1+10)*2
  ASSERT_TRUE(log.Compensate(store, 1).ok());
  EXPECT_EQ(store.Read(0).AsInt(), 2);  // Mul(x,2) alone on initial 1
  EXPECT_EQ(log.stats().general_rollbacks, 1);
  EXPECT_EQ(log.stats().fast_path, 0);
  EXPECT_TRUE(log.Contains(2));
}

TEST(MsetLogTest, GeneralRollbackReplaysSuffix) {
  MvStore store;
  MsetLog log;
  ASSERT_TRUE(log.ApplyAndLog(store, 1, {Operation::Write(0, Value(int64_t{5}))}).ok());
  ASSERT_TRUE(log.ApplyAndLog(store, 2, {Operation::Write(0, Value(int64_t{7}))}).ok());
  ASSERT_TRUE(log.ApplyAndLog(store, 3, {Operation::Increment(1, 4)}).ok());
  // Compensate the middle write: final state must look as if only 1 and 3
  // ran.
  ASSERT_TRUE(log.Compensate(store, 2).ok());
  EXPECT_EQ(store.Read(0).AsInt(), 5);
  EXPECT_EQ(store.Read(1).AsInt(), 4);
  EXPECT_EQ(log.MsetIds(), (std::vector<int64_t>{1, 3}));
}

TEST(MsetLogTest, FastPathAdjustsLaterBeforeImages) {
  MvStore store;
  MsetLog log;
  ASSERT_TRUE(log.ApplyAndLog(store, 1, {Operation::Increment(0, 10)}).ok());
  ASSERT_TRUE(log.ApplyAndLog(store, 2, {Operation::Increment(0, 5)}).ok());
  ASSERT_TRUE(log.ApplyAndLog(store, 3, {Operation::Increment(0, 3)}).ok());
  // Fast-path compensate #1, then general-compensate #2: the rollback must
  // not resurrect #1's effect through stale before-images.
  ASSERT_TRUE(log.Compensate(store, 1).ok());
  EXPECT_EQ(store.Read(0).AsInt(), 8);
  ASSERT_TRUE(log.Compensate(store, 2).ok());
  EXPECT_EQ(store.Read(0).AsInt(), 3);
}

TEST(MsetLogTest, CompensateUnknownMsetFails) {
  MvStore store;
  MsetLog log;
  EXPECT_TRUE(log.Compensate(store, 99).IsNotFound());
}

TEST(MsetLogTest, CompensateSoleRecord) {
  MvStore store;
  MsetLog log;
  ASSERT_TRUE(log.ApplyAndLog(store, 1, {Operation::Write(0, Value(int64_t{3}))}).ok());
  ASSERT_TRUE(log.Compensate(store, 1).ok());
  EXPECT_EQ(store.Read(0), Value());
  EXPECT_EQ(log.size(), 0);
}

TEST(MsetLogTest, RituOverwriteRollbackRestoresOldValue) {
  // "In order to rollback RITU with overwrite we must also record the value
  // being overwritten on the log."
  MvStore store;
  MsetLog log;
  ASSERT_TRUE(store
                  .Apply(Operation::TimestampedWrite(0, Value(int64_t{1}),
                                                     {1, 0}))
                  .ok());
  ASSERT_TRUE(log.ApplyAndLog(store, 5,
                              {Operation::TimestampedWrite(
                                  0, Value(int64_t{9}), {2, 0})})
                  .ok());
  EXPECT_EQ(store.Read(0).AsInt(), 9);
  ASSERT_TRUE(log.Compensate(store, 5).ok());
  EXPECT_EQ(store.Read(0).AsInt(), 1);
}

TEST(MsetLogTest, TruncateStableDropsPrefixOnly) {
  MvStore store;
  MsetLog log;
  for (int64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(log.ApplyAndLog(store, id, {Operation::Increment(0, 1)}).ok());
  }
  // 1 and 2 stable, 3 not, 4 stable: truncation stops at 3.
  const int64_t dropped = log.TruncateStable(
      [](int64_t id) { return id == 1 || id == 2 || id == 4; });
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(log.MsetIds(), (std::vector<int64_t>{3, 4}));
}

TEST(MsetLogTest, MultiObjectMsetBeforeImagesPerObject) {
  MvStore store;
  MsetLog log;
  store.Restore(0, Value(int64_t{100}));
  store.Restore(1, Value(int64_t{200}));
  ASSERT_TRUE(log.ApplyAndLog(store, 1,
                              {Operation::Write(0, Value(int64_t{-1})),
                               Operation::Write(1, Value(int64_t{-2}))})
                  .ok());
  ASSERT_TRUE(log.Compensate(store, 1).ok());
  EXPECT_EQ(store.Read(0).AsInt(), 100);
  EXPECT_EQ(store.Read(1).AsInt(), 200);
}

}  // namespace
}  // namespace esr::store
