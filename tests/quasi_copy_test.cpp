#include "esr/quasi_copy.h"

#include <vector>

#include <gtest/gtest.h>

#include "analysis/sr_checker.h"
#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;
using test::RunQuery;

TEST(QuasiCopyTest, PrimaryAppliesAndCachesRefresh) {
  auto config = Config(Method::kQuasiCopy);
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 5)});
  system.RunUntilQuiescent();
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(system.SiteValue(s, 0).AsInt(), 5) << "site " << s;
  }
  EXPECT_TRUE(system.Converged());
}

TEST(QuasiCopyTest, RemoteUpdatePaysPrimaryRoundTrip) {
  auto config = Config(Method::kQuasiCopy);
  config.network.base_latency_us = 40'000;
  config.network.jitter_us = 0;
  ReplicatedSystem system(config);
  SimTime committed_at = -1;
  MustSubmit(system, 2, {Operation::Increment(0, 1)},
             [&](Status s) {
               ASSERT_TRUE(s.ok());
               committed_at = system.simulator().Now();
             });
  system.RunUntilQuiescent();
  EXPECT_GE(committed_at, 80'000) << "forward + ack round trip";
}

TEST(QuasiCopyTest, VersionLagBatchesRefreshes) {
  auto config = Config(Method::kQuasiCopy);
  config.quasi_version_lag = 3;
  ReplicatedSystem system(config);
  // Two updates: below the lag bound, caches stay stale.
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunFor(300'000);
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 2) << "primary current";
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 0) << "cache lags within bound";
  auto* primary = static_cast<QuasiCopyMethod*>(system.site_method(0));
  EXPECT_EQ(primary->DirtyCount(), 1);
  // Third update trips the version condition.
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunFor(300'000);
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 3);
  EXPECT_EQ(primary->DirtyCount(), 0);
}

TEST(QuasiCopyTest, QuiesceFlushConvergesLaggingCaches) {
  auto config = Config(Method::kQuasiCopy);
  config.quasi_version_lag = 100;  // never trips on its own
  ReplicatedSystem system(config);
  MustSubmit(system, 1, {Operation::Increment(0, 9)});
  system.RunUntilQuiescent();  // drains with a final flush
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 9);
}

TEST(QuasiCopyTest, PeriodicRefreshViaDelayCondition) {
  auto config = Config(Method::kQuasiCopy);
  config.quasi_version_lag = 1'000;
  config.quasi_refresh_interval_us = 50'000;
  config.heartbeat_interval_us = 50'000;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 4)});
  system.RunFor(400'000);
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 4)
      << "delay condition refreshed the cache without hitting the lag bound";
}

TEST(QuasiCopyTest, DelayConditionFiresWithHeartbeatsDisabled) {
  // Regression: the periodic refresh used to ride the heartbeat schedule,
  // so refresh_interval > 0 with heartbeats off silently never refreshed.
  auto config = Config(Method::kQuasiCopy);
  config.quasi_version_lag = 1'000;  // version condition out of the way
  config.quasi_refresh_interval_us = 20'000;
  config.heartbeat_interval_us = 0;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 6)});
  system.RunFor(200'000);
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 6)
      << "delay condition must run on its own timer, not on heartbeats";
}

TEST(QuasiCopyTest, DelayConditionHonorsConfiguredInterval) {
  // Regression: with both timers configured, refresh used to run at
  // heartbeat cadence. A 20ms refresh interval under a 300ms heartbeat
  // must still propagate well before the first heartbeat.
  auto config = Config(Method::kQuasiCopy);
  config.quasi_version_lag = 1'000;
  config.quasi_refresh_interval_us = 20'000;
  config.heartbeat_interval_us = 300'000;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 8)});
  system.RunFor(100'000);  // several refresh periods, zero heartbeats
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 8)
      << "refresh cadence must follow quasi_refresh_interval_us";
}

TEST(QuasiCopyTest, UpdatesAre1srAtPrimary) {
  auto config = Config(Method::kQuasiCopy, 3, 111);
  config.network.jitter_us = 3'000;
  ReplicatedSystem system(config);
  for (int i = 0; i < 15; ++i) {
    MustSubmit(system, i % 3, {Operation::Write(0, Value(int64_t{i}))});
    system.RunFor(2'000);
  }
  system.RunUntilQuiescent();
  auto sr = analysis::CheckUpdateSerializability(system.history(), 3);
  EXPECT_TRUE(sr.serializable) << sr.violation;
  EXPECT_TRUE(system.Converged());
}

TEST(QuasiCopyTest, CachesAnswerStaleDuringPartitionUpdatesBlock) {
  auto config = Config(Method::kQuasiCopy);
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 7)});
  system.RunUntilQuiescent();
  system.network().SetPartition({{0}, {1, 2}});
  // Cache reads keep working (the read-only redundancy win)...
  auto values = RunQuery(system, 2, kUnboundedEpsilon, {0});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].AsInt(), 7);
  // ...but updates from the partitioned side block on the primary.
  bool committed = false;
  MustSubmit(system, 1, {Operation::Increment(0, 1)},
             [&](Status) { committed = true; });
  system.RunFor(400'000);
  EXPECT_FALSE(committed) << "primary unreachable: no update 1SR possible";
  system.network().HealPartition();
  system.RunUntilQuiescent();
  EXPECT_TRUE(committed);
  EXPECT_TRUE(system.Converged());
}

TEST(QuasiCopyTest, RefreshReorderingCannotRegressCaches) {
  auto config = Config(Method::kQuasiCopy, 3, 113);
  // Jitter reorders the refresh datagrams on the wire; the stable queues
  // hold each one back until the refreshes before it arrive, so every
  // cache applies them in send order.
  config.network.jitter_us = 8'000;
  ReplicatedSystem system(config);
  for (int i = 1; i <= 10; ++i) {
    MustSubmit(system, 0, {Operation::Write(0, Value(int64_t{i}))});
    system.RunFor(1'000);
  }
  system.RunUntilQuiescent();
  // Timestamped refreshes: the newest value wins everywhere.
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 10);
  // The queues never reorder, so hand cache 1 a refresh older than the
  // newest one it applied: the store's Thomas rule must ignore it.
  const LamportTimestamp newest = system.site_store(1).WriteTimestamp(0);
  ASSERT_GT(newest, kZeroTimestamp);
  Mset stale;
  stale.et = -1'000;  // synthetic refresh id, like the primary's
  stale.origin = 0;
  stale.timestamp = LamportTimestamp{newest.counter - 1, newest.site};
  stale.operations = {
      Operation::TimestampedWrite(0, Value(int64_t{3}), stale.timestamp)};
  system.site_method(1)->DeliverMset(stale);
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 10);
  EXPECT_EQ(system.site_store(1).WriteTimestamp(0), newest);
  EXPECT_TRUE(system.Converged());
}

TEST(QuasiCopyTest, RefreshTimerRunPinnedDigests) {
  // Pins a run whose caches are refreshed only by the delay condition's
  // timer, alongside heartbeats, across a quiescent drain that stops every
  // periodic timer and starts it again. The cache values sampled after
  // each step record when the refreshes landed.
  auto config = Config(Method::kQuasiCopy, 3, 29);
  config.quasi_version_lag = 1'000;  // version condition out of the way
  config.quasi_refresh_interval_us = 20'000;
  config.network.jitter_us = 2'000;
  ReplicatedSystem system(config);
  std::vector<int64_t> cached;
  for (int round = 0; round < 3; ++round) {
    for (SiteId s = 0; s < 3; ++s) {
      MustSubmit(system, s, {Operation::Increment(s, round + 1)});
    }
    system.RunFor(15'000);
    for (ObjectId object = 0; object < 3; ++object) {
      cached.push_back(system.SiteValue(2, object).AsInt());
    }
  }
  system.RunUntilQuiescent();
  MustSubmit(system, 1, {Operation::Increment(0, 7)});
  system.RunFor(15'000);
  cached.push_back(system.SiteValue(2, 0).AsInt());
  system.RunFor(15'000);
  cached.push_back(system.SiteValue(2, 0).AsInt());
  EXPECT_EQ(cached, (std::vector<int64_t>{0, 0, 0, 3, 3, 3, 6, 6, 6, 6, 13}));
  EXPECT_EQ(test::EventCount(system, "quasi.refreshes"), 7);
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0x33a2de9651e57890ull, 0x33a2de9651e57890ull, 0x33a2de9651e57890ull},
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {"queue.delivered=14 queue.sent=31", "queue.delivered=19 queue.sent=12",
        "queue.delivered=19 queue.sent=9"}});
}

}  // namespace
}  // namespace esr::core
