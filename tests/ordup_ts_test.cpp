#include "esr/ordup_ts.h"

#include <gtest/gtest.h>

#include "analysis/query_checker.h"
#include "analysis/sr_checker.h"
#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;
using test::RunQuery;

TEST(OrdupTsTest, LocalCommitIsImmediateUnlikeCentralOrdup) {
  auto config = Config(Method::kOrdupTs);
  config.network.base_latency_us = 50'000;
  ReplicatedSystem system(config);
  SimTime committed_at = -1;
  MustSubmit(system, 1, {Operation::Increment(0, 1)},
             [&](Status) { committed_at = system.simulator().Now(); });
  EXPECT_EQ(committed_at, 0)
      << "no order-server round trip in the decentralized variant";
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(OrdupTsTest, ReleaseWaitsForWatermarkFloor) {
  auto config = Config(Method::kOrdupTs);
  config.network.base_latency_us = 30'000;
  config.heartbeat_interval_us = 10'000;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Write(0, Value(int64_t{5}))});
  auto* method = static_cast<OrdupTsMethod*>(system.site_method(0));
  // Even the origin holds its own MSet until the other origins' clocks
  // pass its timestamp.
  EXPECT_EQ(method->ReleaseIndex(), 0);
  EXPECT_EQ(method->HeldCount(), 1);
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 0);
  system.RunUntilQuiescent();
  EXPECT_EQ(method->ReleaseIndex(), 1);
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 5);
}

TEST(OrdupTsTest, NonCommutativeUpdatesConvergeInTimestampOrder) {
  auto config = Config(Method::kOrdupTs, 4, 91);
  config.network.jitter_us = 5'000;
  ReplicatedSystem system(config);
  for (int i = 0; i < 16; ++i) {
    MustSubmit(system, i % 4,
               {Operation::Write(0, Value(int64_t{100 + i})),
                Operation::Append(1, "x")});
    system.RunFor(2'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 1).AsString().size(), 16u);
  auto sr = analysis::CheckUpdateSerializability(system.history(), 4);
  EXPECT_TRUE(sr.serializable) << sr.violation;
}

TEST(OrdupTsTest, SurvivesLossAndReordering) {
  auto config = Config(Method::kOrdupTs, 3, 93);
  config.network.loss_probability = 0.2;
  config.network.jitter_us = 4'000;
  ReplicatedSystem system(config);
  for (int i = 0; i < 20; ++i) {
    MustSubmit(system, i % 3, {Operation::Increment(0, 1)});
    system.RunFor(1'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 20);
}

TEST(OrdupTsTest, EpsilonZeroQueryPausesReleaseAndIsSr) {
  auto config = Config(Method::kOrdupTs);
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunUntilQuiescent();

  const EtId q = system.BeginQuery(1, /*epsilon=*/0);
  Result<Value> first = system.TryRead(q, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->AsInt(), 1);
  MustSubmit(system, 0, {Operation::Increment(0, 100)});
  system.RunFor(1'000'000);
  Result<Value> second = system.TryRead(q, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->AsInt(), 1) << "release paused at the query's pin";
  EXPECT_EQ(system.query_state(q)->inconsistency, 0);
  ASSERT_TRUE(system.EndQuery(q).ok());
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 101);
}

TEST(OrdupTsTest, QueryChargedPerConflictingReleasedUpdate) {
  auto config = Config(Method::kOrdupTs);
  ReplicatedSystem system(config);
  const EtId q = system.BeginQuery(1, /*epsilon=*/10);
  ASSERT_TRUE(system.TryRead(q, 0).ok());
  for (int i = 0; i < 3; ++i) {
    MustSubmit(system, 0, {Operation::Increment(0, 1)});
  }
  system.RunUntilQuiescent();
  Result<Value> second = system.TryRead(q, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->AsInt(), 3);
  EXPECT_EQ(system.query_state(q)->inconsistency, 3);
  ASSERT_TRUE(system.TryRead(q, 0).ok());
  EXPECT_EQ(system.query_state(q)->inconsistency, 3) << "no double charge";
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(OrdupTsTest, LimitForcesStrictRestartViaReadApi) {
  auto config = Config(Method::kOrdupTs);
  ReplicatedSystem system(config);
  const EtId q = system.BeginQuery(1, /*epsilon=*/1);
  ASSERT_TRUE(system.TryRead(q, 0).ok());
  for (int i = 0; i < 4; ++i) {
    MustSubmit(system, 0, {Operation::Increment(0, 1)});
  }
  system.RunUntilQuiescent();
  Result<Value> direct = system.TryRead(q, 0);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsInconsistencyLimit());
  bool done = false;
  system.Read(q, 0, [&](Result<Value> v) {
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->AsInt(), 4);
    done = true;
  });
  system.RunUntilQuiescent();
  EXPECT_TRUE(done);
  EXPECT_EQ(system.query_state(q)->restarts, 1);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(OrdupTsTest, Epsilon0QueriesPrefixConsistentUnderChurn) {
  auto config = Config(Method::kOrdupTs, 3, 95);
  config.network.jitter_us = 2'000;
  config.heartbeat_interval_us = 5'000;
  ReplicatedSystem system(config);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) {
      MustSubmit(system, i,
                 {Operation::Increment(i % 2, 1),
                  Operation::Increment(2 + (i % 2), 1)});
    }
    system.RunFor(20'000);
    RunQuery(system, round % 3, /*epsilon=*/0, {0, 1, 2, 3});
  }
  system.RunUntilQuiescent();
  auto sr = analysis::CheckUpdateSerializability(system.history(), 3);
  ASSERT_TRUE(sr.serializable) << sr.violation;
  auto reports = analysis::AnalyzeQueries(system.history(), sr.serial_order);
  ASSERT_EQ(reports.size(), 5u);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.prefix_consistent)
        << "epsilon=0 ORDUP-TS query " << r.query << " must be 1SR";
  }
}

TEST(OrdupTsTest, RestartWhilePausedDoesNotLeakReleasePause) {
  // Same regression as ORDUP's: a strict query restarted while pausing the
  // release path must hand the pause back (OnQueryRestart), or the site's
  // holdback buffer never drains again.
  ReplicatedSystem system(Config(Method::kOrdupTs));
  ReplicaControlMethod* m = system.site_method(1);
  QueryState q;
  q.id = 999;
  q.site = 1;
  q.epsilon = 0;  // strict from the first read: pauses the release
  ASSERT_TRUE(m->TryQueryRead(q, 0).ok());
  ASSERT_TRUE(q.holds_pause);
  m->OnQueryRestart(q);
  EXPECT_FALSE(q.holds_pause);
  q.ResetForRestart();
  MustSubmit(system, 0, {Operation::Increment(0, 5)});
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 5)
      << "release path must make progress after the restart";
  // And the facade-style sequence without the hook: reset while holding,
  // strict re-read must not stack a second pause, OnQueryEnd releases all.
  QueryState q2;
  q2.id = 998;
  q2.site = 1;
  q2.epsilon = 0;
  ASSERT_TRUE(m->TryQueryRead(q2, 0).ok());
  ASSERT_TRUE(q2.holds_pause);
  q2.ResetForRestart();
  ASSERT_TRUE(m->TryQueryRead(q2, 0).ok());
  m->OnQueryEnd(q2);
  EXPECT_FALSE(q2.holds_pause);
  MustSubmit(system, 0, {Operation::Increment(0, 2)});
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 7);
  EXPECT_TRUE(system.Converged());
}

TEST(OrdupTsTest, CrashedOriginStallsReleasesButNotCommits) {
  // The decentralized trade: no order-server dependency for COMMITS (they
  // stay local even with site 0 down), but a dead origin freezes the
  // watermark floor, so RELEASES stall everywhere until it returns — the
  // classic weakness of watermark-based total order, demonstrated.
  auto config = Config(Method::kOrdupTs, 3, 97);
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(sim::CrashSpec{0, 1'000, 800'000});
  system.RunFor(5'000);
  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    MustSubmit(system, 1 + (i % 2), {Operation::Increment(0, 1)},
               [&](Status s) { committed += s.ok(); });
  }
  EXPECT_EQ(committed, 5) << "commits are local; no order server involved";
  system.RunFor(300'000);
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 0)
      << "releases wait on the crashed origin's watermark";
  system.RunUntilQuiescent();  // site 0 restarts; heartbeats resume
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 5);
}

// Overlapping finite-epsilon queries under churn, captured at a known-good
// commit: every query's reads and final accounting, the limit-hit count and
// every site's digest. A change to how ORDUP-TS indexes released writes,
// charges reads or pauses the release path must leave all of them
// unchanged.
TEST(OrdupTsTest, OverlappingBoundedQueriesUnderChurnPinnedDigests) {
  auto config = Config(Method::kOrdupTs, 3, 29);
  config.network.jitter_us = 2'000;
  config.heartbeat_interval_us = 5'000;
  ReplicatedSystem system(config);
  const std::vector<ObjectId> objects = {0, 1, 2, 3};
  for (SimTime t = 0; t < 150'000; t += 1'500) {
    system.simulator().ScheduleAt(t, [&system, t]() {
      const int i = static_cast<int>(t / 1'500);
      (void)system.SubmitUpdate(i % 3, {Operation::Increment(i % 4, 1)});
    });
  }
  const std::vector<test::QueryOutcome> outcomes = test::RunOverlappingQueries(
      system, {0, 1, 2}, objects, /*rounds=*/24, /*lifetime=*/4,
      /*gap_us=*/4'000);
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  test::ExpectOutcomes(system, outcomes,
                       {{{0, 0, 1, 1}, 0, 1},
                        {{0, 1, 2, 2}, 0, 1},
                        {{1, 2, 3, 3}, 2, 0},
                        {{1, 2, 3, 3}, 0, 1},
                        {{1, 3, 3, 4}, 0, 1},
                        {{3, 4, 4, 5}, 2, 0},
                        {{3, 4, 5, 5}, 0, 1},
                        {{4, 5, 5, 6}, 2, 0},
                        {{4, 5, 6, 6}, 2, 0},
                        {{5, 7, 7, 7}, 0, 1},
                        {{6, 7, 8, 9}, 0, 1},
                        {{7, 7, 8, 8}, 1, 0},
                        {{6, 8, 8, 8}, 0, 1},
                        {{8, 9, 10, 10}, 2, 0},
                        {{9, 10, 10, 11}, 2, 0},
                        {{8, 10, 10, 10}, 0, 1},
                        {{10, 10, 11, 12}, 2, 0},
                        {{11, 12, 13, 14}, 3, 0},
                        {{11, 12, 13, 13}, 0, 1},
                        {{12, 13, 14, 14}, 2, 0},
                        {{12, 12, 14, 15}, 3, 0},
                        {{13, 14, 15}, 0, 1},
                        {{13, 15}, 2, 0},
                        {{15}, 0, 0}},
                       /*pinned_limit_hits=*/11);
  // ORDUP-TS takes no order position: every committed update's is 0.
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0xe5bbf05ba2c8ec0full, 0xe5bbf05ba2c8ec0full, 0xe5bbf05ba2c8ec0full},
       std::vector<SequenceNumber>(100, 0),
       {"queue.delivered=244 queue.duplicate=76 queue.retransmit=59 "
        "queue.sent=246",
        "queue.delivered=244 queue.duplicate=77 queue.retransmit=82 "
        "queue.sent=243",
        "queue.delivered=244 queue.duplicate=75 queue.retransmit=87 "
        "queue.sent=243"}});
}

}  // namespace
}  // namespace esr::core
