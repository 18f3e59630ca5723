#include "esr/ordup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/query_checker.h"
#include "analysis/sr_checker.h"
#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;
using test::RunQuery;

TEST(OrdupTest, SingleUpdatePropagatesToAllReplicas) {
  ReplicatedSystem system(Config(Method::kOrdup));
  bool committed = false;
  MustSubmit(system, 0, {Operation::Increment(1, 10)},
             [&](Status s) { committed = s.ok(); });
  system.RunUntilQuiescent();
  EXPECT_TRUE(committed);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(system.SiteValue(s, 1).AsInt(), 10) << "site " << s;
  }
  EXPECT_TRUE(system.Converged());
}

TEST(OrdupTest, NonCommutativeUpdatesConvergeViaTotalOrder) {
  // Blind writes from different sites: without ordering, replicas would
  // disagree; ORDUP's total order makes them identical.
  auto config = Config(Method::kOrdup, 4, /*seed=*/7);
  config.network.jitter_us = 5'000;  // aggressive reordering
  ReplicatedSystem system(config);
  for (int i = 0; i < 12; ++i) {
    MustSubmit(system, i % 4,
               {Operation::Write(0, Value(int64_t{100 + i})),
                Operation::Append(1, "x")});
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(0, 1).AsString().size(), 12u);
}

TEST(OrdupTest, UpdateSubhistoryIsSerializable) {
  auto config = Config(Method::kOrdup, 3, 11);
  config.network.jitter_us = 3'000;
  ReplicatedSystem system(config);
  for (int i = 0; i < 20; ++i) {
    MustSubmit(system, i % 3,
               {Operation::Write(i % 4, Value(int64_t{i}))});
  }
  system.RunUntilQuiescent();
  auto result =
      analysis::CheckUpdateSerializability(system.history(), 3);
  EXPECT_TRUE(result.serializable) << result.violation;
  EXPECT_EQ(result.serial_order.size(), 20u);
}

TEST(OrdupTest, UnboundedQuerySeesLocalStateFreely) {
  ReplicatedSystem system(Config(Method::kOrdup));
  MustSubmit(system, 0, {Operation::Increment(0, 5)});
  system.RunUntilQuiescent();
  int64_t inconsistency = -1;
  auto values = RunQuery(system, 1, kUnboundedEpsilon, {0}, &inconsistency);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].AsInt(), 5);
  EXPECT_EQ(inconsistency, 0) << "no concurrent updates -> zero overlap";
}

TEST(OrdupTest, EpsilonZeroQueryIsStrictAndPausesApplier) {
  ReplicatedSystem system(Config(Method::kOrdup));
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunUntilQuiescent();

  const EtId q = system.BeginQuery(1, /*epsilon=*/0);
  Result<Value> first = system.TryRead(q, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->AsInt(), 1);

  // An update committed mid-query must NOT become visible at site 1 while
  // the strict query holds the pause.
  MustSubmit(system, 0, {Operation::Increment(0, 100)});
  system.RunFor(1'000'000);
  Result<Value> second = system.TryRead(q, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->AsInt(), 1) << "strict query reads at its pin";
  const QueryState* state = system.query_state(q);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->inconsistency, 0);
  ASSERT_TRUE(system.EndQuery(q).ok());

  // After the query ends the pause lifts and the site catches up.
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 101);
  EXPECT_TRUE(system.Converged());
}

TEST(OrdupTest, QueryChargedPerOverlappingConflictingUpdate) {
  ReplicatedSystem system(Config(Method::kOrdup));
  const EtId q = system.BeginQuery(1, /*epsilon=*/10);
  ASSERT_TRUE(system.TryRead(q, 0).ok());  // pin at watermark 0
  // Three conflicting updates land at site 1 while the query runs.
  for (int i = 0; i < 3; ++i) {
    MustSubmit(system, 0, {Operation::Increment(0, 1)});
  }
  system.RunUntilQuiescent();
  Result<Value> second = system.TryRead(q, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->AsInt(), 3);
  const QueryState* state = system.query_state(q);
  EXPECT_EQ(state->inconsistency, 3);
  // Re-reading without further updates must not double-charge.
  ASSERT_TRUE(system.TryRead(q, 0).ok());
  EXPECT_EQ(system.query_state(q)->inconsistency, 3);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(OrdupTest, ExhaustedBudgetForcesStrictRestart) {
  ReplicatedSystem system(Config(Method::kOrdup));
  const EtId q = system.BeginQuery(1, /*epsilon=*/1);
  ASSERT_TRUE(system.TryRead(q, 0).ok());
  for (int i = 0; i < 5; ++i) {
    MustSubmit(system, 0, {Operation::Increment(0, 1)});
  }
  system.RunUntilQuiescent();
  // Five conflicting updates > budget 1: direct attempt is rejected...
  Result<Value> direct = system.TryRead(q, 0);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsInconsistencyLimit());
  // ...but the retrying Read() API restarts the query strictly and
  // succeeds.
  bool done = false;
  int64_t value = -1;
  system.Read(q, 0, [&](Result<Value> v) {
    ASSERT_TRUE(v.ok());
    value = v->AsInt();
    done = true;
  });
  system.RunUntilQuiescent();
  ASSERT_TRUE(done);
  EXPECT_EQ(value, 5);
  const QueryState* state = system.query_state(q);
  EXPECT_EQ(state->restarts, 1);
  EXPECT_TRUE(state->strict);
  EXPECT_EQ(state->inconsistency, 0) << "fresh accounting after restart";
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(OrdupTest, RestartWhilePausedDoesNotLeakApplierPause) {
  // Regression: ResetForRestart() used to clear holds_pause without going
  // through ResumeApplier(), so a query restarted while holding the pause
  // left pause_depth_ elevated and the site's hold-back streams frozen
  // forever. The facade's restart path plus the strict re-read must leave
  // the pause balanced.
  ReplicatedSystem system(Config(Method::kOrdup));
  ReplicaControlMethod* m = system.site_method(1);
  QueryState q;
  q.id = 999;
  q.site = 1;
  q.epsilon = 0;  // strict from the first read: acquires the pause
  ASSERT_TRUE(m->TryQueryRead(q, 0).ok());
  ASSERT_TRUE(q.holds_pause);
  // Restart the attempt's accounting (as on kInconsistencyLimit).
  q.ResetForRestart();
  // The strict retry must not stack a second pause on the same query...
  ASSERT_TRUE(m->TryQueryRead(q, 0).ok());
  // ...and ending the query must release the applier completely.
  m->OnQueryEnd(q);
  EXPECT_FALSE(q.holds_pause);
  MustSubmit(system, 0, {Operation::Increment(0, 7)});
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 7)
      << "applier must make progress after the restart";
  EXPECT_TRUE(system.Converged());
}

TEST(OrdupTest, OnQueryRestartReleasesPauseAndApplierProgresses) {
  // The facade's restart sequence: OnQueryRestart() hands the pause back,
  // ResetForRestart() wipes the attempt, and the applier runs again while
  // the query is between attempts.
  ReplicatedSystem system(Config(Method::kOrdup));
  ReplicaControlMethod* m = system.site_method(1);
  QueryState q;
  q.id = 998;
  q.site = 1;
  q.epsilon = 0;
  ASSERT_TRUE(m->TryQueryRead(q, 0).ok());
  ASSERT_TRUE(q.holds_pause);
  m->OnQueryRestart(q);
  EXPECT_FALSE(q.holds_pause);
  q.ResetForRestart();
  EXPECT_EQ(q.restarts, 1);
  EXPECT_TRUE(q.strict);
  MustSubmit(system, 0, {Operation::Increment(0, 9)});
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 9)
      << "no pause may survive the restart";
  // The fresh strict attempt re-pins and re-pauses at the new watermark.
  ASSERT_TRUE(m->TryQueryRead(q, 0).ok());
  EXPECT_TRUE(q.holds_pause);
  m->OnQueryEnd(q);
  EXPECT_FALSE(q.holds_pause);
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(OrdupTest, EpsilonZeroQueriesArePrefixConsistent) {
  auto config = Config(Method::kOrdup, 3, 13);
  config.network.jitter_us = 2'000;
  ReplicatedSystem system(config);
  // Interleave updates and strict queries.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      MustSubmit(system, i % 3,
                 {Operation::Increment(i % 2, 1),
                  Operation::Increment(2 + (i % 2), 1)});
    }
    system.RunFor(1'500);
    RunQuery(system, round % 3, /*epsilon=*/0, {0, 1, 2, 3});
  }
  system.RunUntilQuiescent();
  auto sr = analysis::CheckUpdateSerializability(system.history(), 3);
  ASSERT_TRUE(sr.serializable) << sr.violation;
  auto reports = analysis::AnalyzeQueries(system.history(), sr.serial_order);
  ASSERT_EQ(reports.size(), 5u);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.prefix_consistent)
        << "epsilon=0 ORDUP query " << r.query << " must be 1SR";
    EXPECT_EQ(r.charged, 0);
  }
}

TEST(OrdupTest, ChargedInconsistencyNeverExceedsEpsilon) {
  auto config = Config(Method::kOrdup, 3, 17);
  ReplicatedSystem system(config);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) {
      MustSubmit(system, i % 3, {Operation::Increment(0, 1)});
    }
    system.RunFor(800);
    int64_t inconsistency = -1;
    RunQuery(system, 1, /*epsilon=*/2, {0, 0, 0}, &inconsistency);
    EXPECT_LE(inconsistency, 2);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(OrdupTest, SequencerRoundTripShowsUpInCommitLatency) {
  auto config = Config(Method::kOrdup, 3);
  config.network.base_latency_us = 50'000;
  config.network.jitter_us = 0;
  ReplicatedSystem system(config);
  SimTime committed_at = -1;
  // Submit from a non-sequencer site: commit needs the sequencer round
  // trip (2 x 50ms).
  MustSubmit(system, 1, {Operation::Increment(0, 1)},
             [&](Status) { committed_at = system.simulator().Now(); });
  system.RunUntilQuiescent();
  EXPECT_GE(committed_at, 100'000);
}

TEST(OrdupTest, SequencedQueryReadsAtItsGlobalPosition) {
  auto config = Config(Method::kOrdup);
  config.ordup_sequenced_queries = true;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 5)});
  system.RunUntilQuiescent();

  const EtId q = system.BeginQuery(1, /*epsilon=*/0);
  // The sequence number needs a round trip; the retrying Read drives it.
  bool done = false;
  int64_t value = -1;
  system.Read(q, 0, [&](Result<Value> v) {
    ASSERT_TRUE(v.ok());
    value = v->AsInt();
    done = true;
  });
  system.RunUntilQuiescent();
  ASSERT_TRUE(done);
  EXPECT_EQ(value, 5);
  // An update committed mid-query queues BEHIND the query's position at
  // its site: invisible until the query ends.
  MustSubmit(system, 0, {Operation::Increment(0, 100)});
  system.RunUntilQuiescent();
  Result<Value> second = system.TryRead(q, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->AsInt(), 5) << "the gap holds the later update back";
  EXPECT_EQ(system.query_state(q)->inconsistency, 0);
  ASSERT_TRUE(system.EndQuery(q).ok());
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 105);
  EXPECT_TRUE(system.Converged());
}

TEST(OrdupTest, SequencedQueryDoesNotStallOtherSites) {
  auto config = Config(Method::kOrdup);
  config.ordup_sequenced_queries = true;
  ReplicatedSystem system(config);
  const EtId q = system.BeginQuery(1, 0);
  bool first_done = false;
  system.Read(q, 0, [&](Result<Value>) { first_done = true; });
  system.RunFor(200'000);
  ASSERT_TRUE(first_done);
  // While the query holds its position at site 1, an update still applies
  // promptly at sites 0 and 2 (they skipped the query's number).
  MustSubmit(system, 0, {Operation::Increment(0, 7)});
  system.RunFor(300'000);
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 7);
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 7);
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 0) << "gap held at the query site";
  ASSERT_TRUE(system.EndQuery(q).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(OrdupTest, SequencedQueriesArePrefixConsistentUnderChurn) {
  auto config = Config(Method::kOrdup, 3, 19);
  config.ordup_sequenced_queries = true;
  config.network.jitter_us = 2'000;
  ReplicatedSystem system(config);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      MustSubmit(system, i,
                 {Operation::Increment(0, 1), Operation::Increment(1, 1)});
    }
    system.RunFor(2'000);
    RunQuery(system, round % 3, /*epsilon=*/0, {0, 1});
  }
  system.RunUntilQuiescent();
  auto sr = analysis::CheckUpdateSerializability(system.history(), 3);
  ASSERT_TRUE(sr.serializable) << sr.violation;
  auto reports = analysis::AnalyzeQueries(system.history(), sr.serial_order);
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.prefix_consistent)
        << "sequenced query " << r.query << " must be SR";
    EXPECT_EQ(r.charged, 0) << "empty overlap by construction";
  }
  EXPECT_TRUE(system.Converged());
}

TEST(OrdupTest, AbandonedSequencedQueryReleasesItsPosition) {
  auto config = Config(Method::kOrdup);
  config.ordup_sequenced_queries = true;
  config.network.base_latency_us = 30'000;
  ReplicatedSystem system(config);
  // End the query before its sequence response can possibly arrive.
  const EtId q = system.BeginQuery(1, 0);
  ASSERT_TRUE(system.EndQuery(q).ok());
  // Updates must still flow: the abandoned position is released when the
  // response lands.
  MustSubmit(system, 0, {Operation::Increment(0, 3)});
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 3);
  EXPECT_TRUE(system.Converged());
}

// Runs captured at a known-good commit: every site's digest, the order
// position of every committed update, every site's transport counters and,
// where queries run, every value they read. A change to how ORDUP holds
// back, releases or pins must leave all of them unchanged.

TEST(OrdupTest, SequencedQueriesUnderChurnPinnedDigests) {
  auto config = Config(Method::kOrdup, 3, 19);
  config.ordup_sequenced_queries = true;
  config.network.jitter_us = 2'000;
  ReplicatedSystem system(config);
  std::vector<int64_t> reads;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      MustSubmit(system, i,
                 {Operation::Increment(0, 1), Operation::Increment(1, 1)});
    }
    system.RunFor(2'000);
    for (const Value& v : RunQuery(system, round % 3, /*epsilon=*/0, {0, 1})) {
      reads.push_back(v.AsInt());
    }
  }
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  EXPECT_EQ(reads, (std::vector<int64_t>{3, 3, 6, 6, 9, 9, 11, 11}));
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0x6f991d24f24a7d82ull, 0x6f991d24f24a7d82ull, 0x6f991d24f24a7d82ull},
       {1, 2, 3, 5, 6, 7, 9, 11, 10, 13, 16, 14},
       {"queue.delivered=54 queue.duplicate=10 queue.retransmit=7 "
        "queue.sent=58",
        "queue.delivered=39 queue.duplicate=7 queue.retransmit=7 "
        "queue.sent=37",
        "queue.delivered=39 queue.duplicate=9 queue.retransmit=12 "
        "queue.sent=37"}});
}

TEST(OrdupTest, AmnesiaCrashOfNonSequencerSitePinnedDigests) {
  auto config = Config(Method::kOrdup, 3, 23);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 40'000;
  ReplicatedSystem system(config);
  // Site 1 is not the sequencer home. It dies with amnesia 0.5 ms after a
  // submit, while the order request is in flight, so the grant comes back
  // to an abandoned request and the position is released as an orphan.
  for (int i = 0; i < 6; ++i) {
    MustSubmit(system, 1 + i % 2, {Operation::Increment(i % 3, 1 + i)});
    system.RunFor(10'000);
  }
  MustSubmit(system, 1, {Operation::Multiply(0, 2)});
  system.failures().ScheduleCrash(
      sim::CrashSpec{/*site=*/1, system.simulator().Now() + 500,
                     system.simulator().Now() + 100'000, /*amnesia=*/true});
  system.RunFor(150'000);
  for (int i = 0; i < 6; ++i) {
    MustSubmit(system, i % 3, {Operation::Increment(i % 3, 10 + i)});
    system.RunFor(5'000);
  }
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  const test::PinnedRun run = test::CapturePinnedRun(system);
  // One granted position belongs to no committed update: the orphan.
  ASSERT_FALSE(run.orders.empty());
  EXPECT_GT(*std::max_element(run.orders.begin(), run.orders.end()),
            static_cast<SequenceNumber>(run.orders.size()));
  test::ExpectPinnedRun(
      run,
      {{0xd39b36de9c4e0b90ull, 0xd39b36de9c4e0b90ull, 0xd39b36de9c4e0b90ull},
       {1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13},
       {"queue.delivered=57 queue.duplicate=3 queue.retransmit=26 "
        "queue.sent=50",
        "queue.delivered=47 queue.duplicate=1 queue.retransmit=36 "
        "queue.sent=56",
        "queue.delivered=49 queue.duplicate=1 queue.retransmit=8 "
        "queue.sent=47"}});
}

TEST(OrdupTest, EpsilonZeroQueriesPauseApplierPinnedDigests) {
  auto config = Config(Method::kOrdup, 3, 13);
  config.network.jitter_us = 2'000;
  ReplicatedSystem system(config);
  // Strict queries pause their site's applier while updates keep arriving.
  std::vector<int64_t> reads;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      MustSubmit(system, i % 3,
                 {Operation::Increment(i % 2, 1),
                  Operation::Increment(2 + (i % 2), 1)});
    }
    system.RunFor(1'500);
    for (const Value& v :
         RunQuery(system, round % 3, /*epsilon=*/0, {0, 1, 2, 3})) {
      reads.push_back(v.AsInt());
    }
  }
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  EXPECT_EQ(reads, (std::vector<int64_t>{1, 1, 1, 1, 2, 2, 2, 2, 1, 1,
                                         1, 1, 4, 4, 4, 4, 4, 5, 4, 5}));
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0xb97e37e8cc86d7efull, 0xb97e37e8cc86d7efull, 0xb97e37e8cc86d7efull},
       {1, 2, 4, 5, 3, 7, 8, 6, 11, 12, 10, 15, 16, 13, 9, 14, 18, 19, 17, 20},
       {"queue.delivered=76 queue.duplicate=19 queue.retransmit=20 "
        "queue.sent=86",
        "queue.delivered=51 queue.duplicate=15 queue.retransmit=16 "
        "queue.sent=46",
        "queue.delivered=51 queue.duplicate=15 queue.retransmit=13 "
        "queue.sent=46"}});
}

TEST(OrdupTest, ReadApplyIndexCountsAppliesNotNoopPositions) {
  // A read's site_apply_index indexes the serving site's apply list in the
  // history, which holds no no-op positions. Sequenced queries leave such
  // positions behind, so the index must count applies, not positions.
  auto config = Config(Method::kOrdup);
  config.ordup_sequenced_queries = true;
  ReplicatedSystem system(config);
  // q1 takes position 1; every site fills it with a no-op.
  RunQuery(system, 1, /*epsilon=*/0, {0});
  system.RunUntilQuiescent();
  MustSubmit(system, 0, {Operation::Increment(0, 4)});
  system.RunUntilQuiescent();
  const EtId q2 = system.BeginQuery(2, /*epsilon=*/0);
  bool done = false;
  system.Read(q2, 0, [&](Result<Value> v) {
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->AsInt(), 4);
    done = true;
  });
  system.RunUntilQuiescent();
  ASSERT_TRUE(done);
  ASSERT_TRUE(system.EndQuery(q2).ok());
  system.RunUntilQuiescent();
  const analysis::ReadRecord* read = nullptr;
  for (const analysis::ReadRecord& r : system.history().reads()) {
    if (r.query == q2) read = &r;
  }
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->site_apply_index,
            static_cast<int64_t>(system.history().site_applies(2).size()));
}

TEST(OrdupTest, ReadApplyIndexSurvivesAmnesiaRestart) {
  // The history keeps every apply a site made before it crashed, so the
  // apply count a read records must come back from the checkpoint on an
  // amnesia restart; WAL replay recounts only the MSets after it.
  auto config = Config(Method::kOrdup, 3, 23);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 20'000;
  ReplicatedSystem system(config);
  for (int i = 0; i < 10; ++i) {
    MustSubmit(system, i % 3, {Operation::Increment(i % 3, 1 + i)});
    system.RunFor(10'000);
  }
  system.failures().ScheduleCrash(
      sim::CrashSpec{/*site=*/1, system.simulator().Now() + 1'000,
                     system.simulator().Now() + 50'000, /*amnesia=*/true});
  system.RunFor(100'000);
  for (int i = 0; i < 3; ++i) {
    MustSubmit(system, 0, {Operation::Increment(0, 1)});
  }
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  RunQuery(system, 1, /*epsilon=*/0, {0});
  const analysis::ReadRecord& read = system.history().reads().back();
  ASSERT_EQ(read.site, 1);
  EXPECT_EQ(system.history().site_applies(1).size(), 13u);
  EXPECT_EQ(read.site_apply_index,
            static_cast<int64_t>(system.history().site_applies(1).size()));
}

TEST(OrdupTest, RejectsReadOperationsInUpdateEts) {
  ReplicatedSystem system(Config(Method::kOrdup));
  auto result = system.SubmitUpdate(0, {Operation::Read(0)});
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace esr::core
