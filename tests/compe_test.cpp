#include "esr/compe.h"

#include <gtest/gtest.h>

#include "analysis/sr_checker.h"
#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;
using test::RunQuery;

TEST(CompeTest, OptimisticApplyThenCommitStabilizes) {
  ReplicatedSystem system(Config(Method::kCompe));
  const EtId et = MustSubmit(system, 0, {Operation::Increment(0, 10)});
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 10) << "applied before decision";
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Decide(et, /*commit=*/true).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 10);
  // Stability reached: the logs have been truncated everywhere.
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(system.site_mset_log(s).size(), 0) << "site " << s;
  }
}

TEST(CompeTest, AbortCompensatesEverywhere) {
  ReplicatedSystem system(Config(Method::kCompe));
  const EtId keep = MustSubmit(system, 0, {Operation::Increment(0, 5)});
  const EtId drop = MustSubmit(system, 1, {Operation::Increment(0, 100)});
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 105);
  ASSERT_TRUE(system.Decide(keep, true).ok());
  ASSERT_TRUE(system.Decide(drop, false).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 5);
  EXPECT_GE(test::EventCount(system, "esr.compensations"), 3);
}

TEST(CompeTest, UnorderedModeRequiresCommutativeOps) {
  ReplicatedSystem system(Config(Method::kCompe));
  EXPECT_FALSE(
      system.SubmitUpdate(0, {Operation::Write(0, Value(int64_t{1}))}).ok());
  EXPECT_TRUE(system.SubmitUpdate(0, {Operation::Increment(0, 1)}).ok());
}

TEST(CompeTest, OrderedModeAdmitsNonCommutativeOps) {
  ReplicatedSystem system(Config(Method::kCompeOrdered));
  const EtId a =
      MustSubmit(system, 0, {Operation::Write(0, Value(int64_t{1}))});
  const EtId b = MustSubmit(system, 1, {Operation::Append(1, "x")});
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Decide(a, true).ok());
  ASSERT_TRUE(system.Decide(b, true).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 1);
  EXPECT_EQ(system.SiteValue(2, 1).AsString(), "x");
}

TEST(CompeTest, OrderedAbortRollsBackAndReplaysSuffix) {
  ReplicatedSystem system(Config(Method::kCompeOrdered));
  // Non-commutative history: x = 1; x += 10; x *= 2 — abort the write.
  const EtId w = MustSubmit(system, 0, {Operation::Increment(0, 1)});
  const EtId inc = MustSubmit(system, 1, {Operation::Increment(0, 10)});
  const EtId mul = MustSubmit(system, 2, {Operation::Multiply(1, 2)});
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Decide(inc, false).ok());
  ASSERT_TRUE(system.Decide(w, true).ok());
  ASSERT_TRUE(system.Decide(mul, true).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 1)
      << "aborted increment removed from the interior of the log";
}

TEST(CompeTest, PaperExampleIncMulCompensation) {
  // Inc(x,10) then Mul(x,2); aborting the Inc must yield Mul(x,2) alone
  // (paper section 4.1's worked example), which requires rollback+replay.
  ReplicatedSystem system(Config(Method::kCompeOrdered));
  const EtId seed =
      MustSubmit(system, 0, {Operation::Write(0, Value(int64_t{1}))});
  const EtId inc = MustSubmit(system, 0, {Operation::Increment(0, 10)});
  const EtId mul = MustSubmit(system, 1, {Operation::Multiply(0, 2)});
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 22);
  ASSERT_TRUE(system.Decide(seed, true).ok());
  ASSERT_TRUE(system.Decide(inc, false).ok());
  ASSERT_TRUE(system.Decide(mul, true).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 2);
}

TEST(CompeTest, TentativeCountersChargeQueries) {
  ReplicatedSystem system(Config(Method::kCompe));
  const EtId et = MustSubmit(system, 0, {Operation::Increment(0, 9)});
  const EtId q = system.BeginQuery(0, /*epsilon=*/3);
  Result<Value> v = system.TryRead(q, 0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 9);
  EXPECT_EQ(system.query_state(q)->inconsistency, 1)
      << "one potential compensation";
  ASSERT_TRUE(system.EndQuery(q).ok());
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Decide(et, true).ok());
  system.RunUntilQuiescent();
  // Decided: no more potential compensations.
  const EtId q2 = system.BeginQuery(0, /*epsilon=*/0);
  EXPECT_TRUE(system.TryRead(q2, 0).ok());
  ASSERT_TRUE(system.EndQuery(q2).ok());
}

TEST(CompeTest, EpsilonZeroQueryWaitsForDecision) {
  ReplicatedSystem system(Config(Method::kCompe));
  const EtId et = MustSubmit(system, 0, {Operation::Increment(0, 9)});
  const EtId q = system.BeginQuery(0, /*epsilon=*/0);
  Result<Value> direct = system.TryRead(q, 0);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsUnavailable());
  bool done = false;
  int64_t value = -1;
  system.Read(q, 0, [&](Result<Value> got) {
    ASSERT_TRUE(got.ok());
    value = got->AsInt();
    done = true;
  });
  system.RunFor(50'000);
  EXPECT_FALSE(done) << "blocked until the decision";
  ASSERT_TRUE(system.Decide(et, true).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(done);
  EXPECT_EQ(value, 9);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(CompeTest, CompensationHitChargedToLiveQuery) {
  ReplicatedSystem system(Config(Method::kCompe));
  const EtId et = MustSubmit(system, 0, {Operation::Increment(0, 9)});
  const EtId q = system.BeginQuery(0, /*epsilon=*/5);
  ASSERT_TRUE(system.TryRead(q, 0).ok());  // read the dirty value
  ASSERT_TRUE(system.Decide(et, false).ok());
  EXPECT_EQ(system.query_state(q)->compensation_hits, 1);
  ASSERT_TRUE(system.EndQuery(q).ok());
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 0);
}

TEST(CompeTest, RestartClearsCompensationHitsWithOtherCounters) {
  // Regression: ResetForRestart() used to carry compensation_hits from the
  // abandoned attempt into the restarted query's accounting.
  ReplicatedSystem system(Config(Method::kCompe));
  const EtId et = MustSubmit(system, 0, {Operation::Increment(0, 9)});
  const EtId q = system.BeginQuery(0, /*epsilon=*/5);
  ASSERT_TRUE(system.TryRead(q, 0).ok());
  ASSERT_TRUE(system.Decide(et, false).ok());
  ASSERT_EQ(system.query_state(q)->compensation_hits, 1);
  QueryState copy = *system.query_state(q);
  copy.ResetForRestart();
  EXPECT_EQ(copy.compensation_hits, 0)
      << "per-attempt counters must start over on restart";
  EXPECT_EQ(copy.inconsistency, 0);
  EXPECT_EQ(copy.restarts, 1);
  ASSERT_TRUE(system.EndQuery(q).ok());
  system.RunUntilQuiescent();
}

TEST(CompeTest, AbortedUpdatesExcludedFromSerialHistory) {
  ReplicatedSystem system(Config(Method::kCompe, 3, 41));
  std::vector<EtId> ets;
  for (int i = 0; i < 10; ++i) {
    ets.push_back(MustSubmit(system, i % 3, {Operation::Increment(0, 1)}));
  }
  system.RunUntilQuiescent();
  for (size_t i = 0; i < ets.size(); ++i) {
    ASSERT_TRUE(system.Decide(ets[i], i % 2 == 0).ok());
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 5);
  auto sr = analysis::CheckUpdateSerializability(system.history(), 3);
  EXPECT_TRUE(sr.serializable) << sr.violation;
  EXPECT_EQ(sr.serial_order.size(), 5u) << "only committed updates remain";
}

TEST(CompeTest, DecideUnknownEtFails) {
  ReplicatedSystem system(Config(Method::kCompe));
  EXPECT_FALSE(system.Decide(4242, true).ok());
}

TEST(CompeTest, ForwardMethodsRejectDecisions) {
  ReplicatedSystem system(Config(Method::kCommu));
  const EtId et = MustSubmit(system, 0, {Operation::Increment(0, 1)});
  EXPECT_EQ(system.Decide(et, true).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CompeTest, LogRetainedUntilStability) {
  auto config = Config(Method::kCompe);
  config.network.base_latency_us = 30'000;
  ReplicatedSystem system(config);
  const EtId et = MustSubmit(system, 0, {Operation::Increment(0, 1)});
  EXPECT_EQ(system.site_mset_log(0).size(), 1)
      << "record held while rollback is possible";
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Decide(et, true).ok());
  system.RunUntilQuiescent();
  EXPECT_EQ(system.site_mset_log(0).size(), 0);
}

}  // namespace
}  // namespace esr::core
