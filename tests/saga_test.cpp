// Sagas over COMPE (paper section 4.2): step decisions are deferred to the
// end of the saga, so the lock-counters (potential compensations) are held
// for its whole duration — the conservative upper bound queries rely on.

#include <gtest/gtest.h>

#include "esr/compe.h"
#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;

TEST(SagaTest, RequiresCompe) {
  ReplicatedSystem system(Config(Method::kCommu));
  EXPECT_EQ(system.BeginSaga(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SagaTest, CommittedSagaFinalizesAllSteps) {
  ReplicatedSystem system(Config(Method::kCompe));
  auto saga = system.BeginSaga(0);
  ASSERT_TRUE(saga.ok());
  ASSERT_TRUE(system.SubmitSagaStep(*saga, {Operation::Increment(0, 10)}).ok());
  ASSERT_TRUE(system.SubmitSagaStep(*saga, {Operation::Increment(1, 20)}).ok());
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.EndSaga(*saga, /*commit=*/true).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 10);
  EXPECT_EQ(system.SiteValue(2, 1).AsInt(), 20);
  EXPECT_EQ(test::EventCount(system, "esr.sagas_committed"), 1);
}

TEST(SagaTest, AbortedSagaCompensatesAllStepsEverywhere) {
  ReplicatedSystem system(Config(Method::kCompe));
  MustSubmit(system, 1, {Operation::Increment(0, 100)});
  system.RunUntilQuiescent();
  auto saga = system.BeginSaga(0);
  ASSERT_TRUE(saga.ok());
  ASSERT_TRUE(system.SubmitSagaStep(*saga, {Operation::Increment(0, -30)}).ok());
  ASSERT_TRUE(system.SubmitSagaStep(*saga, {Operation::Increment(0, -40)}).ok());
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 30) << "steps applied optimistically";
  ASSERT_TRUE(system.EndSaga(*saga, /*commit=*/false).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 100)
      << "all saga effects compensated";
  EXPECT_EQ(test::EventCount(system, "esr.sagas_aborted"), 1);
}

TEST(SagaTest, CountersHeldUntilSagaEnd) {
  ReplicatedSystem system(Config(Method::kCompe));
  auto saga = system.BeginSaga(0);
  ASSERT_TRUE(saga.ok());
  ASSERT_TRUE(system.SubmitSagaStep(*saga, {Operation::Increment(0, 5)}).ok());
  system.RunUntilQuiescent();
  // Even fully propagated, the step is undecided: a strict query waits.
  auto* method = static_cast<CompeMethod*>(system.site_method(0));
  EXPECT_EQ(method->TentativeCount(0), 1)
      << "potential compensation held through the saga";
  const EtId q = system.BeginQuery(0, /*epsilon=*/0);
  EXPECT_TRUE(system.TryRead(q, 0).status().IsUnavailable());
  ASSERT_TRUE(system.EndQuery(q).ok());

  ASSERT_TRUE(system.EndSaga(*saga, true).ok());
  system.RunUntilQuiescent();
  EXPECT_EQ(method->TentativeCount(0), 0);
  const EtId q2 = system.BeginQuery(0, /*epsilon=*/0);
  EXPECT_TRUE(system.TryRead(q2, 0).ok());
  ASSERT_TRUE(system.EndQuery(q2).ok());
}

TEST(SagaTest, QueryChargedForEveryOpenSagaStep) {
  ReplicatedSystem system(Config(Method::kCompe));
  auto saga = system.BeginSaga(0);
  ASSERT_TRUE(saga.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        system.SubmitSagaStep(*saga, {Operation::Increment(0, 1)}).ok());
  }
  system.RunUntilQuiescent();
  const EtId q = system.BeginQuery(0, /*epsilon=*/5);
  ASSERT_TRUE(system.TryRead(q, 0).ok());
  EXPECT_EQ(system.query_state(q)->inconsistency, 3)
      << "one unit per uncompensatable-yet step";
  ASSERT_TRUE(system.EndQuery(q).ok());
  ASSERT_TRUE(system.EndSaga(*saga, true).ok());
  system.RunUntilQuiescent();
}

TEST(SagaTest, NonCommutativeSagaRollsBackInReverse) {
  ReplicatedSystem system(Config(Method::kCompeOrdered));
  const EtId seed =
      MustSubmit(system, 1, {Operation::Write(0, Value(int64_t{3}))});
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Decide(seed, true).ok());
  auto saga = system.BeginSaga(0);
  ASSERT_TRUE(saga.ok());
  ASSERT_TRUE(system.SubmitSagaStep(*saga, {Operation::Increment(0, 10)}).ok());
  ASSERT_TRUE(system.SubmitSagaStep(*saga, {Operation::Multiply(0, 2)}).ok());
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 26);  // (3+10)*2
  ASSERT_TRUE(system.EndSaga(*saga, false).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 3)
      << "multiply undone before increment (reverse order)";
}

TEST(SagaTest, UnknownSagaHandled) {
  ReplicatedSystem system(Config(Method::kCompe));
  EXPECT_TRUE(system.SubmitSagaStep(999, {Operation::Increment(0, 1)})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(system.EndSaga(999, true).IsNotFound());
}

TEST(SagaTest, EmptySagaEndsCleanly) {
  ReplicatedSystem system(Config(Method::kCompe));
  auto saga = system.BeginSaga(2);
  ASSERT_TRUE(saga.ok());
  EXPECT_TRUE(system.EndSaga(*saga, true).ok());
  EXPECT_TRUE(system.EndSaga(*saga, true).IsNotFound()) << "single use";
}

}  // namespace
}  // namespace esr::core
