#include "esr/commu.h"

#include <gtest/gtest.h>

#include "analysis/sr_checker.h"
#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;
using test::RunQuery;

TEST(CommuTest, LocalCommitIsImmediate) {
  ReplicatedSystem system(Config(Method::kCommu));
  bool committed = false;
  MustSubmit(system, 0, {Operation::Increment(0, 3)},
             [&](Status s) { committed = s.ok(); });
  // No simulator events needed: COMMU commits locally, synchronously.
  EXPECT_TRUE(committed);
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 3);
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 0) << "not yet propagated";
  system.RunUntilQuiescent();
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 3);
  EXPECT_TRUE(system.Converged());
}

TEST(CommuTest, ConcurrentIncrementsFromAllSitesConverge) {
  auto config = Config(Method::kCommu, 5, 3);
  // Jitter interleaves the five origins' MSets differently at each site;
  // commuting increments converge in any interleaving.
  config.network.jitter_us = 4'000;
  ReplicatedSystem system(config);
  for (int i = 0; i < 40; ++i) {
    MustSubmit(system, i % 5, {Operation::Increment(0, 1)});
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 40);
}

TEST(CommuTest, NonCommutativeAdmissionRejected) {
  ReplicatedSystem system(Config(Method::kCommu));
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  auto result = system.SubmitUpdate(1, {Operation::Multiply(0, 2)});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  // Plain writes never commute: rejected outright.
  EXPECT_FALSE(
      system.SubmitUpdate(0, {Operation::Write(5, Value(int64_t{1}))}).ok());
}

TEST(CommuTest, MultiplyClassObjectAcceptsOnlyMultiplies) {
  ReplicatedSystem system(Config(Method::kCommu));
  ASSERT_TRUE(system.SubmitUpdate(0, {Operation::Multiply(9, 2)}).ok());
  EXPECT_TRUE(system.SubmitUpdate(1, {Operation::Multiply(9, 3)}).ok());
  EXPECT_FALSE(system.SubmitUpdate(2, {Operation::Increment(9, 1)}).ok());
}

TEST(CommuTest, LockCountersTrackInFlightUpdates) {
  auto config = Config(Method::kCommu);
  config.network.base_latency_us = 10'000;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  auto* method0 = static_cast<CommuMethod*>(system.site_method(0));
  EXPECT_EQ(method0->LockCount(0), 1) << "in flight at origin";
  system.RunUntilQuiescent();
  EXPECT_EQ(method0->LockCount(0), 0) << "stable -> counter released";
  auto* method2 = static_cast<CommuMethod*>(system.site_method(2));
  EXPECT_EQ(method2->LockCount(0), 0);
}

TEST(CommuTest, QueryChargedByLockCounter) {
  auto config = Config(Method::kCommu);
  config.network.base_latency_us = 10'000;
  ReplicatedSystem system(config);
  // Two in-flight updates at origin 0.
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  const EtId q = system.BeginQuery(0, /*epsilon=*/5);
  Result<Value> v = system.TryRead(q, 0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(system.query_state(q)->inconsistency, 2);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(CommuTest, BudgetExhaustedQueryWaitsForStability) {
  auto config = Config(Method::kCommu);
  config.network.base_latency_us = 20'000;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  const EtId q = system.BeginQuery(0, /*epsilon=*/0);
  Result<Value> direct = system.TryRead(q, 0);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsUnavailable());
  // The retrying Read eventually succeeds once both updates are stable.
  bool done = false;
  int64_t value = -1;
  system.Read(q, 0, [&](Result<Value> got) {
    ASSERT_TRUE(got.ok());
    value = got->AsInt();
    done = true;
  });
  system.RunUntilQuiescent();
  EXPECT_TRUE(done);
  EXPECT_EQ(value, 2);
  EXPECT_EQ(system.query_state(q)->inconsistency, 0);
  EXPECT_GT(system.query_state(q)->blocked_attempts, 0);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(CommuTest, UpdateThrottleLimitsInFlightUpdates) {
  auto config = Config(Method::kCommu);
  config.network.base_latency_us = 50'000;
  config.commu_update_lock_limit = 2;
  ReplicatedSystem system(config);
  int ok = 0, throttled = 0;
  for (int i = 0; i < 5; ++i) {
    MustSubmit(system, 0, {Operation::Increment(0, 1)}, [&](Status s) {
      s.ok() ? ++ok : ++throttled;
    });
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(throttled, 3);
  system.RunUntilQuiescent();
  // After stability the counter drains and new updates pass again.
  bool accepted = false;
  MustSubmit(system, 0, {Operation::Increment(0, 1)},
             [&](Status s) { accepted = s.ok(); });
  EXPECT_TRUE(accepted);
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(CommuTest, UpdateSubhistorySerializableDespiteReordering) {
  auto config = Config(Method::kCommu, 4, 23);
  // Jitter reorders datagrams; each origin's MSets still arrive in send
  // order, but different origins interleave differently at each site.
  config.network.jitter_us = 8'000;
  ReplicatedSystem system(config);
  for (int i = 0; i < 30; ++i) {
    MustSubmit(system, i % 4,
               {Operation::Increment(i % 3, 1), Operation::Increment(3, 2)});
  }
  system.RunUntilQuiescent();
  auto sr = analysis::CheckUpdateSerializability(system.history(), 4);
  EXPECT_TRUE(sr.serializable) << sr.violation;
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(0, 3).AsInt(), 60);
}

TEST(CommuTest, MessageLossDelaysButDoesNotPreventConvergence) {
  auto config = Config(Method::kCommu, 3, 29);
  config.network.loss_probability = 0.3;
  ReplicatedSystem system(config);
  for (int i = 0; i < 10; ++i) {
    MustSubmit(system, i % 3, {Operation::Increment(0, 1)});
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 10);
}

TEST(CommuTest, QueryNeverBlocksWithUnboundedEpsilon) {
  auto config = Config(Method::kCommu);
  config.network.base_latency_us = 30'000;
  ReplicatedSystem system(config);
  for (int i = 0; i < 4; ++i) {
    MustSubmit(system, 0, {Operation::Increment(0, 1)});
  }
  const EtId q = system.BeginQuery(0, kUnboundedEpsilon);
  Result<Value> v = system.TryRead(q, 0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 4);
  EXPECT_EQ(system.query_state(q)->inconsistency, 4);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

}  // namespace
}  // namespace esr::core
