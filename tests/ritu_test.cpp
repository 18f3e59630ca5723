#include "esr/ritu.h"

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

Operation Tsw(ObjectId object, int64_t value) {
  // Timestamp is stamped by the method at submit time.
  return Operation::TimestampedWrite(object, Value(value), kZeroTimestamp);
}

TEST(RituTest, AdmitsOnlyTimestampedWrites) {
  ReplicatedSystem system(Config(Method::kRituMulti));
  EXPECT_TRUE(system.SubmitUpdate(0, {Tsw(0, 1)}).ok());
  EXPECT_FALSE(system.SubmitUpdate(0, {Operation::Increment(1, 1)}).ok());
  EXPECT_FALSE(
      system.SubmitUpdate(0, {Operation::Write(2, Value(int64_t{1}))}).ok());
}

TEST(RituTest, MultiVersionAppendsVersions) {
  ReplicatedSystem system(Config(Method::kRituMulti));
  MustSubmit(system, 0, {Tsw(0, 10)});
  MustSubmit(system, 1, {Tsw(0, 20)});
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(system.site_store(s).VersionCount(0), 2) << "site " << s;
  }
}

TEST(RituTest, SingleVersionConvergesViaThomasRule) {
  auto config = Config(Method::kRituSingle, 4, 31);
  // Jitter interleaves the four origins' writes differently at each site.
  config.network.jitter_us = 6'000;
  ReplicatedSystem system(config);
  for (int i = 0; i < 20; ++i) {
    MustSubmit(system, i % 4, {Tsw(0, 100 + i)});
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  // The survivor is the write with the highest Lamport timestamp — which is
  // a value some site wrote (sanity).
  const int64_t v = system.SiteValue(0, 0).AsInt();
  EXPECT_GE(v, 100);
  EXPECT_LT(v, 120);
}

TEST(RituTest, LatestReadCostsOneUnitBeyondVtnc) {
  auto config = Config(Method::kRituMulti);
  config.network.base_latency_us = 20'000;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Tsw(0, 7)});
  // Immediately: the update is not yet stable, so it is above the VTNC.
  const EtId q = system.BeginQuery(0, /*epsilon=*/5);
  Result<Value> v = system.TryRead(q, 0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 7) << "fresh version readable within budget";
  EXPECT_EQ(system.query_state(q)->inconsistency, 1);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(RituTest, EpsilonZeroFallsBackToVtncSnapshot) {
  auto config = Config(Method::kRituMulti);
  config.network.base_latency_us = 20'000;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Tsw(0, 7)});
  const EtId q = system.BeginQuery(0, /*epsilon=*/0);
  Result<Value> v = system.TryRead(q, 0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value()) << "snapshot below VTNC predates the update";
  EXPECT_EQ(system.query_state(q)->inconsistency, 0);
  ASSERT_TRUE(system.EndQuery(q).ok());

  // After stabilization the VTNC advances past the write and strict
  // queries see it.
  system.RunUntilQuiescent();
  auto values = RunQuery(system, 1, /*epsilon=*/0, {0});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].AsInt(), 7);
}

TEST(RituTest, VtncAdvancesWithHeartbeatsDespiteQuietSites) {
  auto config = Config(Method::kRituMulti, 4);
  config.heartbeat_interval_us = 10'000;
  ReplicatedSystem system(config);
  // Only site 0 updates; sites 1-3 stay quiet. Heartbeats must still let
  // the VTNC pass the write.
  MustSubmit(system, 0, {Tsw(0, 5)});
  system.RunFor(500'000);
  auto* method = static_cast<RituMethod*>(system.site_method(2));
  MustSubmit(system, 0, {Tsw(1, 6)});  // keep one update in flight
  EXPECT_GT(method->Vtnc().counter, 0);
  auto values = RunQuery(system, 2, /*epsilon=*/0, {0});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].AsInt(), 5) << "stable write visible below VTNC";
}

TEST(RituTest, PinnedSnapshotIsStableAcrossQueryLifetime) {
  auto config = Config(Method::kRituMulti);
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Tsw(0, 1), Tsw(1, 1)});
  system.RunUntilQuiescent();
  const EtId q = system.BeginQuery(1, /*epsilon=*/0);
  Result<Value> first = system.TryRead(q, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->AsInt(), 1);
  // New update lands and stabilizes mid-query.
  MustSubmit(system, 0, {Tsw(0, 99), Tsw(1, 99)});
  system.RunUntilQuiescent();
  Result<Value> second = system.TryRead(q, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->AsInt(), 1)
      << "reads stay at the pinned VTNC snapshot: no torn view";
  EXPECT_EQ(system.query_state(q)->inconsistency, 0);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(RituTest, EpsilonZeroQueriesArePrefixConsistent) {
  auto config = Config(Method::kRituMulti, 3, 37);
  config.network.jitter_us = 2'000;
  config.heartbeat_interval_us = 5'000;
  ReplicatedSystem system(config);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 3; ++i) {
      MustSubmit(system, i, {Tsw(i, round * 10 + i), Tsw(3, round)});
    }
    system.RunFor(30'000);
    RunQuery(system, round % 3, /*epsilon=*/0, {0, 1, 2, 3});
  }
  system.RunUntilQuiescent();
  auto sr = analysis::CheckUpdateSerializability(system.history(), 3);
  ASSERT_TRUE(sr.serializable) << sr.violation;
  auto reports = analysis::AnalyzeQueries(system.history(), sr.serial_order);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.prefix_consistent)
        << "epsilon=0 RITU query " << r.query << " must be 1SR";
    EXPECT_EQ(r.charged, 0);
  }
}

TEST(RituTest, QueriesNeverBlockOrRestart) {
  auto config = Config(Method::kRituMulti);
  config.network.base_latency_us = 50'000;
  ReplicatedSystem system(config);
  for (int i = 0; i < 5; ++i) MustSubmit(system, 0, {Tsw(0, i)});
  // Even with everything in flight, epsilon=0 reads answer immediately
  // from the snapshot.
  const EtId q = system.BeginQuery(0, 0);
  Result<Value> v = system.TryRead(q, 0);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(system.query_state(q)->blocked_attempts, 0);
  EXPECT_EQ(system.query_state(q)->restarts, 0);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(RituTest, BudgetSpentThenSnapshotForRemainder) {
  auto config = Config(Method::kRituMulti);
  config.network.base_latency_us = 30'000;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Tsw(0, 1)});
  MustSubmit(system, 0, {Tsw(1, 2)});
  const EtId q = system.BeginQuery(0, /*epsilon=*/1);
  Result<Value> first = system.TryRead(q, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->AsInt(), 1) << "budget pays for the fresh version";
  Result<Value> second = system.TryRead(q, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, Value()) << "budget exhausted -> snapshot read";
  EXPECT_EQ(system.query_state(q)->inconsistency, 1);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(RituTest, VersionGcPrunesChainsAndStillConverges) {
  auto config = Config(Method::kRituMulti);
  config.version_gc = true;
  config.store_partitions = 4;
  ReplicatedSystem system(config);
  // Many updates to the same object: with GC on, every VTNC advance prunes
  // the chain below the watermark, so once quiescent each site keeps only
  // the newest at-or-below-VTNC version (plus anything above it).
  for (int i = 0; i < 30; ++i) {
    MustSubmit(system, i % 3, {Tsw(0, 100 + i)});
    if (i % 5 == 4) system.RunUntilQuiescent();
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_GT(test::EventCount(system, "esr.versions_gc_pruned"), 0)
      << "sustained same-object writes must trigger stability-driven GC";
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_LE(system.site_store(s).VersionCount(0), 2)
        << "site " << s << ": chain stays bounded once the VTNC passes";
    // The latest value survives pruning.
    auto latest = system.site_store(s).ReadLatest(0);
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->value.AsInt(), 129);
  }
}

TEST(RituTest, VersionGcKeepsPinnedSnapshotReadable) {
  auto config = Config(Method::kRituMulti);
  config.version_gc = true;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Tsw(0, 1)});
  system.RunUntilQuiescent();
  const EtId q = system.BeginQuery(1, /*epsilon=*/0);
  Result<Value> first = system.TryRead(q, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->AsInt(), 1);
  // A burst of updates stabilizes mid-query; GC runs on each VTNC advance
  // but must clamp its floor to this query's pin.
  for (int i = 0; i < 10; ++i) {
    MustSubmit(system, 0, {Tsw(0, 50 + i)});
    system.RunUntilQuiescent();
  }
  Result<Value> again = system.TryRead(q, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->AsInt(), 1)
      << "GC must not prune the version a live pinned query still needs";
  ASSERT_TRUE(system.EndQuery(q).ok());
  // With the pin released, the next quiescent GC pass may prune freely.
  MustSubmit(system, 0, {Tsw(0, 99)});
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(RituTest, SingleVersionReducesToCommuBounding) {
  auto config = Config(Method::kRituSingle);
  config.network.base_latency_us = 20'000;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Tsw(0, 5)});
  const EtId q = system.BeginQuery(0, /*epsilon=*/0);
  Result<Value> v = system.TryRead(q, 0);
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsUnavailable())
      << "single-version mode uses lock-counters, like COMMU";
  ASSERT_TRUE(system.EndQuery(q).ok());
}

}  // namespace
}  // namespace esr::core
