#include "esr/replicated_system.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;
using test::RunQuery;

TEST(ReplicatedSystemTest, MethodNamesExposed) {
  EXPECT_EQ(MethodToString(Method::kOrdup), "ORDUP");
  EXPECT_EQ(MethodToString(Method::kOrdupTs), "ORDUP-TS");
  EXPECT_EQ(MethodToString(Method::kCommu), "COMMU");
  EXPECT_EQ(MethodToString(Method::kRituMulti), "RITU-MV");
  EXPECT_EQ(MethodToString(Method::kRituSingle), "RITU-SV");
  EXPECT_EQ(MethodToString(Method::kCompe), "COMPE");
  EXPECT_EQ(MethodToString(Method::kCompeOrdered), "COMPE-ORD");
  EXPECT_EQ(MethodToString(Method::kSync2pc), "SYNC-2PC");
  EXPECT_EQ(MethodToString(Method::kSyncQuorum), "SYNC-QUORUM");
}

TEST(ReplicatedSystemTest, InvalidSiteRejected) {
  ReplicatedSystem system(Config(Method::kCommu));
  EXPECT_FALSE(system.SubmitUpdate(7, {Operation::Increment(0, 1)}).ok());
  EXPECT_FALSE(system.SubmitUpdate(-1, {Operation::Increment(0, 1)}).ok());
}

TEST(ReplicatedSystemTest, UnknownQueryHandled) {
  ReplicatedSystem system(Config(Method::kCommu));
  EXPECT_TRUE(system.TryRead(999, 0).status().IsNotFound());
  EXPECT_TRUE(system.EndQuery(999).IsNotFound());
  EXPECT_EQ(system.query_state(999), nullptr);
  bool called = false;
  system.Read(999, 0, [&](Result<Value> v) {
    called = true;
    EXPECT_FALSE(v.ok());
  });
  EXPECT_TRUE(called);
}

TEST(ReplicatedSystemTest, EtIdsAreUnique) {
  ReplicatedSystem system(Config(Method::kCommu));
  EtId a = MustSubmit(system, 0, {Operation::Increment(0, 1)});
  EtId q = system.BeginQuery(1, 0);
  EtId b = MustSubmit(system, 2, {Operation::Increment(0, 1)});
  EXPECT_NE(a, q);
  EXPECT_NE(a, b);
  EXPECT_NE(q, b);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(ReplicatedSystemTest, Sync2pcUpdateAndRead) {
  ReplicatedSystem system(Config(Method::kSync2pc));
  Status committed = Status::Internal("pending");
  MustSubmit(system, 0, {Operation::Increment(0, 6)},
             [&](Status s) { committed = s; });
  system.RunUntilQuiescent();
  ASSERT_TRUE(committed.ok());
  EXPECT_TRUE(system.Converged());
  auto values = RunQuery(system, 2, 0, {0});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].AsInt(), 6);
}

TEST(ReplicatedSystemTest, Sync2pcCommitWaitsForAllSites) {
  auto config = Config(Method::kSync2pc);
  config.network.base_latency_us = 25'000;
  config.network.jitter_us = 0;
  ReplicatedSystem system(config);
  SimTime committed_at = -1;
  MustSubmit(system, 0, {Operation::Increment(0, 1)},
             [&](Status) { committed_at = system.simulator().Now(); });
  system.RunUntilQuiescent();
  // prepare + vote + decide + ack = 4 one-way hops minimum.
  EXPECT_GE(committed_at, 4 * 25'000);
}

TEST(ReplicatedSystemTest, SyncQuorumUpdateAndRead) {
  ReplicatedSystem system(Config(Method::kSyncQuorum, 5));
  Status committed = Status::Internal("pending");
  MustSubmit(system, 1, {Operation::Increment(3, 4)},
             [&](Status s) { committed = s; });
  system.RunUntilQuiescent();
  ASSERT_TRUE(committed.ok());
  auto values = RunQuery(system, 4, 0, {3});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].AsInt(), 4);
}

TEST(ReplicatedSystemTest, TryReadUnsupportedForSyncMethods) {
  ReplicatedSystem system(Config(Method::kSync2pc));
  EtId q = system.BeginQuery(0, 0);
  EXPECT_FALSE(system.TryRead(q, 0).ok());
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(ReplicatedSystemTest, AsyncCommitFasterThanSyncOnSlowNetwork) {
  auto make = [](Method m) {
    auto config = Config(m);
    config.network.base_latency_us = 100'000;  // 100 ms WAN
    config.network.jitter_us = 0;
    return config;
  };
  SimTime async_commit = -1, sync_commit = -1;
  {
    ReplicatedSystem system(make(Method::kCommu));
    MustSubmit(system, 0, {Operation::Increment(0, 1)},
               [&](Status) { async_commit = system.simulator().Now(); });
    system.RunUntilQuiescent();
  }
  {
    ReplicatedSystem system(make(Method::kSync2pc));
    MustSubmit(system, 0, {Operation::Increment(0, 1)},
               [&](Status) { sync_commit = system.simulator().Now(); });
    system.RunUntilQuiescent();
  }
  EXPECT_EQ(async_commit, 0) << "COMMU commits locally, instantly";
  EXPECT_GE(sync_commit, 400'000) << "2PC pays four WAN hops";
}

TEST(ReplicatedSystemTest, HistoryRecordsUpdatesAppliesAndReads) {
  ReplicatedSystem system(Config(Method::kCommu));
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunUntilQuiescent();
  RunQuery(system, 1, kUnboundedEpsilon, {0});
  const auto& h = system.history();
  EXPECT_EQ(h.updates().size(), 1u);
  EXPECT_EQ(h.ApplyCount(h.updates()[0].et), 3);
  EXPECT_EQ(h.reads().size(), 1u);
  EXPECT_EQ(h.queries().size(), 1u);
}

TEST(ReplicatedSystemTest, RecordHistoryOffKeepsHistoryEmpty) {
  auto config = Config(Method::kCommu);
  config.record_history = false;
  ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.history().updates().empty());
  EXPECT_TRUE(system.Converged());
}

TEST(ReplicatedSystemTest, CountersAccumulateProtocolEvents) {
  ReplicatedSystem system(Config(Method::kCommu));
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunUntilQuiescent();
  EXPECT_EQ(test::EventCount(system, "esr.updates_committed"), 1);
  EXPECT_EQ(test::EventCount(system, "esr.msets_applied"), 3);
  EXPECT_EQ(test::EventCount(system, "esr.stable"), 1);
}

TEST(ReplicatedSystemTest, SingleSiteSystemWorks) {
  ReplicatedSystem system(Config(Method::kOrdup, /*num_sites=*/1));
  MustSubmit(system, 0, {Operation::Increment(0, 2)});
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  auto values = RunQuery(system, 0, 0, {0});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].AsInt(), 2);
}

TEST(ReplicatedSystemTest, DeterministicAcrossIdenticalRuns) {
  auto run = [](uint64_t seed) {
    auto config = Config(Method::kCommu, 3, seed);
    config.network.jitter_us = 2'000;
    ReplicatedSystem system(config);
    for (int i = 0; i < 10; ++i) {
      MustSubmit(system, i % 3, {Operation::Increment(i % 2, 1)});
    }
    system.RunUntilQuiescent();
    return std::make_pair(system.SiteDigest(0),
                          test::EventCount(system, "esr.msets_applied"));
  };
  EXPECT_EQ(run(99), run(99));
}

}  // namespace
}  // namespace esr::core
