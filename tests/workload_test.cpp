#include "workload/workload.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace esr::workload {
namespace {

using core::Method;
using test::Config;

TEST(WorkloadTest, DrivesMixedLoadAndCollectsMetrics) {
  core::ReplicatedSystem system(Config(Method::kCommu, 3, 71));
  WorkloadSpec spec;
  spec.seed = 71;
  spec.duration_us = 200'000;
  spec.clients_per_site = 2;
  spec.update_fraction = 0.4;
  WorkloadRunner runner(&system, spec);
  auto result = runner.Run();
  EXPECT_GT(result.updates_committed, 0);
  EXPECT_GT(result.queries_completed, 0);
  EXPECT_EQ(result.reads_completed,
            result.queries_completed * spec.reads_per_query);
  EXPECT_GT(result.UpdatesPerSec(), 0);
  EXPECT_GT(result.QueriesPerSec(), 0);
  EXPECT_GT(result.update_latency_us.count(), 0);
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(WorkloadTest, DeterministicForSameSeed) {
  auto run = [](uint64_t seed) {
    core::ReplicatedSystem system(Config(Method::kCommu, 3, seed));
    WorkloadSpec spec;
    spec.seed = seed;
    spec.duration_us = 100'000;
    WorkloadRunner runner(&system, spec);
    auto result = runner.Run();
    return std::make_pair(result.updates_committed,
                          result.queries_completed);
  };
  EXPECT_EQ(run(5), run(5));
}

TEST(WorkloadTest, RituWorkloadUsesTimestampedWrites) {
  core::ReplicatedSystem system(Config(Method::kRituMulti, 3, 73));
  WorkloadSpec spec;
  spec.seed = 73;
  spec.duration_us = 150'000;
  spec.update_kind = WorkloadSpec::UpdateKind::kTimestampedWrite;
  WorkloadRunner runner(&system, spec);
  auto result = runner.Run();
  EXPECT_GT(result.updates_committed, 0);
  EXPECT_EQ(result.updates_rejected, 0) << "all updates admissible";
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(WorkloadTest, CompeWorkloadDecidesUpdates) {
  core::ReplicatedSystem system(Config(Method::kCompe, 3, 75));
  WorkloadSpec spec;
  spec.seed = 75;
  spec.duration_us = 150'000;
  spec.compe_abort_probability = 0.3;
  spec.compe_decision_delay_us = 5'000;
  WorkloadRunner runner(&system, spec);
  auto result = runner.Run();
  EXPECT_GT(result.updates_committed, 0);
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_GT(test::EventCount(system, "esr.compe_aborts"), 0);
  EXPECT_GT(test::EventCount(system, "esr.compe_commits"), 0);
}

TEST(WorkloadTest, SyncMethodsRunTheSameWorkload) {
  core::ReplicatedSystem system(Config(Method::kSync2pc, 3, 77));
  WorkloadSpec spec;
  spec.seed = 77;
  spec.duration_us = 150'000;
  spec.update_fraction = 0.3;
  WorkloadRunner runner(&system, spec);
  auto result = runner.Run();
  EXPECT_GT(result.updates_committed, 0);
  EXPECT_GT(result.queries_completed, 0);
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(WorkloadTest, ZipfSkewConcentratesOnHotObjects) {
  core::ReplicatedSystem system(Config(Method::kCommu, 3, 79));
  WorkloadSpec spec;
  spec.seed = 79;
  spec.duration_us = 150'000;
  spec.zipf_theta = 0.95;
  spec.num_objects = 50;
  spec.update_fraction = 1.0;
  WorkloadRunner runner(&system, spec);
  auto result = runner.Run();
  system.RunUntilQuiescent();
  ASSERT_GT(result.updates_committed, 0);
  // Hot object 0 should have absorbed far more increments than object 25.
  EXPECT_GT(system.SiteValue(0, 0).AsInt(),
            system.SiteValue(0, 25).AsInt());
}

TEST(WorkloadTest, EpsilonZeroWorkloadStaysBounded) {
  core::ReplicatedSystem system(Config(Method::kCommu, 3, 81));
  WorkloadSpec spec;
  spec.seed = 81;
  spec.duration_us = 150'000;
  spec.query_epsilon = 0;
  spec.update_fraction = 0.3;
  WorkloadRunner runner(&system, spec);
  auto result = runner.Run();
  EXPECT_GT(result.queries_completed, 0);
  EXPECT_DOUBLE_EQ(result.query_inconsistency.max(), 0.0);
}

TEST(WorkloadTest, TransferWorkloadConservesSum) {
  core::ReplicatedSystem system(Config(Method::kCommu, 3, 83));
  WorkloadSpec spec;
  spec.seed = 83;
  spec.duration_us = 150'000;
  spec.update_kind = WorkloadSpec::UpdateKind::kTransfer;
  spec.update_fraction = 0.8;
  spec.num_objects = 6;
  WorkloadRunner runner(&system, spec);
  auto result = runner.Run();
  system.RunUntilQuiescent();
  ASSERT_GT(result.updates_committed, 0);
  ASSERT_TRUE(system.Converged());
  int64_t sum = 0;
  for (esr::ObjectId o = 0; o < 6; ++o) {
    sum += system.SiteValue(0, o).AsInt();
  }
  EXPECT_EQ(sum, 0);
}

TEST(WorkloadTest, ReadGapSpreadsQueriesOverTime) {
  core::ReplicatedSystem system(Config(Method::kCommu, 3, 85));
  WorkloadSpec spec;
  spec.seed = 85;
  spec.duration_us = 150'000;
  spec.update_fraction = 0.0;  // queries only
  spec.reads_per_query = 4;
  spec.read_gap_us = 10'000;
  WorkloadRunner runner(&system, spec);
  auto result = runner.Run();
  ASSERT_GT(result.queries_completed, 0);
  // Each query spans at least 3 gaps.
  EXPECT_GE(result.query_latency_us.min(), 30'000);
}

TEST(WorkloadResultTest, ThroughputAndCompletionMath) {
  WorkloadResult r;
  r.issue_window_us = 1'000'000;
  r.updates_committed = 500;
  r.queries_started = 100;
  r.queries_completed = 80;
  EXPECT_DOUBLE_EQ(r.UpdatesPerSec(), 500.0);
  EXPECT_DOUBLE_EQ(r.QueryCompletionRate(), 0.8);
  EXPECT_FALSE(r.ToString().empty());
}

}  // namespace
}  // namespace esr::workload
