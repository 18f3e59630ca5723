// Experiment E6: cost of the divergence-bounding machinery itself
// (paper section 3: inconsistency counters, lock-counters, and the
// out-of-order detection they require).
//
//   * micro (google-benchmark): lock-counter charge/commit, ORDUP-style
//     overlap counting, timestamp-ordering checks, store snapshot
//     reads — the per-read bookkeeping prices.
//   * macro: COMMU query blocking probability and latency vs epsilon, and
//     the update-side lock-counter throttle's effect.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "cc/timestamp_ordering.h"
#include "esr/lock_counters.h"
#include "esr/replicated_system.h"
#include "store/mv_store.h"
#include "workload/workload.h"

namespace esr {
namespace {

using bench::Banner;
using bench::EventCount;
using bench::Fmt;
using bench::Table;

void BM_LockCounterChargeCommit(benchmark::State& state) {
  core::LockCounterTable table;
  core::QueryState q;
  table.Increment({core::WeightedObject{0, 1}, core::WeightedObject{1, 1},
                   core::WeightedObject{2, 1}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Charge(q, 1));
    table.CommitCharge(q, 1);
  }
}
BENCHMARK(BM_LockCounterChargeCommit);

void BM_OverlapCountUpperBound(benchmark::State& state) {
  // ORDUP's per-read overlap count is an upper_bound over the applied-write
  // order list of one object.
  std::vector<SequenceNumber> seqs;
  for (SequenceNumber s = 1; s <= state.range(0); ++s) seqs.push_back(s);
  SequenceNumber pin = state.range(0) / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seqs.end() - std::upper_bound(seqs.begin(), seqs.end(), pin));
  }
}
BENCHMARK(BM_OverlapCountUpperBound)->Arg(100)->Arg(10'000)->Arg(1'000'000);

void BM_TimestampOrderingQueryRead(benchmark::State& state) {
  cc::TimestampOrdering to;
  (void)to.UpdateWrite({100, 0}, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(to.QueryReadInconsistency({50, 0}, 7));
  }
}
BENCHMARK(BM_TimestampOrderingQueryRead);

void BM_MvStoreSnapshotRead(benchmark::State& state) {
  store::MvStore vs;
  for (int64_t i = 1; i <= state.range(0); ++i) {
    vs.AppendVersion(0, {i, 0}, Value(i));
  }
  const LamportTimestamp pin{state.range(0) / 2, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(vs.ReadAtOrBefore(0, pin));
  }
}
BENCHMARK(BM_MvStoreSnapshotRead)->Arg(16)->Arg(1024)->Arg(65536);

void MacroBlockingSweep() {
  Banner("E6 macro: COMMU query blocking vs epsilon (20 ms links, hot set)");
  Table table({"epsilon", "queries/s", "blocked attempts / query",
               "qry p50 (ms)", "qry p99 (ms)"});
  for (int64_t epsilon : {int64_t{0}, int64_t{1}, int64_t{4}, int64_t{16},
                          core::kUnboundedEpsilon}) {
    core::SystemConfig config;
    config.method = core::Method::kCommu;
    config.num_sites = 3;
    config.seed = 600;
    config.network.base_latency_us = 20'000;
    config.record_history = false;
    core::ReplicatedSystem system(config);
    workload::WorkloadSpec spec;
    spec.seed = 600;
    spec.num_objects = 4;
    spec.update_fraction = 0.5;
    spec.query_epsilon = epsilon;
    spec.clients_per_site = 2;
    spec.think_time_us = 5'000;
    spec.duration_us = 1'000'000;
    workload::WorkloadRunner runner(&system, spec);
    auto result = runner.Run();
    bench::CollectMetrics(system);
    const double blocked_per_query =
        result.queries_completed > 0
            ? static_cast<double>(result.query_blocked_attempts) /
                  result.queries_completed
            : 0;
    table.AddRow({epsilon == core::kUnboundedEpsilon ? "inf"
                                                     : std::to_string(epsilon),
                  Fmt(result.QueriesPerSec()), Fmt(blocked_per_query, 2),
                  Fmt(result.query_latency_us.Percentile(50) / 1000.0, 2),
                  Fmt(result.query_latency_us.Percentile(99) / 1000.0, 2)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: tighter epsilon -> more blocked read attempts and\n"
      "higher query latency (queries wait for stability); epsilon=inf\n"
      "never blocks.\n");
}

void UpdateThrottleSweep() {
  Banner("E6 macro: update-side lock-counter limit (COMMU, paper 3.2)");
  Table table({"lock-counter limit", "updates/s", "updates throttled",
               "mean query inconsistency"});
  for (int64_t limit : {int64_t{0}, int64_t{8}, int64_t{4}, int64_t{2},
                        int64_t{1}}) {
    core::SystemConfig config;
    config.method = core::Method::kCommu;
    config.num_sites = 3;
    config.seed = 601;
    config.network.base_latency_us = 20'000;
    config.commu_update_lock_limit = limit;
    config.record_history = false;
    core::ReplicatedSystem system(config);
    workload::WorkloadSpec spec;
    spec.seed = 601;
    spec.num_objects = 4;
    spec.update_fraction = 0.5;
    spec.clients_per_site = 2;
    spec.think_time_us = 5'000;
    spec.duration_us = 1'000'000;
    workload::WorkloadRunner runner(&system, spec);
    auto result = runner.Run();
    bench::CollectMetrics(system);
    table.AddRow({limit == 0 ? "none" : std::to_string(limit),
                  Fmt(result.UpdatesPerSec()),
                  std::to_string(
                      EventCount(system, "esr.update_throttled")),
                  Fmt(result.query_inconsistency.mean(), 2)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: tighter update limits throttle update throughput\n"
      "and cap the inconsistency queries can observe — \"query ETs have a\n"
      "better chance of completion\".\n");
}

}  // namespace
}  // namespace esr

int main(int argc, char** argv) {
  esr::MacroBlockingSweep();
  esr::UpdateThrottleSweep();
  esr::bench::WriteMetricsSnapshot("bench_divergence_bounding");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
