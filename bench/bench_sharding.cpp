// Experiment E-SHARD: partial replication cost scaling.
//
// An 8-site ORDUP system with replication factor 2 runs the same
// increment-heavy workload while the object universe is split into
// 1 (full replication baseline), 2, 4 and 8 shards. Each site stores,
// orders and applies only the shards the placement map assigns it, so
// per-site WAL bytes, store size and delivered messages should fall
// toward RF/N of the full-replication baseline as the shard count rises —
// that ratio is the entire point of partial replication, and the bench
// asserts it at shards=4 (RF/N = 2/8 = 0.25, with tolerance for sequencer
// and catch-up traffic that does not shrink with the shard count).
//
// A second section runs a mixed query/update cell at shards=4 with a
// finite epsilon, exercising owner-forwarded reads, and reports query
// completion and the observed inconsistency against the bound. A third
// re-runs one sharded cell twice with the same seed and compares per-site
// state digests — sharded executions must stay deterministic.
//
// Usage: bench_sharding [shard_count ...]
//   With no arguments sweeps {1, 2, 4, 8}.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "esr/replicated_system.h"
#include "workload/workload.h"

namespace esr {
namespace {

using bench::Banner;
using bench::Fmt;
using bench::FmtInt;
using bench::Table;
using core::Method;
using core::ReplicatedSystem;
using core::SystemConfig;

constexpr int kSites = 8;
constexpr int kReplicationFactor = 2;
constexpr uint64_t kSeed = 4242;

SystemConfig MakeConfig(int num_shards) {
  SystemConfig config;
  config.method = Method::kOrdup;
  config.num_sites = kSites;
  config.seed = kSeed;
  config.shard.num_shards = num_shards;
  config.shard.replication_factor = kReplicationFactor;
  // WAL without periodic checkpoints: nothing truncates the log, so
  // StorageBytes at the end is the total bytes each site ever logged.
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 0;
  return config;
}

workload::WorkloadSpec MakeSpec(double update_fraction) {
  workload::WorkloadSpec spec;
  spec.num_objects = 512;
  spec.update_fraction = update_fraction;
  spec.ops_per_update = 2;
  spec.single_shard_fraction = 0.8;
  spec.duration_us = 400'000;
  spec.drain_us = 400'000;
  spec.seed = kSeed;
  return spec;
}

struct Cell {
  workload::WorkloadResult workload;
  double wal_bytes_per_site = 0;
  double store_objects_per_site = 0;
  double delivered_per_site = 0;
  bool converged = false;
  std::vector<uint64_t> digests;
};

Cell Run(int num_shards, double update_fraction) {
  ReplicatedSystem system(MakeConfig(num_shards));
  workload::WorkloadRunner runner(&system, MakeSpec(update_fraction));
  Cell cell;
  cell.workload = runner.Run();
  system.RunUntilQuiescent();
  for (SiteId s = 0; s < kSites; ++s) {
    cell.wal_bytes_per_site += static_cast<double>(
        system.recovery_manager()->site(s)->wal().StorageBytes());
    cell.store_objects_per_site +=
        static_cast<double>(system.site_store(s).ObjectCount());
    cell.delivered_per_site += static_cast<double>(
        bench::TransportEventCount(system, s, "queue.delivered"));
    cell.digests.push_back(system.SiteDigest(s));
  }
  cell.wal_bytes_per_site /= kSites;
  cell.store_objects_per_site /= kSites;
  cell.delivered_per_site /= kSites;
  cell.converged = system.Converged();
  bench::CollectMetrics(system);
  return cell;
}

}  // namespace
}  // namespace esr

int main(int argc, char** argv) {
  using namespace esr;
  using namespace esr::bench;

  std::vector<int> shard_counts;
  for (int i = 1; i < argc; ++i) shard_counts.push_back(std::atoi(argv[i]));
  if (shard_counts.empty()) shard_counts = {1, 2, 4, 8};

  bool all_ok = true;

  Banner(
      "E-SHARD: per-site replication cost vs shard count (8 sites, ORDUP, "
      "RF=2, update-only workload, 80% single-shard ETs)");
  Table scaling({"shards", "wal B/site", "store objs/site", "delivered/site",
                 "updates/s", "wal ratio", "store ratio", "msg ratio",
                 "converged"});
  double base_wal = 0, base_store = 0, base_msgs = 0;
  double ratio_wal4 = 1, ratio_store4 = 1, ratio_msgs4 = 1;
  for (int shards : shard_counts) {
    const Cell cell = Run(shards, /*update_fraction=*/1.0);
    if (shards == shard_counts.front()) {
      base_wal = cell.wal_bytes_per_site;
      base_store = cell.store_objects_per_site;
      base_msgs = cell.delivered_per_site;
    }
    const double rw = base_wal > 0 ? cell.wal_bytes_per_site / base_wal : 1;
    const double rs =
        base_store > 0 ? cell.store_objects_per_site / base_store : 1;
    const double rm =
        base_msgs > 0 ? cell.delivered_per_site / base_msgs : 1;
    if (shards == 4) {
      ratio_wal4 = rw;
      ratio_store4 = rs;
      ratio_msgs4 = rm;
    }
    all_ok = all_ok && cell.converged;
    scaling.AddRow({FmtInt(shards), Fmt(cell.wal_bytes_per_site, 0),
                    Fmt(cell.store_objects_per_site, 1),
                    Fmt(cell.delivered_per_site, 0),
                    Fmt(cell.workload.UpdatesPerSec(), 0), Fmt(rw, 3),
                    Fmt(rs, 3), Fmt(rm, 3),
                    cell.converged ? "yes" : "NO"});
  }
  scaling.Print();
  // RF/N = 0.25 at 8 sites; allow slack for the per-shard sequencer round
  // trips, retransmission floors and checkpoint framing that do not shrink
  // with the shard count.
  const double kStoreBound = 0.45;
  const double kMsgBound = 0.60;
  const double kWalBound = 0.75;
  std::printf(
      "\nshards=4 ratios vs full replication: wal=%.3f (bound %.2f) "
      "store=%.3f (bound %.2f) msgs=%.3f (bound %.2f)\n",
      ratio_wal4, kWalBound, ratio_store4, kStoreBound, ratio_msgs4,
      kMsgBound);
  const bool scaling_ok = ratio_store4 <= kStoreBound &&
                          ratio_msgs4 <= kMsgBound && ratio_wal4 <= kWalBound;
  all_ok = all_ok && scaling_ok;

  Banner(
      "E-SHARD mixed: queries with epsilon=4 at shards=4 (owner-forwarded "
      "reads)");
  {
    ReplicatedSystem system(MakeConfig(/*num_shards=*/4));
    workload::WorkloadSpec spec = MakeSpec(/*update_fraction=*/0.3);
    spec.query_epsilon = 4;
    spec.reads_per_query = 3;
    workload::WorkloadRunner runner(&system, spec);
    const workload::WorkloadResult result = runner.Run();
    system.RunUntilQuiescent();
    const bool converged = system.Converged();
    const int64_t forwarded = EventCount(system, "esr.reads_forwarded");
    const double worst_inconsistency = result.query_inconsistency.Percentile(100);
    Table mixed({"queries/s", "completion", "reads fwd", "inconsistency mean",
                 "inconsistency max", "epsilon", "converged"});
    mixed.AddRow({Fmt(result.QueriesPerSec(), 0),
                  Fmt(result.QueryCompletionRate(), 3), FmtInt(forwarded),
                  Fmt(result.query_inconsistency.mean(), 3),
                  Fmt(worst_inconsistency, 1), "4",
                  converged ? "yes" : "NO"});
    mixed.Print();
    const bool mixed_ok = converged && forwarded > 0 &&
                          result.queries_completed > 0 &&
                          worst_inconsistency <= 4.0;
    all_ok = all_ok && mixed_ok;
    bench::CollectMetrics(system);
  }

  Banner("E-SHARD determinism: identical seeds, identical per-site digests");
  {
    const Cell a = Run(/*num_shards=*/4, /*update_fraction=*/1.0);
    const Cell b = Run(/*num_shards=*/4, /*update_fraction=*/1.0);
    const bool deterministic = a.digests == b.digests;
    Table det({"runs", "digests match"});
    det.AddRow({"2", deterministic ? "yes" : "NO"});
    det.Print();
    all_ok = all_ok && deterministic;
  }

  std::printf("\n%s: sharding cost scaling, epsilon bound, determinism\n",
              all_ok ? "PASS" : "FAIL");
  WriteMetricsSnapshot("bench_sharding");
  return all_ok ? 0 : 1;
}
