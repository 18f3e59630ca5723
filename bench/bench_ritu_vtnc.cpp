// Experiment E8: RITU's multi-version VTNC trade-off (paper section 3.3):
// queries reading at-or-below the VTNC are serializable but stale; each
// read of a newer version costs one inconsistency unit, and the epsilon
// budget decides how much freshness a query can buy.
//
// Sweep epsilon x update rate and report: fraction of snapshot
// (VTNC-bounded) reads, the staleness of what queries actually saw
// (version-timestamp lag behind the site's newest version), inconsistency
// spent, and version-chain growth.

#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "esr/replicated_system.h"
#include "esr/ritu.h"
#include "workload/workload.h"

namespace esr {
namespace {

using bench::Banner;
using bench::Fmt;
using bench::Table;
using core::kUnboundedEpsilon;
using core::Method;
using core::ReplicatedSystem;
using core::SystemConfig;
using store::Operation;

struct Cell {
  double snapshot_read_fraction = 0;
  double mean_staleness_versions = 0;
  double mean_inconsistency = 0;
  int64_t versions_per_object = 0;
};

Cell Run(int64_t epsilon, SimDuration think_us, uint64_t seed) {
  SystemConfig config;
  config.method = Method::kRituMulti;
  config.num_sites = 3;
  config.seed = seed;
  config.network.base_latency_us = 20'000;
  config.heartbeat_interval_us = 10'000;
  ReplicatedSystem system(config);

  constexpr int kObjects = 4;
  Rng rng(seed);
  Summary staleness;
  Summary inconsistency;
  int64_t reads = 0;

  // Interleave updates and hand-driven queries so we can inspect version
  // timestamps per read.
  for (int round = 0; round < 200; ++round) {
    const ObjectId object = rng.Uniform(0, kObjects - 1);
    (void)system.SubmitUpdate(
        static_cast<SiteId>(rng.Uniform(0, 2)),
        {Operation::TimestampedWrite(object, Value(rng.Uniform(0, 1000)),
                                     kZeroTimestamp)});
    system.RunFor(think_us);
    if (round % 4 == 3) {
      const SiteId site = static_cast<SiteId>(rng.Uniform(0, 2));
      const EtId q = system.BeginQuery(site, epsilon);
      for (int r = 0; r < 3; ++r) {
        const ObjectId target = rng.Uniform(0, kObjects - 1);
        // Latest version the site currently stores (freshness reference).
        auto latest = system.site_store(site).ReadLatest(target);
        Result<Value> v = system.TryRead(q, target);
        if (!v.ok()) continue;
        ++reads;
        // Which version did the query see? Count versions newer than it.
        int64_t newer = 0;
        if (latest.has_value()) {
          // Find the version whose value matches what we read, scanning
          // from the newest side via timestamps.
          auto pin_state = system.query_state(q);
          LamportTimestamp seen_ts = latest->timestamp;
          if (pin_state != nullptr && pin_state->vtnc_pin.has_value() &&
              !(latest->value == *v)) {
            auto snap = system.site_store(site).ReadAtOrBefore(
                target, *pin_state->vtnc_pin);
            if (snap.has_value()) seen_ts = snap->timestamp;
          }
          // Staleness = versions strictly newer than the one seen.
          auto* vs = &system.site_store(site);
          const int64_t total = vs->VersionCount(target);
          // Approximate: count via timestamps by walking ReadAtOrBefore.
          // (Version stores are small here; linear walk acceptable.)
          int64_t seen_rank = 0;
          LamportTimestamp cursor = seen_ts;
          while (true) {
            auto below = vs->ReadAtOrBefore(
                target, core::PredTimestamp(cursor));
            if (!below.has_value()) break;
            cursor = below->timestamp;
            ++seen_rank;
          }
          newer = total - 1 - seen_rank;
          if (newer < 0) newer = 0;
        }
        staleness.Add(static_cast<double>(newer));
      }
      const core::QueryState* state = system.query_state(q);
      if (state != nullptr) {
        inconsistency.Add(static_cast<double>(state->inconsistency));
      }
      (void)system.EndQuery(q);
    }
  }
  system.RunUntilQuiescent();
  bench::CollectMetrics(system);

  Cell cell;
  const int64_t snapshot_reads =
      bench::EventCount(system, "esr.ritu_snapshot_reads");
  cell.snapshot_read_fraction =
      reads > 0 ? static_cast<double>(snapshot_reads) / reads : 0;
  cell.mean_staleness_versions = staleness.mean();
  cell.mean_inconsistency = inconsistency.mean();
  int64_t versions = 0;
  for (ObjectId o = 0; o < kObjects; ++o) {
    versions += system.site_store(0).VersionCount(o);
  }
  cell.versions_per_object = versions / kObjects;
  return cell;
}

}  // namespace
}  // namespace esr

int main() {
  using namespace esr;
  using namespace esr::bench;

  Banner("E8: RITU VTNC freshness/consistency trade (3 sites, 20 ms links)");
  Table table({"update gap", "epsilon", "snapshot-read fraction",
               "mean staleness (versions behind)", "mean inconsistency spent",
               "versions/object"});
  uint64_t seed = 800;
  for (SimDuration think_us : {2'000, 10'000, 50'000}) {
    for (int64_t epsilon : {int64_t{0}, int64_t{1}, int64_t{3},
                            kUnboundedEpsilon}) {
      auto cell = Run(epsilon, think_us, ++seed);
      table.AddRow({Fmt(think_us / 1000.0, 0) + " ms",
                    epsilon == kUnboundedEpsilon ? "inf"
                                                 : std::to_string(epsilon),
                    Fmt(100.0 * cell.snapshot_read_fraction, 1) + "%",
                    Fmt(cell.mean_staleness_versions, 2),
                    Fmt(cell.mean_inconsistency, 2),
                    std::to_string(cell.versions_per_object)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: epsilon=0 forces 100%% snapshot reads whenever the\n"
      "VTNC lags (fast update gaps) — maximal staleness, zero inconsistency;\n"
      "growing epsilon buys fresh reads (staleness drops, inconsistency\n"
      "spent rises); with slow update gaps the VTNC keeps up and even\n"
      "epsilon=0 reads are fresh. Queries never block in any cell.\n");
  WriteMetricsSnapshot("bench_ritu_vtnc");
  return 0;
}
