// Partition and recovery: asynchronous replica control vs a quorum system,
// plus compensation-based recovery of a cancelled update (paper sections
// 1, 4 and 5.3).
//
// Act 1 — COMMU keeps BOTH sides of a partition fully available; the sides
//         diverge temporarily and merge automatically when the partition
//         heals ("instead of processing logs at reconnection time, our
//         methods control divergence dynamically").
// Act 2 — the same scenario under weighted voting: the minority side
//         blocks (1SR preserved, availability lost).
// Act 3 — COMPE: an order placed during the partition is cancelled after
//         heal; its replicated effects are compensated everywhere.
// Act 4 — an amnesia crash: a site loses ALL volatile state mid-run and
//         rebuilds from its checkpoint, WAL replay, and anti-entropy
//         catch-up from the surviving replicas.

#include <cstdio>

#include "esr/replicated_system.h"

using esr::core::Method;
using esr::core::ReplicatedSystem;
using esr::core::SystemConfig;
using esr::store::Operation;

namespace {
constexpr esr::ObjectId kInventory = 0;
}

static void ActOne() {
  std::printf("=== Act 1: COMMU through a partition ===\n");
  SystemConfig config;
  config.method = Method::kCommu;
  config.num_sites = 4;
  config.seed = 21;
  ReplicatedSystem system(config);
  (void)system.SubmitUpdate(0, {Operation::Increment(kInventory, 100)});
  system.RunUntilQuiescent();

  system.network().SetPartition({{0, 1}, {2, 3}});
  std::printf("partition {0,1} | {2,3}; both sides keep selling...\n");
  int committed = 0;
  (void)system.SubmitUpdate(0, {Operation::Increment(kInventory, -10)},
                            [&](esr::Status s) { committed += s.ok(); });
  (void)system.SubmitUpdate(3, {Operation::Increment(kInventory, -25)},
                            [&](esr::Status s) { committed += s.ok(); });
  system.RunFor(200'000);
  std::printf("committed during partition: %d of 2\n", committed);
  std::printf("side A sees %s, side B sees %s (temporarily divergent)\n",
              system.SiteValue(0, kInventory).ToString().c_str(),
              system.SiteValue(3, kInventory).ToString().c_str());

  system.network().HealPartition();
  system.RunUntilQuiescent();
  std::printf("after heal: converged=%s, every site sees %s\n\n",
              system.Converged() ? "yes" : "no",
              system.SiteValue(1, kInventory).ToString().c_str());
}

static void ActTwo() {
  std::printf("=== Act 2: weighted voting through the same partition ===\n");
  SystemConfig config;
  config.method = Method::kSyncQuorum;
  config.num_sites = 4;  // majority = 3
  config.seed = 22;
  ReplicatedSystem system(config);
  (void)system.SubmitUpdate(0, {Operation::Increment(kInventory, 100)});
  system.RunUntilQuiescent();

  system.network().SetPartition({{0, 1}, {2, 3}});
  int committed = 0;
  (void)system.SubmitUpdate(0, {Operation::Increment(kInventory, -10)},
                            [&](esr::Status s) { committed += s.ok(); });
  (void)system.SubmitUpdate(3, {Operation::Increment(kInventory, -25)},
                            [&](esr::Status s) { committed += s.ok(); });
  system.RunFor(500'000);
  std::printf("committed during partition: %d of 2 "
              "(neither side holds a 3-site majority)\n",
              committed);
  system.network().HealPartition();
  system.RunUntilQuiescent();
  std::printf("after heal both stalled updates complete: committed=%d\n\n",
              committed);
}

static void ActThree() {
  std::printf("=== Act 3: COMPE compensates a cancelled order ===\n");
  SystemConfig config;
  config.method = Method::kCompe;
  config.num_sites = 3;
  config.seed = 23;
  ReplicatedSystem system(config);
  (void)system.SubmitUpdate(0, {Operation::Increment(kInventory, 50)});
  system.RunUntilQuiescent();

  auto order =
      system.SubmitUpdate(1, {Operation::Increment(kInventory, -20)});
  std::printf("order placed optimistically; all replicas apply it...\n");
  system.RunUntilQuiescent();
  std::printf("inventory at site 2: %s (tentative)\n",
              system.SiteValue(2, kInventory).ToString().c_str());

  std::printf("customer cancels -> global abort -> compensation MSets\n");
  (void)system.Decide(*order, /*commit=*/false);
  system.RunUntilQuiescent();
  std::printf("inventory at site 2: %s (restored), converged=%s, "
              "compensations=%lld\n",
              system.SiteValue(2, kInventory).ToString().c_str(),
              system.Converged() ? "yes" : "no",
              static_cast<long long>(system.metrics().CounterValue(
                  "esr_events_total", {{"event", "esr.compensations"}})));
}

static void ActFour() {
  std::printf("\n=== Act 4: amnesia crash + durable recovery ===\n");
  SystemConfig config;
  config.method = Method::kCommu;
  config.num_sites = 3;
  config.seed = 24;
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 50'000;
  ReplicatedSystem system(config);

  // Site 2 loses everything at 60 ms — stores, clocks, lock counters, the
  // unflushed WAL tail — and restarts at 250 ms.
  system.failures().ScheduleCrash(
      esr::sim::CrashSpec{/*site=*/2, /*crash_at=*/60'000,
                          /*restart_at=*/250'000, /*amnesia=*/true});
  for (int i = 0; i < 10; ++i) {
    system.simulator().ScheduleAt(i * 20'000, [&system]() {
      (void)system.SubmitUpdate(0, {Operation::Increment(kInventory, 1)});
      (void)system.SubmitUpdate(1, {Operation::Increment(kInventory, 1)});
    });
  }
  system.RunFor(70'000);
  std::printf("site 2 crashed with amnesia at 60 ms; sales continue...\n");
  system.RunFor(300'000);
  system.RunUntilQuiescent();

  const auto& report = system.recovery_manager()->last_report(2);
  std::printf(
      "recovery: checkpoint=%s, replayed %lld WAL records (%lld MSets), "
      "%lld MSets via catch-up, lag %.1f ms\n",
      report.had_checkpoint ? "yes" : "no",
      static_cast<long long>(report.replayed_records),
      static_cast<long long>(report.replayed_msets),
      static_cast<long long>(report.catchup_msets),
      static_cast<double>(report.catchup_done_at - report.restarted_at) /
          1'000.0);
  std::printf("inventory at site 2: %s, converged=%s\n",
              system.SiteValue(2, kInventory).ToString().c_str(),
              system.Converged() ? "yes" : "no");
}

int main() {
  ActOne();
  ActTwo();
  ActThree();
  ActFour();
  return 0;
}
