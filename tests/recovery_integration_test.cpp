// Amnesia-crash recovery against the full replica control stack: a crashed
// site loses ALL volatile state (stores, logs, clock, method instance) and
// must rebuild through checkpoint load + WAL replay + anti-entropy
// catch-up, converging to the same 1SR final state a crash-free run
// reaches. The fail-stop crash tests in failure_integration_test.cpp keep
// covering the frozen-state model; everything here runs with
// config.recovery.enabled and amnesia=true crash windows.

#include <gtest/gtest.h>

#include <filesystem>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "analysis/sr_checker.h"
#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;
using test::RunQuery;

SystemConfig CrashConfig(Method method, uint64_t seed) {
  SystemConfig config = Config(method, 3, seed);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 40'000;
  return config;
}

// The amnesia window used throughout: site 2 loses its volatile state at
// 25ms and recovers at 160ms, mid-workload. Sites 0/1 (the updaters, and
// the ORDUP sequencer) are never crashed, so both runs of a crash/no-crash
// pair submit the identical update sequence.
constexpr sim::CrashSpec kAmnesia{/*site=*/2, /*crash_at=*/25'000,
                                  /*restart_at=*/160'000, /*amnesia=*/true};

struct WorkloadResult {
  bool converged = false;
  int64_t value0 = 0;
  int64_t value1 = 0;
  std::vector<uint64_t> digests;
};

// Twelve increments from alternating origins; COMPE variants decide each
// update commit so it can stabilize. Commutative deltas make the final
// state independent of message-timing differences between the crash and
// no-crash executions.
WorkloadResult RunCounterWorkload(const SystemConfig& config, bool crash) {
  ReplicatedSystem system(config);
  const bool compe = config.method == Method::kCompe ||
                     config.method == Method::kCompeOrdered;
  if (crash) system.failures().ScheduleCrash(kAmnesia);
  for (int i = 0; i < 12; ++i) {
    const EtId et = MustSubmit(
        system, i % 2,
        {Operation::Increment(0, 1), Operation::Increment(1, i)});
    if (compe) {
      EXPECT_TRUE(system.Decide(et, true).ok());
    }
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  WorkloadResult result;
  result.converged = system.Converged();
  result.value0 = system.SiteValue(2, 0).AsInt();
  result.value1 = system.SiteValue(2, 1).AsInt();
  for (SiteId s = 0; s < 3; ++s) {
    result.digests.push_back(system.SiteDigest(s));
  }
  return result;
}

TEST(RecoveryIntegrationTest, CounterMethodsConvergeLikeNoCrashRun) {
  for (Method method : {Method::kCommu, Method::kOrdup, Method::kOrdupTs,
                        Method::kCompe, Method::kCompeOrdered}) {
    SCOPED_TRACE(std::string(MethodToString(method)));
    const WorkloadResult baseline =
        RunCounterWorkload(CrashConfig(method, 91), /*crash=*/false);
    const WorkloadResult crashed =
        RunCounterWorkload(CrashConfig(method, 91), /*crash=*/true);
    EXPECT_TRUE(baseline.converged);
    EXPECT_TRUE(crashed.converged);
    EXPECT_EQ(crashed.value0, 12);
    EXPECT_EQ(crashed.value1, 66);
    EXPECT_EQ(crashed.value0, baseline.value0);
    EXPECT_EQ(crashed.value1, baseline.value1);
  }
}

TEST(RecoveryIntegrationTest, RituWritesSurviveAmnesiaCrash) {
  for (Method method : {Method::kRituMulti, Method::kRituSingle}) {
    SCOPED_TRACE(std::string(MethodToString(method)));
    SystemConfig config = CrashConfig(method, 93);
    ReplicatedSystem system(config);
    system.failures().ScheduleCrash(kAmnesia);
    // One write per object: the final image is exactly the set of admitted
    // updates, so any lost or phantom write shows up as a wrong value.
    for (int i = 0; i < 10; ++i) {
      MustSubmit(system, i % 2,
                 {Operation::TimestampedWrite(10 + i, Value(int64_t{100 + i}),
                                              kZeroTimestamp)});
      system.RunFor(12'000);
    }
    system.RunUntilQuiescent();
    EXPECT_TRUE(system.Converged());
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(system.SiteValue(2, 10 + i).AsInt(), 100 + i)
          << "object " << 10 + i;
    }
  }
}

TEST(RecoveryIntegrationTest, OrdupTotalOrderPreservedAcrossRestart) {
  // Non-commutative writes to one object: if the recovered site applied
  // them in any order other than the global one, its final value would
  // differ from the never-crashed sites and convergence would fail.
  SystemConfig config = CrashConfig(Method::kOrdup, 95);
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(kAmnesia);
  for (int i = 0; i < 12; ++i) {
    MustSubmit(system, i % 2, {Operation::Write(0, Value(int64_t{1000 + i}))});
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  const int64_t final_value = system.SiteValue(0, 0).AsInt();
  EXPECT_GE(final_value, 1000);
  EXPECT_LE(final_value, 1011);
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), final_value);
  auto sr = analysis::CheckUpdateSerializability(system.history(), 3);
  EXPECT_TRUE(sr.serializable) << sr.violation;
  const auto& report = system.recovery_manager()->last_report(2);
  EXPECT_GE(report.catchup_done_at, 0) << "catch-up completed";
}

TEST(RecoveryIntegrationTest, SameSeedYieldsIdenticalPostRecoveryState) {
  for (Method method : {Method::kCommu, Method::kCompeOrdered}) {
    SCOPED_TRACE(std::string(MethodToString(method)));
    const WorkloadResult a =
        RunCounterWorkload(CrashConfig(method, 97), /*crash=*/true);
    const WorkloadResult b =
        RunCounterWorkload(CrashConfig(method, 97), /*crash=*/true);
    EXPECT_EQ(a.digests, b.digests)
        << "post-recovery state must be a pure function of (config, seed)";
    EXPECT_EQ(a.value0, b.value0);
    EXPECT_EQ(a.value1, b.value1);
  }
}

TEST(RecoveryIntegrationTest, UnflushedWalTailIsHealedByCatchup) {
  // Group commit so lazy that nothing of site 2's WAL reaches stable
  // storage before the crash (the first checkpoint would have been at
  // 40ms; the crash hits at 25ms). The whole tail is the data-loss window;
  // peers must supply everything through catch-up.
  SystemConfig config = CrashConfig(Method::kCommu, 99);
  config.recovery.group_commit_records = 1024;
  config.recovery.group_commit_interval_us = 10'000'000;
  const WorkloadResult crashed = RunCounterWorkload(config, /*crash=*/true);
  EXPECT_TRUE(crashed.converged);
  EXPECT_EQ(crashed.value0, 12);
  EXPECT_EQ(crashed.value1, 66);
}

TEST(RecoveryIntegrationTest, RecoveryReportReflectsCheckpointAndCatchup) {
  SystemConfig config = CrashConfig(Method::kCommu, 101);
  config.recovery.checkpoint_interval_us = 20'000;  // one before the crash
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(kAmnesia);
  for (int i = 0; i < 12; ++i) {
    MustSubmit(system, i % 2, {Operation::Increment(0, 1)});
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  const auto& report = system.recovery_manager()->last_report(2);
  EXPECT_TRUE(report.had_checkpoint);
  EXPECT_EQ(report.restarted_at, 160'000);
  EXPECT_GE(report.catchup_done_at, report.restarted_at);
  EXPECT_GT(report.catchup_msets, 0)
      << "updates submitted during the outage arrive via catch-up or "
         "queued delivery; at least the lost unflushed tail comes from peers";
  // Post-recovery strict query at the recovered site reads the 1SR value.
  auto values = RunQuery(system, 2, /*epsilon=*/0, {0});
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].AsInt(), 12);
}

TEST(RecoveryIntegrationTest, CheckpointsBoundWalSizeAndReplayWork) {
  auto run = [](SimDuration checkpoint_interval_us) {
    SystemConfig config = CrashConfig(Method::kCommu, 103);
    config.recovery.checkpoint_interval_us = checkpoint_interval_us;
    ReplicatedSystem system(config);
    system.failures().ScheduleCrash(kAmnesia);
    for (int i = 0; i < 20; ++i) {
      MustSubmit(system, i % 2, {Operation::Increment(0, 1)});
      system.RunFor(10'000);
    }
    system.RunUntilQuiescent();
    EXPECT_TRUE(system.Converged());
    EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 20);
    recovery::Wal& wal = system.recovery_manager()->site(0)->wal();
    wal.Flush();
    const auto& report = system.recovery_manager()->last_report(2);
    return std::make_tuple(wal.StorageBytes(), report.had_checkpoint,
                           report.replayed_records);
  };
  const auto [bytes_with, ckpt_with, replayed_with] = run(20'000);
  const auto [bytes_without, ckpt_without, replayed_without] = run(0);
  EXPECT_TRUE(ckpt_with);
  EXPECT_FALSE(ckpt_without);
  EXPECT_LT(bytes_with, bytes_without)
      << "checkpointing truncates the stable prefix out of the WAL";
  EXPECT_LE(replayed_with, replayed_without);
}

TEST(RecoveryIntegrationTest, CompeReconcilesUndecidedAppliesOnReplay) {
  // Site 2 optimistically applies tentative increments, then crashes with
  // some decisions undelivered. On replay it must reconcile the logged
  // decisions and pick up the rest via catch-up: committed deltas survive,
  // aborted ones are compensated away.
  SystemConfig config = CrashConfig(Method::kCompe, 105);
  ReplicatedSystem system(config);
  std::vector<EtId> ets;
  for (int i = 0; i < 6; ++i) {
    ets.push_back(
        MustSubmit(system, 0, {Operation::Increment(0, 1 << i)}));
    system.RunFor(5'000);
  }
  system.RunUntilQuiescent();  // all applied tentatively everywhere
  // Decide half before the crash (logged at site 2), half while it's down
  // (arrives after recovery via queued delivery / catch-up).
  ASSERT_TRUE(system.Decide(ets[0], true).ok());
  ASSERT_TRUE(system.Decide(ets[1], false).ok());
  system.RunFor(10'000);
  system.failures().ScheduleCrash(
      sim::CrashSpec{2, system.simulator().Now() + 1'000,
                     system.simulator().Now() + 80'000, /*amnesia=*/true});
  system.RunFor(20'000);  // crash has hit
  ASSERT_TRUE(system.Decide(ets[2], true).ok());
  ASSERT_TRUE(system.Decide(ets[3], false).ok());
  ASSERT_TRUE(system.Decide(ets[4], false).ok());
  ASSERT_TRUE(system.Decide(ets[5], true).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  const int64_t expected = (1 << 0) + (1 << 2) + (1 << 5);
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), expected);
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), expected);
}

TEST(RecoveryIntegrationTest, CompeOrdCrashDuringCompensationRecovers) {
  // The general compensation path: abort of a non-tail record rolls back
  // the MsetLog suffix and replays it. Site 2 processes one such rollback,
  // crashes with amnesia (the rollback must be redone from the WAL-logged
  // decision on the restored log), and a second abort lands while it is
  // down. W1..W4 write 10,20,30,40 over one object; aborting W2 and W4
  // leaves W3's value, 30, everywhere.
  SystemConfig config = CrashConfig(Method::kCompeOrdered, 107);
  ReplicatedSystem system(config);
  std::vector<EtId> ets;
  for (int i = 1; i <= 4; ++i) {
    ets.push_back(MustSubmit(
        system, 0, {Operation::Write(0, Value(int64_t{10 * i}))}));
    system.RunFor(5'000);
  }
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Decide(ets[0], true).ok());
  ASSERT_TRUE(system.Decide(ets[1], false).ok());  // non-tail: general path
  system.RunFor(15'000);  // rollback processed (and WAL-flushed) everywhere
  EXPECT_GE(system.site_mset_log(2).stats().general_rollbacks, 1);
  system.failures().ScheduleCrash(
      sim::CrashSpec{2, system.simulator().Now() + 1'000,
                     system.simulator().Now() + 90'000, /*amnesia=*/true});
  system.RunFor(20'000);
  ASSERT_TRUE(system.Decide(ets[3], false).ok());  // while site 2 is down
  ASSERT_TRUE(system.Decide(ets[2], true).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 30);
  EXPECT_EQ(system.SiteValue(1, 0).AsInt(), 30);
  // The recovered site redid the general rollback on its restored log.
  EXPECT_GE(system.site_mset_log(2).stats().general_rollbacks, 1);
}

TEST(RecoveryIntegrationTest, FileBackedStorageRecovers) {
  const std::string dir = "recovery_itest_storage";
  std::filesystem::remove_all(dir);
  SystemConfig config = CrashConfig(Method::kCommu, 109);
  config.recovery.backend = recovery::StorageBackendKind::kFile;
  config.recovery.dir = dir;
  const WorkloadResult crashed = RunCounterWorkload(config, /*crash=*/true);
  EXPECT_TRUE(crashed.converged);
  EXPECT_EQ(crashed.value0, 12);
  EXPECT_EQ(crashed.value1, 66);
  EXPECT_TRUE(std::filesystem::exists(dir + "/site_2.wal"));
  std::filesystem::remove_all(dir);
}

TEST(RecoveryIntegrationTest, ReusedStorageDirStartsEachRunEmpty) {
  // A simulated run owns its stable storage. The first run leaves every
  // site's checkpoint and WAL in the directory; the second run's site 2
  // crashes before that run's first checkpoint, so it must recover from
  // nothing plus catch-up, never from the first run's checkpoint.
  const std::string dir = "recovery_itest_reused";
  std::filesystem::remove_all(dir);
  SystemConfig config = CrashConfig(Method::kOrdup, 111);
  config.recovery.backend = recovery::StorageBackendKind::kFile;
  config.recovery.dir = dir;
  EXPECT_TRUE(RunCounterWorkload(config, /*crash=*/false).converged);
  ASSERT_TRUE(std::filesystem::exists(dir + "/site_2.ckpt"));

  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(sim::CrashSpec{
      /*site=*/2, /*crash_at=*/5'000, /*restart_at=*/160'000,
      /*amnesia=*/true});
  for (int i = 0; i < 12; ++i) {
    MustSubmit(system, i % 2, {Operation::Increment(0, 1)});
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  EXPECT_FALSE(system.recovery_manager()->last_report(2).had_checkpoint);
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 12);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryIntegrationTest, AbortDecidedJustBeforeCrashSurvivesTruncation) {
  // The lost-abort scenario: site 2 applies two tentative increments, both
  // reflected in its 20ms checkpoint. The decisions (commit `keep`, abort
  // `gone`) arrive and are acked just before its amnesia crash, so the
  // reliable queues never redeliver them — and with the lazy group commit
  // below they die in the unflushed WAL tail. During the long outage the
  // peers checkpoint many times; if those checkpoints truncated the
  // decision records, catch-up (which serves decisions from peer WALs)
  // could never re-supply the abort, and the recovered site would re-arm
  // `gone` tentatively forever: value 107 instead of 100, divergence.
  SystemConfig config = CrashConfig(Method::kCompe, 113);
  config.recovery.checkpoint_interval_us = 20'000;
  config.recovery.group_commit_records = 1024;
  config.recovery.group_commit_interval_us = 1'000'000;
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(
      sim::CrashSpec{2, /*crash_at=*/38'000, /*restart_at=*/150'000,
                     /*amnesia=*/true});
  const EtId keep =
      MustSubmit(system, 0, {Operation::Increment(0, 100)});
  const EtId gone = MustSubmit(system, 0, {Operation::Increment(0, 7)});
  system.RunFor(25'000);  // applied tentatively everywhere; ckpt at 20ms
  ASSERT_TRUE(system.Decide(keep, true).ok());
  ASSERT_TRUE(system.Decide(gone, false).ok());
  system.RunFor(10'000);   // decisions delivered + acked; crash at 38ms
  system.RunFor(110'000);  // peers checkpoint through the outage
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 100);
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 100);
  EXPECT_FALSE(system.site_mset_log(2).Contains(gone))
      << "the recovered site never compensated the aborted update";
}

TEST(RecoveryIntegrationTest, CatchupCompletesWhileAPeerStaysDown) {
  // Site 1 fail-stops and never comes back; site 2 amnesia-crashes through
  // the usual window. Catch-up must complete with only site 0 responding —
  // counting the dead peer would park every foreground delivery at site 2
  // forever. RunFor horizons only: the reliable queues keep retrying the
  // dead site, so the event queue never drains.
  SystemConfig config = CrashConfig(Method::kCommu, 115);
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(
      sim::CrashSpec{1, /*crash_at=*/20'000, /*restart_at=*/kSimTimeMax,
                     /*amnesia=*/false});
  system.failures().ScheduleCrash(kAmnesia);
  for (int i = 0; i < 12; ++i) {
    MustSubmit(system, 0, {Operation::Increment(0, 1)});
    system.RunFor(10'000);
  }
  system.RunFor(300'000);
  EXPECT_GE(system.recovery_manager()->last_report(2).catchup_done_at, 0)
      << "catch-up still waiting on the dead peer";
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 12);
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 12);
}

TEST(RecoveryIntegrationTest, AbortedMsetsAreTruncatedFromWals) {
  // Aborted ETs never become stable, so the stability-gated truncation
  // rule alone would pin them (and their decisions) in every WAL forever.
  // After the compensations are reflected in checkpoints everywhere, a few
  // more rounds must drain both the MSet records and, once no WAL can
  // re-arm the ETs, the abort decisions.
  SystemConfig config = CrashConfig(Method::kCompe, 117);
  config.recovery.checkpoint_interval_us = 20'000;
  ReplicatedSystem system(config);
  std::vector<EtId> ets;
  for (int i = 0; i < 6; ++i) {
    ets.push_back(MustSubmit(system, i % 2, {Operation::Increment(0, 1)}));
    system.RunFor(10'000);
    ASSERT_TRUE(system.Decide(ets.back(), false).ok());
    system.RunFor(5'000);
  }
  system.RunFor(100'000);  // >= 5 checkpoint rounds past the last abort
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 0);
  for (SiteId s = 0; s < 3; ++s) {
    for (const recovery::WalRecord& record :
         system.recovery_manager()->site(s)->wal().ReadAll()) {
      EXPECT_NE(record.type, recovery::WalRecordType::kMset)
          << "aborted MSet pinned in site " << s << "'s WAL";
      EXPECT_NE(record.type, recovery::WalRecordType::kDecision)
          << "decision for a fully-truncated ET pinned in site " << s
          << "'s WAL";
    }
  }
}

TEST(RecoveryIntegrationTest, SubmitDuringCatchupIsRejected) {
  // Site 2's own update is still in its unflushed WAL tail when the amnesia
  // crash hits, so after the restart only the peers hold it and catch-up
  // must bring it back. An update committed at site 2 before the catch-up
  // responses arrive would raise site 2's applied watermark past the lost
  // one, and the peers' copies would then be dropped as duplicates.
  SystemConfig config = CrashConfig(Method::kCommu, 119);
  config.recovery.group_commit_records = 1024;
  config.recovery.group_commit_interval_us = 10'000'000;
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(kAmnesia);
  MustSubmit(system, 2, {Operation::Increment(0, 5)});
  system.RunFor(kAmnesia.restart_at);  // restarted, catch-up requests sent
  ASSERT_LT(system.recovery_manager()->last_report(2).catchup_done_at, 0);
  auto during = system.SubmitUpdate(2, {Operation::Increment(0, 1)});
  EXPECT_TRUE(during.status().IsUnavailable())
      << "a submit during catch-up was " << during.status().ToString();
  system.RunUntilQuiescent();
  EXPECT_GE(system.recovery_manager()->last_report(2).catchup_done_at, 0);
  MustSubmit(system, 2, {Operation::Increment(0, 1)});
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(system.SiteValue(2, 0).AsInt(), 6);
  EXPECT_EQ(system.SiteValue(0, 0).AsInt(), 6);
}

TEST(RecoveryIntegrationTest, OriginLogsNoAckForAnEtAlreadyStable) {
  // Site 2 loses its whole WAL (nothing is flushed) and re-applies every
  // MSet from catch-up after its restart, acking each one, ETs stable at
  // their origins long before the crash included. Such an ack changes
  // nothing at the origin, so no kAck record may follow the ET's kStable
  // record in the origin's WAL.
  SystemConfig config = CrashConfig(Method::kCommu, 7);
  config.recovery.checkpoint_interval_us = 0;  // no truncation
  config.recovery.group_commit_records = 1024;
  config.recovery.group_commit_interval_us = 10'000'000;
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(kAmnesia);
  for (int i = 0; i < 12; ++i) {
    MustSubmit(system, i % 2, {Operation::Increment(0, 1)});
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  ASSERT_GT(system.recovery_manager()->last_report(2).catchup_msets, 0);
  for (SiteId origin : {0, 1}) {
    recovery::Wal& wal = system.recovery_manager()->site(origin)->wal();
    std::vector<recovery::WalRecord> records = wal.ReadAll();
    records.insert(records.end(), wal.UnflushedRecords().begin(),
                   wal.UnflushedRecords().end());
    std::unordered_set<EtId> stable;
    int stable_acks = 0;
    for (const recovery::WalRecord& record : records) {
      if (record.type == recovery::WalRecordType::kStable) {
        stable.insert(record.et);
      } else if (record.type == recovery::WalRecordType::kAck &&
                 stable.count(record.et) > 0) {
        ++stable_acks;
      }
    }
    EXPECT_GT(stable.size(), 0u) << "site " << origin;
    EXPECT_EQ(stable_acks, 0) << "site " << origin;
  }
}

TEST(RecoveryIntegrationTest, SubmitAtDownSiteIsRejected) {
  SystemConfig config = CrashConfig(Method::kCommu, 111);
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(kAmnesia);
  system.RunFor(30'000);  // inside the down window
  auto result = system.SubmitUpdate(2, {Operation::Increment(0, 1)});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

}  // namespace
}  // namespace esr::core
