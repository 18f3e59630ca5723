// Sequencer crash-resilience against the full replica control stack.
//
// Two fault models, one invariant: no total-order position is ever granted
// twice, and no granted position becomes a permanent hole.
//
//   * Amnesia crash of the home site — the grant cursor dies with the
//     site's volatile state. The pre-fix sequencer resumed granting from 1
//     after the restart, reissuing every position the first life had
//     already handed out: two updates with the same global order, replica
//     divergence. The fixed server rebuilds sealed and re-seeds from the
//     durable checkpoint floor plus a peer high-watermark probe before
//     unsealing in a fresh epoch.
//
//   * Fail-stop crash of the home with a configured standby — the standby
//     runs the seal–probe–unseal handover and resumes granting above
//     everything any survivor has seen, in a strictly higher epoch, while
//     updates keep flowing.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "analysis/sr_checker.h"
#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;

/// Global order positions of every committed (non-aborted) update.
std::vector<SequenceNumber> CommittedOrders(ReplicatedSystem& system) {
  std::vector<SequenceNumber> orders;
  for (const analysis::UpdateRecord& u : system.history().updates()) {
    if (!u.aborted) orders.push_back(u.order);
  }
  return orders;
}

TEST(SequencerFailoverTest, AmnesiaCrashOfHomeNeverReissuesPositions) {
  SystemConfig config = Config(Method::kOrdup, 3, 201);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 40'000;
  ReplicatedSystem system(config);
  // Site 0 hosts the sequencer; it loses ALL volatile state at 55ms —
  // after the 40ms checkpoint persisted a durable grant floor — and
  // recovers at 150ms. Updates come from sites 1 and 2 throughout, so
  // grants are outstanding across the whole window.
  system.failures().ScheduleCrash(
      sim::CrashSpec{0, /*crash_at=*/55'000, /*restart_at=*/150'000,
                     /*amnesia=*/true});
  for (int i = 0; i < 18; ++i) {
    MustSubmit(system, 1 + (i % 2), {Operation::Increment(0, 1)});
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(system.SiteValue(s, 0).AsInt(), 18) << "site " << s;
  }
  const std::vector<SequenceNumber> orders = CommittedOrders(system);
  ASSERT_EQ(orders.size(), 18u);
  const std::set<SequenceNumber> unique(orders.begin(), orders.end());
  EXPECT_EQ(unique.size(), 18u)
      << "a global order position was granted to two updates";
  for (SequenceNumber order : orders) EXPECT_GT(order, 0);
  // The restarted server unsealed in a fresh epoch above the crashed one.
  ASSERT_NE(system.site_seq_server(0), nullptr);
  EXPECT_FALSE(system.site_seq_server(0)->sealed());
  EXPECT_GE(system.site_seq_server(0)->epoch(), 2);
  const auto sr = analysis::CheckUpdateSerializability(system.history(), 3);
  EXPECT_TRUE(sr.serializable) << sr.violation;
}

TEST(SequencerFailoverTest, StandbyTakeoverIsGapFreeAndDuplicateFree) {
  SystemConfig config = Config(Method::kOrdup, 3, 203);
  config.sequencer_standby = 2;
  ReplicatedSystem system(config);
  // The home fail-stops at 35ms with grants in flight; the standby seals,
  // probes the survivors, and unseals in epoch 2. The deposed home comes
  // back at 250ms and is sealed forever — its queued stale requests and
  // grants must not corrupt the order.
  system.failures().ScheduleCrash(
      sim::CrashSpec{0, /*crash_at=*/35'000, /*restart_at=*/250'000,
                     /*amnesia=*/false});
  for (int i = 0; i < 20; ++i) {
    MustSubmit(system, 1 + (i % 2), {Operation::Increment(0, 1)});
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  // Every update committed exactly once everywhere: a duplicate grant or a
  // permanent hole in the order would break the count.
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(system.SiteValue(s, 0).AsInt(), 20) << "site " << s;
  }
  const std::vector<SequenceNumber> orders = CommittedOrders(system);
  ASSERT_EQ(orders.size(), 20u);
  const std::set<SequenceNumber> unique(orders.begin(), orders.end());
  EXPECT_EQ(unique.size(), 20u)
      << "a global order position was granted to two updates";
  EXPECT_EQ(system.sequencer_home(), 2);
  ASSERT_NE(system.site_seq_server(2), nullptr);
  EXPECT_FALSE(system.site_seq_server(2)->sealed());
  EXPECT_EQ(system.site_seq_server(2)->epoch(), 2);
  EXPECT_EQ(system.metrics().GetCounter("esr_seq_failovers_total").value(),
            1);
  const auto sr = analysis::CheckUpdateSerializability(system.history(), 3);
  EXPECT_TRUE(sr.serializable) << sr.violation;
}

TEST(SequencerFailoverTest, DeposedHomeRestartingWithAmnesiaStaysSealed) {
  // Home amnesia-crashes, the standby takes over during the outage, and
  // the home then restarts with amnesia as a *deposed* primary: it must
  // come back without an order server (requests drain into stubs) and the
  // standby remains the home.
  SystemConfig config = Config(Method::kOrdup, 3, 205);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 40'000;
  config.sequencer_standby = 2;
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(
      sim::CrashSpec{0, /*crash_at=*/45'000, /*restart_at=*/160'000,
                     /*amnesia=*/true});
  for (int i = 0; i < 16; ++i) {
    MustSubmit(system, 1 + (i % 2), {Operation::Increment(0, 1)});
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(system.SiteValue(s, 0).AsInt(), 16) << "site " << s;
  }
  const std::vector<SequenceNumber> orders = CommittedOrders(system);
  const std::set<SequenceNumber> unique(orders.begin(), orders.end());
  EXPECT_EQ(unique.size(), orders.size())
      << "a global order position was granted to two updates";
  EXPECT_EQ(system.sequencer_home(), 2);
  EXPECT_EQ(system.site_seq_server(0), nullptr)
      << "the deposed primary must not resurrect an order server";
  ASSERT_NE(system.site_seq_server(2), nullptr);
  EXPECT_FALSE(system.site_seq_server(2)->sealed());
}

TEST(SequencerFailoverTest, FailoverWorksWithBatchingEnabled) {
  // Group sequencing and the epoch machinery compose: a batched in-flight
  // request re-sent across the takeover keeps one grant per request.
  SystemConfig config = Config(Method::kOrdup, 3, 207);
  config.sequencer_standby = 2;
  config.seq_batch_max = 4;
  config.seq_batch_linger_us = 2'000;
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(
      sim::CrashSpec{0, /*crash_at=*/30'000, /*restart_at=*/200'000,
                     /*amnesia=*/false});
  for (int i = 0; i < 24; ++i) {
    // Two back-to-back submissions per round so batches actually form.
    MustSubmit(system, 1 + (i % 2), {Operation::Increment(0, 1)});
    if (i % 2 == 1) system.RunFor(8'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(system.SiteValue(s, 0).AsInt(), 24) << "site " << s;
  }
  const std::vector<SequenceNumber> orders = CommittedOrders(system);
  ASSERT_EQ(orders.size(), 24u);
  const std::set<SequenceNumber> unique(orders.begin(), orders.end());
  EXPECT_EQ(unique.size(), 24u);
  EXPECT_EQ(system.sequencer_home(), 2);
}

// --- Pinned runs -----------------------------------------------------------
//
// Each run below pins every site digest, the order of every committed
// update and every site's transport counters, captured before the global
// order server and the per-shard order servers shared one table in the
// simulator. Any change to how an order server is built, configured,
// failed over, checkpointed or rebuilt that moves a simulated event shows
// up here.

/// Increments and multiplications over four objects from sites 1 and 2,
/// `per_round` submissions per `gap`. The multiplications make the final
/// state depend on the total order, so the digests pin the order too.
void SubmitMixedStream(ReplicatedSystem& system, int count, int per_round,
                       SimDuration gap) {
  for (int i = 0; i < count; ++i) {
    const ObjectId object = i % 4;
    MustSubmit(system, 1 + (i % 2),
               {i % 3 == 2 ? Operation::Multiply(object, 2)
                           : Operation::Increment(object, 1 + i)});
    if (i % per_round == per_round - 1) system.RunFor(gap);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(SequencerFailoverTest, StandbyTakeoverPinnedDigests) {
  SystemConfig config = Config(Method::kOrdup, 3, 203);
  config.sequencer_standby = 2;
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(
      sim::CrashSpec{0, /*crash_at=*/35'000, /*restart_at=*/250'000,
                     /*amnesia=*/false});
  SubmitMixedStream(system, 20, 1, 10'000);
  EXPECT_EQ(system.sequencer_home(), 2);
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0xee3b1afd9624e5f8ull, 0xee3b1afd9624e5f8ull, 0xee3b1afd9624e5f8ull},
       {1, 2, 3, 4, 6, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
       {"queue.delivered=60 queue.retransmit=115 queue.sent=38",
        "queue.delivered=66 queue.duplicate=7 queue.retransmit=168 "
        "queue.sent=76",
        "queue.delivered=82 queue.duplicate=1 queue.retransmit=209 "
        "queue.sent=94"}});
}

TEST(SequencerFailoverTest, AmnesiaCrashOfHomePinnedDigests) {
  SystemConfig config = Config(Method::kOrdup, 3, 201);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 40'000;
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(
      sim::CrashSpec{0, /*crash_at=*/55'000, /*restart_at=*/150'000,
                     /*amnesia=*/true});
  SubmitMixedStream(system, 18, 1, 10'000);
  ASSERT_NE(system.site_seq_server(0), nullptr);
  EXPECT_GE(system.site_seq_server(0)->epoch(), 2);
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0x81847577464b36cdull, 0x81847577464b36cdull, 0x81847577464b36cdull},
       {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18},
       {"queue.delivered=73 queue.duplicate=2 queue.retransmit=37 "
        "queue.sent=50",
        "queue.delivered=57 queue.retransmit=34 queue.sent=69",
        "queue.delivered=58 queue.duplicate=1 queue.retransmit=42 "
        "queue.sent=69"}});
}

TEST(SequencerFailoverTest, DeposedHomeAmnesiaPinnedDigests) {
  SystemConfig config = Config(Method::kOrdup, 3, 205);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 40'000;
  config.sequencer_standby = 2;
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(
      sim::CrashSpec{0, /*crash_at=*/45'000, /*restart_at=*/160'000,
                     /*amnesia=*/true});
  SubmitMixedStream(system, 16, 1, 10'000);
  EXPECT_EQ(system.site_seq_server(0), nullptr);
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0xafe859685bead48dull, 0xafe859685bead48dull, 0xafe859685bead48dull},
       {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
       {"queue.delivered=53 queue.retransmit=50 queue.sent=36",
        "queue.delivered=56 queue.duplicate=2 queue.retransmit=60 "
        "queue.sent=62",
        "queue.delivered=66 queue.duplicate=6 queue.retransmit=78 "
        "queue.sent=77"}});
}

TEST(SequencerFailoverTest, BatchedGrantsPinnedDigests) {
  SystemConfig config = Config(Method::kOrdup, 3, 207);
  config.sequencer_standby = 2;
  config.seq_batch_max = 8;
  config.seq_batch_linger_us = 1'000;
  config.seq_service_us = 500;
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(
      sim::CrashSpec{0, /*crash_at=*/30'000, /*restart_at=*/200'000,
                     /*amnesia=*/false});
  SubmitMixedStream(system, 32, 4, 8'000);
  EXPECT_EQ(system.sequencer_home(), 2);
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0x5723c1c797d9a7c2ull, 0x5723c1c797d9a7c2ull, 0x5723c1c797d9a7c2ull},
       {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
        21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32},
       {"queue.delivered=85 queue.retransmit=72 queue.sent=48",
        "queue.delivered=81 queue.duplicate=2 queue.retransmit=219 "
        "queue.sent=98",
        "queue.delivered=87 queue.duplicate=2 queue.retransmit=225 "
        "queue.sent=107"}});
}

}  // namespace
}  // namespace esr::core
