// Partial replication against the full stack: owner-only routing and
// storage, cross-shard atomic commit, forwarded queries under an epsilon
// bound, deterministic sharded executions, per-shard sequencer failover,
// and amnesia recovery of an owner site.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_util.h"
#include "workload/workload.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;
using test::RunQuery;

SystemConfig ShardedConfig(int num_shards, int rf, int sites, uint64_t seed) {
  SystemConfig config = Config(Method::kOrdup, sites, seed);
  config.shard.num_shards = num_shards;
  config.shard.replication_factor = rf;
  return config;
}

/// First `count` objects whose shard is `shard`.
std::vector<ObjectId> ObjectsInShard(const ReplicatedSystem& system,
                                     ShardId shard, int count) {
  std::vector<ObjectId> objects;
  for (ObjectId o = 0; o < 10'000 && static_cast<int>(objects.size()) < count;
       ++o) {
    if (system.placement()->ShardOf(o) == shard) objects.push_back(o);
  }
  EXPECT_EQ(objects.size(), static_cast<size_t>(count));
  return objects;
}

TEST(ShardingIntegrationTest, UnshardedConfigBuildsNoPlacementMap) {
  ReplicatedSystem system(Config(Method::kOrdup, 3, 11));
  EXPECT_EQ(system.placement(), nullptr);
}

TEST(ShardingIntegrationTest, SingleShardEtsStoreOnlyAtOwners) {
  ReplicatedSystem system(ShardedConfig(4, 2, 8, 301));
  const shard::PlacementMap& placement = *system.placement();
  // A spread of updates from every site, each ET touching one object
  // (hence exactly one shard).
  for (int round = 0; round < 5; ++round) {
    for (SiteId s = 0; s < 8; ++s) {
      MustSubmit(system, s,
                 {Operation::Increment(round * 8 + s, 1 + round)});
    }
    system.RunFor(20'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  for (ObjectId o = 0; o < 40; ++o) {
    const ShardId k = placement.ShardOf(o);
    const Value expected =
        system.SiteValue(placement.Owners(k).front(), o);
    for (SiteId s : placement.Owners(k)) {
      EXPECT_EQ(system.SiteValue(s, o).AsInt(), expected.AsInt())
          << "owners of shard " << k << " diverge on object " << o;
    }
    EXPECT_EQ(expected.AsInt(), 1 + (o / 8));
  }
  // Owner-only storage: a site's store materializes no object outside its
  // owned shards.
  for (SiteId s = 0; s < 8; ++s) {
    for (ObjectId o : system.site_store(s).ObjectIds()) {
      EXPECT_TRUE(placement.OwnsObject(s, o))
          << "site " << s << " stores non-owned object " << o;
    }
  }
}

TEST(ShardingIntegrationTest, CrossShardEtsCommitOnAllTouchedShards) {
  ReplicatedSystem system(ShardedConfig(4, 2, 8, 303));
  const shard::PlacementMap& placement = *system.placement();
  const ObjectId a = ObjectsInShard(system, 0, 1)[0];
  const ObjectId b = ObjectsInShard(system, 2, 1)[0];
  const ObjectId c = ObjectsInShard(system, 3, 1)[0];
  // Mixed single- and cross-shard traffic from rotating origins, including
  // a three-shard ET every round.
  for (int i = 0; i < 12; ++i) {
    MustSubmit(system, i % 8,
               {Operation::Increment(a, 1), Operation::Increment(b, 1)});
    MustSubmit(system, (i + 3) % 8,
               {Operation::Increment(a, 1), Operation::Increment(b, 1),
                Operation::Increment(c, 1)});
    MustSubmit(system, (i + 5) % 8, {Operation::Increment(c, 2)});
    system.RunFor(15'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  for (SiteId s : placement.Owners(placement.ShardOf(a))) {
    EXPECT_EQ(system.SiteValue(s, a).AsInt(), 24) << "site " << s;
  }
  for (SiteId s : placement.Owners(placement.ShardOf(b))) {
    EXPECT_EQ(system.SiteValue(s, b).AsInt(), 24) << "site " << s;
  }
  for (SiteId s : placement.Owners(placement.ShardOf(c))) {
    EXPECT_EQ(system.SiteValue(s, c).AsInt(), 36) << "site " << s;
  }
}

TEST(ShardingIntegrationTest, ShardedExecutionIsDeterministic) {
  auto digests = [](uint64_t seed) {
    SystemConfig config = ShardedConfig(4, 2, 8, seed);
    ReplicatedSystem system(config);
    workload::WorkloadSpec spec;
    spec.num_objects = 128;
    spec.update_fraction = 0.6;
    spec.single_shard_fraction = 0.5;  // half the ETs go cross-shard
    spec.query_epsilon = 3;
    spec.duration_us = 150'000;
    spec.drain_us = 200'000;
    spec.seed = seed;
    workload::WorkloadRunner runner(&system, spec);
    const workload::WorkloadResult result = runner.Run();
    system.RunUntilQuiescent();
    EXPECT_GT(result.updates_committed, 0);
    EXPECT_TRUE(system.Converged());
    std::vector<uint64_t> out;
    for (SiteId s = 0; s < 8; ++s) out.push_back(system.SiteDigest(s));
    return out;
  };
  EXPECT_EQ(digests(901), digests(901));
  EXPECT_NE(digests(901), digests(902));
}

TEST(ShardingIntegrationTest, ForwardedReadsReturnOwnerValuesWithinEpsilon) {
  ReplicatedSystem system(ShardedConfig(4, 2, 8, 305));
  const shard::PlacementMap& placement = *system.placement();
  const std::vector<ObjectId> objects = ObjectsInShard(system, 1, 3);
  for (ObjectId o : objects) {
    MustSubmit(system, 0, {Operation::Increment(o, 7)});
  }
  system.RunUntilQuiescent();
  // A site owning none of shard 1 must answer through the owner.
  SiteId outsider = kInvalidSiteId;
  for (SiteId s = 0; s < 8; ++s) {
    if (!placement.Owns(s, 1)) {
      outsider = s;
      break;
    }
  }
  ASSERT_NE(outsider, kInvalidSiteId);
  int64_t inconsistency = -1;
  const std::vector<Value> values =
      RunQuery(system, outsider, /*epsilon=*/2, objects, &inconsistency);
  ASSERT_EQ(values.size(), objects.size());
  for (const Value& v : values) EXPECT_EQ(v.AsInt(), 7);
  EXPECT_LE(inconsistency, 2);
  EXPECT_GT(test::EventCount(system, "esr.reads_forwarded"), 0);
  // Direct strict reads at non-owner sites are refused, not silently
  // answered from a store that holds nothing.
  const EtId q = system.BeginQuery(outsider, kUnboundedEpsilon);
  EXPECT_EQ(system.TryRead(q, objects[0]).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(system.EndQuery(q).ok());
}

TEST(ShardingIntegrationTest, EpsilonBoundHoldsUnderConcurrentUpdates) {
  ReplicatedSystem system(ShardedConfig(4, 2, 8, 307));
  // Open-loop increments on one object per shard while finite-epsilon
  // queries run from owner and non-owner sites alike.
  std::vector<ObjectId> hot;
  for (ShardId k = 0; k < 4; ++k) {
    hot.push_back(ObjectsInShard(system, k, 1)[0]);
  }
  for (SimTime t = 0; t < 300'000; t += 3'000) {
    system.simulator().ScheduleAt(t, [&system, &hot, t]() {
      const SiteId origin = static_cast<SiteId>((t / 3'000) % 8);
      (void)system.SubmitUpdate(
          origin, {Operation::Increment(hot[(t / 3'000) % 4], 1)});
    });
  }
  system.RunFor(50'000);
  for (SiteId s = 0; s < 8; ++s) {
    int64_t inconsistency = -1;
    int64_t restarts = 0;
    (void)RunQuery(system, s, /*epsilon=*/2, hot, &inconsistency, &restarts);
    EXPECT_LE(inconsistency, 2) << "site " << s;
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(ShardingIntegrationTest, ShardSequencerFailoverKeepsOneShardFlowing) {
  ReplicatedSystem system(ShardedConfig(4, 2, 8, 309));
  const shard::PlacementMap& placement = *system.placement();
  const ShardId shard = 0;
  const SiteId home = system.shard_sequencer_home(shard);
  const SiteId standby = placement.Owners(shard)[1];
  ASSERT_NE(home, standby);
  // The home fail-stop crashes at 40ms with single-shard traffic running
  // throughout; the standby seals, probes, and unseals in a fresh epoch.
  system.failures().ScheduleCrash(sim::CrashSpec{
      home, /*crash_at=*/40'000, /*restart_at=*/400'000, /*amnesia=*/false});
  const ObjectId object = ObjectsInShard(system, shard, 1)[0];
  SiteId origin = kInvalidSiteId;
  for (SiteId s = 0; s < 8; ++s) {
    if (s != home) {
      origin = s;
      break;
    }
  }
  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    (void)system.SubmitUpdate(origin, {Operation::Increment(object, 1)},
                              [&committed](Status s) {
                                if (s.ok()) ++committed;
                              });
    system.RunFor(12'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(committed, 20);
  EXPECT_EQ(system.shard_sequencer_home(shard), standby);
  for (SiteId s : placement.Owners(shard)) {
    EXPECT_EQ(system.SiteValue(s, object).AsInt(), 20) << "site " << s;
  }
}

TEST(ShardingIntegrationTest, AmnesiaCrashOfOwnerRecoversOwnedShards) {
  SystemConfig config = ShardedConfig(4, 2, 8, 311);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 30'000;
  ReplicatedSystem system(config);
  const shard::PlacementMap& placement = *system.placement();
  // Crash an owner site that is not a shard-sequencer home so the test
  // isolates recovery of owned shard streams from sequencer failover.
  SiteId victim = kInvalidSiteId;
  for (SiteId s = 0; s < 8 && victim == kInvalidSiteId; ++s) {
    if (placement.OwnedShards(s).empty()) continue;
    bool is_home = false;
    for (ShardId k = 0; k < 4; ++k) {
      if (system.shard_sequencer_home(k) == s) is_home = true;
    }
    if (!is_home) victim = s;
  }
  ASSERT_NE(victim, kInvalidSiteId);
  system.failures().ScheduleCrash(sim::CrashSpec{
      victim, /*crash_at=*/60'000, /*restart_at=*/200'000, /*amnesia=*/true});
  // Sustained single- and cross-shard traffic from the surviving sites,
  // spanning the crash and the recovery window.
  const ObjectId a = ObjectsInShard(system, 0, 1)[0];
  const ObjectId b = ObjectsInShard(system, 2, 1)[0];
  for (int i = 0; i < 30; ++i) {
    const SiteId origin = static_cast<SiteId>(
        (victim + 1 + (i % 7)) % 8);  // never the victim
    MustSubmit(system, origin, {Operation::Increment(a, 1)});
    if (i % 2 == 0) {
      MustSubmit(system, origin,
                 {Operation::Increment(a, 1), Operation::Increment(b, 1)});
    }
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  for (SiteId s : placement.Owners(placement.ShardOf(a))) {
    EXPECT_EQ(system.SiteValue(s, a).AsInt(), 45) << "site " << s;
  }
  for (SiteId s : placement.Owners(placement.ShardOf(b))) {
    EXPECT_EQ(system.SiteValue(s, b).AsInt(), 15) << "site " << s;
  }
  // The recovered site still honors owner-only storage.
  for (ObjectId o : system.site_store(victim).ObjectIds()) {
    EXPECT_TRUE(placement.OwnsObject(victim, o));
  }
}

TEST(ShardingIntegrationTest, OwnCrossShardEtReappliedAfterReplayBecomesStable) {
  // Regression: site 0 commits a cross-shard update, amnesia-crashes before
  // its next checkpoint, and re-applies the update from a catch-up response
  // after WAL replay. Re-tracking it there used to restore its timestamp
  // but not its owner set, so it waited for an ack from every site instead
  // of its owners and never became stable.
  SystemConfig config = ShardedConfig(4, 2, 8, 7);
  config.seq_batch_linger_us = 7;
  config.sequencer_standby = 1;
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 50'000;
  ReplicatedSystem system(config);
  system.failures().ScheduleCrash(sim::CrashSpec{
      0, /*crash_at=*/100'000, /*restart_at=*/300'000, /*amnesia=*/true});
  workload::WorkloadSpec spec;
  spec.duration_us = 1'000'000;
  workload::WorkloadRunner(&system, spec).Run();
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  // Every committed update reached stability (it read 1 before the fix).
  EXPECT_EQ(system.tracer().InFlightEts(), 0);
}

TEST(ShardingIntegrationTest, AmnesiaCrashOfShardSeqHomeReseedsFromFloor) {
  // Regression: a shard-sequencer home that amnesia-restarts must re-seed
  // its grant cursor from the durable per-shard checkpoint floor
  // (checkpoint v4), not from position 1 — a floor-1 rebuild re-grants
  // positions whose grants no surviving peer happens to have witnessed.
  SystemConfig config = ShardedConfig(4, 2, 8, 317);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 20'000;
  // Keep the home seat with the victim: the restart (not a standby
  // takeover) must be the path that recovers the cursor.
  config.seq_failover_detect_us = 5'000'000;
  ReplicatedSystem system(config);
  const shard::PlacementMap& placement = *system.placement();
  const ShardId shard = 1;
  const SiteId victim = system.shard_sequencer_home(shard);
  const ObjectId a = ObjectsInShard(system, shard, 1)[0];
  // Advance the shard's grant cursor well past 1, with checkpoints taken.
  for (int i = 0; i < 10; ++i) {
    MustSubmit(system, static_cast<SiteId>(i % 8),
               {Operation::Increment(a, 1)});
    system.RunFor(8'000);
  }
  system.failures().ScheduleCrash(sim::CrashSpec{
      victim, /*crash_at=*/90'000, /*restart_at=*/200'000, /*amnesia=*/true});
  // Traffic from survivors spans the outage; their submissions stall until
  // the home returns (no failover) and must all land exactly once.
  for (int i = 0; i < 20; ++i) {
    const SiteId origin = static_cast<SiteId>((victim + 1 + (i % 7)) % 8);
    MustSubmit(system, origin, {Operation::Increment(a, 1)});
    system.RunFor(12'000);
  }
  system.RunUntilQuiescent();
  // The restarted home grants fresh positions for new work too.
  MustSubmit(system, victim, {Operation::Increment(a, 1)});
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  for (SiteId s : placement.Owners(shard)) {
    EXPECT_EQ(system.SiteValue(s, a).AsInt(), 31) << "site " << s;
  }
}

TEST(ShardingIntegrationTest, FailoverDuringCrossShardMixStaysConsistent) {
  ReplicatedSystem system(ShardedConfig(4, 2, 8, 313));
  const shard::PlacementMap& placement = *system.placement();
  const ShardId shard = 1;
  const SiteId home = system.shard_sequencer_home(shard);
  system.failures().ScheduleCrash(sim::CrashSpec{
      home, /*crash_at=*/50'000, /*restart_at=*/500'000, /*amnesia=*/false});
  const ObjectId in_shard = ObjectsInShard(system, shard, 1)[0];
  const ObjectId other = ObjectsInShard(system, 3, 1)[0];
  SiteId origin = home == 0 ? 1 : 0;
  int committed = 0;
  auto count = [&committed](Status s) {
    if (s.ok()) ++committed;
  };
  for (int i = 0; i < 15; ++i) {
    // Cross-shard ETs spanning the failing shard and a healthy one, plus
    // single-shard ETs on the healthy shard that must never stall.
    (void)system.SubmitUpdate(origin,
                              {Operation::Increment(in_shard, 1),
                               Operation::Increment(other, 1)},
                              count);
    (void)system.SubmitUpdate((origin + 2) % 8,
                              {Operation::Increment(other, 1)}, count);
    system.RunFor(20'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
  EXPECT_EQ(committed, 30);
  for (SiteId s : placement.Owners(shard)) {
    EXPECT_EQ(system.SiteValue(s, in_shard).AsInt(), 15) << "site " << s;
  }
  for (SiteId s : placement.Owners(placement.ShardOf(other))) {
    EXPECT_EQ(system.SiteValue(s, other).AsInt(), 30) << "site " << s;
  }
}

// --- Pinned runs -----------------------------------------------------------
//
// Each run below pins every site digest, the order of every committed
// update and every site's transport counters, captured before the global
// order server and the per-shard order servers shared one table in the
// simulator. Any change to how a shard order server is built, configured,
// failed over, checkpointed or rebuilt that moves a simulated event shows
// up here.

/// Single-shard increments and multiplications over two objects per shard,
/// plus a shard-0/shard-2 ET every other round, from rotating origins that
/// skip `avoid`; one round per 10 ms.
void SubmitShardedStream(ReplicatedSystem& system, SiteId avoid, int rounds) {
  std::vector<ObjectId> objects;
  for (ShardId k = 0; k < 4; ++k) {
    for (ObjectId o : ObjectsInShard(system, k, 2)) objects.push_back(o);
  }
  for (int i = 0; i < rounds; ++i) {
    const SiteId origin = static_cast<SiteId>((avoid + 1 + (i % 7)) % 8);
    const ObjectId object = objects[static_cast<size_t>(i) % objects.size()];
    MustSubmit(system, origin,
               {i % 3 == 2 ? Operation::Multiply(object, 2)
                           : Operation::Increment(object, 1 + i)});
    if (i % 2 == 0) {
      MustSubmit(system, origin,
                 {Operation::Increment(objects[0], 1),
                  Operation::Increment(objects[5], 1)});
    }
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  EXPECT_TRUE(system.Converged());
}

TEST(ShardingIntegrationTest, UnlabelledEpochGaugeIsTheGlobalServers) {
  // The global order server fails over to its standby (epoch 2) while its
  // home, site 0, is down. Later a shard home amnesia-restarts within the
  // failure-detection delay and rebuilds its shard server in epoch 1. That
  // epoch belongs on the {shard="k"} gauge, never on the unlabelled one,
  // which is the global server's.
  SystemConfig config = ShardedConfig(4, 2, 8, 7);
  config.sequencer_standby = 1;
  config.recovery.enabled = true;
  ReplicatedSystem system(config);
  const ShardId shard = 2;
  const SiteId shard_home = system.shard_sequencer_home(shard);
  ASSERT_NE(shard_home, 0);
  ASSERT_NE(shard_home, 1);
  system.failures().ScheduleCrash(sim::CrashSpec{
      0, /*crash_at=*/100'000, /*restart_at=*/300'000, /*amnesia=*/true});
  system.failures().ScheduleCrash(sim::CrashSpec{
      shard_home, /*crash_at=*/500'000, /*restart_at=*/505'000,
      /*amnesia=*/true});
  for (int i = 0; i < 60; ++i) {
    const SiteId origin = static_cast<SiteId>(1 + i % 7);
    MustSubmit(system, origin, {Operation::Increment(i % 16, 1)});
    system.RunFor(10'000);
  }
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  ASSERT_EQ(system.sequencer_home(), 1);
  ASSERT_EQ(system.shard_sequencer_home(shard), shard_home);
  const int64_t global_epoch = system.site_seq_server(1)->epoch();
  EXPECT_EQ(global_epoch, 2);
  EXPECT_EQ(system.metrics().GetGauge("esr_seq_epoch").value(),
            static_cast<double>(global_epoch));
}

TEST(ShardingIntegrationTest, ShardHomeFailStopPinnedDigests) {
  ReplicatedSystem system(ShardedConfig(4, 2, 8, 309));
  const SiteId home = system.shard_sequencer_home(1);
  system.failures().ScheduleCrash(sim::CrashSpec{
      home, /*crash_at=*/40'000, /*restart_at=*/250'000, /*amnesia=*/false});
  SubmitShardedStream(system, home, 30);
  EXPECT_EQ(system.shard_sequencer_home(1), system.placement()->Owners(1)[1]);
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0xea02cc9acb3c5cc7ull, 0x6d834f34b24489c8ull, 0x14650fb0739d0383ull,
        0x375c76444b07481bull, 0x14650fb0739d0383ull, 0xbe0e773d774dd48aull,
        0x9b7abc4c1276016bull, 0x14650fb0739d0383ull},
       {1, 2, 3, 1, 4, 2, 3, 5, 5, 1, 6, 2, 7, 8, 9, 3, 10, 4, 9, 11, 11, 3,
        12, 4, 13, 14, 15, 5, 16, 6, 15, 17, 17, 5, 18, 6, 19, 20, 21, 7, 22, 8,
        21, 23, 23},
       {"queue.delivered=180 queue.retransmit=74 queue.sent=153",
        "queue.delivered=94 queue.duplicate=2 queue.retransmit=343 "
        "queue.sent=79",
        "queue.delivered=95 queue.retransmit=80 queue.sent=119",
        "queue.delivered=165 queue.retransmit=60 queue.sent=146",
        "queue.delivered=87 queue.retransmit=43 queue.sent=104",
        "queue.delivered=137 queue.retransmit=57 queue.sent=123",
        "queue.delivered=108 queue.retransmit=103 queue.sent=125",
        "queue.delivered=87 queue.retransmit=60 queue.sent=104"}});
}

TEST(ShardingIntegrationTest, ShardHomeAmnesiaPinnedDigests) {
  // The standby takes the shard over during the outage, so the home comes
  // back as a deposed primary.
  SystemConfig config = ShardedConfig(4, 2, 8, 311);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 30'000;
  ReplicatedSystem system(config);
  const SiteId home = system.shard_sequencer_home(1);
  system.failures().ScheduleCrash(sim::CrashSpec{
      home, /*crash_at=*/60'000, /*restart_at=*/200'000, /*amnesia=*/true});
  SubmitShardedStream(system, home, 30);
  EXPECT_EQ(system.shard_sequencer_home(1), system.placement()->Owners(1)[1]);
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0xea02cc9acb3c5cc7ull, 0x6d834f34b24489c8ull, 0x14650fb0739d0383ull,
        0x375c76444b07481bull, 0x14650fb0739d0383ull, 0xbe0e773d774dd48aull,
        0x9b7abc4c1276016bull, 0x14650fb0739d0383ull},
       {1, 2, 3, 1, 4, 2, 3, 5, 5, 1, 6, 2, 7, 8, 9, 3, 10, 4, 9, 11, 11, 3,
        12, 4, 13, 14, 15, 5, 16, 6, 15, 17, 17, 5, 18, 6, 19, 20, 21, 7, 22, 8,
        21, 23, 23},
       {"queue.delivered=181 queue.retransmit=29 queue.sent=154",
        "queue.delivered=96 queue.duplicate=2 queue.retransmit=203 "
        "queue.sent=82",
        "queue.delivered=95 queue.retransmit=50 queue.sent=119",
        "queue.delivered=165 queue.retransmit=32 queue.sent=146",
        "queue.delivered=87 queue.retransmit=23 queue.sent=104",
        "queue.delivered=138 queue.retransmit=35 queue.sent=123",
        "queue.delivered=109 queue.retransmit=44 queue.sent=126",
        "queue.delivered=87 queue.retransmit=18 queue.sent=104"}});
}

TEST(ShardingIntegrationTest, ShardHomeAmnesiaReseedPinnedDigests) {
  // No takeover within the outage: the restarted home re-seeds its own
  // shard server from the checkpoint floor and the peer probe.
  SystemConfig config = ShardedConfig(4, 2, 8, 317);
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval_us = 20'000;
  config.seq_failover_detect_us = 5'000'000;
  ReplicatedSystem system(config);
  const SiteId home = system.shard_sequencer_home(1);
  system.failures().ScheduleCrash(sim::CrashSpec{
      home, /*crash_at=*/90'000, /*restart_at=*/200'000, /*amnesia=*/true});
  SubmitShardedStream(system, home, 30);
  EXPECT_EQ(system.shard_sequencer_home(1), home);
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0xea02cc9acb3c5cc7ull, 0x08b7228e7bb403c6ull, 0x14650fb0739d0383ull,
        0x375c76444b07481bull, 0x14650fb0739d0383ull, 0xbe0e773d774dd48aull,
        0xac01ce4c1b98c7f1ull, 0x14650fb0739d0383ull},
       {1, 2, 3, 1, 4, 2, 3, 5, 5, 1, 6, 2, 7, 8, 9, 10, 9, 11, 11, 3, 12, 4,
        13, 14, 15, 16, 15, 17, 17, 3, 4, 5, 6, 5, 18, 6, 19, 20, 21, 7, 22, 8,
        21, 23, 23},
       {"queue.delivered=181 queue.retransmit=17 queue.sent=154",
        "queue.delivered=112 queue.duplicate=6 queue.retransmit=98 "
        "queue.sent=101",
        "queue.delivered=95 queue.retransmit=22 queue.sent=119",
        "queue.delivered=165 queue.retransmit=19 queue.sent=146",
        "queue.delivered=87 queue.retransmit=10 queue.sent=104",
        "queue.delivered=137 queue.retransmit=19 queue.sent=124",
        "queue.delivered=97 queue.retransmit=35 queue.sent=108",
        "queue.delivered=87 queue.retransmit=18 queue.sent=105"}});
}

// Overlapping finite-epsilon queries whose reads all forward to shard 1's
// owners, captured at a known-good commit. The only pins at those owners
// are the queries' shadows, so a change that stopped honouring shadow pins
// when charging forwarded reads moves these values.
TEST(ShardingIntegrationTest, ForwardedBoundedQueriesUnderChurnPinnedDigests) {
  ReplicatedSystem system(ShardedConfig(4, 2, 8, 313));
  const std::vector<ObjectId> hot = ObjectsInShard(system, 1, 3);
  std::vector<SiteId> outsiders;
  for (SiteId s = 0; s < 8; ++s) {
    if (!system.placement()->Owns(s, 1)) outsiders.push_back(s);
  }
  for (SimTime t = 0; t < 150'000; t += 1'500) {
    system.simulator().ScheduleAt(t, [&system, &hot, t]() {
      const int i = static_cast<int>(t / 1'500);
      (void)system.SubmitUpdate(static_cast<SiteId>(i % 8),
                                {Operation::Increment(hot[i % 3], 1)});
    });
  }
  const std::vector<test::QueryOutcome> outcomes = test::RunOverlappingQueries(
      system, outsiders, hot, /*rounds=*/24, /*lifetime=*/4, /*gap_us=*/4'000);
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  EXPECT_GT(test::EventCount(system, "esr.reads_forwarded"), 0);
  test::ExpectOutcomes(system, outcomes,
                       {{{0, 1, 2, 2}, 0, 1},
                        {{0, 2, 2, 4}, 0, 1},
                        {{1, 2, 2, 4}, 3, 0},
                        {{2, 2, 5, 5}, 0, 1},
                        {{2, 4, 5, 5}, 0, 1},
                        {{4, 4, 4, 7}, 3, 0},
                        {{5, 5, 8, 8}, 0, 1},
                        {{5, 7, 7, 9}, 0, 1},
                        {{7, 7, 8, 9}, 2, 0},
                        {{8, 9, 10, 10}, 0, 1},
                        {{9, 9, 10, 10}, 1, 0},
                        {{9, 10, 11, 12}, 3, 0},
                        {{10, 12, 12, 12}, 0, 1},
                        {{11, 12, 12, 15}, 0, 1},
                        {{12, 12, 14, 15}, 3, 0},
                        {{12, 12, 16, 16}, 0, 1},
                        {{12, 16, 16, 16}, 0, 1},
                        {{14, 15, 15, 15}, 1, 0},
                        {{16, 16, 16, 20}, 0, 1},
                        {{16, 16, 19, 19}, 0, 1},
                        {{15, 18, 19, 19}, 0, 1},
                        {{19, 20, 20}, 1, 0},
                        {{19, 19}, 0, 0},
                        {{19}, 0, 0}},
                       /*pinned_limit_hits=*/14);
  test::ExpectPinnedRun(
      test::CapturePinnedRun(system),
      {{0x14650fb0739d0383ull, 0x0dbbe6c1ba68381bull, 0x14650fb0739d0383ull,
        0x14650fb0739d0383ull, 0x14650fb0739d0383ull, 0x14650fb0739d0383ull,
        0x0dbbe6c1ba68381bull, 0x14650fb0739d0383ull},
       {2, 1, 3, 4, 5, 6, 7, 8, 10, 9, 11, 12, 13, 14, 15, 16, 18, 17, 19, 20,
        21, 22, 23, 24, 26, 25, 27, 28, 29, 30, 31, 32, 34, 33, 35, 36, 37, 38,
        39, 40, 42, 41, 43, 44, 45, 46, 47, 48, 50, 49, 51, 52, 53, 54, 55, 56,
        58, 57, 59, 60, 61, 62, 63, 64, 66, 65, 67, 68, 69, 70, 71, 72, 74, 73,
        75, 76, 77, 78, 79, 80, 82, 81, 83, 84, 85, 86, 87, 88, 90, 89, 91, 92,
        93, 94, 95, 96, 98, 97, 99, 100},
       {"queue.delivered=93 queue.retransmit=1 queue.sent=124",
        "queue.delivered=462 queue.duplicate=6 queue.sent=365",
        "queue.delivered=93 queue.retransmit=2 queue.sent=124",
        "queue.delivered=90 queue.retransmit=1 queue.sent=121",
        "queue.delivered=88 queue.retransmit=1 queue.sent=117",
        "queue.delivered=86 queue.retransmit=1 queue.sent=115",
        "queue.delivered=234 queue.sent=159",
        "queue.delivered=84 queue.sent=105"}});
}

}  // namespace
}  // namespace esr::core
