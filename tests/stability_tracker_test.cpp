#include "esr/stability_tracker.h"

#include <gtest/gtest.h>

#include <vector>

#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;

TEST(PredTimestampTest, StepsDownWithinCounterThenAcross) {
  EXPECT_EQ(PredTimestamp({5, 3}), (LamportTimestamp{5, 2}));
  LamportTimestamp p = PredTimestamp({5, 0});
  EXPECT_EQ(p.counter, 4);
  EXPECT_LT(p, (LamportTimestamp{5, 0}));
  EXPECT_LT((LamportTimestamp{4, 100}), p);  // pred is the LARGEST below
}

TEST(StabilityTrackerTest, AcksAccumulateUntilAllSites) {
  StabilityTracker t(0, 3);
  t.ObserveMset(1, {1, 0}, 0);
  EXPECT_FALSE(t.RecordAck(1, 0));
  EXPECT_FALSE(t.RecordAck(1, 1));
  EXPECT_FALSE(t.RecordAck(1, 1));  // duplicate ack does not count twice
  EXPECT_TRUE(t.RecordAck(1, 2));
}

TEST(StabilityTrackerTest, MarkStableFiresCallbackOnce) {
  StabilityTracker t(0, 2);
  int fired = 0;
  t.on_stable = [&](EtId) { ++fired; };
  t.ObserveMset(1, {1, 0}, 0);
  t.MarkStable(1);
  t.MarkStable(1);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(t.IsStable(1));
  EXPECT_EQ(t.OutstandingCount(), 0);
}

TEST(StabilityTrackerTest, StableNoticeBeforeMsetHandled) {
  StabilityTracker t(0, 2);
  t.MarkStable(5);
  t.ObserveMset(5, {3, 1}, 1);  // late arrival must not resurrect it
  EXPECT_EQ(t.OutstandingCount(), 0);
}

TEST(StabilityTrackerTest, VtncHeldDownByQuietOrigins) {
  StabilityTracker t(0, 3);
  // Origin 1 advanced to 100, origin 2 never spoke: VTNC floor is zero.
  t.ObserveClock(1, {100, 1});
  EXPECT_EQ(t.Vtnc(), kZeroTimestamp);
}

TEST(StabilityTrackerTest, VtncAdvancesWithWatermarks) {
  StabilityTracker t(0, 3);
  t.ObserveClock(1, {100, 1});
  t.ObserveClock(2, {50, 2});
  EXPECT_EQ(t.Vtnc(), (LamportTimestamp{50, 2}));
}

TEST(StabilityTrackerTest, OutstandingMsetCapsVtnc) {
  StabilityTracker t(0, 3);
  t.ObserveClock(1, {100, 1});
  t.ObserveClock(2, {100, 2});
  t.ObserveMset(7, {40, 1}, 1);
  EXPECT_EQ(t.Vtnc(), PredTimestamp({40, 1}));
  t.MarkStable(7);
  EXPECT_EQ(t.Vtnc(), (LamportTimestamp{100, 1}));
}

TEST(StabilityTrackerTest, SelfOutstandingCountsButSelfWatermarkDoesNot) {
  StabilityTracker t(0, 2);
  t.ObserveClock(1, {100, 1});
  // Self never "heartbeats" itself; only its outstanding updates matter.
  EXPECT_EQ(t.Vtnc(), (LamportTimestamp{100, 1}));
  t.ObserveMset(3, {30, 0}, 0);
  EXPECT_EQ(t.Vtnc(), PredTimestamp({30, 0}));
}

TEST(StabilityTrackerTest, AbortDropsTheOutgoingRecord) {
  StabilityTracker t(0, 3);
  t.TrackOutgoing(5, {7, 0}, {0, 1, 2});
  EXPECT_FALSE(t.RecordAck(5, 0));
  EXPECT_FALSE(t.RecordAck(5, 1));
  t.DropOutgoing(5);
  EXPECT_EQ(t.FindOutgoing(5), nullptr);
  EXPECT_FALSE(t.AcksComplete(5));
  EXPECT_TRUE(t.OutgoingTargets().empty());
  EXPECT_TRUE(t.ExportSnapshot().outgoing.empty());
}

TEST(StabilityTrackerTest, ShardedOriginOutsideTheOwnerSetNeverAcksItself) {
  // Site 0 originates an update of a shard owned by sites 1 and 2 only: it
  // never applies the MSet, so the owners' two acks complete it, and the
  // stability notice goes to exactly those owners.
  StabilityTracker t(0, 4);
  t.TrackOutgoing(7, {5, 0}, {1, 2});
  EXPECT_FALSE(t.RecordAck(7, 1));
  EXPECT_TRUE(t.RecordAck(7, 2));
  EXPECT_TRUE(t.AcksComplete(7));
  const recovery::OutgoingRecord* out = t.FindOutgoing(7);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->replicas, (std::vector<SiteId>{1, 2}));
  EXPECT_EQ(t.OutgoingTargets(), (std::vector<SiteId>{1, 2}));
  t.MarkStable(7);
  EXPECT_EQ(t.FindOutgoing(7), nullptr);
  EXPECT_TRUE(t.OutgoingTargets().empty());
}

TEST(StabilityTrackerTest, HalfAckedRecordSurvivesCheckpointRoundTrip) {
  StabilityTracker t(0, 3);
  t.TrackOutgoing(9, {3, 0}, {0, 1, 2});
  EXPECT_FALSE(t.RecordAck(9, 2));
  EXPECT_FALSE(t.RecordAck(9, 0));

  // Through the checkpoint codec, as an amnesia restart reads it back.
  recovery::CheckpointData image;
  image.stability = t.ExportSnapshot();
  recovery::CheckpointData decoded;
  ASSERT_TRUE(
      recovery::DecodeCheckpoint(recovery::EncodeCheckpoint(image), &decoded));
  StabilityTracker restored(0, 3);
  restored.RestoreSnapshot(decoded.stability);
  const recovery::OutgoingRecord* out = restored.FindOutgoing(9);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->ts, (LamportTimestamp{3, 0}));
  EXPECT_EQ(out->replicas, (std::vector<SiteId>{0, 1, 2}));
  EXPECT_EQ(out->acks, (std::vector<SiteId>{0, 2}));
  EXPECT_FALSE(restored.RecordAck(9, 0));  // duplicate of a restored ack
  EXPECT_TRUE(restored.RecordAck(9, 1));
}

TEST(StabilityTrackerTest, CompeStabilityWaitsForTheCommitDecision) {
  // Every replica applies and acks a tentative COMPE update at once, but
  // the origin sends no stability notice until the update commits.
  ReplicatedSystem system(test::Config(Method::kCompe, 3, 5));
  const EtId et = test::MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunUntilQuiescent();
  EXPECT_EQ(test::EventCount(system, "esr.msets_applied"), 3);
  EXPECT_EQ(test::EventCount(system, "esr.stable"), 0);
  EXPECT_EQ(system.tracer().InFlightEts(), 1);

  ASSERT_TRUE(system.Decide(et, /*commit=*/true).ok());
  system.RunUntilQuiescent();
  EXPECT_EQ(test::EventCount(system, "esr.stable"), 1);
  EXPECT_EQ(system.tracer().InFlightEts(), 0);
}

TEST(StabilityTrackerTest, LateAckForAbortedEtLeavesNoOriginRecord) {
  // Each update aborts at its origin before any replica acks it. The
  // replicas' acks then reach an origin that dropped the ET's record; they
  // must not re-create it, or every checkpoint carries it forever.
  SystemConfig config = test::Config(Method::kCompe, 3, 5);
  config.recovery.enabled = true;
  ReplicatedSystem system(config);
  for (int i = 0; i < 20; ++i) {
    const EtId et = test::MustSubmit(system, 0, {Operation::Increment(i, 1)});
    ASSERT_TRUE(system.Decide(et, /*commit=*/false).ok());
  }
  system.RunUntilQuiescent();
  system.recovery_manager()->TakeCheckpoint(0);
  recovery::CheckpointData data;
  ASSERT_TRUE(recovery::DecodeCheckpoint(
      system.recovery_manager()->storage()->ReadCheckpoint(0), &data));
  EXPECT_TRUE(data.stability.outgoing.empty())
      << data.stability.outgoing.size() << " origin records left";
}

TEST(StabilityTrackerTest, VtncMonotoneUnderInterleavedTraffic) {
  StabilityTracker t(0, 3);
  LamportTimestamp last = t.Vtnc();
  auto check = [&]() {
    LamportTimestamp now = t.Vtnc();
    EXPECT_GE(now, last);
    last = now;
  };
  t.ObserveClock(1, {10, 1});
  check();
  t.ObserveClock(2, {20, 2});
  check();
  t.ObserveMset(1, {15, 1}, 1);
  check();
  t.ObserveClock(1, {30, 1});
  check();
  t.MarkStable(1);
  check();
  t.ObserveMset(2, {25, 2}, 2);
  check();
  t.MarkStable(2);
  check();
}

}  // namespace
}  // namespace esr::core
