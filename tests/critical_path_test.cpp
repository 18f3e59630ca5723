// Critical-path analyzer: golden waterfall decomposition on a scripted
// trace, aggregate-report invariants, and the headline behavioural check —
// inflating the sequencer round trip must shift the dominant segment to
// sequencer_rtt.

#include "analysis/critical_path.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>

#include "obs/et_tracer.h"
#include "test_util.h"
#include "workload/workload.h"

namespace esr::analysis {
namespace {

using obs::EtTrace;
using obs::HopKind;
using obs::HopRecord;

HopRecord Hop(int64_t span, HopKind kind, int32_t msg_type, SiteId from,
              SiteId to, SimTime begin, SimTime arrive, SimTime end) {
  HopRecord h;
  h.span = span;
  h.kind = kind;
  h.msg_type = msg_type;
  h.from = from;
  h.to = to;
  h.begin = begin;
  h.arrive = arrive;
  h.end = end;
  return h;
}

/// A fully-instrumented two-replica ET with every milestone scripted:
/// submit 5, sequencer 10→30, commit 35, mset to the critical replica
/// 40/60/65, applied there at 70, ack 70/90/92, stable 100.
EtTrace ScriptedTrace() {
  const ProtocolTypes types;
  EtTrace t;
  t.et = 7;
  t.origin = 0;
  t.object_class = "counter";
  t.submit_time = 5;
  t.commit_time = 35;
  t.stable_time = 100;
  t.apply_time = {35, 70, 55};
  t.hops.push_back(Hop(1, HopKind::kSeqRtt, 0, 0, 2, 10, -1, 30));
  // Replica 2 finishes early: mset 40/48/50, ack closes at 60.
  t.hops.push_back(Hop(2, HopKind::kQueue, types.mset, 0, 2, 40, 48, 50));
  t.hops.push_back(Hop(3, HopKind::kOrderWait, 0, 2, 2, 50, -1, 55));
  t.hops.push_back(Hop(4, HopKind::kQueue, types.apply_ack, 2, 0, 55, 59, 60));
  // Replica 1 is the critical chain: its ack closes last (92).
  t.hops.push_back(Hop(5, HopKind::kQueue, types.mset, 0, 1, 40, 60, 65));
  t.hops.push_back(Hop(6, HopKind::kOrderWait, 0, 1, 1, 65, -1, 70));
  t.hops.push_back(Hop(7, HopKind::kQueue, types.apply_ack, 1, 0, 70, 90, 92));
  return t;
}

int64_t SegmentUs(const Waterfall& w, const std::string& name) {
  for (const Segment& s : w.segments) {
    if (s.name == name) return s.Duration();
  }
  ADD_FAILURE() << "no segment named " << name;
  return -1;
}

TEST(CriticalPathTest, GoldenWaterfallDecomposition) {
  const Waterfall w = BuildWaterfall(ScriptedTrace());
  EXPECT_EQ(w.et, 7);
  EXPECT_EQ(w.origin, 0);
  EXPECT_EQ(w.object_class, "counter");
  EXPECT_EQ(w.critical_site, 1) << "replica 1's ack closed last";
  EXPECT_EQ(w.CommitToStableUs(), 65);

  EXPECT_EQ(SegmentUs(w, "submit_wait"), 5);      // 5 -> 10
  EXPECT_EQ(SegmentUs(w, "sequencer_rtt"), 20);   // 10 -> 30
  EXPECT_EQ(SegmentUs(w, "commit_wait"), 5);      // 30 -> 35
  EXPECT_EQ(SegmentUs(w, "origin_queue_wait"), 5);  // 35 -> 40
  EXPECT_EQ(SegmentUs(w, "network_transit"), 20);   // 40 -> 60
  EXPECT_EQ(SegmentUs(w, "remote_queue_wait"), 5);  // 60 -> 65
  EXPECT_EQ(SegmentUs(w, "order_wait"), 5);         // 65 -> 70
  EXPECT_EQ(SegmentUs(w, "ack_transit"), 22);       // 70 -> 92
  EXPECT_EQ(SegmentUs(w, "stability_fan_in"), 8);   // 92 -> 100
}

TEST(CriticalPathTest, MissingMilestonesCollapseToZeroNotNegative) {
  // A trace with no sequencer and no acks (e.g. COMMU without stability
  // fan-in traced): every absent milestone collapses onto its predecessor,
  // and the segments still tile the windows exactly.
  const ProtocolTypes types;
  EtTrace t;
  t.et = 9;
  t.origin = 0;
  t.submit_time = 0;
  t.commit_time = 10;
  t.stable_time = 50;
  t.apply_time = {10, 30};
  t.hops.push_back(Hop(1, HopKind::kQueue, types.mset, 0, 1, 12, 25, 28));
  const Waterfall w = BuildWaterfall(t);
  int64_t pre = 0, post = 0;
  for (size_t i = 0; i < 3; ++i) pre += w.segments[i].Duration();
  for (size_t i = 3; i < w.segments.size(); ++i) {
    post += w.segments[i].Duration();
  }
  EXPECT_EQ(pre, 10);
  EXPECT_EQ(post, 40);
  EXPECT_EQ(SegmentUs(w, "sequencer_rtt"), 0);
  for (const Segment& s : w.segments) {
    EXPECT_GE(s.Duration(), 0) << s.name;
  }
}

TEST(CriticalPathTest, ReportAggregatesAndRanksSegments) {
  std::deque<EtTrace> traces;
  traces.push_back(ScriptedTrace());
  traces.push_back(ScriptedTrace());
  traces.back().et = 8;
  traces.back().object_class = "register";
  CriticalPathReport report = BuildReport(traces, "ordup");
  EXPECT_EQ(report.method, "ordup");
  EXPECT_EQ(report.traced_ets, 2);
  EXPECT_EQ(report.aborted_ets, 0);
  // ack_transit (22us) is the single largest segment of the scripted ET.
  EXPECT_EQ(report.dominant_segment, "ack_transit");
  ASSERT_EQ(report.by_class.size(), 2u);
  EXPECT_EQ(report.by_class[0].object_class, "counter");
  EXPECT_EQ(report.by_class[1].object_class, "register");
  EXPECT_EQ(report.lag_p50_us, 65);
  EXPECT_EQ(report.lag_p99_us, 65);

  const std::string table = RenderReportTable(report);
  EXPECT_NE(table.find("ack_transit"), std::string::npos);
  EXPECT_NE(table.find("dominant segment: ack_transit"), std::string::npos);

  const std::string jsonl = WaterfallsJsonl(traces, "ordup");
  EXPECT_NE(jsonl.find("\"kind\":\"report\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"et\":7"), std::string::npos);
}

/// Runs ORDUP with all updates originating at site 0 and the sequencer at
/// site 2, pinning the 0<->2 links (the sequencer round trip) to
/// `seq_link_latency_us` while the replica-propagation link to site 1
/// keeps the default latency.
CriticalPathReport RunAndReport(int64_t seq_link_latency_us) {
  core::SystemConfig config = test::Config(core::Method::kOrdup, 3, 21);
  config.record_hops = true;
  config.sequencer_site = 2;
  core::ReplicatedSystem system(config);
  system.network().SetLinkLatency(0, 2, seq_link_latency_us);
  system.network().SetLinkLatency(2, 0, seq_link_latency_us);
  for (int i = 0; i < 10; ++i) {
    test::MustSubmit(system, 0, {store::Operation::Increment(0, 1)});
    system.RunUntilQuiescent();
  }
  ProtocolTypes types;
  types.mset = core::kMsetMsg;
  types.apply_ack = core::kApplyAckMsg;
  types.stable = core::kStableMsg;
  return BuildReport(system.tracer().completed(), "ordup", types);
}

TEST(CriticalPathTest, InflatedSequencerLatencyShiftsDominantSegment) {
  // Fast sequencer links: the waterfall is propagation-bound.
  const CriticalPathReport baseline = RunAndReport(100);
  ASSERT_GT(baseline.traced_ets, 0);
  EXPECT_NE(baseline.dominant_segment, "sequencer_rtt")
      << "with a near-free sequencer the RTT should not dominate";

  // Same topology, sequencer links inflated 600x: the report must now
  // attribute the waterfall to the sequencer round trip.
  const CriticalPathReport slow_seq = RunAndReport(60'000);
  ASSERT_GT(slow_seq.traced_ets, 0);
  EXPECT_EQ(slow_seq.dominant_segment, "sequencer_rtt");
}

}  // namespace
}  // namespace esr::analysis
