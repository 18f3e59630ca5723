#include "obs/metric_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/et_tracer.h"
#include "test_util.h"

namespace esr::obs {
namespace {

using core::Method;
using store::Operation;
using test::Config;
using test::MustSubmit;
using test::RunQuery;

TEST(MetricRegistryTest, CounterAccumulates) {
  MetricRegistry registry;
  registry.GetCounter("esr_test_total").Increment();
  registry.GetCounter("esr_test_total").Increment(4);
  EXPECT_EQ(registry.GetCounter("esr_test_total").value(), 5);
}

TEST(MetricRegistryTest, CounterValueReadsWithoutCreatingASeries) {
  MetricRegistry registry;
  registry.GetCounter("esr_test_total", {{"a", "1"}, {"b", "2"}}).Increment(3);
  EXPECT_EQ(registry.CounterValue("esr_test_total", {{"b", "2"}, {"a", "1"}}),
            3);
  EXPECT_EQ(registry.CounterValue("esr_test_total", {{"a", "2"}}), 0);
  EXPECT_EQ(registry.CounterValue("esr_missing_total"), 0);
  EXPECT_EQ(registry.SeriesCount(), 1);
}

TEST(MetricRegistryTest, EventFamilyCreatesASeriesPerEventOnFirstIncrement) {
  MetricRegistry registry;
  EventFamily events(registry, "esr_test_events_total", {{"site", "2"}});
  EXPECT_EQ(registry.SeriesCount(), 0);
  events.Increment("queue.sent");
  events.Increment("queue.sent", 4);
  events.Increment("queue.delivered");
  // A second family over the same series adds to it.
  EventFamily(registry, "esr_test_events_total", {{"site", "2"}})
      .Increment("queue.sent");
  EXPECT_EQ(registry.CounterValue("esr_test_events_total",
                                  {{"event", "queue.sent"}, {"site", "2"}}),
            6);
  EXPECT_EQ(
      registry.CounterValue("esr_test_events_total",
                            {{"event", "queue.delivered"}, {"site", "2"}}),
      1);
  EXPECT_EQ(registry.SeriesCount(), 2);
}

TEST(MetricRegistryTest, LabelOrderAddressesSameSeries) {
  MetricRegistry registry;
  registry.GetCounter("esr_test_total", {{"a", "1"}, {"b", "2"}}).Increment();
  registry.GetCounter("esr_test_total", {{"b", "2"}, {"a", "1"}}).Increment();
  EXPECT_EQ(
      registry.GetCounter("esr_test_total", {{"a", "1"}, {"b", "2"}}).value(),
      2);
  EXPECT_EQ(registry.SeriesCount(), 1);
}

TEST(MetricRegistryTest, HistogramBucketsAndSum) {
  MetricRegistry registry;
  Histogram& h = registry.GetHistogram("esr_lat_us", {}, {10, 100, 1000});
  h.Observe(5);
  h.Observe(50);
  h.Observe(50);
  h.Observe(5000);  // +Inf overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 5105);
  const std::vector<int64_t> expected = {1, 2, 0, 1};
  EXPECT_EQ(h.bucket_counts(), expected);
  // Exposition renders cumulative le buckets plus _sum/_count.
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("esr_lat_us_bucket{le=\"100\"} 3"), std::string::npos);
  EXPECT_NE(text.find("esr_lat_us_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("esr_lat_us_count 4"), std::string::npos);
}

TEST(MetricRegistryTest, DescribeBeforeGetKeepsInstrumentKind) {
  // Regression: Describe() creates the family entry before the first Get*
  // call decides the kind; the gauge must still render as a gauge.
  MetricRegistry registry;
  registry.Describe("esr_converged_test", "help text");
  registry.GetGauge("esr_converged_test").Set(1);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE esr_converged_test gauge"), std::string::npos);
  EXPECT_NE(text.find("esr_converged_test 1"), std::string::npos);
}

TEST(MetricRegistryTest, DescribedButUnpopulatedFamilyIsSilent) {
  MetricRegistry registry;
  registry.Describe("esr_never_used", "help");
  EXPECT_EQ(registry.PrometheusText(), "");
}

TEST(MetricRegistryTest, MergeAddsCountersAndBuckets) {
  MetricRegistry a;
  MetricRegistry b;
  a.GetCounter("esr_x_total", {{"site", "0"}}).Increment(2);
  b.GetCounter("esr_x_total", {{"site", "0"}}).Increment(3);
  b.GetCounter("esr_x_total", {{"site", "1"}}).Increment(7);
  a.GetGauge("esr_g").Set(1);
  b.GetGauge("esr_g").Set(9);
  a.GetHistogram("esr_h", {}, {10, 100}).Observe(5);
  b.GetHistogram("esr_h", {}, {10, 100}).Observe(50);
  a.Merge(b);
  EXPECT_EQ(a.GetCounter("esr_x_total", {{"site", "0"}}).value(), 5);
  EXPECT_EQ(a.GetCounter("esr_x_total", {{"site", "1"}}).value(), 7);
  EXPECT_DOUBLE_EQ(a.GetGauge("esr_g").value(), 9);  // last writer wins
  Histogram& merged = a.GetHistogram("esr_h");
  EXPECT_EQ(merged.count(), 2);
  EXPECT_DOUBLE_EQ(merged.sum(), 55);
}

TEST(EtTracerTest, LifecycleDerivedGauges) {
  MetricRegistry registry;
  EtTracer tracer(&registry, /*num_sites=*/3);
  tracer.OnSubmit(1, /*origin=*/0, 100);
  tracer.OnLocalCommit(1, 0, 200);
  EXPECT_EQ(tracer.InFlightEts(), 1);
  tracer.OnEnqueue(1, 0, /*targets=*/{1, 2});
  EXPECT_EQ(tracer.QueueDepth(1), 1);
  EXPECT_EQ(tracer.QueueDepth(2), 1);
  EXPECT_EQ(tracer.QueueDepth(0), 0);  // nothing queued toward the origin
  tracer.OnApply(1, 1, 300);
  EXPECT_EQ(tracer.QueueDepth(1), 0);
  tracer.OnApply(1, 2, 350);
  tracer.OnStable(1, 0, 400);
  EXPECT_EQ(tracer.InFlightEts(), 0);
  // 400 - commit at 200
  EXPECT_DOUBLE_EQ(registry.GetHistogram("esr_stability_lag_us").sum(), 200);
  EXPECT_EQ(
      registry.GetCounter("esr_et_phase_total", {{"phase", "stable"}}).value(),
      1);
  EXPECT_EQ(registry
                .GetCounter("esr_et_phase_total",
                            {{"phase", "apply"}, {"site", "2"}})
                .value(),
            1);
}

TEST(EtTracerTest, AbortBeforeCommitDoesNotLeakInFlight) {
  // COMPE can decide an abort before the sequencer callback delivers the
  // local commit; the in-flight gauge must settle back to zero.
  MetricRegistry registry;
  EtTracer tracer(&registry, 3);
  tracer.OnSubmit(7, 0, 10);
  tracer.OnAborted(7, 0, 20);
  tracer.OnLocalCommit(7, 0, 30);  // late ordering callback
  EXPECT_EQ(tracer.InFlightEts(), 0);
}

TEST(EtTracerTest, OneLocalCommitFeedsGaugeAndHopTrace) {
  MetricRegistry registry;
  EtTracer tracer(&registry, 3);
  tracer.EnableHops(/*max_completed=*/8);
  tracer.OnSubmit(1, /*origin=*/0, 100, "increment");
  tracer.OnLocalCommit(1, 0, 250);
  EXPECT_DOUBLE_EQ(registry.GetGauge("esr_et_in_flight").value(), 1);
  const auto it = tracer.open_traces().find(1);
  ASSERT_NE(it, tracer.open_traces().end());
  EXPECT_EQ(it->second.submit_time, 100);
  EXPECT_EQ(it->second.commit_time, 250);
  EXPECT_EQ(it->second.object_class, "increment");
  // A repeated commit callback stamps neither view again.
  tracer.OnLocalCommit(1, 0, 300);
  EXPECT_EQ(tracer.InFlightEts(), 1);
  EXPECT_EQ(tracer.open_traces().at(1).commit_time, 250);
}

TEST(EtTracerTest, HopCallsRecordNothingWhileHopsAreOff) {
  MetricRegistry registry;
  EtTracer tracer(&registry, 3);
  const TraceContext trace{.et = 1, .origin = 0, .msg_type = 100};
  tracer.OnSubmit(1, 0, 100, "increment");
  tracer.SeqBegin(1, 0, 2, 110);
  tracer.SeqEnd(1, 0, 2, 150);
  tracer.OnLocalCommit(1, 0, 200);
  tracer.OnEnqueue(1, 0, {1, 2});
  tracer.QueueSend(trace, 100, 0, 1, 200);
  tracer.NetArrive(trace, 0, 1, 250);
  tracer.QueueDeliver(trace, 100, 0, 1, 260);
  tracer.OrderWaitBegin(1, 1, 260);
  tracer.OnApply(1, 1, 300);
  tracer.CatchupBegin(/*exchange=*/1, 1, 0, 310);
  tracer.CatchupEnd(1, 1, 0, 320);
  tracer.OnStable(1, 0, 400);
  EXPECT_FALSE(tracer.hops_enabled());
  EXPECT_TRUE(tracer.open_traces().empty());
  EXPECT_TRUE(tracer.completed().empty());
  EXPECT_TRUE(tracer.catchup_hops().empty());
  EXPECT_EQ(tracer.completed_total(), 0);
  EXPECT_EQ(tracer.dropped_hops(), 0);
  // The metrics side ran as usual.
  EXPECT_DOUBLE_EQ(registry.GetHistogram("esr_stability_lag_us").sum(), 200);
  EXPECT_EQ(tracer.QueueDepth(1), 0);
  EXPECT_EQ(
      registry.GetCounter("esr_et_phase_total", {{"phase", "local_commit"}})
          .value(),
      1);
}

/// Runs a deterministic 3-site ORDUP workload and returns the metrics
/// snapshot.
std::string SeededOrdupRun(uint64_t seed) {
  core::ReplicatedSystem system(Config(Method::kOrdup, 3, seed));
  for (int i = 0; i < 8; ++i) {
    MustSubmit(system, static_cast<SiteId>(i % 3),
               {Operation::Increment(i % 4, 1)});
    system.RunFor(2'000);
  }
  system.RunUntilQuiescent();
  RunQuery(system, 1, core::kUnboundedEpsilon, {0, 1});
  return system.MetricsSnapshot();
}

TEST(ObsIntegrationTest, SeededRunsProduceIdenticalSnapshots) {
  const std::string metrics1 = SeededOrdupRun(42);
  const std::string metrics2 = SeededOrdupRun(42);
  EXPECT_FALSE(metrics1.empty());
  EXPECT_EQ(metrics1, metrics2);
  // Sanity: the snapshot carries the core lifecycle counters.
  EXPECT_NE(metrics1.find("esr_et_phase_total{phase=\"local_commit\"} 8"),
            std::string::npos);
  EXPECT_NE(metrics1.find("esr_queries_completed_total"), std::string::npos);
}

TEST(ObsIntegrationTest, NetworkDelayShowsUpInLagAndQueueDepth) {
  auto config = Config(Method::kOrdup, 3, 7);
  config.network.base_latency_us = 50'000;
  core::ReplicatedSystem system(config);
  MustSubmit(system, 0, {Operation::Increment(0, 3)});

  // While the MSet is crossing the (slow) network, some replica's queue
  // depth must be visibly nonzero.
  int64_t max_depth = 0;
  for (int step = 0; step < 1'000 && !system.simulator().Quiescent(); ++step) {
    system.RunFor(1'000);
    for (SiteId s = 0; s < 3; ++s) {
      max_depth = std::max(max_depth, system.tracer().QueueDepth(s));
    }
  }
  system.RunUntilQuiescent();
  EXPECT_GT(max_depth, 0);

  // Stability takes at least one network round trip, so the lag gauge and
  // histogram are nonzero.
  EXPECT_GE(system.metrics().GetHistogram("esr_stability_lag_us").sum(),
            50'000);
  const std::string snapshot = system.MetricsSnapshot();
  EXPECT_NE(snapshot.find("esr_stability_lag_us_count 1"), std::string::npos);
  // After the drain the backlog gauge reads zero again.
  EXPECT_NE(snapshot.find("esr_mset_queue_depth{site=\"1\"} 0"),
            std::string::npos);
  EXPECT_EQ(system.tracer().InFlightEts(), 0);
}

TEST(ObsIntegrationTest, QuiescentRunHoldsNoPerEtState) {
  // Every ET of a drained run is stable and applied everywhere, so no
  // lifecycle call can reach it again: the tracer must not keep it.
  core::ReplicatedSystem system(Config(Method::kOrdup, 3, 42));
  for (int i = 0; i < 8; ++i) {
    MustSubmit(system, static_cast<SiteId>(i % 3),
               {Operation::Increment(i % 4, 1)});
    system.RunFor(2'000);
  }
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  EXPECT_EQ(system.tracer().InFlightEts(), 0);
  EXPECT_EQ(system.tracer().tracked_ets(), 0);
}

TEST(ObsIntegrationTest, QueueDepthDrainsAfterOrderedCompeAbortBeforeRelease) {
  // Each abort outruns the ordered release, so every replica skips the
  // MSet instead of applying it: all six ETs at all three sites, the
  // sequencer home's own included, whose grant is a loopback that arrives
  // after the Decide. The skip must still drain the backlog that the
  // enqueue counted toward that replica.
  core::ReplicatedSystem system(Config(Method::kCompeOrdered, 3, 11));
  for (int i = 0; i < 6; ++i) {
    const EtId et = MustSubmit(system, static_cast<SiteId>(i % 3),
                               {Operation::Increment(i, 1)});
    ASSERT_TRUE(system.Decide(et, /*commit=*/false).ok());
  }
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  EXPECT_EQ(test::EventCount(system, "esr.compe_apply_skipped"), 18);
  EXPECT_EQ(test::EventCount(system, "esr.compensations"), 0);
  EXPECT_EQ(system.tracer().InFlightEts(), 0);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(system.tracer().QueueDepth(s), 0) << "site " << s;
  }
}

TEST(ObsIntegrationTest, QueueDepthDrainsUnderPartialReplication) {
  // Owner routing sends each MSet only to its shard's owners, so only those
  // sites ever apply it. A backlog counted toward every non-origin site
  // would never drain at the others.
  auto config = Config(Method::kOrdup, 8, 301);
  config.shard.num_shards = 4;
  config.shard.replication_factor = 2;
  core::ReplicatedSystem system(config);
  for (int round = 0; round < 5; ++round) {
    for (SiteId s = 0; s < 8; ++s) {
      MustSubmit(system, s, {Operation::Increment(round * 8 + s, 1)});
    }
    system.RunFor(20'000);
  }
  system.RunUntilQuiescent();
  ASSERT_TRUE(system.Converged());
  EXPECT_EQ(system.tracer().InFlightEts(), 0);
  for (SiteId s = 0; s < 8; ++s) {
    EXPECT_EQ(system.tracer().QueueDepth(s), 0) << "site " << s;
    EXPECT_DOUBLE_EQ(system.metrics()
                         .GetGauge("esr_mset_queue_depth",
                                   {{"site", std::to_string(s)}})
                         .value(),
                     0)
        << "site " << s;
  }
}

}  // namespace
}  // namespace esr::obs
