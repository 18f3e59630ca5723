#include "esr/admission.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace esr::core {
namespace {

using store::Operation;
using test::Config;
using test::MustSubmit;

using Decision = AdmissionController::Decision;
using Signals = AdmissionController::Signals;

AdmissionConfig ControllerConfig(double initial_scale) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.initial_scale = initial_scale;
  return cfg;
}

TEST(AdmissionControllerTest, InterpolatesInsideDeclaredBounds) {
  AdmissionController c(ControllerConfig(0.5), 2, nullptr);
  EXPECT_EQ(c.Effective(0, 0, 10), 5);
  EXPECT_EQ(c.Effective(0, 2, 10), 6);
  EXPECT_EQ(c.Effective(0, 4, 4), 4) << "degenerate range: declared value";
  EXPECT_EQ(c.Effective(0, 6, 2), 2) << "inverted range: declared max wins";
  EXPECT_EQ(c.Effective(0, 0, kUnboundedEpsilon), kUnboundedEpsilon)
      << "an unbounded declaration has no finite range to adapt in";
  EXPECT_EQ(c.Effective(0, 0, 0), 0) << "epsilon 0 stays 1SR";
}

TEST(AdmissionControllerTest, LoosensOnBlockedOrRestartedQueries) {
  AdmissionConfig cfg = ControllerConfig(0.0);
  AdmissionController c(cfg, 1, nullptr);
  Signals blocked;
  blocked.blocked = 3;
  EXPECT_EQ(c.Observe(0, blocked), Decision::kLoosen);
  EXPECT_DOUBLE_EQ(c.scale(0), AdmissionController::kStepUp);
  Signals restarted;
  restarted.restarts = 1;
  EXPECT_EQ(c.Observe(0, restarted), Decision::kLoosen);
  // Saturates at the declared max.
  for (int i = 0; i < 10; ++i) c.Observe(0, blocked);
  EXPECT_DOUBLE_EQ(c.scale(0), 1.0);
  EXPECT_EQ(c.Effective(0, 1, 16), 16);
}

TEST(AdmissionControllerTest, TightensOnLowUtilizationWhenCalm) {
  AdmissionConfig cfg = ControllerConfig(1.0);
  AdmissionController c(cfg, 1, nullptr);
  Signals calm;
  calm.completed = 4;
  calm.utilization_sum = 0.2;  // mean 0.05, well under kLowUtilization
  EXPECT_EQ(c.Observe(0, calm), Decision::kTighten);
  EXPECT_DOUBLE_EQ(c.scale(0), 1.0 - AdmissionController::kStepDown);
  for (int i = 0; i < 20; ++i) c.Observe(0, calm);
  EXPECT_DOUBLE_EQ(c.scale(0), 0.0);
  EXPECT_EQ(c.Effective(0, 1, 16), 1) << "fully tightened admits at the min";
}

TEST(AdmissionControllerTest, HoldsWhenBusyOrNoisy) {
  AdmissionController c(ControllerConfig(0.5), 1, nullptr);
  Signals hot;
  hot.completed = 2;
  hot.utilization_sum = 1.8;  // mean 0.9: budget is being used
  EXPECT_EQ(c.Observe(0, hot), Decision::kHold);

  Signals backlogged;
  backlogged.completed = 2;
  backlogged.utilization_sum = 0;
  backlogged.queue_depth = 100;  // propagation behind: don't tighten
  EXPECT_EQ(c.Observe(0, backlogged), Decision::kHold);

  Signals divergent;
  divergent.completed = 2;
  divergent.utilization_sum = 0;
  divergent.max_divergence = 100;  // replicas far apart: don't tighten
  EXPECT_EQ(c.Observe(0, divergent), Decision::kHold);

  Signals idle;  // nothing completed, nothing blocked
  EXPECT_EQ(c.Observe(0, idle), Decision::kHold);
  EXPECT_DOUBLE_EQ(c.scale(0), 0.5);
  EXPECT_EQ(c.ticks(), 4);
}

TEST(AdmissionControllerTest, ScalesAreIndependentPerSite) {
  AdmissionController c(ControllerConfig(0.0), 3, nullptr);
  Signals blocked;
  blocked.blocked = 1;
  c.Observe(1, blocked);
  EXPECT_DOUBLE_EQ(c.scale(0), 0.0);
  EXPECT_GT(c.scale(1), 0.0);
  EXPECT_DOUBLE_EQ(c.scale(2), 0.0);
}

TEST(AdmissionControllerTest, ValueScaleAdaptsIndependentlyOfCountScale) {
  AdmissionConfig cfg = ControllerConfig(1.0);
  AdmissionController c(cfg, 1, nullptr);

  // A workload of few large-magnitude updates: count budgets sit idle
  // (mean utilization 0.05) while value budgets are nearly exhausted
  // (mean 0.9). Only the count scale should tighten.
  Signals skewed;
  skewed.completed = 4;
  skewed.utilization_sum = 0.2;
  skewed.value_completed = 4;
  skewed.value_utilization_sum = 3.6;
  EXPECT_EQ(c.Observe(0, skewed), Decision::kTighten);
  EXPECT_DOUBLE_EQ(c.scale(0), 1.0 - AdmissionController::kStepDown);
  EXPECT_DOUBLE_EQ(c.value_scale(0), 1.0) << "hot value budget must hold";

  // The mirror image — many tiny updates: count budget hot, value budget
  // idle. The count scale holds while the value scale tightens.
  Signals mirrored;
  mirrored.completed = 4;
  mirrored.utilization_sum = 3.6;
  mirrored.value_completed = 4;
  mirrored.value_utilization_sum = 0.2;
  c.Observe(0, mirrored);
  EXPECT_DOUBLE_EQ(c.scale(0), 1.0 - AdmissionController::kStepDown)
      << "hot count budget must hold";
  EXPECT_DOUBLE_EQ(c.value_scale(0), 1.0 - AdmissionController::kStepDown);

  // Queries with no bounded value epsilon contribute no value signal, so
  // the value scale stays put even while the count scale keeps moving.
  Signals count_only;
  count_only.completed = 4;
  count_only.utilization_sum = 0.2;
  c.Observe(0, count_only);
  EXPECT_DOUBLE_EQ(c.scale(0), 1.0 - 2 * AdmissionController::kStepDown);
  EXPECT_DOUBLE_EQ(c.value_scale(0), 1.0 - AdmissionController::kStepDown);

  // Blocked queries cannot be attributed to one budget: both loosen
  // (saturating at 1.0 with kStepUp = 0.25).
  Signals blocked;
  blocked.blocked = 2;
  EXPECT_EQ(c.Observe(0, blocked), Decision::kLoosen);
  EXPECT_DOUBLE_EQ(c.scale(0),
                   std::min(1.0, 1.0 - 2 * AdmissionController::kStepDown + AdmissionController::kStepUp));
  EXPECT_DOUBLE_EQ(c.value_scale(0),
                   std::min(1.0, 1.0 - AdmissionController::kStepDown + AdmissionController::kStepUp));

  // EffectiveValue interpolates with the value scale, not the count scale.
  AdmissionController half(ControllerConfig(0.5), 1, nullptr);
  Signals tighten_count;
  tighten_count.completed = 4;
  tighten_count.utilization_sum = 0;
  for (int i = 0; i < 50; ++i) half.Observe(0, tighten_count);
  EXPECT_DOUBLE_EQ(half.scale(0), 0.0);
  EXPECT_EQ(half.Effective(0, 0, 10), 0);
  EXPECT_EQ(half.EffectiveValue(0, 0, 10), 5)
      << "value scale untouched by count-only tightening";
}

TEST(AdmissionControllerTest, EmitsDecisionMetrics) {
  obs::MetricRegistry metrics;
  AdmissionController c(ControllerConfig(0.5), 1, &metrics);
  Signals blocked;
  blocked.blocked = 1;
  c.Observe(0, blocked);
  Signals calm;
  calm.completed = 1;
  calm.utilization_sum = 0;
  c.Observe(0, calm);
  EXPECT_EQ(
      metrics.GetCounter("esr_admission_samples_total", {{"site", "0"}})
          .value(),
      2);
  EXPECT_EQ(metrics
                .GetCounter("esr_admission_adjustments_total",
                            {{"site", "0"}, {"direction", "loosen"}})
                .value(),
            1);
  EXPECT_EQ(metrics
                .GetCounter("esr_admission_adjustments_total",
                            {{"site", "0"}, {"direction", "tighten"}})
                .value(),
            1);
  EXPECT_DOUBLE_EQ(
      metrics.GetGauge("esr_admission_scale", {{"site", "0"}}).value(),
      c.scale(0));
}

TEST(AdmissionSystemTest, DisabledControllerAdmitsAtDeclaredEpsilon) {
  ReplicatedSystem system(Config(Method::kOrdup));
  EXPECT_EQ(system.admission(), nullptr);
  const EtId q = system.BeginQuery(1, /*epsilon=*/7);
  const QueryState* state = system.query_state(q);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->epsilon, 7);
  EXPECT_EQ(state->declared_epsilon, 7);
  ASSERT_TRUE(system.EndQuery(q).ok());
}

TEST(AdmissionSystemTest, TightensToMinWhenBudgetsGoUnused) {
  // Queries complete every tick with zero inconsistency on an idle system:
  // the loop should walk the scale down to 0, admitting later queries at
  // the declared min — 1SR "for free".
  auto config = Config(Method::kOrdup);
  config.admission.enabled = true;
  config.admission.initial_scale = 1.0;
  ReplicatedSystem system(config);
  ASSERT_NE(system.admission(), nullptr);
  for (int i = 0; i < 30; ++i) {
    const EtId q = system.BeginQuery(1, /*epsilon=*/10);
    ASSERT_TRUE(system.TryRead(q, 0).ok());
    ASSERT_TRUE(system.EndQuery(q).ok());
    system.RunFor(AdmissionController::kSampleIntervalUs);
  }
  EXPECT_DOUBLE_EQ(system.admission()->scale(1), 0.0);
  const EtId q = system.BeginQuery(1, QueryBounds{2, 10, 0, kUnboundedEpsilon});
  const QueryState* state = system.query_state(q);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->declared_epsilon, 10);
  EXPECT_EQ(state->epsilon, 2) << "fully tightened: admitted at the min bound";
  ASSERT_TRUE(system.EndQuery(q).ok());
  EXPECT_GT(system.metrics()
                .GetCounter("esr_admission_adjustments_total",
                            {{"site", "1"}, {"direction", "tighten"}})
                .value(),
            0);
}

TEST(AdmissionSystemTest, LoosensTowardDeclaredMaxWhenQueriesBlock) {
  // COMMU with a zero effective budget blocks on any in-progress update;
  // the controller must observe the blocked attempts and hand back the
  // declared headroom.
  auto config = Config(Method::kCommu);
  config.network.base_latency_us = 20'000;  // long stability lag
  config.admission.enabled = true;
  config.admission.initial_scale = 0.0;  // start fully tight
  ReplicatedSystem system(config);
  ASSERT_NE(system.admission(), nullptr);

  // Put an update in flight first so the lock-counters at site 1 are hot
  // when the query's read arrives.
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunFor(25'000);  // MSet delivered at site 1, stability still out
  const EtId q = system.BeginQuery(1, QueryBounds{0, 8, 0, kUnboundedEpsilon});
  ASSERT_EQ(system.query_state(q)->epsilon, 0);
  bool done = false;
  system.Read(q, 0, [&](Result<Value> v) {
    EXPECT_TRUE(v.ok());
    done = true;
  });
  // A steady update stream keeps the counters nonzero; the epsilon-0 query
  // stays blocked and its retry attempts feed the controller.
  for (int i = 0; i < 40; ++i) {
    MustSubmit(system, 0, {Operation::Increment(0, 1)});
    system.RunFor(5'000);
  }
  EXPECT_GT(system.admission()->scale(1), 0.0)
      << "blocked attempts must loosen the scale";
  // A query admitted now gets (some of) the declared headroom back.
  const EtId q2 = system.BeginQuery(1, QueryBounds{0, 8, 0, kUnboundedEpsilon});
  EXPECT_GT(system.query_state(q2)->epsilon, 0);
  EXPECT_LE(system.query_state(q2)->epsilon, 8);
  ASSERT_TRUE(system.EndQuery(q2).ok());
  system.RunUntilQuiescent();
  EXPECT_TRUE(done) << "the blocked query completes once counters drain";
  ASSERT_TRUE(system.EndQuery(q).ok());
  EXPECT_GT(system.metrics()
                .GetCounter("esr_admission_adjustments_total",
                            {{"site", "1"}, {"direction", "loosen"}})
                .value(),
            0);
}

TEST(AdmissionSystemTest, SamplingSurvivesQuiescenceDrain) {
  // RunUntilQuiescent() silences the sampling timer so the event queue can
  // drain, then restarts it; the controller must keep ticking afterwards.
  auto config = Config(Method::kOrdup);
  config.admission.enabled = true;
  ReplicatedSystem system(config);
  system.RunFor(100'000);
  const int64_t before = system.admission()->ticks();
  EXPECT_GT(before, 0);
  system.RunUntilQuiescent();
  system.RunFor(100'000);
  EXPECT_GT(system.admission()->ticks(), before)
      << "sampling must resume after quiescence";
}

}  // namespace
}  // namespace esr::core
