#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/metric_registry.h"
#include "test_util.h"

namespace esr::obs {
namespace {

using test::ValidatePrometheusExposition;

TEST(P2QuantileTest, ExactForSmallSampleSets) {
  P2Quantile median(0.5);
  EXPECT_TRUE(std::isnan(median.Value())) << "no samples yet";
  median.Observe(10);
  EXPECT_DOUBLE_EQ(median.Value(), 10);
  median.Observe(30);
  median.Observe(20);
  // Three samples: the exact median is the middle order statistic.
  EXPECT_DOUBLE_EQ(median.Value(), 20);
}

TEST(P2QuantileTest, ExactOrderStatisticsBeforeFiveSamples) {
  // Samples arrive out of order; each estimate is the ceil(q * n)-th
  // smallest of the n samples so far.
  P2Quantile low(0.01), median(0.5), high(0.99);
  const double samples[] = {4, 3, 1, 2};
  const double want_low[] = {4, 3, 1, 1};
  const double want_median[] = {4, 3, 3, 2};
  const double want_high[] = {4, 4, 4, 4};
  for (int i = 0; i < 4; ++i) {
    low.Observe(samples[i]);
    median.Observe(samples[i]);
    high.Observe(samples[i]);
    EXPECT_DOUBLE_EQ(low.Value(), want_low[i]) << i;
    EXPECT_DOUBLE_EQ(median.Value(), want_median[i]) << i;
    EXPECT_DOUBLE_EQ(high.Value(), want_high[i]) << i;
  }
}

TEST(P2QuantileTest, TracksExactPercentilesOnSeededStreams) {
  // The regression the satellite asks for: P² estimates vs the exact
  // Summary percentiles on seeded pseudo-random data. P² error bounds are
  // distribution-dependent; for these smooth unimodal streams a 5% relative
  // corridor (widened by a small absolute floor near zero) is comfortably
  // loose while still catching marker-update bugs, which typically produce
  // order-of-magnitude drift.
  struct Stream {
    const char* name;
    bool exponential;
  };
  const Stream streams[] = {{"uniform", false}, {"exponential", true}};
  const double quantiles[] = {0.5, 0.95, 0.99};
  for (const Stream& stream : streams) {
    for (double q : quantiles) {
      Rng rng(/*seed=*/42);
      P2Quantile estimator(q);
      Summary exact;
      for (int i = 0; i < 20000; ++i) {
        const double v = stream.exponential ? rng.Exponential(1000.0)
                                            : 500.0 + rng.NextDouble() * 9500.0;
        estimator.Observe(v);
        exact.Add(v);
      }
      const double expected = exact.Percentile(q * 100.0);
      const double got = estimator.Value();
      const double tolerance = 0.05 * expected + 1.0;
      EXPECT_NEAR(got, expected, tolerance)
          << stream.name << " q=" << q << " exact=" << expected
          << " p2=" << got;
    }
  }
}

TEST(P2QuantileTest, DeterministicForIdenticalStreams) {
  Rng a_rng(7), b_rng(7);
  P2Quantile a(0.95), b(0.95);
  for (int i = 0; i < 5000; ++i) {
    a.Observe(a_rng.Exponential(250.0));
    b.Observe(b_rng.Exponential(250.0));
  }
  EXPECT_DOUBLE_EQ(a.Value(), b.Value());
  EXPECT_EQ(a.count(), b.count());
}

TEST(HistogramQuantileTest, ExportsQuantileSeriesOncePopulated) {
  MetricRegistry metrics;
  Histogram& h = metrics.GetHistogram("esr_stability_lag_us",
                                      {{"method", "ordup"}});
  // Below five samples the companion family stays silent (the estimate
  // would just be an order statistic of a tiny set).
  h.Observe(100);
  std::string text = metrics.PrometheusText();
  EXPECT_EQ(text.find("esr_stability_lag_us_quantile"), std::string::npos);
  EXPECT_EQ(ValidatePrometheusExposition(text), "");

  for (double v : {200.0, 300.0, 400.0, 500.0, 600.0, 700.0}) h.Observe(v);
  text = metrics.PrometheusText();
  EXPECT_EQ(ValidatePrometheusExposition(text), "");
  EXPECT_NE(
      text.find(
          "esr_stability_lag_us_quantile{method=\"ordup\",quantile=\"0.5\"}"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find(
          "esr_stability_lag_us_quantile{method=\"ordup\",quantile=\"0.95\"}"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "esr_stability_lag_us_quantile{method=\"ordup\",quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE esr_stability_lag_us_quantile gauge"),
            std::string::npos);

  EXPECT_NEAR(h.QuantileValue(0.5), 400.0, 100.0);
  EXPECT_TRUE(std::isnan(h.QuantileValue(0.25))) << "untracked quantile";
}

TEST(HistogramQuantileTest, QuantilesSurviveRegistryMerge) {
  // Merge folds counts and buckets but deliberately not P² marker state
  // (marker positions of different streams cannot be combined). The merged
  // registry's exposition must stay valid either way.
  MetricRegistry a, b;
  Histogram& ha = a.GetHistogram("esr_lag_us");
  Histogram& hb = b.GetHistogram("esr_lag_us");
  for (int i = 1; i <= 10; ++i) {
    ha.Observe(i * 10.0);
    hb.Observe(i * 1000.0);
  }
  a.Merge(b);
  EXPECT_EQ(a.GetHistogram("esr_lag_us").count(), 20);
  EXPECT_EQ(ValidatePrometheusExposition(a.PrometheusText()), "");

  // The bench-harness shape: folding into a fresh registry whose own
  // estimators never saw a sample. count() is 10 there, but the quantile
  // family must stay silent rather than export NaN estimates.
  MetricRegistry fresh;
  fresh.Merge(b);
  EXPECT_EQ(fresh.GetHistogram("esr_lag_us").count(), 10);
  const std::string text = fresh.PrometheusText();
  EXPECT_EQ(text.find("esr_lag_us_quantile"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(ValidatePrometheusExposition(text), "");
}

}  // namespace
}  // namespace esr::obs
