#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace esr {
namespace {

TEST(SummaryTest, EmptySummaryIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0);
  EXPECT_EQ(s.min(), 0);
  EXPECT_EQ(s.max(), 0);
  EXPECT_EQ(s.Percentile(50), 0);
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(SummaryTest, PercentilesNearestRank) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 99);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1);  // rank 0 clamps to first
}

TEST(SummaryTest, PercentileAfterInterleavedAdds) {
  Summary s;
  s.Add(5);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 5);
  s.Add(1);
  s.Add(9);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 5);
  EXPECT_DOUBLE_EQ(s.max(), 9);
}

TEST(SummaryTest, InterleavedAddPercentileMatchesFullSort) {
  // Regression for the sorted-prefix incremental Percentile: interleaving
  // Adds with Percentile reads must give the same answers as sorting the
  // whole sample set from scratch every time.
  Summary s;
  std::vector<double> all;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double v = static_cast<double>(rng.Uniform(0, 10'000));
    s.Add(v);
    all.push_back(v);
    if (i % 7 == 0) {
      std::vector<double> sorted = all;
      std::sort(sorted.begin(), sorted.end());
      for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
        // Nearest-rank definition, matching Summary::Percentile.
        const size_t rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
        EXPECT_DOUBLE_EQ(s.Percentile(p), sorted[rank == 0 ? 0 : rank - 1])
            << "p" << p << " after " << all.size() << " adds";
      }
      EXPECT_DOUBLE_EQ(s.min(), sorted.front());
      EXPECT_DOUBLE_EQ(s.max(), sorted.back());
    }
  }
}

TEST(SummaryTest, ToStringMentionsCount) {
  Summary s;
  s.Add(1);
  EXPECT_NE(s.ToString().find("n=1"), std::string::npos);
}

}  // namespace
}  // namespace esr
