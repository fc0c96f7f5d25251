#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace drs::util {
namespace {

TEST(RunningStats, EmptyIsNeutral) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesNaiveComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_NEAR(s.sum(), 31.0, 1e-12);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(Histogram, BucketBoundariesAndCounts) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bucket 0
  h.add(1.99);  // bucket 0
  h.add(2.0);   // bucket 1
  h.add(9.99);  // bucket 4
  h.add(10.0);  // overflow (hi is exclusive)
  h.add(-0.1);  // underflow
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 4.0);
}

TEST(Histogram, QuantilesOfUniformData) {
  Histogram h(0.0, 1.0, 100);
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) h.add(rng.next_double());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(h.quantile(0.1), 0.1, 0.02);
}

TEST(Wilson, ZeroTrialsIsVacuous) {
  const Interval i = wilson_interval(0, 0);
  EXPECT_EQ(i.lo, 0.0);
  EXPECT_EQ(i.hi, 1.0);
}

TEST(Wilson, ExtremesStayInUnitInterval) {
  const Interval all = wilson_interval(100, 100);
  EXPECT_GT(all.lo, 0.9);
  EXPECT_LE(all.hi, 1.0);
  const Interval none = wilson_interval(0, 100);
  EXPECT_GE(none.lo, 0.0);
  EXPECT_LT(none.hi, 0.1);
}

TEST(Wilson, ContainsTrueProportionForFairCoin) {
  // 500/1000 at 95 %: p=0.5 must be inside, and the width ~ 2*1.96*0.0158.
  const Interval i = wilson_interval(500, 1000);
  EXPECT_TRUE(i.contains(0.5));
  EXPECT_NEAR(i.width(), 0.062, 0.004);
}

TEST(Wilson, HigherConfidenceIsWider) {
  const Interval i95 = wilson_interval(30, 100, 1.96);
  const Interval i99 = wilson_interval(30, 100, 2.576);
  EXPECT_GT(i99.width(), i95.width());
  EXPECT_TRUE(i99.contains(0.3));
}

}  // namespace
}  // namespace drs::util
