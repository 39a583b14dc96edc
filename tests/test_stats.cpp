#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace bacp::common {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, SingleValue) {
  StreamingStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, KnownMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(GeometricMean, KnownValues) {
  const double v1[] = {4.0, 9.0};
  EXPECT_NEAR(geometric_mean(v1), 6.0, 1e-12);
  const double v2[] = {1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(geometric_mean(v2), 1.0);
  const double v3[] = {2.0, 8.0};
  EXPECT_NEAR(geometric_mean(v3), 4.0, 1e-12);
}

TEST(GeometricMean, LessThanArithmeticForSpreadValues) {
  const double v[] = {1.0, 100.0};
  EXPECT_LT(geometric_mean(v), arithmetic_mean(v));
}

TEST(ArithmeticMean, KnownValue) {
  const double v[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(arithmetic_mean(v), 2.5);
}

TEST(Percentile, Endpoints) {
  const double v[] = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.0);
}

TEST(Percentile, Interpolates) {
  const double v[] = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 75.0), 7.5);
}

TEST(Percentile, SingleElement) {
  const double v[] = {42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 13.0), 42.0);
}

// Reference values computed with numpy.percentile (linear / R-7 method).
TEST(Percentile, MatchesNumpyLinearReferences) {
  const double v[] = {1.0, 2.0, 3.0, 4.0};
  struct Case {
    double p;
    double expected;
  };
  const Case cases[] = {
      {0.0, 1.0},  {25.0, 1.75}, {50.0, 2.5},
      {75.0, 3.25}, {99.0, 3.97}, {100.0, 4.0},
  };
  for (const Case& c : cases) {
    EXPECT_NEAR(percentile(v, c.p), c.expected, 1e-12) << "p=" << c.p;
  }
  const double pair[] = {10.0, 20.0};
  EXPECT_NEAR(percentile(pair, 1.0), 10.1, 1e-12);
  EXPECT_NEAR(percentile(pair, 99.0), 19.9, 1e-12);
}

TEST(Percentile, UnsortedInputMatchesSorted) {
  const double shuffled[] = {4.0, 1.0, 3.0, 2.0};
  const double sorted[] = {1.0, 2.0, 3.0, 4.0};
  for (double p : {0.0, 13.0, 25.0, 50.0, 77.7, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile(shuffled, p), percentile_sorted(sorted, p));
  }
}

TEST(Percentile, NearlyHundredStaysInRange) {
  // p/100 * (n-1) can overshoot n-1 by an ulp; the rank clamp keeps the
  // result inside [min, max] instead of reading past the array.
  std::vector<double> v;
  for (int i = 0; i < 17; ++i) v.push_back(static_cast<double>(i));
  const double near_max = percentile(v, 99.9999999999999);
  EXPECT_GT(near_max, 15.0);
  EXPECT_LE(near_max, 16.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 16.0);
}

TEST(WeightedMeanCi, HandComputedCase) {
  // Strata: value 1 with weight 1, value 3 with weight 3.
  // mean = (1 + 9) / 4 = 2.5; W = 4, W2 = 10, denom = 4 - 10/4 = 1.5;
  // s^2 = (1*(1-2.5)^2 + 3*(3-2.5)^2) / 1.5 = (2.25 + 0.75) / 1.5 = 2;
  // SE = sqrt(2 * 10) / 4 = sqrt(20)/4.
  const double values[] = {1.0, 3.0};
  const double weights[] = {1.0, 3.0};
  const WeightedMeanCi ci = weighted_mean_ci(values, weights);
  EXPECT_DOUBLE_EQ(ci.mean, 2.5);
  EXPECT_DOUBLE_EQ(ci.weight_total, 4.0);
  EXPECT_NEAR(ci.std_error, std::sqrt(20.0) / 4.0, 1e-12);
  EXPECT_NEAR(ci.ci_half, 1.96 * ci.std_error, 1e-12);
  EXPECT_DOUBLE_EQ(ci.ci_low(), ci.mean - ci.ci_half);
  EXPECT_DOUBLE_EQ(ci.ci_high(), ci.mean + ci.ci_half);
}

TEST(WeightedMeanCi, InvariantUnderWeightScaling) {
  const double values[] = {0.2, 0.5, 0.9, 0.4};
  const double weights[] = {2.0, 7.0, 1.0, 6.0};
  const double scaled[] = {20.0, 70.0, 10.0, 60.0};
  const WeightedMeanCi a = weighted_mean_ci(values, weights);
  const WeightedMeanCi b = weighted_mean_ci(values, scaled);
  EXPECT_NEAR(a.mean, b.mean, 1e-12);
  EXPECT_NEAR(a.std_error, b.std_error, 1e-12);
  EXPECT_NEAR(a.ci_half, b.ci_half, 1e-12);
}

TEST(WeightedMeanCi, SingleStratumDegeneratesToZeroWidth) {
  const double values[] = {0.7};
  const double weights[] = {5.0};
  const WeightedMeanCi ci = weighted_mean_ci(values, weights);
  EXPECT_DOUBLE_EQ(ci.mean, 0.7);
  EXPECT_DOUBLE_EQ(ci.std_error, 0.0);
  EXPECT_DOUBLE_EQ(ci.ci_half, 0.0);
}

TEST(WeightedMeanCi, AllWeightOnOneValueDegeneratesToZeroWidth) {
  const double values[] = {0.7, 0.1};
  const double weights[] = {5.0, 0.0};
  const WeightedMeanCi ci = weighted_mean_ci(values, weights);
  EXPECT_DOUBLE_EQ(ci.mean, 0.7);
  EXPECT_DOUBLE_EQ(ci.std_error, 0.0);
}

TEST(WeightedMeanCi, EqualWeightsMatchUnweightedStats) {
  const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const double weights[] = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const WeightedMeanCi ci = weighted_mean_ci(values, weights, /*z=*/1.0);
  EXPECT_DOUBLE_EQ(ci.mean, 5.0);
  // Equal weights reduce to the classic SE = s / sqrt(n).
  const double s = std::sqrt(32.0 / 7.0);
  EXPECT_NEAR(ci.std_error, s / std::sqrt(8.0), 1e-12);
  EXPECT_NEAR(ci.ci_half, ci.std_error, 1e-12);
}

TEST(Ratio, FallbackOnZeroDenominator) {
  EXPECT_DOUBLE_EQ(ratio(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ratio(6.0, 3.0), 2.0);
}

}  // namespace
}  // namespace bacp::common
