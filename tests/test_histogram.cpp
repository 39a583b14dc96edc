#include "common/histogram.hpp"

#include <gtest/gtest.h>

namespace bacp::common {
namespace {

TEST(Histogram, StartsEmpty) {
  Histogram h(4);
  EXPECT_EQ(h.num_bins(), 4u);
  EXPECT_EQ(h.total(), 0u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(h.bin(i), 0u);
}

TEST(Histogram, IncrementTracksTotals) {
  Histogram h(3);
  h.increment(0);
  h.increment(1, 5);
  h.increment(1);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(1), 6u);
  EXPECT_EQ(h.bin(2), 0u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, DecayHalvesEveryBin) {
  Histogram h(3);
  h.increment(0, 8);
  h.increment(1, 5);
  h.increment(2, 1);
  h.decay_halve();
  EXPECT_EQ(h.bin(0), 4u);
  EXPECT_EQ(h.bin(1), 2u);  // floor(5/2)
  EXPECT_EQ(h.bin(2), 0u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(Histogram, RepeatedDecayReachesZero) {
  Histogram h(1);
  h.increment(0, 1000);
  for (int i = 0; i < 11; ++i) h.decay_halve();
  EXPECT_EQ(h.total(), 0u);
}

TEST(Histogram, ClearResets) {
  Histogram h(2);
  h.increment(0, 10);
  h.clear();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.bin(0), 0u);
  EXPECT_EQ(h.num_bins(), 2u);
}

TEST(Histogram, NormalizedSumsToOne) {
  Histogram h(4);
  h.increment(0, 1);
  h.increment(2, 3);
  const auto n = h.normalized();
  EXPECT_DOUBLE_EQ(n[0], 0.25);
  EXPECT_DOUBLE_EQ(n[1], 0.0);
  EXPECT_DOUBLE_EQ(n[2], 0.75);
  double sum = 0.0;
  for (double x : n) sum += x;
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(Histogram, NormalizedOfEmptyIsZeros) {
  Histogram h(3);
  for (double x : h.normalized()) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Histogram, BinsSpanAccess) {
  Histogram h(3);
  h.increment(1, 9);
  const auto view = h.bins();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[1], 9u);
}

}  // namespace
}  // namespace bacp::common
