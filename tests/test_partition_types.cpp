#include "partition/partition_types.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "partition/static_policies.hpp"

namespace bacp::partition {
namespace {

TEST(Allocation, TotalSumsWays) {
  Allocation allocation;
  allocation.ways_per_core = {8, 16, 24, 80};
  EXPECT_EQ(allocation.total(), 128u);
  EXPECT_EQ(Allocation{}.total(), 0u);
}

TEST(BankAssignment, WaysOfCoreCountsAcrossBanks) {
  CmpGeometry geometry;
  const auto plan = equal_partition(geometry);
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    EXPECT_EQ(plan.assignment.ways_of_core(core), 16u);
  }
}

TEST(BankAssignment, SharedWaysCountForEveryHolder) {
  BankAssignment assignment;
  assignment.way_masks = {{core_bit(0) | core_bit(1), core_bit(0)}};
  EXPECT_EQ(assignment.ways_of_core(0), 2u);
  EXPECT_EQ(assignment.ways_of_core(1), 1u);
  EXPECT_EQ(assignment.ways_of_core(2), 0u);
}

TEST(ProjectedTotalMisses, SumsPerCoreProjections) {
  std::vector<msa::MissRatioCurve> curves;
  curves.emplace_back(std::vector<double>{10.0, 5.0}, 5.0);  // total 20
  curves.emplace_back(std::vector<double>{4.0, 4.0}, 2.0);   // total 10
  const std::vector<WayCount> ways{1, 2};
  // core 0 at 1 way: 20 - 10 = 10; core 1 at 2 ways: 10 - 8 = 2.
  EXPECT_DOUBLE_EQ(projected_total_misses(curves, ways), 12.0);
}

/// The projected total is the plain in-order sum of per-core miss_count
/// values, bit for bit, at every length and through both overloads. Empty
/// curves, zero ways and ways past the curve depth all take part.
TEST(ProjectedTotalMisses, EqualsInOrderMissCountSum) {
  common::Rng rng(0x9A71);
  for (const std::size_t count : {1u, 63u, 64u, 65u, 130u}) {
    std::vector<msa::MissRatioCurve> curves;
    std::vector<WayCount> ways;
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<double> hits(rng.next_below(20));
      for (double& h : hits) h = rng.next_double() * 1000.0;
      curves.emplace_back(std::move(hits), rng.next_double() * 500.0);
      ways.push_back(static_cast<WayCount>(rng.next_below(24)));
    }
    double expected = 0.0;
    std::vector<const msa::MissRatioCurve*> views;
    for (std::size_t i = 0; i < count; ++i) {
      expected += curves[i].miss_count(ways[i]);
      views.push_back(&curves[i]);
    }
    EXPECT_EQ(projected_total_misses(curves, ways), expected) << count;
    EXPECT_EQ(projected_total_misses(std::span<const msa::MissRatioCurve* const>(views),
                                     ways),
              expected)
        << count;
  }
}

TEST(CmpGeometry, CustomShapesValidate) {
  CmpGeometry geometry;
  geometry.num_cores = 4;
  geometry.num_banks = 8;
  geometry.ways_per_bank = 4;
  geometry.validate();
  EXPECT_EQ(geometry.total_ways(), 32u);
  EXPECT_EQ(geometry.max_assignable_ways(), 18u);
  EXPECT_EQ(geometry.num_center_banks(), 4u);
}

TEST(Types, Pow2AndLog2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2048));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2048), 11u);
  EXPECT_EQ(log2_floor(72), 6u);  // the Table II pointer width
  EXPECT_EQ(log2_floor(1ull << 63), 63u);
  EXPECT_EQ(log2_floor(~0ull), 63u);
  EXPECT_EQ(ceil_div(7, 3), 3u);
  EXPECT_EQ(ceil_div(6, 3), 2u);
}

TEST(Types, CoreBitMasks) {
  EXPECT_EQ(core_bit(0), 1u);
  EXPECT_EQ(core_bit(5), 32u);
  EXPECT_EQ(core_bit(3) | core_bit(4), 24u);
}

}  // namespace
}  // namespace bacp::partition
