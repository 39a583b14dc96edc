#include "partition/unrestricted.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "msa/miss_curve.hpp"
#include "partition/marginal_utility.hpp"
#include "trace/mix.hpp"
#include "trace/spec2000.hpp"

namespace bacp::partition {
namespace {

CmpGeometry small_geometry() {
  CmpGeometry g;
  g.num_cores = 2;
  g.num_banks = 4;
  g.ways_per_bank = 4;  // total 16 ways
  return g;
}

msa::MissRatioCurve flat() { return msa::MissRatioCurve({0, 0, 0, 0}, 10); }

TEST(Unrestricted, CoversTheWholeCache) {
  const auto geometry = small_geometry();
  std::vector<msa::MissRatioCurve> curves{flat(), flat()};
  const auto allocation = unrestricted_partition(geometry, curves);
  EXPECT_EQ(allocation.total(), geometry.total_ways());
}

TEST(Unrestricted, RespectsMinimumWays) {
  const auto geometry = small_geometry();
  // Core 1's curve is insatiable; core 0 still keeps its minimum.
  std::vector<msa::MissRatioCurve> curves{
      flat(), msa::MissRatioCurve(std::vector<double>(16, 100.0), 0)};
  UnrestrictedConfig config;
  config.min_ways_per_core = 2;
  const auto allocation = unrestricted_partition(geometry, curves, config);
  EXPECT_GE(allocation.ways_per_core[0], 2u);
  EXPECT_EQ(allocation.total(), 16u);
}

TEST(Unrestricted, RespectsMaximumCap) {
  const auto geometry = small_geometry();
  std::vector<msa::MissRatioCurve> curves{
      flat(), msa::MissRatioCurve(std::vector<double>(16, 100.0), 0)};
  UnrestrictedConfig config;
  config.max_ways_per_core = 10;
  const auto allocation = unrestricted_partition(geometry, curves, config);
  EXPECT_LE(allocation.ways_per_core[1], 10u);
  EXPECT_EQ(allocation.total(), 16u);
}

TEST(Unrestricted, GreedyFindsTheObviousSplit) {
  const auto geometry = small_geometry();
  // Core 0 benefits hugely from 12 ways; core 1 from 4.
  std::vector<double> hits0(16, 0.0), hits1(16, 0.0);
  for (int i = 0; i < 12; ++i) hits0[static_cast<std::size_t>(i)] = 10.0;
  for (int i = 0; i < 4; ++i) hits1[static_cast<std::size_t>(i)] = 9.0;
  std::vector<msa::MissRatioCurve> curves{msa::MissRatioCurve(hits0, 1),
                                          msa::MissRatioCurve(hits1, 1)};
  const auto allocation = unrestricted_partition(geometry, curves);
  EXPECT_EQ(allocation.ways_per_core[0], 12u);
  EXPECT_EQ(allocation.ways_per_core[1], 4u);
}

TEST(Unrestricted, LookaheadServesCliffCurves) {
  const auto geometry = small_geometry();
  // Core 0: loop needing exactly 10 ways (zero benefit below).
  std::vector<double> hits0(16, 0.0);
  hits0[9] = 100.0;
  std::vector<double> hits1(16, 1.0);  // gentle slope
  std::vector<msa::MissRatioCurve> curves{msa::MissRatioCurve(hits0, 1),
                                          msa::MissRatioCurve(hits1, 1)};
  const auto allocation = unrestricted_partition(geometry, curves);
  EXPECT_GE(allocation.ways_per_core[0], 10u);
}

TEST(Unrestricted, NeverWorseThanEvenShareOnSuiteMixes) {
  CmpGeometry geometry;  // full 8-core, 128-way
  const auto& suite = trace::spec2000_suite();
  common::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const auto mix = trace::random_mix(rng, suite.size(), geometry.num_cores);
    std::vector<msa::MissRatioCurve> curves;
    std::vector<WayCount> even(geometry.num_cores, 16);
    for (const auto index : mix.workload_indices) {
      const auto& model = suite[index];
      curves.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
    }
    const auto allocation = unrestricted_partition(geometry, curves);
    const double optimized =
        projected_total_misses(curves, allocation.ways_per_core);
    const double baseline = projected_total_misses(curves, even);
    EXPECT_LE(optimized, baseline * 1.0001) << "trial " << trial;
  }
}

TEST(Unrestricted, DeterministicAcrossCalls) {
  CmpGeometry geometry;
  const auto& suite = trace::spec2000_suite();
  std::vector<msa::MissRatioCurve> curves;
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    const auto& model = suite[core];
    curves.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
  }
  const auto a = unrestricted_partition(geometry, curves);
  const auto b = unrestricted_partition(geometry, curves);
  EXPECT_EQ(a.ways_per_core, b.ways_per_core);
}

TEST(Unrestricted, IdenticalFlatCurvesSplitEvenly) {
  const auto geometry = small_geometry();
  std::vector<msa::MissRatioCurve> curves{flat(), flat()};
  const auto allocation = unrestricted_partition(geometry, curves);
  EXPECT_EQ(allocation.ways_per_core[0], 8u);
  EXPECT_EQ(allocation.ways_per_core[1], 8u);
}

/// The direct greedy the cached lookahead tables stand in for: every round
/// rescans max_marginal_utility over each core's full headroom, with the
/// same tie-breaks (higher utility, then more current misses, then the
/// lower core id) and the same round-robin spread once every curve is flat.
Allocation direct_greedy(const CmpGeometry& geometry,
                         const std::vector<msa::MissRatioCurve>& curves,
                         const UnrestrictedConfig& config) {
  const WayCount total = geometry.total_ways();
  const WayCount cap = config.max_ways_per_core == 0 ? total : config.max_ways_per_core;
  Allocation allocation;
  allocation.ways_per_core.assign(geometry.num_cores, config.min_ways_per_core);
  WayCount balance = total - config.min_ways_per_core * geometry.num_cores;
  while (balance > 0) {
    CoreId winner = kInvalidCore;
    MaxMarginalUtility winner_mu;
    double winner_misses = -1.0;
    for (CoreId core = 0; core < geometry.num_cores; ++core) {
      const WayCount current = allocation.ways_per_core[core];
      const WayCount headroom = std::min<WayCount>(cap - current, balance);
      if (headroom == 0) continue;
      const auto mu = max_marginal_utility(curves[core], current, headroom);
      if (mu.extra == 0) continue;
      const double misses = curves[core].miss_count(current);
      if (winner == kInvalidCore || mu.utility > winner_mu.utility ||
          (mu.utility == winner_mu.utility && misses > winner_misses)) {
        winner = core;
        winner_mu = mu;
        winner_misses = misses;
      }
    }
    if (winner == kInvalidCore) {
      for (CoreId core = 0; core < geometry.num_cores && balance > 0; ++core) {
        if (allocation.ways_per_core[core] < cap) {
          ++allocation.ways_per_core[core];
          --balance;
        }
      }
      continue;
    }
    allocation.ways_per_core[winner] += winner_mu.extra;
    balance -= winner_mu.extra;
  }
  return allocation;
}

/// Random curve `depth` ways deep (0 gives an empty curve). Per-depth hits
/// mix zeros, small integers and arbitrary doubles, so flat stretches,
/// cliffs and exact utility ties all show up.
msa::MissRatioCurve random_curve(common::Rng& rng, WayCount depth) {
  std::vector<double> hits(depth);
  for (double& h : hits) {
    switch (rng.next_below(3)) {
      case 0: h = 0.0; break;
      case 1: h = static_cast<double>(rng.next_below(4)); break;
      default: h = rng.next_double() * 100.0; break;
    }
  }
  return msa::MissRatioCurve(std::move(hits), static_cast<double>(rng.next_below(50)));
}

TEST(Unrestricted, MatchesDirectMaxMarginalUtilityGreedy) {
  struct Shape {
    std::uint32_t cores, banks;
    WayCount ways_per_bank;
    int trials;
  };
  common::Rng rng(0x0C4E);
  for (const Shape shape : {Shape{2, 4, 4, 300}, Shape{4, 8, 4, 200}, Shape{8, 16, 8, 40}}) {
    CmpGeometry geometry;
    geometry.num_cores = shape.cores;
    geometry.num_banks = shape.banks;
    geometry.ways_per_bank = shape.ways_per_bank;
    const WayCount total = geometry.total_ways();
    const WayCount fair_share = total / shape.cores;
    for (int trial = 0; trial < shape.trials; ++trial) {
      UnrestrictedConfig config;
      config.min_ways_per_core = static_cast<WayCount>(rng.next_below(fair_share + 1));
      // Cap 0 (none) or anywhere from the fair share up to the whole cache.
      if (rng.next_below(2) == 0) {
        config.max_ways_per_core =
            fair_share + static_cast<WayCount>(rng.next_below(total - fair_share + 1));
      }
      const WayCount cap =
          config.max_ways_per_core == 0 ? total : config.max_ways_per_core;
      // Every other trial keeps the curves shallower than the cap, so the
      // lookahead runs past the deepest profiled way.
      const WayCount max_depth = trial % 2 == 0 ? cap / 2 : total + 8;
      std::vector<msa::MissRatioCurve> curves;
      for (std::uint32_t core = 0; core < shape.cores; ++core) {
        curves.push_back(
            random_curve(rng, static_cast<WayCount>(rng.next_below(max_depth + 1))));
      }
      const auto expected = direct_greedy(geometry, curves, config);
      ASSERT_EQ(unrestricted_partition(geometry, curves, config).ways_per_core,
                expected.ways_per_core)
          << shape.cores << " cores, trial " << trial;
      std::vector<const msa::MissRatioCurve*> views;
      for (const auto& curve : curves) views.push_back(&curve);
      ASSERT_EQ(unrestricted_partition(
                    geometry, std::span<const msa::MissRatioCurve* const>(views), config)
                    .ways_per_core,
                expected.ways_per_core)
          << shape.cores << " cores, trial " << trial << " (pointer view)";
    }
  }

  // The Monte-Carlo sweep's own inputs: mixes of the 26-curve suite bank,
  // drawn per trial as run_monte_carlo draws them.
  const CmpGeometry geometry;
  const auto& suite = trace::spec2000_suite();
  std::vector<msa::MissRatioCurve> bank;
  for (const auto& model : suite) {
    bank.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
  }
  for (const std::uint64_t seed : {2009ULL, 7ULL}) {
    for (std::uint64_t trial = 0; trial < 2000; ++trial) {
      common::Rng mix_rng(seed, trial);
      const auto mix = trace::random_mix(mix_rng, bank.size(), geometry.num_cores);
      std::vector<msa::MissRatioCurve> curves;
      std::vector<const msa::MissRatioCurve*> views;
      for (const auto index : mix.workload_indices) {
        curves.push_back(bank[index]);
        views.push_back(&bank[index]);
      }
      const auto expected = direct_greedy(geometry, curves, {});
      ASSERT_EQ(unrestricted_partition(geometry, curves).ways_per_core,
                expected.ways_per_core)
          << "seed " << seed << ", mix " << trial;
      ASSERT_EQ(unrestricted_partition(
                    geometry, std::span<const msa::MissRatioCurve* const>(views))
                    .ways_per_core,
                expected.ways_per_core)
          << "seed " << seed << ", mix " << trial << " (pointer view)";
    }
  }
}

// Fixed cases for the lookahead's early stop: each pins a shape where a
// wrong bound, tie rule or record lookup changes the allocation.

void expect_matches_direct(const CmpGeometry& geometry,
                           const std::vector<msa::MissRatioCurve>& curves,
                           const UnrestrictedConfig& config = {}) {
  EXPECT_EQ(unrestricted_partition(geometry, curves, config).ways_per_core,
            direct_greedy(geometry, curves, config).ways_per_core);
}

/// Gentle curve: `ways` equally useful ways, then nothing.
msa::MissRatioCurve slope(WayCount ways, double hits_per_way) {
  return msa::MissRatioCurve(std::vector<double>(ways, hits_per_way), 5.0);
}

TEST(Unrestricted, LateCliffAfterFlatWaysMatchesDirect) {
  // Core 0 gains nothing for 90 ways, then everything: every lane before
  // the cliff removes zero misses, so only a bound on the misses still
  // removable past the current allocation may stop its scan.
  const CmpGeometry geometry;
  std::vector<double> hits(128, 0.0);
  hits[90] = 1000.0;
  std::vector<msa::MissRatioCurve> curves{msa::MissRatioCurve(hits, 10.0)};
  for (CoreId core = 1; core < geometry.num_cores; ++core) {
    curves.push_back(slope(16, 1.0 + core));
  }
  expect_matches_direct(geometry, curves);
  EXPECT_EQ(unrestricted_partition(geometry, curves).ways_per_core[0], 91u);
}

TEST(Unrestricted, CurveShallowerThanHeadroomMatchesDirect) {
  // Core 0's curve ends after 4 ways while 14 are up for grabs; its best
  // lane is n = 3. Core 1 takes one way per round while the balance
  // shrinks under core 0's unchanged allocation, so core 0's later rounds
  // must read the best lane within the shrunken headroom.
  CmpGeometry geometry;
  geometry.num_cores = 2;
  geometry.num_banks = 4;
  geometry.ways_per_bank = 4;
  const msa::MissRatioCurve shallow({0.0, 1.0, 0.0, 5.0}, 3.0);

  // The balance reaches exactly 3 when core 1's utility drops below core
  // 0's: the record at n == headroom must still win.
  std::vector<double> hits(16, 1.5);
  hits[0] = 0.0;
  std::fill(hits.begin() + 1, hits.begin() + 12, 3.0);
  std::vector<msa::MissRatioCurve> curves{shallow, msa::MissRatioCurve(hits, 1.0)};
  expect_matches_direct(geometry, curves);
  EXPECT_EQ(unrestricted_partition(geometry, curves).ways_per_core,
            (std::vector<WayCount>{4, 12}));

  // The balance falls to 2, below that record: the round must fall back
  // to the best lane within the headroom (n = 1) instead.
  hits.assign(13, 3.0);
  hits[0] = 0.0;
  curves[1] = msa::MissRatioCurve(hits, 1.0);
  expect_matches_direct(geometry, curves);
  EXPECT_EQ(unrestricted_partition(geometry, curves).ways_per_core,
            (std::vector<WayCount>{3, 13}));
}

TEST(Unrestricted, AllFlatCurvesSpreadRoundRobinMatchesDirect) {
  // No lane removes a miss anywhere, so every scan stops at its first lane
  // and the ways are spread round-robin.
  const CmpGeometry geometry;
  std::vector<msa::MissRatioCurve> curves;
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    curves.emplace_back(std::vector<double>(core * 8, 0.0), 7.0);
  }
  expect_matches_direct(geometry, curves);
  EXPECT_EQ(unrestricted_partition(geometry, curves).ways_per_core,
            std::vector<WayCount>(geometry.num_cores, 16));
}

TEST(Unrestricted, ZeroMinimumWaysMatchesDirect) {
  // With no minimum, scans start at zero ways, where miss_count is the
  // curve's total rather than a prefix read.
  const CmpGeometry geometry;
  UnrestrictedConfig config;
  config.min_ways_per_core = 0;
  std::vector<msa::MissRatioCurve> curves;
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    std::vector<double> hits(4 + 8 * core, 0.0);
    hits.back() = 10.0 * (core + 1);
    hits.front() = 1.0;
    curves.emplace_back(std::move(hits), 2.0);
  }
  expect_matches_direct(geometry, curves, config);
  config.max_ways_per_core = 24;
  expect_matches_direct(geometry, curves, config);
}

TEST(Unrestricted, EqualUtilityLanesPreferSmallestIncrement) {
  // Core 0's lanes 1 and 3 both remove 3 misses per way. The first (n = 1)
  // must win, which hands the tie with core 1 in the next round to core 1
  // (more current misses); taking n = 3 at once would starve core 1.
  CmpGeometry geometry;
  geometry.num_cores = 2;
  geometry.num_banks = 5;
  geometry.ways_per_bank = 1;
  const std::vector<msa::MissRatioCurve> curves{
      msa::MissRatioCurve({0.0, 3.0, 0.0, 6.0, 0.0, 1.0}, 10.0),
      msa::MissRatioCurve({0.0, 3.0}, 16.0)};
  expect_matches_direct(geometry, curves);
  EXPECT_EQ(unrestricted_partition(geometry, curves).ways_per_core,
            (std::vector<WayCount>{3, 2}));
}

}  // namespace
}  // namespace bacp::partition
