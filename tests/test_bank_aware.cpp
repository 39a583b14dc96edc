#include "partition/bank_aware.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <span>

#include "common/rng.hpp"
#include "partition/marginal_utility.hpp"
#include "trace/mix.hpp"
#include "trace/spec2000.hpp"

namespace bacp::partition {
namespace {

std::vector<msa::MissRatioCurve> curves_for_names(
    const std::vector<std::string>& names) {
  std::vector<msa::MissRatioCurve> curves;
  for (const auto& name : names) {
    const auto& model = trace::spec2000_by_name(name);
    curves.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
  }
  return curves;
}

std::vector<msa::MissRatioCurve> identical_flat_curves(std::size_t n) {
  std::vector<msa::MissRatioCurve> curves;
  for (std::size_t i = 0; i < n; ++i) {
    curves.emplace_back(std::vector<double>(128, 0.0), 1.0);
  }
  return curves;
}

TEST(BankAware, AllocationCoversTheCache) {
  CmpGeometry geometry;
  const auto result = bank_aware_partition(geometry, identical_flat_curves(8));
  EXPECT_EQ(result.allocation.total(), 128u);
}

TEST(BankAware, AssignmentValidatesAgainstAllocation) {
  CmpGeometry geometry;
  const auto curves = curves_for_names({"mcf", "eon", "art", "gcc", "bzip2",
                                        "sixtrack", "facerec", "gzip"});
  const auto result = bank_aware_partition(geometry, curves);
  result.assignment.validate_against(geometry, result.allocation);
}

TEST(BankAware, RuleOneCenterBanksAreWhollyOwned) {
  CmpGeometry geometry;
  const auto curves = curves_for_names({"mcf", "eon", "art", "gcc", "bzip2",
                                        "sixtrack", "facerec", "gzip"});
  const auto result = bank_aware_partition(geometry, curves);
  for (BankId bank = geometry.num_cores; bank < geometry.num_banks; ++bank) {
    const auto& masks = result.assignment.way_masks[bank];
    for (const CoreMask mask : masks) {
      EXPECT_EQ(mask, masks.front()) << "center bank " << bank << " split";
      EXPECT_EQ(std::popcount(mask), 1) << "center bank " << bank << " shared";
    }
  }
}

TEST(BankAware, RuleTwoCenterHoldersOwnTheirFullLocalBank) {
  CmpGeometry geometry;
  const auto curves = curves_for_names({"mcf", "eon", "art", "gcc", "bzip2",
                                        "sixtrack", "facerec", "gzip"});
  const auto result = bank_aware_partition(geometry, curves);
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    if (result.center_banks_of_core[core].empty()) continue;
    const auto& local = result.assignment.way_masks[geometry.local_bank(core)];
    for (const CoreMask mask : local) {
      EXPECT_EQ(mask, core_bit(core))
          << "core " << core << " holds center banks but shares its local bank";
    }
  }
}

TEST(BankAware, RuleThreePairsAreAdjacent) {
  CmpGeometry geometry;
  common::Rng rng(4242);
  const auto& suite = trace::spec2000_suite();
  for (int trial = 0; trial < 100; ++trial) {
    const auto mix = trace::random_mix(rng, suite.size(), geometry.num_cores);
    std::vector<msa::MissRatioCurve> curves;
    for (const auto index : mix.workload_indices) {
      const auto& model = suite[index];
      curves.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
    }
    const auto result = bank_aware_partition(geometry, curves);
    for (const auto& pair : result.pairs) {
      EXPECT_TRUE(geometry.adjacent(pair.first, pair.second))
          << "trial " << trial << ": pair " << pair.first << "," << pair.second;
      EXPECT_EQ(pair.first_ways + pair.second_ways, 2 * geometry.ways_per_bank);
      EXPECT_GE(pair.first_ways, 1u);
      EXPECT_GE(pair.second_ways, 1u);
    }
    result.assignment.validate_against(geometry, result.allocation);
  }
}

TEST(BankAware, CapacityClampAtNineSixteenths) {
  CmpGeometry geometry;
  // One insatiable core against seven tiny ones.
  auto curves = identical_flat_curves(8);
  curves[3] = msa::MissRatioCurve(std::vector<double>(128, 100.0), 0.0).scaled(50.0);
  const auto result = bank_aware_partition(geometry, curves);
  EXPECT_LE(result.allocation.ways_per_core[3], geometry.max_assignable_ways());
  EXPECT_EQ(result.allocation.ways_per_core[3], 72u);  // it should max out
}

TEST(BankAware, IdenticalCurvesYieldEvenBanks) {
  CmpGeometry geometry;
  // Identical appetites spanning two banks each -> everyone ends with 16.
  std::vector<msa::MissRatioCurve> curves;
  for (int i = 0; i < 8; ++i) {
    std::vector<double> hits(128, 0.0);
    for (int d = 0; d < 16; ++d) hits[static_cast<std::size_t>(d)] = 5.0;
    curves.emplace_back(hits, 1.0);
  }
  const auto result = bank_aware_partition(geometry, curves);
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    EXPECT_EQ(result.allocation.ways_per_core[core], 16u) << "core " << core;
  }
}

TEST(BankAware, HungryCoreWinsCenterBanks) {
  CmpGeometry geometry;
  const auto curves = curves_for_names({"eon", "eon", "eon", "facerec", "eon",
                                        "eon", "eon", "eon"});
  const auto result = bank_aware_partition(geometry, curves);
  EXPECT_GE(result.allocation.ways_per_core[3], 48u);
  EXPECT_FALSE(result.center_banks_of_core[3].empty());
}

TEST(BankAware, CenterBanksNearTheirOwner) {
  CmpGeometry geometry;
  const auto curves = curves_for_names({"facerec", "eon", "eon", "eon", "eon",
                                        "eon", "eon", "bzip2"});
  const auto result = bank_aware_partition(geometry, curves);
  // facerec (core 0) receives center banks from the left end of the center
  // row (C8 has column 0); bzip2 (core 7) from the right end.
  ASSERT_FALSE(result.center_banks_of_core[0].empty());
  EXPECT_EQ(result.center_banks_of_core[0].front(), 8u);
  if (!result.center_banks_of_core[7].empty()) {
    EXPECT_EQ(result.center_banks_of_core[7].front(), 15u);
  }
}

TEST(BankAware, LocalBankListedFirstInViews) {
  CmpGeometry geometry;
  const auto curves = curves_for_names({"mcf", "eon", "art", "gcc", "bzip2",
                                        "sixtrack", "facerec", "gzip"});
  const auto result = bank_aware_partition(geometry, curves);
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    const auto& banks = result.assignment.banks_of_core[core];
    ASSERT_FALSE(banks.empty());
    EXPECT_EQ(banks.front(), geometry.local_bank(core)) << "core " << core;
  }
}

TEST(BankAware, ProjectedMissesNeverWorseThanEvenShareByMuch) {
  CmpGeometry geometry;
  common::Rng rng(2718);
  const auto& suite = trace::spec2000_suite();
  int wins = 0;
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto mix = trace::random_mix(rng, suite.size(), geometry.num_cores);
    std::vector<msa::MissRatioCurve> curves;
    for (const auto index : mix.workload_indices) {
      const auto& model = suite[index];
      curves.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
    }
    const auto result = bank_aware_partition(geometry, curves);
    const double bank_aware =
        projected_total_misses(curves, result.allocation.ways_per_core);
    const std::vector<WayCount> even(geometry.num_cores, 16);
    const double fixed = projected_total_misses(curves, even);
    if (bank_aware <= fixed * 1.001) ++wins;
  }
  // The paper's Fig. 7: Bank-aware tracks Unrestricted except outliers; it
  // must beat or match the fixed share in the overwhelming majority.
  EXPECT_GE(wins, kTrials * 8 / 10);
}

TEST(BankAware, DeterministicAcrossCalls) {
  CmpGeometry geometry;
  const auto curves = curves_for_names({"mcf", "eon", "art", "gcc", "bzip2",
                                        "sixtrack", "facerec", "gzip"});
  const auto a = bank_aware_partition(geometry, curves);
  const auto b = bank_aware_partition(geometry, curves);
  EXPECT_EQ(a.allocation.ways_per_core, b.allocation.ways_per_core);
  EXPECT_EQ(a.assignment.way_masks, b.assignment.way_masks);
}

/// The direct capacity phase the production code stands in for: every
/// Center-bank round recomputes each eligible core's max over k of
/// marginal_utility(curve, ways, k * ways_per_bank), and Boxes 4-5 rescan
/// every pending core's max_marginal_utility each iteration. Same
/// tie-breaks as the production code throughout.
BankAwareCapacity direct_capacity(const CmpGeometry& geometry,
                                  const std::vector<msa::MissRatioCurve>& curves) {
  const WayCount bank_ways = geometry.ways_per_bank;
  const WayCount max_ways = geometry.max_assignable_ways();
  BankAwareCapacity result;
  auto& ways = result.allocation.ways_per_core;
  ways.assign(geometry.num_cores, bank_ways);
  auto& center_count = result.center_banks_per_core;
  center_count.assign(geometry.num_cores, 0);

  for (std::uint32_t granted = 0; granted < geometry.num_center_banks(); ++granted) {
    const std::uint32_t banks_left = geometry.num_center_banks() - granted;
    CoreId winner = kInvalidCore;
    double winner_mu = -1.0;
    double winner_misses = -1.0;
    for (CoreId core = 0; core < geometry.num_cores; ++core) {
      if (ways[core] + bank_ways > max_ways) continue;
      const auto headroom_banks =
          std::min<std::uint32_t>(banks_left, (max_ways - ways[core]) / bank_ways);
      double mu = 0.0;
      for (std::uint32_t k = 1; k <= headroom_banks; ++k) {
        mu = std::max(mu, marginal_utility(curves[core], ways[core], k * bank_ways));
      }
      const double misses = curves[core].miss_count(ways[core]);
      if (winner == kInvalidCore || mu > winner_mu ||
          (mu == winner_mu && misses > winner_misses)) {
        winner = core;
        winner_mu = mu;
        winner_misses = misses;
      }
    }
    ways[winner] += bank_ways;
    ++center_count[winner];
  }

  std::vector<bool> complete(geometry.num_cores, false);
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    complete[core] = center_count[core] > 0;
  }
  const auto pair_split = [&](CoreId first, CoreId second) {
    const WayCount pair_ways = 2 * bank_ways;
    const WayCount half = pair_ways / 2;
    WayCount best_ways = half;
    double best_misses = std::numeric_limits<double>::infinity();
    for (WayCount w = 1; w <= pair_ways - 1; ++w) {
      const double misses =
          curves[first].miss_count(w) + curves[second].miss_count(pair_ways - w);
      const WayCount off = w > half ? w - half : half - w;
      const WayCount best_off = best_ways > half ? best_ways - half : half - best_ways;
      if (misses < best_misses || (misses == best_misses && off < best_off)) {
        best_misses = misses;
        best_ways = w;
      }
    }
    return std::pair{best_ways, best_misses};
  };
  while (true) {
    std::vector<CoreId> pending;
    for (CoreId core = 0; core < geometry.num_cores; ++core) {
      if (!complete[core]) pending.push_back(core);
    }
    if (pending.size() < 2) break;
    CoreId hungry = kInvalidCore;
    double hungry_mu = 0.0;
    for (const CoreId core : pending) {
      const auto mu = max_marginal_utility(curves[core], ways[core], bank_ways - 1);
      if (mu.extra != 0 && mu.utility > hungry_mu) {
        hungry = core;
        hungry_mu = mu.utility;
      }
    }
    if (hungry == kInvalidCore) break;
    std::optional<CoreId> partner;
    std::pair<WayCount, double> partner_split;
    for (const CoreId candidate : pending) {
      if (candidate == hungry || !geometry.adjacent(hungry, candidate)) continue;
      const auto split = pair_split(hungry, candidate);
      if (!partner || split.second < partner_split.second) {
        partner = candidate;
        partner_split = split;
      }
    }
    complete[hungry] = true;
    if (!partner) continue;
    ways[hungry] = partner_split.first;
    ways[*partner] = 2 * bank_ways - partner_split.first;
    complete[*partner] = true;
    result.pairs.push_back({hungry, *partner, partner_split.first,
                            static_cast<WayCount>(2 * bank_ways - partner_split.first)});
  }
  return result;
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

void expect_same_capacity(const BankAwareCapacity& actual,
                          const BankAwareCapacity& expected, const std::string& where) {
  ASSERT_EQ(actual.allocation.ways_per_core, expected.allocation.ways_per_core) << where;
  ASSERT_EQ(actual.center_banks_per_core, expected.center_banks_per_core) << where;
  ASSERT_EQ(actual.pairs.size(), expected.pairs.size()) << where;
  for (std::size_t i = 0; i < expected.pairs.size(); ++i) {
    EXPECT_EQ(actual.pairs[i].first, expected.pairs[i].first) << where << ", pair " << i;
    EXPECT_EQ(actual.pairs[i].second, expected.pairs[i].second) << where << ", pair " << i;
    EXPECT_EQ(actual.pairs[i].first_ways, expected.pairs[i].first_ways)
        << where << ", pair " << i;
    EXPECT_EQ(actual.pairs[i].second_ways, expected.pairs[i].second_ways)
        << where << ", pair " << i;
  }
}

void expect_matches_direct(const CmpGeometry& geometry,
                           const std::vector<msa::MissRatioCurve>& curves,
                           const std::string& where) {
  const auto expected = direct_capacity(geometry, curves);
  expect_same_capacity(bank_aware_capacity(geometry, curves), expected, where);
  std::vector<const msa::MissRatioCurve*> views;
  for (const auto& curve : curves) views.push_back(&curve);
  expect_same_capacity(
      bank_aware_capacity(geometry, std::span<const msa::MissRatioCurve* const>(views)),
      expected, where + " (pointer view)");
}

TEST(BankAware, CapacityMatchesDirectRescan) {
  struct Shape {
    std::uint32_t cores, banks;
    WayCount ways_per_bank;
    int trials;
  };
  common::Rng rng(0xBA4C);
  for (const Shape shape : {Shape{2, 4, 4, 300}, Shape{3, 9, 4, 200}, Shape{4, 8, 4, 200},
                            Shape{4, 12, 8, 100}, Shape{8, 16, 8, 100}}) {
    CmpGeometry geometry;
    geometry.num_cores = shape.cores;
    geometry.num_banks = shape.banks;
    geometry.ways_per_bank = shape.ways_per_bank;
    const WayCount total = geometry.total_ways();
    for (int trial = 0; trial < shape.trials; ++trial) {
      // Every other trial keeps the curves shallower than a core's reach,
      // so the lookahead runs past the deepest profiled way.
      const WayCount max_depth = trial % 2 == 0 ? total / 4 : total + 8;
      std::vector<msa::MissRatioCurve> curves;
      for (std::uint32_t core = 0; core < shape.cores; ++core) {
        curves.push_back(
            random_curve(rng, static_cast<WayCount>(rng.next_below(max_depth + 1))));
      }
      expect_matches_direct(geometry, curves,
                            std::to_string(shape.cores) + " cores, trial " +
                                std::to_string(trial));
      if (HasFatalFailure()) return;
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
      for (const auto index : mix.workload_indices) curves.push_back(bank[index]);
      expect_matches_direct(geometry, curves,
                            "seed " + std::to_string(seed) + ", mix " +
                                std::to_string(trial));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BankAware, WinnerLookaheadIsRescannedEachRound) {
  // Core 0 gains from exactly one Center bank and nothing after it; the
  // others gain a little from every way. Once core 0 holds its bank, its
  // lookahead must be recomputed at the new allocation, or the stale
  // utility keeps winning it banks up to the 9/16 clamp.
  const CmpGeometry geometry;
  std::vector<double> hits(128, 0.0);
  std::fill(hits.begin() + 8, hits.begin() + 16, 100.0);
  std::vector<msa::MissRatioCurve> curves{msa::MissRatioCurve(hits, 1.0)};
  for (CoreId core = 1; core < geometry.num_cores; ++core) {
    curves.emplace_back(std::vector<double>(128, 1.0), 1.0);
  }
  expect_matches_direct(geometry, curves, "one-bank appetite");
  EXPECT_EQ(bank_aware_capacity(geometry, curves).center_banks_per_core[0], 1u);
}

}  // namespace
}  // namespace bacp::partition
