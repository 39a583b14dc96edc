#include "nuca/dnuca_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "partition/bank_aware.hpp"
#include "partition/static_policies.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

namespace bacp::nuca {
namespace {

/// A small DNUCA for fast tests: 4 cores, 8 banks (4 local + 4 center),
/// 4 ways per bank, 16 sets.
DnucaConfig small_config(AggregationKind kind) {
  DnucaConfig config;
  config.geometry.num_cores = 4;
  config.geometry.num_banks = 8;
  config.geometry.ways_per_bank = 4;
  config.sets_per_bank = 16;
  config.aggregation = kind;
  return config;
}

noc::NocConfig small_noc() {
  noc::NocConfig config;
  config.num_cores = 4;
  config.num_banks = 8;
  return config;
}

BlockAddress block(std::uint32_t set, std::uint64_t tag, CoreId core = 0) {
  return (static_cast<std::uint64_t>(core) << 40) | (tag * 16) | set;
}

TEST(Dnuca, MissInstallsAndHitFollows) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::Parallel), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  const auto miss = cache.access(block(0, 1), 0, false, 0);
  EXPECT_FALSE(miss.hit);
  const auto hit = cache.access(block(0, 1), 0, false, 100);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(cache.stats().hits[0], 1u);
  EXPECT_EQ(cache.stats().misses[0], 1u);
}

TEST(Dnuca, EqualPlanKeepsCoresInTheirOwnBanks) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::Parallel), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  cache.access(block(0, 1, 2), 2, false, 0);
  const BankId where = cache.bank_of(block(0, 1, 2));
  const auto& view = cache.view_of(2);
  EXPECT_NE(std::find(view.begin(), view.end(), where), view.end());
}

TEST(Dnuca, CascadeFillsAtHeadBank) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::Cascade), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  cache.access(block(3, 9, 1), 1, false, 0);
  EXPECT_EQ(cache.bank_of(block(3, 9, 1)), cache.view_of(1).front());
}

TEST(Dnuca, CascadeDemotesDownTheChainInsteadOfEvicting) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::Cascade), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  // Core 0's partition: 2 banks x 4 ways = 8 lines per set. Fill 5 distinct
  // blocks into one set: the 5th fill demotes the LRU of the head bank into
  // the second bank; nothing leaves the cache.
  for (std::uint64_t t = 1; t <= 5; ++t) {
    const auto outcome = cache.access(block(0, t), 0, false, t * 10);
    EXPECT_TRUE(outcome.evicted.empty()) << "tag " << t;
  }
  EXPECT_GE(cache.stats().demotions, 1u);
  for (std::uint64_t t = 1; t <= 5; ++t) EXPECT_TRUE(cache.resident(block(0, t)));
}

TEST(Dnuca, CascadeHitPromotesBackToHead) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::Cascade), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  for (std::uint64_t t = 1; t <= 5; ++t) cache.access(block(0, t), 0, false, t);
  // Block 1 was demoted to the second bank; a hit must promote it home.
  const BankId head = cache.view_of(0).front();
  EXPECT_NE(cache.bank_of(block(0, 1)), head);
  cache.access(block(0, 1), 0, false, 100);
  EXPECT_EQ(cache.bank_of(block(0, 1)), head);
  EXPECT_GE(cache.stats().promotions, 1u);
}

TEST(Dnuca, CascadeOverflowEvictsFromTheTail) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::Cascade), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  std::size_t evictions = 0;
  for (std::uint64_t t = 1; t <= 12; ++t) {
    evictions += cache.access(block(0, t), 0, false, t * 10).evicted.size();
  }
  // Partition capacity is 8 lines/set: 12 fills must push 4 lines out.
  EXPECT_EQ(evictions, 4u);
}

TEST(Dnuca, AddressHashIsPlacementStable) {
  // The hash-selected home bank is a pure function of the address: two
  // caches built identically place the same block in the same bank.
  noc::Noc noc_a(small_noc());
  noc::Noc noc_b(small_noc());
  DnucaCache a(small_config(AggregationKind::AddressHash), noc_a);
  DnucaCache b(small_config(AggregationKind::AddressHash), noc_b);
  a.apply_assignment(partition::equal_partition(a.config().geometry).assignment);
  b.apply_assignment(partition::equal_partition(b.config().geometry).assignment);
  for (std::uint64_t t = 0; t < 32; ++t) {
    a.access(block(1, t), 0, false, t);
    b.access(block(1, t), 0, false, t);
    EXPECT_EQ(a.bank_of(block(1, t)), b.bank_of(block(1, t))) << "tag " << t;
  }
}

TEST(Dnuca, TwoLevelCascadeSwapsWithHeadOnly) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::TwoLevelCascade), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  for (std::uint64_t t = 1; t <= 5; ++t) cache.access(block(0, t), 0, false, t);
  const std::uint64_t demotions_before = cache.stats().demotions;
  cache.access(block(0, 1), 0, false, 100);  // hit in the group: swap to head
  EXPECT_EQ(cache.bank_of(block(0, 1)), cache.view_of(0).front());
  EXPECT_GE(cache.stats().promotions, 1u);
  EXPECT_LE(cache.stats().demotions, demotions_before + 1);  // single swap step
}

TEST(Dnuca, WritebackUpdateMarksResidentLineDirty) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::Parallel), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  cache.access(block(0, 1), 0, false, 0);
  EXPECT_TRUE(cache.writeback_update(block(0, 1)));
  EXPECT_FALSE(cache.writeback_update(block(0, 99)));
}

TEST(Dnuca, OffViewHitMigratesIntoTheNewPartition) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::Parallel), noc);
  const auto geometry = cache.config().geometry;
  cache.apply_assignment(partition::equal_partition(geometry).assignment);
  cache.access(block(2, 5, 0), 0, false, 0);  // lives in core 0's banks

  // Repartition: hand core 0's banks to core 1 and vice versa by swapping
  // the two cores' curves in a bank-aware plan. Simplest: give core 1 the
  // equal plan views of core 0 by re-applying with swapped bank lists.
  auto plan = partition::equal_partition(geometry);
  std::swap(plan.assignment.banks_of_core[0], plan.assignment.banks_of_core[1]);
  for (auto& bank_masks : plan.assignment.way_masks) {
    for (auto& mask : bank_masks) {
      if (mask == core_bit(0)) {
        mask = core_bit(1);
      } else if (mask == core_bit(1)) {
        mask = core_bit(0);
      }
    }
  }
  std::swap(plan.allocation.ways_per_core[0], plan.allocation.ways_per_core[1]);
  cache.apply_assignment(plan.assignment);

  // Core 0 hits its old line (now off-view) and the line moves into core
  // 0's new partition.
  const auto outcome = cache.access(block(2, 5, 0), 0, false, 100);
  EXPECT_TRUE(outcome.hit);
  EXPECT_EQ(cache.stats().offview_hits, 1u);
  const BankId now_at = cache.bank_of(block(2, 5, 0));
  const auto& view = cache.view_of(0);
  EXPECT_NE(std::find(view.begin(), view.end(), now_at), view.end());
}

TEST(Dnuca, SharedDnucaMigratesTowardTheRequester) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::SharedDnuca), noc);
  // Default views (all banks, id order); core 0's head is bank 0.
  const auto b = block(0, 40);
  cache.access(b, 0, false, 0);
  const BankId home = cache.bank_of(b);
  // Repeated hits walk the line one view position closer each time.
  for (Cycle i = 1; i <= 8; ++i) cache.access(b, 0, false, i * 10);
  EXPECT_EQ(cache.bank_of(b), cache.view_of(0).front());
  if (home != cache.view_of(0).front()) {
    EXPECT_GE(cache.stats().promotions, 1u);
  }
}

/// Directory lookups that one read of `b` by core 0 adds to stats().
std::uint64_t lookups_of(DnucaCache& cache, BlockAddress b, Cycle now) {
  const std::uint64_t before = cache.stats().directory_lookups;
  cache.access(b, 0, false, now);
  return cache.stats().directory_lookups - before;
}

TEST(Dnuca, DirectoryLookupWidthsFollowTheScheme) {
  // Core 0 starts with all 8 banks in its view, in id order (the
  // No-partition plan). The off-view hit comes after a plan that drops the
  // bank holding the line, which leaves a 7-bank view. Parallel and
  // SharedDnuca probe the whole view's directory, AddressHash one bank,
  // Cascade walks the view up to the hit (the whole view when the line is
  // not in it), and TwoLevelCascade probes the head and then its group.
  struct Row {
    AggregationKind kind;
    std::uint64_t miss, front_hit, deep_hit, offview_hit;
  };
  constexpr Row kRows[] = {
      {AggregationKind::Parallel, 8, 8, 8, 7},
      {AggregationKind::AddressHash, 1, 1, 1, 1},
      {AggregationKind::Cascade, 8, 1, 6, 7},
      {AggregationKind::TwoLevelCascade, 2, 1, 2, 2},
      {AggregationKind::SharedDnuca, 8, 8, 8, 7},
  };
  for (const Row& row : kRows) {
    SCOPED_TRACE(to_string(row.kind));
    noc::Noc noc(small_noc());
    DnucaCache cache(small_config(row.kind), noc);
    const auto geometry = cache.config().geometry;
    cache.apply_assignment(partition::no_partition(geometry).assignment);
    // 24 lines into set 0. Cascade stacks them six banks deep and
    // TwoLevelCascade two; the others spread them by round robin or hash.
    std::vector<BlockAddress> lines;
    for (std::uint64_t t = 1; t <= 24; ++t) {
      lines.push_back(block(0, t));
      cache.access(lines.back(), 0, false, t);
    }
    const auto view_position = [&](BlockAddress b) {
      const auto& view = cache.view_of(0);
      return std::find(view.begin(), view.end(), cache.bank_of(b)) - view.begin();
    };
    std::optional<BlockAddress> front;
    std::optional<BlockAddress> deep;
    std::ptrdiff_t deepest = 0;
    for (const BlockAddress b : lines) {
      if (!cache.resident(b)) continue;
      const auto position = view_position(b);
      if (position == 0 && !front) front = b;
      if (position > deepest) {
        deepest = position;
        deep = b;
      }
    }
    ASSERT_TRUE(front.has_value());
    ASSERT_TRUE(deep.has_value());

    EXPECT_EQ(lookups_of(cache, block(1, 99), 100), row.miss);
    EXPECT_EQ(lookups_of(cache, *front, 110), row.front_hit);
    EXPECT_EQ(lookups_of(cache, *deep, 120), row.deep_hit);

    const auto resident = std::find_if(lines.begin(), lines.end(),
                                       [&](BlockAddress b) { return cache.resident(b); });
    ASSERT_NE(resident, lines.end());
    auto plan = partition::no_partition(geometry);
    auto& view = plan.assignment.banks_of_core[0];
    view.erase(std::find(view.begin(), view.end(), cache.bank_of(*resident)));
    cache.apply_assignment(plan.assignment);
    const std::uint64_t offview_before = cache.stats().offview_hits;
    EXPECT_EQ(lookups_of(cache, *resident, 130), row.offview_hit);
    EXPECT_EQ(cache.stats().offview_hits, offview_before + 1);
  }
}

/// Uniqueness invariant: under every aggregation scheme and random access
/// streams, a block is resident in at most one bank.
class DnucaUniqueness : public ::testing::TestWithParam<AggregationKind> {};

TEST_P(DnucaUniqueness, BlockNeverDuplicatedAcrossBanks) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(GetParam()), noc);
  const auto geometry = cache.config().geometry;
  if (GetParam() != AggregationKind::SharedDnuca) {
    cache.apply_assignment(partition::equal_partition(geometry).assignment);
  }
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 5);
  std::vector<BlockAddress> touched;
  for (int i = 0; i < 6000; ++i) {
    const auto core = static_cast<CoreId>(rng.next_below(geometry.num_cores));
    const BlockAddress b = block(static_cast<std::uint32_t>(rng.next_below(16)),
                                 rng.next_below(40), core);
    cache.access(b, core, rng.next_bool(0.3), static_cast<Cycle>(i) * 3);
    touched.push_back(b);
    if (i % 500 == 0) {
      for (const auto t : touched) {
        int copies = 0;
        for (BankId bank = 0; bank < geometry.num_banks; ++bank) {
          if (cache.bank(bank).probe(t)) ++copies;
        }
        ASSERT_LE(copies, 1) << "duplicate for block " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DnucaUniqueness,
                         ::testing::Values(AggregationKind::Parallel,
                                           AggregationKind::AddressHash,
                                           AggregationKind::Cascade,
                                           AggregationKind::TwoLevelCascade,
                                           AggregationKind::SharedDnuca));

TEST(Dnuca, ToStringNamesEveryKind) {
  EXPECT_STREQ(to_string(AggregationKind::Parallel), "Parallel");
  EXPECT_STREQ(to_string(AggregationKind::AddressHash), "AddressHash");
  EXPECT_STREQ(to_string(AggregationKind::Cascade), "Cascade");
  EXPECT_STREQ(to_string(AggregationKind::TwoLevelCascade), "TwoLevelCascade");
  EXPECT_STREQ(to_string(AggregationKind::SharedDnuca), "SharedDnuca");
}

TEST(Dnuca, ClearStatsResetsEverything) {
  noc::Noc noc(small_noc());
  DnucaCache cache(small_config(AggregationKind::Parallel), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  cache.access(block(0, 1), 0, false, 0);
  cache.clear_stats();
  EXPECT_EQ(cache.stats().total_hits() + cache.stats().total_misses(), 0u);
  EXPECT_EQ(cache.stats().directory_lookups, 0u);
}

}  // namespace
}  // namespace bacp::nuca
