#include "cache/set_assoc_cache.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "snapshot/codec.hpp"

namespace bacp::cache {
namespace {

SetAssocCache::Config tiny(WayCount ways = 4, std::uint32_t sets = 4,
                           std::uint32_t cores = 2) {
  SetAssocCache::Config config;
  config.name = "test";
  config.num_sets = sets;
  config.ways = ways;
  config.num_cores = cores;
  return config;
}

/// Block address landing in `set` with a distinguishing tag.
BlockAddress block_in(std::uint32_t set, std::uint64_t tag, std::uint32_t sets = 4) {
  return (tag * sets) + set;
}

TEST(SetAssocCache, MissThenHit) {
  SetAssocCache cache(tiny());
  const auto b = block_in(0, 1);
  EXPECT_FALSE(cache.access(b, 0, false).hit);
  cache.fill(b, 0, false);
  EXPECT_TRUE(cache.access(b, 0, false).hit);
  EXPECT_EQ(cache.stats().hits[0], 1u);
  EXPECT_EQ(cache.stats().misses[0], 1u);
}

TEST(SetAssocCache, FillPrefersInvalidWays) {
  SetAssocCache cache(tiny());
  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto result = cache.fill(block_in(1, t), 0, false);
    EXPECT_FALSE(result.evicted.has_value()) << "fill " << t;
  }
  EXPECT_EQ(cache.valid_lines(), 4u);
}

TEST(SetAssocCache, EvictsTrueLru) {
  SetAssocCache cache(tiny());
  for (std::uint64_t t = 0; t < 4; ++t) cache.fill(block_in(0, t), 0, false);
  // Touch 0 so block 1 becomes LRU.
  cache.access(block_in(0, 0), 0, false);
  const auto result = cache.fill(block_in(0, 9), 0, false);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->block, block_in(0, 1));
}

TEST(SetAssocCache, WritesSetDirtyAndEvictionReportsIt) {
  SetAssocCache cache(tiny(1, 4, 1));
  cache.fill(block_in(0, 1), 0, false);
  cache.access(block_in(0, 1), 0, true);  // write hit
  const auto result = cache.fill(block_in(0, 2), 0, false);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_TRUE(result.evicted->dirty);
}

TEST(SetAssocCache, MarkDirtyWithoutLruPerturbation) {
  SetAssocCache cache(tiny(2, 4, 1));
  cache.fill(block_in(0, 1), 0, false);
  cache.fill(block_in(0, 2), 0, false);
  // block 1 is LRU; mark_dirty_at must not move it to MRU.
  const WayIndex way = cache.holds_at(block_in(0, 1), 0) ? 0 : 1;
  ASSERT_TRUE(cache.holds_at(block_in(0, 1), way));
  cache.mark_dirty_at(block_in(0, 1), way);
  const auto result = cache.fill(block_in(0, 3), 0, false);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->block, block_in(0, 1));
  EXPECT_TRUE(result.evicted->dirty);
}

TEST(SetAssocCache, ProbeDoesNotTouchLru) {
  SetAssocCache cache(tiny(2, 4, 1));
  cache.fill(block_in(0, 1), 0, false);
  cache.fill(block_in(0, 2), 0, false);
  EXPECT_TRUE(cache.probe(block_in(0, 1)));  // must NOT promote to MRU
  const auto result = cache.fill(block_in(0, 3), 0, false);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->block, block_in(0, 1));
}

TEST(SetAssocCache, InvalidateRemovesAndFreesWay) {
  SetAssocCache cache(tiny(2, 4, 1));
  cache.fill(block_in(0, 1), 0, false);
  cache.fill(block_in(0, 2), 0, false);
  const auto line = cache.invalidate(block_in(0, 2));
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->block, block_in(0, 2));
  EXPECT_FALSE(cache.probe(block_in(0, 2)));
  // The freed way must be the next allocation target (no eviction).
  const auto result = cache.fill(block_in(0, 3), 0, false);
  EXPECT_FALSE(result.evicted.has_value());
}

TEST(SetAssocCache, InvalidateMissingReturnsNullopt) {
  SetAssocCache cache(tiny());
  EXPECT_FALSE(cache.invalidate(block_in(0, 5)).has_value());
}

TEST(SetAssocCache, HitAllowedInAnyWayRegardlessOfPartition) {
  SetAssocCache cache(tiny(2, 4, 2));
  cache.set_way_partition({core_bit(0), core_bit(1)});
  cache.fill(block_in(0, 1), 0, false);  // goes to way 0 (core 0's way)
  // Core 1 may *hit* on core 0's line (partitioning restricts replacement,
  // not lookup).
  EXPECT_TRUE(cache.access(block_in(0, 1), 1, false).hit);
}

TEST(SetAssocCache, StaleTagInInvalidWayDoesNotShadowLaterMatch) {
  SetAssocCache cache(tiny(4, 4, 2));
  const auto x = block_in(0, 7);
  ASSERT_EQ(cache.fill(x, 0, false).way, 0u);
  ASSERT_TRUE(cache.invalidate(x).has_value());  // way 0 keeps x's stale tag
  cache.set_way_partition({core_bit(0), core_bit(1), core_bit(1), core_bit(1)});
  ASSERT_EQ(cache.fill(x, 1, false).way, 1u);
  const auto result = cache.access(x, 1, false);
  EXPECT_TRUE(result.hit);
  EXPECT_EQ(result.way, 1u);
}

TEST(SetAssocCache, VictimSelectionRespectsWayMasks) {
  SetAssocCache cache(tiny(2, 4, 2));
  cache.set_way_partition({core_bit(0), core_bit(1)});
  cache.fill(block_in(0, 1), 0, false);
  cache.fill(block_in(0, 2), 1, false);
  // Core 1 fills again: must evict its own line, not core 0's.
  const auto result = cache.fill(block_in(0, 3), 1, false);
  ASSERT_TRUE(result.evicted.has_value());
  EXPECT_EQ(result.evicted->block, block_in(0, 2));
  EXPECT_TRUE(cache.probe(block_in(0, 1)));
}

TEST(SetAssocCache, WaysOwnedCountsMaskBits) {
  SetAssocCache cache(tiny(4, 4, 2));
  cache.set_way_partition(
      {core_bit(0), core_bit(0), core_bit(1), core_bit(0) | core_bit(1)});
  EXPECT_EQ(cache.ways_owned(0), 3u);
  EXPECT_EQ(cache.ways_owned(1), 2u);
}

TEST(SetAssocCache, RepartitionLeavesResidentLines) {
  SetAssocCache cache(tiny(2, 4, 2));
  cache.set_way_partition({core_bit(0), core_bit(0)});
  cache.fill(block_in(0, 1), 0, false);
  cache.set_way_partition({core_bit(1), core_bit(1)});
  EXPECT_TRUE(cache.probe(block_in(0, 1)));  // stale line persists
  // Core 1's next fills displace it naturally.
  cache.fill(block_in(0, 5), 1, false);
  cache.fill(block_in(0, 6), 1, false);
  EXPECT_FALSE(cache.probe(block_in(0, 1)));
}

TEST(SetAssocCache, LruLineForCoreFindsOwnedLru) {
  SetAssocCache cache(tiny(4, 4, 2));
  cache.set_way_partition({core_bit(0), core_bit(0), core_bit(1), core_bit(1)});
  cache.fill(block_in(0, 1), 0, false);
  cache.fill(block_in(0, 2), 0, false);
  cache.fill(block_in(0, 3), 1, false);
  const auto lru0 = cache.lru_line_for_core(block_in(0, 0), 0);
  ASSERT_TRUE(lru0.has_value());
  EXPECT_EQ(lru0->block, block_in(0, 1));
  const auto lru1 = cache.lru_line_for_core(block_in(0, 0), 1);
  ASSERT_TRUE(lru1.has_value());
  EXPECT_EQ(lru1->block, block_in(0, 3));
}

/// Isolation property: with disjoint way masks, a core's fills can never
/// displace the other core's lines — the partitioning guarantee the whole
/// paper rests on. Randomized sweep over way splits.
class PartitionIsolation : public ::testing::TestWithParam<WayCount> {};

TEST_P(PartitionIsolation, DisjointPartitionsNeverInterfere) {
  const WayCount ways_core0 = GetParam();
  constexpr WayCount kWays = 8;
  SetAssocCache cache(tiny(kWays, 16, 2));
  std::vector<CoreMask> masks(kWays);
  for (WayCount w = 0; w < kWays; ++w) {
    masks[w] = w < ways_core0 ? core_bit(0) : core_bit(1);
  }
  cache.set_way_partition(masks);

  common::Rng rng(GetParam());
  std::set<BlockAddress> core0_resident;
  for (int i = 0; i < 20000; ++i) {
    const CoreId core = rng.next_bool(0.5) ? 0 : 1;
    const BlockAddress block =
        (rng.next_below(500) * 16 + rng.next_below(16)) * 2 + core;
    if (!cache.access(block, core, false).hit) {
      const auto result = cache.fill(block, core, false);
      if (result.evicted) {
        EXPECT_EQ(result.evicted->allocator, core)
            << "a fill displaced the other core's line";
        if (core == 0) core0_resident.erase(result.evicted->block);
      }
    }
    if (core == 0) core0_resident.insert(block);
  }
}

INSTANTIATE_TEST_SUITE_P(WaySplits, PartitionIsolation,
                         ::testing::Values(1u, 2u, 4u, 6u, 7u));

std::vector<std::uint8_t> saved_bytes(const SetAssocCache& cache) {
  std::vector<std::uint8_t> bytes;
  snapshot::Writer writer(bytes);
  cache.save_state(writer);
  return bytes;
}

void restore_bytes(SetAssocCache& cache, const std::vector<std::uint8_t>& bytes) {
  snapshot::Reader reader(bytes);
  cache.restore_state(reader);
}

TEST(SetAssocCacheDeath, RestoreRejectsMetadataOutsideTheSet) {
  // Checksums vouch for bytes, not for what they say: a valid bit past the
  // last way, or a recency link naming no way of the set, must stop the
  // restore before any walk follows it.
  constexpr WayCount kWays = 4;
  constexpr std::uint32_t kSets = 4;
  SetAssocCache cache(tiny(kWays, kSets));
  for (std::uint64_t t = 0; t < kWays; ++t) cache.fill(block_in(2, t), 0, t == 1);
  const auto bytes = saved_bytes(cache);

  // Layout: geometry echo (3 x u32), tags and allocators (length-prefixed),
  // then per set {valid u64, dirty u64, head u8, tail u8}, then the
  // length-prefixed link bytes (prev, next per way), way masks and stats.
  constexpr std::size_t kLines = std::size_t{kSets} * kWays;
  constexpr std::size_t kMetaBytes = 18;
  const std::size_t meta_at = 12 + (8 + kLines * sizeof(BlockAddress)) +
                              (8 + kLines * sizeof(CoreId));
  const std::size_t set2_valid_at = meta_at + 2 * kMetaBytes;
  const std::size_t links_at = meta_at + kSets * kMetaBytes + 8;
  ASSERT_EQ(bytes.size(), links_at + kLines * 2 + (8 + kWays * sizeof(CoreMask)) +
                              3 * (8 + 2 * sizeof(std::uint64_t)));
  std::uint64_t valid = 0;
  std::memcpy(&valid, bytes.data() + set2_valid_at, sizeof(valid));
  ASSERT_EQ(valid, 0xFu);  // the offsets land on set 2's full valid mask
  {
    SetAssocCache intact(tiny(kWays, kSets));
    restore_bytes(intact, bytes);
    EXPECT_EQ(intact.valid_lines(), kWays);
  }

  SetAssocCache target(tiny(kWays, kSets));
  auto mask = bytes;
  valid |= std::uint64_t{1} << kWays;  // a fifth way in a four-way set
  std::memcpy(mask.data() + set2_valid_at, &valid, sizeof(valid));
  EXPECT_DEATH(restore_bytes(target, mask), "outside its set");

  auto link = bytes;
  link[links_at + std::size_t{2} * kWays * 2 + 1] = kWays;  // set 2, way 0's next link
  EXPECT_DEATH(restore_bytes(target, link), "outside its set");
}

TEST(CacheStats, AggregationAndClear) {
  CacheStats stats(2);
  stats.hits[0] = 3;
  stats.misses[1] = 2;
  stats.hits[1] = 5;
  EXPECT_EQ(stats.total_hits(), 8u);
  EXPECT_EQ(stats.total_misses(), 2u);
  EXPECT_EQ(stats.total_accesses(), 10u);
  EXPECT_DOUBLE_EQ(stats.miss_ratio(), 0.2);
  stats.clear();
  EXPECT_EQ(stats.total_accesses(), 0u);
  EXPECT_DOUBLE_EQ(stats.miss_ratio(), 0.0);
}

}  // namespace
}  // namespace bacp::cache
