#include "common/flat_hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace bacp::common {
namespace {

TEST(FlatHash64, InsertFindErase) {
  FlatHash64<int> map;
  EXPECT_TRUE(map.empty());
  map.insert_or_assign(42, 7);
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_EQ(*map.find(42), 7);
  EXPECT_EQ(map.find(43), nullptr);

  map.insert_or_assign(42, 9);  // overwrite, not duplicate
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(42), 9);

  EXPECT_TRUE(map.erase(42));
  EXPECT_FALSE(map.erase(42));
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(FlatHash64, FindOrEmplaceDefaultConstructs) {
  FlatHash64<std::uint64_t> map;
  std::uint64_t& value = map.find_or_emplace(5);
  EXPECT_EQ(value, 0u);
  value = 99;
  EXPECT_EQ(map.find_or_emplace(5), 99u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHash64, GrowsPastInitialCapacityAndKeepsEntries) {
  FlatHash64<std::uint64_t> map;
  for (std::uint64_t key = 0; key < 10'000; ++key) {
    map.insert_or_assign(key * 0x10001, key);
  }
  ASSERT_EQ(map.size(), 10'000u);
  for (std::uint64_t key = 0; key < 10'000; ++key) {
    const auto* value = map.find(key * 0x10001);
    ASSERT_NE(value, nullptr) << key;
    EXPECT_EQ(*value, key);
  }
}

TEST(FlatHash64, ReservePreventsRehash) {
  FlatHash64<int> map;
  map.reserve(1000);
  const std::size_t capacity = map.capacity();
  for (std::uint64_t key = 0; key < 1000; ++key) map.insert_or_assign(key, 1);
  EXPECT_EQ(map.capacity(), capacity);
}

TEST(FlatHash64, ClearEmptiesButKeepsCapacity) {
  FlatHash64<int> map;
  for (std::uint64_t key = 0; key < 100; ++key) map.insert_or_assign(key, 1);
  const std::size_t capacity = map.capacity();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.find(5), nullptr);
  map.insert_or_assign(5, 3);
  EXPECT_EQ(*map.find(5), 3);
}

/// A probe run that starts in the last two slots of a 16-slot table wraps
/// through the table end, and backward-shift deletion must pull the
/// wrapped entries back across it. Keys are picked by their ideal slot —
/// the top four bits of the Fibonacci hash at the minimum capacity.
TEST(FlatHash64, ProbeRunsAndBackwardShiftWrapAroundTheTableEnd) {
  const auto ideal_slot = [](std::uint64_t key) {
    return (key * 0x9E3779B97F4A7C15ull) >> 60;
  };
  std::vector<std::uint64_t> keys;
  std::uint64_t absent = 0;
  for (std::uint64_t key = 1; keys.size() < 5 || absent == 0; ++key) {
    const std::uint64_t slot = ideal_slot(key);
    if (keys.size() < 5 && slot >= 14) {
      keys.push_back(key);
    } else if (absent == 0 && slot == 15) {
      absent = key;
    }
  }

  FlatHash64<std::uint64_t> map;
  ASSERT_EQ(map.capacity(), 16u);
  for (std::size_t i = 0; i < keys.size(); ++i) map.insert_or_assign(keys[i], i);
  ASSERT_EQ(map.capacity(), 16u);  // five entries never grow the table
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto* value = map.find(keys[i]);
    ASSERT_NE(value, nullptr) << "key " << keys[i];
    EXPECT_EQ(*value, i);
  }
  EXPECT_EQ(map.find(absent), nullptr);

  // The first key sits at the head of the run (slot 14 or 15); erasing it
  // shifts the wrapped entries back across the table end.
  ASSERT_TRUE(map.erase(keys[0]));
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.find(keys[0]), nullptr);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    const auto* value = map.find(keys[i]);
    ASSERT_NE(value, nullptr) << "key " << keys[i];
    EXPECT_EQ(*value, i);
  }
  EXPECT_EQ(map.find(absent), nullptr);
}

/// Backward-shift deletion is the delicate part: hammer the table with a
/// random insert/erase/lookup mix and require exact agreement with
/// std::unordered_map at every step.
TEST(FlatHash64, RandomizedAgainstStdUnorderedMap) {
  FlatHash64<std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  Rng rng(1234, 0);
  // A small key universe forces constant collisions, erasures of displaced
  // entries and reinsertions into freshly shifted runs.
  constexpr std::uint64_t kUniverse = 512;
  for (std::uint32_t step = 0; step < 200'000; ++step) {
    const std::uint64_t key = rng.next_below(kUniverse) * 0x9E3779B9ull;
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        map.insert_or_assign(key, step);
        reference[key] = step;
        break;
      }
      case 2: {
        EXPECT_EQ(map.erase(key), reference.erase(key) > 0) << "step " << step;
        break;
      }
      default: {
        const auto* found = map.find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end()) << "step " << step;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second) << "step " << step;
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size()) << "step " << step;
  }
  // Full sweep at the end: every key agrees.
  for (std::uint64_t raw = 0; raw < kUniverse; ++raw) {
    const std::uint64_t key = raw * 0x9E3779B9ull;
    const auto* found = map.find(key);
    const auto it = reference.find(key);
    ASSERT_EQ(found != nullptr, it != reference.end()) << "key " << key;
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second);
    }
  }
}

}  // namespace
}  // namespace bacp::common
