// Oracle tests for the runtime-dispatched SIMD kernels in common/simd.hpp:
// every vector kernel is checked lane-for-lane against its scalar reference
// on randomized inputs, including probe runs that wrap around the table end
// and scan counts with ragged tails. On hosts without AVX2 the vector entry
// points fall back to scalar, so the comparisons stay valid (they just stop
// being interesting) — CI re-runs the figure artifacts under BACP_SIMD=off
// and compares them with the auto tier's to cover the forced-scalar
// configuration end to end.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace bacp {
namespace {

using common::simd::detail::kGroupOccupiedOffset;
using common::simd::detail::kGroupSlotBytes;
using common::simd::detail::kRunMatch;

/// Whether the AVX2 kernels actually run vector code here (otherwise the
/// _avx2 symbols are the portable fallbacks and the oracle is trivially
/// true).
bool host_runs_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// A random linear-probe table in the FlatHash64 slot layout: `count`
/// 16-byte slots, u64 key at offset 0, occupancy byte at offset 12.
/// `load` controls the occupied fraction; occupied slots get distinct keys
/// derived from their index so tests can aim probes at known keys.
std::vector<unsigned char> random_table(std::size_t count, double load,
                                        common::Rng& rng) {
  std::vector<unsigned char> table(count * kGroupSlotBytes, 0);
  for (std::size_t slot = 0; slot < count; ++slot) {
    if (!rng.next_bool(load)) continue;
    const std::uint64_t key = 0x9E3779B97F4A7C15ull * (slot + 1);
    std::memcpy(table.data() + slot * kGroupSlotBytes, &key, sizeof(key));
    table[slot * kGroupSlotBytes + kGroupOccupiedOffset] = 1;
  }
  return table;
}

std::uint64_t key_at(const std::vector<unsigned char>& table, std::size_t slot) {
  std::uint64_t key;
  std::memcpy(&key, table.data() + slot * kGroupSlotBytes, sizeof(key));
  return key;
}

bool occupied_at(const std::vector<unsigned char>& table, std::size_t slot) {
  return table[slot * kGroupSlotBytes + kGroupOccupiedOffset] != 0;
}

// ---------------------------------------------------------------------------
// probe_run16: whole-run probe with wrap-around.
// ---------------------------------------------------------------------------

TEST(SimdProbeRun16, MatchesScalarOnRandomTables) {
  common::Rng rng(0x9716);
  for (const std::size_t count : {16u, 64u, 256u}) {
    const std::uint64_t mask = count - 1;
    for (std::uint32_t round = 0; round < 5000; ++round) {
      // 0.8 load keeps probe runs long enough to cross group boundaries; a
      // forced empty slot guarantees termination (FlatHash64 never exceeds
      // 7/8 load, so full tables are outside the kernel's contract).
      auto table = random_table(count, 0.8, rng);
      const std::size_t forced_empty = rng.next_below(count);
      std::memset(table.data() + forced_empty * kGroupSlotBytes, 0, kGroupSlotBytes);
      const std::uint64_t start = rng.next_below(count);
      std::uint64_t needle;
      if (round % 2 == 0) {
        needle = key_at(table, rng.next_below(count));  // maybe absent slot key
      } else {
        needle = rng.next_u64() | 1;  // never a generated key
      }
      const std::uint64_t scalar = common::simd::detail::probe_run16_scalar(
          table.data(), mask, start, needle);
      const std::uint64_t avx2 = common::simd::detail::probe_run16_avx2(
          table.data(), mask, start, needle);
      ASSERT_EQ(scalar, avx2) << "count " << count << " round " << round;

      // Decode and check the contract directly against the table.
      const std::uint64_t slot = scalar >> 1;
      ASSERT_LT(slot, count);
      if ((scalar & kRunMatch) != 0) {
        ASSERT_TRUE(occupied_at(table, slot));
        ASSERT_EQ(key_at(table, slot), needle);
      } else {
        ASSERT_FALSE(occupied_at(table, slot));
      }
    }
  }
}

TEST(SimdProbeRun16, WrapAroundRunsCrossTheTableEnd) {
  // A cluster that straddles the table end: slots [12..15] and [0..2]
  // occupied, the rest empty. Probes starting inside the tail must wrap to
  // find keys (or the first empty slot) at the front.
  const std::size_t count = 16;
  const std::uint64_t mask = count - 1;
  std::vector<unsigned char> table(count * kGroupSlotBytes, 0);
  auto occupy = [&](std::size_t slot) {
    const std::uint64_t key = 0x9E3779B97F4A7C15ull * (slot + 1);
    std::memcpy(table.data() + slot * kGroupSlotBytes, &key, sizeof(key));
    table[slot * kGroupSlotBytes + kGroupOccupiedOffset] = 1;
  };
  for (const std::size_t slot : {12u, 13u, 14u, 15u, 0u, 1u, 2u}) occupy(slot);

  for (std::uint64_t start = 0; start < count; ++start) {
    // Key physically before the start slot in the cluster: reachable only
    // by wrapping through the table end.
    for (const std::size_t target : {12u, 15u, 0u, 2u}) {
      const std::uint64_t needle = key_at(table, target);
      const std::uint64_t scalar = common::simd::detail::probe_run16_scalar(
          table.data(), mask, start, needle);
      const std::uint64_t avx2 = common::simd::detail::probe_run16_avx2(
          table.data(), mask, start, needle);
      ASSERT_EQ(scalar, avx2) << "start " << start << " target " << target;
    }
    // Absent key: both must land on the same empty slot.
    const std::uint64_t scalar = common::simd::detail::probe_run16_scalar(
        table.data(), mask, start, 0xFEEDull);
    const std::uint64_t avx2 = common::simd::detail::probe_run16_avx2(
        table.data(), mask, start, 0xFEEDull);
    ASSERT_EQ(scalar, avx2) << "start " << start;
    ASSERT_EQ(scalar & kRunMatch, 0u);
  }
}

// ---------------------------------------------------------------------------
// find_first_equal_u64: tag-column scan.
// ---------------------------------------------------------------------------

TEST(SimdFindFirstEqual, MatchesScalarAcrossCountsAndPositions) {
  common::Rng rng(0xF1F5);
  for (std::uint32_t count = 0; count <= 33; ++count) {
    for (std::uint32_t round = 0; round < 500; ++round) {
      std::vector<std::uint64_t> values(count);
      for (auto& value : values) value = rng.next_below(8);  // force duplicates
      const std::uint64_t needle = rng.next_below(8);
      const std::uint32_t scalar = common::simd::detail::find_first_equal_u64_scalar(
          values.data(), count, needle);
      ASSERT_EQ(common::simd::find_first_equal_u64(values.data(), count, needle),
                scalar)
          << "count " << count;
      if (host_runs_avx2()) {
        ASSERT_EQ(common::simd::detail::find_first_equal_u64_avx2(values.data(), count,
                                                                  needle),
                  scalar)
            << "count " << count;
      }
    }
  }
}

}  // namespace
}  // namespace bacp
