#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace bacp {

/// Physical byte address. The simulator never dereferences addresses; they
/// are opaque identifiers with bit-field structure (tag / set index / block
/// offset) imposed by each cache level.
using Address = std::uint64_t;

/// Cache-block-granular address (Address >> log2(block size)).
using BlockAddress = std::uint64_t;

/// Simulated clock, in core cycles (4 GHz in the baseline configuration).
using Cycle = std::uint64_t;

/// Core identifier, 0..num_cores-1.
using CoreId = std::uint32_t;

/// Sentinel for "no core" (e.g. unallocated cache way).
inline constexpr CoreId kInvalidCore = std::numeric_limits<CoreId>::max();

/// Bitmask of cores, bit i == core i. 32 cores is ample for the 8-core
/// baseline and for scaling studies.
using CoreMask = std::uint32_t;

constexpr CoreMask core_bit(CoreId core) { return CoreMask{1} << core; }

/// Number of cache ways; way index within a set.
using WayCount = std::uint32_t;
using WayIndex = std::uint32_t;

/// Bank identifier within the DNUCA L2 (0..15 in the baseline).
using BankId = std::uint32_t;

inline constexpr BankId kInvalidBank = std::numeric_limits<BankId>::max();

/// True if x is a power of two (and non-zero).
constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Floor log2. Precondition: x != 0.
constexpr std::uint32_t log2_floor(std::uint64_t x) {
  return static_cast<std::uint32_t>(std::bit_width(x)) - 1;
}

/// Ceiling division for unsigned integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

}  // namespace bacp
