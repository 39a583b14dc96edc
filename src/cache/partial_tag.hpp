#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace bacp::cache {

/// Truncated-tag identification (Kessler et al., "Inexpensive
/// implementations of set-associativity"). The MSA profiler and the
/// Parallel bank-aggregation directory both identify blocks by a small
/// hash of the tag instead of the full tag; distinct blocks may alias,
/// which is exactly the error source the profiler-accuracy ablation
/// quantifies.
///
/// The hash mixes all tag bits (Fibonacci multiplicative hashing) before
/// truncation so aliasing behaves like random collisions rather than
/// tracking low-bit address patterns.
inline std::uint32_t partial_tag(BlockAddress tag_bits, std::uint32_t width_bits) {
  if (width_bits >= 32) width_bits = 32;
  const std::uint64_t mixed = tag_bits * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::uint32_t>(mixed >> (64 - width_bits));
}

}  // namespace bacp::cache
