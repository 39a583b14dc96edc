#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"

namespace bacp::trace {

/// One memory reference at cache-block granularity. The simulator operates
/// on block addresses throughout; byte offsets within a block never affect
/// hit/miss behaviour or timing in the modelled hierarchy.
struct MemoryAccess {
  BlockAddress block = 0;
  CoreId core = 0;
  bool is_write = false;
};

/// A fixed-capacity run of consecutive accesses from one stream: the unit
/// sim::System refills each core's buffered stream with. Produced by
/// SyntheticTraceGenerator::next_batch() and consumed front-to-back; the
/// generator can rewind an unconsumed suffix (truncate_batch), so batching
/// is invisible to simulated state. kMaxSize is the one refill depth System
/// uses: 64 ran the Fig. 8 configuration ~10% faster than 1, and 16, 64 and
/// 256 were within noise of each other (DESIGN.md section 11).
struct AccessBatch {
  static constexpr std::uint32_t kMaxSize = 64;
  std::array<MemoryAccess, kMaxSize> accesses{};
  std::uint32_t size = 0;
};

}  // namespace bacp::trace
