#pragma once

#include <span>

#include "partition/partition_types.hpp"

namespace bacp::partition {

/// The *Unrestricted* MSA-based partitioner the paper compares against
/// (Section III-B / IV-A): a fully configurable way-granular split of the
/// whole cache with no banking constraints — in essence Qureshi & Patt's
/// utility-based cache partitioning with lookahead, generalized to N cores.
/// It is the performance envelope: physically unrealizable on a banked
/// DNUCA, but the quality bar the Bank-aware scheme is measured against.
struct UnrestrictedConfig {
  WayCount min_ways_per_core = 1;
  /// 0 means "no cap". The paper's Unrestricted has no 9/16 clamp.
  WayCount max_ways_per_core = 0;
};

/// Partitions `geometry.total_ways()` ways among the cores by iterated
/// maximum Marginal Utility with lookahead. Deterministic: ties break
/// toward the core with more remaining misses, then the lower core id.
///
/// Allocations are bit-identical to rescanning max_marginal_utility over
/// each core's headroom in every round, at a fraction of the divides:
/// - Each core keeps the record lane of its first-wins running maximum
///   and is rescanned only when its allocation changed (the previous
///   round's winner) or the shrinking balance put the record out of
///   reach. Otherwise the record, which beat every lane below it, is still
///   the first-wins maximum over the smaller headroom.
/// - A scan stops at the first n with removed_deep / n <= running, where
///   removed_deep = miss(current) - miss(max_ways). The stop is exact:
///   miss counts never increase with ways (prefix hits are non-negative
///   sums), so no lane's numerator exceeds removed_deep, and since IEEE
///   subtraction and division are monotone, no later lane can strictly
///   beat the record.
/// - Each lane is marginal_utility's own subtract, subtract, divide on the
///   same operands, so every compared value is bit-identical too.
Allocation unrestricted_partition(const CmpGeometry& geometry,
                                  std::span<const msa::MissRatioCurve> curves,
                                  const UnrestrictedConfig& config = {});

/// Pointer-view overload for hot sweeps: identical algorithm, no curve
/// copies.
Allocation unrestricted_partition(const CmpGeometry& geometry,
                                  std::span<const msa::MissRatioCurve* const> curves,
                                  const UnrestrictedConfig& config = {});

}  // namespace bacp::partition
