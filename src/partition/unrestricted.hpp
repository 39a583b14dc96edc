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
/// Each core's lookahead scan is cached as first-wins prefix maxima, so a
/// grant round costs one table lookup per core and one rescan for the
/// winner — identical selections (bit-identical utilities) to the direct
/// per-round max_marginal_utility scan, at a fraction of the divides.
Allocation unrestricted_partition(const CmpGeometry& geometry,
                                  std::span<const msa::MissRatioCurve> curves,
                                  const UnrestrictedConfig& config = {});

/// Pointer-view overload for hot sweeps: identical algorithm, no curve
/// copies.
Allocation unrestricted_partition(const CmpGeometry& geometry,
                                  std::span<const msa::MissRatioCurve* const> curves,
                                  const UnrestrictedConfig& config = {});

}  // namespace bacp::partition
