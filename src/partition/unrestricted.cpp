#include "partition/unrestricted.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace bacp::partition {

namespace {

/// A core's lookahead, scanned at one allocation: the record lane of the
/// first-wins running maximum within the headroom it was scanned for.
struct Lookahead {
  WayCount scanned_at = 0;  ///< allocation the scan started from
  WayCount extra = 0;       ///< record lane, 0 when no lane helps
  double utility = 0.0;     ///< MU(scanned_at, extra)
  double misses = 0.0;      ///< miss_count(scanned_at), the tie-break
};

/// Shared core of both unrestricted_partition overloads; the record reuse
/// and the exact scan stop are documented on unrestricted_partition.
template <typename CurveAt>
Allocation unrestricted_partition_impl(const CmpGeometry& geometry,
                                       std::size_t num_curves,
                                       const CurveAt& curve_at,
                                       const UnrestrictedConfig& config) {
  geometry.validate();
  BACP_ASSERT(num_curves == geometry.num_cores, "one curve per core");
  const WayCount total = geometry.total_ways();
  const WayCount cap =
      config.max_ways_per_core == 0 ? total : config.max_ways_per_core;
  BACP_ASSERT(config.min_ways_per_core * geometry.num_cores <= total,
              "minimum allocations exceed the cache");
  BACP_ASSERT(cap * geometry.num_cores >= total,
              "per-core cap too small to place all ways");

  Allocation allocation;
  allocation.ways_per_core.assign(geometry.num_cores, config.min_ways_per_core);
  WayCount balance =
      total - config.min_ways_per_core * geometry.num_cores;

  // scanned_at = total + 1 marks "never scanned"; an allocation can never
  // reach it.
  std::vector<Lookahead> lookahead(geometry.num_cores, Lookahead{total + 1});

  const auto rescan = [&](CoreId core, WayCount depth) {
    const msa::MissRatioCurve& curve = curve_at(core);
    Lookahead& state = lookahead[core];
    state.scanned_at = allocation.ways_per_core[core];
    state.extra = 0;
    state.utility = 0.0;
    state.misses = curve.miss_count(state.scanned_at);
    const double removed_deep = state.misses - curve.miss_count(curve.max_ways());
    for (WayCount n = 1; n <= depth; ++n) {
      const auto divisor = static_cast<double>(n);
      if (removed_deep / divisor <= state.utility) break;
      const double mu =
          (state.misses - curve.miss_count(state.scanned_at + n)) / divisor;
      if (mu > state.utility) {
        state.utility = mu;
        state.extra = n;
      }
    }
  };

  while (balance > 0) {
    CoreId winner = kInvalidCore;
    double winner_utility = 0.0;
    double winner_misses = -1.0;
    for (CoreId core = 0; core < geometry.num_cores; ++core) {
      const WayCount current = allocation.ways_per_core[core];
      const WayCount headroom = std::min<WayCount>(cap - current, balance);
      if (headroom == 0) continue;
      const Lookahead& state = lookahead[core];
      if (state.scanned_at != current || state.extra > headroom) rescan(core, headroom);
      if (state.extra == 0) continue;
      const bool better = winner == kInvalidCore || state.utility > winner_utility ||
                          (state.utility == winner_utility && state.misses > winner_misses);
      if (better) {
        winner = core;
        winner_utility = state.utility;
        winner_misses = state.misses;
      }
    }

    if (winner == kInvalidCore) {
      // Every curve is flat from here on: spread the remaining ways
      // round-robin so the full cache is still handed out (a way owned by
      // nobody would be dead capacity).
      for (CoreId core = 0; core < geometry.num_cores && balance > 0; ++core) {
        if (allocation.ways_per_core[core] < cap) {
          ++allocation.ways_per_core[core];
          --balance;
        }
      }
      continue;
    }

    allocation.ways_per_core[winner] += lookahead[winner].extra;
    balance -= lookahead[winner].extra;
  }

  BACP_ASSERT(allocation.total() == total, "unrestricted allocation must cover the cache");
  return allocation;
}

}  // namespace

Allocation unrestricted_partition(const CmpGeometry& geometry,
                                  std::span<const msa::MissRatioCurve> curves,
                                  const UnrestrictedConfig& config) {
  return unrestricted_partition_impl(
      geometry, curves.size(),
      [&](CoreId core) -> const msa::MissRatioCurve& { return curves[core]; },
      config);
}

Allocation unrestricted_partition(const CmpGeometry& geometry,
                                  std::span<const msa::MissRatioCurve* const> curves,
                                  const UnrestrictedConfig& config) {
  return unrestricted_partition_impl(
      geometry, curves.size(),
      [&](CoreId core) -> const msa::MissRatioCurve& { return *curves[core]; },
      config);
}

}  // namespace bacp::partition
