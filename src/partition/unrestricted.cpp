#include "partition/unrestricted.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "partition/marginal_utility.hpp"

namespace bacp::partition {

namespace {

/// Marginal-utility lookahead over one curve: out[n-1] = MU(current, n)
/// for n in [1, max_extra]. Each lane is marginal_utility's own IEEE
/// sub/sub/div on the same operands, so the values are bit-identical to
/// it. While current + n is within the curve the prefix reads are
/// contiguous; past the curve's deepest way miss(current + n) is the
/// constant deep-miss floor and only the divisor changes.
void mu_scan(const msa::MissRatioCurve& curve, WayCount current, WayCount max_extra,
             double* out) {
  const double total = curve.total();
  const double base = curve.miss_count(current);
  const WayCount size = curve.max_ways();
  const WayCount contiguous = size > current ? std::min(max_extra, size - current) : 0;
  const std::span<const double> prefix = curve.prefix_hits();
  for (WayCount n = 1; n <= contiguous; ++n) {
    out[n - 1] =
        (base - (total - prefix[std::size_t{current} + n - 1])) / static_cast<double>(n);
  }
  const double removed_deep = base - curve.miss_count(size);
  for (WayCount n = contiguous + 1; n <= max_extra; ++n) {
    out[n - 1] = removed_deep / static_cast<double>(n);
  }
}

/// Shared core of both unrestricted_partition overloads.
///
/// The direct formulation rescans max_marginal_utility(curve, current,
/// headroom) for every core in every grant round, which is quadratic in
/// the way count (a convex curve grants ~1 way per round). Instead we scan
/// each core's lookahead window once per allocation level through mu_scan
/// and store the first-wins running maximum per depth, so
///   best_mu[h-1] / best_extra[h-1] == max_marginal_utility(curve, current, h)
/// for any headroom h up to the scan depth. A round is then one O(1) table
/// lookup per core; only the winner's table is rebuilt (its allocation
/// changed). The scan replays marginal_utility's exact op sequence and the
/// prefix maximum uses the same strict-greater comparison, so selections —
/// and the resulting allocation — are bit-identical to the direct loop.
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

  // Per-core cached lookahead tables, valid while the core's allocation
  // still equals scanned_at[core] (the sentinel total + 1 marks "never
  // scanned"; an allocation can never reach it).
  const std::size_t cores = geometry.num_cores;
  const WayCount kNeverScanned = total + 1;
  std::vector<double> mu_buffer(cap, 0.0);
  std::vector<double> best_mu(cores * cap, 0.0);
  std::vector<WayCount> best_extra(cores * cap, 0);
  std::vector<WayCount> scanned_at(cores, kNeverScanned);

  const auto rescan = [&](CoreId core) {
    const WayCount current = allocation.ways_per_core[core];
    // The balance only shrinks, so no later round asks this allocation
    // level for more headroom than the balance allows now.
    const WayCount depth = std::min<WayCount>(cap - current, balance);
    mu_scan(curve_at(core), current, depth, mu_buffer.data());
    double running = 0.0;
    WayCount running_extra = 0;
    double* bm = best_mu.data() + static_cast<std::size_t>(core) * cap;
    WayCount* be = best_extra.data() + static_cast<std::size_t>(core) * cap;
    for (WayCount n = 1; n <= depth; ++n) {
      if (mu_buffer[n - 1] > running) {
        running = mu_buffer[n - 1];
        running_extra = n;
      }
      bm[n - 1] = running;
      be[n - 1] = running_extra;
    }
    scanned_at[core] = current;
  };

  while (balance > 0) {
    CoreId winner = kInvalidCore;
    MaxMarginalUtility winner_mu;
    double winner_misses = -1.0;
    for (CoreId core = 0; core < geometry.num_cores; ++core) {
      const WayCount current = allocation.ways_per_core[core];
      const WayCount headroom = std::min<WayCount>(cap - current, balance);
      if (headroom == 0) continue;
      if (scanned_at[core] != current) rescan(core);
      const std::size_t slot =
          static_cast<std::size_t>(core) * cap + headroom - 1;
      MaxMarginalUtility mu;
      mu.extra = best_extra[slot];
      mu.utility = best_mu[slot];
      if (mu.extra == 0) continue;
      const double misses = curve_at(core).miss_count(current);
      const bool better = winner == kInvalidCore || mu.utility > winner_mu.utility ||
                          (mu.utility == winner_mu.utility && misses > winner_misses);
      if (better) {
        winner = core;
        winner_mu = mu;
        winner_misses = misses;
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

    allocation.ways_per_core[winner] += winner_mu.extra;
    balance -= winner_mu.extra;
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
