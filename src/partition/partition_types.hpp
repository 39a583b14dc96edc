#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "msa/miss_curve.hpp"

namespace bacp::partition {

/// Physical shape of the CMP-DNUCA baseline (paper Fig. 1): a row of cores,
/// each with one *Local* bank physically adjacent, plus an equal number of
/// *Center* banks; every bank is 8-way. Defaults are the paper's 8-core,
/// 16 x 1MB, 128-way-equivalent L2.
struct CmpGeometry {
  std::uint32_t num_cores = 8;
  std::uint32_t num_banks = 16;
  WayCount ways_per_bank = 8;

  WayCount total_ways() const { return num_banks * ways_per_bank; }

  /// Rule cap: no core may be assigned more than 9/16 of the cache (paper
  /// Section III-A: "limits each core to a maximum of 9/16 of the total
  /// cache capacity" — its local bank plus all eight center banks).
  WayCount max_assignable_ways() const { return total_ways() * 9 / 16; }

  std::uint32_t num_local_banks() const { return num_cores; }
  std::uint32_t num_center_banks() const { return num_banks - num_cores; }

  /// Bank ids [0, num_cores) are Local (bank i next to core i);
  /// [num_cores, num_banks) are Center.
  BankId local_bank(CoreId core) const { return core; }
  bool is_center_bank(BankId bank) const { return bank >= num_cores; }
  CoreId local_owner(BankId bank) const { return bank; }  // local banks only

  /// Cores are adjacent iff they are neighbours in the physical row
  /// (Rule 3: local banks may only be shared with an adjacent core).
  bool adjacent(CoreId a, CoreId b) const {
    return (a > b ? a - b : b - a) == 1;
  }

  void validate() const;
};

/// Way-count assignment per core; the common currency of all policies.
struct Allocation {
  std::vector<WayCount> ways_per_core;

  WayCount total() const;
};

/// A realizable lowering of an allocation onto the banked cache: per-bank,
/// per-way core masks (identical across sets within a bank, as in the
/// paper), plus the list of banks making up each core's partition (for the
/// aggregation layer and the NoC placement).
struct BankAssignment {
  /// [bank][way] -> core mask. A mask of ~0 means the way is shared by all
  /// cores (the No-partition baseline).
  std::vector<std::vector<CoreMask>> way_masks;

  /// Banks where core i owns at least one way, in allocation order.
  std::vector<std::vector<BankId>> banks_of_core;

  /// Ways owned by `core` summed over all banks.
  WayCount ways_of_core(CoreId core) const;

  /// Aborts unless every way has a non-zero mask and the per-core totals
  /// match `allocation` (full coverage, no loss).
  void validate_against(const CmpGeometry& geometry, const Allocation& allocation) const;
};

/// Total projected miss count if each core i receives allocation[i] ways,
/// given per-core (already intensity-weighted) miss-ratio curves: the sum
/// of MissRatioCurve::miss_count, strictly in core order — that ordered
/// double sum is pinned by every projected-miss artifact's byte-identity
/// contract and must never be reassociated.
double projected_total_misses(std::span<const msa::MissRatioCurve> curves,
                              std::span<const WayCount> ways);

/// Pointer-view overload for hot sweeps (Monte-Carlo trials index a shared
/// curve bank): identical math and summation order, no curve copies.
double projected_total_misses(std::span<const msa::MissRatioCurve* const> curves,
                              std::span<const WayCount> ways);

}  // namespace bacp::partition
