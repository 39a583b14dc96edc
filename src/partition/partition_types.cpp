#include "partition/partition_types.hpp"

#include <numeric>

#include "common/assert.hpp"

namespace bacp::partition {

void CmpGeometry::validate() const {
  BACP_ASSERT(num_cores >= 2, "geometry needs at least two cores");
  BACP_ASSERT(num_banks >= num_cores, "need at least one local bank per core");
  BACP_ASSERT(ways_per_bank >= 1, "banks need at least one way");
}

WayCount Allocation::total() const {
  return std::accumulate(ways_per_core.begin(), ways_per_core.end(), WayCount{0});
}

WayCount BankAssignment::ways_of_core(CoreId core) const {
  const CoreMask bit = core_bit(core);
  WayCount total = 0;
  for (const auto& bank : way_masks) {
    for (CoreMask mask : bank) {
      if ((mask & bit) != 0) ++total;
    }
  }
  return total;
}

void BankAssignment::validate_against(const CmpGeometry& geometry,
                                      const Allocation& allocation) const {
  BACP_ASSERT(way_masks.size() == geometry.num_banks, "one mask vector per bank");
  for (const auto& bank : way_masks) {
    BACP_ASSERT(bank.size() == geometry.ways_per_bank, "one mask per way");
    for (CoreMask mask : bank) {
      BACP_ASSERT(mask != 0, "every way must be owned by at least one core");
    }
  }
  BACP_ASSERT(allocation.ways_per_core.size() == geometry.num_cores,
              "allocation core count mismatch");
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    BACP_ASSERT(ways_of_core(core) == allocation.ways_per_core[core],
                "bank lowering does not match the way allocation");
  }
}

double projected_total_misses(std::span<const msa::MissRatioCurve> curves,
                              std::span<const WayCount> ways) {
  BACP_ASSERT(curves.size() == ways.size(), "curves/ways size mismatch");
  double total = 0.0;
  for (std::size_t core = 0; core < curves.size(); ++core) {
    total += curves[core].miss_count(ways[core]);
  }
  return total;
}

double projected_total_misses(std::span<const msa::MissRatioCurve* const> curves,
                              std::span<const WayCount> ways) {
  BACP_ASSERT(curves.size() == ways.size(), "curves/ways size mismatch");
  double total = 0.0;
  for (std::size_t core = 0; core < curves.size(); ++core) {
    total += curves[core]->miss_count(ways[core]);
  }
  return total;
}

}  // namespace bacp::partition
