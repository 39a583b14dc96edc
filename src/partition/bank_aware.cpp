#include "partition/bank_aware.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "partition/marginal_utility.hpp"

namespace bacp::partition {

namespace {

/// Optimal 16-way split of two adjacent Local banks between a pair of
/// cores: the (w, 16-w) with minimal combined projected misses, each core
/// keeping at least one way. Ties prefer the balanced 8/8 split (least
/// perturbation of the private baseline).
struct PairSplit {
  WayCount first_ways = 8;
  double combined_misses = 0.0;
};

PairSplit best_pair_split(const msa::MissRatioCurve& first,
                          const msa::MissRatioCurve& second, WayCount pair_ways) {
  PairSplit best;
  best.combined_misses = std::numeric_limits<double>::infinity();
  for (WayCount w = 1; w <= pair_ways - 1; ++w) {
    const double misses = first.miss_count(w) + second.miss_count(pair_ways - w);
    const WayCount half = pair_ways / 2;
    const bool better =
        misses < best.combined_misses ||
        (misses == best.combined_misses &&
         (w > half ? w - half : half - w) <
             (best.first_ways > half ? best.first_ways - half : half - best.first_ways));
    if (better) {
      best.combined_misses = misses;
      best.first_ways = w;
    }
  }
  return best;
}

/// Shared core of both bank_aware_capacity overloads — Boxes 1-5, the
/// decision half of the algorithm. No per-bank data structures are built
/// here; the lowering consumes the returned decisions separately.
template <typename CurveAt>
BankAwareCapacity bank_aware_capacity_impl(const CmpGeometry& geometry,
                                           std::size_t num_curves,
                                           const CurveAt& curve_at) {
  geometry.validate();
  BACP_ASSERT(num_curves == geometry.num_cores, "one curve per core");
  const WayCount bank_ways = geometry.ways_per_bank;
  const WayCount max_ways = geometry.max_assignable_ways();

  BankAwareCapacity result;
  auto& ways = result.allocation.ways_per_core;
  // "For the calculations, we assume that each Local bank is assigned to
  // the associated processor."
  ways.assign(geometry.num_cores, bank_ways);
  auto& center_count = result.center_banks_per_core;
  center_count.assign(geometry.num_cores, 0);

  // --- Boxes 1-2: hand out every Center bank by maximum Marginal Utility,
  // under the 9/16 capacity clamp (Rule 1: banks whole; Rule 2 is implied
  // by the Local-bank presumption above). The utility is evaluated with
  // lookahead over *multiple* whole banks — MU(n) = dMiss/n maximized over
  // n = 1..k banks — so a working set spanning several banks (zero benefit
  // from the first bank alone, large benefit from three) still attracts
  // capacity; the winner receives one bank per iteration and keeps winning
  // until its lookahead target is reached. bank_mu[k-1] = max(0, MU(1
  // bank), ..., MU(k banks)) at the core's current ways; only the round's
  // winner is rescanned (why that is exact: bank_aware_capacity's doc).
  const std::uint32_t center_banks = geometry.num_center_banks();
  std::vector<double> bank_mu(std::size_t{geometry.num_cores} * center_banks);
  const auto headroom_banks = [&](CoreId core, std::uint32_t banks_left) {
    return std::min<std::uint32_t>(banks_left, (max_ways - ways[core]) / bank_ways);
  };
  const auto scan_banks = [&](CoreId core, std::uint32_t banks_left) {
    double* out = bank_mu.data() + std::size_t{core} * center_banks;
    const std::uint32_t depth = headroom_banks(core, banks_left);
    double mu = 0.0;
    for (std::uint32_t k = 1; k <= depth; ++k) {
      mu = std::max(mu, marginal_utility(curve_at(core), ways[core], k * bank_ways));
      out[k - 1] = mu;
    }
  };
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    if (ways[core] + bank_ways <= max_ways) scan_banks(core, center_banks);
  }
  for (std::uint32_t granted = 0; granted < center_banks; ++granted) {
    const std::uint32_t banks_left = center_banks - granted;
    CoreId winner = kInvalidCore;
    double winner_mu = -1.0;
    double winner_misses = -1.0;
    for (CoreId core = 0; core < geometry.num_cores; ++core) {
      if (ways[core] + bank_ways > max_ways) continue;
      const double mu = bank_mu[std::size_t{core} * center_banks +
                                headroom_banks(core, banks_left) - 1];
      const double misses = curve_at(core).miss_count(ways[core]);
      const bool better = winner == kInvalidCore || mu > winner_mu ||
                          (mu == winner_mu && misses > winner_misses);
      if (better) {
        winner = core;
        winner_mu = mu;
        winner_misses = misses;
      }
    }
    BACP_ASSERT(winner != kInvalidCore,
                "capacity clamp made a center bank unassignable");
    ways[winner] += bank_ways;
    ++center_count[winner];
    if (ways[winner] + bank_ways <= max_ways) scan_banks(winner, banks_left - 1);
  }

  // --- Box 3: cores holding Center banks are complete; the rest stay
  // pending with their utility of growing beyond the Local bank, limited to
  // what a pair could ever provide (the partner keeps >= 1 way).
  struct Pending {
    CoreId core = kInvalidCore;
    MaxMarginalUtility spill;
  };
  std::vector<Pending> pending;
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    if (center_count[core] > 0) continue;
    pending.push_back({core, max_marginal_utility(curve_at(core), ways[core], bank_ways - 1)});
  }

  // --- Boxes 4-5: deferred pairing over the remaining Local banks. A lone
  // pending core has nobody left to pair with.
  while (pending.size() > 1) {
    const Pending* hungry = nullptr;
    double hungry_mu = 0.0;
    for (const Pending& entry : pending) {
      if (entry.spill.extra != 0 && entry.spill.utility > hungry_mu) {
        hungry = &entry;
        hungry_mu = entry.spill.utility;
      }
    }
    // No pending core benefits from more capacity: everyone keeps the
    // private Local bank.
    if (hungry == nullptr) break;

    // Overflow into an adjacent Local region: resolve the ideal pair now
    // (Box 5 - "make the best pairing choice once it is decided a processor
    // should receive a fraction of an adjacent Local bank").
    const CoreId first = hungry->core;
    std::optional<CoreId> partner;
    PairSplit partner_split;
    for (const Pending& candidate : pending) {
      if (candidate.core == first || !geometry.adjacent(first, candidate.core)) continue;
      const auto split =
          best_pair_split(curve_at(first), curve_at(candidate.core), 2 * bank_ways);
      if (!partner || split.combined_misses < partner_split.combined_misses) {
        partner = candidate.core;
        partner_split = split;
      }
    }
    // The hungry core and its partner are complete. Without a pending
    // neighbour the hungry core keeps its own bank.
    std::erase_if(pending, [&](const Pending& entry) {
      return entry.core == first || (partner && entry.core == *partner);
    });
    if (!partner) continue;

    ways[first] = partner_split.first_ways;
    ways[*partner] = 2 * bank_ways - partner_split.first_ways;
    result.pairs.push_back({first, *partner, partner_split.first_ways,
                            static_cast<WayCount>(2 * bank_ways - partner_split.first_ways)});
  }

  BACP_ASSERT(result.allocation.total() == geometry.total_ways(),
              "bank-aware allocation must cover the cache");
  return result;
}

}  // namespace

BankAwareCapacity bank_aware_capacity(const CmpGeometry& geometry,
                                      std::span<const msa::MissRatioCurve> curves) {
  return bank_aware_capacity_impl(
      geometry, curves.size(),
      [&](CoreId core) -> const msa::MissRatioCurve& { return curves[core]; });
}

BankAwareCapacity bank_aware_capacity(
    const CmpGeometry& geometry,
    std::span<const msa::MissRatioCurve* const> curves) {
  return bank_aware_capacity_impl(
      geometry, curves.size(),
      [&](CoreId core) -> const msa::MissRatioCurve& { return *curves[core]; });
}

BankAwareResult bank_aware_lowering(const CmpGeometry& geometry,
                                    BankAwareCapacity capacity) {
  const WayCount bank_ways = geometry.ways_per_bank;
  const auto& center_count = capacity.center_banks_per_core;
  BACP_ASSERT(center_count.size() == geometry.num_cores,
              "capacity decision core count mismatch");

  BankAwareResult result;
  result.allocation = std::move(capacity.allocation);
  result.pairs = std::move(capacity.pairs);

  // --- Lowering: pick physical Center banks nearest each holder, then
  // emit per-bank way masks.
  result.center_banks_of_core.assign(geometry.num_cores, {});
  {
    std::vector<bool> bank_taken(geometry.num_banks, false);
    // Greedy nearest-bank matching, heaviest holders first, keeps partitions
    // physically compact (low NoC hop counts).
    std::vector<CoreId> order(geometry.num_cores);
    for (CoreId core = 0; core < geometry.num_cores; ++core) order[core] = core;
    std::sort(order.begin(), order.end(), [&](CoreId a, CoreId b) {
      return center_count[a] != center_count[b] ? center_count[a] > center_count[b]
                                                : a < b;
    });
    for (const CoreId core : order) {
      for (std::uint32_t k = 0; k < center_count[core]; ++k) {
        BankId best_bank = kInvalidBank;
        std::uint32_t best_distance = 0;
        for (BankId bank = geometry.num_cores; bank < geometry.num_banks; ++bank) {
          if (bank_taken[bank]) continue;
          const std::uint32_t column = bank - geometry.num_cores;
          const std::uint32_t distance =
              column > core ? column - core : core - column;
          if (best_bank == kInvalidBank || distance < best_distance) {
            best_bank = bank;
            best_distance = distance;
          }
        }
        BACP_ASSERT(best_bank != kInvalidBank, "ran out of center banks");
        bank_taken[best_bank] = true;
        result.center_banks_of_core[core].push_back(best_bank);
      }
    }
  }

  auto& masks = result.assignment.way_masks;
  masks.assign(geometry.num_banks, std::vector<CoreMask>(geometry.ways_per_bank, 0));
  result.assignment.banks_of_core.assign(geometry.num_cores, {});

  auto grant_ways = [&](BankId bank, WayIndex first, WayCount count, CoreId core) {
    if (count == 0) return;
    for (WayIndex way = first; way < first + count; ++way) {
      BACP_DASSERT(masks[bank][way] == 0, "way granted twice");
      masks[bank][way] = core_bit(core);
    }
    result.assignment.banks_of_core[core].push_back(bank);
  };

  std::vector<bool> local_done(geometry.num_cores, false);
  for (const auto& pair : result.pairs) {
    // The pair's two Local banks hold first_ways + second_ways ways; fill
    // the first core's ways from its own bank outward (Fig. 5 layout).
    const BankId bank_a = geometry.local_bank(pair.first);
    const BankId bank_b = geometry.local_bank(pair.second);
    const WayCount in_own = std::min(pair.first_ways, bank_ways);
    const WayCount spill = pair.first_ways - in_own;
    grant_ways(bank_a, 0, in_own, pair.first);
    grant_ways(bank_a, in_own, bank_ways - in_own, pair.second);
    grant_ways(bank_b, 0, spill, pair.first);
    grant_ways(bank_b, spill, bank_ways - spill, pair.second);
    local_done[pair.first] = true;
    local_done[pair.second] = true;
  }
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    if (!local_done[core]) grant_ways(geometry.local_bank(core), 0, bank_ways, core);
    for (const BankId bank : result.center_banks_of_core[core]) {
      grant_ways(bank, 0, bank_ways, core);
    }
  }

  result.assignment.validate_against(geometry, result.allocation);
  return result;
}

BankAwareResult bank_aware_partition(const CmpGeometry& geometry,
                                     std::span<const msa::MissRatioCurve> curves) {
  return bank_aware_lowering(geometry, bank_aware_capacity(geometry, curves));
}

}  // namespace bacp::partition
