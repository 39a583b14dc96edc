#pragma once

#include <optional>
#include <span>
#include <vector>

#include "partition/partition_types.hpp"

namespace bacp::partition {

/// Diagnostics of one Bank-aware run (used by tests, the Table III bench
/// and the epoch reporter).
struct BankAwareResult {
  Allocation allocation;
  BankAssignment assignment;

  /// Center banks granted to each core (physical ids), nearest-first.
  std::vector<std::vector<BankId>> center_banks_of_core;

  /// Local-bank sharing pairs resolved in Boxes 4/5, with the split chosen
  /// (ways of the first / second core out of the pair's 16).
  struct Pair {
    CoreId first = kInvalidCore;
    CoreId second = kInvalidCore;
    WayCount first_ways = 0;
    WayCount second_ways = 0;
  };
  std::vector<Pair> pairs;
};

/// Capacity-phase output (Boxes 1-5): the way allocation plus the decisions
/// the lowering needs to realize it. Consumers that only compare projected
/// misses (the Monte-Carlo trial loop) stop here and skip the per-bank mask
/// construction entirely.
struct BankAwareCapacity {
  Allocation allocation;

  /// Center banks granted per core (counts only; physical ids are chosen by
  /// the lowering).
  std::vector<std::uint32_t> center_banks_per_core;

  /// Local-bank sharing pairs resolved in Boxes 4/5.
  std::vector<BankAwareResult::Pair> pairs;
};

/// The capacity phase of the paper's Bank-aware assignment algorithm
/// (Section III-B/C, Fig. 6), honouring the three banking rules:
///   1. Center banks are assigned whole to a single core;
///   2. any core holding Center banks also owns its full Local bank;
///   3. Local banks may be way-shared, but only with the adjacent core.
///
/// Flow: Center banks are handed out one at a time to the core with the
/// maximum Marginal Utility of one more full bank (each core is presumed to
/// own its Local bank during these comparisons, and the 9/16 capacity clamp
/// applies). Cores that received Center banks are then marked complete; the
/// remaining cores resolve their Local banks by deferred pairing — a core
/// whose Marginal Utility demands ways beyond its own Local bank is paired
/// with whichever adjacent incomplete core yields minimal combined misses
/// under the pair's optimal 16-way split.
///
/// Results are bit-identical to recomputing every utility each round:
/// - Boxes 1-2 keep each core's multi-bank lookahead as a prefix maximum
///   over the bank count and rescan only the round's winner. A loser's
///   ways do not change and its headroom only shrinks as Center banks run
///   out, so its prefix maximum at the smaller headroom is the value a
///   rescan would compute.
/// - Boxes 4-5 compute each pending core's utility of growing past its
///   Local bank once: its ways do not change until it is paired.
BankAwareCapacity bank_aware_capacity(const CmpGeometry& geometry,
                                      std::span<const msa::MissRatioCurve> curves);

/// Pointer-view overload for hot sweeps: identical algorithm, no curve
/// copies.
BankAwareCapacity bank_aware_capacity(
    const CmpGeometry& geometry,
    std::span<const msa::MissRatioCurve* const> curves);

/// Lowering of a capacity decision onto physical banks: picks the Center
/// banks nearest each holder (greedy, heaviest holders first, for compact
/// partitions / low NoC hop counts) and emits per-bank way masks, validated
/// against the allocation.
BankAwareResult bank_aware_lowering(const CmpGeometry& geometry,
                                    BankAwareCapacity capacity);

/// Capacity phase + lowering in one call (the original full-pipeline entry
/// point; epoch control and the Table III bench still use this).
BankAwareResult bank_aware_partition(const CmpGeometry& geometry,
                                     std::span<const msa::MissRatioCurve> curves);

}  // namespace bacp::partition
