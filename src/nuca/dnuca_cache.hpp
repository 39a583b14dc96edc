#pragma once

#include <span>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.hpp"
#include "common/inline_vec.hpp"
#include "common/types.hpp"
#include "noc/noc.hpp"
#include "obs/metrics.hpp"
#include "partition/partition_types.hpp"

namespace bacp::audit {
class NucaAuditor;
}  // namespace bacp::audit

namespace bacp::snapshot {
class Writer;
class Reader;
}  // namespace bacp::snapshot

namespace bacp::nuca {

/// How a core's multi-bank partition behaves as one logical cache — the
/// three aggregation schemes of paper Fig. 4, plus the paper's mitigation
/// (Fig. 4c: cascading limited to two levels over a Parallel group).
enum class AggregationKind {
  /// Fig. 4 "Parallel": a line may live in any bank of the partition;
  /// allocation is round-robin; lookups probe the partition-wide partial-tag
  /// directory (wider lookups, low migration). The paper's choice.
  Parallel,
  /// Fig. 4 "Address Hash": the line's address selects the bank. Lowest
  /// lookup cost; requires symmetric bank capacities.
  AddressHash,
  /// Fig. 4a/b "Cascade": banks chained head-to-tail as one deep LRU;
  /// fills enter at the head, evictions demote down the chain, hits promote
  /// back to the head. Most flexible, prohibitive migration rate.
  Cascade,
  /// Fig. 4c: cascading limited to two levels — the Local bank in front of
  /// a Parallel group of the remaining banks.
  TwoLevelCascade,
  /// The unpartitioned CMP-DNUCA baseline (Beckmann & Wood's shared NUCA
  /// with gradual migration, which the paper's Section II baseline builds
  /// on): lines are placed by address hash over all banks and migrate one
  /// bank closer to the requesting core on each hit (swapping with that
  /// bank's LRU victim). Each core drags its hot data toward its own Local
  /// bank, so under multiprogrammed sharing the cores' working sets
  /// continuously displace each other — the destructive interference the
  /// paper's No-partition baseline exhibits.
  SharedDnuca,
};

const char* to_string(AggregationKind kind);

struct DnucaConfig {
  partition::CmpGeometry geometry;
  std::uint32_t sets_per_bank = 2048;  ///< 1 MB bank: 2048 sets x 8 ways x 64 B
  AggregationKind aggregation = AggregationKind::Parallel;
};

/// Outcome of one L2 access, including everything the system simulator
/// needs to account timing and inclusion. Plain value with inline storage:
/// the access path allocates nothing.
struct L2AccessOutcome {
  bool hit = false;
  BankId bank = kInvalidBank;  ///< serving bank (hit) or fill bank (miss)
  Cycle ready_at = 0;          ///< bank response time (miss: when the miss is known)
  /// The line that left the L2 this access, if any. An access runs at most
  /// one demotion chain, and a chain ends at its first eviction that is
  /// not demoted, so no access evicts more than one line.
  common::InlineVec<cache::Line, 1> evicted;
};

struct DnucaStats {
  std::vector<std::uint64_t> hits;    // per core
  std::vector<std::uint64_t> misses;  // per core
  std::uint64_t promotions = 0;       // cascade hit-promotions
  std::uint64_t demotions = 0;        // cascade demotion moves
  std::uint64_t directory_lookups = 0;
  std::uint64_t offview_hits = 0;     // hits outside the core's partition
                                      // (repartition transients)
  std::uint64_t total_hits() const;
  std::uint64_t total_misses() const;
};

/// Exports under "nuca.": live hit/miss totals, promotions, demotions,
/// directory_lookups and offview_hits counters. Live counters cover every
/// access in the window (including post-quota overrun) — the per-quota
/// accounting lives in sim::SystemResults.
void export_stats(const DnucaStats& stats, obs::Registry& registry);

/// The 16-bank DNUCA L2 (paper Section II): per-bank way-partitioned
/// 8-way caches plus the aggregation policy that welds each core's banks
/// into one partition. Timing is delegated to the NoC model.
///
/// Every block resides in at most one bank (all fill paths install only
/// non-resident blocks), and all banks share one set index, so a lookup
/// scans the block's residency row — one 16-bit partial tag per (bank, way)
/// of its set, the per-set directory of the paper's Parallel aggregation —
/// instead of probing bank after bank. The modelled directory-lookup
/// *accounting* is unchanged: it depends only on the aggregation scheme
/// and the found bank's position in the requester's view, not on how the
/// software locates the line.
class DnucaCache {
 public:
  DnucaCache(const DnucaConfig& config, noc::Noc& noc);

  /// Installs a partitioning plan: per-bank way masks plus the bank lists
  /// that define each core's partition view (nearest bank first). Resident
  /// lines are untouched.
  void apply_assignment(const partition::BankAssignment& assignment);

  /// Demand access: looks up the whole structure, fills on miss (the caller
  /// layers DRAM latency on top for misses) and returns evicted lines for
  /// inclusion handling.
  L2AccessOutcome access(BlockAddress block, CoreId core, bool is_write, Cycle now);

  /// Dirty-data update from an L1 writeback. Returns false if the block is
  /// no longer resident (caller forwards to memory).
  bool writeback_update(BlockAddress block);

  /// Whole-structure presence probe (tests / invariants).
  bool resident(BlockAddress block) const;
  BankId bank_of(BlockAddress block) const;

  const DnucaStats& stats() const { return stats_; }
  void clear_stats();

  const DnucaConfig& config() const { return config_; }
  const cache::SetAssocCache& bank(BankId id) const { return banks_.at(id); }
  const std::vector<BankId>& view_of(CoreId core) const { return views_.at(core); }

  /// Serializes all banks, the partition views, the fill cursors and
  /// statistics. The residency rows are not written: they are derived from
  /// the banks' valid lines, and restore rebuilds them (as it rebuilds the
  /// view positions). Restore asserts the geometry echo.
  void save_state(snapshot::Writer& writer) const;
  void restore_state(snapshot::Reader& reader);

 private:
  /// The structural auditor cross-checks the residency rows against bank
  /// contents; the test peer desyncs them for the auditor's kill-tests.
  friend class audit::NucaAuditor;
  friend struct NucaTestPeer;

  /// Sentinel for "bank not in this core's view".
  static constexpr std::uint32_t kNotInView = static_cast<std::uint32_t>(-1);

  /// Residency slots per 64-bit word of a row scan.
  static constexpr std::size_t kSlotsPerWord = 4;

  /// Where a resident block lives (bank kInvalidBank: nowhere). The way is
  /// exact, so hits, writebacks and migrations skip the bank's tag scan.
  struct Location {
    BankId bank = kInvalidBank;
    WayIndex way = 0;
  };

  /// `block`'s partial tag in its residency row; never 0, which marks an
  /// empty slot.
  static std::uint16_t partial_tag_of(BlockAddress block);

  /// Slots per residency row: one per (bank, way), rounded up to whole
  /// 64-bit words.
  std::size_t row_slots() const {
    const std::size_t slots =
        std::size_t{config_.geometry.num_banks} * config_.geometry.ways_per_bank;
    return (slots + kSlotsPerWord - 1) / kSlotsPerWord * kSlotsPerWord;
  }

  /// First slot of the residency row of `block`'s set.
  const std::uint16_t* row_of(BlockAddress block) const {
    return fingerprints_.data() + (block & (config_.sets_per_bank - 1)) * row_slots();
  }

  /// Writes `tag` (0: empty) into the (bank, way) slot of `block`'s row.
  void set_slot(BlockAddress block, BankId bank, WayIndex way, std::uint16_t tag) {
    fingerprints_[(block & (config_.sets_per_bank - 1)) * row_slots() +
                  std::size_t{bank} * config_.geometry.ways_per_bank + way] = tag;
  }

  /// Scans `block`'s row for its partial tag and confirms each match
  /// against the bank, so aliasing costs a probe, never a wrong answer.
  Location locate(BlockAddress block) const;

  /// bank.fill() that records `block` in the filled slot, which also
  /// retires the victim's tag (the victim held that slot).
  cache::FillResult fill_slot(BankId bank, BlockAddress block, CoreId core, bool dirty);

  /// bank.invalidate_at() that empties the line's slot.
  cache::Line take_line(BlockAddress block, Location at);

  /// Rewrites every row from the banks' valid lines.
  void rebuild_rows();

  /// Fills `block` into `bank_id` for `core`, cascading the displaced
  /// victim down `demotion_chain` (empty chain: the victim leaves the
  /// cache). Records a line that leaves the cache in `outcome`.
  void fill_with_demotion(BlockAddress block, CoreId core, bool dirty, BankId bank_id,
                          std::span<const BankId> demotion_chain, Cycle now,
                          L2AccessOutcome& outcome);

  /// Directory lookups an access by `core` costs when the line sits at
  /// `pos` in its view (kNotInView: a miss or an off-view hit).
  std::uint32_t lookup_cost(CoreId core, std::uint32_t pos) const;

  BankId pick_fill_bank(BlockAddress block, CoreId core);
  void promote_to_head(BlockAddress block, CoreId core, Location from, Cycle now,
                       L2AccessOutcome& outcome);
  void migrate_one_step(BlockAddress block, CoreId core, Location from, Cycle now);
  void rebuild_view_positions();

  std::uint32_t view_position(CoreId core, BankId bank) const {
    return view_pos_[std::size_t{core} * config_.geometry.num_banks + bank];
  }

  DnucaConfig config_;
  // NOLINTNEXTLINE(bacp-snapshot-fields): non-owning wiring; the Noc serializes itself
  noc::Noc* noc_;
  std::vector<cache::SetAssocCache> banks_;
  std::vector<std::vector<BankId>> views_;      // per core: banks with owned ways
  // NOLINTNEXTLINE(bacp-snapshot-fields): derived index over views_; rebuilt by rebuild_view_positions() on restore
  std::vector<std::uint32_t> view_pos_;         // core x bank -> index in view
  std::vector<std::size_t> round_robin_;        // per core: Parallel fill cursor
  // Residency rows, set-major (fingerprints_[set][bank][way]): a set's row
  // is row_slots() 16-bit partial tags, slot bank * ways_per_bank + way;
  // padding slots stay 0. A slot holds its line's tag while the line is
  // valid and 0 otherwise.
  // NOLINTNEXTLINE(bacp-snapshot-fields): derived from banks_' valid lines; rebuild_rows() on restore
  std::vector<std::uint16_t> fingerprints_;
  DnucaStats stats_;
};

}  // namespace bacp::nuca
