#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bacp::audit {
class CacheAuditor;
class NucaAuditor;
}  // namespace bacp::audit

namespace bacp::snapshot {
class Writer;
class Reader;
}  // namespace bacp::snapshot

namespace bacp::cache {

/// One cache line's bookkeeping. Addresses are block-granular, so the full
/// block address doubles as the tag (the set index is re-derivable).
struct Line {
  BlockAddress block = 0;
  CoreId allocator = kInvalidCore;  ///< core whose allocation brought it in
  bool valid = false;
  bool dirty = false;
};

/// Result of a lookup or fill.
struct LookupResult {
  bool hit = false;
  WayIndex way = 0;
};

struct FillResult {
  WayIndex way = 0;
  std::optional<Line> evicted;  ///< set when a valid line was displaced
};

/// Set-associative cache with true LRU and the paper's *vertical fine-grain
/// cache-way partitioning* (Section III-B, after Iyer's CQoS): every way
/// carries a core mask, identical across all sets of the structure, and a
/// modified LRU victim policy only ever replaces a line in a way the
/// requesting core owns — so workloads in disjoint ways cannot evict each
/// other's data.
///
/// Storage is structure-of-arrays: probes scan a contiguous per-set tag
/// column (one or two cache lines for an 8-way set) instead of striding
/// over Line structs, validity/dirtiness are per-set bitmasks, and recency
/// is an intrusive doubly-linked list per set so touch-to-MRU, demote-to-LRU
/// and victim selection are O(1)/O(ways) pointer updates with no
/// vector shuffling. Behavior is bit-identical to the straightforward
/// `vector<Line>` + `vector<WayIndex> lru_order` formulation (see
/// tests/test_equivalence.cpp, which replays both against random streams).
class SetAssocCache {
 public:
  struct Config {
    std::string name = "cache";
    std::uint32_t num_sets = 64;
    WayCount ways = 8;
    std::uint32_t num_cores = 1;  ///< cores that may own ways
  };

  explicit SetAssocCache(const Config& config);

  /// LRU-updating lookup. On a hit the line moves to MRU and `is_write`
  /// marks it dirty. A hit is legal in *any* way (partitioning restricts
  /// replacement, not lookup — exactly as in the paper).
  LookupResult access(BlockAddress block, CoreId core, bool is_write);

  /// Installs a block for `core`, evicting (modified-LRU) from the ways the
  /// core owns. Precondition: the block is not present and the core owns at
  /// least one way.
  FillResult fill(BlockAddress block, CoreId core, bool dirty);

  /// access() hit path when the caller already knows the way the block
  /// occupies (e.g. from a DNUCA residency row): moves the line to MRU and
  /// applies the write's dirty bit — identical side effects to a hitting
  /// access(), minus the tag scan.
  void touch_hit(BlockAddress block, WayIndex way, bool is_write);

  /// Marks the resident block in `way` dirty without touching LRU state
  /// (writeback updates arriving from the level above).
  void mark_dirty_at(BlockAddress block, WayIndex way);

  /// invalidate() with the way already known. Precondition: the line is
  /// valid and holds `block`.
  Line invalidate_at(BlockAddress block, WayIndex way);

  /// Non-perturbing presence check.
  bool probe(BlockAddress block) const;

  /// True when `way` of `block`'s set holds `block` as a valid line: the
  /// one-way probe that confirms a D-NUCA partial-tag match.
  bool holds_at(BlockAddress block, WayIndex way) const {
    const std::uint32_t set = set_index(block);
    return tags_[line_index(set, way)] == block && ((meta_[set].valid >> way) & 1) != 0;
  }

  /// Removes a block if present; returns its prior contents.
  std::optional<Line> invalidate(BlockAddress block);

  /// Least-recently-used valid line of the set that holds `block`'s set
  /// index, restricted to ways owned by `core`. Empty if all such ways
  /// are invalid.
  std::optional<Line> lru_line_for_core(BlockAddress block, CoreId core) const;

  /// Replaces the per-way core masks. Resident lines are untouched: after a
  /// repartition, stale data in reassigned ways is displaced naturally by
  /// the new owner's fills (paper Section III-B).
  void set_way_partition(const std::vector<CoreMask>& masks);
  const std::vector<CoreMask>& way_partition() const { return way_masks_; }

  /// Number of ways owned by `core`.
  WayCount ways_owned(CoreId core) const;

  const Config& config() const { return config_; }

  /// Count of valid lines (for occupancy tests).
  std::uint64_t valid_lines() const;

  /// Serializes the full mutable state (lines, recency lists, partition
  /// masks) for warm-state snapshots. Restore asserts the
  /// snapshot's geometry echo matches this cache's configuration; identical
  /// state always serializes to identical bytes.
  void save_state(snapshot::Writer& writer) const;
  void restore_state(snapshot::Reader& reader);

  /// Snapshot of every valid line (invariant checks and debugging; O(size)).
  std::vector<Line> resident_lines() const;

  /// Calls fn(block, way) for every valid line, set by set, without
  /// building a list (the D-NUCA residency rebuild on restore).
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (std::uint32_t set = 0; set < config_.num_sets; ++set) {
      for (std::uint64_t valid = meta_[set].valid; valid != 0; valid &= valid - 1) {
        const auto way = static_cast<WayIndex>(std::countr_zero(valid));
        fn(tags_[line_index(set, way)], way);
      }
    }
  }

  std::uint32_t set_index(BlockAddress block) const {
    return static_cast<std::uint32_t>(block & (config_.num_sets - 1));
  }

 private:
  /// The structural auditor reads raw link bytes and metadata bitmasks;
  /// the test peer plants corruptions for the auditor's kill-tests. Only
  /// these two may bypass the public API.
  friend class audit::CacheAuditor;
  friend class audit::NucaAuditor;  // reads per-slot lines for residency checks
  friend struct CacheTestPeer;

  /// Intrusive-list terminator ("no way"); fits the byte-wide link arrays.
  static constexpr std::uint8_t kNil = 0xFF;

  /// One set's bookkeeping, packed so an access touches a single cache
  /// line of metadata: validity/dirtiness bitmasks (bit w == way w) plus
  /// the recency list's endpoints (head == MRU, tail == LRU).
  struct SetMeta {
    std::uint64_t valid = 0;
    std::uint64_t dirty = 0;
    std::uint8_t head = 0;
    std::uint8_t tail = 0;
  };

  std::size_t line_index(std::uint32_t set, WayIndex way) const {
    return std::size_t{set} * config_.ways + way;
  }
  std::size_t link_index(std::uint32_t set, WayIndex way) const {
    return (std::size_t{set} * config_.ways + way) * 2;
  }
  Line line_at(std::uint32_t set, WayIndex way) const;
  void detach(std::uint32_t set, WayIndex way);
  void push_mru(std::uint32_t set, WayIndex way);
  void push_lru(std::uint32_t set, WayIndex way);
  void touch_mru(std::uint32_t set, WayIndex way);
  std::optional<LookupResult> find(BlockAddress block) const;
  void rebuild_owned_ways();

  Config config_;
  // Per-line columns (num_sets * ways, way-major within a set). Tags of one
  // set are contiguous so the probe loop reads a single cache line or two.
  std::vector<BlockAddress> tags_;
  std::vector<CoreId> allocators_;
  std::vector<SetMeta> meta_;
  // Per-set intrusive recency list: byte-wide prev/next pairs, interleaved
  // ([link_index + 0] == prev, [+ 1] == next) so one set's whole list is
  // 2 * ways contiguous bytes.
  std::vector<std::uint8_t> links_;
  std::vector<CoreMask> way_masks_;
  // Per-core bitmask of owned ways, derived from way_masks_ so the fill
  // path finds "first invalid owned way" with one countr_zero.
  // NOLINTNEXTLINE(bacp-snapshot-fields): derived from way_masks_; rebuilt by rebuild_owned_ways() on restore
  std::vector<std::uint64_t> owned_ways_;
};

}  // namespace bacp::cache
