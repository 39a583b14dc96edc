#pragma once

#include <cstdint>

#include "common/flat_hash.hpp"
#include "common/types.hpp"

namespace bacp::audit {
class DirectoryAuditor;
}  // namespace bacp::audit

namespace bacp::snapshot {
class Writer;
class Reader;
}  // namespace bacp::snapshot

namespace bacp::coherence {

/// MOESI state of a block *at a particular L1*. The directory is the
/// authority; L1s are modelled as obedient caches (the simulator routes all
/// fills/evictions through the directory, so states can never diverge).
enum class MoesiState : std::uint8_t {
  Invalid,
  Shared,     ///< clean copy, others may share
  Exclusive,  ///< clean sole copy
  Owned,      ///< dirty copy, responsible for data, others may share
  Modified,   ///< dirty sole copy
};

const char* to_string(MoesiState state);

/// Messages/side-effects one coherence event produced; the simulator turns
/// these into L1 invalidations and L2/DRAM writebacks.
struct CoherenceAction {
  std::uint32_t invalidations = 0;  ///< invalidate messages sent to L1s
  std::uint32_t interventions = 0;  ///< data forwarded from a dirty owner L1
  bool writeback_below = false;     ///< dirty data pushed to the level below
};

struct CoherenceStats {
  std::uint64_t read_fills = 0;
  std::uint64_t write_fills = 0;
  std::uint64_t upgrades = 0;         ///< write fill that found the S copy
  std::uint64_t invalidations = 0;
  std::uint64_t interventions = 0;
  std::uint64_t inclusion_recalls = 0;  ///< L1 copies recalled by L2 evictions
  std::uint64_t writebacks = 0;
};

/// Directory-based MOESI protocol for the inclusive L2 (the paper's memory
/// timing model uses "a detailed message-based model of the inter-chip
/// network using a MOESI cache coherence protocol"). One entry exists per
/// block with at least one L1 copy; sharer vectors are exact.
class MoesiDirectory {
 public:
  explicit MoesiDirectory(std::uint32_t num_cores);

  /// Pre-sizes the entry table for the expected number of simultaneously
  /// tracked blocks (at most the total L1 line count: an entry exists only
  /// while some L1 holds a copy). Keeps the steady-state load factor low —
  /// directory entries churn on every L1 fill/evict, and probe/backward-
  /// shift chains grow sharply as the table fills.
  void reserve(std::size_t blocks) { entries_.reserve(blocks); }

  /// L1 of `core` fills the block for a load.
  CoherenceAction on_l1_read_fill(BlockAddress block, CoreId core);

  /// L1 of `core` fills/upgrades the block for a store: all other copies
  /// are invalidated and the requestor becomes Modified.
  CoherenceAction on_l1_write_fill(BlockAddress block, CoreId core);

  /// L1 of `core` evicts its copy. `dirty` distinguishes PutM/PutO from a
  /// silent clean eviction.
  CoherenceAction on_l1_evict(BlockAddress block, CoreId core, bool dirty);

  /// The L2 evicted the block: inclusion recalls every L1 copy; a dirty
  /// owner's data must accompany the line to memory.
  CoherenceAction on_l2_evict(BlockAddress block);

  /// State of the block at `core` (Invalid if untracked).
  MoesiState state_at(BlockAddress block, CoreId core) const;

  /// Cores currently holding the block in L1.
  CoreMask sharers_of(BlockAddress block) const;

  std::size_t tracked_blocks() const { return entries_.size(); }
  const CoherenceStats& stats() const { return stats_; }
  void clear_stats() { stats_ = CoherenceStats{}; }

  /// Serializes every directory entry (in key order, so identical state is
  /// identical bytes). Restore asserts the core-count echo.
  void save_state(snapshot::Writer& writer) const;
  void restore_state(snapshot::Reader& reader);

 private:
  /// The structural auditor walks raw entries for state-legality checks;
  /// the test peer forges illegal states for the auditor's kill-tests.
  friend class audit::DirectoryAuditor;
  friend struct DirectoryTestPeer;

  /// Byte-wide owner id keeps Entry at 6 bytes so a directory hash slot
  /// (block + Entry + occupied flag) packs into 16 — four slots per cache
  /// line on a table that spans every L1-resident block.
  static constexpr std::uint8_t kNoOwner = 0xFF;

  struct Entry {
    CoreMask sharers = 0;
    std::uint8_t owner = kNoOwner;         ///< core in E/O/M, if any
    MoesiState owner_state = MoesiState::Invalid;
  };

  std::uint32_t num_cores_;
  // Open-addressing table: directory entries come and go on every L1
  // fill/evict, and std::unordered_map's node allocation churn on that path
  // was one of the hottest costs in the whole simulator.
  common::FlatHash64<Entry> entries_;
  // NOLINTNEXTLINE(bacp-snapshot-fields): measurement state, not warm state; System::restore_state re-arms it
  CoherenceStats stats_;
};

}  // namespace bacp::coherence
