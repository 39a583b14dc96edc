#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "trace/access.hpp"
#include "trace/workload_model.hpp"

namespace bacp::snapshot {
class Writer;
class Reader;
}  // namespace bacp::snapshot

namespace bacp::audit {
class ComponentAuditor;
}  // namespace bacp::audit

namespace bacp::trace {

/// Geometry knobs for the synthetic stream. Defaults match the baseline L2
/// viewed as a 128-way-equivalent cache: 16 MB / 64 B / 128 ways = 2048 sets.
struct GeneratorConfig {
  std::uint32_t num_sets = 2048;  ///< per-set recency lists
  WayCount max_depth = 128;       ///< deepest modelled stack distance
  CoreId core = 0;                ///< stamped into produced accesses
};

/// Produces an L2 reference stream whose per-set LRU stack-distance
/// histogram converges to the workload model's distribution — by
/// construction, not by calibration:
///
///   1. pick a set uniformly at random;
///   2. sample a stack depth d from the model's distribution;
///   3. if d <= live blocks in that set, re-touch the d-th most recently
///      used block (and move it to MRU), else touch a fresh block.
///
/// Because the MSA profiler measures exactly these per-set LRU depths, the
/// profiler's histogram over the generated stream is a consistent estimator
/// of the model — the property the test suite verifies and the property the
/// paper's entire mechanism rests on.
class SyntheticTraceGenerator {
 public:
  /// A block's per-core unique id, the middle field of its address (see
  /// fresh_block). Recency rings store ids, not addresses.
  using BlockId = std::uint32_t;
  /// Ids a generator can hand out: fresh_block fails closed at this count.
  static constexpr std::uint64_t kBlockIdLimit = std::uint64_t{1} << 32;

  SyntheticTraceGenerator(const WorkloadModel& model, const GeneratorConfig& config,
                          std::uint64_t seed);

  /// Next access in the stream. Never fails; streams are unbounded.
  /// Must not be called while a next_batch() is outstanding (see
  /// truncate_batch).
  MemoryAccess next();

  /// Fills `batch` with the next `n` accesses (n in [1, kMaxSize]),
  /// advancing generator state exactly as n scalar next() calls would. An
  /// undo log is recorded so the unconsumed suffix can be rewound; until
  /// the batch is either fully consumed (the next next_batch() call) or
  /// truncated, next()/switch_model()/save_state() are off limits.
  void next_batch(AccessBatch& batch, std::uint32_t n);

  /// Rewinds the most recent next_batch() so generator state becomes
  /// exactly what `consumed` scalar next() calls from the batch's start
  /// would have produced — byte-identical rings, RNG state and block
  /// counter. The caller flushes unconsumed buffered accesses this way
  /// before any snapshot, model switch or scalar consumption, so batching
  /// never leaks into simulated state. No-op valid only once per batch.
  void truncate_batch(std::uint32_t consumed);

  /// True while a next_batch() has not yet been completed or truncated.
  bool batch_outstanding() const { return live_batch_; }

  /// Switches the workload's reuse structure mid-stream (a program phase
  /// change): the stack-distance distribution and write mix follow the new
  /// model immediately, while the resident footprint (recency lists) stays
  /// — exactly like a real phase boundary, where the old data is still in
  /// memory but the reuse pattern over it changes.
  void switch_model(const WorkloadModel& model);

  const WorkloadModel& model() const { return *model_; }
  const GeneratorConfig& config() const { return config_; }

  /// Number of distinct blocks ever touched (footprint so far).
  std::uint64_t blocks_allocated() const { return next_block_id_; }

  /// Serializes the model name, RNG state, the per-set live windows of the
  /// recency rings and the block counter. A window is written MRU first, as
  /// 64-bit block addresses, behind the set sizes and the total live count;
  /// ring heads and dead slots are not state (no access reads them), so a
  /// sampled boundary costs its live entries, not num_sets x ring capacity.
  /// Restore asserts the geometry echo, every size <= max_depth, the live
  /// count, that each entry decodes to this core and its own set with an id
  /// below 2^32, and a block counter of at most 2^32. It lays each window at
  /// the ring's end (the layout of a set that never wrapped) and re-resolves
  /// the model by name from the SPEC2000 registry (the sampler is rebuilt
  /// deterministically).
  void save_state(snapshot::Writer& writer) const;
  void restore_state(snapshot::Reader& reader);

 private:
  friend class audit::ComponentAuditor;
  friend struct GeneratorTestPeer;  ///< mutation hooks for the audit kill-tests

  /// Undo record for one batched access, applied in reverse order by
  /// truncate_batch. A fresh insert (depth == kUndoFresh) restores the
  /// slot the insert overwrote: when the set is full and the ring capacity
  /// equals max_depth (any power-of-two depth, production's 128 included),
  /// that slot held the LRU entry, which the rewind must bring back. Any
  /// other overwritten slot was dead, so it is neither read nor restored.
  /// A re-touch at depth d runs the inverse rotation.
  struct UndoRecord {
    std::uint32_t set = 0;
    std::uint32_t depth = 0;
    std::uint32_t old_size = 0;
    BlockId overwritten = 0;
  };
  static constexpr std::uint32_t kUndoFresh = 0xFFFFFFFFu;

  BlockId fresh_block();
  BlockAddress block_address(BlockId id, std::uint32_t set) const;
  template <bool Record>
  MemoryAccess produce();
  void undo(const UndoRecord& record);

  const WorkloadModel* model_;  // non-owning; registry outlives generators
  GeneratorConfig config_;
  common::Rng rng_;
  // NOLINTNEXTLINE(bacp-snapshot-fields): rebuilt deterministically from the model on restore (see save_state doc)
  common::DiscreteSampler depth_sampler_;
  // Per-set MRU-first recency lists of block ids stored as ring buffers in
  // one flat array (set s owns the ring_capacity_-sized stride starting at
  // s * ring_capacity_; logical depth d lives at (head + d) & ring_mask_).
  // A cold insert is head-decrement + one store instead of shifting the
  // whole list; a depth-d re-touch shifts only the d entries above it.
  // Only a set's live window is ever read, so the array is allocated
  // uninitialized and dead slots keep whatever they held.
  std::unique_ptr<BlockId[]> recency_ids_;
  std::vector<std::uint32_t> recency_heads_;
  std::vector<std::uint32_t> recency_sizes_;
  // NOLINTNEXTLINE(bacp-snapshot-fields): derived geometry (bit_ceil of max_depth)
  std::uint32_t ring_capacity_ = 0;  ///< bit_ceil(max_depth)
  // NOLINTNEXTLINE(bacp-snapshot-fields): derived geometry, as above
  std::uint32_t ring_mask_ = 0;
  std::uint64_t next_block_id_ = 0;
  // Batch rewind bookkeeping: the RNG/block-counter state at the last
  // next_batch() plus one undo record per produced access (capacity
  // reserved up front, so steady-state batching never allocates).
  // NOLINTNEXTLINE(bacp-snapshot-fields): batch-rewind bookkeeping; generators are quiesced (no live batch) at any snapshot
  std::vector<UndoRecord> undo_log_;
  // NOLINTNEXTLINE(bacp-snapshot-fields): batch-rewind bookkeeping, as above
  std::array<std::uint64_t, 4> batch_rng_state_{};
  // NOLINTNEXTLINE(bacp-snapshot-fields): batch-rewind bookkeeping, as above
  std::uint64_t batch_start_block_id_ = 0;
  bool live_batch_ = false;
};

}  // namespace bacp::trace
