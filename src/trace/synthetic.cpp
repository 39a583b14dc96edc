#include "trace/synthetic.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <string>

#include "common/assert.hpp"
#include "snapshot/codec.hpp"
#include "trace/spec2000.hpp"

namespace bacp::trace {

SyntheticTraceGenerator::SyntheticTraceGenerator(const WorkloadModel& model,
                                                 const GeneratorConfig& config,
                                                 std::uint64_t seed)
    : model_(&model),
      config_(config),
      rng_(seed, config.core),
      ring_capacity_(std::bit_ceil(std::uint32_t{config.max_depth})),
      ring_mask_(ring_capacity_ - 1) {
  BACP_ASSERT(config_.num_sets > 0, "generator needs at least one set");
  BACP_ASSERT(config_.max_depth >= 1, "generator needs max_depth >= 1");
  BACP_ASSERT(std::countr_zero(config_.num_sets) <= 52 - 32,
              "num_sets leaves no room for 32-bit block ids below the core stamp");
  recency_ids_ = std::make_unique_for_overwrite<BlockId[]>(
      std::size_t{config_.num_sets} * ring_capacity_);
  recency_heads_.assign(config_.num_sets, 0);
  recency_sizes_.assign(config_.num_sets, 0);
  const auto weights = model.stack_distance_weights(config_.max_depth);
  depth_sampler_ = common::DiscreteSampler(weights);
  undo_log_.reserve(AccessBatch::kMaxSize);
}

SyntheticTraceGenerator::BlockId SyntheticTraceGenerator::fresh_block() {
  // A wrapped id would alias a block that may still be live in a ring.
  BACP_ASSERT(next_block_id_ < kBlockIdLimit, "generator ran out of 32-bit block ids");
  return static_cast<BlockId>(next_block_id_++);
}

BlockAddress SyntheticTraceGenerator::block_address(BlockId id, std::uint32_t set) const {
  // Layout: | core (top 12b) | unique id | set index |. The low bits carry
  // the set so the simulated L2's index function places the block exactly
  // where the generator's recency bookkeeping assumes it lives.
  BACP_DASSERT(is_pow2(config_.num_sets), "num_sets must be a power of two");
  return (static_cast<std::uint64_t>(config_.core) << 52) |
         (std::uint64_t{id} << std::countr_zero(config_.num_sets)) | set;
}

void SyntheticTraceGenerator::switch_model(const WorkloadModel& model) {
  BACP_DASSERT(!live_batch_, "switch_model with an outstanding batch");
  model.validate();
  model_ = &model;
  depth_sampler_ =
      common::DiscreteSampler(model.stack_distance_weights(config_.max_depth));
}

void SyntheticTraceGenerator::reset_in_place(const WorkloadModel& model,
                                             std::uint64_t seed) {
  BACP_ASSERT(!live_batch_, "reset_in_place with an outstanding batch");
  model.validate();
  model_ = &model;
  rng_ = common::Rng(seed, config_.core);
  depth_sampler_ =
      common::DiscreteSampler(model.stack_distance_weights(config_.max_depth));
  std::fill(recency_heads_.begin(), recency_heads_.end(), 0);
  std::fill(recency_sizes_.begin(), recency_sizes_.end(), 0);
  next_block_id_ = 0;
  undo_log_.clear();
  batch_rng_state_.fill(0);
  batch_start_block_id_ = 0;
}

template <bool Record>
MemoryAccess SyntheticTraceGenerator::produce() {
  const auto set = static_cast<std::uint32_t>(rng_.next_below(config_.num_sets));
  BlockId* ring = recency_ids_.get() + std::size_t{set} * ring_capacity_;
  std::uint32_t& head = recency_heads_[set];
  std::uint32_t& size = recency_sizes_[set];

  const std::size_t depth_bin = depth_sampler_.sample(rng_);
  // depth_bin in [0, max_depth-1] => stack distance depth_bin + 1;
  // depth_bin == max_depth      => cold / beyond-depth access.
  BlockId id;
  if (depth_bin >= config_.max_depth || depth_bin >= size) {
    // Fresh block enters at MRU by retreating the head one slot; once the
    // list is full the LRU tail falls out of the live window implicitly.
    if constexpr (Record) {
      // The slot the insert takes is live only in a full ring (its LRU
      // entry); otherwise it is dead and its bytes are never read.
      const BlockId lru = size == ring_capacity_ ? ring[(head - 1) & ring_mask_] : 0;
      undo_log_.push_back(UndoRecord{set, kUndoFresh, size, lru});
    }
    id = fresh_block();
    head = (head - 1) & ring_mask_;
    ring[head] = id;
    size = std::min(size + 1, config_.max_depth);
  } else {
    // Re-touch at depth_bin: slide the depth_bin entries above it down one
    // slot and reinsert at MRU. One memmove when the stretch does not wrap.
    const std::uint32_t depth = static_cast<std::uint32_t>(depth_bin);
    if constexpr (Record) undo_log_.push_back(UndoRecord{set, depth, 0, 0});
    id = ring[(head + depth) & ring_mask_];
    if (head + depth < ring_capacity_) {
      std::memmove(ring + head + 1, ring + head, depth * sizeof(BlockId));
    } else {
      for (std::uint32_t i = depth; i > 0; --i) {
        ring[(head + i) & ring_mask_] = ring[(head + i - 1) & ring_mask_];
      }
    }
    ring[head] = id;
  }

  MemoryAccess access;
  access.block = block_address(id, set);
  access.core = config_.core;
  access.is_write = rng_.next_bool(model_->write_fraction);
  return access;
}

MemoryAccess SyntheticTraceGenerator::next() {
  BACP_DASSERT(!live_batch_, "scalar next() with an outstanding batch");
  return produce<false>();
}

void SyntheticTraceGenerator::next_batch(AccessBatch& batch, std::uint32_t n) {
  BACP_DASSERT(n >= 1 && n <= AccessBatch::kMaxSize, "batch size out of range");
  // Calling again while a batch is live means the caller fully consumed the
  // previous batch; its undo log is dead weight and is discarded here.
  undo_log_.clear();
  batch_rng_state_ = rng_.state();
  batch_start_block_id_ = next_block_id_;
  live_batch_ = true;
  for (std::uint32_t i = 0; i < n; ++i) batch.accesses[i] = produce<true>();
  batch.size = n;
}

void SyntheticTraceGenerator::undo(const UndoRecord& record) {
  BlockId* ring = recency_ids_.get() + std::size_t{record.set} * ring_capacity_;
  std::uint32_t& head = recency_heads_[record.set];
  if (record.depth == kUndoFresh) {
    // Inverse of a fresh insert: restore the overwritten slot (a full
    // ring's LRU entry; otherwise the slot turns dead again and the write
    // is never read), re-advance the head and restore the live count.
    ring[head] = record.overwritten;
    head = (head + 1) & ring_mask_;
    recency_sizes_[record.set] = record.old_size;
  } else {
    // Inverse rotation of a depth-d re-touch: the MRU slot's block returns
    // to depth d and the d entries above it slide back up one slot.
    const std::uint32_t depth = record.depth;
    const BlockId id = ring[head];
    if (head + depth < ring_capacity_) {
      std::memmove(ring + head, ring + head + 1, depth * sizeof(BlockId));
    } else {
      for (std::uint32_t i = 1; i <= depth; ++i) {
        ring[(head + i - 1) & ring_mask_] = ring[(head + i) & ring_mask_];
      }
    }
    ring[(head + depth) & ring_mask_] = id;
  }
}

void SyntheticTraceGenerator::truncate_batch(std::uint32_t consumed) {
  BACP_ASSERT(live_batch_, "truncate_batch without an outstanding batch");
  BACP_DASSERT(consumed <= undo_log_.size(), "consumed more than the batch held");
  // Rewind to the exact pre-batch state (rings, RNG, block counter), then
  // replay the consumed prefix scalar — landing precisely where `consumed`
  // next() calls would have.
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) undo(*it);
  rng_.set_state(batch_rng_state_);
  next_block_id_ = batch_start_block_id_;
  undo_log_.clear();
  live_batch_ = false;
  for (std::uint32_t i = 0; i < consumed; ++i) (void)produce<false>();
}

void SyntheticTraceGenerator::save_state(snapshot::Writer& writer) const {
  BACP_DASSERT(!live_batch_, "save_state with an outstanding batch");
  writer.u32(config_.num_sets);
  writer.u32(config_.max_depth);
  writer.u32(config_.core);
  // The model is a non-owning pointer into the SPEC2000 registry, which
  // outlives every generator; the name is the stable identity.
  writer.str(model_->name);
  for (const std::uint64_t word : rng_.state()) writer.u64(word);
  // Live windows only, MRU first, each id widened back to its block address.
  writer.scalars(std::span<const std::uint32_t>(recency_sizes_));
  std::uint64_t live = 0;
  for (const std::uint32_t size : recency_sizes_) live += size;
  writer.u64(live);
  std::vector<BlockAddress> window(config_.max_depth);
  for (std::uint32_t set = 0; set < config_.num_sets; ++set) {
    const BlockId* ring = recency_ids_.get() + std::size_t{set} * ring_capacity_;
    const std::uint32_t head = recency_heads_[set];
    const std::uint32_t size = recency_sizes_[set];
    for (std::uint32_t depth = 0; depth < size; ++depth) {
      window[depth] = block_address(ring[(head + depth) & ring_mask_], set);
    }
    writer.raw_scalars(std::span<const BlockAddress>(window.data(), size));
  }
  writer.u64(next_block_id_);
}

void SyntheticTraceGenerator::restore_state(snapshot::Reader& reader) {
  BACP_DASSERT(!live_batch_, "restore_state with an outstanding batch");
  BACP_ASSERT(reader.u32() == config_.num_sets, "snapshot num_sets mismatch");
  BACP_ASSERT(reader.u32() == config_.max_depth, "snapshot max_depth mismatch");
  BACP_ASSERT(reader.u32() == config_.core, "snapshot core id mismatch");
  const std::string model_name = reader.str();
  if (model_name != model_->name) switch_model(spec2000_by_name(model_name));
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = reader.u64();
  rng_.set_state(rng_state);
  reader.scalars_into(std::span<std::uint32_t>(recency_sizes_));
  std::uint64_t live = 0;
  for (const std::uint32_t size : recency_sizes_) {
    BACP_ASSERT(size <= config_.max_depth, "snapshot recency size above max_depth");
    live += size;
  }
  BACP_ASSERT(reader.u64() == live, "snapshot live recency count mismatch");
  // Windows land at the ring's end under head capacity - size, the layout
  // of a set that never wrapped: a window at slot 0 would wrap on its first
  // fresh insert and push later re-touches off the memmove path. The rest
  // of the ring is dead and keeps whatever it held. Each entry must read
  // core stamp | id << set_bits | set for this core and set with a 32-bit
  // id: xor-ing away its own block_address(0, set) leaves only id bits, and
  // then narrowing it to the id loses nothing.
  const auto set_bits = std::countr_zero(config_.num_sets);
  const std::uint64_t stamp_bits = ~((std::uint64_t{1} << 52) - 1) | (config_.num_sets - 1);
  const std::uint64_t id_bits = std::uint64_t{0xFFFFFFFF} << set_bits;
  std::vector<BlockAddress> window(config_.max_depth);
  for (std::uint32_t set = 0; set < config_.num_sets; ++set) {
    const std::uint32_t size = recency_sizes_[set];
    reader.raw_scalars_into(std::span<BlockAddress>(window.data(), size));
    const BlockAddress base = block_address(0, set);
    const std::uint32_t start = ring_capacity_ - size;
    BlockId* slots = recency_ids_.get() + std::size_t{set} * ring_capacity_ + start;
    const BlockAddress* entries = window.data();
    std::uint64_t diff = 0;
    for (std::uint32_t depth = 0; depth < size; ++depth) {
      diff |= entries[depth] ^ base;
      slots[depth] = static_cast<BlockId>(entries[depth] >> set_bits);
    }
    BACP_ASSERT((diff & stamp_bits) == 0, "snapshot recency entry outside its set or core");
    BACP_ASSERT((diff & ~id_bits) == 0, "snapshot recency entry id above 32 bits");
    recency_heads_[set] = start & ring_mask_;
  }
  next_block_id_ = reader.u64();
  BACP_ASSERT(next_block_id_ <= kBlockIdLimit, "snapshot block counter above 2^32");
}

}  // namespace bacp::trace
