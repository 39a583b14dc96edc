#include "msa/stack_profiler.hpp"

#include <algorithm>
#include <cstring>

#include "cache/partial_tag.hpp"
#include "common/assert.hpp"
#include "snapshot/codec.hpp"

namespace bacp::msa {

namespace {

std::size_t num_stacks(const ProfilerConfig& config) {
  const std::uint32_t sampling = std::max(1u, config.set_sampling);
  return config.num_sets / sampling + (config.num_sets % sampling ? 1 : 0);
}

}  // namespace

StackProfiler::StackProfiler(const ProfilerConfig& config)
    : config_(config),
      histogram_(static_cast<std::size_t>(config.profiled_ways) + 1),
      stack_entries_(num_stacks(config) * config.profiled_ways, 0),
      stack_sizes_(num_stacks(config), 0) {
  BACP_ASSERT(is_pow2(config_.num_sets), "num_sets must be a power of two");
  BACP_ASSERT(config_.set_sampling >= 1, "set_sampling must be >= 1");
  BACP_ASSERT(config_.profiled_ways >= 1, "profiled_ways must be >= 1");
  set_shift_ = log2_floor(config_.num_sets);
  set_mask_ = config_.num_sets - 1;
  sample_is_pow2_ = is_pow2(config_.set_sampling);
  sample_mask_ = config_.set_sampling - 1;
}

std::uint32_t StackProfiler::stored_tag(BlockAddress block) const {
  // Not used for full tags; callers branch on partial_tag_bits.
  return cache::partial_tag(block >> set_shift_, config_.partial_tag_bits);
}

void StackProfiler::observe(BlockAddress block) {
  ++observed_;
  const auto set = static_cast<std::uint32_t>(block & set_mask_);
  if (!is_sampled_set(set)) return;
  ++sampled_;

  const std::uint64_t entry =
      config_.partial_tag_bits == 0
          ? (block >> set_shift_)
          : static_cast<std::uint64_t>(stored_tag(block));

  const std::size_t stack_index = set / config_.set_sampling;
  std::uint64_t* stack = stack_entries_.data() + stack_index * config_.profiled_ways;
  const std::uint32_t size = stack_sizes_[stack_index];

  const std::uint64_t* hit = std::find(stack, stack + size, entry);
  if (hit != stack + size) {
    // Hit at `depth`: move-to-front shifts the shallower entries down one.
    const auto depth = static_cast<std::uint32_t>(hit - stack);
    histogram_.increment(depth);
    std::memmove(stack + 1, stack, depth * sizeof(std::uint64_t));
  } else {
    // Miss: everything shifts down; the LRU entry falls off a full stack.
    histogram_.increment(config_.profiled_ways);
    const std::uint32_t new_size = std::min(size + 1, config_.profiled_ways);
    std::memmove(stack + 1, stack, (new_size - 1) * sizeof(std::uint64_t));
    stack_sizes_[stack_index] = new_size;
  }
  stack[0] = entry;
}

MissRatioCurve StackProfiler::curve() const {
  const auto raw = MissRatioCurve::from_histogram(histogram_);
  // Scale back up by the sampling factor: 1-in-N sampling sees 1/N of the
  // stream, and curves must carry absolute (estimated) miss counts so the
  // allocator can weight cores by intensity.
  return raw.scaled(static_cast<double>(config_.set_sampling));
}

void StackProfiler::decay() { histogram_.decay_halve(); }

void StackProfiler::clear() {
  histogram_.clear();
  std::fill(stack_sizes_.begin(), stack_sizes_.end(), 0);
  observed_ = 0;
  sampled_ = 0;
}

void StackProfiler::save_state(snapshot::Writer& writer) const {
  writer.u32(config_.num_sets);
  writer.u32(config_.set_sampling);
  writer.u32(config_.partial_tag_bits);
  writer.u32(config_.profiled_ways);
  writer.scalars(histogram_.bins());
  writer.scalars(std::span<const std::uint64_t>(stack_entries_));
  writer.scalars(std::span<const std::uint32_t>(stack_sizes_));
  writer.u64(observed_);
  writer.u64(sampled_);
}

void StackProfiler::restore_state(snapshot::Reader& reader) {
  BACP_ASSERT(reader.u32() == config_.num_sets, "snapshot num_sets mismatch");
  BACP_ASSERT(reader.u32() == config_.set_sampling, "snapshot set_sampling mismatch");
  BACP_ASSERT(reader.u32() == config_.partial_tag_bits,
              "snapshot partial_tag_bits mismatch");
  BACP_ASSERT(reader.u32() == config_.profiled_ways, "snapshot profiled_ways mismatch");
  // Rebuild the histogram through its public interface so its total/bins
  // invariant holds by construction.
  const std::vector<std::uint64_t> bins = reader.scalars<std::uint64_t>();
  BACP_ASSERT(bins.size() == histogram_.num_bins(), "snapshot histogram shape mismatch");
  histogram_.clear();
  for (std::size_t bin = 0; bin < bins.size(); ++bin) {
    if (bins[bin] != 0) histogram_.increment(bin, bins[bin]);
  }
  reader.scalars_into(std::span<std::uint64_t>(stack_entries_));
  reader.scalars_into(std::span<std::uint32_t>(stack_sizes_));
  observed_ = reader.u64();
  sampled_ = reader.u64();
}

}  // namespace bacp::msa
