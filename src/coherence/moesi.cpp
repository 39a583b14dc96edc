#include "coherence/moesi.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "snapshot/codec.hpp"

namespace bacp::coherence {

const char* to_string(MoesiState state) {
  switch (state) {
    case MoesiState::Invalid: return "I";
    case MoesiState::Shared: return "S";
    case MoesiState::Exclusive: return "E";
    case MoesiState::Owned: return "O";
    case MoesiState::Modified: return "M";
  }
  return "?";
}

MoesiDirectory::MoesiDirectory(std::uint32_t num_cores) : num_cores_(num_cores) {
  BACP_ASSERT(num_cores_ >= 1 && num_cores_ <= 32, "1..32 cores supported");
}

CoherenceAction MoesiDirectory::on_l1_read_fill(BlockAddress block, CoreId core) {
  BACP_DASSERT(core < num_cores_, "core out of range");
  ++stats_.read_fills;
  CoherenceAction action;
  Entry& entry = entries_.find_or_emplace(block);
  const CoreMask bit = core_bit(core);
  if ((entry.sharers & bit) != 0) return action;  // already has a copy

  if (entry.sharers == 0) {
    // Sole copy: grant Exclusive (silent-upgrade-friendly, as in MOESI).
    entry.sharers = bit;
    entry.owner = static_cast<std::uint8_t>(core);
    entry.owner_state = MoesiState::Exclusive;
    return action;
  }

  if (entry.owner != kNoOwner) {
    switch (entry.owner_state) {
      case MoesiState::Modified:
        // Dirty owner forwards data and transitions M -> O.
        entry.owner_state = MoesiState::Owned;
        action.interventions = 1;
        ++stats_.interventions;
        break;
      case MoesiState::Owned:
        action.interventions = 1;
        ++stats_.interventions;
        break;
      case MoesiState::Exclusive:
        // Clean owner degrades E -> S; data supplied by the L2.
        entry.owner = kNoOwner;
        entry.owner_state = MoesiState::Invalid;
        break;
      default:
        BACP_ASSERT(false, "owner in non-ownership state");
    }
  }
  entry.sharers |= bit;
  return action;
}

CoherenceAction MoesiDirectory::on_l1_write_fill(BlockAddress block, CoreId core) {
  BACP_DASSERT(core < num_cores_, "core out of range");
  ++stats_.write_fills;
  CoherenceAction action;
  Entry& entry = entries_.find_or_emplace(block);
  const CoreMask bit = core_bit(core);

  if ((entry.sharers & bit) != 0 && entry.sharers != bit) ++stats_.upgrades;

  const CoreMask others = entry.sharers & ~bit;
  action.invalidations = static_cast<std::uint32_t>(std::popcount(others));
  stats_.invalidations += action.invalidations;
  if (entry.owner != kNoOwner && entry.owner != core &&
      (entry.owner_state == MoesiState::Modified ||
       entry.owner_state == MoesiState::Owned)) {
    // Dirty remote owner forwards its data with the invalidation.
    action.interventions = 1;
    ++stats_.interventions;
  }
  entry.sharers = bit;
  entry.owner = static_cast<std::uint8_t>(core);
  entry.owner_state = MoesiState::Modified;
  return action;
}

CoherenceAction MoesiDirectory::on_l1_evict(BlockAddress block, CoreId core, bool dirty) {
  BACP_DASSERT(core < num_cores_, "core out of range");
  CoherenceAction action;
  Entry* found = entries_.find(block);
  if (found == nullptr) return action;
  Entry& entry = *found;
  const CoreMask bit = core_bit(core);
  if ((entry.sharers & bit) == 0) return action;

  if (entry.owner == core) {
    const bool was_dirty = entry.owner_state == MoesiState::Modified ||
                           entry.owner_state == MoesiState::Owned;
    BACP_ASSERT(was_dirty == dirty || entry.owner_state == MoesiState::Exclusive,
                "L1 dirty bit disagrees with directory ownership state");
    if (was_dirty) {
      action.writeback_below = true;
      ++stats_.writebacks;
    }
    entry.owner = kNoOwner;
    entry.owner_state = MoesiState::Invalid;
  }
  entry.sharers &= ~bit;
  if (entry.sharers == 0) entries_.erase(block);
  return action;
}

CoherenceAction MoesiDirectory::on_l2_evict(BlockAddress block) {
  CoherenceAction action;
  Entry* found = entries_.find(block);
  if (found == nullptr) return action;
  Entry& entry = *found;
  action.invalidations = static_cast<std::uint32_t>(std::popcount(entry.sharers));
  stats_.inclusion_recalls += action.invalidations;
  if (entry.owner != kNoOwner &&
      (entry.owner_state == MoesiState::Modified ||
       entry.owner_state == MoesiState::Owned)) {
    action.writeback_below = true;
    ++stats_.writebacks;
  }
  entries_.erase(block);
  return action;
}

MoesiState MoesiDirectory::state_at(BlockAddress block, CoreId core) const {
  const Entry* found = entries_.find(block);
  if (found == nullptr) return MoesiState::Invalid;
  const Entry& entry = *found;
  if ((entry.sharers & core_bit(core)) == 0) return MoesiState::Invalid;
  if (entry.owner == core) return entry.owner_state;
  return MoesiState::Shared;
}

CoreMask MoesiDirectory::sharers_of(BlockAddress block) const {
  const Entry* found = entries_.find(block);
  return found == nullptr ? 0 : found->sharers;
}

void MoesiDirectory::save_state(snapshot::Writer& writer) const {
  writer.u32(num_cores_);
  // FlatHash64 iteration order depends on insertion history; sort by key so
  // identical directory contents serialize to identical bytes.
  std::vector<std::pair<std::uint64_t, Entry>> entries;
  entries.reserve(entries_.size());
  entries_.for_each([&entries](std::uint64_t key, const Entry& entry) {
    entries.emplace_back(key, entry);
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  writer.u64(entries.size());
  for (const auto& [key, entry] : entries) {
    writer.u64(key);
    writer.u32(entry.sharers);
    writer.u8(entry.owner);
    writer.u8(static_cast<std::uint8_t>(entry.owner_state));
  }
}

void MoesiDirectory::restore_state(snapshot::Reader& reader) {
  BACP_ASSERT(reader.u32() == num_cores_, "snapshot num_cores mismatch");
  // clear() keeps capacity (System reserved the maximum L1 line count), so
  // reinserting never grows the table.
  entries_.clear();
  const std::uint64_t entry_count = reader.u64();
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    const std::uint64_t key = reader.u64();
    Entry entry;
    entry.sharers = reader.u32();
    entry.owner = reader.u8();
    entry.owner_state = static_cast<MoesiState>(reader.u8());
    entries_.insert_or_assign(key, entry);
  }
}

}  // namespace bacp::coherence
