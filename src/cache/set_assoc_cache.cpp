#include "cache/set_assoc_cache.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/assert.hpp"
#include "snapshot/codec.hpp"

namespace bacp::cache {

std::uint64_t CacheStats::total_hits() const {
  return std::accumulate(hits.begin(), hits.end(), std::uint64_t{0});
}

std::uint64_t CacheStats::total_misses() const {
  return std::accumulate(misses.begin(), misses.end(), std::uint64_t{0});
}

double CacheStats::miss_ratio() const {
  const std::uint64_t total = total_accesses();
  return total == 0 ? 0.0 : static_cast<double>(total_misses()) / static_cast<double>(total);
}

void CacheStats::clear() {
  std::fill(hits.begin(), hits.end(), 0);
  std::fill(misses.begin(), misses.end(), 0);
  std::fill(evictions.begin(), evictions.end(), 0);
}

SetAssocCache::SetAssocCache(const Config& config)
    : config_(config), stats_(config.num_cores) {
  BACP_ASSERT(is_pow2(config_.num_sets), "num_sets must be a power of two");
  BACP_ASSERT(config_.ways >= 1, "cache needs at least one way");
  BACP_ASSERT(config_.ways <= 64, "per-set bitmasks support at most 64 ways");
  BACP_ASSERT(config_.num_cores >= 1, "cache needs at least one core");
  const std::size_t lines = std::size_t{config_.num_sets} * config_.ways;
  tags_.assign(lines, 0);
  allocators_.assign(lines, kInvalidCore);
  SetMeta initial;
  initial.head = 0;
  initial.tail = static_cast<std::uint8_t>(config_.ways - 1);
  meta_.assign(config_.num_sets, initial);
  links_.resize(lines * 2);
  // Initial recency order: way 0 MRU .. way (ways-1) LRU, matching the
  // iota-initialized lru_order of the reference formulation.
  for (std::uint32_t set = 0; set < config_.num_sets; ++set) {
    for (WayIndex way = 0; way < config_.ways; ++way) {
      links_[link_index(set, way)] =
          way == 0 ? kNil : static_cast<std::uint8_t>(way - 1);
      links_[link_index(set, way) + 1] =
          way + 1 == config_.ways ? kNil : static_cast<std::uint8_t>(way + 1);
    }
  }
  // Default: every core owns every way (unpartitioned shared cache).
  way_masks_.assign(config_.ways, ~CoreMask{0});
  rebuild_owned_ways();
}

void SetAssocCache::reset_in_place() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(allocators_.begin(), allocators_.end(), kInvalidCore);
  SetMeta initial;
  initial.head = 0;
  initial.tail = static_cast<std::uint8_t>(config_.ways - 1);
  std::fill(meta_.begin(), meta_.end(), initial);
  for (std::uint32_t set = 0; set < config_.num_sets; ++set) {
    for (WayIndex way = 0; way < config_.ways; ++way) {
      links_[link_index(set, way)] =
          way == 0 ? kNil : static_cast<std::uint8_t>(way - 1);
      links_[link_index(set, way) + 1] =
          way + 1 == config_.ways ? kNil : static_cast<std::uint8_t>(way + 1);
    }
  }
  std::fill(way_masks_.begin(), way_masks_.end(), ~CoreMask{0});
  rebuild_owned_ways();
  stats_.clear();
}

Line SetAssocCache::line_at(std::uint32_t set, WayIndex way) const {
  const std::size_t index = line_index(set, way);
  Line line;
  line.block = tags_[index];
  line.allocator = allocators_[index];
  line.valid = ((meta_[set].valid >> way) & 1) != 0;
  line.dirty = ((meta_[set].dirty >> way) & 1) != 0;
  return line;
}

void SetAssocCache::detach(std::uint32_t set, WayIndex way) {
  std::uint8_t* links = links_.data() + link_index(set, 0);
  const std::uint8_t prev = links[way * 2];
  const std::uint8_t next = links[way * 2 + 1];
  if (prev == kNil) {
    meta_[set].head = next;
  } else {
    links[std::size_t{prev} * 2 + 1] = next;
  }
  if (next == kNil) {
    meta_[set].tail = prev;
  } else {
    links[std::size_t{next} * 2] = prev;
  }
}

void SetAssocCache::push_mru(std::uint32_t set, WayIndex way) {
  std::uint8_t* links = links_.data() + link_index(set, 0);
  const std::uint8_t old_head = meta_[set].head;
  links[way * 2] = kNil;
  links[way * 2 + 1] = old_head;
  if (old_head == kNil) {
    meta_[set].tail = static_cast<std::uint8_t>(way);
  } else {
    links[std::size_t{old_head} * 2] = static_cast<std::uint8_t>(way);
  }
  meta_[set].head = static_cast<std::uint8_t>(way);
}

void SetAssocCache::push_lru(std::uint32_t set, WayIndex way) {
  std::uint8_t* links = links_.data() + link_index(set, 0);
  const std::uint8_t old_tail = meta_[set].tail;
  links[way * 2 + 1] = kNil;
  links[way * 2] = old_tail;
  if (old_tail == kNil) {
    meta_[set].head = static_cast<std::uint8_t>(way);
  } else {
    links[std::size_t{old_tail} * 2 + 1] = static_cast<std::uint8_t>(way);
  }
  meta_[set].tail = static_cast<std::uint8_t>(way);
}

void SetAssocCache::touch_mru(std::uint32_t set, WayIndex way) {
  if (meta_[set].head == way) return;
  detach(set, way);
  push_mru(set, way);
}

std::optional<LookupResult> SetAssocCache::find(BlockAddress block) const {
  const std::uint32_t set = set_index(block);
  const std::uint64_t valid = meta_[set].valid;
  const BlockAddress* tags = tags_.data() + line_index(set, 0);
  // An invalid way may still hold a stale tag (invalidate leaves it), so a
  // match counts only where the valid bit is set.
  for (WayIndex way = 0; way < config_.ways; ++way) {
    if (tags[way] == block && ((valid >> way) & 1) != 0) return LookupResult{true, way};
  }
  return std::nullopt;
}

LookupResult SetAssocCache::access(BlockAddress block, CoreId core, bool is_write) {
  BACP_DASSERT(core < config_.num_cores, "core id out of range");
  const std::uint32_t set = set_index(block);
  if (const auto found = find(block)) {
    ++stats_.hits[core];
    touch_mru(set, found->way);
    if (is_write) meta_[set].dirty |= std::uint64_t{1} << found->way;
    return *found;
  }
  ++stats_.misses[core];
  return LookupResult{false, 0};
}

FillResult SetAssocCache::fill(BlockAddress block, CoreId core, bool dirty) {
  BACP_DASSERT(core < config_.num_cores, "core id out of range");
  BACP_SLOW_DASSERT(!probe(block), "fill of a block that is already resident");
  const std::uint32_t set = set_index(block);
  const std::uint64_t owned = owned_ways_[core];

  // Prefer an invalid owned way (lowest way index first); otherwise the
  // LRU-most owned way (paper's modified LRU: walk recency order from the
  // LRU end, restricted to ways whose mask includes the requesting core).
  WayIndex victim = kNil;
  const std::uint64_t invalid_owned = owned & ~meta_[set].valid;
  if (invalid_owned != 0) {
    victim = static_cast<WayIndex>(std::countr_zero(invalid_owned));
  } else if (std::has_single_bit(owned)) {
    // A one-way partition (the equal-partition default) has exactly one
    // candidate — the recency walk below would only rediscover it through
    // a chain of dependent link loads.
    victim = static_cast<WayIndex>(std::countr_zero(owned));
  } else {
    const std::uint8_t* links = links_.data() + link_index(set, 0);
    for (WayIndex way = meta_[set].tail; way != kNil;
         way = links[std::size_t{way} * 2]) {
      if (((owned >> way) & 1) != 0) {
        victim = way;
        break;
      }
    }
  }
  BACP_ASSERT(victim != kNil, "fill by a core that owns no ways");

  FillResult result;
  result.way = victim;
  const std::uint64_t bit = std::uint64_t{1} << victim;
  const std::size_t index = line_index(set, victim);
  if ((meta_[set].valid & bit) != 0) {
    result.evicted = line_at(set, victim);
    ++stats_.evictions[core];
  }
  tags_[index] = block;
  allocators_[index] = core;
  meta_[set].valid |= bit;
  if (dirty) {
    meta_[set].dirty |= bit;
  } else {
    meta_[set].dirty &= ~bit;
  }
  touch_mru(set, victim);
  return result;
}

bool SetAssocCache::probe(BlockAddress block) const { return find(block).has_value(); }

void SetAssocCache::touch_hit(BlockAddress block, WayIndex way, CoreId core,
                              bool is_write) {
  BACP_DASSERT(core < config_.num_cores, "core id out of range");
  const std::uint32_t set = set_index(block);
  BACP_DASSERT(way < config_.ways && tags_[line_index(set, way)] == block &&
                   ((meta_[set].valid >> way) & 1) != 0,
               "touch_hit location out of sync with cache contents");
  ++stats_.hits[core];
  touch_mru(set, way);
  if (is_write) meta_[set].dirty |= std::uint64_t{1} << way;
}

void SetAssocCache::mark_dirty_at(BlockAddress block, WayIndex way) {
  const std::uint32_t set = set_index(block);
  BACP_DASSERT(way < config_.ways && tags_[line_index(set, way)] == block &&
                   ((meta_[set].valid >> way) & 1) != 0,
               "mark_dirty_at location out of sync with cache contents");
  meta_[set].dirty |= std::uint64_t{1} << way;
}

Line SetAssocCache::invalidate_at(BlockAddress block, WayIndex way) {
  const std::uint32_t set = set_index(block);
  BACP_DASSERT(way < config_.ways && tags_[line_index(set, way)] == block &&
                   ((meta_[set].valid >> way) & 1) != 0,
               "invalidate_at location out of sync with cache contents");
  const Line copy = line_at(set, way);
  const std::uint64_t bit = std::uint64_t{1} << way;
  meta_[set].valid &= ~bit;
  meta_[set].dirty &= ~bit;
  allocators_[line_index(set, way)] = kInvalidCore;
  // Demote the freed way to LRU so it is the next allocation target.
  detach(set, way);
  push_lru(set, way);
  return copy;
}

std::optional<Line> SetAssocCache::invalidate(BlockAddress block) {
  const auto found = find(block);
  if (!found) return std::nullopt;
  return invalidate_at(block, found->way);
}

std::optional<Line> SetAssocCache::lru_line_for_core(BlockAddress block, CoreId core) const {
  const std::uint32_t set = set_index(block);
  const std::uint8_t* links = links_.data() + link_index(set, 0);
  const std::uint64_t owned = owned_ways_[core];
  const std::uint64_t valid = meta_[set].valid;
  for (WayIndex way = meta_[set].tail; way != kNil;
       way = links[std::size_t{way} * 2]) {
    if (((owned >> way) & 1) != 0 && ((valid >> way) & 1) != 0) {
      return line_at(set, way);
    }
  }
  return std::nullopt;
}

void SetAssocCache::set_way_partition(const std::vector<CoreMask>& masks) {
  BACP_ASSERT(masks.size() == config_.ways, "one mask per way required");
  for (CoreMask mask : masks) {
    BACP_ASSERT(mask != 0, "every way must belong to at least one core");
  }
  way_masks_ = masks;
  rebuild_owned_ways();
}

void SetAssocCache::rebuild_owned_ways() {
  owned_ways_.assign(config_.num_cores, 0);
  for (CoreId core = 0; core < config_.num_cores; ++core) {
    const CoreMask bit = core_bit(core);
    for (WayIndex way = 0; way < config_.ways; ++way) {
      if ((way_masks_[way] & bit) != 0) owned_ways_[core] |= std::uint64_t{1} << way;
    }
  }
}

WayCount SetAssocCache::ways_owned(CoreId core) const {
  const CoreMask bit = core_bit(core);
  WayCount owned = 0;
  for (CoreMask mask : way_masks_) {
    if ((mask & bit) != 0) ++owned;
  }
  return owned;
}

std::vector<Line> SetAssocCache::resident_lines() const {
  std::vector<Line> lines;
  for (std::uint32_t set = 0; set < config_.num_sets; ++set) {
    for (WayIndex way = 0; way < config_.ways; ++way) {
      if (((meta_[set].valid >> way) & 1) != 0) lines.push_back(line_at(set, way));
    }
  }
  return lines;
}

void SetAssocCache::save_state(snapshot::Writer& writer) const {
  // Geometry echo: restore_state() cross-checks these against the live
  // cache so a snapshot can never be applied to a differently-shaped one.
  writer.u32(config_.num_sets);
  writer.u32(config_.ways);
  writer.u32(config_.num_cores);
  writer.scalars(std::span<const BlockAddress>(tags_));
  writer.scalars(std::span<const CoreId>(allocators_));
  // SetMeta has padding; serialize field-by-field, never as raw bytes.
  for (const SetMeta& meta : meta_) {
    writer.u64(meta.valid);
    writer.u64(meta.dirty);
    writer.u8(meta.head);
    writer.u8(meta.tail);
  }
  writer.scalars(std::span<const std::uint8_t>(links_));
  writer.scalars(std::span<const CoreMask>(way_masks_));
  writer.scalars(std::span<const std::uint64_t>(stats_.hits));
  writer.scalars(std::span<const std::uint64_t>(stats_.misses));
  writer.scalars(std::span<const std::uint64_t>(stats_.evictions));
}

void SetAssocCache::restore_state(snapshot::Reader& reader) {
  BACP_ASSERT(reader.u32() == config_.num_sets, "snapshot num_sets mismatch");
  BACP_ASSERT(reader.u32() == config_.ways, "snapshot ways mismatch");
  BACP_ASSERT(reader.u32() == config_.num_cores, "snapshot num_cores mismatch");
  reader.scalars_into(std::span<BlockAddress>(tags_));
  reader.scalars_into(std::span<CoreId>(allocators_));
  // Checksums vouch for the bytes, not for what they say: a mask bit at or
  // above `ways`, or a recency byte that is neither kNil nor a way, would
  // send the recency walks (and the D-NUCA row rebuild) outside the set.
  // One pass over the metadata gathers every mask bit and the largest
  // recency byte + 1, in which kNil (0xFF) wraps to 0.
  std::uint64_t mask_bits = 0;
  std::uint8_t link_top = 0;
  const auto note_link = [&link_top](std::uint8_t link) {
    link_top = std::max(link_top, static_cast<std::uint8_t>(link + 1));
  };
  for (SetMeta& meta : meta_) {
    meta.valid = reader.u64();
    meta.dirty = reader.u64();
    meta.head = reader.u8();
    meta.tail = reader.u8();
    mask_bits |= meta.valid | meta.dirty;
    note_link(meta.head);
    note_link(meta.tail);
  }
  reader.scalars_into(std::span<std::uint8_t>(links_));
  for (const std::uint8_t link : links_) note_link(link);
  const std::uint64_t way_bits =
      config_.ways == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << config_.ways) - 1;
  BACP_ASSERT((mask_bits & ~way_bits) == 0 && link_top <= config_.ways,
              "snapshot cache metadata indexes outside its set");
  reader.scalars_into(std::span<CoreMask>(way_masks_));
  reader.scalars_into(std::span<std::uint64_t>(stats_.hits));
  reader.scalars_into(std::span<std::uint64_t>(stats_.misses));
  reader.scalars_into(std::span<std::uint64_t>(stats_.evictions));
  rebuild_owned_ways();
}

std::uint64_t SetAssocCache::valid_lines() const {
  std::uint64_t count = 0;
  for (const SetMeta& meta : meta_) {
    count += static_cast<std::uint64_t>(std::popcount(meta.valid));
  }
  return count;
}

}  // namespace bacp::cache
