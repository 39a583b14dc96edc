#include "nuca/dnuca_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "cache/partial_tag.hpp"
#include "common/assert.hpp"
#include "snapshot/codec.hpp"

namespace bacp::nuca {

const char* to_string(AggregationKind kind) {
  switch (kind) {
    case AggregationKind::Parallel: return "Parallel";
    case AggregationKind::AddressHash: return "AddressHash";
    case AggregationKind::Cascade: return "Cascade";
    case AggregationKind::TwoLevelCascade: return "TwoLevelCascade";
    case AggregationKind::SharedDnuca: return "SharedDnuca";
  }
  return "?";
}

std::uint64_t DnucaStats::total_hits() const {
  return std::accumulate(hits.begin(), hits.end(), std::uint64_t{0});
}

std::uint64_t DnucaStats::total_misses() const {
  return std::accumulate(misses.begin(), misses.end(), std::uint64_t{0});
}

DnucaCache::DnucaCache(const DnucaConfig& config, noc::Noc& noc)
    : config_(config), noc_(&noc) {
  config_.geometry.validate();
  BACP_ASSERT(is_pow2(config_.sets_per_bank), "sets_per_bank must be a power of two");
  banks_.reserve(config_.geometry.num_banks);
  for (BankId id = 0; id < config_.geometry.num_banks; ++id) {
    cache::SetAssocCache::Config bank_config;
    bank_config.name = "L2.bank" + std::to_string(id);
    bank_config.num_sets = config_.sets_per_bank;
    bank_config.ways = config_.geometry.ways_per_bank;
    bank_config.num_cores = config_.geometry.num_cores;
    banks_.emplace_back(bank_config);
  }
  // Until a plan is applied, the cache behaves as the No-partition shared
  // pool: every bank is in every core's view.
  views_.assign(config_.geometry.num_cores, {});
  for (CoreId core = 0; core < config_.geometry.num_cores; ++core) {
    for (BankId id = 0; id < config_.geometry.num_banks; ++id) {
      views_[core].push_back(id);
    }
  }
  rebuild_view_positions();
  round_robin_.assign(config_.geometry.num_cores, 0);
  fingerprints_.assign(std::size_t{config_.sets_per_bank} * row_slots(), 0);
  stats_.hits.assign(config_.geometry.num_cores, 0);
  stats_.misses.assign(config_.geometry.num_cores, 0);
}

std::uint16_t DnucaCache::partial_tag_of(BlockAddress block) {
  // Blocks that share a row differ only above the set bits; the
  // multiplicative hash spreads those bits into the top 16.
  const auto tag = static_cast<std::uint16_t>(cache::partial_tag(block, 16));
  return tag != 0 ? tag : 1;
}

DnucaCache::Location DnucaCache::locate(BlockAddress block) const {
  // SWAR compare, four slots per 64-bit word: a lane of `diff` is zero
  // exactly where the slot holds the tag, and adding 0x7FFF to a lane's
  // low 15 bits sets its top bit unless the lane is zero, with no carry
  // into the next lane. Padding slots hold 0, which no tag equals.
  constexpr std::uint64_t kLanes = 0x0001000100010001ull;
  constexpr std::uint64_t kLow15 = 0x7FFF * kLanes;
  constexpr std::uint64_t kTop = 0x8000 * kLanes;
  const std::uint64_t pattern = partial_tag_of(block) * kLanes;
  const std::uint16_t* row = row_of(block);
  const std::size_t slots = row_slots();
  const WayCount ways = config_.geometry.ways_per_bank;
  for (std::size_t first = 0; first < slots; first += kSlotsPerWord) {
    std::uint64_t word = 0;
    std::memcpy(&word, row + first, sizeof(word));
    const std::uint64_t diff = word ^ pattern;
    for (std::uint64_t matches = ~(((diff & kLow15) + kLow15) | diff) & kTop;
         matches != 0; matches &= matches - 1) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(matches)) / 16;
      const std::size_t slot =
          first + (std::endian::native == std::endian::little ? lane
                                                              : kSlotsPerWord - 1 - lane);
      const auto bank = static_cast<BankId>(slot / ways);
      const auto way = static_cast<WayIndex>(slot % ways);
      if (banks_[bank].holds_at(block, way)) return Location{bank, way};
    }
  }
  return Location{};
}

cache::FillResult DnucaCache::fill_slot(BankId bank, BlockAddress block, CoreId core,
                                        bool dirty) {
  const cache::FillResult fill = banks_[bank].fill(block, core, dirty);
  set_slot(block, bank, fill.way, partial_tag_of(block));
  return fill;
}

cache::Line DnucaCache::take_line(BlockAddress block, Location at) {
  set_slot(block, at.bank, at.way, 0);
  return banks_[at.bank].invalidate_at(block, at.way);
}

void DnucaCache::rebuild_rows() {
  std::fill(fingerprints_.begin(), fingerprints_.end(), 0);
  for (BankId id = 0; id < banks_.size(); ++id) {
    banks_[id].for_each_valid([this, id](BlockAddress block, WayIndex way) {
      set_slot(block, id, way, partial_tag_of(block));
    });
  }
}

void DnucaCache::rebuild_view_positions() {
  view_pos_.assign(std::size_t{config_.geometry.num_cores} * config_.geometry.num_banks,
                   kNotInView);
  for (CoreId core = 0; core < views_.size(); ++core) {
    const auto& view = views_[core];
    for (std::size_t i = 0; i < view.size(); ++i) {
      view_pos_[std::size_t{core} * config_.geometry.num_banks + view[i]] =
          static_cast<std::uint32_t>(i);
    }
  }
}

void DnucaCache::apply_assignment(const partition::BankAssignment& assignment) {
  BACP_ASSERT(assignment.way_masks.size() == banks_.size(), "mask/bank mismatch");
  BACP_ASSERT(assignment.banks_of_core.size() == views_.size(), "view/core mismatch");
  for (BankId id = 0; id < banks_.size(); ++id) {
    banks_[id].set_way_partition(assignment.way_masks[id]);
  }
  views_ = assignment.banks_of_core;
  std::fill(round_robin_.begin(), round_robin_.end(), 0);
  for (CoreId core = 0; core < views_.size(); ++core) {
    BACP_ASSERT(!views_[core].empty(), "every core needs at least one bank");
  }
  rebuild_view_positions();
}

BankId DnucaCache::pick_fill_bank(BlockAddress block, CoreId core) {
  const auto& view = views_[core];
  switch (config_.aggregation) {
    case AggregationKind::Parallel: {
      const std::size_t index = round_robin_[core]++ % view.size();
      return view[index];
    }
    case AggregationKind::AddressHash: {
      // Bit-select above the set index; non-power-of-two views fall back to
      // a modulo (the "complex modulo" hash the paper attributes to
      // POWER4/5-style three-bank hashing).
      const BlockAddress tag_bits = block >> log2_floor(config_.sets_per_bank);
      const std::uint32_t hashed = cache::partial_tag(tag_bits, 20);
      return view[hashed % view.size()];
    }
    case AggregationKind::Cascade:
    case AggregationKind::TwoLevelCascade:
      return view[0];
    case AggregationKind::SharedDnuca: {
      // Static hash home over the whole structure (identical for every
      // requester); migration, not placement, builds locality.
      const BlockAddress tag_bits = block >> log2_floor(config_.sets_per_bank);
      const std::uint32_t hashed = cache::partial_tag(tag_bits, 20);
      return static_cast<BankId>(hashed % config_.geometry.num_banks);
    }
  }
  return view[0];
}

void DnucaCache::fill_with_demotion(BlockAddress block, CoreId core, bool dirty,
                                    BankId bank_id,
                                    std::span<const BankId> demotion_chain, Cycle now,
                                    L2AccessOutcome& outcome) {
  BlockAddress current_block = block;
  bool current_dirty = dirty;
  BankId current_bank = bank_id;
  std::size_t chain_pos = 0;
  while (true) {
    const auto fill = fill_slot(current_bank, current_block, core, current_dirty);
    if (!fill.evicted) return;
    if (chain_pos >= demotion_chain.size()) {
      outcome.evicted.push_back(*fill.evicted);
      return;
    }
    const BankId next = demotion_chain[chain_pos++];
    noc_->migrate(current_bank, next, now);
    ++stats_.demotions;
    current_block = fill.evicted->block;
    current_dirty = fill.evicted->dirty;
    current_bank = next;
  }
}

void DnucaCache::migrate_one_step(BlockAddress block, CoreId core, Location from,
                                  Cycle now) {
  const auto& view = views_[core];
  const std::uint32_t pos = view_position(core, from.bank);
  BACP_DASSERT(pos != kNotInView, "migration source outside the view");
  if (pos == 0) return;  // already in the nearest bank
  const BankId target = view[pos - 1];

  // Gradual promotion: swap the hit line one bank closer to the requester,
  // displacing that bank's LRU victim into the hole left behind.
  const auto line = take_line(block, from);
  const auto fill = fill_slot(target, line.block, core, line.dirty);
  ++stats_.promotions;
  noc_->migrate(from.bank, target, now);
  if (fill.evicted) {
    fill_slot(from.bank, fill.evicted->block, fill.evicted->allocator, fill.evicted->dirty);
    ++stats_.demotions;
    noc_->migrate(target, from.bank, now);
  }
}

void DnucaCache::promote_to_head(BlockAddress block, CoreId core, Location from,
                                 Cycle now, L2AccessOutcome& outcome) {
  const auto& view = views_[core];
  const BankId head = view.front();
  if (from.bank == head) return;
  const auto line = take_line(block, from);
  ++stats_.promotions;
  noc_->migrate(from.bank, head, now);

  // Demote displaced lines down the chain toward the hole left at `from`:
  // Cascade shifts view[1..from] down one bank, TwoLevelCascade swaps
  // straight with the head. Chains are always contiguous stretches of the
  // view, so they are spans into it rather than freshly built vectors.
  const std::uint32_t from_pos = view_position(core, from.bank);
  BACP_DASSERT(from_pos != kNotInView, "promotion source outside the view");
  const std::span<const BankId> chain =
      config_.aggregation == AggregationKind::Cascade
          ? std::span<const BankId>(view.data() + 1, from_pos)
          : std::span<const BankId>(view.data() + from_pos, 1);
  fill_with_demotion(line.block, core, line.dirty, head, chain, now, outcome);
}

std::uint32_t DnucaCache::lookup_cost(CoreId core, std::uint32_t pos) const {
  // Lookup energy per scheme: Parallel (and the shared baseline) probe the
  // whole partition directory at once, AddressHash exactly one bank.
  // Cascade walks the view nearest bank first, up to the line or through
  // all of it; TwoLevelCascade stops after the head and its group.
  const auto view_size = static_cast<std::uint32_t>(views_[core].size());
  const std::uint32_t walked = pos == kNotInView ? view_size : pos + 1;
  switch (config_.aggregation) {
    case AggregationKind::AddressHash: return 1;
    case AggregationKind::Cascade: return walked;
    case AggregationKind::TwoLevelCascade: return std::min<std::uint32_t>(walked, 2);
    case AggregationKind::Parallel:
    case AggregationKind::SharedDnuca: return view_size;
  }
  return view_size;
}

L2AccessOutcome DnucaCache::access(BlockAddress block, CoreId core, bool is_write,
                                   Cycle now) {
  // Locate the line via its residency row. The modelled lookup cost still
  // follows the hardware's search: partition first (nearest bank first),
  // then the rest of the structure for repartition transients.
  BACP_DASSERT(core < views_.size(), "core out of range");
  L2AccessOutcome outcome;
  const auto& view = views_[core];

  const Location found = locate(block);
  const bool resident_here = found.bank != kInvalidBank;
  const std::uint32_t pos = resident_here ? view_position(core, found.bank) : kNotInView;
  stats_.directory_lookups += lookup_cost(core, pos);

  if (pos != kNotInView) {
    ++stats_.hits[core];
    outcome.hit = true;
    outcome.bank = found.bank;
    outcome.ready_at = noc_->request(core, found.bank, now);
    banks_[found.bank].touch_hit(block, found.way, is_write);
    if (config_.aggregation == AggregationKind::Cascade ||
        config_.aggregation == AggregationKind::TwoLevelCascade) {
      promote_to_head(block, core, found, now, outcome);
    } else if (config_.aggregation == AggregationKind::SharedDnuca) {
      migrate_one_step(block, core, found, now);
    }
    return outcome;
  }

  bool dirty = is_write;
  BankId fill_bank = kInvalidBank;
  if (resident_here) {
    // Off-view hit: the line survives from before a repartition. Serve it
    // from where it is, then migrate it into the core's own partition so
    // the transient drains.
    ++stats_.hits[core];
    ++stats_.offview_hits;
    outcome.hit = true;
    outcome.bank = found.bank;
    outcome.ready_at = noc_->request(core, found.bank, now);
    dirty = take_line(block, found).dirty || is_write;
    fill_bank = pick_fill_bank(block, core);
    noc_->migrate(found.bank, fill_bank, now);
  } else {
    // Miss: detect at the fill bank, install there (caller adds memory
    // latency on top of ready_at).
    ++stats_.misses[core];
    fill_bank = pick_fill_bank(block, core);
    outcome.bank = fill_bank;
    outcome.ready_at = noc_->request(core, fill_bank, now);
  }
  // A line entering the partition displaces down the banks behind the
  // head: the whole view for Cascade, the head's group for TwoLevelCascade.
  std::span<const BankId> chain;
  if (config_.aggregation == AggregationKind::Cascade) {
    chain = std::span<const BankId>(view.data() + 1, view.size() - 1);
  } else if (config_.aggregation == AggregationKind::TwoLevelCascade && view.size() > 1) {
    chain = std::span<const BankId>(view.data() + 1, 1);
  }
  fill_with_demotion(block, core, dirty, fill_bank, chain, now, outcome);
  return outcome;
}

bool DnucaCache::writeback_update(BlockAddress block) {
  const Location location = locate(block);
  if (location.bank == kInvalidBank) return false;
  banks_[location.bank].mark_dirty_at(block, location.way);
  return true;
}

bool DnucaCache::resident(BlockAddress block) const {
  return locate(block).bank != kInvalidBank;
}

BankId DnucaCache::bank_of(BlockAddress block) const { return locate(block).bank; }

void DnucaCache::clear_stats() {
  std::fill(stats_.hits.begin(), stats_.hits.end(), 0);
  std::fill(stats_.misses.begin(), stats_.misses.end(), 0);
  stats_.promotions = 0;
  stats_.demotions = 0;
  stats_.directory_lookups = 0;
  stats_.offview_hits = 0;
}

void DnucaCache::save_state(snapshot::Writer& writer) const {
  // Shape fields only — aggregation is a behavior knob that the snapshot's
  // config digest already pins.
  writer.u32(config_.geometry.num_banks);
  writer.u32(config_.geometry.num_cores);
  for (const auto& bank : banks_) bank.save_state(writer);
  for (const auto& view : views_) writer.scalars(std::span<const BankId>(view));
  writer.scalars(std::span<const std::size_t>(round_robin_));
}

void DnucaCache::restore_state(snapshot::Reader& reader) {
  BACP_ASSERT(reader.u32() == config_.geometry.num_banks, "snapshot num_banks mismatch");
  BACP_ASSERT(reader.u32() == config_.geometry.num_cores, "snapshot num_cores mismatch");
  for (auto& bank : banks_) bank.restore_state(reader);
  for (auto& view : views_) view = reader.scalars<BankId>();
  reader.scalars_into(std::span<std::size_t>(round_robin_));
  rebuild_rows();
  rebuild_view_positions();
}

}  // namespace bacp::nuca
