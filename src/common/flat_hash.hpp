#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/huge_alloc.hpp"

namespace bacp::common {

/// Open-addressing hash map with 64-bit keys, linear probing and
/// backward-shift deletion. Built for the simulator's per-access block
/// indices (DNUCA residency, MOESI directory), where
/// `std::unordered_map`'s node allocation/deallocation per insert/erase
/// dominated the profile. Each slot carries its own occupancy flag, so a
/// probe touches exactly one contiguous slot array; the table only
/// rehashes on growth, and erase leaves no tombstones — so a table sized
/// with reserve() never allocates again.
///
/// Iteration order is unspecified; callers needing deterministic output
/// must sort externally. References returned by find()/find_or_emplace()
/// are invalidated by any subsequent insert or erase.
template <typename Value>
class FlatHash64 {
 public:
  using Key = std::uint64_t;

  FlatHash64() { rehash(kMinCapacity); }

  /// Pre-sizes the table so `count` entries fit without any further
  /// allocation (steady-state hot paths stay allocation-free).
  void reserve(std::size_t count) {
    std::size_t needed = kMinCapacity;
    while (needed * kMaxLoadNum < count * kMaxLoadDen) needed *= 2;
    if (needed > capacity()) rehash(needed);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  Value* find(Key key) {
    const std::size_t slot = find_slot(key);
    return slot == kNotFound ? nullptr : &slots_[slot].value;
  }
  const Value* find(Key key) const {
    const std::size_t slot = find_slot(key);
    return slot == kNotFound ? nullptr : &slots_[slot].value;
  }

  /// Issues a read prefetch for `key`'s probe line, so a lookup issued a
  /// few accesses later finds the table's (cold, multi-MB) slot array line
  /// already in flight — the find() that follows still decides.
  void prefetch(Key key) const { __builtin_prefetch(&slots_[ideal_slot(key)]); }

  /// Returns the value for `key`, default-constructing it if absent (the
  /// `operator[]` idiom).
  Value& find_or_emplace(Key key) {
    auto [slot, matched] = probe_run(key);
    if (matched) return slots_[slot].value;
    if (grow_if_needed()) slot = insert_position(key);
    slots_[slot].key = key;
    slots_[slot].value = Value{};
    slots_[slot].occupied = true;
    ++size_;
    return slots_[slot].value;
  }

  void insert_or_assign(Key key, Value value) {
    auto [slot, matched] = probe_run(key);
    if (matched) {
      slots_[slot].value = std::move(value);
      return;
    }
    if (grow_if_needed()) slot = insert_position(key);
    slots_[slot].key = key;
    slots_[slot].value = std::move(value);
    slots_[slot].occupied = true;
    ++size_;
  }

  bool erase(Key key) {
    std::size_t hole = find_slot(key);
    if (hole == kNotFound) return false;
    // Backward-shift deletion: pull every displaced entry of the probe run
    // one slot toward its ideal position, so lookups never need tombstones.
    std::size_t probe = hole;
    while (true) {
      probe = (probe + 1) & mask_;
      if (!slots_[probe].occupied) break;
      const std::size_t ideal = ideal_slot(slots_[probe].key);
      if (((probe - ideal) & mask_) >= ((probe - hole) & mask_)) {
        slots_[hole] = std::move(slots_[probe]);
        hole = probe;
      }
    }
    slots_[hole].occupied = false;
    --size_;
    return true;
  }

  void clear() {
    for (Slot& slot : slots_) slot.occupied = false;
    size_ = 0;
  }

  /// Invokes fn(key, value) for every occupied slot, in unspecified order.
  /// Read-only walk for invariant audits and debugging; fn must not insert
  /// into or erase from the table.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.occupied) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    Key key = 0;
    Value value{};
    bool occupied = false;
  };

  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  // Grow past 7/8 load: linear probing stays short and growth stays rare.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;

  std::size_t ideal_slot(Key key) const {
    // Fibonacci multiplicative hash; the high bits select the slot.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// One probe walk that serves every operation: returns key's slot with
  /// matched == true, or — key absent — the empty slot that ended the run
  /// (exactly where insert_position() would land the key) with matched ==
  /// false.
  std::pair<std::size_t, bool> probe_run(Key key) const {
    std::size_t slot = ideal_slot(key);
    while (slots_[slot].occupied) {
      if (slots_[slot].key == key) return {slot, true};
      slot = (slot + 1) & mask_;
    }
    return {slot, false};
  }

  std::size_t find_slot(Key key) const {
    const auto [slot, matched] = probe_run(key);
    return matched ? slot : kNotFound;
  }

  std::size_t insert_position(Key key) const {
    std::size_t slot = ideal_slot(key);
    while (slots_[slot].occupied) slot = (slot + 1) & mask_;
    return slot;
  }

  /// Returns true when a rehash happened (probe-run slots are stale then).
  bool grow_if_needed() {
    if ((size_ + 1) * kMaxLoadDen > capacity() * kMaxLoadNum) {
      rehash(capacity() * 2);
      return true;
    }
    return false;
  }

  void rehash(std::size_t new_capacity) {
    BACP_ASSERT(std::has_single_bit(new_capacity), "capacity must be a power of two");
    std::vector<Slot, HugePageAlloc<Slot>> old_slots = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    mask_ = new_capacity - 1;
    shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(new_capacity));
    for (Slot& old_slot : old_slots) {
      if (!old_slot.occupied) continue;
      const std::size_t slot = insert_position(old_slot.key);
      slots_[slot] = std::move(old_slot);
    }
  }

  // Hugepage-advised storage: the table is the large random-access
  // structure on the access path, and TLB-resident probes are what let the
  // lookahead prefetches issue at all (see HugePageAlloc).
  std::vector<Slot, HugePageAlloc<Slot>> slots_;
  std::size_t mask_ = 0;
  std::uint32_t shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace bacp::common
