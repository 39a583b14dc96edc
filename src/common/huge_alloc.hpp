#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace bacp::common {

/// Minimal std allocator that backs large allocations with 2 MiB-aligned
/// memory advised as transparent hugepages (Linux MADV_HUGEPAGE; elsewhere
/// it degrades to plain aligned allocation). The simulator's flat tables —
/// the DNUCA residency index above all — are multi-megabyte arrays probed
/// at random addresses: on 4 KiB pages nearly every probe is a second-level
/// dTLB miss, and x86 cores drop software prefetches whose address misses
/// the TLB, which silently defeats sim::System's stream lookahead
/// entirely. One hugepage maps 2 MiB, so an 8 MiB table needs four dTLB
/// entries instead of two thousand and the prefetches actually issue.
/// THP in "madvise" mode requires this explicit advice; under "always" the
/// advice is redundant and under "never" it is ignored — all safe.
///
/// On Linux a large table is its own anonymous mapping, not a malloc block.
/// Once glibc's dynamic mmap threshold has risen past the table size (the
/// first large free does that), posix_memalign serves a 2 MiB-aligned
/// block from the brk heap, cutting padding whose size depends on where
/// address-space randomisation put the heap; the heap's layout, and with
/// it the process's peak RSS, would then vary between runs of one input.
/// A mapping is placed, sized and returned to the OS the same way on
/// every run.
template <typename T>
struct HugePageAlloc {
  using value_type = T;
  static constexpr std::size_t kHugePage = std::size_t{2} << 20;

  HugePageAlloc() = default;
  template <typename U>
  HugePageAlloc(const HugePageAlloc<U>&) noexcept {}

  T* allocate(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    // Small tables stay on normal pages: rounding them up to 2 MiB would
    // waste more than they occupy.
    if (bytes >= kHugePage) return static_cast<T*>(allocate_huge(round_up(bytes)));
    const std::size_t alignment =
        alignof(T) > alignof(std::max_align_t) ? alignof(T) : alignof(std::max_align_t);
    void* raw = nullptr;
    if (posix_memalign(&raw, alignment, bytes == 0 ? alignment : bytes) != 0) {
      throw std::bad_alloc{};
    }
    return static_cast<T*>(raw);
  }

  void deallocate(T* ptr, std::size_t count) noexcept {
#if defined(__linux__)
    const std::size_t bytes = count * sizeof(T);
    if (bytes >= kHugePage) {
      munmap(ptr, round_up(bytes));
      return;
    }
#else
    (void)count;
#endif
    std::free(ptr);
  }

  friend bool operator==(const HugePageAlloc&, const HugePageAlloc&) { return true; }
  friend bool operator!=(const HugePageAlloc&, const HugePageAlloc&) { return false; }

 private:
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + kHugePage - 1) & ~(kHugePage - 1);
  }

  /// `rounded` bytes at a 2 MiB boundary: over-map by one hugepage, then
  /// unmap the misaligned head and the unused tail.
  static void* allocate_huge(std::size_t rounded) {
#if defined(__linux__)
    const std::size_t span = rounded + kHugePage;
    void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc{};
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = (base + kHugePage - 1) & ~std::uintptr_t{kHugePage - 1};
    const std::uintptr_t end = aligned + rounded;
    if (aligned != base) munmap(raw, aligned - base);
    if (end != base + span) munmap(reinterpret_cast<void*>(end), base + span - end);
    void* table = reinterpret_cast<void*>(aligned);
    madvise(table, rounded, MADV_HUGEPAGE);
    return table;
#else
    void* raw = nullptr;
    if (posix_memalign(&raw, kHugePage, rounded) != 0) throw std::bad_alloc{};
    return raw;
#endif
  }
};

}  // namespace bacp::common
