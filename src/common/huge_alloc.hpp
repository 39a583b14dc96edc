#pragma once

#include <cstddef>
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
    if (bytes >= kHugePage) {
      const std::size_t rounded = (bytes + kHugePage - 1) & ~(kHugePage - 1);
      void* raw = nullptr;
      if (posix_memalign(&raw, kHugePage, rounded) == 0) {
#if defined(__linux__)
        madvise(raw, rounded, MADV_HUGEPAGE);
#endif
        return static_cast<T*>(raw);
      }
    }
    const std::size_t alignment =
        alignof(T) > alignof(std::max_align_t) ? alignof(T) : alignof(std::max_align_t);
    void* raw = nullptr;
    if (posix_memalign(&raw, alignment, bytes == 0 ? alignment : bytes) != 0) {
      throw std::bad_alloc{};
    }
    return static_cast<T*>(raw);
  }

  void deallocate(T* ptr, std::size_t) noexcept { std::free(ptr); }

  friend bool operator==(const HugePageAlloc&, const HugePageAlloc&) { return true; }
  friend bool operator!=(const HugePageAlloc&, const HugePageAlloc&) { return false; }
};

}  // namespace bacp::common
