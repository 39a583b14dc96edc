#pragma once

#include <cstddef>
#include <cstdint>

namespace bacp::common::simd {

/// Vector instruction tier the process resolved at startup. One binary
/// serves every host: the AVX2 kernels are compiled with a function-level
/// target attribute and only ever called after a runtime CPUID check, and
/// NEON is selected at compile time on AArch64 (where it is baseline).
enum class Tier : std::uint8_t {
  Scalar = 0,
  Avx2 = 1,
  Neon = 2,
};

const char* to_string(Tier tier);

/// The active tier: compile-time availability ∩ runtime CPU support ∩ the
/// BACP_SIMD escape hatch. BACP_SIMD accepts "off"/"scalar" (force scalar),
/// "avx2"/"neon" (force a tier, fatal if the host cannot run it) and
/// "auto"/unset (best available). Resolved once per process; every kernel
/// is bit-identical to its scalar reference, so this is purely a speed dial.
Tier active_tier();

/// Sentinel for "no matching lane".
inline constexpr std::uint32_t kLaneNotFound = 0xFFFFFFFFu;

namespace detail {

/// Layout contract for probe_run16: 16-byte hash slots, u64 key at offset
/// 0, one-byte occupancy flag (0 = empty) at offset 12. The AVX2 kernel
/// compares four slots per step.
inline constexpr std::size_t kGroupSlotBytes = 16;
inline constexpr std::size_t kGroupSlots = 4;
inline constexpr std::size_t kGroupOccupiedOffset = 12;

/// probe_run16 result flag (bit 0): the run ended on a key match. Clear
/// means the run ended at an empty slot — which in a linear-probe table is
/// exactly where an insert of the absent key would land, so one walk serves
/// lookup, insert and upsert alike.
inline constexpr std::uint64_t kRunMatch = 1;

/// Whole-run linear probe over 16-byte hash slots (layout contract above):
/// starting at `slot` in a power-of-two table of `mask + 1` slots, walks the
/// probe sequence until the key matches or an empty slot ends the run, and
/// returns (ending_slot << 1) | match_flag. One out-of-line call per
/// *lookup* — the tier dispatch and call overhead amortize over the whole
/// run instead of repeating per four-slot group, which is what makes the
/// AVX2 probe pay off at the short run lengths a 7/8-load table produces.
inline std::uint64_t probe_run16_scalar(const unsigned char* base, std::uint64_t mask,
                                        std::uint64_t slot, std::uint64_t needle) {
  for (;;) {
    const unsigned char* bytes = base + slot * kGroupSlotBytes;
    if (bytes[kGroupOccupiedOffset] == 0) return slot << 1;
    std::uint64_t key;
    __builtin_memcpy(&key, bytes, sizeof(key));
    if (key == needle) return (slot << 1) | kRunMatch;
    slot = (slot + 1) & mask;
  }
}

std::uint64_t probe_run16_avx2(const unsigned char* base, std::uint64_t mask,
                               std::uint64_t slot, std::uint64_t needle);

inline std::uint32_t find_first_equal_u64_scalar(const std::uint64_t* values,
                                                 std::uint32_t count,
                                                 std::uint64_t needle) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (values[i] == needle) return i;
  }
  return kLaneNotFound;
}

std::uint32_t find_first_equal_u64_avx2(const std::uint64_t* values, std::uint32_t count,
                                        std::uint64_t needle);
std::uint32_t find_first_equal_u64_neon(const std::uint64_t* values, std::uint32_t count,
                                        std::uint64_t needle);

/// Scalar reference for mu_scan. The float op sequence per lane —
/// B = total - prefix[clamped], removed = A - B, removed / n — must match
/// partition::marginal_utility over msa::MissRatioCurve::miss_count exactly;
/// every vector tier replays the identical per-lane IEEE ops (sub, sub,
/// div are correctly rounded and width-independent), so results are
/// bit-identical across tiers.
inline void mu_scan_scalar(const double* prefix_hits, std::size_t size, double total,
                           std::uint32_t current, std::uint32_t max_extra,
                           double* out) {
  const double base =
      (current == 0 || size == 0)
          ? total
          : total - prefix_hits[(current < size ? current : size) - 1];
  for (std::uint32_t n = 1; n <= max_extra; ++n) {
    const std::uint32_t w = current + n;
    const double at_w =
        size == 0 ? total : total - prefix_hits[(w < size ? w : size) - 1];
    out[n - 1] = (base - at_w) / static_cast<double>(n);
  }
}

void mu_scan_avx2(const double* prefix_hits, std::size_t size, double total,
                  std::uint32_t current, std::uint32_t max_extra, double* out);

/// Scalar reference for miss_counts: out[i] = projected miss count of lane
/// i's curve at ways[i], the clamped-prefix lookup of
/// msa::MissRatioCurve::miss_count in struct-of-arrays form.
inline void miss_counts_scalar(const double* const* prefixes,
                               const std::uint32_t* sizes, const double* totals,
                               const std::uint32_t* ways, std::size_t count,
                               double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    if (ways[i] == 0 || sizes[i] == 0) {
      out[i] = totals[i];
    } else {
      const std::uint32_t idx = (ways[i] < sizes[i] ? ways[i] : sizes[i]) - 1;
      out[i] = totals[i] - prefixes[i][idx];
    }
  }
}

void miss_counts_avx2(const double* const* prefixes, const std::uint32_t* sizes,
                      const double* totals, const std::uint32_t* ways,
                      std::size_t count, double* out);

}  // namespace detail

/// First index i < count with values[i] == needle, else kLaneNotFound.
/// The equality scan under every tag-column probe (SetAssocCache sets,
/// StackProfiler stacks): contiguous 64-bit entries, first match wins.
inline std::uint32_t find_first_equal_u64(const std::uint64_t* values,
                                          std::uint32_t count, std::uint64_t needle) {
  switch (active_tier()) {
    case Tier::Avx2:
      if (count >= 4) return detail::find_first_equal_u64_avx2(values, count, needle);
      break;
    case Tier::Neon:
      if (count >= 4) return detail::find_first_equal_u64_neon(values, count, needle);
      break;
    case Tier::Scalar: break;
  }
  return detail::find_first_equal_u64_scalar(values, count, needle);
}

/// Marginal-utility lookahead scan over one miss-ratio curve (the inner
/// kernel of the analytic allocation search): fills out[n-1] with
/// MU(current, n) = (miss(current) - miss(current + n)) / n for n in
/// [1, max_extra], where miss(w) = total - prefix_hits[min(w, size) - 1]
/// (miss(0) = total). `prefix_hits`/`size`/`total` are the raw curve
/// representation (msa::MissRatioCurve::prefix_hits()/total()). Division by
/// the true n is preserved — no reciprocal tricks — so each lane is the
/// bit-identical value partition::marginal_utility computes; the argmax
/// over the buffer stays with the caller, in index order.
inline void mu_scan(const double* prefix_hits, std::size_t size, double total,
                    std::uint32_t current, std::uint32_t max_extra, double* out) {
  if (max_extra == 0) return;
  switch (active_tier()) {
    case Tier::Avx2:
      if (max_extra >= 4) {
        detail::mu_scan_avx2(prefix_hits, size, total, current, max_extra, out);
        return;
      }
      break;
    case Tier::Neon: break;  // per-lane divides dominate; scalar is honest
    case Tier::Scalar: break;
  }
  detail::mu_scan_scalar(prefix_hits, size, total, current, max_extra, out);
}

/// Batched clamped-prefix miss-count lookup (partition::projected_total_
/// misses): out[i] = totals[i] - prefixes[i][min(ways[i], sizes[i]) - 1],
/// or totals[i] when lane i has zero ways or an empty curve. Lanes are
/// independent — the caller keeps its in-order summation, which is the
/// determinism contract on every projected-miss artifact.
inline void miss_counts(const double* const* prefixes, const std::uint32_t* sizes,
                        const double* totals, const std::uint32_t* ways,
                        std::size_t count, double* out) {
  switch (active_tier()) {
    case Tier::Avx2:
      if (count >= 4) {
        detail::miss_counts_avx2(prefixes, sizes, totals, ways, count, out);
        return;
      }
      break;
    case Tier::Neon: break;  // gather-dominated; scalar is honest
    case Tier::Scalar: break;
  }
  detail::miss_counts_scalar(prefixes, sizes, totals, ways, count, out);
}

/// Software read-prefetch hint (a no-op where unsupported). sim::System
/// issues it through DnucaCache::prefetch and SetAssocCache::prefetch_set
/// for the next few accesses of each core's buffered stream: the DNUCA
/// residency table is tens of megabytes, so touching its probe lines early
/// overlaps their cache misses with the access being served.
inline void prefetch_read(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, 0, 3);
#else
  (void)address;
#endif
}

}  // namespace bacp::common::simd
