#include "common/simd.hpp"

#include <cstdio>
#include <string>

#include "common/env.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BACP_SIMD_X86 1
#endif

#if defined(__ARM_NEON)
#include <arm_neon.h>
#define BACP_SIMD_NEON 1
#endif

namespace bacp::common::simd {

const char* to_string(Tier tier) {
  switch (tier) {
    case Tier::Scalar: return "scalar";
    case Tier::Avx2: return "avx2";
    case Tier::Neon: return "neon";
  }
  return "?";
}

namespace {

bool host_has_avx2() {
#ifdef BACP_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool host_has_neon() {
#ifdef BACP_SIMD_NEON
  return true;
#else
  return false;
#endif
}

/// BACP_SIMD handling follows the env.cpp convention: a missing variable
/// means "auto", and a value the host cannot honor warns to stderr and
/// falls back rather than silently changing meaning (results are identical
/// across tiers either way — only speed differs).
Tier resolve_tier() {
  const std::string pref = env_string("BACP_SIMD", "auto");
  if (pref == "off" || pref == "scalar" || pref == "0") return Tier::Scalar;
  if (pref == "avx2") {
    if (host_has_avx2()) return Tier::Avx2;
    std::fprintf(stderr, "warning: BACP_SIMD=avx2 but this host lacks AVX2; "
                         "using scalar kernels\n");
    return Tier::Scalar;
  }
  if (pref == "neon") {
    if (host_has_neon()) return Tier::Neon;
    std::fprintf(stderr, "warning: BACP_SIMD=neon but this build has no NEON; "
                         "using scalar kernels\n");
    return Tier::Scalar;
  }
  if (pref != "auto" && pref != "on" && pref != "1") {
    std::fprintf(stderr,
                 "warning: BACP_SIMD=\"%s\" not recognized "
                 "(off|scalar|avx2|neon|auto); using auto\n",
                 pref.c_str());
  }
  if (host_has_avx2()) return Tier::Avx2;
  if (host_has_neon()) return Tier::Neon;
  return Tier::Scalar;
}

}  // namespace

Tier active_tier() {
  static const Tier tier = resolve_tier();
  return tier;
}

namespace detail {

#ifdef BACP_SIMD_X86

__attribute__((target("avx2"))) std::uint32_t find_first_equal_u64_avx2(
    const std::uint64_t* values, std::uint32_t count, std::uint64_t needle) {
  const __m256i vneedle = _mm256_set1_epi64x(static_cast<long long>(needle));
  std::uint32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i eq = _mm256_cmpeq_epi64(chunk, vneedle);
    const auto mask =
        static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
    if (mask != 0) return i + static_cast<std::uint32_t>(__builtin_ctz(mask));
  }
  for (; i < count; ++i) {
    if (values[i] == needle) return i;
  }
  return kLaneNotFound;
}

__attribute__((target("avx2"))) void mu_scan_avx2(const double* prefix_hits,
                                                  std::size_t size, double total,
                                                  std::uint32_t current,
                                                  std::uint32_t max_extra,
                                                  double* out) {
  const double base =
      (current == 0 || size == 0)
          ? total
          : total - prefix_hits[(current < size ? current : size) - 1];
  const __m256d vbase = _mm256_set1_pd(base);
  const __m256d vtotal = _mm256_set1_pd(total);
  const __m256d vstep = _mm256_set1_pd(4.0);
  // Contiguous region: current + n <= size, so the lane loads walk
  // prefix_hits linearly. Each lane replays the scalar op sequence
  // (sub, sub, div) on the same operands — bit-identical, just 4-wide.
  const std::uint32_t contiguous =
      size > current
          ? (max_extra < static_cast<std::uint32_t>(size - current)
                 ? max_extra
                 : static_cast<std::uint32_t>(size - current))
          : 0;
  std::uint32_t n = 1;
  __m256d vn = _mm256_set_pd(4.0, 3.0, 2.0, 1.0);
  for (; n + 3 <= contiguous; n += 4) {
    const __m256d p = _mm256_loadu_pd(prefix_hits + current + n - 1);
    const __m256d at_w = _mm256_sub_pd(vtotal, p);
    const __m256d removed = _mm256_sub_pd(vbase, at_w);
    _mm256_storeu_pd(out + n - 1, _mm256_div_pd(removed, vn));
    vn = _mm256_add_pd(vn, vstep);
  }
  for (; n <= contiguous; ++n) {
    const double at_w = total - prefix_hits[current + n - 1];
    out[n - 1] = (base - at_w) / static_cast<double>(n);
  }
  if (n > max_extra) return;
  // Clamped region: current + n > size, so miss(current + n) is the
  // constant deep-miss floor and only the divisor varies per lane.
  const double at_deep = size == 0 ? total : total - prefix_hits[size - 1];
  const double removed_deep = base - at_deep;
  const __m256d vremoved = _mm256_set1_pd(removed_deep);
  vn = _mm256_set_pd(static_cast<double>(n + 3), static_cast<double>(n + 2),
                     static_cast<double>(n + 1), static_cast<double>(n));
  for (; n + 3 <= max_extra; n += 4) {
    _mm256_storeu_pd(out + n - 1, _mm256_div_pd(vremoved, vn));
    vn = _mm256_add_pd(vn, vstep);
  }
  for (; n <= max_extra; ++n) {
    out[n - 1] = removed_deep / static_cast<double>(n);
  }
}

__attribute__((target("avx2"))) void miss_counts_avx2(
    const double* const* prefixes, const std::uint32_t* sizes, const double* totals,
    const std::uint32_t* ways, std::size_t count, double* out) {
  // The prefix reads are per-lane gathers from distinct curve arrays, so
  // they stay scalar; the clamp-select and subtract run 4-wide. Lanes are
  // independent IEEE ops — bit-identical to the scalar reference.
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    double gathered[4];
    double zero_mask[4];
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const std::uint32_t w = ways[i + lane];
      const std::uint32_t s = sizes[i + lane];
      if (w == 0 || s == 0) {
        gathered[lane] = 0.0;
        zero_mask[lane] = 0.0;
      } else {
        gathered[lane] = prefixes[i + lane][(w < s ? w : s) - 1];
        zero_mask[lane] = 1.0;
      }
    }
    const __m256d vtotal = _mm256_loadu_pd(totals + i);
    const __m256d vprefix =
        _mm256_mul_pd(_mm256_loadu_pd(gathered), _mm256_loadu_pd(zero_mask));
    _mm256_storeu_pd(out + i, _mm256_sub_pd(vtotal, vprefix));
  }
  for (; i < count; ++i) {
    if (ways[i] == 0 || sizes[i] == 0) {
      out[i] = totals[i];
    } else {
      out[i] = totals[i] - prefixes[i][(ways[i] < sizes[i] ? ways[i] : sizes[i]) - 1];
    }
  }
}

__attribute__((target("avx2"))) std::uint64_t probe_run16_avx2(
    const unsigned char* base, std::uint64_t mask, std::uint64_t slot,
    std::uint64_t needle) {
  const std::uint64_t count = mask + 1;
  const __m256i vneedle = _mm256_set1_epi64x(static_cast<long long>(needle));
  const __m256i zero = _mm256_setzero_si256();
  // Grouped probe while a full four-slot window fits before the array end;
  // the rare wrap-around finishes slot-by-slot and re-enters at slot 0 (a
  // probe run is shorter than the table — load stays under 7/8 — so it
  // wraps at most once).
  while (slot + kGroupSlots <= count) {
    const unsigned char* bytes = base + slot * kGroupSlotBytes;
    const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes + 32));
    const __m256i keys = _mm256_unpacklo_epi64(v0, v1);
    const __m256i eq = _mm256_cmpeq_epi64(keys, vneedle);
    const auto scrambled =
        static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
    const std::uint32_t match_raw =
        (scrambled & 1u) | (((scrambled >> 2) & 1u) << 1) |
        (((scrambled >> 1) & 1u) << 2) | (((scrambled >> 3) & 1u) << 3);
    const auto z0 = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v0, zero)));
    const auto z1 = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v1, zero)));
    const std::uint32_t empty = ((z0 >> 12) & 1u) | (((z0 >> 28) & 1u) << 1) |
                                (((z1 >> 12) & 1u) << 2) | (((z1 >> 28) & 1u) << 3);
    const std::uint32_t match = match_raw & ~empty;
    const std::uint32_t events = match | empty;
    if (events == 0) {
      slot = (slot + kGroupSlots) & mask;
      continue;
    }
    const auto lane = static_cast<std::uint32_t>(__builtin_ctz(events));
    return ((slot + lane) << 1) | (((match >> lane) & 1u) != 0 ? kRunMatch : 0);
  }
  while (slot < count) {
    const unsigned char* bytes = base + slot * kGroupSlotBytes;
    if (bytes[kGroupOccupiedOffset] == 0) return slot << 1;
    std::uint64_t key;
    __builtin_memcpy(&key, bytes, sizeof(key));
    if (key == needle) return (slot << 1) | kRunMatch;
    ++slot;
  }
  return probe_run16_avx2(base, mask, 0, needle);
}

#else  // !BACP_SIMD_X86: keep the symbols, route to scalar.

std::uint32_t find_first_equal_u64_avx2(const std::uint64_t* values,
                                        std::uint32_t count, std::uint64_t needle) {
  return find_first_equal_u64_scalar(values, count, needle);
}

void mu_scan_avx2(const double* prefix_hits, std::size_t size, double total,
                  std::uint32_t current, std::uint32_t max_extra, double* out) {
  mu_scan_scalar(prefix_hits, size, total, current, max_extra, out);
}

void miss_counts_avx2(const double* const* prefixes, const std::uint32_t* sizes,
                      const double* totals, const std::uint32_t* ways,
                      std::size_t count, double* out) {
  miss_counts_scalar(prefixes, sizes, totals, ways, count, out);
}

std::uint64_t probe_run16_avx2(const unsigned char* base, std::uint64_t mask,
                               std::uint64_t slot, std::uint64_t needle) {
  return probe_run16_scalar(base, mask, slot, needle);
}

#endif  // BACP_SIMD_X86

#ifdef BACP_SIMD_NEON

std::uint32_t find_first_equal_u64_neon(const std::uint64_t* values,
                                        std::uint32_t count, std::uint64_t needle) {
  const uint64x2_t vneedle = vdupq_n_u64(needle);
  std::uint32_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const uint64x2_t eq = vceqq_u64(vld1q_u64(values + i), vneedle);
    if (vgetq_lane_u64(eq, 0) != 0) return i;
    if (vgetq_lane_u64(eq, 1) != 0) return i + 1;
  }
  for (; i < count; ++i) {
    if (values[i] == needle) return i;
  }
  return kLaneNotFound;
}

#else  // !BACP_SIMD_NEON

std::uint32_t find_first_equal_u64_neon(const std::uint64_t* values,
                                        std::uint32_t count, std::uint64_t needle) {
  return find_first_equal_u64_scalar(values, count, needle);
}

#endif  // BACP_SIMD_NEON

}  // namespace detail
}  // namespace bacp::common::simd
