#pragma once

#include <cstdint>
#include <string_view>

namespace bacp::common {

/// 64-bit FNV-1a offset basis and prime: the hash family of every digest
/// and key the repo derives (config digests, warm-up keys, sampled-run
/// boundary chains, pinned checksums).
inline constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x00000100000001B3ull;

/// Folds `value` into `hash` with one FNV-1a round per byte, least
/// significant byte first.
constexpr std::uint64_t fnv1a_fold(std::uint64_t hash, std::uint64_t value) {
  for (unsigned shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xFF;
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// FNV-1a over `bytes` from the offset basis: the digest of an artifact's
/// text.
constexpr std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = kFnv1aBasis;
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= kFnv1aPrime;
  }
  return hash;
}

}  // namespace bacp::common
