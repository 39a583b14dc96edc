#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "snapshot/codec.hpp"

namespace bacp::snapshot {

/// One section per stateful subsystem of sim::System. Ids are stable
/// format constants: renumbering breaks every serialized snapshot.
enum class SectionId : std::uint32_t {
  SystemMeta = 1,  ///< mix, allocation, epoch counters, history
  Noc = 2,
  Dram = 3,
  Directory = 4,
  L2 = 5,
  L1 = 6,          ///< all per-core L1s, core order
  Generators = 7,  ///< all per-core trace generators, core order
  Profilers = 8,   ///< all per-core MSA profilers, core order
  Timers = 9,      ///< all per-core timers, core order
};

const char* to_string(SectionId id);

/// Format constants shared by the builder, the view and audit_snapshot.
/// Layout (all integers host-order):
///   [0]  magic   u64  "BACPSNAP"
///   [8]  version u32
///   [12] count   u32  number of sections
///   [16] digest  u64  config fingerprint of the producing system
///   [24] table   count x {id u32, pad u32, offset u64, length u64, checksum u64}
///   ...  payload  sections, contiguous, in table order
inline constexpr std::uint64_t kMagic = 0x50414E5350434142ull;  // "BACPSNAP"
// v2: section checksums switched from byte-serial FNV-1a to the
// word-at-a-time variant below. v3: sections carry only live state — the
// generator section holds per-set live recency windows instead of whole
// rings, and the L2 section no longer carries the residency index (restore
// rebuilds it from the banks). v4: section checksums fold four word lanes;
// payloads are unchanged. v5: the L1 and L2-bank payloads lose their
// per-core hit, miss and eviction arrays (the caches no longer count).
// Banked older snapshots fail the version check and rewarm — the bank is
// a cache, so a version bump costs time, never correctness.
inline constexpr std::uint32_t kVersion = 5;
inline constexpr std::size_t kHeaderBytes = 24;
inline constexpr std::size_t kTableEntryBytes = 32;
inline constexpr std::size_t kMaxSections = 16;

/// Per-section integrity checksum: FNV-1a's xor+multiply step over
/// host-order 8-byte words, run as four independent lanes over each
/// 32-byte block, then folded into one chain that takes the word tail and
/// the byte tail. A single chain waits out one multiply per word (about
/// 1.3 ms per 5-6 MB snapshot on a 4-vCPU Xeon VM, against about 0.4 ms
/// for four lanes), and a banked snapshot is checksummed twice per load
/// (the bank-load audit_snapshot, then SnapshotView). Every step is a
/// bijection of the lane it updates, so any single-byte change moves the
/// result. Format-internal (not FNV-compatible): the v2 and v4 bumps
/// recorded its changes.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);

/// A whole simulated system's warm state as one flat buffer. Value type:
/// copyable, shareable across threads once built (readers never mutate).
///
/// Two storage modes share one read interface, data():
///   - owned: `bytes` holds the buffer (SnapshotBuilder output, buffered
///     file loads). `backing` is null.
///   - mapped (zero-copy): `mapped` spans a memory-mapped snapshot-bank
///     file and `backing` shares ownership of the mapping, so copies of
///     the snapshot — and every SnapshotView/Reader derived from it — keep
///     the pages alive. Restore paths read sections straight out of the
///     page cache; the buffer is never copied into the heap. The backing
///     is type-erased (shared_ptr<const void>) so this header stays free
///     of filesystem dependencies; harness::SnapshotCache supplies a
///     common::MappedFile.
/// Readers MUST go through data() — a mapped snapshot's `bytes` is empty.
struct SystemSnapshot {
  std::vector<std::uint8_t> bytes;
  std::span<const std::uint8_t> mapped;
  std::shared_ptr<const void> backing;

  std::span<const std::uint8_t> data() const {
    return backing != nullptr ? mapped : std::span<const std::uint8_t>(bytes);
  }
  std::size_t size_bytes() const { return data().size(); }
};

/// Accumulates sections and assembles the final buffer. Sections must be
/// appended in strictly increasing SectionId order so identical state
/// always produces identical bytes.
class SnapshotBuilder {
 public:
  explicit SnapshotBuilder(std::uint64_t config_digest)
      : config_digest_(config_digest) {
    // A begin_section() Writer points into sections_; pre-sizing keeps
    // every section slot stable while earlier Writers may still be live.
    sections_.reserve(kMaxSections);
  }

  /// Starts a section; write its payload through the returned Writer
  /// before the next begin_section()/finish() call.
  Writer begin_section(SectionId id);

  SystemSnapshot finish();

 private:
  struct Section {
    SectionId id;
    std::vector<std::uint8_t> payload;
  };

  std::uint64_t config_digest_;
  std::vector<Section> sections_;
};

/// Read-side accessor. Construction asserts structural validity (magic,
/// version, table bounds, checksums) — callers wanting a diagnosis instead
/// of an abort run audit::audit_snapshot first.
class SnapshotView {
 public:
  explicit SnapshotView(const SystemSnapshot& snapshot);

  std::uint64_t config_digest() const { return config_digest_; }

  bool has_section(SectionId id) const;

  /// Reader over one section's payload; asserts the section exists.
  Reader section(SectionId id) const;

 private:
  struct TableEntry {
    SectionId id;
    std::uint64_t offset;
    std::uint64_t length;
  };

  const SystemSnapshot* snapshot_;
  std::uint64_t config_digest_ = 0;
  std::vector<TableEntry> table_;
};

}  // namespace bacp::snapshot
