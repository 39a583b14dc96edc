#include "snapshot/snapshot.hpp"

#include <cstring>

#include "common/assert.hpp"

namespace bacp::snapshot {

const char* to_string(SectionId id) {
  switch (id) {
    case SectionId::SystemMeta: return "system_meta";
    case SectionId::Noc: return "noc";
    case SectionId::Dram: return "dram";
    case SectionId::Directory: return "directory";
    case SectionId::L2: return "l2";
    case SectionId::L1: return "l1";
    case SectionId::Generators: return "generators";
    case SectionId::Profilers: return "profilers";
    case SectionId::Timers: return "timers";
  }
  return "?";
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  // Four independent xor+multiply lanes over 32-byte blocks (see the header
  // doc), folded into one chain that then takes the 8-byte word tail and
  // the byte tail. memcpy keeps the word loads legal on any alignment; host
  // byte order is fine because snapshots are host-order throughout.
  constexpr std::uint64_t kBasis = 0xCBF29CE484222325ull;
  constexpr std::uint64_t kPrime = 0x00000100000001B3ull;
  const auto word_at = [&bytes](std::size_t at) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + at, sizeof(word));
    return word;
  };
  std::uint64_t lanes[4] = {kBasis, kBasis, kBasis, kBasis};
  std::size_t i = 0;
  for (; i + 32 <= bytes.size(); i += 32) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      lanes[lane] = (lanes[lane] ^ word_at(i + 8 * lane)) * kPrime;
    }
  }
  std::uint64_t hash = kBasis;
  for (const std::uint64_t lane : lanes) hash = (hash ^ lane) * kPrime;
  for (; i + 8 <= bytes.size(); i += 8) hash = (hash ^ word_at(i)) * kPrime;
  for (; i < bytes.size(); ++i) hash = (hash ^ bytes[i]) * kPrime;
  return hash;
}

Writer SnapshotBuilder::begin_section(SectionId id) {
  BACP_ASSERT(sections_.size() < kMaxSections, "too many snapshot sections");
  BACP_ASSERT(sections_.empty() ||
                  static_cast<std::uint32_t>(sections_.back().id) <
                      static_cast<std::uint32_t>(id),
              "snapshot sections must be appended in increasing id order");
  sections_.push_back(Section{id, {}});
  return Writer(sections_.back().payload);
}

SystemSnapshot SnapshotBuilder::finish() {
  SystemSnapshot snapshot;
  std::size_t payload_bytes = 0;
  for (const Section& section : sections_) payload_bytes += section.payload.size();
  const std::size_t table_offset = kHeaderBytes;
  const std::size_t payload_offset =
      table_offset + sections_.size() * kTableEntryBytes;
  snapshot.bytes.reserve(payload_offset + payload_bytes);

  Writer header(snapshot.bytes);
  header.u64(kMagic);
  header.u32(kVersion);
  header.u32(static_cast<std::uint32_t>(sections_.size()));
  header.u64(config_digest_);

  std::uint64_t offset = payload_offset;
  for (const Section& section : sections_) {
    header.u32(static_cast<std::uint32_t>(section.id));
    header.u32(0);  // padding: keeps every table field naturally aligned
    header.u64(offset);
    header.u64(section.payload.size());
    header.u64(fnv1a(section.payload));
    offset += section.payload.size();
  }
  for (const Section& section : sections_) {
    if (section.payload.empty()) continue;
    const std::size_t at = snapshot.bytes.size();
    snapshot.bytes.resize(at + section.payload.size());
    std::memcpy(snapshot.bytes.data() + at, section.payload.data(),
                section.payload.size());
  }
  return snapshot;
}

SnapshotView::SnapshotView(const SystemSnapshot& snapshot) : snapshot_(&snapshot) {
  // data(): identical walk for owned and mapped snapshots — on a mapped
  // bank entry every assert below (including the per-section checksums)
  // validates against the mmap'd pages themselves, so a truncated or
  // bit-rotted map can never reach a restore path.
  const std::span<const std::uint8_t> bytes = snapshot.data();
  BACP_ASSERT(bytes.size() >= kHeaderBytes, "snapshot smaller than its header");
  Reader header(bytes);
  BACP_ASSERT(header.u64() == kMagic, "snapshot magic mismatch");
  BACP_ASSERT(header.u32() == kVersion, "snapshot version mismatch");
  const std::uint32_t count = header.u32();
  config_digest_ = header.u64();
  BACP_ASSERT(bytes.size() >= kHeaderBytes + std::size_t{count} * kTableEntryBytes,
              "snapshot section table overruns the buffer");
  table_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TableEntry entry;
    entry.id = static_cast<SectionId>(header.u32());
    (void)header.u32();  // padding
    entry.offset = header.u64();
    entry.length = header.u64();
    const std::uint64_t checksum = header.u64();
    BACP_ASSERT(entry.offset <= bytes.size() &&
                    entry.length <= bytes.size() - entry.offset,
                "snapshot section outside the buffer");
    const std::span<const std::uint8_t> payload(bytes.data() + entry.offset,
                                                entry.length);
    BACP_ASSERT(fnv1a(payload) == checksum, "snapshot section checksum mismatch");
    table_.push_back(entry);
  }
}

bool SnapshotView::has_section(SectionId id) const {
  for (const TableEntry& entry : table_) {
    if (entry.id == id) return true;
  }
  return false;
}

Reader SnapshotView::section(SectionId id) const {
  for (const TableEntry& entry : table_) {
    if (entry.id == id) {
      // subspan of data(): on a mapped snapshot this Reader walks the
      // mmap'd pages directly — the zero-copy restore path.
      return Reader(snapshot_->data().subspan(entry.offset, entry.length));
    }
  }
  BACP_ASSERT(false, "snapshot section missing");
  return Reader({});
}

}  // namespace bacp::snapshot
