#include "audit/snapshot_audit.hpp"

#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "snapshot/snapshot.hpp"

namespace bacp::audit {
namespace {

std::uint64_t read_u64(const std::uint8_t* at) {
  std::uint64_t value;
  std::memcpy(&value, at, sizeof(value));
  return value;
}

std::uint32_t read_u32(const std::uint8_t* at) {
  std::uint32_t value;
  std::memcpy(&value, at, sizeof(value));
  return value;
}

/// Collects into `report`; every check() call counts one evaluated
/// invariant, pass or fail (mirrors the Checker in audit.cpp).
class SnapshotChecker {
 public:
  explicit SnapshotChecker(AuditReport& report) : report_(&report) {}

  bool check(bool ok, std::string object, std::string field, std::string expected,
             std::string actual) {
    ++report_->checks;
    if (!ok) {
      Violation violation;
      violation.structure = Structure::Snapshot;
      violation.object = std::move(object);
      violation.field = std::move(field);
      violation.expected = std::move(expected);
      violation.actual = std::move(actual);
      report_->violations.push_back(std::move(violation));
    }
    return ok;
  }

 private:
  AuditReport* report_;
};

}  // namespace

AuditReport audit_snapshot(const snapshot::SystemSnapshot& snapshot) {
  namespace snap = bacp::snapshot;
  AuditReport report;
  SnapshotChecker checker(report);
  // data(): a memory-mapped bank entry is audited against the mapped pages
  // themselves, so every checksum below reads the exact bytes a restore
  // would — the fail-closed gate for truncated or bit-rotted maps.
  const std::span<const std::uint8_t> bytes = snapshot.data();

  if (!checker.check(bytes.size() >= snap::kHeaderBytes, "snapshot", "min_size",
                     ">= " + std::to_string(snap::kHeaderBytes) + " bytes",
                     std::to_string(bytes.size()) + " bytes")) {
    return report;  // nothing past the (absent) header is interpretable
  }

  const std::uint64_t magic = read_u64(bytes.data());
  checker.check(magic == snap::kMagic, "snapshot", "magic",
                std::to_string(snap::kMagic), std::to_string(magic));
  const std::uint32_t version = read_u32(bytes.data() + 8);
  checker.check(version == snap::kVersion, "snapshot", "version",
                std::to_string(snap::kVersion), std::to_string(version));

  const std::uint32_t count = read_u32(bytes.data() + 12);
  if (!checker.check(count <= snap::kMaxSections, "snapshot", "section_count",
                     "<= " + std::to_string(snap::kMaxSections),
                     std::to_string(count))) {
    return report;  // a bogus count poisons every table offset below
  }
  const std::uint64_t payload_offset =
      snap::kHeaderBytes + std::uint64_t{count} * snap::kTableEntryBytes;
  if (!checker.check(bytes.size() >= payload_offset, "snapshot", "table_bounds",
                     ">= " + std::to_string(payload_offset) + " bytes",
                     std::to_string(bytes.size()) + " bytes")) {
    return report;
  }

  std::uint64_t expected_offset = payload_offset;
  std::uint32_t previous_id = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* entry = bytes.data() + snap::kHeaderBytes +
                                std::uint64_t{i} * snap::kTableEntryBytes;
    const std::uint32_t id = read_u32(entry);
    const std::uint64_t offset = read_u64(entry + 8);
    const std::uint64_t length = read_u64(entry + 16);
    const std::uint64_t checksum = read_u64(entry + 24);
    const std::string object =
        "section[" + std::to_string(i) + "]." +
        snap::to_string(static_cast<snap::SectionId>(id));

    checker.check(id > previous_id, object, "section_order",
                  "id > " + std::to_string(previous_id), std::to_string(id));
    previous_id = id;
    checker.check(offset == expected_offset, object, "section_offset",
                  std::to_string(expected_offset), std::to_string(offset));
    if (!checker.check(offset <= bytes.size() && length <= bytes.size() - offset,
                       object, "section_bounds",
                       "within " + std::to_string(bytes.size()) + " bytes",
                       "offset " + std::to_string(offset) + " length " +
                           std::to_string(length))) {
      return report;  // cannot checksum a payload outside the buffer
    }
    const std::uint64_t actual =
        snap::fnv1a(std::span<const std::uint8_t>(bytes.data() + offset, length));
    checker.check(actual == checksum, object, "checksum", std::to_string(checksum),
                  std::to_string(actual));
    expected_offset = offset + length;
  }

  checker.check(bytes.size() == expected_offset, "snapshot", "trailing_bytes",
                std::to_string(expected_offset) + " bytes total",
                std::to_string(bytes.size()) + " bytes total");
  return report;
}

}  // namespace bacp::audit
