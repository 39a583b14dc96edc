#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bacp::cache {
class SetAssocCache;
}
namespace bacp::nuca {
class DnucaCache;
}
namespace bacp::coherence {
class MoesiDirectory;
}
namespace bacp::partition {
struct CmpGeometry;
struct Allocation;
struct BankAssignment;
}  // namespace bacp::partition

namespace bacp::audit {

/// Which core structure a violation was found in.
enum class Structure : std::uint8_t {
  Cache,      ///< one cache::SetAssocCache instance (an L1 or an L2 bank)
  Nuca,       ///< nuca::DnucaCache aggregation state (residency rows, views)
  Directory,  ///< coherence::MoesiDirectory entry legality
  Partition,  ///< partition plan (way masks, allocations, bank lists)
  Cross,      ///< cross-structure agreement (inclusion, directory vs. L1s)
  Snapshot,   ///< snapshot buffer framing (header, section table, checksums)
  Sched,      ///< sched::Service tenant table vs. system slot/allocation state
  Sampling,   ///< interval-sampling plan legality (medoids, assignment, weights)
  Component,  ///< single-component state (NoC, DRAM, generators, profilers,
              ///< core timers, epoch series — see component_audit.hpp)
};
const char* to_string(Structure structure);

/// Sentinel for "no set / bank / way coordinate applies".
inline constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

/// One structural-invariant violation, located as precisely as the checked
/// structure allows. Violations are data, not aborts: the caller decides
/// whether to log, assert, or collect (the mutation kill-tests assert on
/// the exact structure/field reported here).
struct Violation {
  Structure structure = Structure::Cache;
  std::string object;  ///< instance name ("L1.core3", "L2.bank7", "directory")
  std::string field;   ///< invariant family ("lru_links", "residency_index", ...)
  std::uint64_t set = kNoIndex;   ///< set index within the object, if any
  std::uint64_t bank = kNoIndex;  ///< bank id, if any
  std::string expected;
  std::string actual;

  /// "structure=cache object=L2.bank3 field=lru_links set=12: expected ..."
  std::string to_string() const;
};

/// Outcome of one audit pass. `checks` counts every invariant evaluated
/// (so a kill-test can tell "clean because audited" from "clean because the
/// auditor never looked"); `violations` is empty iff the structure is
/// internally consistent.
struct AuditReport {
  std::uint64_t checks = 0;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  void merge(AuditReport other);
  /// One line per violation, "" when ok(); capped at 32 violations so a
  /// totally corrupted structure cannot flood the log.
  std::string to_string() const;
};

/// SetAssocCache: the per-set LRU byte-links form a permutation of the ways
/// (head/tail endpoints agree, no cycles, every way linked exactly once);
/// valid/dirty bitmasks are consistent with each other, the way count, and
/// the tag/allocator columns; way masks are non-zero and the derived
/// per-core owned-way masks match them.
AuditReport audit_cache(const cache::SetAssocCache& cache);

/// DnucaCache: every bank passes audit_cache; the residency rows agree
/// slot for slot with bank contents (a valid line's slot holds its partial
/// tag, every other slot is empty, and the lookup finds each resident
/// block at its exact {bank, way}, so the rows are neither stale nor
/// missing entries); the per-core bank views and the flattened
/// view-position table agree.
AuditReport audit_nuca(const nuca::DnucaCache& cache);

/// MoesiDirectory: every entry has at least one sharer within the valid
/// core range; owner id and owner state are mutually consistent (an owner
/// holds E/O/M and its sharer bit; no owner means no ownership state); the
/// single-owner states E and M admit no other sharers.
AuditReport audit_directory(const coherence::MoesiDirectory& directory);

/// Partition plan: mask-vector shapes match the geometry; every way has an
/// owner; masks are single-owner or all-cores (no partial sharing scheme
/// exists); per-core way sums match `allocation` when given; fully
/// partitioned plans cover all ways exactly and respect the paper's 9/16
/// max-capacity rule; bank lists agree bidirectionally with the masks.
AuditReport audit_partition(const partition::CmpGeometry& geometry,
                            const partition::BankAssignment& assignment,
                            const partition::Allocation* allocation = nullptr);

/// Everything sim::System wires together, for cross-structure checks that
/// no single-structure audit can see. Null members are skipped.
struct SystemView {
  const nuca::DnucaCache* l2 = nullptr;
  std::span<const cache::SetAssocCache> l1s;  ///< index == core id
  const coherence::MoesiDirectory* directory = nullptr;
  const partition::Allocation* allocation = nullptr;
};

/// Runs every applicable single-structure audit plus the cross-structure
/// invariants: inclusion (every valid L1 line is L2-resident), directory /
/// L1 agreement in both directions (each valid L1 line is tracked with its
/// core's sharer bit set; each directory sharer bit corresponds to a
/// resident L1 line), and L2 way-partition sums vs. the installed
/// allocation.
AuditReport audit_system_components(const SystemView& view);

/// Friend-key classes: the structures grant these (and only these) access
/// to their internals, so the audits can check raw link bytes and hash
/// slots without widening the public API.
class CacheAuditor {
 public:
  static void run(const cache::SetAssocCache& cache, AuditReport& report);
};

class NucaAuditor {
 public:
  static void run(const nuca::DnucaCache& cache, AuditReport& report);
  static void cross_check(const SystemView& view, AuditReport& report);
};

class DirectoryAuditor {
 public:
  static void run(const coherence::MoesiDirectory& directory, AuditReport& report);
  static void cross_check(const SystemView& view, AuditReport& report);
};

}  // namespace bacp::audit
