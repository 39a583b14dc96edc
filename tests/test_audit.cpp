#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit/sampling_audit.hpp"
#include "audit/snapshot_audit.hpp"
#include "audit/system_audit.hpp"
#include "cache/set_assoc_cache.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/snapshot.hpp"
#include "coherence/moesi.hpp"
#include "noc/noc.hpp"
#include "nuca/dnuca_cache.hpp"
#include "partition/static_policies.hpp"
#include "sched/sched_audit.hpp"
#include "sched/service.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"
#include "trace/spec2000.hpp"

// Mutation kill-tests: each test plants exactly one corruption through a
// TestPeer (the structures' second friend, next to the auditor itself) and
// asserts the auditor reports a violation with the exact structure and
// field — not merely "something failed". A clean-structure test per auditor
// guards against the dual failure mode of an auditor that cries wolf.

namespace bacp::cache {
/// Test-only backdoor into SetAssocCache internals (friend of the class).
struct CacheTestPeer {
  static std::uint8_t& link(SetAssocCache& cache, std::uint32_t set, WayIndex way,
                            std::size_t offset) {
    return cache.links_[cache.link_index(set, way) + offset];
  }
  static std::uint64_t& valid_mask(SetAssocCache& cache, std::uint32_t set) {
    return cache.meta_[set].valid;
  }
  static std::uint64_t& dirty_mask(SetAssocCache& cache, std::uint32_t set) {
    return cache.meta_[set].dirty;
  }
  static CoreId& allocator(SetAssocCache& cache, std::uint32_t set, WayIndex way) {
    return cache.allocators_[cache.line_index(set, way)];
  }
  static BlockAddress& tag(SetAssocCache& cache, std::uint32_t set, WayIndex way) {
    return cache.tags_[cache.line_index(set, way)];
  }
  static std::uint64_t& owned_ways(SetAssocCache& cache, CoreId core) {
    return cache.owned_ways_[core];
  }
};
}  // namespace bacp::cache

namespace bacp::nuca {
/// Test-only backdoor into DnucaCache internals (friend of the class).
struct NucaTestPeer {
  using Location = DnucaCache::Location;

  static Location locate(const DnucaCache& cache, BlockAddress block) {
    return cache.locate(block);
  }
  static std::uint16_t partial_tag_of(BlockAddress block) {
    return DnucaCache::partial_tag_of(block);
  }
  /// Writes a residency-row slot behind the banks' back.
  static void set_slot(DnucaCache& cache, BlockAddress block, BankId bank, WayIndex way,
                       std::uint16_t tag) {
    cache.set_slot(block, bank, way, tag);
  }
  /// Evicts a resident block through the L2's own bookkeeping (bank line
  /// and row slot), without telling anything above it.
  static void evict(DnucaCache& cache, BlockAddress block) {
    cache.take_line(block, cache.locate(block));
  }
  static cache::SetAssocCache& bank(DnucaCache& cache, BankId id) {
    return cache.banks_[id];
  }
  static std::vector<std::uint32_t>& view_pos(DnucaCache& cache) {
    return cache.view_pos_;
  }
};
}  // namespace bacp::nuca

namespace bacp::coherence {
/// Test-only backdoor into MoesiDirectory internals (friend of the class).
struct DirectoryTestPeer {
  using Entry = MoesiDirectory::Entry;

  static Entry& entry(MoesiDirectory& directory, BlockAddress block) {
    Entry* found = directory.entries_.find(block);
    EXPECT_NE(found, nullptr) << "no directory entry for block " << block;
    return *found;
  }
  static constexpr std::uint8_t no_owner() { return MoesiDirectory::kNoOwner; }
};
}  // namespace bacp::coherence

namespace bacp::audit {
namespace {

using cache::CacheTestPeer;
using cache::SetAssocCache;
using coherence::DirectoryTestPeer;
using coherence::MoesiDirectory;
using nuca::DnucaCache;
using nuca::NucaTestPeer;

/// First violation matching (structure, field), or nullptr.
const Violation* find_violation(const AuditReport& report, Structure structure,
                                const std::string& field) {
  for (const Violation& violation : report.violations) {
    if (violation.structure == structure && violation.field == field) {
      return &violation;
    }
  }
  return nullptr;
}

/// Asserts the report contains a (structure, field) violation and returns it.
const Violation& require_violation(const AuditReport& report, Structure structure,
                                   const std::string& field) {
  const Violation* violation = find_violation(report, structure, field);
  EXPECT_NE(violation, nullptr)
      << "expected a " << to_string(structure) << "/" << field
      << " violation; report: " << (report.ok() ? "clean" : report.to_string());
  static const Violation kEmpty{};
  return violation != nullptr ? *violation : kEmpty;
}

// ---------------------------------------------------------------------------
// SetAssocCache
// ---------------------------------------------------------------------------

SetAssocCache small_cache() {
  SetAssocCache::Config config;
  config.name = "test-cache";
  config.num_sets = 8;
  config.ways = 4;
  config.num_cores = 2;
  SetAssocCache cache(config);
  // A few resident lines across sets, one dirty, from both cores.
  cache.fill(/*block=*/0 * 8 + 0, /*core=*/0, /*dirty=*/false);
  cache.fill(/*block=*/1 * 8 + 0, /*core=*/0, /*dirty=*/true);
  cache.fill(/*block=*/2 * 8 + 3, /*core=*/1, /*dirty=*/false);
  cache.fill(/*block=*/3 * 8 + 3, /*core=*/1, /*dirty=*/false);
  cache.access(/*block=*/0 * 8 + 0, /*core=*/0, /*is_write=*/false);
  return cache;
}

TEST(AuditCache, CleanCachePassesAndCountsChecks) {
  const SetAssocCache cache = small_cache();
  const AuditReport report = audit_cache(cache);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // 8 sets x 4 ways of per-line checks alone exceed this; a tiny count
  // would mean the auditor skipped the structure.
  EXPECT_GT(report.checks, 50u);
}

TEST(AuditCache, KillsBrokenLruLink) {
  SetAssocCache cache = small_cache();
  // Point way 0's next-link back at way 0: whenever the recency walk
  // reaches way 0 it revisits or self-cycles, so the per-set permutation
  // breaks.
  CacheTestPeer::link(cache, 0, 0, 1) = 0;
  const AuditReport report = audit_cache(cache);
  const Violation& violation = require_violation(report, Structure::Cache, "lru_links");
  EXPECT_EQ(violation.set, 0u);
  EXPECT_EQ(violation.object, "test-cache");
}

TEST(AuditCache, KillsDirtyBitOnInvalidLine) {
  SetAssocCache cache = small_cache();
  // Set 5 is empty: forge a dirty bit with no valid line under it.
  CacheTestPeer::dirty_mask(cache, 5) |= 0x2;
  const AuditReport report = audit_cache(cache);
  const Violation& violation = require_violation(report, Structure::Cache, "dirty_mask");
  EXPECT_EQ(violation.set, 5u);
}

TEST(AuditCache, KillsValidBitBeyondWayCount) {
  SetAssocCache cache = small_cache();
  CacheTestPeer::valid_mask(cache, 2) |= std::uint64_t{1} << 7;  // only 4 ways
  const AuditReport report = audit_cache(cache);
  const Violation& violation = require_violation(report, Structure::Cache, "valid_mask");
  EXPECT_EQ(violation.set, 2u);
}

TEST(AuditCache, KillsStaleAllocatorOnInvalidLine) {
  SetAssocCache cache = small_cache();
  // Way 3 of set 0 is invalid; a leftover core id there means invalidate()
  // forgot to reset the allocator column.
  CacheTestPeer::allocator(cache, 0, 3) = 1;
  const AuditReport report = audit_cache(cache);
  const Violation& violation = require_violation(report, Structure::Cache, "allocator");
  EXPECT_EQ(violation.set, 0u);
}

TEST(AuditCache, KillsTagMappedToWrongSet) {
  SetAssocCache cache = small_cache();
  // Set 0 way 0 holds block 0; rewrite the tag to a block whose set index
  // is 3 — a misfiled line that lookups of set 3 would never find.
  CacheTestPeer::tag(cache, 0, 0) = 3;
  const AuditReport report = audit_cache(cache);
  const Violation& violation = require_violation(report, Structure::Cache, "tags");
  EXPECT_EQ(violation.set, 0u);
}

TEST(AuditCache, KillsDesyncedOwnedWaysCache) {
  SetAssocCache cache = small_cache();
  // owned_ways_ is derived from way_masks_; flipping a bit simulates a
  // repartition path that forgot rebuild_owned_ways().
  CacheTestPeer::owned_ways(cache, 0) ^= 0x1;
  const AuditReport report = audit_cache(cache);
  const Violation& violation = require_violation(report, Structure::Cache, "owned_ways");
  EXPECT_EQ(violation.set, 0u);  // set column carries the core id here
}

// ---------------------------------------------------------------------------
// DnucaCache
// ---------------------------------------------------------------------------

nuca::DnucaConfig small_dnuca_config() {
  nuca::DnucaConfig config;
  config.geometry.num_cores = 4;
  config.geometry.num_banks = 8;
  config.geometry.ways_per_bank = 4;
  config.sets_per_bank = 16;
  config.aggregation = nuca::AggregationKind::Parallel;
  return config;
}

noc::NocConfig small_noc_config() {
  noc::NocConfig config;
  config.num_cores = 4;
  config.num_banks = 8;
  return config;
}

BlockAddress dnuca_block(std::uint32_t set, std::uint64_t tag) {
  return tag * 16 + set;
}

void populate(DnucaCache& cache) {
  Cycle now = 0;
  for (CoreId core = 0; core < 4; ++core) {
    for (std::uint64_t i = 0; i < 12; ++i) {
      cache.access(dnuca_block(static_cast<std::uint32_t>(i % 16), 100 + core * 32 + i),
                   core, (i % 3) == 0, now);
      now += 10;
    }
  }
}

TEST(AuditNuca, CleanDnucaPassesAndCountsChecks) {
  noc::Noc noc(small_noc_config());
  DnucaCache cache(small_dnuca_config(), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  populate(cache);
  const AuditReport report = audit_nuca(cache);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 500u);
}

TEST(AuditNuca, KillsMissingResidencyEntry) {
  noc::Noc noc(small_noc_config());
  DnucaCache cache(small_dnuca_config(), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  populate(cache);
  // Zero one resident block's slot: the line is still in its bank, but
  // every future lookup would miss it (a silent duplicate-fill bug).
  const BlockAddress victim = dnuca_block(0, 100);
  const auto at = NucaTestPeer::locate(cache, victim);
  ASSERT_NE(at.bank, kInvalidBank);
  NucaTestPeer::set_slot(cache, victim, at.bank, at.way, 0);
  ASSERT_FALSE(cache.resident(victim));
  const AuditReport report = audit_nuca(cache);
  const Violation& violation =
      require_violation(report, Structure::Nuca, "residency_index");
  EXPECT_NE(violation.bank, kNoIndex);
}

TEST(AuditNuca, KillsResidencyEntryPointingAtWrongWay) {
  noc::Noc noc(small_noc_config());
  DnucaCache cache(small_dnuca_config(), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  populate(cache);
  // Move a resident block's tag to the next way of its bank: its own slot
  // goes empty and the other way's slot carries a tag that is not its
  // line's.
  const BlockAddress victim = dnuca_block(0, 100);
  const auto at = NucaTestPeer::locate(cache, victim);
  ASSERT_NE(at.bank, kInvalidBank);
  NucaTestPeer::set_slot(cache, victim, at.bank, at.way, 0);
  NucaTestPeer::set_slot(cache, victim, at.bank, (at.way + 1) % 4,
                         NucaTestPeer::partial_tag_of(victim));
  const AuditReport report = audit_nuca(cache);
  require_violation(report, Structure::Nuca, "residency_index");
}

TEST(AuditNuca, KillsStaleResidencyEntryForEvictedBlock) {
  noc::Noc noc(small_noc_config());
  DnucaCache cache(small_dnuca_config(), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  populate(cache);
  // Drop a resident line from its bank but leave its tag in the row: a
  // tag on an invalid line, the signature of an eviction path that forgot
  // to empty the slot.
  const BlockAddress victim = dnuca_block(7, 100 + 7);
  const auto at = NucaTestPeer::locate(cache, victim);
  ASSERT_NE(at.bank, kInvalidBank);
  ASSERT_TRUE(NucaTestPeer::bank(cache, at.bank).invalidate(victim).has_value());
  const AuditReport report = audit_nuca(cache);
  const Violation& violation =
      require_violation(report, Structure::Nuca, "residency_index");
  EXPECT_EQ(violation.bank, at.bank);
  EXPECT_EQ(violation.set, 7u);
}

TEST(AuditNuca, KillsDesyncedViewPositionTable) {
  noc::Noc noc(small_noc_config());
  DnucaCache cache(small_dnuca_config(), noc);
  cache.apply_assignment(partition::equal_partition(cache.config().geometry).assignment);
  populate(cache);
  // view_pos_ is the flattened inverse of views_; corrupt one entry.
  NucaTestPeer::view_pos(cache)[0] += 1;
  const AuditReport report = audit_nuca(cache);
  require_violation(report, Structure::Nuca, "view_pos");
}

// ---------------------------------------------------------------------------
// MoesiDirectory
// ---------------------------------------------------------------------------

TEST(AuditDirectory, CleanDirectoryPassesAndCountsChecks) {
  MoesiDirectory directory(4);
  directory.on_l1_read_fill(10, 0);
  directory.on_l1_read_fill(10, 1);   // S + S
  directory.on_l1_write_fill(20, 2);  // M
  directory.on_l1_read_fill(30, 3);   // E
  directory.on_l1_write_fill(40, 1);
  directory.on_l1_read_fill(40, 0);   // O + S
  const AuditReport report = audit_directory(directory);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 8u);
}

TEST(AuditDirectory, KillsForgedSecondCopyInModifiedState) {
  MoesiDirectory directory(4);
  directory.on_l1_write_fill(20, 2);  // core 2 Modified, sole copy
  // Forge a second sharer while the owner believes it is Modified: two
  // cores could now observe divergent data.
  DirectoryTestPeer::entry(directory, 20).sharers |= core_bit(0);
  const AuditReport report = audit_directory(directory);
  const Violation& violation =
      require_violation(report, Structure::Directory, "exclusive_sharers");
  EXPECT_EQ(violation.set, 20u);  // set column carries the block address
}

TEST(AuditDirectory, KillsOwnerWithoutSharerBit) {
  MoesiDirectory directory(4);
  directory.on_l1_write_fill(20, 2);
  DirectoryTestPeer::entry(directory, 20).sharers = core_bit(1);  // owner 2 dropped
  const AuditReport report = audit_directory(directory);
  require_violation(report, Structure::Directory, "owner");
}

TEST(AuditDirectory, KillsOwnershipStateWithoutOwner) {
  MoesiDirectory directory(4);
  directory.on_l1_write_fill(20, 2);
  DirectoryTestPeer::entry(directory, 20).owner = DirectoryTestPeer::no_owner();
  const AuditReport report = audit_directory(directory);
  require_violation(report, Structure::Directory, "owner_state");
}

TEST(AuditDirectory, KillsEmptySharerMask) {
  MoesiDirectory directory(4);
  directory.on_l1_read_fill(10, 0);
  DirectoryTestPeer::entry(directory, 10).sharers = 0;
  const AuditReport report = audit_directory(directory);
  require_violation(report, Structure::Directory, "sharers");
}

TEST(AuditDirectory, KillsSharerBeyondCoreCount) {
  MoesiDirectory directory(4);
  directory.on_l1_read_fill(10, 0);
  DirectoryTestPeer::entry(directory, 10).sharers |= core_bit(7);  // only 4 cores
  const AuditReport report = audit_directory(directory);
  require_violation(report, Structure::Directory, "sharers");
}

// ---------------------------------------------------------------------------
// Partition plans
// ---------------------------------------------------------------------------

TEST(AuditPartition, CleanEqualPlanPasses) {
  partition::CmpGeometry geometry;
  geometry.num_cores = 4;
  geometry.num_banks = 8;
  geometry.ways_per_bank = 4;
  const auto plan = partition::equal_partition(geometry);
  const AuditReport report =
      audit_partition(geometry, plan.assignment, &plan.allocation);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 30u);
}

TEST(AuditPartition, CleanSharedPlanPasses) {
  partition::CmpGeometry geometry;
  geometry.num_cores = 4;
  geometry.num_banks = 8;
  geometry.ways_per_bank = 4;
  const auto plan = partition::no_partition(geometry);
  const AuditReport report =
      audit_partition(geometry, plan.assignment, &plan.allocation);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AuditPartition, KillsOversubscribedCore) {
  partition::CmpGeometry geometry;
  geometry.num_cores = 4;
  geometry.num_banks = 8;
  geometry.ways_per_bank = 4;
  auto plan = partition::equal_partition(geometry);
  // Hand every way of every bank to core 0: 32 of 32 ways, far beyond the
  // paper's 9/16 cap (18 ways). Keep the bank lists and allocation in sync
  // so only the capacity rule is violated.
  for (auto& bank_masks : plan.assignment.way_masks) {
    for (CoreMask& mask : bank_masks) mask = core_bit(0);
  }
  plan.assignment.banks_of_core.assign(geometry.num_cores, {});
  for (BankId bank = 0; bank < geometry.num_banks; ++bank) {
    plan.assignment.banks_of_core[0].push_back(bank);
  }
  plan.allocation.ways_per_core = {32, 0, 0, 0};
  const AuditReport report =
      audit_partition(geometry, plan.assignment, &plan.allocation);
  const Violation& violation = require_violation(report, Structure::Partition, "max_cap");
  EXPECT_EQ(violation.set, 0u);  // the oversubscribed core
}

TEST(AuditPartition, KillsWaySumAllocationMismatch) {
  partition::CmpGeometry geometry;
  geometry.num_cores = 4;
  geometry.num_banks = 8;
  geometry.ways_per_bank = 4;
  auto plan = partition::equal_partition(geometry);
  plan.allocation.ways_per_core[1] += 1;  // claims a way the masks never grant
  const AuditReport report =
      audit_partition(geometry, plan.assignment, &plan.allocation);
  const Violation& violation = require_violation(report, Structure::Partition, "way_sum");
  EXPECT_EQ(violation.set, 1u);
}

TEST(AuditPartition, KillsOrphanedWay) {
  partition::CmpGeometry geometry;
  geometry.num_cores = 4;
  geometry.num_banks = 8;
  geometry.ways_per_bank = 4;
  auto plan = partition::equal_partition(geometry);
  plan.assignment.way_masks[3][2] = 0;  // capacity silently lost
  const AuditReport report = audit_partition(geometry, plan.assignment, nullptr);
  const Violation& violation =
      require_violation(report, Structure::Partition, "way_masks");
  EXPECT_EQ(violation.bank, 3u);
}

TEST(AuditPartition, KillsBankListDesync) {
  partition::CmpGeometry geometry;
  geometry.num_cores = 4;
  geometry.num_banks = 8;
  geometry.ways_per_bank = 4;
  auto plan = partition::equal_partition(geometry);
  ASSERT_FALSE(plan.assignment.banks_of_core[2].empty());
  plan.assignment.banks_of_core[2].pop_back();  // owns ways there, list disagrees
  const AuditReport report = audit_partition(geometry, plan.assignment, nullptr);
  require_violation(report, Structure::Partition, "banks_of_core");
}

// ---------------------------------------------------------------------------
// Cross-structure (manual SystemView)
// ---------------------------------------------------------------------------

/// A hand-built three-structure hierarchy the cross-checks can bite into:
/// per-core single-core L1s, the DNUCA L2, and the directory, kept
/// consistent the way sim::System keeps them.
struct MiniHierarchy {
  noc::Noc noc;
  DnucaCache l2;
  std::vector<SetAssocCache> l1s;
  MoesiDirectory directory;

  MiniHierarchy()
      : noc(small_noc_config()),
        l2(small_dnuca_config(), noc),
        directory(4) {
    l2.apply_assignment(partition::equal_partition(l2.config().geometry).assignment);
    for (CoreId core = 0; core < 4; ++core) {
      SetAssocCache::Config config;
      config.name = "L1.core" + std::to_string(core);
      config.num_sets = 4;
      config.ways = 2;
      config.num_cores = 1;
      l1s.emplace_back(config);
    }
    Cycle now = 0;
    for (CoreId core = 0; core < 4; ++core) {
      for (std::uint64_t i = 0; i < 4; ++i) {
        const BlockAddress block = dnuca_block(static_cast<std::uint32_t>(i), 7 + core);
        l2.access(block, core, false, now);
        if (!l1s[core].probe(block)) {
          l1s[core].fill(block, 0, false);
          directory.on_l1_read_fill(block, core);
        }
        now += 10;
      }
    }
  }

  SystemView view() {
    SystemView result;
    result.l2 = &l2;
    result.l1s = {l1s.data(), l1s.size()};
    result.directory = &directory;
    return result;
  }
};

TEST(AuditCross, CleanHierarchyPasses) {
  MiniHierarchy hierarchy;
  const AuditReport report = audit_system_components(hierarchy.view());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 100u);
}

TEST(AuditCross, KillsInclusionViolation) {
  MiniHierarchy hierarchy;
  // Evict a block from the L2 behind the directory's back while core 0's
  // L1 still holds it (keeping the L2's own index consistent, so only the
  // cross-structure inclusion check can see the hole).
  const BlockAddress block = dnuca_block(0, 7);
  ASSERT_TRUE(hierarchy.l1s[0].probe(block));
  const BankId bank = hierarchy.l2.bank_of(block);
  ASSERT_NE(bank, kInvalidBank);
  NucaTestPeer::evict(hierarchy.l2, block);
  ASSERT_FALSE(hierarchy.l2.resident(block));
  const AuditReport report = audit_system_components(hierarchy.view());
  const Violation& violation = require_violation(report, Structure::Cross, "inclusion");
  EXPECT_EQ(violation.set, 0u);  // the core whose L1 lost its backing copy
}

TEST(AuditCross, KillsUntrackedL1Line) {
  MiniHierarchy hierarchy;
  // Drop core 1's sharer bit for a block its L1 still holds: the directory
  // would never invalidate that copy again.
  const BlockAddress block = dnuca_block(0, 8);
  ASSERT_TRUE(hierarchy.l1s[1].probe(block));
  hierarchy.directory.on_l1_evict(block, 1, false);
  const AuditReport report = audit_system_components(hierarchy.view());
  require_violation(report, Structure::Cross, "sharers");
  require_violation(report, Structure::Cross, "copy_tokens");
}

TEST(AuditCross, KillsForgedSharerToken) {
  MiniHierarchy hierarchy;
  // Forge a sharer bit for a core whose L1 holds nothing: token conservation
  // (sum of sharer bits == total L1 lines) breaks upward.
  const BlockAddress block = dnuca_block(0, 7);  // core 0's block, S state
  DirectoryTestPeer::entry(hierarchy.directory, block).sharers |= core_bit(3);
  const AuditReport report = audit_system_components(hierarchy.view());
  require_violation(report, Structure::Cross, "sharers");
  require_violation(report, Structure::Cross, "copy_tokens");
}

TEST(AuditCross, KillsPartitionAllocationMismatch) {
  MiniHierarchy hierarchy;
  partition::Allocation allocation =
      partition::equal_partition(hierarchy.l2.config().geometry).allocation;
  allocation.ways_per_core[2] -= 1;  // installed masks grant one more
  SystemView view = hierarchy.view();
  view.allocation = &allocation;
  const AuditReport report = audit_system_components(view);
  const Violation& violation = require_violation(report, Structure::Cross, "way_sum");
  EXPECT_EQ(violation.set, 2u);
}

// ---------------------------------------------------------------------------
// Whole-system smoke: a real simulation passes its own audit.
// ---------------------------------------------------------------------------

TEST(AuditSystem, RealSimulationPassesFullAudit) {
  sim::SystemConfig config = sim::SystemConfig::baseline();
  config.policy = sim::PolicyKind::BankAware;
  config.epoch_cycles = 400'000;
  config.finalize();
  sim::System system(config, trace::mix_from_names({"mcf", "eon", "art", "gcc",
                                                    "bzip2", "sixtrack", "facerec",
                                                    "gzip"}));
  system.warm_up(100'000);
  system.run(200'000);
  const AuditReport report = audit_system(system);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 1000u);
}

// ---------------------------------------------------------------------------
// Snapshot framing (mutation kill-tests: one corruption each, asserting the
// exact structure/field the auditor must report)
// ---------------------------------------------------------------------------

snapshot::SystemSnapshot small_snapshot() {
  snapshot::SnapshotBuilder builder(/*config_digest=*/7);
  {
    auto writer = builder.begin_section(snapshot::SectionId::Noc);
    writer.u64(11);
    writer.u64(13);
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::Dram);
    writer.str("dram-state");
  }
  return builder.finish();
}

TEST(SnapshotAudit, CleanSnapshotPasses) {
  const auto report = audit_snapshot(small_snapshot());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

TEST(SnapshotAudit, FlagsTruncatedBuffer) {
  auto snapshot = small_snapshot();
  snapshot.bytes.resize(snapshot::kHeaderBytes - 1);
  require_violation(audit_snapshot(snapshot), Structure::Snapshot, "min_size");
}

TEST(SnapshotAudit, FlagsTruncatedSectionTable) {
  auto snapshot = small_snapshot();
  snapshot.bytes.resize(snapshot::kHeaderBytes + snapshot::kTableEntryBytes / 2);
  require_violation(audit_snapshot(snapshot), Structure::Snapshot, "table_bounds");
}

TEST(SnapshotAudit, FlagsCorruptedMagic) {
  auto snapshot = small_snapshot();
  snapshot.bytes[0] ^= 0xFF;
  require_violation(audit_snapshot(snapshot), Structure::Snapshot, "magic");
}

TEST(SnapshotAudit, FlagsVersionSkew) {
  auto snapshot = small_snapshot();
  snapshot.bytes[8] += 1;  // version field sits right after the u64 magic
  require_violation(audit_snapshot(snapshot), Structure::Snapshot, "version");
}

TEST(SnapshotAudit, FlagsCorruptedSectionPayload) {
  auto snapshot = small_snapshot();
  snapshot.bytes.back() ^= 0x01;  // last payload byte, checksummed
  const auto report = audit_snapshot(snapshot);
  const Violation& violation =
      require_violation(report, Structure::Snapshot, "checksum");
  EXPECT_NE(violation.object.find("dram"), std::string::npos);
}

TEST(SnapshotAudit, FlagsTrailingBytes) {
  auto snapshot = small_snapshot();
  snapshot.bytes.push_back(0);
  require_violation(audit_snapshot(snapshot), Structure::Snapshot, "trailing_bytes");
}

TEST(SnapshotAudit, FlagsOversizedSectionCount) {
  auto snapshot = small_snapshot();
  snapshot.bytes[12] = 0xFF;  // section count field
  require_violation(audit_snapshot(snapshot), Structure::Snapshot, "section_count");
}

TEST(AuditReportTest, ViolationRendersAllCoordinates) {
  Violation violation;
  violation.structure = Structure::Nuca;
  violation.object = "dnuca";
  violation.field = "residency_index";
  violation.bank = 3;
  violation.set = 12;
  violation.expected = "{3,1}";
  violation.actual = "{3,2}";
  EXPECT_EQ(violation.to_string(),
            "structure=nuca object=dnuca field=residency_index bank=3 set=12: "
            "expected {3,1}, actual {3,2}");
}

TEST(AuditReportTest, MergeAccumulatesChecksAndViolations) {
  AuditReport a;
  a.checks = 5;
  a.violations.push_back({});
  AuditReport b;
  b.checks = 7;
  b.violations.push_back({});
  b.violations.push_back({});
  a.merge(std::move(b));
  EXPECT_EQ(a.checks, 12u);
  EXPECT_EQ(a.violations.size(), 3u);
  EXPECT_FALSE(a.ok());
}

}  // namespace
}  // namespace bacp::audit

namespace bacp::sched {
/// Test-only backdoor into Service internals (friend of the class).
struct ServiceTestPeer {
  static std::vector<std::uint64_t>& slot_tenant(Service& service) {
    return service.slot_tenant_;
  }
  static CoreId& slot(Service& service, std::uint64_t id) {
    return service.tenants_.at(id).slot;
  }
  static WayCount& ways(Service& service, std::uint64_t id) {
    return service.tenants_.at(id).ways;
  }
  static std::size_t& workload(Service& service, std::uint64_t id) {
    return service.tenants_.at(id).workload;
  }
  static void set_slot_active(Service& service, CoreId slot, bool active) {
    service.system_.set_core_active(slot, active);
  }
  static void drop_tenant(Service& service, std::uint64_t id) {
    service.tenants_.erase(id);
  }
};
}  // namespace bacp::sched

namespace bacp::audit {
namespace {

using sched::Service;
using sched::ServiceTestPeer;

/// Two live tenants on slots 0 and 1, a couple of epochs of history.
Service small_service() {
  sched::ServiceConfig config;
  config.system.epoch_cycles = 10'000;
  config.system.seed = 13;
  config.finalize();
  Service service(config, trace::mix_from_names({"gzip", "mesa", "eon", "crafty",
                                                 "perlbmk", "gap", "vortex", "bzip2"}));
  service.admit({1, "mcf"});
  service.admit({2, "swim"});
  service.step(2);
  return service;
}

TEST(AuditSched, CleanServicePassesAndCountsChecks) {
  const Service service = small_service();
  const AuditReport report = sched::audit_sched(service);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

TEST(AuditSched, KillsOrphanedActiveSlotAfterEviction) {
  Service service = small_service();
  service.evict(2);
  // Resurrect the freed slot's activity behind the scheduler's back — the
  // exact "orphaned allocation after evict" failure the audit exists for.
  ServiceTestPeer::set_slot_active(service, 1, true);
  require_violation(sched::audit_sched(service), Structure::Sched,
                    "orphaned_active_slot");
}

TEST(AuditSched, KillsDeactivatedLiveTenant) {
  Service service = small_service();
  ServiceTestPeer::set_slot_active(service, 0, false);
  require_violation(sched::audit_sched(service), Structure::Sched, "tenant_active");
}

TEST(AuditSched, KillsSlotTableDesync) {
  Service service = small_service();
  ServiceTestPeer::slot_tenant(service)[0] = 2;  // both slots now claim tenant 2
  require_violation(sched::audit_sched(service), Structure::Sched, "slot_ownership");
}

TEST(AuditSched, KillsTenantPointingAtForeignSlot) {
  Service service = small_service();
  ServiceTestPeer::slot(service, 1) = 5;  // a free slot tenant 1 does not own
  require_violation(sched::audit_sched(service), Structure::Sched, "slot_ownership");
}

TEST(AuditSched, KillsOutOfRangeSlot) {
  Service service = small_service();
  ServiceTestPeer::slot(service, 1) = 64;
  require_violation(sched::audit_sched(service), Structure::Sched, "tenant_slot_range");
}

TEST(AuditSched, KillsStaleSlotOwner) {
  Service service = small_service();
  ServiceTestPeer::drop_tenant(service, 2);  // slot 1 now names a ghost
  require_violation(sched::audit_sched(service), Structure::Sched,
                    "orphaned_slot_owner");
}

TEST(AuditSched, KillsAllocationDrift) {
  Service service = small_service();
  ServiceTestPeer::ways(service, 1) += 1;
  require_violation(sched::audit_sched(service), Structure::Sched,
                    "allocation_agreement");
}

TEST(AuditSched, KillsWorkloadRebindingBehindTheScheduler) {
  Service service = small_service();
  ServiceTestPeer::workload(service, 1) += 1;
  require_violation(sched::audit_sched(service), Structure::Sched, "workload_binding");
}

// ---------------------------------------------------------------------------
// Sampling-plan legality
// ---------------------------------------------------------------------------

/// A clean plan: 6 intervals, medoids {1, 4}, intervals 0-2 in slot 0 and
/// 3-5 in slot 1.
SamplingPlanInput clean_sampling_plan() {
  SamplingPlanInput plan;
  plan.num_intervals = 6;
  plan.k = 2;
  plan.medoids = {1, 4};
  plan.assignment = {0, 0, 0, 1, 1, 1};
  plan.weights = {3, 3};
  return plan;
}

TEST(AuditSampling, CleanPlanPassesAndCountsChecks) {
  const AuditReport report = audit_sampling_plan(clean_sampling_plan());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

TEST(AuditSampling, KillsEmptyPlan) {
  auto plan = clean_sampling_plan();
  plan.num_intervals = 0;
  require_violation(audit_sampling_plan(plan), Structure::Sampling, "interval_count");
}

TEST(AuditSampling, KillsKBeyondIntervalCount) {
  auto plan = clean_sampling_plan();
  plan.k = 7;
  require_violation(audit_sampling_plan(plan), Structure::Sampling, "k_range");
}

TEST(AuditSampling, KillsMedoidCountMismatch) {
  auto plan = clean_sampling_plan();
  plan.medoids.push_back(5);  // three medoids, k still 2
  require_violation(audit_sampling_plan(plan), Structure::Sampling, "medoid_set_size");
}

TEST(AuditSampling, KillsOutOfRangeMedoid) {
  auto plan = clean_sampling_plan();
  plan.medoids[1] = 6;  // intervals are 0..5
  const AuditReport report = audit_sampling_plan(plan);
  const Violation& violation =
      require_violation(report, Structure::Sampling, "medoid_range");
  EXPECT_EQ(violation.set, 1u);
}

TEST(AuditSampling, KillsUnorderedMedoids) {
  auto plan = clean_sampling_plan();
  plan.medoids = {4, 1};
  plan.assignment = {1, 1, 1, 0, 0, 0};
  require_violation(audit_sampling_plan(plan), Structure::Sampling, "medoid_order");
}

TEST(AuditSampling, KillsAssignmentSizeMismatch) {
  auto plan = clean_sampling_plan();
  plan.assignment.pop_back();  // one interval left unassigned
  require_violation(audit_sampling_plan(plan), Structure::Sampling, "assignment_size");
}

TEST(AuditSampling, KillsAssignmentToMissingSlot) {
  auto plan = clean_sampling_plan();
  plan.assignment[5] = 2;  // only slots 0 and 1 exist
  require_violation(audit_sampling_plan(plan), Structure::Sampling, "assignment_range");
}

TEST(AuditSampling, KillsMedoidAssignedToForeignCluster) {
  auto plan = clean_sampling_plan();
  plan.assignment[4] = 0;  // medoid 4 defected to slot 0
  plan.weights = {4, 2};   // keep weights honest so only the defect fires
  require_violation(audit_sampling_plan(plan), Structure::Sampling,
                    "medoid_self_assignment");
}

TEST(AuditSampling, KillsWeightCountMismatch) {
  auto plan = clean_sampling_plan();
  plan.weights.pop_back();
  require_violation(audit_sampling_plan(plan), Structure::Sampling, "weight_set_size");
}

TEST(AuditSampling, KillsWeightPopulationMismatch) {
  auto plan = clean_sampling_plan();
  plan.weights = {2, 4};  // populations are 3 and 3
  const AuditReport report = audit_sampling_plan(plan);
  const Violation& violation =
      require_violation(report, Structure::Sampling, "weight_match");
  EXPECT_EQ(violation.set, 0u);
}

}  // namespace
}  // namespace bacp::audit
