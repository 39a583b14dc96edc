#include "audit/audit.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "cache/set_assoc_cache.hpp"
#include "coherence/moesi.hpp"
#include "nuca/dnuca_cache.hpp"
#include "partition/partition_types.hpp"

namespace bacp::audit {

const char* to_string(Structure structure) {
  switch (structure) {
    case Structure::Cache: return "cache";
    case Structure::Nuca: return "nuca";
    case Structure::Directory: return "directory";
    case Structure::Partition: return "partition";
    case Structure::Cross: return "cross";
    case Structure::Snapshot: return "snapshot";
    case Structure::Sched: return "sched";
    case Structure::Sampling: return "sampling";
    case Structure::Component: return "component";
  }
  return "?";
}

std::string Violation::to_string() const {
  std::ostringstream oss;
  oss << "structure=" << audit::to_string(structure) << " object=" << object
      << " field=" << field;
  if (bank != kNoIndex) oss << " bank=" << bank;
  if (set != kNoIndex) oss << " set=" << set;
  oss << ": expected " << expected << ", actual " << actual;
  return oss.str();
}

void AuditReport::merge(AuditReport other) {
  checks += other.checks;
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

std::string AuditReport::to_string() const {
  if (ok()) return "";
  constexpr std::size_t kMaxListed = 32;
  std::ostringstream oss;
  oss << violations.size() << " violation(s) in " << checks << " checks";
  const std::size_t listed = std::min(violations.size(), kMaxListed);
  for (std::size_t i = 0; i < listed; ++i) {
    oss << "\n  " << violations[i].to_string();
  }
  if (violations.size() > kMaxListed) {
    oss << "\n  ... " << (violations.size() - kMaxListed) << " more";
  }
  return oss.str();
}

namespace {

/// Collects into `report`; every check() call counts one evaluated
/// invariant so kill-tests can assert the auditor actually looked.
class Collector {
 public:
  Collector(AuditReport& report, Structure structure, std::string object)
      : report_(&report), structure_(structure), object_(std::move(object)) {}

  /// Evaluates one invariant; on failure records a violation located at
  /// (bank, set) with the given field and expected/actual rendering.
  bool check(bool condition, const char* field, std::uint64_t bank, std::uint64_t set,
             std::string expected, std::string actual) {
    ++report_->checks;
    if (!condition) {
      Violation violation;
      violation.structure = structure_;
      violation.object = object_;
      violation.field = field;
      violation.set = set;
      violation.bank = bank;
      violation.expected = std::move(expected);
      violation.actual = std::move(actual);
      report_->violations.push_back(std::move(violation));
    }
    return condition;
  }

 private:
  AuditReport* report_;
  Structure structure_;
  std::string object_;
};

std::string u64_str(std::uint64_t value) { return std::to_string(value); }

std::string hex_str(std::uint64_t value) {
  std::ostringstream oss;
  oss << "0x" << std::hex << value;
  return oss.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// SetAssocCache
// ---------------------------------------------------------------------------

void CacheAuditor::run(const cache::SetAssocCache& cache, AuditReport& report) {
  using cache::SetAssocCache;
  const auto& config = cache.config_;
  Collector out(report, Structure::Cache, config.name);

  const std::uint64_t way_bits =
      config.ways >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << config.ways) - 1);

  // Way masks: one per way, each non-zero, and the derived per-core
  // owned-way bitmaps agree with them.
  out.check(cache.way_masks_.size() == config.ways, "way_masks", kNoIndex, kNoIndex,
            u64_str(config.ways) + " masks", u64_str(cache.way_masks_.size()));
  for (WayIndex way = 0; way < cache.way_masks_.size(); ++way) {
    out.check(cache.way_masks_[way] != 0, "way_masks", kNoIndex, way,
              "non-zero owner mask", "0");
  }
  for (CoreId core = 0; core < cache.owned_ways_.size(); ++core) {
    std::uint64_t derived = 0;
    for (WayIndex way = 0; way < cache.way_masks_.size(); ++way) {
      if ((cache.way_masks_[way] & core_bit(core)) != 0) {
        derived |= std::uint64_t{1} << way;
      }
    }
    out.check(cache.owned_ways_[core] == derived, "owned_ways", kNoIndex, core,
              hex_str(derived), hex_str(cache.owned_ways_[core]));
  }

  for (std::uint32_t set = 0; set < config.num_sets; ++set) {
    const auto& meta = cache.meta_[set];

    // Bitmask hygiene: no bits beyond the way count, dirty only on valid.
    out.check((meta.valid & ~way_bits) == 0, "valid_mask", kNoIndex, set,
              "bits within " + u64_str(config.ways) + " ways", hex_str(meta.valid));
    out.check((meta.dirty & ~meta.valid) == 0, "dirty_mask", kNoIndex, set,
              "dirty subset of valid " + hex_str(meta.valid), hex_str(meta.dirty));

    // LRU byte-links: walking next-links from head must visit every way
    // exactly once and end at tail, with prev-links mirroring each hop.
    std::uint64_t visited = 0;
    std::uint32_t steps = 0;
    std::uint8_t way = meta.head;
    std::uint8_t prev = SetAssocCache::kNil;
    bool links_ok = true;
    while (way != SetAssocCache::kNil && steps <= config.ways) {
      if (way >= config.ways || ((visited >> way) & 1) != 0) {
        links_ok = out.check(false, "lru_links", kNoIndex, set,
                             "permutation walk of " + u64_str(config.ways) + " ways",
                             "revisits or out-of-range way " + u64_str(way));
        break;
      }
      const std::uint8_t linked_prev = cache.links_[cache.link_index(set, way)];
      if (linked_prev != prev) {
        links_ok = out.check(false, "lru_links", kNoIndex, set,
                             "prev(" + u64_str(way) + ") == " + u64_str(prev),
                             u64_str(linked_prev));
        break;
      }
      visited |= std::uint64_t{1} << way;
      ++steps;
      prev = way;
      way = cache.links_[cache.link_index(set, way) + 1];
    }
    if (links_ok) {
      out.check(visited == way_bits && steps == config.ways, "lru_links", kNoIndex,
                set, "all " + u64_str(config.ways) + " ways visited",
                u64_str(steps) + " visited, mask " + hex_str(visited));
      out.check(meta.tail == prev, "lru_links", kNoIndex, set,
                "tail == last-walked way " + u64_str(prev), u64_str(meta.tail));
    }

    // Tag/allocator columns vs. the valid bitmask.
    for (WayIndex w = 0; w < config.ways; ++w) {
      const std::size_t index = cache.line_index(set, w);
      if (((meta.valid >> w) & 1) != 0) {
        out.check(cache.set_index(cache.tags_[index]) == set, "tags", kNoIndex, set,
                  "tag maps to set " + u64_str(set),
                  "block " + hex_str(cache.tags_[index]) + " maps to set " +
                      u64_str(cache.set_index(cache.tags_[index])));
        out.check(cache.allocators_[index] != kInvalidCore &&
                      cache.allocators_[index] < config.num_cores,
                  "allocator", kNoIndex, set, "valid core id for valid line",
                  u64_str(cache.allocators_[index]));
      } else {
        out.check(cache.allocators_[index] == kInvalidCore, "allocator", kNoIndex,
                  set, "kInvalidCore on invalid line",
                  u64_str(cache.allocators_[index]));
      }
    }
  }
}

AuditReport audit_cache(const cache::SetAssocCache& cache) {
  AuditReport report;
  CacheAuditor::run(cache, report);
  return report;
}

// ---------------------------------------------------------------------------
// DnucaCache
// ---------------------------------------------------------------------------

void NucaAuditor::run(const nuca::DnucaCache& cache, AuditReport& report) {
  const auto& geometry = cache.config_.geometry;
  Collector out(report, Structure::Nuca, "dnuca");

  // Residency rows: every slot holds its line's partial tag while the line
  // is valid and 0 otherwise, padding slots stay 0, and the lookup finds
  // each valid line at exactly its {bank, way} — so the rows can be
  // neither stale nor lossy, and no block is resident twice.
  for (BankId bank = 0; bank < cache.banks_.size(); ++bank) {
    CacheAuditor::run(cache.banks_[bank], report);
    const auto& bank_cache = cache.banks_[bank];
    const auto& config = bank_cache.config();
    for (std::uint32_t set = 0; set < config.num_sets; ++set) {
      for (WayIndex way = 0; way < config.ways; ++way) {
        const auto line = bank_cache.line_at(set, way);
        const std::uint16_t tag =
            cache.fingerprints_[std::size_t{set} * cache.row_slots() +
                                std::size_t{bank} * config.ways + way];
        if (!line.valid) {
          out.check(tag == 0, "residency_index", bank, set,
                    "empty slot for invalid way " + u64_str(way), "tag " + u64_str(tag));
          continue;
        }
        const std::uint16_t expected = nuca::DnucaCache::partial_tag_of(line.block);
        if (!out.check(tag == expected, "residency_index", bank, set,
                       "tag " + u64_str(expected) + " for resident block " +
                           hex_str(line.block) + " in way " + u64_str(way),
                       "tag " + u64_str(tag))) {
          continue;
        }
        const auto found = cache.locate(line.block);
        out.check(found.bank == bank && found.way == way, "residency_index", bank, set,
                  "lookup of " + hex_str(line.block) + " at {" + u64_str(bank) + "," +
                      u64_str(way) + "}",
                  "{" + u64_str(found.bank) + "," + u64_str(found.way) + "}");
      }
    }
  }
  const std::size_t slots = std::size_t{geometry.num_banks} * geometry.ways_per_bank;
  for (std::uint32_t set = 0; set < cache.config_.sets_per_bank; ++set) {
    for (std::size_t slot = slots; slot < cache.row_slots(); ++slot) {
      const std::uint16_t tag = cache.fingerprints_[std::size_t{set} * cache.row_slots() + slot];
      out.check(tag == 0, "residency_index", kNoIndex, set,
                "empty padding slot " + u64_str(slot), "tag " + u64_str(tag));
    }
  }

  // Views: right shape, no out-of-range or duplicate banks, and the
  // flattened core x bank position table matches them bidirectionally.
  out.check(cache.views_.size() == geometry.num_cores, "views", kNoIndex, kNoIndex,
            u64_str(geometry.num_cores) + " views", u64_str(cache.views_.size()));
  out.check(cache.round_robin_.size() == geometry.num_cores, "round_robin", kNoIndex,
            kNoIndex, u64_str(geometry.num_cores) + " cursors",
            u64_str(cache.round_robin_.size()));
  for (CoreId core = 0; core < cache.views_.size(); ++core) {
    const auto& view = cache.views_[core];
    out.check(!view.empty(), "views", kNoIndex, core, "non-empty view", "empty");
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < view.size(); ++i) {
      const BankId bank = view[i];
      if (!out.check(bank < geometry.num_banks && ((seen >> bank) & 1) == 0, "views",
                     bank, core, "unique in-range bank", u64_str(bank))) {
        continue;
      }
      seen |= std::uint64_t{1} << bank;
      out.check(cache.view_position(core, bank) == i, "view_pos", bank, core,
                u64_str(i), u64_str(cache.view_position(core, bank)));
    }
    for (BankId bank = 0; bank < geometry.num_banks; ++bank) {
      if (((seen >> bank) & 1) == 0) {
        out.check(cache.view_position(core, bank) == nuca::DnucaCache::kNotInView,
                  "view_pos", bank, core, "kNotInView for bank outside view",
                  u64_str(cache.view_position(core, bank)));
      }
    }
  }
}

AuditReport audit_nuca(const nuca::DnucaCache& cache) {
  AuditReport report;
  NucaAuditor::run(cache, report);
  return report;
}

// ---------------------------------------------------------------------------
// MoesiDirectory
// ---------------------------------------------------------------------------

void DirectoryAuditor::run(const coherence::MoesiDirectory& directory,
                           AuditReport& report) {
  using coherence::MoesiDirectory;
  using coherence::MoesiState;
  Collector out(report, Structure::Directory, "directory");

  const CoreMask valid_cores = directory.num_cores_ >= 32
                                   ? ~CoreMask{0}
                                   : ((CoreMask{1} << directory.num_cores_) - 1);
  directory.entries_.for_each([&](std::uint64_t block,
                                  const MoesiDirectory::Entry& entry) {
    // Entries exist only while some L1 holds a copy, and sharer vectors are
    // exact — so an empty or out-of-range sharer mask is corruption.
    out.check(entry.sharers != 0, "sharers", kNoIndex, block,
              "at least one sharer while tracked", "0");
    out.check((entry.sharers & ~valid_cores) == 0, "sharers", kNoIndex, block,
              "sharers within " + u64_str(directory.num_cores_) + " cores",
              hex_str(entry.sharers));

    if (entry.owner == MoesiDirectory::kNoOwner) {
      // No owner token: all copies are plain Shared.
      out.check(entry.owner_state == MoesiState::Invalid, "owner_state", kNoIndex,
                block, "Invalid without an owner",
                coherence::to_string(entry.owner_state));
      return;
    }
    if (!out.check(entry.owner < directory.num_cores_, "owner", kNoIndex, block,
                   "owner < " + u64_str(directory.num_cores_),
                   u64_str(entry.owner))) {
      return;
    }
    out.check((entry.sharers & core_bit(entry.owner)) != 0, "owner", kNoIndex, block,
              "owner holds its own sharer bit", hex_str(entry.sharers));
    // Exactly one ownership token, in an ownership state.
    out.check(entry.owner_state == MoesiState::Exclusive ||
                  entry.owner_state == MoesiState::Owned ||
                  entry.owner_state == MoesiState::Modified,
              "owner_state", kNoIndex, block, "E, O or M for an owner",
              coherence::to_string(entry.owner_state));
    if (entry.owner_state == MoesiState::Exclusive ||
        entry.owner_state == MoesiState::Modified) {
      // E and M are sole-copy states: a second sharer is a forged copy that
      // would let two cores observe divergent data.
      out.check(entry.sharers == core_bit(entry.owner), "exclusive_sharers",
                kNoIndex, block,
                "only owner " + u64_str(entry.owner) + " in state " +
                    coherence::to_string(entry.owner_state),
                hex_str(entry.sharers));
    }
  });
}

AuditReport audit_directory(const coherence::MoesiDirectory& directory) {
  AuditReport report;
  DirectoryAuditor::run(directory, report);
  return report;
}

// ---------------------------------------------------------------------------
// Partition plans
// ---------------------------------------------------------------------------

AuditReport audit_partition(const partition::CmpGeometry& geometry,
                            const partition::BankAssignment& assignment,
                            const partition::Allocation* allocation) {
  AuditReport report;
  Collector out(report, Structure::Partition, "plan");

  const CoreMask all_cores = geometry.num_cores >= 32
                                 ? ~CoreMask{0}
                                 : ((CoreMask{1} << geometry.num_cores) - 1);
  out.check(assignment.way_masks.size() == geometry.num_banks, "way_masks", kNoIndex,
            kNoIndex, u64_str(geometry.num_banks) + " banks",
            u64_str(assignment.way_masks.size()));

  bool fully_partitioned = true;
  std::vector<WayCount> way_sums(geometry.num_cores, 0);
  for (BankId bank = 0; bank < assignment.way_masks.size(); ++bank) {
    const auto& masks = assignment.way_masks[bank];
    out.check(masks.size() == geometry.ways_per_bank, "way_masks", bank, kNoIndex,
              u64_str(geometry.ways_per_bank) + " ways", u64_str(masks.size()));
    for (WayIndex way = 0; way < masks.size(); ++way) {
      const CoreMask mask = masks[way];
      // Full coverage: an orphaned way is capacity silently lost.
      out.check(mask != 0, "way_masks", bank, way, "non-zero owner mask", "0");
      // Policies emit single-owner ways or the all-cores shared baseline;
      // any other sharing pattern is not a plan either policy can produce.
      out.check(std::popcount(mask) == 1 || (mask & all_cores) == all_cores,
                "way_masks", bank, way, "single owner or all cores shared",
                hex_str(mask));
      if (std::popcount(mask) != 1) fully_partitioned = false;
      for (CoreId core = 0; core < geometry.num_cores; ++core) {
        if ((mask & core_bit(core)) != 0) ++way_sums[core];
      }
    }
  }

  if (allocation != nullptr) {
    out.check(allocation->ways_per_core.size() == geometry.num_cores, "allocation",
              kNoIndex, kNoIndex, u64_str(geometry.num_cores) + " cores",
              u64_str(allocation->ways_per_core.size()));
    for (CoreId core = 0;
         core < std::min<std::size_t>(way_sums.size(), allocation->ways_per_core.size());
         ++core) {
      out.check(way_sums[core] == allocation->ways_per_core[core], "way_sum",
                kNoIndex, core, u64_str(allocation->ways_per_core[core]) + " ways",
                u64_str(way_sums[core]));
    }
  }
  if (fully_partitioned) {
    // Disjoint plans cover every way exactly once and obey the paper's
    // 9/16 maximum-capacity rule (Section III-A).
    WayCount total = 0;
    for (const WayCount sum : way_sums) total += sum;
    out.check(total == geometry.total_ways(), "way_sum", kNoIndex, kNoIndex,
              u64_str(geometry.total_ways()) + " total ways", u64_str(total));
    for (CoreId core = 0; core < way_sums.size(); ++core) {
      out.check(way_sums[core] <= geometry.max_assignable_ways(), "max_cap", kNoIndex,
                core, "<= " + u64_str(geometry.max_assignable_ways()),
                u64_str(way_sums[core]));
    }
  }

  // Bank lists: core c lists bank b iff c owns at least one way in b.
  out.check(assignment.banks_of_core.size() == geometry.num_cores, "banks_of_core",
            kNoIndex, kNoIndex, u64_str(geometry.num_cores) + " bank lists",
            u64_str(assignment.banks_of_core.size()));
  for (CoreId core = 0; core < assignment.banks_of_core.size(); ++core) {
    std::uint64_t listed = 0;
    for (const BankId bank : assignment.banks_of_core[core]) {
      if (!out.check(bank < geometry.num_banks && ((listed >> bank) & 1) == 0,
                     "banks_of_core", bank, core, "unique in-range bank",
                     u64_str(bank))) {
        continue;
      }
      listed |= std::uint64_t{1} << bank;
    }
    for (BankId bank = 0;
         bank < std::min<std::size_t>(geometry.num_banks, assignment.way_masks.size());
         ++bank) {
      bool owns = false;
      for (const CoreMask mask : assignment.way_masks[bank]) {
        owns = owns || (mask & core_bit(core)) != 0;
      }
      out.check(owns == (((listed >> bank) & 1) != 0), "banks_of_core", bank, core,
                owns ? "listed (owns ways)" : "absent (owns none)",
                ((listed >> bank) & 1) != 0 ? "listed" : "absent");
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Cross-structure
// ---------------------------------------------------------------------------

void NucaAuditor::cross_check(const SystemView& view, AuditReport& report) {
  if (view.l2 == nullptr || view.allocation == nullptr) return;
  Collector out(report, Structure::Cross, "l2-partition");
  const auto& cache = *view.l2;
  const auto& geometry = cache.config_.geometry;
  // The installed bank way-masks must sum to the allocation the policy
  // reported — otherwise the simulated partitioning and every per-core
  // `allocated_ways` statistic describe different machines.
  out.check(view.allocation->ways_per_core.size() == geometry.num_cores,
            "allocation", kNoIndex, kNoIndex, u64_str(geometry.num_cores) + " cores",
            u64_str(view.allocation->ways_per_core.size()));
  for (CoreId core = 0;
       core < std::min<std::size_t>(geometry.num_cores,
                                    view.allocation->ways_per_core.size());
       ++core) {
    WayCount owned = 0;
    for (BankId bank = 0; bank < cache.banks_.size(); ++bank) {
      owned += cache.banks_[bank].ways_owned(core);
    }
    out.check(owned == view.allocation->ways_per_core[core], "way_sum", kNoIndex,
              core, u64_str(view.allocation->ways_per_core[core]) + " ways",
              u64_str(owned));
  }
}

void DirectoryAuditor::cross_check(const SystemView& view, AuditReport& report) {
  if (view.directory == nullptr || view.l1s.empty()) return;
  using coherence::MoesiDirectory;
  Collector out(report, Structure::Cross, "directory-l1");
  const auto& directory = *view.directory;

  // L1 -> directory (and L1 -> L2 inclusion): every valid L1 line is
  // tracked with its core's sharer bit, and — the inclusive hierarchy's
  // defining property — still resident in the L2.
  std::uint64_t l1_lines = 0;
  for (CoreId core = 0; core < view.l1s.size(); ++core) {
    for (const auto& line : view.l1s[core].resident_lines()) {
      ++l1_lines;
      out.check((directory.sharers_of(line.block) & core_bit(core)) != 0, "sharers",
                kNoIndex, core,
                "sharer bit for L1-resident block " + hex_str(line.block),
                hex_str(directory.sharers_of(line.block)));
      if (view.l2 != nullptr) {
        out.check(view.l2->resident(line.block), "inclusion", kNoIndex, core,
                  "L2-resident copy of L1 block " + hex_str(line.block),
                  "not resident");
      }
    }
  }

  // Directory -> L1: every sharer bit corresponds to a resident L1 line.
  // With both directions clean, sum(popcount(sharers)) == total L1 lines —
  // the directory's copy-token count is conserved.
  std::uint64_t tokens = 0;
  directory.entries_.for_each([&](std::uint64_t block,
                                  const MoesiDirectory::Entry& entry) {
    tokens += static_cast<std::uint64_t>(std::popcount(entry.sharers));
    for (CoreId core = 0; core < view.l1s.size(); ++core) {
      if ((entry.sharers & core_bit(core)) == 0) continue;
      out.check(view.l1s[core].probe(block), "sharers", kNoIndex, core,
                "L1-resident copy of tracked block " + hex_str(block),
                "not in L1");
    }
  });
  out.check(tokens == l1_lines, "copy_tokens", kNoIndex, kNoIndex,
            u64_str(l1_lines) + " (total L1 lines)", u64_str(tokens));
}

AuditReport audit_system_components(const SystemView& view) {
  AuditReport report;
  if (view.l2 != nullptr) NucaAuditor::run(*view.l2, report);
  for (const auto& l1 : view.l1s) CacheAuditor::run(l1, report);
  if (view.directory != nullptr) DirectoryAuditor::run(*view.directory, report);
  NucaAuditor::cross_check(view, report);
  DirectoryAuditor::cross_check(view, report);
  return report;
}

}  // namespace bacp::audit
