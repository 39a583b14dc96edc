#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/snapshot_audit.hpp"
#include "audit/system_audit.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "harness/experiments.hpp"
#include "harness/snapshot_cache.hpp"
#include "nuca/dnuca_cache.hpp"
#include "sampling/sampled_run.hpp"
#include "sim/system.hpp"
#include "sim/system_config.hpp"
#include "snapshot/codec.hpp"
#include "trace/mix.hpp"

namespace bacp {
namespace {

sim::SystemConfig fast_config(sim::PolicyKind policy) {
  sim::SystemConfig config = sim::SystemConfig::baseline();
  config.policy = policy;
  config.epoch_cycles = 1'500'000;
  config.finalize();
  return config;
}

trace::WorkloadMix capacity_diverse_mix() {
  return trace::mix_from_names(
      {"mcf", "eon", "art", "gcc", "bzip2", "sixtrack", "facerec", "gzip"});
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(Codec, RoundTripsScalarsStringsAndArrays) {
  std::vector<std::uint8_t> buffer;
  snapshot::Writer writer(buffer);
  writer.u8(0xAB);
  writer.u16(0xCDEF);
  writer.u32(0x12345678u);
  writer.u64(0x1122334455667788ull);
  writer.f64(-0.125);
  const std::vector<std::uint32_t> values = {1, 2, 3, 5, 8};
  writer.scalars(std::span<const std::uint32_t>(values));
  writer.str("bacp");

  snapshot::Reader reader(buffer);
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xCDEF);
  EXPECT_EQ(reader.u32(), 0x12345678u);
  EXPECT_EQ(reader.u64(), 0x1122334455667788ull);
  EXPECT_EQ(reader.f64(), -0.125);
  EXPECT_EQ(reader.scalars<std::uint32_t>(), values);
  EXPECT_EQ(reader.str(), "bacp");
  EXPECT_TRUE(reader.exhausted());
}

TEST(Codec, BuilderProducesAuditCleanFraming) {
  snapshot::SnapshotBuilder builder(/*config_digest=*/42);
  {
    auto writer = builder.begin_section(snapshot::SectionId::Noc);
    writer.u64(7);
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::Dram);
    writer.str("payload");
  }
  const snapshot::SystemSnapshot snapshot = builder.finish();
  const snapshot::SnapshotView view(snapshot);
  EXPECT_EQ(view.config_digest(), 42u);
  EXPECT_TRUE(view.has_section(snapshot::SectionId::Noc));
  EXPECT_FALSE(view.has_section(snapshot::SectionId::L2));
  const auto report = audit::audit_snapshot(snapshot);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

TEST(SectionChecksum, EverySingleByteFlipChangesTheChecksum) {
  // Lengths 0-72 reach every split of a payload into whole 32-byte blocks,
  // 8-byte words and trailing bytes; each of the 255 non-zero xor patterns
  // at each position must move the checksum.
  common::Rng rng(0xF1A5);
  for (std::size_t length = 0; length <= 72; ++length) {
    std::vector<std::uint8_t> payload(length);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next_below(256));
    const std::uint64_t clean = snapshot::fnv1a(payload);
    for (std::size_t at = 0; at < length; ++at) {
      for (unsigned flip = 1; flip < 256; ++flip) {
        payload[at] ^= static_cast<std::uint8_t>(flip);
        ASSERT_NE(snapshot::fnv1a(payload), clean)
            << "length " << length << ", byte " << at << ", xor " << flip;
        payload[at] ^= static_cast<std::uint8_t>(flip);
      }
    }
    EXPECT_EQ(snapshot::fnv1a(payload), clean);
  }
}

// ---------------------------------------------------------------------------
// System round trip
// ---------------------------------------------------------------------------

TEST(SystemSnapshot, SaveIsDeterministic) {
  sim::System system(fast_config(sim::PolicyKind::BankAware), capacity_diverse_mix());
  system.warm_up(400'000);
  const auto first = system.save_state();
  const auto second = system.save_state();
  EXPECT_EQ(first.bytes, second.bytes);
  EXPECT_GT(first.size_bytes(), 0u);
}

TEST(SystemSnapshot, RestoreResumesBitIdentically) {
  const auto config = fast_config(sim::PolicyKind::BankAware);
  const auto mix = capacity_diverse_mix();

  sim::System original(config, mix);
  original.warm_up(600'000);
  const auto snapshot = original.save_state();
  EXPECT_TRUE(audit::audit_snapshot(snapshot).ok());

  sim::System restored(config, mix);
  restored.restore_state(snapshot);

  // The restored system must pass the full structural audit before running.
  const auto structural = audit::audit_system(restored);
  EXPECT_TRUE(structural.ok()) << structural.to_string();
  EXPECT_GT(structural.checks, 0u);

  original.run(900'000);
  restored.run(900'000);
  EXPECT_EQ(original.results().to_json().dump(), restored.results().to_json().dump());
  EXPECT_EQ(original.results().epochs(), restored.results().epochs());

  // ...and resume along the *same* trajectory, not merely a similar one:
  // the warm states coincide byte-for-byte after the measured window too
  // (compare through a second save from freshly restored twins).
  sim::System twin_a(config, mix);
  twin_a.restore_state(snapshot);
  const auto resaved = twin_a.save_state();
  EXPECT_EQ(resaved.bytes, snapshot.bytes);
}

/// The bank whose own tag scan holds `block`, or kInvalidBank: the
/// brute-force answer the L2's residency lookup must reproduce.
BankId probe_every_bank(const nuca::DnucaCache& l2, BlockAddress block) {
  BankId found = kInvalidBank;
  for (BankId bank = 0; bank < l2.config().geometry.num_banks; ++bank) {
    if (!l2.bank(bank).probe(block)) continue;
    EXPECT_EQ(found, kInvalidBank) << "block " << block << " resident in two banks";
    found = bank;
  }
  return found;
}

/// resident()/bank_of() agree with brute-force probes for every resident
/// block and for a sample of blocks that share a set with one (so they
/// scan the same lookup row) but are mostly absent.
void expect_residency_matches_probes(const nuca::DnucaCache& l2) {
  common::Rng rng(0x5E7);
  const BlockAddress set_stride = l2.config().sets_per_bank;
  std::uint64_t resident = 0;
  std::uint64_t absent = 0;
  for (BankId bank = 0; bank < l2.config().geometry.num_banks; ++bank) {
    for (const cache::Line& line : l2.bank(bank).resident_lines()) {
      ++resident;
      ASSERT_TRUE(l2.resident(line.block)) << "block " << line.block;
      ASSERT_EQ(l2.bank_of(line.block), bank) << "block " << line.block;
      if (resident % 8 != 0) continue;
      const BlockAddress neighbour =
          line.block ^ ((rng.next_below(1u << 16) + 1) * set_stride);
      const BankId holder = probe_every_bank(l2, neighbour);
      if (holder == kInvalidBank) ++absent;
      ASSERT_EQ(l2.resident(neighbour), holder != kInvalidBank) << "block " << neighbour;
      ASSERT_EQ(l2.bank_of(neighbour), holder) << "block " << neighbour;
    }
  }
  EXPECT_GT(resident, 0u);
  EXPECT_GT(absent, 0u);
}

TEST(SystemSnapshot, RestoreOverRunSystemMatchesFreshRestore) {
  // Restore rebuilds the L2 residency lookup from the banks and lays each
  // generator window at the end of its ring, so whatever the target held
  // before (stale residency entries, dirty dead ring slots, heads anywhere)
  // must not leak. Every aggregation scheme moves lines its own way:
  // NoPartition migrates them (SharedDnuca), Cascade demotes them down the
  // chain, TwoLevelCascade swaps with the head, Parallel and AddressHash
  // only fill and evict.
  const auto mix = capacity_diverse_mix();
  const std::pair<sim::PolicyKind, nuca::AggregationKind> variants[] = {
      {sim::PolicyKind::NoPartition, nuca::AggregationKind::SharedDnuca},
      {sim::PolicyKind::EqualPartition, nuca::AggregationKind::Parallel},
      {sim::PolicyKind::EqualPartition, nuca::AggregationKind::AddressHash},
      {sim::PolicyKind::EqualPartition, nuca::AggregationKind::Cascade},
      {sim::PolicyKind::EqualPartition, nuca::AggregationKind::TwoLevelCascade},
  };
  for (const auto& [policy, aggregation] : variants) {
    SCOPED_TRACE(nuca::to_string(aggregation));
    sim::SystemConfig config = sim::SystemConfig::baseline();
    config.policy = policy;
    config.aggregation = aggregation;
    config.epoch_cycles = 1'500'000;
    config.finalize();

    sim::System original(config, mix);
    original.warm_up(400'000);
    const auto snapshot = original.save_state();

    sim::System fresh(config, mix);
    fresh.restore_state(snapshot);
    sim::System used(config, mix);
    used.run(300'000);
    used.restore_state(snapshot);

    for (const sim::System* system : {&fresh, &used}) {
      const auto report = audit::audit_system(*system);
      EXPECT_TRUE(report.ok()) << report.to_string();
      EXPECT_EQ(system->save_state().bytes, snapshot.bytes);
      expect_residency_matches_probes(system->l2());
    }
    fresh.run(600'000);
    used.run(600'000);
    EXPECT_EQ(fresh.results().to_json().dump(), used.results().to_json().dump());
  }
}

TEST(SystemSnapshot, SampledBoundarySnapshotHoldsOnlyLiveState) {
  // Size guard: a sampled boundary carries the generators' live windows,
  // not their rings. One core's dense ring array alone would be 2048 sets
  // x 128 slots x 8 B = 2 MB; all eight cores' live windows stay below it.
  const auto config =
      sampling::sampled_system_config(partition::CmpGeometry{}, 2009, 20'000);
  sim::System system(config, capacity_diverse_mix());
  system.warm_up(60'000);
  const auto snapshot = system.save_state();
  const snapshot::SnapshotView view(snapshot);
  EXPECT_LT(view.section(snapshot::SectionId::Generators).remaining(),
            std::size_t{2048} * 128 * sizeof(BlockAddress));
  EXPECT_LT(snapshot.size_bytes(), std::size_t{8} << 20);
}

TEST(SystemSnapshot, RestoreRejectsMismatchedConfig) {
  const auto mix = capacity_diverse_mix();
  sim::System original(fast_config(sim::PolicyKind::BankAware), mix);
  original.warm_up(100'000);
  const auto snapshot = original.save_state();

  sim::System other(fast_config(sim::PolicyKind::EqualPartition), mix);
  EXPECT_DEATH(other.restore_state(snapshot), "digest");
}

// ---------------------------------------------------------------------------
// Warm-state fingerprint
// ---------------------------------------------------------------------------

TEST(ConfigDigest, SeparatesWarmStateRelevantFields) {
  const auto mix = capacity_diverse_mix();
  const auto base = fast_config(sim::PolicyKind::BankAware);
  const std::uint64_t digest = sim::config_digest(base, mix);

  auto changed = base;
  changed.seed = base.seed + 1;
  EXPECT_NE(sim::config_digest(changed, mix), digest);

  changed = base;
  changed.policy = sim::PolicyKind::EqualPartition;
  EXPECT_NE(sim::config_digest(changed, mix), digest);

  changed = base;
  changed.epoch_cycles = base.epoch_cycles * 2;
  EXPECT_NE(sim::config_digest(changed, mix), digest);

  changed = base;
  changed.aggregation = nuca::AggregationKind::Cascade;
  EXPECT_NE(sim::config_digest(changed, mix), digest);

  changed = base;
  changed.gap_jitter = base.gap_jitter + 0.001;
  EXPECT_NE(sim::config_digest(changed, mix), digest);

  const auto other_mix = trace::mix_from_names(
      {"gcc", "eon", "art", "mcf", "bzip2", "sixtrack", "facerec", "gzip"});
  EXPECT_NE(sim::config_digest(base, other_mix), digest);
}

// Fingerprint completeness is enforced at compile time: system_config.cpp
// static_asserts the exact sizeof of SystemConfig and every nested config
// struct, so adding a warm-state-relevant field without extending
// config_digest() fails the build rather than silently aliasing cache keys.
// This test pins the contract at runtime too (a changed size with an
// *updated* assert but unextended digest would still alias): two configs
// differing in any single scalar field must never collide.
TEST(ConfigDigest, NearbyConfigsDoNotCollide) {
  const auto mix = capacity_diverse_mix();
  const auto base = fast_config(sim::PolicyKind::BankAware);
  const std::uint64_t digest = sim::config_digest(base, mix);

  auto changed = base;
  changed.l1_ways += 1;
  EXPECT_NE(sim::config_digest(changed, mix), digest);
  changed = base;
  changed.noc.cycles_per_hop += 1;
  EXPECT_NE(sim::config_digest(changed, mix), digest);
  changed = base;
  changed.dram.access_latency += 1;
  EXPECT_NE(sim::config_digest(changed, mix), digest);
  changed = base;
  changed.mshr.entries_per_core += 1;
  EXPECT_NE(sim::config_digest(changed, mix), digest);
  changed = base;
  changed.profiler.set_sampling *= 2;
  EXPECT_NE(sim::config_digest(changed, mix), digest);
}

// Bank file names and warm-up keys derive from the digest, so a change to
// its hash, its basis or its field order renames every banked snapshot.
TEST(ConfigDigest, BaselineSet1DigestIsPinned) {
  EXPECT_EQ(sim::config_digest(sim::SystemConfig::baseline(),
                               harness::table3_sets().front().mix()),
            0x929BE740EB5968FCull);
}

// ---------------------------------------------------------------------------
// SnapshotCache
// ---------------------------------------------------------------------------

TEST(SnapshotCache, WarmsEachKeyExactlyOnce) {
  harness::SnapshotCache cache;
  std::atomic<int> warmups{0};
  common::ThreadPool pool(4);
  pool.parallel_for(16, [&](std::size_t task) {
    const auto snapshot = cache.get_or_warm(task % 2, [&] {
      ++warmups;
      return snapshot::SnapshotBuilder(/*config_digest=*/task % 2).finish();
    });
    ASSERT_NE(snapshot, nullptr);
  });
  EXPECT_EQ(warmups.load(), 2);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 14u);
}

TEST(SnapshotCache, WarmupKeySeparatesLengths) {
  EXPECT_NE(harness::warmup_key(1, 100), harness::warmup_key(1, 200));
  EXPECT_NE(harness::warmup_key(1, 100), harness::warmup_key(2, 100));
  EXPECT_EQ(harness::warmup_key(1, 100), harness::warmup_key(1, 100));
}

// The sweep engine's headline invariant: a sweep's results are
// byte-identical to a serial run that warms every System in place, also when
// every warm state crosses the on-disk bank, first on the pass that
// populates it and then on the pass that reads it back.
TEST(SnapshotCache, SweepResultsIndependentOfReuseAndThreads) {
  const auto sets = std::vector<harness::ExperimentSet>{harness::table3_sets()[1]};
  harness::DetailedRunConfig config;
  config.warmup_instructions = 150'000;
  config.measure_instructions = 300'000;
  config.epoch_cycles = 1'500'000;

  harness::SweepOptions options;
  options.num_threads = 1;
  const auto reference = harness::run_detailed_sweep(sets, config, options);

  const std::string bank = testing::TempDir() + "/bacp-sweep-bank";
  std::filesystem::remove_all(bank);
  std::filesystem::create_directories(bank);
  options.num_threads = 3;
  options.snapshot_bank = bank;
  for (const char* pass : {"populate", "warm"}) {
    SCOPED_TRACE(pass);
    const auto banked = harness::run_detailed_sweep(sets, config, options);
    ASSERT_EQ(reference.size(), banked.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].none.to_json().dump(), banked[i].none.to_json().dump());
      EXPECT_EQ(reference[i].equal.to_json().dump(), banked[i].equal.to_json().dump());
      EXPECT_EQ(reference[i].bank_aware.to_json().dump(),
                banked[i].bank_aware.to_json().dump());
    }
    // Policy shapes warm state, so each of the set's three runs banks its
    // own snapshot.
    const auto entries = std::distance(std::filesystem::directory_iterator(bank),
                                       std::filesystem::directory_iterator());
    EXPECT_EQ(entries, 3);
  }
  std::filesystem::remove_all(bank);
}

// A cache miss and a cache hit leave the System exactly where a plain
// in-place warm-up does: the same state bytes and the same run afterwards.
TEST(WarmSystem, CacheMissAndHitMatchWarmingInPlace) {
  const auto config = fast_config(sim::PolicyKind::BankAware);
  const auto mix = capacity_diverse_mix();
  harness::SnapshotCache cache;
  sim::System in_place(config, mix);
  sim::System missed(config, mix);
  sim::System hit(config, mix);
  harness::warm_system(in_place, mix, 300'000, nullptr);
  harness::warm_system(missed, mix, 300'000, &cache);
  harness::warm_system(hit, mix, 300'000, &cache);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  const auto reference = in_place.save_state();
  EXPECT_EQ(missed.save_state().bytes, reference.bytes);
  EXPECT_EQ(hit.save_state().bytes, reference.bytes);
  for (sim::System* system : {&in_place, &missed, &hit}) system->run(400'000);
  const std::string results = in_place.results().to_json().dump();
  EXPECT_EQ(missed.results().to_json().dump(), results);
  EXPECT_EQ(hit.results().to_json().dump(), results);
}

// ---------------------------------------------------------------------------
// File-backed SnapshotCache bank
// ---------------------------------------------------------------------------

snapshot::SystemSnapshot tiny_snapshot() {
  // A minimal structurally-valid snapshot: header + empty section table.
  snapshot::SnapshotBuilder builder(/*config_digest=*/0x5EED);
  return builder.finish();
}

TEST(SnapshotFileBank, PersistsAndReloadsAcrossCacheInstances) {
  const std::string dir = testing::TempDir() + "/bacp-snapbank-reload";
  std::filesystem::create_directories(dir);
  int warmed = 0;
  const auto warm = [&] {
    ++warmed;
    return tiny_snapshot();
  };

  {
    harness::SnapshotCache cache;
    cache.set_file_bank(dir);
    cache.get_or_warm(0xABCD, warm);
    EXPECT_EQ(warmed, 1);
    EXPECT_EQ(cache.file_hits(), 0u);
  }
  {
    // A fresh process (new cache instance) finds the banked snapshot and
    // never runs the warm-up.
    harness::SnapshotCache cache;
    cache.set_file_bank(dir);
    const auto snapshot = cache.get_or_warm(0xABCD, warm);
    EXPECT_EQ(warmed, 1);
    EXPECT_EQ(cache.file_hits(), 1u);
    // The reload arrives through the mmap zero-copy path (backing set, owned
    // bytes empty); its mapped contents must match what was banked.
    EXPECT_NE(snapshot->backing, nullptr);
    const auto reloaded = snapshot->data();
    EXPECT_EQ(std::vector<std::uint8_t>(reloaded.begin(), reloaded.end()),
              tiny_snapshot().bytes);
  }
  std::filesystem::remove_all(dir);
}

TEST(SnapshotFileBank, RejectsCorruptBankEntryAndRewarms) {
  const std::string dir = testing::TempDir() + "/bacp-snapbank-corrupt";
  std::filesystem::create_directories(dir);
  {
    harness::SnapshotCache cache;
    cache.set_file_bank(dir);
    cache.get_or_warm(0x1234, [] { return tiny_snapshot(); });
  }
  // Flip one byte of the banked file: the audit must reject it and the next
  // cache must fall back to warming.
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(0);
    file.put('X');  // clobbers the magic
  }
  int warmed = 0;
  harness::SnapshotCache cache;
  cache.set_file_bank(dir);
  cache.get_or_warm(0x1234, [&] {
    ++warmed;
    return tiny_snapshot();
  });
  EXPECT_EQ(warmed, 1);
  EXPECT_EQ(cache.file_hits(), 0u);
  std::filesystem::remove_all(dir);
}

// The command line refuses a bank it cannot write (read_snapshot_bank), but
// the cache itself must still degrade to memory when a store fails mid-run.
TEST(SnapshotFileBank, UnwritableBankDegradesToInMemory) {
  harness::SnapshotCache cache;
  cache.set_file_bank("/nonexistent-bacp-bank-dir/nested");
  int warmed = 0;
  const auto snapshot = cache.get_or_warm(0x77, [&] {
    ++warmed;
    return tiny_snapshot();
  });
  EXPECT_EQ(warmed, 1);
  EXPECT_FALSE(snapshot->data().empty());
  // Second get on the same key still hits in memory.
  cache.get_or_warm(0x77, [&] {
    ++warmed;
    return tiny_snapshot();
  });
  EXPECT_EQ(warmed, 1);
}

// ---------------------------------------------------------------------------
// mmap zero-copy bank reads
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> contents(const snapshot::SystemSnapshot& snapshot) {
  const auto span = snapshot.data();
  return {span.begin(), span.end()};
}

// The mmap read path is a pure speed dial: a bank entry loaded zero-copy and
// one loaded through buffered reads carry identical bytes, and a System
// restored from the mapped pages resumes on the exact trajectory the saved
// System was on.
TEST(SnapshotCache, MmapAndBufferedBankReadsAreByteIdentical) {
  const std::string dir = testing::TempDir() + "/bacp-snapbank-mmap";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto config = fast_config(sim::PolicyKind::BankAware);
  const auto mix = capacity_diverse_mix();
  sim::System original(config, mix);
  original.warm_up(400'000);
  const auto saved = original.save_state();
  {
    harness::SnapshotCache cache;
    cache.set_file_bank(dir);
    cache.get_or_warm(0xD15C, [&] { return saved; });
  }

  harness::SnapshotCache mapped_cache;
  mapped_cache.set_file_bank(dir);
  const auto mapped = mapped_cache.get_or_warm(0xD15C, [&] { return saved; });
  ASSERT_EQ(mapped_cache.file_hits(), 1u);
  EXPECT_NE(mapped->backing, nullptr);
  EXPECT_TRUE(mapped->bytes.empty());
  EXPECT_EQ(contents(*mapped), saved.bytes);

  harness::SnapshotCache buffered_cache;
  buffered_cache.set_file_bank(dir);
  buffered_cache.set_mmap_reads(false);
  const auto buffered = buffered_cache.get_or_warm(0xD15C, [&] { return saved; });
  ASSERT_EQ(buffered_cache.file_hits(), 1u);
  EXPECT_EQ(buffered->backing, nullptr);
  EXPECT_EQ(contents(*buffered), contents(*mapped));

  // Restoring straight off the mapped pages lands on the saved trajectory:
  // a re-save of the restored twin reproduces the banked bytes exactly.
  sim::System restored(config, mix);
  restored.restore_state(*mapped);
  EXPECT_TRUE(audit::audit_system(restored).ok());
  EXPECT_EQ(restored.save_state().bytes, saved.bytes);

  std::filesystem::remove_all(dir);
}

// Fail-closed: the per-section checksums are recomputed from the mapped
// region itself, so a truncated (or otherwise damaged) bank file is rejected
// before any restore can read it, and the cache falls back to warming.
TEST(SnapshotCache, TruncatedBankEntryFailsClosedUnderMmap) {
  const std::string dir = testing::TempDir() + "/bacp-snapbank-truncated";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    harness::SnapshotCache cache;
    cache.set_file_bank(dir);
    cache.get_or_warm(0x7C0B, [] {
      return snapshot::SnapshotBuilder(/*config_digest=*/0x7C0B).finish();
    });
  }
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  int warmed = 0;
  harness::SnapshotCache cache;
  cache.set_file_bank(dir);
  const auto snapshot = cache.get_or_warm(0x7C0B, [&] {
    ++warmed;
    return snapshot::SnapshotBuilder(0x7C0B).finish();
  });
  EXPECT_EQ(warmed, 1);
  EXPECT_EQ(cache.file_hits(), 0u);
  EXPECT_TRUE(audit::audit_snapshot(*snapshot).ok());
  std::filesystem::remove_all(dir);
}

/// The single file of a one-entry bank directory.
std::string only_bank_file(const std::string& dir) {
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(path.empty()) << "more than one bank entry in " << dir;
    path = entry.path().string();
  }
  return path;
}

void overwrite_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(SnapshotFileBank, PayloadByteFlipsInASampledBoundaryRewarm) {
  // A real sampled-boundary snapshot (megabytes of bank, generator and
  // profiler state): any byte flipped inside its section payloads must fail
  // audit_snapshot, and a bank entry carrying it must make the mmap load
  // rewarm instead of restoring.
  const auto config =
      sampling::sampled_system_config(partition::CmpGeometry{}, 2009, 20'000);
  sim::System system(config, capacity_diverse_mix());
  system.warm_up(60'000);
  const auto saved = system.save_state();
  ASSERT_TRUE(audit::audit_snapshot(saved).ok());

  const std::string dir = testing::TempDir() + "/bacp-snapbank-flips";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  constexpr std::uint64_t kKey = 0xF11B;
  {
    harness::SnapshotCache cache;
    cache.set_file_bank(dir);
    cache.get_or_warm(kKey, [&] { return saved; });
  }
  const std::string path = only_bank_file(dir);
  ASSERT_FALSE(path.empty());

  std::uint32_t sections = 0;
  std::memcpy(&sections, saved.bytes.data() + 12, sizeof(sections));
  const std::size_t payload_offset =
      snapshot::kHeaderBytes + std::size_t{sections} * snapshot::kTableEntryBytes;
  common::Rng rng(0xB17F);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::uint8_t> bytes = saved.bytes;
    const std::size_t at = payload_offset + rng.next_below(bytes.size() - payload_offset);
    bytes[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    snapshot::SystemSnapshot corrupt;
    corrupt.bytes = bytes;
    EXPECT_FALSE(audit::audit_snapshot(corrupt).ok()) << "flip at byte " << at;

    overwrite_file(path, bytes);
    int warmed = 0;
    harness::SnapshotCache cache;
    cache.set_file_bank(dir);
    const auto loaded = cache.get_or_warm(kKey, [&] {
      ++warmed;
      return saved;
    });
    EXPECT_EQ(warmed, 1) << "flip at byte " << at;
    EXPECT_EQ(cache.file_hits(), 0u);
    EXPECT_EQ(contents(*loaded), saved.bytes);
  }
  std::filesystem::remove_all(dir);
}

TEST(SnapshotFileBank, FormatVersion3EntryRewarms) {
  // Bank entries from before the four-lane checksums (format v3) and from
  // before the caches stopped serializing counters (v4) fail the version
  // check and rewarm, even though their own framing is intact.
  for (const std::uint32_t old_version : {3u, 4u}) {
    SCOPED_TRACE(old_version);
    const std::string dir = testing::TempDir() + "/bacp-snapbank-v" + std::to_string(old_version);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    snapshot::SnapshotBuilder builder(/*config_digest=*/0x0B3);
    builder.begin_section(snapshot::SectionId::Noc).u64(7);
    const auto saved = builder.finish();
    constexpr std::uint64_t kKey = 0x0B3;
    {
      harness::SnapshotCache cache;
      cache.set_file_bank(dir);
      cache.get_or_warm(kKey, [&] { return saved; });
    }
    std::vector<std::uint8_t> bytes = saved.bytes;
    std::memcpy(bytes.data() + 8, &old_version, sizeof(old_version));
    snapshot::SystemSnapshot old;
    old.bytes = bytes;
    const auto report = audit::audit_snapshot(old);
    ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
    EXPECT_EQ(report.violations[0].field, "version");

    overwrite_file(only_bank_file(dir), bytes);
    int warmed = 0;
    harness::SnapshotCache cache;
    cache.set_file_bank(dir);
    cache.get_or_warm(kKey, [&] {
      ++warmed;
      return saved;
    });
    EXPECT_EQ(warmed, 1);
    EXPECT_EQ(cache.file_hits(), 0u);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace bacp
