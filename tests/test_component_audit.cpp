#include "audit/component_audit.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "core/core_timer.hpp"
#include "mem/dram.hpp"
#include "msa/stack_profiler.hpp"
#include "noc/noc.hpp"
#include "obs/timeseries.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

// Mutation kill-tests for the per-component auditors (the bacp-audit-coverage
// entry points): each test plants exactly one corruption through the
// structure's TestPeer and asserts the auditor reports a violation with the
// exact (Component, field) coordinates, plus a clean-structure test per
// auditor so none of them cries wolf.

namespace bacp::noc {
/// Test-only backdoor into Noc internals (friend of the class).
struct NocTestPeer {
  static NocConfig& config(Noc& noc) { return noc.config_; }
  static std::vector<Cycle>& bank_free_at(Noc& noc) { return noc.bank_free_at_; }
  static std::vector<std::uint64_t>& bank_requests(Noc& noc) {
    return noc.stats_.bank_requests;
  }
};
}  // namespace bacp::noc

namespace bacp::trace {
/// Test-only backdoor into SyntheticTraceGenerator internals.
struct GeneratorTestPeer {
  static std::uint32_t& ring_mask(SyntheticTraceGenerator& generator) {
    return generator.ring_mask_;
  }
  static std::uint32_t& head(SyntheticTraceGenerator& generator, std::uint32_t set) {
    return generator.recency_heads_[set];
  }
  static std::uint32_t& size(SyntheticTraceGenerator& generator, std::uint32_t set) {
    return generator.recency_sizes_[set];
  }
  static SyntheticTraceGenerator::BlockId& entry(SyntheticTraceGenerator& generator,
                                                 std::uint32_t set, std::uint32_t depth) {
    const std::uint32_t capacity = generator.ring_capacity_;
    const std::uint32_t slot =
        (generator.recency_heads_[set] + depth) & generator.ring_mask_;
    return generator.recency_ids_[std::size_t{set} * capacity + slot];
  }
  static bool& live_batch(SyntheticTraceGenerator& generator) {
    return generator.live_batch_;
  }
};
}  // namespace bacp::trace

namespace bacp::msa {
/// Test-only backdoor into StackProfiler internals.
struct ProfilerTestPeer {
  static std::vector<std::uint64_t>& stack_entries(StackProfiler& profiler) {
    return profiler.stack_entries_;
  }
  static std::vector<std::uint32_t>& stack_sizes(StackProfiler& profiler) {
    return profiler.stack_sizes_;
  }
  static std::uint64_t& sampled(StackProfiler& profiler) { return profiler.sampled_; }
  static std::uint32_t& sample_mask(StackProfiler& profiler) {
    return profiler.sample_mask_;
  }
};
}  // namespace bacp::msa

namespace bacp::core {
/// Test-only backdoor into CoreTimer internals.
struct TimerTestPeer {
  using InFlight = CoreTimer::InFlight;
  static std::vector<InFlight>& outstanding(CoreTimer& timer) {
    return timer.outstanding_;
  }
  static double& mark_time(CoreTimer& timer) { return timer.mark_time_; }
};
}  // namespace bacp::core

namespace bacp::obs {
/// Test-only backdoor into TimeSeries internals.
struct SeriesTestPeer {
  static std::map<std::string, TimeSeries::SeriesHandle, std::less<>>& index(
      TimeSeries& series) {
    return series.index_;
  }
  static std::vector<std::vector<double>>& columns(TimeSeries& series) {
    return series.columns_;
  }
};
}  // namespace bacp::obs

namespace bacp::audit {
namespace {

/// First violation matching (Component, field) on `object`, or nullptr.
const Violation* find_violation(const AuditReport& report, const std::string& field) {
  for (const Violation& violation : report.violations) {
    if (violation.structure == Structure::Component && violation.field == field) {
      return &violation;
    }
  }
  return nullptr;
}

void require_violation(const AuditReport& report, const std::string& field) {
  EXPECT_NE(find_violation(report, field), nullptr)
      << "expected a component/" << field
      << " violation; report: " << (report.ok() ? "clean" : report.to_string());
}

// ---------------------------------------------------------------------------
// Noc
// ---------------------------------------------------------------------------

noc::Noc exercised_noc() {
  noc::Noc noc(noc::NocConfig{});
  Cycle now = 0;
  for (CoreId core = 0; core < 8; ++core) {
    for (BankId bank = 0; bank < 16; ++bank) {
      noc.request(core, bank, now);
      now += 3;
    }
  }
  return noc;
}

TEST(ComponentAuditNoc, CleanFabricPassesAndCountsChecks) {
  const noc::Noc noc = exercised_noc();
  const AuditReport report = audit_noc_fabric(noc);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 100u);  // 8 cores x 16 banks of hop checks alone
}

TEST(ComponentAuditNoc, KillsResizedBankOccupancyTable) {
  noc::Noc noc = exercised_noc();
  noc::NocTestPeer::bank_free_at(noc).pop_back();
  require_violation(audit_noc_fabric(noc), "bank_occupancy");
}

TEST(ComponentAuditNoc, KillsResizedRequestCounters) {
  noc::Noc noc = exercised_noc();
  noc::NocTestPeer::bank_requests(noc).push_back(0);
  require_violation(audit_noc_fabric(noc), "bank_requests");
}

TEST(ComponentAuditNoc, KillsZeroedBankService) {
  noc::Noc noc = exercised_noc();
  noc::NocTestPeer::config(noc).bank_busy_cycles = 0;
  require_violation(audit_noc_fabric(noc), "bank_service");
}

TEST(ComponentAuditNoc, KillsZeroedHopCap) {
  noc::Noc noc = exercised_noc();
  // hops() clamps to the cap, so a zeroed cap collapses every distance to
  // zero — below the floorplan's one-hop floor.
  noc::NocTestPeer::config(noc).max_hops = 0;
  const AuditReport report = audit_noc_fabric(noc);
  require_violation(report, "latency_model");
  require_violation(report, "hops");
}

// ---------------------------------------------------------------------------
// Dram
// ---------------------------------------------------------------------------

TEST(ComponentAuditDram, CleanChannelPasses) {
  const mem::Dram dram(mem::DramConfig{});
  const AuditReport report = audit_dram_channel(dram);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

TEST(ComponentAuditDram, KillsZeroAccessLatency) {
  mem::DramConfig config;
  config.access_latency = 0;
  require_violation(audit_dram_channel(mem::Dram(config)), "access_latency");
}

TEST(ComponentAuditDram, KillsZeroLineTransferTime) {
  mem::DramConfig config;
  config.cycles_per_line = 0;
  require_violation(audit_dram_channel(mem::Dram(config)), "cycles_per_line");
}

// ---------------------------------------------------------------------------
// SyntheticTraceGenerator
// ---------------------------------------------------------------------------

trace::SyntheticTraceGenerator exercised_generator() {
  trace::GeneratorConfig config;
  config.num_sets = 64;
  config.max_depth = 32;
  trace::SyntheticTraceGenerator generator(trace::spec2000_by_name("gzip"), config, 7);
  for (int i = 0; i < 5000; ++i) generator.next();
  return generator;
}

TEST(ComponentAuditGenerator, CleanGeneratorPassesAndCountsChecks) {
  const auto generator = exercised_generator();
  const AuditReport report = audit_trace_generator(generator);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 100u);  // per-set ring walks dominate
}

TEST(ComponentAuditGenerator, KillsDesyncedRingMask) {
  auto generator = exercised_generator();
  trace::GeneratorTestPeer::ring_mask(generator) += 1;
  require_violation(audit_trace_generator(generator), "ring_mask");
}

TEST(ComponentAuditGenerator, KillsHeadBeyondCapacity) {
  auto generator = exercised_generator();
  trace::GeneratorTestPeer::head(generator, 3) = 32;  // capacity is 32
  require_violation(audit_trace_generator(generator), "ring_head");
}

TEST(ComponentAuditGenerator, KillsBlockBeyondAllocationCounter) {
  auto generator = exercised_generator();
  ASSERT_GT(trace::GeneratorTestPeer::size(generator, 0), 0u);
  // A block id the allocator never handed out: the signature of a rewind
  // path that restored the counter but not the ring bytes.
  trace::GeneratorTestPeer::entry(generator, 0, 0) =
      ~trace::SyntheticTraceGenerator::BlockId{0};
  require_violation(audit_trace_generator(generator), "ring_entry");
}

TEST(ComponentAuditGenerator, KillsDuplicatedRecencyEntry) {
  auto generator = exercised_generator();
  ASSERT_GT(trace::GeneratorTestPeer::size(generator, 0), 1u);
  trace::GeneratorTestPeer::entry(generator, 0, 1) =
      trace::GeneratorTestPeer::entry(generator, 0, 0);
  require_violation(audit_trace_generator(generator), "ring_uniqueness");
}

TEST(ComponentAuditGenerator, KillsLiveBatchWithoutUndoLog) {
  auto generator = exercised_generator();
  // A live flag with an empty undo log is unrewindable: truncate_batch()
  // could no longer restore the pre-batch rings.
  trace::GeneratorTestPeer::live_batch(generator) = true;
  require_violation(audit_trace_generator(generator), "batch_bookkeeping");
}

// ---------------------------------------------------------------------------
// StackProfiler
// ---------------------------------------------------------------------------

msa::StackProfiler exercised_profiler() {
  msa::ProfilerConfig config;
  config.num_sets = 256;
  config.set_sampling = 4;
  config.profiled_ways = 16;
  msa::StackProfiler profiler(config);
  for (BlockAddress block = 0; block < 4096; ++block) {
    profiler.observe(block * 37 % 8192);
  }
  return profiler;
}

TEST(ComponentAuditProfiler, CleanProfilerPassesAndCountsChecks) {
  const auto profiler = exercised_profiler();
  const AuditReport report = audit_stack_profiler(profiler);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 50u);  // per-stack size checks dominate
}

TEST(ComponentAuditProfiler, KillsResizedStackStorage) {
  auto profiler = exercised_profiler();
  msa::ProfilerTestPeer::stack_entries(profiler).pop_back();
  require_violation(audit_stack_profiler(profiler), "stack_storage");
}

TEST(ComponentAuditProfiler, KillsOverflowedStack) {
  auto profiler = exercised_profiler();
  msa::ProfilerTestPeer::stack_sizes(profiler)[0] = 17;  // 16 profiled ways
  require_violation(audit_stack_profiler(profiler), "stack_size");
}

TEST(ComponentAuditProfiler, KillsDesyncedSamplingMask) {
  auto profiler = exercised_profiler();
  msa::ProfilerTestPeer::sample_mask(profiler) = 7;  // sampling 4 -> mask 3
  require_violation(audit_stack_profiler(profiler), "sampling_mask");
}

TEST(ComponentAuditProfiler, KillsSampledExceedingObserved) {
  auto profiler = exercised_profiler();
  msa::ProfilerTestPeer::sampled(profiler) = profiler.observed_accesses() + 1;
  require_violation(audit_stack_profiler(profiler), "access_counters");
}

// ---------------------------------------------------------------------------
// CoreTimer
// ---------------------------------------------------------------------------

core::CoreTimer exercised_timer() {
  core::CoreTimerConfig config;
  config.mlp_window = 4;
  core::CoreTimer timer(config);
  for (int i = 0; i < 32; ++i) {
    const Cycle issued = timer.advance_to_issue();
    timer.record_completion(issued + 40);
  }
  timer.mark();
  const Cycle issued = timer.advance_to_issue();
  timer.record_completion(issued + 40);
  return timer;
}

TEST(ComponentAuditTimer, CleanTimerPassesAndCountsChecks) {
  const auto timer = exercised_timer();
  const AuditReport report = audit_core_timer(timer);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 4u);
}

TEST(ComponentAuditTimer, KillsOverfullInFlightWindow) {
  auto timer = exercised_timer();
  auto& outstanding = core::TimerTestPeer::outstanding(timer);
  while (outstanding.size() <= 4) outstanding.push_back(outstanding.back());
  require_violation(audit_core_timer(timer), "inflight_window");
}

TEST(ComponentAuditTimer, KillsBrokenCompletionHeap) {
  auto timer = exercised_timer();
  auto& outstanding = core::TimerTestPeer::outstanding(timer);
  ASSERT_FALSE(outstanding.empty());
  core::TimerTestPeer::InFlight late;
  late.done_at = outstanding.front().done_at + 1e9;
  outstanding.insert(outstanding.begin(), late);  // a root later than its children
  // Keep the window legal so only the heap-order invariant fires.
  while (outstanding.size() > 4) outstanding.pop_back();
  require_violation(audit_core_timer(timer), "inflight_heap");
}

TEST(ComponentAuditTimer, KillsMarkAheadOfClock) {
  auto timer = exercised_timer();
  core::TimerTestPeer::mark_time(timer) = static_cast<double>(timer.time()) + 1000.0;
  require_violation(audit_core_timer(timer), "clock_marks");
}

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

obs::TimeSeries exercised_series() {
  obs::TimeSeries series;
  const auto cpi = series.intern("cpi");
  const auto miss = series.intern("miss_ratio");
  for (int epoch = 0; epoch < 4; ++epoch) {
    series.begin_epoch();
    series.record(cpi, 0.7 + epoch * 0.01);
    series.record(miss, 0.2);
  }
  return series;
}

TEST(ComponentAuditSeries, CleanSeriesPassesAndCountsChecks) {
  const auto series = exercised_series();
  const AuditReport report = audit_epoch_series(series);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 4u);
}

TEST(ComponentAuditSeries, KillsDanglingHandle) {
  auto series = exercised_series();
  obs::SeriesTestPeer::index(series)["ghost"] = 99;  // no such column
  require_violation(audit_epoch_series(series), "handle_range");
}

TEST(ComponentAuditSeries, KillsAliasedHandles) {
  auto series = exercised_series();
  obs::SeriesTestPeer::index(series)["alias"] = 0;  // shares cpi's column
  require_violation(audit_epoch_series(series), "handle_uniqueness");
}

TEST(ComponentAuditSeries, KillsOrphanedColumn) {
  auto series = exercised_series();
  obs::SeriesTestPeer::columns(series).emplace_back();  // column with no name
  require_violation(audit_epoch_series(series), "column_ownership");
}

TEST(ComponentAuditSeries, KillsColumnLongerThanEpochCount) {
  auto series = exercised_series();
  obs::SeriesTestPeer::columns(series)[0].push_back(0.0);  // 5 samples, 4 epochs
  require_violation(audit_epoch_series(series), "column_length");
}

}  // namespace
}  // namespace bacp::audit
