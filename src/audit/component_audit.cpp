#include "audit/component_audit.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <set>
#include <string>

#include "core/core_timer.hpp"
#include "mem/dram.hpp"
#include "msa/stack_profiler.hpp"
#include "noc/noc.hpp"
#include "obs/timeseries.hpp"
#include "trace/synthetic.hpp"

namespace bacp::audit {

namespace {

void violation(AuditReport& report, const std::string& object,
               const std::string& field, std::string expected,
               std::string actual, std::uint64_t set = kNoIndex,
               std::uint64_t bank = kNoIndex) {
  Violation entry;
  entry.structure = Structure::Component;
  entry.object = object;
  entry.field = field;
  entry.set = set;
  entry.bank = bank;
  entry.expected = std::move(expected);
  entry.actual = std::move(actual);
  report.violations.push_back(std::move(entry));
}

/// ++checks, and records a violation when `ok` is false.
void check(AuditReport& report, bool ok, const std::string& object,
           const std::string& field, const std::string& expected,
           const std::string& actual, std::uint64_t set = kNoIndex,
           std::uint64_t bank = kNoIndex) {
  ++report.checks;
  if (!ok) violation(report, object, field, expected, actual, set, bank);
}

}  // namespace

void ComponentAuditor::run(const noc::Noc& noc, AuditReport& report) {
  const noc::NocConfig& config = noc.config_;
  check(report, config.num_cores > 0 && config.num_banks > 0, "noc",
        "geometry", "non-zero cores and banks",
        std::to_string(config.num_cores) + " cores, " +
            std::to_string(config.num_banks) + " banks");
  check(report, config.cycles_per_hop > 0 && config.max_hops >= 1, "noc",
        "latency_model", "non-zero hop latency and max_hops >= 1",
        std::to_string(config.cycles_per_hop) + " cycles/hop, max " +
            std::to_string(config.max_hops) + " hops");
  check(report, config.bank_busy_cycles > 0, "noc", "bank_service",
        "non-zero bank occupancy",
        std::to_string(config.bank_busy_cycles) + " cycles");
  check(report, noc.bank_free_at_.size() == config.num_banks, "noc",
        "bank_occupancy", std::to_string(config.num_banks) + " entries",
        std::to_string(noc.bank_free_at_.size()) + " entries");
  check(report, noc.stats_.bank_requests.size() == config.num_banks, "noc",
        "bank_requests", std::to_string(config.num_banks) + " counters",
        std::to_string(noc.stats_.bank_requests.size()) + " counters");
  for (CoreId core = 0; core < config.num_cores; ++core) {
    for (BankId bank = 0; bank < config.num_banks; ++bank) {
      const std::uint32_t hops = noc.hops(core, bank);
      check(report, hops >= 1 && hops <= config.max_hops, "noc", "hops",
            "hop distance in [1, " + std::to_string(config.max_hops) + "]",
            std::to_string(hops), kNoIndex, bank);
    }
  }
}

void ComponentAuditor::run(const mem::Dram& dram, AuditReport& report) {
  check(report, dram.config_.access_latency > 0, "dram", "access_latency",
        "non-zero", std::to_string(dram.config_.access_latency));
  check(report, dram.config_.cycles_per_line > 0, "dram", "cycles_per_line",
        "non-zero (zero uncaps channel bandwidth)",
        std::to_string(dram.config_.cycles_per_line));
}

void ComponentAuditor::run(const trace::SyntheticTraceGenerator& generator,
                           AuditReport& report) {
  const trace::GeneratorConfig& config = generator.config_;
  const std::string object = "generator.core" + std::to_string(config.core);
  const std::uint32_t capacity = generator.ring_capacity_;
  check(report,
        capacity > 0 && std::has_single_bit(capacity) &&
            capacity >= config.max_depth,
        object, "ring_capacity",
        "power of two covering max_depth " + std::to_string(config.max_depth),
        std::to_string(capacity));
  check(report, generator.ring_mask_ + 1 == capacity, object, "ring_mask",
        std::to_string(capacity - 1), std::to_string(generator.ring_mask_));
  check(report, generator.recency_ids_ != nullptr, object, "ring_storage",
        "allocated id rings", "none (moved-from generator)");
  check(report,
        generator.recency_heads_.size() == config.num_sets &&
            generator.recency_sizes_.size() == config.num_sets,
        object, "ring_tables", std::to_string(config.num_sets) + " sets",
        std::to_string(generator.recency_heads_.size()) + " heads, " +
            std::to_string(generator.recency_sizes_.size()) + " sizes");
  // A live batch is legal at an epoch-boundary checkpoint (the caller only
  // quiesces generators before snapshots, and save_state asserts that);
  // what must hold is that the batch is still rewindable.
  if (generator.live_batch_) {
    check(report,
          !generator.undo_log_.empty() &&
              generator.undo_log_.size() <= trace::AccessBatch::kMaxSize &&
              generator.batch_start_block_id_ <= generator.next_block_id_,
          object, "batch_bookkeeping", "live batch with a rewindable undo log",
          std::to_string(generator.undo_log_.size()) + " undo records, start id " +
              std::to_string(generator.batch_start_block_id_) + " vs counter " +
              std::to_string(generator.next_block_id_));
  }
  check(report, std::has_single_bit(config.num_sets), object, "set_geometry",
        "power-of-two num_sets", std::to_string(config.num_sets));
  if (!report.ok()) return;  // geometry is broken; ring walks would be UB
  // Rings hold ids, so every live entry addresses its own core and set by
  // construction; restore_state checks the addresses it narrows to ids.
  for (std::uint32_t set = 0; set < config.num_sets; ++set) {
    const std::uint32_t head = generator.recency_heads_[set];
    const std::uint32_t size = generator.recency_sizes_[set];
    check(report, head < capacity, object, "ring_head",
          "< " + std::to_string(capacity), std::to_string(head), set);
    check(report, size <= config.max_depth, object, "ring_size",
          "<= " + std::to_string(config.max_depth), std::to_string(size), set);
    if (head >= capacity || size > config.max_depth) continue;
    const trace::SyntheticTraceGenerator::BlockId* ring =
        generator.recency_ids_.get() + std::size_t{set} * capacity;
    std::set<trace::SyntheticTraceGenerator::BlockId> seen;
    for (std::uint32_t depth = 0; depth < size; ++depth) {
      const auto id = ring[(head + depth) & generator.ring_mask_];
      check(report, id < generator.next_block_id_, object, "ring_entry",
            "block id below allocation counter " +
                std::to_string(generator.next_block_id_),
            std::to_string(id), set);
      check(report, seen.insert(id).second, object, "ring_uniqueness",
            "each block at most once per recency window",
            "block id " + std::to_string(id) + " duplicated", set);
    }
  }
}

void ComponentAuditor::run(const msa::StackProfiler& profiler,
                           AuditReport& report) {
  const msa::ProfilerConfig& config = profiler.config_;
  const std::uint32_t sampling = std::max(1u, config.set_sampling);
  const std::size_t stacks =
      config.num_sets / sampling + (config.num_sets % sampling ? 1 : 0);
  check(report, profiler.set_mask_ == config.num_sets - 1, "profiler",
        "set_mask", std::to_string(config.num_sets - 1),
        std::to_string(profiler.set_mask_));
  check(report,
        profiler.sample_is_pow2_ == std::has_single_bit(sampling) &&
            (!profiler.sample_is_pow2_ ||
             profiler.sample_mask_ == sampling - 1),
        "profiler", "sampling_mask",
        "pow2 fast path consistent with sampling " + std::to_string(sampling),
        profiler.sample_is_pow2_
            ? "mask " + std::to_string(profiler.sample_mask_)
            : "modulo path");
  check(report,
        profiler.stack_entries_.size() == stacks * config.profiled_ways,
        "profiler", "stack_storage",
        std::to_string(stacks * config.profiled_ways) + " entries",
        std::to_string(profiler.stack_entries_.size()) + " entries");
  check(report, profiler.stack_sizes_.size() == stacks, "profiler",
        "stack_tables", std::to_string(stacks) + " stacks",
        std::to_string(profiler.stack_sizes_.size()) + " stacks");
  for (std::size_t i = 0; i < profiler.stack_sizes_.size(); ++i) {
    check(report, profiler.stack_sizes_[i] <= config.profiled_ways,
          "profiler", "stack_size",
          "<= " + std::to_string(config.profiled_ways),
          std::to_string(profiler.stack_sizes_[i]), i);
  }
  const common::Histogram& histogram = profiler.histogram_;
  check(report,
        histogram.num_bins() == std::size_t{config.profiled_ways} + 1,
        "profiler", "histogram_bins",
        std::to_string(std::size_t{config.profiled_ways} + 1),
        std::to_string(histogram.num_bins()));
  std::uint64_t bin_sum = 0;
  for (const std::uint64_t bin : histogram.bins()) bin_sum += bin;
  check(report, bin_sum == histogram.total(), "profiler", "histogram_total",
        std::to_string(bin_sum), std::to_string(histogram.total()));
  check(report, profiler.sampled_ <= profiler.observed_, "profiler",
        "access_counters",
        "sampled <= observed (" + std::to_string(profiler.observed_) + ")",
        std::to_string(profiler.sampled_));
}

void ComponentAuditor::run(const core::CoreTimer& timer, AuditReport& report) {
  const core::CoreTimerConfig& config = timer.config_;
  const std::string object = "timer.core" + std::to_string(config.core);
  check(report,
        config.base_cpi > 0.0 && config.instructions_per_l2_access > 0.0,
        object, "timing_model", "positive base CPI and gap length",
        std::to_string(config.base_cpi) + " cpi, " +
            std::to_string(config.instructions_per_l2_access) + " insns/gap");
  check(report, config.mlp_window >= 1, object, "mlp_window", ">= 1",
        std::to_string(config.mlp_window));
  check(report, timer.outstanding_.size() <= config.mlp_window, object,
        "inflight_window", "<= " + std::to_string(config.mlp_window),
        std::to_string(timer.outstanding_.size()));
  check(report,
        std::is_heap(timer.outstanding_.begin(), timer.outstanding_.end(),
                     std::greater<>{}),
        object, "inflight_heap", "min-heap on completion time", "not a heap");
  check(report, timer.time_ >= timer.mark_time_, object, "clock_marks",
        "time >= mark (" + std::to_string(timer.mark_time_) + ")",
        std::to_string(timer.time_));
  check(report, timer.instructions_ >= timer.mark_instructions_, object,
        "instruction_marks",
        "instructions >= mark (" + std::to_string(timer.mark_instructions_) +
            ")",
        std::to_string(timer.instructions_));
}

void ComponentAuditor::run(const obs::TimeSeries& series,
                           AuditReport& report) {
  std::set<std::size_t> handles;
  for (const auto& [name, handle] : series.index_) {
    check(report, handle < series.columns_.size(), "epoch_series",
          "handle_range",
          "handle < " + std::to_string(series.columns_.size()),
          name + " -> " + std::to_string(handle));
    check(report, handles.insert(handle).second, "epoch_series",
          "handle_uniqueness", "one column per interned name",
          name + " shares handle " + std::to_string(handle));
  }
  check(report, handles.size() == series.columns_.size(), "epoch_series",
        "column_ownership",
        std::to_string(series.columns_.size()) + " interned columns",
        std::to_string(handles.size()) + " handles");
  for (std::size_t i = 0; i < series.columns_.size(); ++i) {
    check(report, series.columns_[i].size() <= series.epochs_, "epoch_series",
          "column_length", "<= " + std::to_string(series.epochs_) + " epochs",
          std::to_string(series.columns_[i].size()) + " samples", i);
  }
}

AuditReport audit_noc_fabric(const noc::Noc& noc) {
  AuditReport report;
  ComponentAuditor::run(noc, report);
  return report;
}

AuditReport audit_dram_channel(const mem::Dram& dram) {
  AuditReport report;
  ComponentAuditor::run(dram, report);
  return report;
}

AuditReport audit_trace_generator(
    const trace::SyntheticTraceGenerator& generator) {
  AuditReport report;
  ComponentAuditor::run(generator, report);
  return report;
}

AuditReport audit_stack_profiler(const msa::StackProfiler& profiler) {
  AuditReport report;
  ComponentAuditor::run(profiler, report);
  return report;
}

AuditReport audit_core_timer(const core::CoreTimer& timer) {
  AuditReport report;
  ComponentAuditor::run(timer, report);
  return report;
}

AuditReport audit_epoch_series(const obs::TimeSeries& series) {
  AuditReport report;
  ComponentAuditor::run(series, report);
  return report;
}

}  // namespace bacp::audit
