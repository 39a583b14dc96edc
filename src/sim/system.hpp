#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "coherence/moesi.hpp"
#include "core/core_timer.hpp"
#include "mem/dram.hpp"
#include "msa/stack_profiler.hpp"
#include "noc/noc.hpp"
#include "nuca/dnuca_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/system_config.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/mix.hpp"
#include "trace/synthetic.hpp"

namespace bacp::sim {

/// Per-core results over the measurement window, backed by an obs::Registry
/// (gauges "core.instructions|cycles|cpi", counters
/// "core.l2_hits|l2_misses|allocated_ways"). The typed accessors are the
/// stable API; metrics() exposes the registry to sinks and to callers that
/// attach ad-hoc metrics.
class CoreResult {
 public:
  double instructions() const { return metrics_.gauge_value("core.instructions"); }
  double cycles() const { return metrics_.gauge_value("core.cycles"); }
  double cpi() const { return metrics_.gauge_value("core.cpi"); }
  std::uint64_t l2_hits() const { return metrics_.counter_value("core.l2_hits"); }
  std::uint64_t l2_misses() const { return metrics_.counter_value("core.l2_misses"); }
  std::uint64_t l2_accesses() const { return l2_hits() + l2_misses(); }
  double l2_miss_ratio() const;
  WayCount allocated_ways() const {
    return static_cast<WayCount>(metrics_.counter_value("core.allocated_ways"));
  }
  /// Owned copy of the workload name (safe to outlive the suite entry).
  const std::string& workload() const { return workload_; }

  CoreResult& set_instructions(double value);
  CoreResult& set_cycles(double value);
  CoreResult& set_cpi(double value);
  CoreResult& set_l2_hits(std::uint64_t value);
  CoreResult& set_l2_misses(std::uint64_t value);
  CoreResult& set_allocated_ways(WayCount ways);
  CoreResult& set_workload(std::string name);

  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  /// {"workload": ..., "metrics": {...}}.
  obs::Json to_json() const;

 private:
  obs::Registry metrics_;
  std::string workload_;
};

/// Whole-run results. All scalar statistics live in one obs::Registry under
/// the exporting component's namespace ("sim.", "nuca.", "noc.", "dram.",
/// "coherence."); the typed accessors below are the stable reading API and
/// document which registry name each figure comes from. The per-epoch
/// adaptation record is exposed as an obs::TimeSeries.
class SystemResults {
 public:
  const std::vector<CoreResult>& cores() const { return cores_; }
  std::vector<CoreResult>& cores() { return cores_; }

  /// Sum of the per-core quota slices ("sim.l2_accesses"): exactly
  /// `l2_accesses_per_core` accesses per core, the denominator for
  /// per-quota miss accounting.
  std::uint64_t l2_accesses() const { return metrics_.counter_value("sim.l2_accesses"); }
  /// All L2 accesses seen live in the measurement window
  /// ("sim.live_l2_accesses"), including the post-quota overrun that keeps
  /// co-runner interference alive. Use this as the denominator for live
  /// counters (migrations, directory lookups, NoC/DRAM traffic).
  std::uint64_t live_l2_accesses() const {
    return metrics_.counter_value("sim.live_l2_accesses");
  }
  std::uint64_t l2_misses() const { return metrics_.counter_value("sim.l2_misses"); }
  double l2_miss_ratio() const { return metrics_.gauge_value("sim.l2_miss_ratio"); }
  double mean_cpi() const { return metrics_.gauge_value("sim.mean_cpi"); }
  std::uint64_t epochs() const { return metrics_.counter_value("sim.epochs"); }
  std::uint64_t promotions() const { return metrics_.counter_value("nuca.promotions"); }
  std::uint64_t demotions() const { return metrics_.counter_value("nuca.demotions"); }
  std::uint64_t offview_hits() const {
    return metrics_.counter_value("nuca.offview_hits");
  }
  std::uint64_t directory_lookups() const {
    return metrics_.counter_value("nuca.directory_lookups");
  }
  std::uint64_t dram_reads() const { return metrics_.counter_value("dram.demand_reads"); }
  std::uint64_t dram_writebacks() const {
    return metrics_.counter_value("dram.writebacks");
  }
  std::uint64_t noc_queue_cycles() const {
    return metrics_.counter_value("noc.queue_cycles");
  }
  std::uint64_t inclusion_recalls() const {
    return metrics_.counter_value("coherence.inclusion_recalls");
  }

  SystemResults& set_l2_accesses(std::uint64_t value);
  SystemResults& set_l2_misses(std::uint64_t value);
  SystemResults& set_l2_miss_ratio(double value);
  SystemResults& set_mean_cpi(double value);
  SystemResults& set_epochs(std::uint64_t value);

  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  /// Per-epoch adaptation record ("core<N>.ways", "core<N>.cpi",
  /// "promotions", "demotions", "offview_hits", "noc_queue_cycles",
  /// "dram_reads", "dram_writebacks"); one sample per epoch boundary of the
  /// measurement window, so num_epochs() == epochs().
  obs::TimeSeries& epoch_series() { return epoch_series_; }
  const obs::TimeSeries& epoch_series() const { return epoch_series_; }

  /// {"schema": 1, "metrics": ..., "cores": [...], "epoch_series": ...}.
  obs::Json to_json() const;

 private:
  std::vector<CoreResult> cores_;
  obs::Registry metrics_;
  obs::TimeSeries epoch_series_;
};

/// The full CMP: synthetic cores -> private L1s -> MOESI directory ->
/// banked DNUCA L2 -> DRAM, with the epoch controller re-running the
/// Bank-aware allocator on live MSA profiles. This is the substitution for
/// the paper's Simics+GEMS stack (see DESIGN.md section 1): a conservative,
/// issue-time-ordered event simulation over the shared memory subsystem.
class System {
 public:
  System(const SystemConfig& config, const trace::WorkloadMix& mix);

  /// Runs `instructions_per_core` committed instructions on every core to
  /// warm the hierarchy, then resets all statistics (paper: 100M-instruction
  /// cache warm-up). Per-core L2-access quotas are derived from each
  /// workload's APKI, so - as in the paper's equal-instruction slices -
  /// memory-intensive cores contribute proportionally more L2 traffic.
  void warm_up(std::uint64_t instructions_per_core);

  /// Runs `instructions_per_core` instructions per core: every active core
  /// gets an APKI-derived L2-access quota, all keep co-running until the
  /// slowest meets its quota, and the in-flight windows drain at the end.
  /// May be called repeatedly; statistics accumulate across calls. Sampled
  /// runs warm skipped intervals with run() too, then exclude them from
  /// measurement with reset_measurement().
  void run(std::uint64_t instructions_per_core);

  /// Session-style stepping (the sched::Service run surface): advances the
  /// simulation until `epochs` epoch boundaries have fired, with no
  /// per-core instruction quotas — every active core keeps executing until
  /// the last boundary. With no active cores the epoch clock still
  /// advances (boundaries fire over an idle machine). Nothing drains, so
  /// one call per boundary walks the same trajectory as one call for all.
  /// Statistics accumulate exactly as under run().
  void step_epochs(std::uint64_t epochs);

  /// Program phase change on one core: the generator's reuse structure and
  /// write mix switch to `workload_name` (timing parameters and the mix
  /// labels keep the original workload — the phase changes *what the
  /// program does with memory*, which is what the MSA profiler must chase).
  void switch_workload(CoreId core, std::string_view workload_name);

  /// Tenant admission primitive: rebinds core slot `core` to a fresh
  /// instance of `workload_name` — coherently flushes the slot's L1 (dirty
  /// data drains through the directory and L2, exactly as evictions do),
  /// clears the slot's MSA profile, replaces the trace generator and the
  /// timer's workload parameters with streams seeded by `stream_salt`, and
  /// zeroes the slot's per-instruction profile window. Global time never
  /// rewinds; L2 contents are left to be displaced naturally (a newcomer
  /// starts cold, its predecessor's lines age out under the new plan).
  void reset_core(CoreId core, std::string_view workload_name,
                  std::uint64_t stream_salt);

  /// Idle-slot control: an inactive core is not scheduled by run() or
  /// step_epochs() — it issues no accesses and its clock freezes — but its
  /// caches stay in place and stay coherent. Cores start active.
  void set_core_active(CoreId core, bool active);
  bool core_active(CoreId core) const { return active_.at(core) != 0; }

  /// Installs an externally computed partitioning plan (PolicyKind::External
  /// drivers). The assignment is validated against the allocation, applied
  /// to the L2, and recorded in allocation_history().
  void install_partition(const partition::Allocation& allocation,
                         const partition::BankAssignment& assignment);

  /// Clears all statistics and re-arms the measurement window at the
  /// current point (what warm_up() does after its run). Simulation
  /// trajectory is unaffected: only counters, marks and the per-epoch
  /// series reset. Public so session-style drivers can harvest per-epoch
  /// deltas and keep the system at a statistics-clean point, where
  /// save_state() is legal.
  void reset_measurement();

  /// The workload currently bound to `core` (index into spec2000_suite());
  /// follows reset_core(), unlike the construction mix.
  std::size_t bound_workload(CoreId core) const { return bound_workloads_.at(core); }

  SystemResults results() const;

  /// Cheap per-core counters for per-epoch harvesting (no registry or
  /// string work): cumulative since the last statistics reset.
  struct CoreSample {
    double instructions = 0.0;
    double cycles = 0.0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    WayCount ways = 0;
    bool active = false;
  };
  std::vector<CoreSample> sample_cores() const;

  const partition::Allocation& current_allocation() const { return allocation_; }

  /// One entry per epoch boundary (Bank-aware policy only): the allocation
  /// installed at that boundary. Lets callers trace how the partitioning
  /// adapts over time.
  const std::vector<partition::Allocation>& allocation_history() const {
    return allocation_history_;
  }
  const nuca::DnucaCache& l2() const { return *l2_; }
  std::span<const cache::SetAssocCache> l1s() const {
    return {l1_.data(), l1_.size()};
  }
  const coherence::MoesiDirectory& directory() const { return directory_; }
  const SystemConfig& config() const { return config_; }
  /// The construction mix; reset_core() rebinds bound_workload() only.
  const trace::WorkloadMix& mix() const { return mix_; }
  const msa::StackProfiler& profiler(CoreId core) const { return *profilers_.at(core); }

  /// Live view of the per-epoch recorder (also copied into results()).
  const obs::TimeSeries& epoch_series() const { return epoch_series_; }

  /// Serializes the entire warm state — caches, directory, profilers,
  /// generators, timers, NoC/DRAM occupancy, partition state, RNG streams —
  /// into one flat buffer stamped with config_digest(). Only legal at a
  /// statistics-clean point (right after construction or warm_up(): no
  /// epochs counted, no core snapshots frozen); identical state always
  /// produces identical bytes.
  snapshot::SystemSnapshot save_state() const;

  /// Exact inverse of save_state(): asserts the snapshot's digest matches
  /// this system's config_digest(), then rebuilds every component so a
  /// subsequent run() is bit-identical to one the saving system would have
  /// produced.
  void restore_state(const snapshot::SystemSnapshot& snapshot);

 private:
  /// Per-core statistics frozen at quota completion (cores run on past
  /// their quota to keep interference alive until the slowest finishes).
  struct CoreSnapshot {
    double instructions = 0.0;
    double cycles = 0.0;
    double cpi = 0.0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    bool taken = false;
  };

  /// Interned TimeSeries column handles for every series the epoch
  /// recorder emits, so an epoch boundary performs no string building or
  /// map lookups ("core<N>.ways" etc. are interned once per System by the
  /// first reset_epoch_tracking(); TimeSeries::clear_rows() keeps them).
  struct EpochSeriesHandles {
    std::vector<obs::TimeSeries::SeriesHandle> ways;  // per core
    std::vector<obs::TimeSeries::SeriesHandle> cpi;   // per core
    obs::TimeSeries::SeriesHandle promotions = 0;
    obs::TimeSeries::SeriesHandle demotions = 0;
    obs::TimeSeries::SeriesHandle offview_hits = 0;
    obs::TimeSeries::SeriesHandle dram_reads = 0;
    obs::TimeSeries::SeriesHandle dram_writebacks = 0;
    obs::TimeSeries::SeriesHandle noc_queue_cycles = 0;
  };

  /// Component-stat values at the last epoch boundary (or stats reset);
  /// the per-epoch time series records deltas against these.
  struct EpochBaseline {
    std::vector<double> instructions;  // per core, absolute
    std::vector<double> cycles;        // per core, absolute
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t offview_hits = 0;
    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writebacks = 0;
    std::uint64_t noc_queue_cycles = 0;
  };

  /// One core's buffered slice of its generator stream, refilled
  /// trace::AccessBatch::kMaxSize accesses at a time. Batches exist only
  /// within drive(): flush_streams() rewinds every unconsumed suffix before
  /// run() or step_epochs() returns, so snapshots, workload switches and
  /// core resets always see generators in their exact scalar state.
  struct CoreStream {
    trace::AccessBatch batch;
    std::uint32_t cursor = 0;
  };

  /// drive()'s stop rule. Quota: `count` instructions per core as
  /// APKI-derived access quotas, each core's statistics frozen at its quota,
  /// timers drained at the end (run()). Epochs: `count` boundaries, fired
  /// even over an idle machine, nothing drained (step_epochs()).
  enum class Stop : std::uint8_t { Quota, Epochs };
  /// The one event loop behind run() and step_epochs(): serves accesses in
  /// global issue-time order across the active cores and fires epoch
  /// boundaries in time order between them.
  void drive(Stop stop, std::uint64_t count);
  /// Trace-generator geometry for `core` (constructor and reset_core()).
  trace::GeneratorConfig generator_config(CoreId core) const;
  /// Timer parameters for `core` running `model`. `stream_salt` (0 for the
  /// construction mix) decorrelates a rebound slot's jitter stream.
  core::CoreTimerConfig timer_config(CoreId core, const trace::WorkloadModel& model,
                                     std::uint64_t stream_salt) const;
  trace::MemoryAccess next_access(CoreId core);
  void flush_stream(CoreId core);
  void flush_streams();
  /// Full structural audit of every component (builds configured with
  /// -DBACP_AUDIT=ON only; a no-op otherwise). Aborts with the audit
  /// report on the first violation: simulating onward from corrupted
  /// structures would only bury the root cause under derived damage.
  void audit_checkpoint(const char* where) const;
  void run_epoch_boundary();
  void record_epoch_series();
  void reset_epoch_tracking();
  Cycle serve_access(CoreId core, Cycle issue_time);
  /// Retires `line` leaving `core`'s L1 (a fill's victim or a reset_core()
  /// flush): the directory drops the copy, and dirty data updates the L2
  /// copy, or memory at `at` when the L2 no longer holds the block.
  void retire_l1_line(CoreId core, const cache::Line& line, Cycle at);
  void apply_policy_plan();
  void snapshot_core(CoreId core);

  // NOLINTNEXTLINE(bacp-audit-coverage): immutable after construction; validated by SystemConfig parsing and pinned by config_digest
  SystemConfig config_;
  // NOLINTNEXTLINE(bacp-audit-coverage): immutable workload description; resolved against the SPEC2000 registry at construction
  trace::WorkloadMix mix_;

  noc::Noc noc_;
  mem::Dram dram_;
  coherence::MoesiDirectory directory_;
  std::unique_ptr<nuca::DnucaCache> l2_;
  std::vector<cache::SetAssocCache> l1_;
  std::vector<std::unique_ptr<trace::SyntheticTraceGenerator>> generators_;
  // NOLINTNEXTLINE(bacp-snapshot-fields): transient batched-access buffers; flushed (and generators rewound) before any snapshot
  std::vector<CoreStream> streams_;
  std::vector<std::unique_ptr<msa::StackProfiler>> profilers_;
  std::vector<std::unique_ptr<core::CoreTimer>> timers_;

  partition::Allocation allocation_;
  std::vector<partition::Allocation> allocation_history_;
  std::vector<CoreSnapshot> snapshots_;
  // Session-layer slot state: scheduling eligibility per core (u8, not
  // bool, so it serializes through the flat codec unchanged) and the
  // workload index each slot currently executes (reset_core() moves it off
  // the construction mix).
  std::vector<std::uint8_t> active_;
  std::vector<std::size_t> bound_workloads_;
  // Per-instruction normalization state for epoch profiles (see
  // run_epoch_boundary): total instructions at the last boundary, and an
  // instruction window decayed with the histogram's half-life.
  std::vector<double> last_epoch_instructions_;
  std::vector<double> decayed_instructions_;
  Cycle next_epoch_ = 0;
  std::uint64_t epochs_ = 0;
  // NOLINTNEXTLINE(bacp-snapshot-fields): observability sink, harvested by reporting; reset (not replayed) on restore
  obs::TimeSeries epoch_series_;
  // NOLINTNEXTLINE(bacp-snapshot-fields): interned handles into epoch_series_; fixed per System, kept by reset_epoch_tracking() on restore
  EpochSeriesHandles epoch_handles_;
  // NOLINTNEXTLINE(bacp-snapshot-fields): per-epoch delta baseline; reset with the series on restore
  EpochBaseline epoch_baseline_;
};

}  // namespace bacp::sim
