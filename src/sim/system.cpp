#include "sim/system.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#ifdef BACP_AUDIT
#include <cstdio>
#include <cstdlib>

#include "audit/audit.hpp"
#include "audit/component_audit.hpp"
#endif

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "partition/bank_aware.hpp"
#include "partition/static_policies.hpp"
#include "trace/spec2000.hpp"

namespace bacp::sim {

double CoreResult::l2_miss_ratio() const {
  const std::uint64_t accesses = l2_accesses();
  return accesses == 0
             ? 0.0
             : static_cast<double>(l2_misses()) / static_cast<double>(accesses);
}

CoreResult& CoreResult::set_instructions(double value) {
  metrics_.gauge("core.instructions").set(value);
  return *this;
}

CoreResult& CoreResult::set_cycles(double value) {
  metrics_.gauge("core.cycles").set(value);
  return *this;
}

CoreResult& CoreResult::set_cpi(double value) {
  metrics_.gauge("core.cpi").set(value);
  return *this;
}

CoreResult& CoreResult::set_l2_hits(std::uint64_t value) {
  metrics_.counter("core.l2_hits").set(value);
  return *this;
}

CoreResult& CoreResult::set_l2_misses(std::uint64_t value) {
  metrics_.counter("core.l2_misses").set(value);
  return *this;
}

CoreResult& CoreResult::set_allocated_ways(WayCount ways) {
  metrics_.counter("core.allocated_ways").set(ways);
  return *this;
}

CoreResult& CoreResult::set_workload(std::string name) {
  workload_ = std::move(name);
  return *this;
}

obs::Json CoreResult::to_json() const {
  obs::Json json = obs::Json::object();
  json.set("workload", workload_);
  json.set("metrics", metrics_.to_json());
  return json;
}

SystemResults& SystemResults::set_l2_accesses(std::uint64_t value) {
  metrics_.counter("sim.l2_accesses").set(value);
  return *this;
}

SystemResults& SystemResults::set_l2_misses(std::uint64_t value) {
  metrics_.counter("sim.l2_misses").set(value);
  return *this;
}

SystemResults& SystemResults::set_l2_miss_ratio(double value) {
  metrics_.gauge("sim.l2_miss_ratio").set(value);
  return *this;
}

SystemResults& SystemResults::set_mean_cpi(double value) {
  metrics_.gauge("sim.mean_cpi").set(value);
  return *this;
}

SystemResults& SystemResults::set_epochs(std::uint64_t value) {
  metrics_.counter("sim.epochs").set(value);
  return *this;
}

obs::Json SystemResults::to_json() const {
  obs::Json json = obs::Json::object();
  json.set("schema", std::uint64_t{1});
  json.set("metrics", metrics_.to_json());
  obs::Json cores = obs::Json::array();
  for (const auto& core : cores_) cores.push_back(core.to_json());
  json.set("cores", std::move(cores));
  json.set("epoch_series", epoch_series_.to_json());
  return json;
}

System::System(const SystemConfig& config, const trace::WorkloadMix& mix)
    : config_(config),
      mix_(mix),
      noc_(config.noc),
      dram_(config.dram),
      directory_(config.geometry.num_cores) {
  config_.validate();
  BACP_ASSERT(mix_.num_cores() == config_.geometry.num_cores,
              "mix size must match the core count");
  // A directory entry exists only while a block has an L1 copy, so the
  // table can never exceed the total L1 line count; sizing it up front
  // keeps its load factor low and the entry churn rehash-free.
  directory_.reserve(std::size_t{config_.geometry.num_cores} * config_.l1_sets *
                     config_.l1_ways);

  nuca::DnucaConfig l2_config;
  l2_config.geometry = config_.geometry;
  l2_config.sets_per_bank = config_.sets_per_bank;
  // The No-partition baseline is the shared CMP-DNUCA itself: hash
  // placement with gradual migration toward the requester (Section II),
  // not a partition-aggregation scheme.
  l2_config.aggregation = config_.policy == PolicyKind::NoPartition
                              ? nuca::AggregationKind::SharedDnuca
                              : config_.aggregation;
  l2_ = std::make_unique<nuca::DnucaCache>(l2_config, noc_);

  const auto& suite = trace::spec2000_suite();
  for (CoreId core = 0; core < config_.geometry.num_cores; ++core) {
    const auto& model = suite.at(mix_.workload_indices[core]);

    cache::SetAssocCache::Config l1_config;
    l1_config.name = "L1.core" + std::to_string(core);
    l1_config.num_sets = config_.l1_sets;
    l1_config.ways = config_.l1_ways;
    l1_config.num_cores = 1;
    l1_.emplace_back(l1_config);
    generators_.push_back(std::make_unique<trace::SyntheticTraceGenerator>(
        model, generator_config(core), config_.seed));
    profilers_.push_back(std::make_unique<msa::StackProfiler>(config_.profiler));
    timers_.push_back(std::make_unique<core::CoreTimer>(timer_config(core, model, 0)));
  }

  streams_.resize(config_.geometry.num_cores);
  snapshots_.assign(config_.geometry.num_cores, CoreSnapshot{});
  last_epoch_instructions_.assign(config_.geometry.num_cores, 0.0);
  decayed_instructions_.assign(config_.geometry.num_cores, 0.0);
  active_.assign(config_.geometry.num_cores, 1);
  bound_workloads_ = mix_.workload_indices;
  apply_policy_plan();
  next_epoch_ = config_.epoch_cycles;
  reset_epoch_tracking();
}

trace::GeneratorConfig System::generator_config(CoreId core) const {
  trace::GeneratorConfig generator;
  generator.num_sets = config_.sets_per_bank;
  generator.max_depth = config_.geometry.total_ways();
  generator.core = core;
  return generator;
}

core::CoreTimerConfig System::timer_config(CoreId core, const trace::WorkloadModel& model,
                                           std::uint64_t stream_salt) const {
  core::CoreTimerConfig timer;
  timer.base_cpi = model.base_cpi;
  timer.instructions_per_l2_access = 1000.0 / model.l2_apki;
  timer.mlp_window = std::clamp<std::uint32_t>(
      static_cast<std::uint32_t>(std::lround(model.mlp)), 1,
      config_.mshr.entries_per_core);
  timer.gap_jitter = config_.gap_jitter;
  timer.seed = (config_.seed ^ 0x5175ULL) ^ stream_salt;
  timer.core = core;
  return timer;
}

void System::apply_policy_plan() {
  switch (config_.policy) {
    case PolicyKind::NoPartition: {
      auto plan = partition::no_partition(config_.geometry);
      // Migration needs distance-ordered views: each core's view leads with
      // its Local bank so hits gradually pull lines toward the requester.
      for (CoreId core = 0; core < config_.geometry.num_cores; ++core) {
        auto& view = plan.assignment.banks_of_core[core];
        std::sort(view.begin(), view.end(), [&](BankId a, BankId b) {
          const auto ha = noc_.hops(core, a);
          const auto hb = noc_.hops(core, b);
          return ha != hb ? ha < hb : a < b;
        });
      }
      l2_->apply_assignment(plan.assignment);
      allocation_ = plan.allocation;
      break;
    }
    case PolicyKind::EqualPartition:
    case PolicyKind::BankAware:
    case PolicyKind::External: {
      // Bank-aware starts from the equal static plan; the first epoch's
      // profiles then drive the first dynamic reassignment. External also
      // starts equal — the driver's first install_partition() replaces it.
      const auto plan = partition::equal_partition(config_.geometry);
      l2_->apply_assignment(plan.assignment);
      allocation_ = plan.allocation;
      break;
    }
  }
}

void System::audit_checkpoint(const char* where) const {
#ifdef BACP_AUDIT
  audit::SystemView view;
  view.l2 = l2_.get();
  view.l1s = l1s();
  view.directory = &directory_;
  view.allocation = &allocation_;
  audit::AuditReport report = audit::audit_system_components(view);
  report.merge(audit::audit_noc_fabric(noc_));
  report.merge(audit::audit_dram_channel(dram_));
  report.merge(audit::audit_epoch_series(epoch_series_));
  for (const auto& generator : generators_)
    report.merge(audit::audit_trace_generator(*generator));
  for (const auto& profiler : profilers_)
    report.merge(audit::audit_stack_profiler(*profiler));
  for (const auto& timer : timers_)
    report.merge(audit::audit_core_timer(*timer));
  if (!report.ok()) {
    std::fprintf(stderr, "BACP_AUDIT failed at %s: %s\n", where,
                 report.to_string().c_str());
    std::abort();
  }
#else
  (void)where;
#endif
}

void System::run_epoch_boundary() {
  ++epochs_;
  if (config_.policy == PolicyKind::BankAware) {
    std::vector<msa::MissRatioCurve> curves;
    curves.reserve(profilers_.size());
    for (CoreId core = 0; core < profilers_.size(); ++core) {
      // Normalize each profile to misses-per-megainstruction. Raw per-epoch
      // counts weight cores by wall-clock request rate, which starves slow
      // memory-bound cores in a vicious cycle (few ways -> high CPI ->
      // few samples per epoch -> few ways). Per-instruction weighting is
      // what the paper's equal-instruction-slice evaluation measures. The
      // instruction window decays with the same half-life as the histogram
      // so numerator and denominator cover the same history.
      const double delta =
          timers_[core]->instructions() - last_epoch_instructions_[core];
      last_epoch_instructions_[core] = timers_[core]->instructions();
      const double window = std::max(1.0, decayed_instructions_[core] + delta);
      decayed_instructions_[core] = window * 0.5;
      curves.push_back(profilers_[core]->curve().scaled(1.0e6 / window));
    }
    const auto result = partition::bank_aware_partition(config_.geometry, curves);
    l2_->apply_assignment(result.assignment);
    allocation_ = result.allocation;
    allocation_history_.push_back(result.allocation);
  }
  // Histogram decay keeps the profile tracking the current phase.
  for (auto& profiler : profilers_) profiler->decay();
  // Record after any repartition so "core<N>.ways" reflects the allocation
  // installed at this boundary (matching allocation_history()).
  record_epoch_series();
  audit_checkpoint("epoch boundary");
}

void System::record_epoch_series() {
  epoch_series_.begin_epoch();
  const auto& l2_stats = l2_->stats();
  for (CoreId core = 0; core < config_.geometry.num_cores; ++core) {
    epoch_series_.record(epoch_handles_.ways[core],
                         static_cast<double>(allocation_.ways_per_core.at(core)));
    const double instructions =
        timers_[core]->instructions() - epoch_baseline_.instructions[core];
    const double cycles =
        static_cast<double>(timers_[core]->time()) - epoch_baseline_.cycles[core];
    epoch_series_.record(epoch_handles_.cpi[core],
                         instructions > 0.0 ? cycles / instructions : 0.0);
    epoch_baseline_.instructions[core] = timers_[core]->instructions();
    epoch_baseline_.cycles[core] = static_cast<double>(timers_[core]->time());
  }
  const auto delta = [](std::uint64_t now, std::uint64_t& baseline) {
    const std::uint64_t d = now - baseline;
    baseline = now;
    return static_cast<double>(d);
  };
  epoch_series_.record(epoch_handles_.promotions,
                       delta(l2_stats.promotions, epoch_baseline_.promotions));
  epoch_series_.record(epoch_handles_.demotions,
                       delta(l2_stats.demotions, epoch_baseline_.demotions));
  epoch_series_.record(epoch_handles_.offview_hits,
                       delta(l2_stats.offview_hits, epoch_baseline_.offview_hits));
  epoch_series_.record(epoch_handles_.dram_reads,
                       delta(dram_.stats().demand_reads, epoch_baseline_.dram_reads));
  epoch_series_.record(
      epoch_handles_.dram_writebacks,
      delta(dram_.stats().writebacks, epoch_baseline_.dram_writebacks));
  epoch_series_.record(
      epoch_handles_.noc_queue_cycles,
      delta(noc_.stats().total_queue_cycles, epoch_baseline_.noc_queue_cycles));
}

void System::reset_epoch_tracking() {
  // The series names are fixed per System, so they are interned once; every
  // later reset (each tenant epoch of a sched::Service) drops only the rows
  // and keeps the handles and column storage.
  if (epoch_handles_.ways.empty()) {
    for (CoreId core = 0; core < config_.geometry.num_cores; ++core) {
      const std::string prefix = "core" + std::to_string(core) + ".";
      epoch_handles_.ways.push_back(epoch_series_.intern(prefix + "ways"));
      epoch_handles_.cpi.push_back(epoch_series_.intern(prefix + "cpi"));
    }
    epoch_handles_.promotions = epoch_series_.intern("promotions");
    epoch_handles_.demotions = epoch_series_.intern("demotions");
    epoch_handles_.offview_hits = epoch_series_.intern("offview_hits");
    epoch_handles_.dram_reads = epoch_series_.intern("dram_reads");
    epoch_handles_.dram_writebacks = epoch_series_.intern("dram_writebacks");
    epoch_handles_.noc_queue_cycles = epoch_series_.intern("noc_queue_cycles");
  } else {
    epoch_series_.clear_rows();
  }
  // Counter baselines restart at zero; the per-core vectors keep their storage.
  epoch_baseline_ = EpochBaseline{std::move(epoch_baseline_.instructions),
                                  std::move(epoch_baseline_.cycles)};
  epoch_baseline_.instructions.resize(config_.geometry.num_cores);
  epoch_baseline_.cycles.resize(config_.geometry.num_cores);
  for (CoreId core = 0; core < config_.geometry.num_cores; ++core) {
    epoch_baseline_.instructions[core] = timers_[core]->instructions();
    epoch_baseline_.cycles[core] = static_cast<double>(timers_[core]->time());
  }
  epoch_baseline_.promotions = l2_->stats().promotions;
  epoch_baseline_.demotions = l2_->stats().demotions;
  epoch_baseline_.offview_hits = l2_->stats().offview_hits;
  epoch_baseline_.dram_reads = dram_.stats().demand_reads;
  epoch_baseline_.dram_writebacks = dram_.stats().writebacks;
  epoch_baseline_.noc_queue_cycles = noc_.stats().total_queue_cycles;
}

trace::MemoryAccess System::next_access(CoreId core) {
  CoreStream& stream = streams_[core];
  if (stream.cursor >= stream.batch.size) {
    generators_[core]->next_batch(stream.batch, trace::AccessBatch::kMaxSize);
    stream.cursor = 0;
  }
  return stream.batch.accesses[stream.cursor++];
}

void System::flush_stream(CoreId core) {
  CoreStream& stream = streams_[core];
  if (stream.batch.size == 0) return;
  generators_[core]->truncate_batch(stream.cursor);
  stream.batch.size = 0;
  stream.cursor = 0;
}

void System::flush_streams() {
  for (CoreId core = 0; core < streams_.size(); ++core) flush_stream(core);
}

Cycle System::serve_access(CoreId core, Cycle issue_time) {
  const auto access = next_access(core);

  // L1 lookup. The synthetic stream is the L2-intent stream, so L1 hits are
  // rare residual locality; their cost is the L1 latency only.
  if (l1_[core].access(access.block, 0, access.is_write).hit) {
    return issue_time + config_.l1_latency;
  }

  // L1 miss: the profiler shadows the L2 reference stream (Section III-A).
  profilers_[core]->observe(access.block);

  // Coherence: GetS/GetM to the directory. Workload address spaces are
  // disjoint by construction, so cross-core invalidations cannot occur in
  // these runs (the protocol paths are exercised by the unit tests).
  if (access.is_write) {
    directory_.on_l1_write_fill(access.block, core);
  } else {
    directory_.on_l1_read_fill(access.block, core);
  }

  // L2 access.
  const Cycle l2_issue = issue_time + config_.l1_latency;
  auto outcome = l2_->access(access.block, core, access.is_write, l2_issue);
  Cycle data_ready = outcome.ready_at;
  if (!outcome.hit) data_ready = dram_.read(outcome.ready_at);

  // Inclusion: lines that left the L2 recall their L1 copies; dirty data
  // drains to memory. Writebacks are stamped at the bank access time (when
  // the eviction happens), never at the demand data's return time: a
  // future-stamped writeback would ratchet the channel ahead of wall-clock
  // and falsely serialize every later demand read behind it.
  for (const auto& evicted : outcome.evicted) {
    const auto action = directory_.on_l2_evict(evicted.block);
    if (evicted.allocator != kInvalidCore &&
        evicted.allocator < config_.geometry.num_cores) {
      l1_[evicted.allocator].invalidate(evicted.block);
    }
    if (evicted.dirty || action.writeback_below) dram_.writeback(outcome.ready_at);
  }

  // L1 fill; its eviction may push dirty data back into the L2.
  const auto l1_fill = l1_[core].fill(access.block, 0, access.is_write);
  if (l1_fill.evicted) retire_l1_line(core, *l1_fill.evicted, outcome.ready_at);

  return data_ready;
}

void System::retire_l1_line(CoreId core, const cache::Line& line, Cycle at) {
  const auto action = directory_.on_l1_evict(line.block, core, line.dirty);
  if ((line.dirty || action.writeback_below) && !l2_->writeback_update(line.block)) {
    dram_.writeback(at);
  }
}

void System::drive(Stop stop, std::uint64_t count) {
  struct QueueEntry {
    Cycle issue_at;
    CoreId core;
    bool operator>(const QueueEntry& other) const { return issue_at > other.issue_at; }
  };
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;
  const bool quota = stop == Stop::Quota;
  // Equal instruction slices (the paper's methodology): each core's access
  // quota follows its APKI, so per-policy total miss counts weight each
  // workload by its real memory intensity. Quotas follow the *currently
  // bound* workload (reset_core() may have replaced the construction mix).
  // Inactive slots get no quota and never enter the queue.
  const auto& suite = trace::spec2000_suite();
  std::vector<std::uint64_t> remaining(quota ? config_.geometry.num_cores : 0, 0);
  // Quota stop: cores still short of their quota. Epoch stop: boundaries
  // still to fire.
  std::uint64_t unfinished = quota ? 0 : count;
  for (CoreId core = 0; core < config_.geometry.num_cores; ++core) {
    if (active_[core] == 0) continue;
    if (quota) {
      const double apki = suite.at(bound_workloads_[core]).l2_apki;
      remaining[core] = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(static_cast<double>(count) * apki / 1000.0));
      ++unfinished;
    }
    queue.push({timers_[core]->peek_issue(), core});
  }

  // Co-scheduled slices (quota stop): every core keeps executing (and keeps
  // polluting the shared structures and feeding its profiler) until the
  // *slowest* core completes its quota — a fast core finishing early and
  // going quiet would both starve its own profile of samples and
  // unrealistically relieve its co-runners of interference for the tail of
  // the run. Per-core statistics snapshot at quota completion, so reported
  // counts always cover exactly `l2_accesses_per_core` accesses per core.
  while (unfinished > 0) {
    // Epoch boundaries fire in global time order, before any access that
    // crosses them — and over an idle machine, whose queue is empty.
    if (queue.empty() || queue.top().issue_at >= next_epoch_) {
      run_epoch_boundary();
      next_epoch_ += config_.epoch_cycles;
      if (!quota) --unfinished;
      continue;
    }
    const auto entry = queue.top();
    queue.pop();

    // Nothing touches a core's timer between its push and its pop, so the
    // queued time is the issue time.
    timers_[entry.core]->advance_to_issue(entry.issue_at);
    const Cycle done_at = serve_access(entry.core, entry.issue_at);
    timers_[entry.core]->record_completion(done_at);

    if (quota && remaining[entry.core] > 0 && --remaining[entry.core] == 0) {
      snapshot_core(entry.core);
      --unfinished;
    }
    if (unfinished > 0) queue.push({timers_[entry.core]->peek_issue(), entry.core});
  }
  // Rewind unconsumed batch suffixes before handing control back: outside
  // drive(), generators are always in their exact scalar state.
  flush_streams();
  // The epoch stop never drains: the in-flight windows carry across calls,
  // so stepping one epoch at a time is the same trajectory as stepping them
  // all at once.
  if (!quota) return;
  for (auto& timer : timers_) timer->drain();
  audit_checkpoint("end of run");
}

void System::snapshot_core(CoreId core) {
  CoreSnapshot snapshot;
  snapshot.instructions = timers_[core]->instructions_since_mark();
  snapshot.cycles = timers_[core]->cycles_since_mark();
  snapshot.cpi = timers_[core]->cpi_since_mark();
  snapshot.l2_hits = l2_->stats().hits[core];
  snapshot.l2_misses = l2_->stats().misses[core];
  snapshot.taken = true;
  snapshots_[core] = snapshot;
}

void System::reset_measurement() {
  l2_->clear_stats();
  dram_.clear_stats();
  noc_.clear_stats();
  directory_.clear_stats();
  for (auto& timer : timers_) timer->mark();
  snapshots_.assign(config_.geometry.num_cores, CoreSnapshot{});
  // The epoch count and per-epoch series describe the measurement window
  // only, so SystemResults::epochs() == epoch_series().num_epochs().
  epochs_ = 0;
  reset_epoch_tracking();
}

void System::switch_workload(CoreId core, std::string_view workload_name) {
  BACP_ASSERT(core < generators_.size(), "core out of range");
  flush_stream(core);  // defensive: a model switch must see scalar state
  generators_[core]->switch_model(trace::spec2000_by_name(workload_name));
}

void System::warm_up(std::uint64_t instructions_per_core) {
  run(instructions_per_core);
  reset_measurement();
}

void System::run(std::uint64_t instructions_per_core) {
  drive(Stop::Quota, instructions_per_core);
}

void System::step_epochs(std::uint64_t epochs) { drive(Stop::Epochs, epochs); }

void System::reset_core(CoreId core, std::string_view workload_name,
                        std::uint64_t stream_salt) {
  BACP_ASSERT(core < config_.geometry.num_cores, "core out of range");
  const std::size_t workload = trace::spec2000_index(workload_name);
  const auto& model = trace::spec2000_suite().at(workload);

  // Coherent L1 flush: the departing tenant's private lines leave through
  // the same directory/L2/DRAM path a capacity eviction takes, so MOESI
  // state and dirty data stay consistent. The drain is stamped at the
  // slot's local clock — it happened before the new tenant's first access.
  const Cycle drain_time = timers_[core]->time();
  for (const auto& line : l1_[core].resident_lines()) {
    retire_l1_line(core, line, drain_time);
    l1_[core].invalidate(line.block);
  }

  // The newcomer's profile, reuse structure and timing replace the old
  // tenant's; the salt decorrelates its streams from every other instance
  // of the same workload in the session.
  flush_stream(core);  // defensive: drop any buffered departing-tenant accesses
  profilers_[core]->clear();
  generators_[core] = std::make_unique<trace::SyntheticTraceGenerator>(
      model, generator_config(core), config_.seed ^ stream_salt);
  timers_[core]->rebind(timer_config(core, model, stream_salt));

  // Join at current global time (an idle slot's clock may be far behind),
  // and start the slot's measurement and profile windows here.
  Cycle now = 0;
  for (const auto& timer : timers_) now = std::max(now, timer->time());
  timers_[core]->fast_forward(now);
  timers_[core]->mark();
  last_epoch_instructions_[core] = timers_[core]->instructions();
  decayed_instructions_[core] = 0.0;
  bound_workloads_[core] = workload;
  audit_checkpoint("reset_core");
}

void System::set_core_active(CoreId core, bool active) {
  BACP_ASSERT(core < config_.geometry.num_cores, "core out of range");
  active_[core] = active ? 1 : 0;
}

void System::install_partition(const partition::Allocation& allocation,
                               const partition::BankAssignment& assignment) {
  BACP_ASSERT(config_.policy == PolicyKind::External,
              "install_partition is the PolicyKind::External driver surface");
  assignment.validate_against(config_.geometry, allocation);
  l2_->apply_assignment(assignment);
  allocation_ = allocation;
  allocation_history_.push_back(allocation);
  audit_checkpoint("install_partition");
}

std::vector<System::CoreSample> System::sample_cores() const {
  std::vector<CoreSample> samples(config_.geometry.num_cores);
  const auto& l2_stats = l2_->stats();
  for (CoreId core = 0; core < config_.geometry.num_cores; ++core) {
    CoreSample& sample = samples[core];
    sample.instructions = timers_[core]->instructions_since_mark();
    sample.cycles = timers_[core]->cycles_since_mark();
    sample.l2_hits = l2_stats.hits[core];
    sample.l2_misses = l2_stats.misses[core];
    sample.ways = allocation_.ways_per_core.at(core);
    sample.active = active_[core] != 0;
  }
  return samples;
}

snapshot::SystemSnapshot System::save_state() const {
  // Snapshots are only meaningful at statistics-clean points (right after
  // construction, warm_up() or reset_measurement()): epoch tracking, series
  // handles and core snapshots are all in their reset state there, so
  // restore can rebuild them deterministically instead of serializing
  // registry internals.
  BACP_ASSERT(epochs_ == 0, "save_state requires a statistics-clean system");
  for (const auto& core_snapshot : snapshots_) {
    BACP_ASSERT(!core_snapshot.taken, "save_state requires a statistics-clean system");
  }
  snapshot::SnapshotBuilder builder(config_digest(config_, mix_));
  {
    auto writer = builder.begin_section(snapshot::SectionId::SystemMeta);
    writer.scalars(std::span<const std::size_t>(mix_.workload_indices));
    writer.scalars(std::span<const WayCount>(allocation_.ways_per_core));
    writer.u64(allocation_history_.size());
    for (const auto& allocation : allocation_history_) {
      writer.scalars(std::span<const WayCount>(allocation.ways_per_core));
    }
    // Doubles travel one at a time through the bit-exact f64 path (the bulk
    // scalar codec rejects types with non-unique object representations).
    writer.u64(last_epoch_instructions_.size());
    for (const double value : last_epoch_instructions_) writer.f64(value);
    writer.u64(decayed_instructions_.size());
    for (const double value : decayed_instructions_) writer.f64(value);
    writer.u64(next_epoch_);
    writer.scalars(std::span<const std::uint8_t>(active_));
    writer.scalars(std::span<const std::size_t>(bound_workloads_));
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::Noc);
    noc_.save_state(writer);
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::Dram);
    dram_.save_state(writer);
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::Directory);
    directory_.save_state(writer);
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::L2);
    l2_->save_state(writer);
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::L1);
    for (const auto& l1 : l1_) l1.save_state(writer);
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::Generators);
    for (const auto& generator : generators_) generator->save_state(writer);
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::Profilers);
    for (const auto& profiler : profilers_) profiler->save_state(writer);
  }
  {
    auto writer = builder.begin_section(snapshot::SectionId::Timers);
    for (const auto& timer : timers_) timer->save_state(writer);
  }
  return builder.finish();
}

void System::restore_state(const snapshot::SystemSnapshot& snapshot) {
  const snapshot::SnapshotView view(snapshot);
  BACP_ASSERT(view.config_digest() == config_digest(config_, mix_),
              "snapshot belongs to a different (config, mix)");
  {
    auto reader = view.section(snapshot::SectionId::Noc);
    noc_.restore_state(reader);
  }
  {
    auto reader = view.section(snapshot::SectionId::Dram);
    dram_.restore_state(reader);
  }
  {
    auto reader = view.section(snapshot::SectionId::Directory);
    directory_.restore_state(reader);
  }
  {
    auto reader = view.section(snapshot::SectionId::L2);
    l2_->restore_state(reader);
  }
  {
    auto reader = view.section(snapshot::SectionId::L1);
    for (auto& l1 : l1_) l1.restore_state(reader);
  }
  {
    auto reader = view.section(snapshot::SectionId::Generators);
    for (auto& generator : generators_) generator->restore_state(reader);
  }
  {
    auto reader = view.section(snapshot::SectionId::Profilers);
    for (auto& profiler : profilers_) profiler->restore_state(reader);
  }
  {
    auto reader = view.section(snapshot::SectionId::Timers);
    for (auto& timer : timers_) timer->restore_state(reader);
  }

  auto reader = view.section(snapshot::SectionId::SystemMeta);
  const auto mix_indices = reader.scalars<std::size_t>();
  BACP_ASSERT(mix_indices == mix_.workload_indices, "snapshot mix mismatch");
  reader.scalars_into(std::span<WayCount>(allocation_.ways_per_core));
  allocation_history_.clear();
  const std::uint64_t history_entries = reader.u64();
  for (std::uint64_t i = 0; i < history_entries; ++i) {
    partition::Allocation allocation;
    allocation.ways_per_core = reader.scalars<WayCount>();
    allocation_history_.push_back(std::move(allocation));
  }
  BACP_ASSERT(reader.u64() == last_epoch_instructions_.size(),
              "snapshot array length mismatch");
  for (double& value : last_epoch_instructions_) value = reader.f64();
  BACP_ASSERT(reader.u64() == decayed_instructions_.size(),
              "snapshot array length mismatch");
  for (double& value : decayed_instructions_) value = reader.f64();
  next_epoch_ = reader.u64();
  reader.scalars_into(std::span<std::uint8_t>(active_));
  reader.scalars_into(std::span<std::size_t>(bound_workloads_));
  // Timer/generator *workload* parameters are not serialized — a slot whose
  // binding moved off the construction mix must have been rebound with
  // reset_core() before the restore, or the restored clock would run under
  // the wrong gap model. Generators re-resolve their model by name on
  // restore, so the check pins the timers.
  for (CoreId core = 0; core < config_.geometry.num_cores; ++core) {
    const auto& model = trace::spec2000_suite().at(bound_workloads_[core]);
    BACP_ASSERT(timers_[core]->config().base_cpi == model.base_cpi,
                "restore_state: core binding not replayed before restore");
  }
  // The saving system was statistics-clean (save_state asserts it), so the
  // derived tracking state rebuilds deterministically from component state —
  // exactly what reset_measurement() established on the saving side.
  snapshots_.assign(config_.geometry.num_cores, CoreSnapshot{});
  epochs_ = 0;
  reset_epoch_tracking();
  audit_checkpoint("restore_state");
}

SystemResults System::results() const {
  SystemResults results;
  const auto& suite = trace::spec2000_suite();
  const auto& l2_stats = l2_->stats();
  std::vector<double> cpis;
  std::uint64_t hits_total = 0;
  std::uint64_t misses_total = 0;
  for (CoreId core = 0; core < config_.geometry.num_cores; ++core) {
    CoreResult core_result;
    if (core < snapshots_.size() && snapshots_[core].taken) {
      // Quota snapshot: exactly the core's measurement slice.
      core_result.set_instructions(snapshots_[core].instructions)
          .set_cycles(snapshots_[core].cycles)
          .set_cpi(snapshots_[core].cpi)
          .set_l2_hits(snapshots_[core].l2_hits)
          .set_l2_misses(snapshots_[core].l2_misses);
    } else {
      core_result.set_instructions(timers_[core]->instructions_since_mark())
          .set_cycles(timers_[core]->cycles_since_mark())
          .set_cpi(timers_[core]->cpi_since_mark())
          .set_l2_hits(l2_stats.hits[core])
          .set_l2_misses(l2_stats.misses[core]);
    }
    core_result.set_allocated_ways(allocation_.ways_per_core.at(core));
    core_result.set_workload(suite.at(bound_workloads_[core]).name);
    cpis.push_back(core_result.cpi());
    hits_total += core_result.l2_hits();
    misses_total += core_result.l2_misses();
    results.cores().push_back(std::move(core_result));
  }

  // Component modules publish their live counters under their own
  // namespaces; the per-quota aggregates land under "sim.".
  obs::Registry& metrics = results.metrics();
  nuca::export_stats(l2_stats, metrics);
  mem::export_stats(dram_.stats(), metrics);
  noc::export_stats(noc_.stats(), metrics);
  coherence::export_stats(directory_.stats(), metrics);

  const std::uint64_t accesses = hits_total + misses_total;
  results.set_l2_accesses(accesses);
  metrics.counter("sim.live_l2_accesses")
      .set(l2_stats.total_hits() + l2_stats.total_misses());
  results.set_l2_misses(misses_total);
  results.set_l2_miss_ratio(accesses == 0 ? 0.0
                                          : static_cast<double>(misses_total) /
                                                static_cast<double>(accesses));
  results.set_mean_cpi(common::arithmetic_mean(cpis));
  results.set_epochs(epochs_);
  results.epoch_series() = epoch_series_;
  return results;
}

}  // namespace bacp::sim
