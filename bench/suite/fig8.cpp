// fig8_detailed: the detailed simulation behind Fig. 8 — the Table III Set1
// mix under No-partition, Equal and Bank-aware, each warmed once and then
// re-run from its warm snapshot. Almost all host time is the per-access path
// (trace -> L1 -> coherence -> NUCA -> NoC -> DRAM, plus the MSA observe);
// only a few epoch replans fire, so the partition layer is nearly idle.
// No-partition exercises D-NUCA migration and the other two barely do, so
// the per-policy counts keep one policy's gain from hiding another's loss.
//
// The traced run adds standalone component drivers at the same geometry,
// called through each layer's public API, which explain where the
// per-access time goes.

#include <array>
#include <atomic>
#include <memory>

#include "cache/set_assoc_cache.hpp"
#include "coherence/moesi.hpp"
#include "common/stats.hpp"
#include "harness/experiments.hpp"
#include "mem/dram.hpp"
#include "msa/miss_curve.hpp"
#include "msa/stack_profiler.hpp"
#include "noc/noc.hpp"
#include "nuca/dnuca_cache.hpp"
#include "partition/bank_aware.hpp"
#include "partition/static_policies.hpp"
#include "sim/system.hpp"
#include "suite.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

namespace bacp::suite {
namespace {

struct Policy {
  sim::PolicyKind kind;
  const char* slug;
};
constexpr std::array<Policy, 3> kPolicies = {{{sim::PolicyKind::NoPartition, "no_partition"},
                                              {sim::PolicyKind::EqualPartition, "equal"},
                                              {sim::PolicyKind::BankAware, "bank_aware"}}};

/// Deterministic counts of one measured run, from the SystemResults
/// registry (accesses: every L2 access seen live in the window, as
/// bench_perf_throughput counts them).
struct RunCounts {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t migrations = 0;
  std::uint64_t directory_lookups = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t noc_queue_cycles = 0;

  bool operator==(const RunCounts&) const = default;

  obs::Json to_json() const {
    obs::Json json = obs::Json::object();
    json.set("accesses", accesses)
        .set("misses", misses)
        .set("migrations", migrations)
        .set("directory_lookups", directory_lookups)
        .set("dram_reads", dram_reads)
        .set("noc_queue_cycles", noc_queue_cycles);
    return json;
  }
};

std::uint64_t live_accesses(const sim::System& system) {
  return system.l2().stats().total_hits() + system.l2().stats().total_misses();
}

RunCounts counts_since(const sim::System& system, std::uint64_t accesses_before) {
  const sim::SystemResults results = system.results();
  return {live_accesses(system) - accesses_before, results.l2_misses(),
          results.promotions() + results.demotions(), results.directory_lookups(),
          results.dram_reads(), results.noc_queue_cycles()};
}

/// Pinned accesses per policy at seed 42 and the default scale; they equal
/// bench_perf_throughput's system.* rows at --warmup 2000000 --instr 4000000.
constexpr std::uint64_t kPinnedSeed = 42;
constexpr std::array<std::uint64_t, 3> kPinnedAccesses = {438687, 446277, 444436};

std::atomic<std::uint64_t> g_probe_sink{0};

double ns_per(std::int64_t start, std::uint64_t count) {
  return static_cast<double>(now_ns() - start) / static_cast<double>(count);
}

/// Standalone drivers of each layer at the Fig. 8 geometry over a Set1
/// access stream; each reports host nanoseconds per call.
void run_component_probes(std::uint64_t seed, const trace::WorkloadMix& mix,
                          std::map<std::string, double>& metrics) {
  constexpr std::size_t kAccesses = std::size_t{1} << 18;
  const sim::SystemConfig config = sim::SystemConfig::baseline();
  const partition::CmpGeometry& geometry = config.geometry;
  const auto& suite = trace::spec2000_suite();
  const CoreId cores = geometry.num_cores;
  std::uint64_t sink = 0;

  std::vector<std::unique_ptr<trace::SyntheticTraceGenerator>> generators;
  std::vector<msa::MissRatioCurve> curves;
  for (CoreId core = 0; core < cores; ++core) {
    const auto& model = suite[mix.workload_indices[core]];
    trace::GeneratorConfig generator_config;
    generator_config.core = core;
    generators.push_back(
        std::make_unique<trace::SyntheticTraceGenerator>(model, generator_config, seed + core));
    curves.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
  }
  std::vector<trace::MemoryAccess> stream(kAccesses);
  std::int64_t start = now_ns();
  for (std::size_t i = 0; i < kAccesses; ++i) stream[i] = generators[i % cores]->next();
  metrics["trace.ns_per_access"] = ns_per(start, kAccesses);

  // Private L1s (Table I geometry). The fills and evictions they produce
  // are replayed into the MOESI directory below.
  struct DirectoryEvent {
    BlockAddress block;
    CoreId core;
    enum : std::uint8_t { kRead, kWrite, kEvict } kind;
    bool dirty;
  };
  std::vector<DirectoryEvent> events;
  events.reserve(2 * kAccesses);
  {
    cache::SetAssocCache::Config l1_config;
    l1_config.name = "probe.l1";
    l1_config.num_sets = config.l1_sets;
    l1_config.ways = config.l1_ways;
    std::vector<cache::SetAssocCache> l1s(cores, cache::SetAssocCache(l1_config));
    const auto drive = [&](bool record) {
      for (const trace::MemoryAccess& access : stream) {
        cache::SetAssocCache& l1 = l1s[access.core];
        const cache::LookupResult hit = l1.access(access.block, 0, access.is_write);
        if (hit.hit) {
          sink += hit.way;
          if (record && access.is_write) {
            events.push_back({access.block, access.core, DirectoryEvent::kWrite, true});
          }
          continue;
        }
        const cache::FillResult fill = l1.fill(access.block, 0, access.is_write);
        if (!record) {
          sink += fill.way;
          continue;
        }
        if (fill.evicted) {
          events.push_back(
              {fill.evicted->block, access.core, DirectoryEvent::kEvict, fill.evicted->dirty});
        }
        events.push_back({access.block, access.core,
                          access.is_write ? DirectoryEvent::kWrite : DirectoryEvent::kRead,
                          access.is_write});
      }
    };
    drive(true);  // warms the caches and records the directory traffic
    start = now_ns();
    drive(false);
    metrics["cache.l1_ns_per_access"] = ns_per(start, kAccesses);
  }
  {
    coherence::MoesiDirectory directory(cores);
    directory.reserve(std::size_t{cores} * config.l1_sets * config.l1_ways);
    start = now_ns();
    for (const DirectoryEvent& event : events) {
      coherence::CoherenceAction action;
      switch (event.kind) {
        case DirectoryEvent::kRead:
          action = directory.on_l1_read_fill(event.block, event.core);
          break;
        case DirectoryEvent::kWrite:
          action = directory.on_l1_write_fill(event.block, event.core);
          break;
        case DirectoryEvent::kEvict:
          action = directory.on_l1_evict(event.block, event.core, event.dirty);
          break;
      }
      sink += action.invalidations + action.interventions;
    }
    metrics["coherence.ns_per_event"] = ns_per(start, events.size());
  }

  // The banked L2 under the No-partition and Bank-aware plans.
  const partition::BankAwareResult bank_aware = partition::bank_aware_partition(geometry, curves);
  const partition::StaticPlan shared = partition::no_partition(geometry);
  const std::array<std::pair<const char*, const partition::BankAssignment*>, 2> plans = {
      {{"nuca.ns_per_access.no_partition", &shared.assignment},
       {"nuca.ns_per_access.bank_aware", &bank_aware.assignment}}};
  for (const auto& [metric, assignment] : plans) {
    noc::Noc noc(config.noc);
    nuca::DnucaConfig l2_config;
    l2_config.geometry = geometry;
    l2_config.sets_per_bank = config.sets_per_bank;
    nuca::DnucaCache l2(l2_config, noc);
    l2.apply_assignment(*assignment);
    Cycle now = 0;
    const auto drive = [&] {
      for (const trace::MemoryAccess& access : stream) {
        const nuca::L2AccessOutcome outcome = l2.access(access.block, access.core,
                                                        access.is_write, now);
        sink += outcome.bank + outcome.evicted.size();
        now += 3;
      }
    };
    drive();
    start = now_ns();
    drive();
    metrics[metric] = ns_per(start, kAccesses);
  }

  {
    msa::StackProfiler profiler(config.profiler);
    for (const trace::MemoryAccess& access : stream) profiler.observe(access.block);
    start = now_ns();
    for (const trace::MemoryAccess& access : stream) profiler.observe(access.block);
    metrics["msa.ns_per_observe"] = ns_per(start, kAccesses);
    sink += profiler.histogram().total();
  }
  {
    noc::Noc noc(config.noc);
    Cycle now = 0;
    start = now_ns();
    for (const trace::MemoryAccess& access : stream) {
      sink += noc.request(access.core, static_cast<BankId>(access.block % geometry.num_banks),
                          now);
      now += 3;
    }
    metrics["noc.ns_per_request"] = ns_per(start, kAccesses);
  }
  {
    mem::Dram dram(config.dram);
    Cycle now = 0;
    start = now_ns();
    for (std::size_t i = 0; i < kAccesses; ++i) {
      sink += dram.read(now);
      now += 5;
    }
    metrics["mem.ns_per_read"] = ns_per(start, kAccesses);
  }
  {
    constexpr std::uint64_t kPlans = 200;
    start = now_ns();
    for (std::uint64_t i = 0; i < kPlans; ++i) {
      sink += partition::bank_aware_partition(geometry, curves).allocation.total();
    }
    metrics["partition.bank_aware_partition_us"] = ns_per(start, kPlans) * 1e-3;
  }
  g_probe_sink.fetch_add(sink, std::memory_order_relaxed);
}

}  // namespace

Outcome run_fig8_detailed(const RunOptions& options, Tracer& tracer) {
  Outcome outcome;
  const std::uint64_t warmup = options.params.at("warmup");
  const std::uint64_t instr = options.params.at("instr");
  const trace::WorkloadMix mix = harness::table3_sets().front().mix();
  const auto config_for = [&](sim::PolicyKind kind) {
    sim::SystemConfig config = sim::SystemConfig::baseline();
    config.policy = kind;
    config.epoch_cycles = harness::DetailedRunConfig{}.epoch_cycles;
    config.seed = options.seed;
    config.finalize();
    return config;
  };

  const Tracer::NameId setup_span = tracer.intern("fig8.setup");
  const Tracer::NameId round_span = tracer.intern("fig8.round");
  const Tracer::NameId construct_span = tracer.intern("sim.construct");
  const Tracer::NameId warm_span = tracer.intern("sim.warm_up");
  const Tracer::NameId save_span = tracer.intern("snapshot.save");
  const Tracer::NameId restore_span = tracer.intern("snapshot.restore");
  std::array<Tracer::NameId, kPolicies.size()> run_spans{};
  for (std::size_t p = 0; p < kPolicies.size(); ++p) {
    run_spans[p] = tracer.intern(std::string("sim.run.") + kPolicies[p].slug);
  }

  struct Warm {
    std::unique_ptr<sim::System> system;
    snapshot::SystemSnapshot state;
  };
  std::vector<Warm> warm;
  Measurement measurement(options, tracer, outcome);
  measurement.setup([&] { warm.clear(); },
                    [&] {
                      const auto root = tracer.span(setup_span);
                      for (const Policy& policy : kPolicies) {
                        Warm entry;
                        {
                          const auto span = tracer.span(construct_span);
                          entry.system = std::make_unique<sim::System>(
                              config_for(policy.kind), mix);
                        }
                        {
                          const auto span = tracer.span(warm_span);
                          entry.system->warm_up(warmup);
                        }
                        {
                          const auto span = tracer.span(save_span);
                          entry.state = entry.system->save_state();
                        }
                        warm.push_back(std::move(entry));
                      }
                    });

  // One policy run from its warm snapshot; `allocs` collects the heap
  // allocations made inside System::run.
  const auto run_policy = [&](std::size_t p, std::uint64_t op, std::uint64_t* allocs) {
    sim::System& system = *warm[p].system;
    {
      const auto span = tracer.span(restore_span, op);
      system.restore_state(warm[p].state);
    }
    const std::uint64_t before = live_accesses(system);
    const std::uint64_t allocs_before = allocations();
    {
      const auto span = tracer.span(run_spans[p], op);
      system.run(instr);
    }
    if (allocs != nullptr) *allocs += allocations() - allocs_before;
    return counts_since(system, before);
  };

  // The first rep after a restore runs slow while the host caches refill;
  // one untimed round also yields the reference every later round must
  // reproduce.
  std::array<RunCounts, kPolicies.size()> reference;
  for (std::size_t p = 0; p < kPolicies.size(); ++p) reference[p] = run_policy(p, 0, nullptr);

  std::array<std::uint64_t, kPolicies.size()> traced_allocs{};
  std::array<std::uint64_t, kPolicies.size()> traced_accesses{};
  measurement.loop(2, [&](std::size_t round) {
    const auto root = tracer.span(round_span, round);
    const bool traced = tracer.enabled();
    double accesses = 0.0;
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const RunCounts counts = run_policy(p, round, traced ? &traced_allocs[p] : nullptr);
      if (traced) traced_accesses[p] += counts.accesses;
      outcome.ops(1, counts == reference[p] ? 0 : 1);
      accesses += static_cast<double>(counts.accesses);
    }
    return accesses;
  });
  warm.clear();

  // Restore + run must reproduce a cold construct + warm-up + run exactly.
  for (std::size_t p = 0; p < kPolicies.size(); ++p) {
    sim::System cold(config_for(kPolicies[p].kind), mix);
    cold.warm_up(warmup);
    const std::uint64_t before = live_accesses(cold);
    cold.run(instr);
    if (!(counts_since(cold, before) == reference[p])) {
      outcome.problem(std::string(kPolicies[p].slug) +
                      ": restore_state + run differs from a cold warm-up + run");
      outcome.failed = outcome.attempted;
    }
    if (options.seed == kPinnedSeed && options.default_params &&
        reference[p].accesses != kPinnedAccesses[p]) {
      outcome.problem(std::string(kPolicies[p].slug) + ": accesses " +
                      std::to_string(reference[p].accesses) + " differ from the pinned " +
                      std::to_string(kPinnedAccesses[p]));
    }
    outcome.outputs.set(kPolicies[p].slug, reference[p].to_json());
  }

  if (options.trace) {
    auto& m = outcome.metrics;
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const std::string slug = kPolicies[p].slug;
      const RunCounts& counts = reference[p];
      m["sim.run_s." + slug] = tracer.mean_seconds("sim.run." + slug);
      m["nuca.accesses." + slug] = static_cast<double>(counts.accesses);
      m["nuca.misses." + slug] = static_cast<double>(counts.misses);
      m["nuca.migrations." + slug] = static_cast<double>(counts.migrations);
      m["nuca.directory_lookups." + slug] = static_cast<double>(counts.directory_lookups);
      m["dram.reads." + slug] = static_cast<double>(counts.dram_reads);
      m["noc.queue_cycles." + slug] = static_cast<double>(counts.noc_queue_cycles);
      m["alloc.per_access." + slug] = common::ratio(static_cast<double>(traced_allocs[p]),
                                                    static_cast<double>(traced_accesses[p]));
    }
    m["sim.construct_s"] = tracer.mean_seconds("sim.construct");
    m["sim.warm_up_s"] = tracer.mean_seconds("sim.warm_up");
    m["snapshot.save_s"] = tracer.mean_seconds("snapshot.save");
    m["snapshot.restore_s"] = tracer.mean_seconds("snapshot.restore");
    run_component_probes(options.seed, mix, m);
  }
  return outcome;
}

}  // namespace bacp::suite
