// Simulator-speed microbenchmark: accesses/second through the hot paths
// that every figure regeneration leans on, so the bench/out/ trajectory
// tracks simulator throughput PR over PR alongside the figure artifacts.
//
// Measured surfaces:
//   - system:   the full Fig. 8 configuration (Set1 mix, all three
//               policies) through sim::System::run;
//   - l2_path:  nuca::DnucaCache::access driven directly (the per-access
//               L2 path), with a heap-allocation counter — the contract is
//               zero per-access allocations in steady state;
//   - cache:    cache::SetAssocCache access/fill on one bank's geometry;
//   - profiler: msa::StackProfiler::observe at the production sampling
//               configuration and at dense (1-in-1) sampling.
//
// Wall-clock readings are inherently non-deterministic; they are emitted
// as metrics (this artifact *is* the perf trajectory) plus a deterministic
// checksum so result drift is distinguishable from speed drift.
//
// Flags: --warmup, --instr, --epoch, --seed, --accesses, --json-out.

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>

#include "harness/experiments.hpp"
#include "obs/phase_timer.hpp"
#include "obs/report.hpp"
#include "partition/static_policies.hpp"
#include "trace/spec2000.hpp"

namespace {

/// Global operator new/delete instrumentation: counts every heap
/// allocation in the process so the bench can prove the L2 access path is
/// allocation-free in steady state. Relaxed ordering suffices — readings
/// are taken on the measuring thread around single-threaded loops.
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

int main(int argc, char** argv) {
  using namespace bacp;

  auto spec = harness::DetailedRunConfig::cli_flags();
  spec.push_back({"accesses=", "accesses per micro loop"});
  common::ArgParser parser(obs::with_report_flags(std::move(spec)));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  auto config = harness::DetailedRunConfig::from_args(parser);
  const auto accesses = parser.get_u64_or_fail("accesses", 4'000'000);

  obs::PhaseTimers timers;
  obs::Report report("perf_throughput", "Simulator throughput (accesses/second)");
  report.meta("warmup", std::to_string(config.warmup_instructions));
  report.meta("instr", std::to_string(config.measure_instructions));
  report.meta("accesses", std::to_string(accesses));
  report.meta("seed", std::to_string(config.seed));
  std::uint64_t checksum = 0;

  auto& table = report.table("throughput",
                             {"surface", "accesses", "seconds", "accesses/sec",
                              "allocs/access"});
  const auto add_row = [&](const std::string& surface, std::uint64_t count,
                           double seconds, std::uint64_t allocs) {
    const double rate = seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
    const double allocs_per_access =
        count == 0 ? 0.0
                   : static_cast<double>(allocs) / static_cast<double>(count);
    table.begin_row()
        .cell(surface)
        .cell(count)
        .cell(seconds, 4)
        .cell(rate, 0)
        .cell(allocs_per_access, 6);
    return rate;
  };

  // --- Full system, Fig. 8 configuration: Set1 mix, three policies. ----
  const auto mix = harness::table3_sets().front().mix();
  const sim::PolicyKind policies[] = {sim::PolicyKind::NoPartition,
                                      sim::PolicyKind::EqualPartition,
                                      sim::PolicyKind::BankAware};
  std::uint64_t system_accesses = 0;
  std::uint64_t system_allocs = 0;
  double system_seconds = 0.0;
  for (const auto policy : policies) {
    sim::SystemConfig system_config = sim::SystemConfig::baseline();
    system_config.policy = policy;
    system_config.epoch_cycles = config.epoch_cycles;
    system_config.seed = config.seed;
    system_config.finalize();
    sim::System system(system_config, mix);
    system.warm_up(config.warmup_instructions);

    const auto live = [&] {
      return system.l2().stats().total_hits() + system.l2().stats().total_misses();
    };
    const std::uint64_t accesses_before = live();
    const std::uint64_t allocs_before = allocations();
    const std::string phase = std::string("system.") + sim::to_string(policy);
    {
      const auto scope = timers.scope(phase);
      system.run(config.measure_instructions);
    }
    const std::uint64_t ran = live() - accesses_before;
    const std::uint64_t allocs = allocations() - allocs_before;
    const double seconds = timers.seconds(phase);
    system_accesses += ran;
    system_allocs += allocs;
    system_seconds += seconds;
    checksum += system.results().l2_misses();
    add_row(phase, ran, seconds, allocs);
  }
  report.metric("system_accesses_per_sec",
                add_row("system", system_accesses, system_seconds, system_allocs), 0);
  report.metric("system_allocs_per_access",
                system_accesses == 0
                    ? 0.0
                    : static_cast<double>(system_allocs) /
                          static_cast<double>(system_accesses),
                6);

  // --- L2 access path driven directly (steady-state allocation check). --
  {
    partition::CmpGeometry geometry;  // the paper's 8x16x8 baseline
    noc::NocConfig noc_config;
    noc_config.num_cores = geometry.num_cores;
    noc_config.num_banks = geometry.num_banks;
    noc::Noc noc(noc_config);
    nuca::DnucaConfig l2_config;
    l2_config.geometry = geometry;
    nuca::DnucaCache l2(l2_config, noc);
    l2.apply_assignment(partition::equal_partition(geometry).assignment);

    common::Rng rng(config.seed, 77);
    // Working set ~2x capacity so the steady state mixes hits, misses and
    // evictions — the full per-access path.
    const std::uint64_t working_set =
        2ull * geometry.num_banks * l2_config.sets_per_bank * geometry.ways_per_bank;
    // Stream: block from the rng, cores round-robin, every 8th access a
    // write, 3 cycles apart; index and clock carry over from the warm-up.
    std::uint64_t index = 0;
    Cycle now = 0;
    const auto drive = [&](std::uint64_t count) {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < count; ++i, ++index, now += 3) {
        const auto core = static_cast<CoreId>(index % geometry.num_cores);
        const auto outcome =
            l2.access(rng.next_below(working_set), core, (index & 7) == 0, now);
        sum += outcome.bank + (outcome.hit ? 1 : 0) + outcome.evicted.size();
      }
      return sum;
    };
    checksum += drive(accesses / 4);  // reach steady state
    const std::uint64_t allocs_before = allocations();
    {
      const auto scope = timers.scope("l2_path");
      checksum += drive(accesses);
    }
    const std::uint64_t allocs = allocations() - allocs_before;
    report.metric("l2_path_accesses_per_sec",
                  add_row("l2_path", accesses, timers.seconds("l2_path"), allocs), 0);
    report.metric("l2_path_allocs", allocs);
    report.metric("l2_path_allocs_per_access",
                  accesses == 0 ? 0.0
                                : static_cast<double>(allocs) /
                                      static_cast<double>(accesses),
                  6);
  }

  // --- One bank's SetAssocCache: access + fill micro loop. --------------
  {
    cache::SetAssocCache::Config bank_config;
    bank_config.name = "perf.bank";
    bank_config.num_sets = 2048;
    bank_config.ways = 8;
    bank_config.num_cores = 1;
    cache::SetAssocCache bank(bank_config);
    common::Rng rng(config.seed, 78);
    const std::uint64_t working_set = 3ull * bank_config.num_sets * bank_config.ways;
    const auto drive = [&](std::uint64_t count) {
      for (std::uint64_t i = 0; i < count; ++i) {
        const BlockAddress block = rng.next_below(working_set);
        const auto result = bank.access(block, 0, (i & 15) == 0);
        if (!result.hit) {
          checksum += bank.fill(block, 0, false).way;
        } else {
          checksum += result.way;
        }
      }
    };
    drive(accesses / 4);
    const std::uint64_t allocs_before = allocations();
    {
      const auto scope = timers.scope("cache");
      drive(accesses);
    }
    report.metric("cache_accesses_per_sec",
                  add_row("cache", accesses, timers.seconds("cache"),
                          allocations() - allocs_before),
                  0);
  }

  // --- StackProfiler::observe: production sampling and dense. -----------
  {
    const auto drive_profiler = [&](const char* phase, std::uint32_t sampling) {
      msa::ProfilerConfig profiler_config;  // production: 2048 sets, 72 ways
      profiler_config.set_sampling = sampling;
      msa::StackProfiler profiler(profiler_config);
      common::Rng rng(config.seed, 79);
      const std::uint64_t working_set = 96ull * profiler_config.num_sets;
      const auto drive = [&](std::uint64_t count) {
        for (std::uint64_t i = 0; i < count; ++i) {
          profiler.observe(rng.next_below(working_set));
        }
      };
      drive(accesses / 4);
      const std::uint64_t allocs_before = allocations();
      {
        const auto scope = timers.scope(phase);
        drive(accesses);
      }
      checksum += profiler.histogram().total();
      return add_row(phase, accesses, timers.seconds(phase),
                     allocations() - allocs_before);
    };
    report.metric("profiler_observes_per_sec", drive_profiler("profiler", 32), 0);
    report.metric("profiler_dense_observes_per_sec",
                  drive_profiler("profiler_dense", 1), 0);
  }

  report.metric("checksum", checksum);
  report.note("accesses/sec is the headline; checksum pins simulated results "
              "(must not drift across perf PRs at fixed seed/scale)");
  return report.emit(std::cout, options) ? 0 : 1;
}
