#include "harness/experiments.hpp"

#include <array>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "harness/config_cli.hpp"
#include "harness/snapshot_cache.hpp"
#include "obs/phase_timer.hpp"

namespace bacp::harness {

std::vector<std::pair<std::string, std::string>> DetailedRunConfig::cli_flags() {
  return {
      value_flag(kWarmupKnob),
      value_flag(kInstrKnob),
      value_flag(kEpochKnob),
      value_flag(kSimSeedKnob),
      value_flag(kThreadsKnob),
      value_flag(kSnapshotBankKnob),
      bool_flag("no-snapshot-reuse", "warm every run cold instead of forking snapshots"),
  };
}

DetailedRunConfig DetailedRunConfig::from_args(const common::ArgParser& parser) {
  DetailedRunConfig config;
  config.warmup_instructions = read_u64(parser, kWarmupKnob, config.warmup_instructions);
  config.measure_instructions = read_u64(parser, kInstrKnob, config.measure_instructions);
  config.epoch_cycles = read_u64(parser, kEpochKnob, config.epoch_cycles);
  config.seed = read_u64(parser, kSimSeedKnob, config.seed);
  config.num_threads = read_threads(parser, config.num_threads);
  config.snapshot_reuse = !parser.get_bool_or_fail("no-snapshot-reuse", false);
  config.snapshot_bank = read_snapshot_bank(parser);
  return config;
}

trace::WorkloadMix ExperimentSet::mix() const { return trace::mix_from_names(benchmarks); }

const std::vector<ExperimentSet>& table3_sets() {
  static const std::vector<ExperimentSet> sets = {
      {"Set1",
       {"apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip"},
       {12, 4, 2, 16, 16, 8, 56, 8}},
      {"Set2",
       {"crafty", "gap", "mcf", "art", "equake", "equake", "bzip2", "equake"},
       {12, 4, 24, 16, 8, 8, 48, 8}},
      {"Set3",
       {"applu", "galgel", "art", "art", "sixtrack", "gcc", "mgrid", "lucas"},
       {12, 4, 16, 16, 16, 6, 40, 16}},
      {"Set4",
       {"mgrid", "mcf", "art", "equake", "gcc", "equake", "sixtrack", "crafty"},
       {40, 24, 16, 16, 6, 10, 6, 10}},
      {"Set5",
       {"facerec", "fma3d", "sixtrack", "apsi", "fma3d", "ammp", "lucas", "swim"},
       {56, 8, 16, 16, 6, 10, 6, 10}},
      {"Set6",
       {"bzip2", "gcc", "twolf", "mesa", "wupwise", "applu", "fma3d", "ammp"},
       {48, 8, 16, 24, 6, 10, 6, 10}},
      {"Set7",
       {"swim", "parser", "mgrid", "twolf", "fma3d", "parser", "swim", "mcf"},
       {8, 16, 40, 16, 2, 14, 8, 24}},
      {"Set8",
       {"ammp", "eon", "swim", "gap", "gcc", "art", "twolf", "art"},
       {13, 3, 11, 5, 8, 16, 56, 16}},
  };
  return sets;
}

double SetComparison::equal_relative_misses() const {
  return common::ratio(static_cast<double>(equal.l2_misses()),
                       static_cast<double>(none.l2_misses()), 1.0);
}

double SetComparison::bank_relative_misses() const {
  return common::ratio(static_cast<double>(bank_aware.l2_misses()),
                       static_cast<double>(none.l2_misses()), 1.0);
}

double SetComparison::equal_relative_cpi() const {
  return common::ratio(equal.mean_cpi(), none.mean_cpi(), 1.0);
}

double SetComparison::bank_relative_cpi() const {
  return common::ratio(bank_aware.mean_cpi(), none.mean_cpi(), 1.0);
}

namespace {

sim::SystemResults run_policy(sim::PolicyKind policy, const trace::WorkloadMix& mix,
                              const DetailedRunConfig& config, SnapshotCache* cache) {
  sim::SystemConfig system_config = sim::SystemConfig::baseline();
  system_config.policy = policy;
  system_config.aggregation = config.aggregation;
  system_config.epoch_cycles = config.epoch_cycles;
  system_config.seed = config.seed;
  system_config.finalize();

  sim::System system(system_config, mix);
  warm_system(system, mix, config.warmup_instructions, cache);
  {
    const auto timer = obs::global_phase_timers().scope("simulate");
    system.run(config.measure_instructions);
  }
  return system.results();
}

constexpr std::array<sim::PolicyKind, 3> kComparisonPolicies = {
    sim::PolicyKind::NoPartition, sim::PolicyKind::EqualPartition,
    sim::PolicyKind::BankAware};

void store_policy_result(SetComparison& comparison, std::size_t policy_index,
                         sim::SystemResults results) {
  switch (policy_index) {
    case 0: comparison.none = std::move(results); break;
    case 1: comparison.equal = std::move(results); break;
    default: comparison.bank_aware = std::move(results); break;
  }
}

}  // namespace

SetComparison run_set_comparison(const std::string& label, const trace::WorkloadMix& mix,
                                 const DetailedRunConfig& config) {
  SetComparison comparison;
  comparison.label = label;
  // Three independent simulations over the same reference streams (the
  // seed, not shared state, ties them together) — fan them out.
  SnapshotCache cache;
  if (!config.snapshot_bank.empty()) cache.set_file_bank(config.snapshot_bank);
  SnapshotCache* cache_ptr = config.snapshot_reuse ? &cache : nullptr;
  common::ThreadPool pool(config.num_threads);
  pool.parallel_for(kComparisonPolicies.size(), [&](std::size_t policy) {
    store_policy_result(
        comparison, policy,
        run_policy(kComparisonPolicies[policy], mix, config, cache_ptr));
  });
  BACP_ASSERT(comparison.none.l2_misses() > 0, "no misses in the baseline run");
  return comparison;
}

std::vector<SetComparison> run_detailed_sweep(std::span<const ExperimentSet> sets,
                                              const DetailedRunConfig& config) {
  std::vector<SetComparison> comparisons(sets.size());
  std::vector<trace::WorkloadMix> mixes;
  mixes.reserve(sets.size());
  for (const auto& set : sets) {
    mixes.push_back(set.mix());
  }
  // One flat set x policy task list: with per-set fan-out a fast set's
  // workers would idle while the slowest policy run of that set finishes.
  SnapshotCache cache;
  if (!config.snapshot_bank.empty()) cache.set_file_bank(config.snapshot_bank);
  SnapshotCache* cache_ptr = config.snapshot_reuse ? &cache : nullptr;
  common::ThreadPool pool(config.num_threads);
  pool.parallel_for(sets.size() * kComparisonPolicies.size(), [&](std::size_t task) {
    const std::size_t set_index = task / kComparisonPolicies.size();
    const std::size_t policy = task % kComparisonPolicies.size();
    store_policy_result(
        comparisons[set_index], policy,
        run_policy(kComparisonPolicies[policy], mixes[set_index], config, cache_ptr));
  });
  for (std::size_t i = 0; i < sets.size(); ++i) {
    comparisons[i].label = sets[i].label;
    BACP_ASSERT(comparisons[i].none.l2_misses() > 0, "no misses in the baseline run");
  }
  return comparisons;
}

}  // namespace bacp::harness
