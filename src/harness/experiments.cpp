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
  };
}

DetailedRunConfig DetailedRunConfig::from_args(const common::ArgParser& parser) {
  DetailedRunConfig config;
  config.warmup_instructions = read_u64(parser, kWarmupKnob, config.warmup_instructions);
  config.measure_instructions =
      read_positive_u64(parser, kInstrKnob, config.measure_instructions);
  config.epoch_cycles = read_positive_u64(parser, kEpochKnob, config.epoch_cycles);
  config.seed = read_u64(parser, kSimSeedKnob, config.seed);
  return config;
}

std::vector<std::pair<std::string, std::string>> SweepOptions::cli_flags() {
  return {value_flag(kThreadsKnob), value_flag(kSnapshotBankKnob)};
}

SweepOptions SweepOptions::from_args(const common::ArgParser& parser) {
  SweepOptions options;
  options.num_threads = read_threads(parser, options.num_threads);
  options.snapshot_bank = read_snapshot_bank(parser);
  return options;
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

constexpr std::array<sim::PolicyKind, 3> kComparisonPolicies = {
    sim::PolicyKind::NoPartition, sim::PolicyKind::EqualPartition,
    sim::PolicyKind::BankAware};

}  // namespace

void run_variant_sweep(std::span<const SweepVariant> variants, const SweepOptions& options,
                       const std::function<void(sim::System&, std::size_t)>& body) {
  // The repo's sweeps vary policy, epoch length or aggregation, and each
  // shapes warm state, so no two of their variants share a fingerprint:
  // warm state pays off only across sweeps and processes, through the bank.
  SnapshotCache cache;
  cache.set_file_bank(options.snapshot_bank);
  SnapshotCache* bank = options.snapshot_bank.empty() ? nullptr : &cache;
  common::ThreadPool pool(options.num_threads);
  pool.parallel_for(variants.size(), [&](std::size_t index) {
    const SweepVariant& variant = variants[index];
    sim::System system(variant.config, variant.mix);
    warm_system(system, variant.mix, variant.warmup_instructions, bank);
    body(system, index);
  });
}

std::vector<SetComparison> run_detailed_sweep(std::span<const ExperimentSet> sets,
                                              const DetailedRunConfig& config,
                                              const SweepOptions& options) {
  std::vector<SweepVariant> variants;
  variants.reserve(sets.size() * kComparisonPolicies.size());
  for (const auto& set : sets) {
    const trace::WorkloadMix mix = set.mix();
    for (const sim::PolicyKind policy : kComparisonPolicies) {
      sim::SystemConfig system_config = sim::SystemConfig::baseline();
      system_config.policy = policy;
      system_config.epoch_cycles = config.epoch_cycles;
      system_config.seed = config.seed;
      system_config.finalize();
      variants.push_back({set.label, system_config, mix, config.warmup_instructions});
    }
  }
  std::vector<sim::SystemResults> results(variants.size());
  run_variant_sweep(variants, options, [&](sim::System& system, std::size_t index) {
    const auto timer = obs::global_phase_timers().scope("simulate");
    system.run(config.measure_instructions);
    results[index] = system.results();
  });

  std::vector<SetComparison> comparisons(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    SetComparison& comparison = comparisons[i];
    const std::size_t first = i * kComparisonPolicies.size();
    comparison.label = sets[i].label;
    comparison.none = std::move(results[first]);
    comparison.equal = std::move(results[first + 1]);
    comparison.bank_aware = std::move(results[first + 2]);
    BACP_ASSERT(comparison.none.l2_misses() > 0, "no misses in the baseline run");
  }
  return comparisons;
}

}  // namespace bacp::harness
