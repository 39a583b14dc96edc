#include "harness/experiments.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/monte_carlo.hpp"
#include "obs/report.hpp"
#include "trace/spec2000.hpp"

namespace bacp::harness {
namespace {

TEST(Table3Sets, ExactlyEightSets) { EXPECT_EQ(table3_sets().size(), 8u); }

TEST(Table3Sets, EverySetHasEightBenchmarksAndWays) {
  for (const auto& set : table3_sets()) {
    EXPECT_EQ(set.benchmarks.size(), 8u) << set.label;
    EXPECT_EQ(set.paper_ways.size(), 8u) << set.label;
  }
}

TEST(Table3Sets, BenchmarksResolveInTheSuite) {
  for (const auto& set : table3_sets()) {
    const auto mix = set.mix();
    EXPECT_EQ(mix.num_cores(), 8u);
    for (const auto index : mix.workload_indices) {
      EXPECT_LT(index, trace::spec2000_suite().size());
    }
  }
}

TEST(Table3Sets, MatchesPaperListing) {
  const auto& sets = table3_sets();
  EXPECT_EQ(sets[0].label, "Set1");
  EXPECT_EQ(sets[0].benchmarks[0], "apsi");
  EXPECT_EQ(sets[0].benchmarks[6], "facerec");
  EXPECT_EQ(sets[0].paper_ways[6], 56u);
  EXPECT_EQ(sets[1].benchmarks[6], "bzip2");
  EXPECT_EQ(sets[1].paper_ways[6], 48u);
  EXPECT_EQ(sets[6].benchmarks[7], "mcf");
  EXPECT_EQ(sets[6].paper_ways[7], 24u);
  EXPECT_EQ(sets[7].benchmarks[1], "eon");
  EXPECT_EQ(sets[7].paper_ways[1], 3u);
}

TEST(Table3Sets, MixLabelsAreReadable) {
  const auto label = trace::mix_label(table3_sets()[0].mix());
  EXPECT_NE(label.find("apsi"), std::string::npos);
  EXPECT_NE(label.find("facerec"), std::string::npos);
}

TEST(DetailedRunConfig, FromArgsPrefersFlags) {
  // The spec bench_fig8_miss_rate assembles: scale flags plus sweep flags.
  auto spec = DetailedRunConfig::cli_flags();
  for (auto& row : SweepOptions::cli_flags()) spec.push_back(std::move(row));
  common::ArgParser parser(std::move(spec));
  const char* argv[] = {"prog", "--warmup=111", "--instr=222", "--epoch=333",
                        "--seed=444", "--threads=2"};
  ASSERT_TRUE(parser.parse(6, argv));
  const auto config = DetailedRunConfig::from_args(parser);
  EXPECT_EQ(config.warmup_instructions, 111u);
  EXPECT_EQ(config.measure_instructions, 222u);
  EXPECT_EQ(config.epoch_cycles, 333u);
  EXPECT_EQ(config.seed, 444u);
  const auto options = SweepOptions::from_args(parser);
  EXPECT_EQ(options.num_threads, 2u);
  EXPECT_EQ(options.snapshot_bank, "");
}

// DetailedRunConfig holds only the scale knobs, so a binary that takes only
// its flags (bench_perf_throughput) must refuse the sweep flags and the
// speed dials (usage + exit 2) instead of silently ignoring them.
using DetailedRunConfigDeath = ::testing::Test;

TEST(DetailedRunConfigDeath, SweepAndSpeedDialFlagsAreUnknown) {
  for (const char* flag : {"--threads=2", "--snapshot-bank=.", "--no-snapshot-reuse",
                           "--pool=off", "--mmap=off"}) {
    common::ArgParser parser(DetailedRunConfig::cli_flags());
    const char* argv[] = {"prog", flag};
    EXPECT_EXIT(std::exit(obs::handle_cli(parser, 2, argv).value_or(0)),
                ::testing::ExitedWithCode(2), "unknown flag")
        << flag;
  }
}

// A sampled trial constructs its System, so the Monte-Carlo binaries have no
// pooling dial left: --pool is an unknown flag (usage + exit 2).
using MonteCarloConfigDeath = ::testing::Test;

TEST(MonteCarloConfigDeath, PoolFlagIsUnknown) {
  common::ArgParser parser(MonteCarloConfig::cli_flags());
  const char* argv[] = {"prog", "--pool=off"};
  EXPECT_EXIT(std::exit(obs::handle_cli(parser, 2, argv).value_or(0)),
              ::testing::ExitedWithCode(2), "unknown flag");
}

// A zero epoch is a usage error (exit 2) that names the flag, not an abort
// in SystemConfig::validate once the sweep has started.
TEST(DetailedRunConfigDeath, ZeroEpochExits2) {
  common::ArgParser parser(DetailedRunConfig::cli_flags());
  const char* argv[] = {"prog", "--epoch=0"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_EXIT((void)DetailedRunConfig::from_args(parser), ::testing::ExitedWithCode(2),
              "--epoch=0: must be at least 1");
}

// A zero measurement window would run one access per core and report every
// ratio as 1, so --instr=0 is a usage error too. --warmup=0 stays legal: it
// asks for a cold start.
TEST(DetailedRunConfigDeath, ZeroInstrExits2) {
  common::ArgParser cold(DetailedRunConfig::cli_flags());
  const char* cold_argv[] = {"prog", "--warmup=0"};
  ASSERT_TRUE(cold.parse(2, cold_argv));
  EXPECT_EQ(DetailedRunConfig::from_args(cold).warmup_instructions, 0u);

  common::ArgParser parser(DetailedRunConfig::cli_flags());
  const char* argv[] = {"prog", "--instr=0"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_EXIT((void)DetailedRunConfig::from_args(parser), ::testing::ExitedWithCode(2),
              "--instr=0: must be at least 1");
}

TEST(SetComparison, RatiosComputeAgainstNoPartition) {
  // Two cores per policy: the totals sum their misses, the mean CPI
  // averages their CPIs.
  const auto two_cores = [](std::uint64_t misses, double cpi) {
    sim::CoreResult low;
    low.l2_misses = misses / 4;
    low.cpi = cpi - 0.5;
    sim::CoreResult high;
    high.l2_misses = misses - misses / 4;
    high.cpi = cpi + 0.5;
    sim::SystemResults results;
    results.cores = {low, high};
    return results;
  };
  SetComparison comparison;
  comparison.none = two_cores(1000, 2.0);
  comparison.equal = two_cores(400, 1.5);
  comparison.bank_aware = two_cores(300, 1.2);
  EXPECT_DOUBLE_EQ(comparison.equal_relative_misses(), 0.4);
  EXPECT_DOUBLE_EQ(comparison.bank_relative_misses(), 0.3);
  EXPECT_DOUBLE_EQ(comparison.equal_relative_cpi(), 0.75);
  EXPECT_DOUBLE_EQ(comparison.bank_relative_cpi(), 0.6);
}

TEST(SetComparison, EndToEndSmokeRun) {
  // A miniature full-pipeline run: all three policies on Set2 at toy scale.
  DetailedRunConfig config;
  config.warmup_instructions = 400'000;
  config.measure_instructions = 600'000;
  config.epoch_cycles = 600'000;
  const auto sweep =
      run_detailed_sweep(std::span(table3_sets().data() + 1, 1), config, SweepOptions{});
  ASSERT_EQ(sweep.size(), 1u);
  const SetComparison& comparison = sweep[0];
  EXPECT_EQ(comparison.label, "Set2");
  EXPECT_GT(comparison.none.l2_misses(), 0u);
  EXPECT_GT(comparison.equal.l2_misses(), 0u);
  EXPECT_GT(comparison.bank_aware.l2_misses(), 0u);
  EXPECT_GT(comparison.equal_relative_misses(), 0.1);
  EXPECT_LT(comparison.equal_relative_misses(), 3.0);
  EXPECT_GT(comparison.none.mean_cpi(), 0.0);
}

void expect_same_results(const sim::SystemResults& a, const sim::SystemResults& b) {
  EXPECT_EQ(a.l2_accesses(), b.l2_accesses());
  EXPECT_EQ(a.l2_misses(), b.l2_misses());
  EXPECT_EQ(a.promotions(), b.promotions());
  EXPECT_EQ(a.demotions(), b.demotions());
  EXPECT_EQ(a.dram_reads(), b.dram_reads());
  EXPECT_EQ(a.dram.writebacks, b.dram.writebacks);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.mean_cpi(), b.mean_cpi());  // bitwise: same runs, same doubles
}

TEST(SetComparison, ResultsIndependentOfWorkerCount) {
  // Every policy run is an isolated System seeded identically, so one set's
  // comparison must be bit-identical for any thread count.
  DetailedRunConfig config;
  config.warmup_instructions = 200'000;
  config.measure_instructions = 400'000;
  config.epoch_cycles = 400'000;
  const auto set = std::span(table3_sets().data() + 1, 1);
  SweepOptions serial_options;
  serial_options.num_threads = 1;
  SweepOptions parallel_options;
  parallel_options.num_threads = 3;
  const auto serial = run_detailed_sweep(set, config, serial_options);
  const auto parallel = run_detailed_sweep(set, config, parallel_options);
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(parallel.size(), 1u);
  expect_same_results(serial[0].none, parallel[0].none);
  expect_same_results(serial[0].equal, parallel[0].equal);
  expect_same_results(serial[0].bank_aware, parallel[0].bank_aware);
}

// What one (set, policy) point of a detailed sweep must reproduce: a plain
// System warmed and run in place.
std::string direct_run(const ExperimentSet& set, sim::PolicyKind policy,
                       const DetailedRunConfig& config) {
  sim::SystemConfig system_config = sim::SystemConfig::baseline();
  system_config.policy = policy;
  system_config.epoch_cycles = config.epoch_cycles;
  system_config.seed = config.seed;
  system_config.finalize();
  sim::System system(system_config, set.mix());
  system.warm_up(config.warmup_instructions);
  system.run(config.measure_instructions);
  return system.results().to_json().dump();
}

TEST(DetailedSweep, FlattenedSweepMatchesPerSetRuns) {
  // Every run is an isolated System seeded identically, so the flattened
  // set x policy sweep must match direct runs for any worker count.
  DetailedRunConfig config;
  config.warmup_instructions = 200'000;
  config.measure_instructions = 400'000;
  config.epoch_cycles = 400'000;
  const auto sets = std::span(table3_sets().data(), 2);
  std::vector<std::array<std::string, 3>> reference;
  for (const auto& set : sets) {
    reference.push_back({direct_run(set, sim::PolicyKind::NoPartition, config),
                         direct_run(set, sim::PolicyKind::EqualPartition, config),
                         direct_run(set, sim::PolicyKind::BankAware, config)});
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(threads);
    SweepOptions options;
    options.num_threads = threads;
    const auto sweep = run_detailed_sweep(sets, config, options);
    ASSERT_EQ(sweep.size(), sets.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      EXPECT_EQ(sweep[i].label, sets[i].label);
      EXPECT_EQ(sweep[i].none.to_json().dump(), reference[i][0]);
      EXPECT_EQ(sweep[i].equal.to_json().dump(), reference[i][1]);
      EXPECT_EQ(sweep[i].bank_aware.to_json().dump(), reference[i][2]);
    }
  }
}

TEST(VariantSweep, ResultsIndependentOfBankAndThreads) {
  // Two variants that differ in a digest field (the aggregation scheme), so
  // each warms and banks its own snapshot.
  const auto mix = table3_sets()[1].mix();
  std::vector<SweepVariant> variants;
  for (const auto kind : {nuca::AggregationKind::Parallel, nuca::AggregationKind::Cascade}) {
    sim::SystemConfig config = sim::SystemConfig::baseline();
    config.policy = sim::PolicyKind::BankAware;
    config.aggregation = kind;
    config.epoch_cycles = 400'000;
    config.finalize();
    variants.push_back({nuca::to_string(kind), config, mix, 200'000});
  }
  const auto sweep = [&](const SweepOptions& options) {
    std::vector<std::string> results(variants.size());
    run_variant_sweep(variants, options, [&](sim::System& system, std::size_t index) {
      system.run(300'000);
      results[index] = system.results().to_json().dump();
    });
    return results;
  };
  SweepOptions options;
  options.num_threads = 1;
  const auto reference = sweep(options);

  const std::string bank = testing::TempDir() + "/bacp-variant-bank";
  std::filesystem::remove_all(bank);
  std::filesystem::create_directories(bank);
  options.num_threads = 3;
  options.snapshot_bank = bank;
  for (const char* pass : {"populate", "warm"}) {
    SCOPED_TRACE(pass);
    EXPECT_EQ(sweep(options), reference);
  }
  std::filesystem::remove_all(bank);
}

}  // namespace
}  // namespace bacp::harness
