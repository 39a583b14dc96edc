#include "harness/experiments.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

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

TEST(DetailedRunConfig, FluentSettersChain) {
  const auto config = DetailedRunConfig{}
                          .with_warmup_instructions(123)
                          .with_measure_instructions(456)
                          .with_epoch_cycles(789)
                          .with_seed(7)
                          .with_num_threads(3);
  EXPECT_EQ(config.warmup_instructions, 123u);
  EXPECT_EQ(config.measure_instructions, 456u);
  EXPECT_EQ(config.epoch_cycles, 789u);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.num_threads, 3u);
}

TEST(DetailedRunConfig, FromArgsPrefersFlags) {
  common::ArgParser parser(DetailedRunConfig::cli_flags());
  const char* argv[] = {"prog", "--warmup=111", "--instr=222", "--epoch=333",
                        "--seed=444", "--threads=2"};
  ASSERT_TRUE(parser.parse(6, argv));
  const auto config = DetailedRunConfig::from_args(parser);
  EXPECT_EQ(config.warmup_instructions, 111u);
  EXPECT_EQ(config.measure_instructions, 222u);
  EXPECT_EQ(config.epoch_cycles, 333u);
  EXPECT_EQ(config.seed, 444u);
  EXPECT_EQ(config.num_threads, 2u);
}

// Detailed runs construct one System per policy and read the snapshot bank
// through the default path, so a detailed-run binary must refuse --pool and
// --mmap (usage + exit 2) instead of silently ignoring them.
using DetailedRunConfigDeath = ::testing::Test;

TEST(DetailedRunConfigDeath, PoolAndMmapFlagsAreUnknown) {
  for (const char* flag : {"--pool=off", "--mmap=off"}) {
    common::ArgParser parser(DetailedRunConfig::cli_flags());
    const char* argv[] = {"prog", flag};
    EXPECT_EXIT(std::exit(obs::handle_cli(parser, 2, argv).value_or(0)),
                ::testing::ExitedWithCode(2), "unknown flag")
        << flag;
  }
}

TEST(SetComparison, RatiosComputeAgainstNoPartition) {
  SetComparison comparison;
  comparison.none.set_l2_misses(1000).set_mean_cpi(2.0);
  comparison.equal.set_l2_misses(400).set_mean_cpi(1.5);
  comparison.bank_aware.set_l2_misses(300).set_mean_cpi(1.2);
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
  const auto comparison =
      run_set_comparison("smoke", table3_sets()[1].mix(), config);
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
  EXPECT_EQ(a.dram_writebacks(), b.dram_writebacks());
  EXPECT_EQ(a.epochs(), b.epochs());
  EXPECT_EQ(a.mean_cpi(), b.mean_cpi());  // bitwise: same runs, same doubles
}

TEST(SetComparison, ResultsIndependentOfWorkerCount) {
  // Every policy run is an isolated System seeded identically, so the
  // sweep must produce bit-identical results for any thread count.
  DetailedRunConfig config;
  config.warmup_instructions = 200'000;
  config.measure_instructions = 400'000;
  config.epoch_cycles = 400'000;
  const auto mix = table3_sets()[1].mix();
  const auto serial = run_set_comparison("smoke", mix, config.with_num_threads(1));
  const auto parallel = run_set_comparison("smoke", mix, config.with_num_threads(3));
  expect_same_results(serial.none, parallel.none);
  expect_same_results(serial.equal, parallel.equal);
  expect_same_results(serial.bank_aware, parallel.bank_aware);
}

TEST(DetailedSweep, FlattenedSweepMatchesPerSetRuns) {
  DetailedRunConfig config;
  config.warmup_instructions = 200'000;
  config.measure_instructions = 400'000;
  config.epoch_cycles = 400'000;
  config.num_threads = 2;
  const auto& sets = table3_sets();
  const auto sweep = run_detailed_sweep(std::span(sets.data(), 2), config);
  ASSERT_EQ(sweep.size(), 2u);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].label, sets[i].label);
    const auto solo = run_set_comparison(sets[i].label, sets[i].mix(), config);
    expect_same_results(solo.none, sweep[i].none);
    expect_same_results(solo.equal, sweep[i].equal);
    expect_same_results(solo.bank_aware, sweep[i].bank_aware);
  }
}

}  // namespace
}  // namespace bacp::harness
