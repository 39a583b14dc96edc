#include "harness/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv1a.hpp"

namespace bacp::harness {
namespace {

MonteCarloConfig small(std::size_t trials = 60, std::size_t threads = 1) {
  MonteCarloConfig config;
  config.trials = trials;
  config.seed = 1234;
  config.num_threads = threads;
  return config;
}

TEST(MonteCarlo, ProducesRequestedTrialCount) {
  const auto summary = run_monte_carlo(small(25));
  EXPECT_EQ(summary.trials.size(), 25u);
}

TEST(MonteCarlo, DeterministicAcrossThreadCounts) {
  const auto one = run_monte_carlo(small(40, 1));
  const auto four = run_monte_carlo(small(40, 4));
  ASSERT_EQ(one.trials.size(), four.trials.size());
  for (std::size_t i = 0; i < one.trials.size(); ++i) {
    EXPECT_EQ(one.trials[i].mix.workload_indices, four.trials[i].mix.workload_indices);
    EXPECT_DOUBLE_EQ(one.trials[i].unrestricted_misses,
                     four.trials[i].unrestricted_misses);
    EXPECT_DOUBLE_EQ(one.trials[i].bank_aware_misses, four.trials[i].bank_aware_misses);
  }
  EXPECT_DOUBLE_EQ(one.mean_unrestricted_ratio, four.mean_unrestricted_ratio);
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// A trial is a function of (seed, global trial index) alone: the first 20
// trials of a 50-trial sweep on 4 threads are bit-for-bit the trials of a
// 20-trial sweep on 1 thread, whatever the sweep length or worker count.
TEST(MonteCarlo, TrialDependsOnlyOnSeedAndGlobalIndex) {
  const auto prefix = run_monte_carlo(small(20, 1));
  const auto longer = run_monte_carlo(small(50, 4));
  ASSERT_EQ(prefix.trials.size(), 20u);
  ASSERT_EQ(longer.trials.size(), 50u);
  for (std::size_t i = 0; i < prefix.trials.size(); ++i) {
    const auto& a = prefix.trials[i];
    const auto& b = longer.trials[i];
    EXPECT_EQ(a.mix.workload_indices, b.mix.workload_indices) << "trial " << i;
    EXPECT_EQ(bits(a.fixed_share_misses), bits(b.fixed_share_misses)) << "trial " << i;
    EXPECT_EQ(bits(a.unrestricted_misses), bits(b.unrestricted_misses)) << "trial " << i;
    EXPECT_EQ(bits(a.bank_aware_misses), bits(b.bank_aware_misses)) << "trial " << i;
  }
}

TEST(MonteCarlo, UnrestrictedNeverWorseThanFixedShare) {
  const auto summary = run_monte_carlo(small(80));
  for (const auto& trial : summary.trials) {
    EXPECT_LE(trial.unrestricted_ratio(), 1.0001);
  }
}

TEST(MonteCarlo, BankAwareNeverBeatsUnrestrictedByMuch) {
  // Unrestricted is the envelope: Bank-aware adds constraints, so it can
  // only match or lose (numerical ties aside).
  const auto summary = run_monte_carlo(small(80));
  for (const auto& trial : summary.trials) {
    EXPECT_GE(trial.bank_aware_misses, trial.unrestricted_misses * 0.999);
  }
}

TEST(MonteCarlo, MeansSitInThePaperNeighbourhood) {
  // Paper Fig. 7: Unrestricted ~0.70, Bank-aware ~0.73 of the fixed share.
  const auto summary = run_monte_carlo(small(300));
  EXPECT_GT(summary.mean_unrestricted_ratio, 0.55);
  EXPECT_LT(summary.mean_unrestricted_ratio, 0.85);
  EXPECT_GT(summary.mean_bank_aware_ratio, summary.mean_unrestricted_ratio - 0.01);
  EXPECT_LT(summary.mean_bank_aware_ratio, 0.90);
}

TEST(MonteCarlo, MixesDrawWithRepetition) {
  // With 26 workloads and 8 slots, some trial must repeat a workload
  // (probability of all-distinct every time is negligible).
  const auto summary = run_monte_carlo(small(50));
  bool repeated = false;
  for (const auto& trial : summary.trials) {
    auto sorted = trial.mix.workload_indices;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      repeated = true;
    }
  }
  EXPECT_TRUE(repeated);
}

TEST(MonteCarlo, ReportIsByteIdenticalAcrossThreadCounts) {
  // The acceptance contract of the observability layer: the JSON artifact
  // of a fixed-seed sweep must not depend on the worker count.
  const auto config_one = small(40, 1);
  const auto config_four = small(40, 4);
  const std::string one =
      monte_carlo_report(config_one, run_monte_carlo(config_one)).to_json().dump(2);
  const std::string four =
      monte_carlo_report(config_four, run_monte_carlo(config_four)).to_json().dump(2);
  EXPECT_EQ(one, four);
}

TEST(MonteCarlo, ReportCarriesHeadlineMetrics) {
  const auto config = small(30);
  const auto report = monte_carlo_report(config, run_monte_carlo(config));
  EXPECT_GT(report.metric_value("mean_bank_aware_ratio"), 0.0);
  EXPECT_GT(report.metric_value("mean_unrestricted_ratio"), 0.0);
  EXPECT_DOUBLE_EQ(report.metric_value("trials"), 30.0);
}

TEST(MonteCarlo, ReportJsonDigestIsPinned) {
  // Pins the analytic artifact's bytes, ratio_distributions included.
  const auto config = small(30);
  const std::string json = monte_carlo_report(config, run_monte_carlo(config)).to_json().dump();
  EXPECT_EQ(common::fnv1a(json), 0x51C33D74304107A1ull);
}

MonteCarloConfig small_sampled(std::size_t threads) {
  MonteCarloConfig config;
  config.trials = 3;
  config.seed = 4242;
  config.num_threads = threads;
  config.sampled_k = 2;
  config.sampled_intervals = 6;
  config.sampled_interval_instructions = 2'000;
  config.sampled_warmup = 4'000;
  return config;
}

TEST(MonteCarlo, SampledSweepFillsSampledColumns) {
  const auto summary = run_monte_carlo(small_sampled(2));
  ASSERT_EQ(summary.trials.size(), 3u);
  for (const auto& trial : summary.trials) {
    EXPECT_TRUE(trial.sampled.evaluated);
    EXPECT_GT(trial.sampled.miss_ratio, 0.0);
    EXPECT_LE(trial.sampled.miss_ratio, 1.0);
    EXPECT_GT(trial.sampled.cpi, 0.0);
  }
  EXPECT_GT(summary.mean_sampled_miss_ratio, 0.0);
  EXPECT_GT(summary.mean_sampled_cpi, 0.0);
}

TEST(MonteCarlo, AnalyticSweepLeavesSampledColumnsOff) {
  const auto summary = run_monte_carlo(small(10));
  for (const auto& trial : summary.trials) {
    EXPECT_FALSE(trial.sampled.evaluated);
  }
  EXPECT_DOUBLE_EQ(summary.mean_sampled_miss_ratio, 0.0);
  EXPECT_DOUBLE_EQ(summary.mean_sampled_cpi, 0.0);
}

TEST(MonteCarlo, SampledReportIsByteIdenticalAcrossThreadCounts) {
  // The sampled columns ride the same determinism contract as the analytic
  // ones: snapshot-store sharing across pool workers must never leak into
  // the artifact bytes.
  const auto config_one = small_sampled(1);
  const auto config_four = small_sampled(4);
  const std::string one =
      monte_carlo_report(config_one, run_monte_carlo(config_one)).to_json().dump(2);
  const std::string four =
      monte_carlo_report(config_four, run_monte_carlo(config_four)).to_json().dump(2);
  EXPECT_EQ(one, four);
}

// The sampled columns obey the same rule: the boundary snapshots and
// interval profiles a sweep shares between trials never leak one trial's
// estimate into another's.
TEST(MonteCarlo, SampledTrialDependsOnlyOnSeedAndGlobalIndex) {
  auto prefix_config = small_sampled(1);
  auto longer_config = small_sampled(4);
  prefix_config.trials = 3;
  longer_config.trials = 5;
  const auto prefix = run_monte_carlo(prefix_config);
  const auto longer = run_monte_carlo(longer_config);
  ASSERT_EQ(prefix.trials.size(), 3u);
  ASSERT_EQ(longer.trials.size(), 5u);
  for (std::size_t i = 0; i < prefix.trials.size(); ++i) {
    const auto& a = prefix.trials[i];
    const auto& b = longer.trials[i];
    EXPECT_EQ(a.mix.workload_indices, b.mix.workload_indices) << "trial " << i;
    EXPECT_EQ(bits(a.sampled.miss_ratio), bits(b.sampled.miss_ratio)) << "trial " << i;
    EXPECT_EQ(bits(a.sampled.cpi), bits(b.sampled.cpi)) << "trial " << i;
  }
}

TEST(MonteCarlo, SampledReportCarriesSampledMetrics) {
  const auto config = small_sampled(2);
  const auto report = monte_carlo_report(config, run_monte_carlo(config));
  EXPECT_GT(report.metric_value("mean_sampled_miss_ratio"), 0.0);
  EXPECT_GT(report.metric_value("mean_sampled_cpi"), 0.0);
  EXPECT_GT(report.metric_value("sampled_miss_ratio_p95"), 0.0);
  EXPECT_GE(report.metric_value("sampled_miss_ratio_p95"),
            report.metric_value("sampled_miss_ratio_p50"));
}

TEST(MonteCarloConfig, FromArgsPrefersFlags) {
  common::ArgParser parser(MonteCarloConfig::cli_flags());
  const char* argv[] = {"prog", "--trials=7", "--seed=99", "--threads=2"};
  ASSERT_TRUE(parser.parse(4, argv));
  const auto config = MonteCarloConfig::from_args(parser);
  EXPECT_EQ(config.trials, 7u);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.num_threads, 2u);
}

// A flag, or its built-in default, is the only source of a knob's value:
// the environment variables that once mirrored the flags change nothing.
TEST(MonteCarloConfig, FromArgsIgnoresEnvironment) {
  common::ArgParser parser(MonteCarloConfig::cli_flags());
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  ::setenv("BACP_MC_TRIALS", "7", 1);
  ::setenv("BACP_SNAPSHOT_BANK", "/nonexistent-bacp-bank-dir", 1);
  const auto config = MonteCarloConfig::from_args(parser);
  ::unsetenv("BACP_MC_TRIALS");
  ::unsetenv("BACP_SNAPSHOT_BANK");
  const MonteCarloConfig defaults;
  EXPECT_EQ(config.trials, defaults.trials);
  EXPECT_EQ(config.snapshot_bank, defaults.snapshot_bank);
}

TEST(MonteCarloConfig, FromArgsReadsSampledKnobs) {
  common::ArgParser parser(MonteCarloConfig::cli_flags());
  const char* argv[] = {"prog", "--sampled=3", "--sampled-intervals=16",
                        "--sampled-interval-instr=10000", "--sampled-warmup=20000"};
  ASSERT_TRUE(parser.parse(5, argv));
  const auto config = MonteCarloConfig::from_args(parser);
  EXPECT_EQ(config.sampled_k, 3u);
  EXPECT_EQ(config.sampled_intervals, 16u);
  EXPECT_EQ(config.sampled_interval_instructions, 10'000u);
  EXPECT_EQ(config.sampled_warmup, 20'000u);
}

// --snapshot-bank fails closed: a value that does not name an existing
// directory this process can write is a usage error (exit 2).
using SnapshotBankKnobDeath = ::testing::Test;

TEST(SnapshotBankKnobDeath, UnusableDirectoryFromFlagExits2) {
  const std::string file = testing::TempDir() + "/bacp-bank-not-a-directory";
  std::ofstream(file) << "x";
  for (const std::string& path : {std::string("/nonexistent-bacp-bank-dir"), file}) {
    common::ArgParser parser(MonteCarloConfig::cli_flags());
    const std::string flag = "--snapshot-bank=" + path;
    const char* argv[] = {"prog", flag.c_str()};
    ASSERT_TRUE(parser.parse(2, argv));
    EXPECT_EXIT((void)MonteCarloConfig::from_args(parser), ::testing::ExitedWithCode(2),
                "not a writable directory")
        << path;
  }
  std::filesystem::remove(file);
}

// Zero counts fail closed the same way: no trials, no intervals or empty
// intervals are usage errors (exit 2), not an assertion deep in the sweep.
// So are the 32-bit knobs above UINT32_MAX, which would otherwise wrap
// (2^32 intervals would become 0).
using MonteCarloCountKnobDeath = ::testing::Test;

constexpr const char* kZero = "=0: must be at least 1";
constexpr const char* kAboveU32 = "=4294967296: must be at most 4294967295";

TEST(MonteCarloCountKnobDeath, OutOfRangeFromFlagExits2) {
  const std::vector<std::pair<std::vector<std::string>, const char*>> cases = {
      {{"--trials=0"}, kZero},
      {{"--sampled=2", "--sampled-intervals=0"}, kZero},
      {{"--sampled=2", "--sampled-interval-instr=0"}, kZero},
      {{"--sampled=4294967296"}, kAboveU32},
      {{"--sampled=2", "--sampled-intervals=4294967296"}, kAboveU32},
  };
  for (const auto& [flags, message] : cases) {
    common::ArgParser parser(MonteCarloConfig::cli_flags());
    std::vector<const char*> argv{"prog"};
    for (const auto& flag : flags) argv.push_back(flag.c_str());
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EXIT((void)MonteCarloConfig::from_args(parser), ::testing::ExitedWithCode(2),
                message)
        << flags.back();
  }
}

TEST(SnapshotBankKnob, AcceptsWritableDirectory) {
  common::ArgParser parser(MonteCarloConfig::cli_flags());
  const std::string flag = "--snapshot-bank=" + testing::TempDir();
  const char* argv[] = {"prog", flag.c_str()};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_EQ(MonteCarloConfig::from_args(parser).snapshot_bank, testing::TempDir());
}

TEST(MonteCarlo, DifferentSeedsGiveDifferentMixes) {
  auto config_a = small(10);
  auto config_b = small(10);
  config_b.seed = 999;
  const auto a = run_monte_carlo(config_a);
  const auto b = run_monte_carlo(config_b);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    if (a.trials[i].mix.workload_indices != b.trials[i].mix.workload_indices) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace bacp::harness
