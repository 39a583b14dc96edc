// Ablation of the maximum-assignable-capacity restriction (paper Section
// III-A: each core limited to 9/16 of the cache to shrink the profiler,
// "the maximum assignable capacity can potentially restrict the
// effectiveness of our partitioning scheme"). We quantify that risk by
// running the Unrestricted allocator with different per-core caps over the
// Monte-Carlo mix distribution and compare against Bank-aware.
//
// Flags: --trials, --seed, --json-out.

#include <iostream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harness/config_cli.hpp"
#include "msa/miss_curve.hpp"
#include "obs/report.hpp"
#include "partition/bank_aware.hpp"
#include "partition/unrestricted.hpp"
#include "trace/mix.hpp"
#include "trace/spec2000.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags(
      {harness::value_flag(harness::kTrialsKnob), harness::value_flag(harness::kMcSeedKnob)}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const std::size_t trials =
      static_cast<std::size_t>(harness::read_positive_u64(parser, harness::kTrialsKnob, 400));
  const std::uint64_t seed = harness::read_u64(parser, harness::kMcSeedKnob, 2009);

  partition::CmpGeometry geometry;
  const auto& suite = trace::spec2000_suite();
  const WayCount caps[] = {128, 96, geometry.max_assignable_ways(), 48, 32, 16};

  std::vector<common::StreamingStats> cap_stats(std::size(caps));
  common::StreamingStats bank_stats;

  for (std::size_t trial = 0; trial < trials; ++trial) {
    common::Rng rng(seed, trial);
    const auto mix = trace::random_mix(rng, suite.size(), geometry.num_cores);
    std::vector<msa::MissRatioCurve> curves;
    for (const std::size_t index : mix.workload_indices) {
      const auto& model = suite.at(index);
      curves.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
    }
    const std::vector<WayCount> even(geometry.num_cores,
                                     geometry.total_ways() / geometry.num_cores);
    const double fixed = partition::projected_total_misses(curves, even);

    for (std::size_t c = 0; c < std::size(caps); ++c) {
      partition::UnrestrictedConfig config;
      config.max_ways_per_core = caps[c];
      const auto allocation = partition::unrestricted_partition(geometry, curves, config);
      cap_stats[c].add(
          partition::projected_total_misses(curves, allocation.ways_per_core) / fixed);
    }
    const auto bank = partition::bank_aware_partition(geometry, curves);
    bank_stats.add(
        partition::projected_total_misses(curves, bank.allocation.ways_per_core) /
        fixed);
  }

  obs::Report report("ablation_maxcap", "Ablation: per-core capacity cap (" +
                                            std::to_string(trials) + " mixes)");
  report.meta("trials", std::to_string(trials));
  report.meta("seed", std::to_string(seed));
  auto& table = report.table(
      "caps", {"allocator", "per-core cap (ways)", "mean miss ratio vs fixed-share"});
  for (std::size_t c = 0; c < std::size(caps); ++c) {
    table.begin_row()
        .cell("Unrestricted")
        .cell(std::to_string(caps[c]) +
              (caps[c] == geometry.max_assignable_ways() ? " (= 9/16, paper)" : ""))
        .cell(cap_stats[c].mean());
    if (caps[c] == geometry.max_assignable_ways()) {
      report.metric("paper_cap_mean_ratio", cap_stats[c].mean());
    } else if (caps[c] == 128) {
      report.metric("uncapped_mean_ratio", cap_stats[c].mean());
    }
  }
  table.begin_row()
      .cell("Bank-aware")
      .cell(std::to_string(geometry.max_assignable_ways()) + " (built-in)")
      .cell(bank_stats.mean());
  report.metric("bank_aware_mean_ratio", bank_stats.mean());
  report.note("paper: the 9/16 clamp should cost almost nothing relative to a "
              "fully unrestricted assignment; tight caps (<=2MB/core) forfeit "
              "most of the benefit");
  return report.emit(std::cout, options) ? 0 : 1;
}
