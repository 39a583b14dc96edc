// Reproduces paper Fig. 8: relative L2 miss rate of Equal-partitions and
// Bank-aware over No-partitions for the eight Table III workload sets plus
// the geometric mean. Paper headline: Bank-aware removes ~70% of misses
// vs. No-partitions (GM ~= 0.30) and ~25% vs. Equal-partitions.
//
// Flags: --warmup, --instr, --epoch, --seed, --threads, --snapshot-bank,
// --sets, --json-out, --csv-out
// (legacy env knobs BACP_SIM_{WARMUP,INSTR,EPOCH,SEED,SETS} still work).

#include <algorithm>
#include <iostream>
#include <span>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "harness/experiments.hpp"
#include "obs/report.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  auto spec = harness::DetailedRunConfig::cli_flags();
  for (auto& row : harness::SweepOptions::cli_flags()) spec.push_back(std::move(row));
  spec.push_back({"sets=", "first N Table III sets only (env BACP_SIM_SETS)"});
  common::ArgParser parser(obs::with_report_flags(std::move(spec)));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const auto config = harness::DetailedRunConfig::from_args(parser);
  const auto sweep_options = harness::SweepOptions::from_args(parser);
  const std::size_t num_sets = static_cast<std::size_t>(parser.get_u64_or_fail(
      "sets", common::env_u64("BACP_SIM_SETS", harness::table3_sets().size())));

  obs::Report report("fig8_miss_rate", "Fig. 8: relative miss rate over No-partitions");
  auto& table = report.table(
      "relative_misses", {"set", "No-partitions", "Equal-partitions", "Bank-aware"});
  std::vector<double> equal_ratios;
  std::vector<double> bank_ratios;

  const auto& sets = harness::table3_sets();
  const auto sweep = harness::run_detailed_sweep(
      std::span(sets.data(), std::min(num_sets, sets.size())), config, sweep_options);
  for (const auto& comparison : sweep) {
    equal_ratios.push_back(comparison.equal_relative_misses());
    bank_ratios.push_back(comparison.bank_relative_misses());
    table.begin_row()
        .cell(comparison.label)
        .cell(1.0)
        .cell(comparison.equal_relative_misses())
        .cell(comparison.bank_relative_misses());
  }
  const double equal_gm = common::geometric_mean(equal_ratios);
  const double bank_gm = common::geometric_mean(bank_ratios);
  table.begin_row().cell("GM").cell(1.0).cell(equal_gm).cell(bank_gm);

  report.metric("equal_gm", equal_gm);
  report.metric("bank_aware_gm", bank_gm);
  report.metric("bank_vs_equal", bank_gm / equal_gm);
  report.note("paper GM: Bank-aware ~0.30 (70% reduction vs No-partitions; "
              "~25% vs Equal-partitions)");
  return report.emit(std::cout, options) ? 0 : 1;
}
