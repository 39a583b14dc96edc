// Reproduces paper Figs. 8 and 9 from one detailed sweep: relative L2 miss
// rate (Fig. 8) and relative CPI (Fig. 9) of Equal-partitions and
// Bank-aware over No-partitions for the eight Table III workload sets plus
// the geometric mean. Paper headlines: Bank-aware removes ~70% of misses
// vs. No-partitions (GM ~= 0.30) and ~25% vs. Equal-partitions; it reduces
// CPI ~43% vs. No-partitions (GM ~0.57) and ~11% vs. Equal-partitions.
// Note the paper's Fig. 8-vs-9 observation: CPI gains are smaller than miss
// gains, and low-MPKI sets (Set 1) show large miss reductions with little
// CPI change.
//
// Flags: --warmup, --instr, --epoch, --seed, --threads, --snapshot-bank,
// --sets, --json-out.

#include <algorithm>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "harness/config_cli.hpp"
#include "harness/experiments.hpp"
#include "obs/report.hpp"

namespace {

constexpr bacp::harness::Knob kSetsKnob{"sets", "first N Table III sets only"};

/// One figure's table: a row of ratios over No-partitions per set, then the
/// geometric-mean row; its three GM metrics carry `prefix`.
void add_relative_table(bacp::obs::Report& report, const char* table_name,
                        const std::string& prefix,
                        std::span<const bacp::harness::SetComparison> sweep,
                        double (bacp::harness::SetComparison::*equal_ratio)() const,
                        double (bacp::harness::SetComparison::*bank_ratio)() const) {
  auto& table = report.table(
      table_name, {"set", "No-partitions", "Equal-partitions", "Bank-aware"});
  std::vector<double> equal_ratios;
  std::vector<double> bank_ratios;
  for (const auto& comparison : sweep) {
    equal_ratios.push_back((comparison.*equal_ratio)());
    bank_ratios.push_back((comparison.*bank_ratio)());
    table.begin_row()
        .cell(comparison.label)
        .cell(1.0)
        .cell(equal_ratios.back())
        .cell(bank_ratios.back());
  }
  const double equal_gm = bacp::common::geometric_mean(equal_ratios);
  const double bank_gm = bacp::common::geometric_mean(bank_ratios);
  table.begin_row().cell("GM").cell(1.0).cell(equal_gm).cell(bank_gm);

  report.metric(prefix + "equal_gm", equal_gm);
  report.metric(prefix + "bank_aware_gm", bank_gm);
  report.metric(prefix + "bank_vs_equal", bank_gm / equal_gm);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bacp;

  auto spec = harness::DetailedRunConfig::cli_flags();
  for (auto& row : harness::SweepOptions::cli_flags()) spec.push_back(std::move(row));
  spec.push_back(harness::value_flag(kSetsKnob));
  common::ArgParser parser(obs::with_report_flags(std::move(spec)));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const auto config = harness::DetailedRunConfig::from_args(parser);
  const auto sweep_options = harness::SweepOptions::from_args(parser);
  const auto& sets = harness::table3_sets();
  const std::size_t num_sets =
      static_cast<std::size_t>(harness::read_positive_u64(parser, kSetsKnob, sets.size()));

  const auto sweep = harness::run_detailed_sweep(
      std::span(sets.data(), std::min(num_sets, sets.size())), config, sweep_options);

  obs::Report report("fig8_miss_rate",
                     "Figs. 8 and 9: relative miss rate and CPI over No-partitions");
  add_relative_table(report, "relative_misses", "", sweep,
                     &harness::SetComparison::equal_relative_misses,
                     &harness::SetComparison::bank_relative_misses);
  add_relative_table(report, "relative_cpi", "cpi_", sweep,
                     &harness::SetComparison::equal_relative_cpi,
                     &harness::SetComparison::bank_relative_cpi);
  report.note("paper GM: Bank-aware ~0.30 (70% reduction vs No-partitions; "
              "~25% vs Equal-partitions)");
  report.note("paper GM: Bank-aware CPI ~0.57 (43% reduction vs No-partitions; "
              "~11% vs Equal-partitions)");
  return report.emit(std::cout, options) ? 0 : 1;
}
