// Reproduces paper Table III: the Bank-aware way assignments for the eight
// detailed-simulation workload sets. The paper's own printed assignments
// are shown side by side. Exact way counts depend on the authors' measured
// MSA profiles (and two of the paper's rows do not even sum to 128), so
// the comparison to make is structural: who gets the big partitions, who
// gets squeezed, and that every row sums to the full 128 ways.
//
// Flags: --json-out.

#include <iostream>
#include <sstream>

#include "harness/experiments.hpp"
#include "harness/monte_carlo.hpp"
#include "msa/miss_curve.hpp"
#include "obs/report.hpp"
#include "partition/bank_aware.hpp"
#include "trace/spec2000.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags({}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  partition::CmpGeometry geometry;

  obs::Report report("table3_assignments",
                     "Table III: Bank-aware cache-way assignments (core0..core7)");
  auto& table = report.table(
      "assignments", {"set", "core", "benchmark", "paper ways", "our ways", "banks"});

  std::uint64_t rows_at_full_capacity = 0;
  for (const auto& set : harness::table3_sets()) {
    const auto mix = set.mix();
    const auto& suite = trace::spec2000_suite();
    std::vector<msa::MissRatioCurve> curves;
    for (const std::size_t index : mix.workload_indices) {
      const auto& model = suite.at(index);
      curves.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
    }
    const auto result = partition::bank_aware_partition(geometry, curves);

    WayCount assigned_total = 0;
    for (CoreId core = 0; core < geometry.num_cores; ++core) {
      std::ostringstream banks;
      banks << "local";
      for (const BankId bank : result.center_banks_of_core[core]) banks << "+C" << bank;
      for (const auto& pair : result.pairs) {
        if (pair.first == core || pair.second == core) {
          banks << " (paired " << pair.first << "&" << pair.second << ")";
        }
      }
      assigned_total += result.allocation.ways_per_core[core];
      table.begin_row()
          .cell(core == 0 ? set.label : "")
          .cell(std::to_string(core))
          .cell(set.benchmarks[core])
          .cell(std::uint64_t{set.paper_ways[core]})
          .cell(std::uint64_t{result.allocation.ways_per_core[core]})
          .cell(banks.str());
    }
    if (assigned_total == geometry.total_ways()) ++rows_at_full_capacity;
  }
  report.metric("sets_summing_to_full_capacity", rows_at_full_capacity);
  report.metric("sets_total", std::uint64_t{harness::table3_sets().size()});
  return report.emit(std::cout, options) ? 0 : 1;
}
