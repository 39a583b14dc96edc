// The paper motivates Bank-aware partitioning as a scheme that "can scale
// with the number of cores". This example exercises exactly that: the same
// Monte-Carlo comparison (Fig. 7 methodology) on growing CMP geometries —
// 4 cores / 8 banks up to 16 cores / 32 banks — each keeping the paper's
// 2-banks-per-core shape. The banking rules and the allocator are geometry-
// generic, so nothing else changes.
//
// Flags: --trials, --json-out.

#include <iostream>

#include "harness/config_cli.hpp"
#include "harness/monte_carlo.hpp"
#include "obs/report.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags({harness::value_flag(harness::kTrialsKnob)}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  struct Shape {
    std::uint32_t cores;
    std::uint32_t banks;
  };
  const Shape shapes[] = {{4, 8}, {8, 16}, {12, 24}, {16, 32}};
  const std::size_t trials =
      static_cast<std::size_t>(harness::read_positive_u64(parser, harness::kTrialsKnob, 200));

  obs::Report report("scaling_study",
                     "Bank-aware scalability across CMP geometries");
  report.meta("trials", std::to_string(trials));
  auto& table =
      report.table("geometries", {"cores", "banks", "total ways",
                                  "mean Unrestricted/fixed", "mean Bank-aware/fixed"});
  for (const auto& shape : shapes) {
    partition::CmpGeometry geometry;
    geometry.num_cores = shape.cores;
    geometry.num_banks = shape.banks;
    harness::MonteCarloConfig config;
    config.geometry = geometry;
    config.trials = trials;
    config.seed = 7;
    const auto summary = harness::run_monte_carlo(config);
    table.begin_row()
        .cell(std::to_string(shape.cores))
        .cell(std::to_string(shape.banks))
        .cell(std::to_string(geometry.total_ways()))
        .cell(summary.mean_unrestricted_ratio)
        .cell(summary.mean_bank_aware_ratio);
    if (shape.cores == 16) {
      report.metric("largest_geometry_bank_aware_ratio",
                    summary.mean_bank_aware_ratio);
    }
  }
  report.note("the Bank-aware/Unrestricted gap should stay small at every "
              "scale: the banking restrictions cost a few points regardless "
              "of core count (paper Section IV-A)");
  return report.emit(std::cout, options) ? 0 : 1;
}
