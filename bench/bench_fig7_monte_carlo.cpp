// Reproduces paper Fig. 7: relative miss ratio (vs. the static even share)
// of the Unrestricted and Bank-aware partitioning algorithms over random
// 8-workload mixes, sorted by the Unrestricted reduction; plus the headline
// averages (paper: Unrestricted ~30% reduction, Bank-aware ~27%).
//
// Flags: --trials, --seed, --threads, --sampled, --sampled-intervals,
// --sampled-interval-instr, --sampled-warmup, --snapshot-bank, --pool,
// --mmap, --json-out.

#include <iostream>

#include "harness/monte_carlo.hpp"
#include "obs/report.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags(harness::MonteCarloConfig::cli_flags()));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const auto config = harness::MonteCarloConfig::from_args(parser);
  const auto summary = harness::run_monte_carlo(config);
  const auto report = harness::monte_carlo_report(config, summary);
  return report.emit(std::cout, options) ? 0 : 1;
}
