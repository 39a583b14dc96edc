// The paper's motivating scenario (Section I): many small servers
// consolidated onto one 8-core CMP by virtualization, with dissimilar
// workloads competing for the shared L2. This example runs one such
// consolidation — a web-ish front end, two databases, batch compression,
// scientific batch jobs and an idle-ish service — under all three
// partitioning policies of the paper's evaluation and prints the per-VM
// damage report.
//
// Flags: --instr, --json-out.

#include <iostream>

#include "harness/config_cli.hpp"
#include "obs/report.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags(
      {{"instr=", "instructions per core"}}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  // VM -> SPEC CPU2000 stand-in. The mix deliberately pairs latency-bound
  // services with streaming batch jobs: the unfair-interference case.
  const std::vector<std::pair<const char*, const char*>> vms = {
      {"web front end", "gzip"},    {"database A", "mcf"},
      {"database B", "twolf"},      {"batch compress", "bzip2"},
      {"hpc batch 1", "swim"},      {"hpc batch 2", "mgrid"},
      {"analytics", "art"},         {"idle service", "eon"},
  };
  std::vector<std::string> names;
  for (const auto& [vm, bench] : vms) names.emplace_back(bench);
  const auto mix = trace::mix_from_names(names);

  const std::uint64_t instructions =
      harness::read_positive_u64(parser, harness::kInstrKnob, 4'000'000);

  std::vector<sim::SystemResults> results;
  for (const auto policy :
       {sim::PolicyKind::NoPartition, sim::PolicyKind::EqualPartition,
        sim::PolicyKind::BankAware}) {
    sim::SystemConfig config = sim::SystemConfig::baseline();
    config.policy = policy;
    config.finalize();
    sim::System system(config, mix);
    system.warm_up(instructions / 2);
    system.run(instructions);
    results.push_back(system.results());
  }

  obs::Report report("consolidated_server",
                     "Consolidated-server study (8 VMs on one CMP)");
  report.meta("instructions", std::to_string(instructions));
  auto& table = report.table("per_vm", {"VM", "stand-in", "CPI none", "CPI equal",
                                        "CPI bank-aware", "ways (bank-aware)"});
  for (std::size_t vm = 0; vm < vms.size(); ++vm) {
    table.begin_row()
        .cell(vms[vm].first)
        .cell(vms[vm].second)
        .cell(results[0].cores[vm].cpi, 2)
        .cell(results[1].cores[vm].cpi, 2)
        .cell(results[2].cores[vm].cpi, 2)
        .cell(std::to_string(results[2].cores[vm].allocated_ways));
  }

  report.metric("none_l2_misses", results[0].l2_misses());
  report.metric("equal_l2_misses", results[1].l2_misses());
  report.metric("bank_aware_l2_misses", results[2].l2_misses());
  report.metric("none_mean_cpi", results[0].mean_cpi());
  report.metric("equal_mean_cpi", results[1].mean_cpi());
  report.metric("bank_aware_mean_cpi", results[2].mean_cpi());
  return report.emit(std::cout, options) ? 0 : 1;
}
