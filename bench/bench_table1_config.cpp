// Reproduces paper Table I: the baseline DNUCA-CMP parameters, as actually
// instantiated by SystemConfig::baseline(). Anything printed here is read
// back from the live configuration objects, so the table cannot drift from
// the simulator.
//
// Flags: --json-out.

#include <iostream>

#include "obs/report.hpp"
#include "sim/system_config.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags({}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const auto config = sim::SystemConfig::baseline();

  obs::Report report("table1_config", "Table I: baseline DNUCA-CMP parameters");
  auto& table = report.table("parameters", {"parameter", "paper (Table I)",
                                            "this model"});
  auto row = [&](const char* name, const char* paper, const std::string& ours) {
    table.begin_row().cell(name).cell(paper).cell(ours);
  };

  row("L1 cache", "64 KB, 2-way, 3 cycles, 64 B blocks",
      std::to_string(config.l1_sets * config.l1_ways * 64 / 1024) + " KB, " +
          std::to_string(config.l1_ways) + "-way, " +
          std::to_string(config.l1_latency) + " cycles, 64 B blocks");
  row("L2 cache", "16 MB (16 x 1 MB banks), 8-way, 10-70 cycles",
      std::to_string(config.geometry.num_banks) + " x " +
          std::to_string(config.sets_per_bank * config.geometry.ways_per_bank * 64 /
                         (1024 * 1024)) +
          " MB banks, " + std::to_string(config.geometry.ways_per_bank) + "-way, " +
          std::to_string(config.noc.cycles_per_hop) + "-" +
          std::to_string(config.noc.cycles_per_hop * config.noc.max_hops) +
          " cycles bank access");
  row("128-way equivalent", "16 banks x 8 ways",
      std::to_string(config.geometry.total_ways()) + " ways x " +
          std::to_string(config.sets_per_bank) + " sets");
  row("Memory latency", "260 cycles", std::to_string(config.dram.access_latency) + " cycles");
  row("Memory bandwidth", "64 GB/s",
      "1 line / " + std::to_string(config.dram.cycles_per_line) + " cycles (= 64 GB/s @ 4 GHz)");
  row("Outstanding requests", "16 / core",
      std::to_string(config.mshr.entries_per_core) + " / core");
  row("Cores", "8 x 4-wide OoO, 128-entry ROB",
      std::to_string(config.geometry.num_cores) + " x MLP-windowed OoO timing model");
  row("Repartition epoch", "100M cycles",
      std::to_string(config.epoch_cycles) + " cycles (scaled; override epoch_cycles)");
  row("Max assignable capacity", "9/16 of cache",
      std::to_string(config.geometry.max_assignable_ways()) + " of " +
          std::to_string(config.geometry.total_ways()) + " ways");

  report.metric("total_ways", std::uint64_t{config.geometry.total_ways()});
  report.metric("max_assignable_ways",
                std::uint64_t{config.geometry.max_assignable_ways()});
  return report.emit(std::cout, options) ? 0 : 1;
}
