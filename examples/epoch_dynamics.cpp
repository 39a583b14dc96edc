// Watches the dynamic side of the scheme: every epoch the controller reads
// the MSA profilers, reruns the Bank-aware allocator and reconfigures the
// banks. This example prints the per-epoch way allocations so you can see
// the partitioning converge from the equal-split bootstrap toward the
// steady-state assignment, and dumps the full obs::TimeSeries the
// simulator records (per-core ways and CPI, promotion/demotion deltas,
// DRAM and NoC traffic) for offline plotting via --json-out.
//
// Flags: --instr, --epoch, --json-out.

#include <iostream>

#include "harness/config_cli.hpp"
#include "obs/report.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags(
      {{"instr=", "instructions per core"}, harness::value_flag(harness::kEpochKnob)}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const auto mix = trace::mix_from_names(
      {"facerec", "eon", "mcf", "gcc", "bzip2", "sixtrack", "art", "gzip"});

  sim::SystemConfig config = sim::SystemConfig::baseline();
  config.policy = sim::PolicyKind::BankAware;
  config.epoch_cycles = harness::read_positive_u64(parser, harness::kEpochKnob, 2'000'000);
  config.finalize();

  sim::System system(config, mix);
  system.run(harness::read_positive_u64(parser, harness::kInstrKnob, 6'000'000));
  const auto results = system.results();

  obs::Report report("epoch_dynamics", "Epoch-by-epoch Bank-aware allocations");
  auto& table = report.table("allocations", {"epoch", "facerec", "eon", "mcf", "gcc",
                                             "bzip2", "sixtrack", "art", "gzip"});
  std::size_t epoch_index = 0;
  for (const auto& allocation : system.allocation_history()) {
    auto& row = table.begin_row().cell(std::to_string(epoch_index++));
    for (const WayCount ways : allocation.ways_per_core) {
      row.cell(std::to_string(ways));
    }
  }

  auto& final_table =
      report.table("final", {"core", "workload", "ways", "measured miss ratio"});
  for (CoreId core = 0; core < 8; ++core) {
    const auto& c = results.cores[core];
    final_table.begin_row()
        .cell(std::to_string(core))
        .cell(c.workload)
        .cell(std::to_string(c.allocated_ways))
        .cell(c.l2_miss_ratio());
  }

  report.metric("epochs", results.epochs);
  report.metric("offview_hits", results.nuca.offview_hits);
  // The per-epoch time series the simulator recorded at every repartition
  // boundary — the machine-readable twin of the allocations table above.
  report.attach("epoch_series", results.epoch_series.to_json());
  report.note("series 'core<N>.ways' mirrors the allocations table; "
              "'promotions'/'demotions' are per-epoch deltas");
  return report.emit(std::cout, options) ? 0 : 1;
}
