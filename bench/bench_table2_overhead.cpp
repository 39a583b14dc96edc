// Reproduces paper Table II: the hardware overhead of the proposed MSA
// profiler — 12-bit partial tags, 1-in-32 set sampling, 72-way (9/16
// capacity) stack — and the ~0.4-0.5% of-L2 total the paper reports.
//
// Flags: --json-out.

#include <iostream>

#include "msa/overhead_model.hpp"
#include "obs/report.hpp"
#include "sim/system_config.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags({}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const auto system = sim::SystemConfig::baseline();

  msa::OverheadConfig config;
  config.partial_tag_bits = system.profiler.partial_tag_bits;
  config.profiled_ways = system.profiler.profiled_ways;
  config.monitored_sets = system.profiler.num_sets / system.profiler.set_sampling;
  config.num_profilers = system.geometry.num_cores;
  const auto overhead = msa::compute_overhead(config);

  obs::Report report("table2_overhead", "Table II: overhead of the proposed MSA profiler");
  report.meta("partial_tag_bits", std::to_string(config.partial_tag_bits));
  report.meta("monitored_sets", std::to_string(config.monitored_sets));
  report.meta("profiled_ways", std::to_string(config.profiled_ways));

  auto& table = report.table(
      "overhead", {"structure", "overhead equation", "paper", "this model (kbits)"});
  table.begin_row()
      .cell("Partial tags")
      .cell("tag_width x ways x sets")
      .cell("54 kbits")
      .cell(static_cast<double>(overhead.partial_tag_bits_total) / 1024.0, 2);
  table.begin_row()
      .cell("LRU stack distance impl.")
      .cell("((ptr x ways) + head/tail) x sets")
      .cell("27 kbits")
      .cell(static_cast<double>(overhead.lru_stack_bits_total) / 1024.0, 2);
  table.begin_row()
      .cell("Hit counters")
      .cell("ways x counter_size")
      .cell("2.25 kbits")
      .cell(static_cast<double>(overhead.hit_counter_bits_total) / 1024.0, 2);

  const std::uint64_t l2_bytes = 16ull * 1024 * 1024;
  const double fraction =
      overhead.fraction_of_cache(l2_bytes, config.num_profilers);
  report.metric("per_profiler_kbits", overhead.per_profiler_kbits(), 2);
  report.metric("fraction_of_l2_percent", fraction * 100.0, 2);
  report.note("paper: all profilers together ~0.4% of the 16 MB L2");
  return report.emit(std::cout, options) ? 0 : 1;
}
