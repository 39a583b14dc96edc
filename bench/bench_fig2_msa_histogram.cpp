// Reproduces paper Fig. 2: the MSA LRU histogram of an application on an
// 8-way associative view — counters C1..C8 for the MRU..LRU stack
// positions plus C9 for misses — and demonstrates the inclusion-property
// projection the figure illustrates: misses at half size = misses + hits
// in positions 5..8.
//
// Flags: --accesses, --json-out.

#include <iostream>

#include "msa/stack_profiler.hpp"
#include "obs/report.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags(
      {{"accesses=", "profiled accesses"}}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  // A temporally-reusing workload, as in the figure's example; profile its
  // stream against an 8-way MSA stack with full tags and no sampling so
  // the histogram is exact.
  const auto& model = trace::spec2000_by_name("gzip");
  trace::GeneratorConfig generator_config;
  generator_config.num_sets = 256;
  generator_config.max_depth = 16;
  trace::SyntheticTraceGenerator generator(model, generator_config, 7);

  msa::ProfilerConfig profiler_config;
  profiler_config.num_sets = 256;
  profiler_config.set_sampling = 1;
  profiler_config.partial_tag_bits = 0;
  profiler_config.profiled_ways = 8;
  msa::StackProfiler profiler(profiler_config);

  const std::uint64_t accesses =
      parser.get_u64_or_fail("accesses", 400'000);
  for (std::uint64_t i = 0; i < accesses; ++i) profiler.observe(generator.next().block);

  obs::Report report("fig2_msa_histogram",
                     "Fig. 2: MSA LRU histogram (8-way view, workload '" +
                         model.name + "')");
  report.meta("workload", model.name);
  report.meta("accesses", std::to_string(accesses));

  const auto& histogram = profiler.histogram();
  auto& table = report.table("histogram", {"counter", "stack position", "count",
                                           "fraction"});
  for (std::size_t c = 0; c < histogram.num_bins(); ++c) {
    const bool miss_bin = c + 1 == histogram.num_bins();
    std::string position;
    if (miss_bin) {
      position = "miss (beyond LRU)";
    } else if (c == 0) {
      position = "MRU";
    } else if (c == 7) {
      position = "LRU";
    } else {
      position = std::to_string(c + 1);
    }
    table.begin_row()
        .cell("C" + std::to_string(c + 1))
        .cell(position)
        .cell(histogram.bin(c))
        .cell(static_cast<double>(histogram.bin(c)) /
                  static_cast<double>(histogram.total()),
              4);
  }

  const auto curve = msa::MissRatioCurve::from_histogram(histogram);
  report.metric("misses_at_8_ways", curve.miss_count(8));
  report.metric("misses_at_4_ways", curve.miss_count(4));
  report.note("inclusion-property projection: misses at size N/2 = "
              "misses(N) + hits in positions 5..8");
  return report.emit(std::cout, options) ? 0 : 1;
}
