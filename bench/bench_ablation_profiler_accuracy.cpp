// Ablation of the MSA profiler cost reductions (paper Section III-A):
// partial-tag width x set-sampling sweep against the full-tag, all-sets
// reference profiler. The paper's claim to verify: "12 bit partial tags
// combined with 1-in-32 set sampling produced error rates within 5% of the
// profiling accuracy obtained using a full tag implementation."
//
// Error metric: mean absolute relative error of the projected miss-ratio
// curve across allocation points 1..72, averaged over three workloads of
// different locality shapes.
//
// Flags: --accesses, --json-out.

#include <cmath>
#include <iostream>

#include "msa/stack_profiler.hpp"
#include "obs/report.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

namespace {

double curve_error(const bacp::msa::MissRatioCurve& reference,
                   const bacp::msa::MissRatioCurve& candidate, bacp::WayCount depth) {
  double total = 0.0;
  for (bacp::WayCount w = 1; w <= depth; ++w) {
    const double ref = reference.miss_ratio(w);
    const double got = candidate.miss_ratio(w);
    total += ref > 0.0 ? std::abs(got - ref) / ref : std::abs(got - ref);
  }
  return total / depth;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags(
      {{"accesses=", "profiled accesses per workload"}}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const std::uint64_t accesses =
      parser.get_u64_or_fail("accesses", 1'500'000);
  const char* workloads[] = {"sixtrack", "bzip2", "mcf"};
  const std::uint32_t tag_bits[] = {6, 8, 12, 16};
  const std::uint32_t samplings[] = {8, 32, 128};
  constexpr WayCount kDepth = 72;

  obs::Report report("ablation_profiler_accuracy",
                     "Ablation: profiler accuracy vs partial-tag width x set sampling");
  report.meta("accesses", std::to_string(accesses));
  auto& table = report.table(
      "accuracy", {"tag bits", "sampling", "mean |rel. error| of miss curve",
                   "within paper's 5%?"});

  for (const std::uint32_t bits : tag_bits) {
    for (const std::uint32_t sampling : samplings) {
      double error_sum = 0.0;
      for (const char* name : workloads) {
        const auto& model = trace::spec2000_by_name(name);
        trace::GeneratorConfig generator_config;
        trace::SyntheticTraceGenerator generator(model, generator_config, 3);

        msa::ProfilerConfig reference_config;
        reference_config.set_sampling = 1;
        reference_config.partial_tag_bits = 0;  // full tags
        reference_config.profiled_ways = kDepth;
        msa::StackProfiler reference(reference_config);

        msa::ProfilerConfig candidate_config;
        candidate_config.set_sampling = sampling;
        candidate_config.partial_tag_bits = bits;
        candidate_config.profiled_ways = kDepth;
        msa::StackProfiler candidate(candidate_config);

        for (std::uint64_t i = 0; i < accesses; ++i) {
          const auto block = generator.next().block;
          reference.observe(block);
          candidate.observe(block);
        }
        error_sum += curve_error(reference.curve(), candidate.curve(), kDepth);
      }
      const double mean_error = error_sum / std::size(workloads);
      table.begin_row()
          .cell(std::to_string(bits))
          .cell("1-in-" + std::to_string(sampling))
          .cell(mean_error, 4)
          .cell(mean_error <= 0.05 ? "yes" : "no");
      if (bits == 12 && sampling == 32) {
        report.metric("paper_config_mean_error", mean_error, 4);
      }
    }
  }
  report.note("paper's configuration is 12-bit tags, 1-in-32 sampling");
  return report.emit(std::cout, options) ? 0 : 1;
}
