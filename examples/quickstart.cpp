// Quickstart: the three core steps of the bacp library in ~60 lines.
//
//   1. profile a workload's L2 reference stream with the hardware-faithful
//      MSA stack-distance profiler (12-bit partial tags, 1-in-32 sampling);
//   2. project its miss-ratio curve via the LRU inclusion property;
//   3. hand a set of curves to the Bank-aware allocator and get back a
//      physically realizable DNUCA partitioning plan.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
// Add --json-out=plan.json to capture the result.

#include <iostream>

#include "msa/stack_profiler.hpp"
#include "obs/report.hpp"
#include "partition/bank_aware.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags({}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  // --- 1. Profile a synthetic bzip2 running stand-alone. ----------------
  const auto& bzip2 = trace::spec2000_by_name("bzip2");
  trace::SyntheticTraceGenerator generator(bzip2, trace::GeneratorConfig{}, 1);
  msa::StackProfiler profiler(msa::ProfilerConfig{});  // production config
  for (int i = 0; i < 1'000'000; ++i) profiler.observe(generator.next().block);

  obs::Report report("quickstart", "Quickstart: profile -> curve -> partition");

  // --- 2. Project the miss-ratio curve. ----------------------------------
  const auto curve = profiler.curve();
  auto& curve_table = report.table("bzip2_curve", {"ways", "miss ratio"});
  for (WayCount ways : {4u, 8u, 16u, 32u, 48u, 72u}) {
    curve_table.begin_row().cell(std::to_string(ways)).cell(curve.miss_ratio(ways));
  }

  // --- 3. Partition an 8-workload mix Bank-aware. ------------------------
  partition::CmpGeometry geometry;  // 8 cores, 16 x 1MB banks
  const char* mix[] = {"bzip2", "eon",      "mcf",  "gcc",
                       "art",   "sixtrack", "swim", "facerec"};
  std::vector<msa::MissRatioCurve> curves;
  for (const char* name : mix) {
    const auto& model = trace::spec2000_by_name(name);
    curves.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
  }
  const auto plan = partition::bank_aware_partition(geometry, curves);

  auto& allocation_table =
      report.table("allocation", {"core", "workload", "ways", "center banks"});
  for (CoreId core = 0; core < geometry.num_cores; ++core) {
    std::string banks;
    for (const BankId bank : plan.center_banks_of_core[core]) {
      banks += (banks.empty() ? "C" : "+C") + std::to_string(bank);
    }
    allocation_table.begin_row()
        .cell(std::to_string(core))
        .cell(mix[core])
        .cell(std::to_string(plan.allocation.ways_per_core[core]))
        .cell(banks.empty() ? "-" : banks);
  }
  report.metric("total_allocated_ways", static_cast<std::uint64_t>(plan.allocation.total()));

  for (const auto& pair : plan.pairs) {
    report.note("cores " + std::to_string(pair.first) + " & " +
                std::to_string(pair.second) + " share their Local banks (" +
                std::to_string(pair.first_ways) + "/" +
                std::to_string(pair.second_ways) + " ways)");
  }
  return report.emit(std::cout, options) ? 0 : 1;
}
