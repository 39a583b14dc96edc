// simulate — command-line driver for the full-system simulator. Runs any
// 8-workload mix under any policy without writing C++:
//
//   simulate --policy=bank-aware --instr=8000000
//            mcf art bzip2 gcc sixtrack swim facerec eon   (one mix)
//   simulate --set=Set7 --policy=none
//   simulate --set=Set2 --json-out=run.json
//   simulate --list
//
// Prints per-core results as a table and writes the full structured
// result — including the per-epoch time series — with --json-out.

#include <iostream>

#include "common/args.hpp"
#include "common/table.hpp"
#include "harness/config_cli.hpp"
#include "harness/experiments.hpp"
#include "obs/report.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"
#include "trace/spec2000.hpp"

namespace {

std::optional<bacp::sim::PolicyKind> parse_policy(const std::string& name) {
  using bacp::sim::PolicyKind;
  if (name == "none") return PolicyKind::NoPartition;
  if (name == "equal") return PolicyKind::EqualPartition;
  if (name == "bank-aware") return PolicyKind::BankAware;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags({
      {"policy=", "partitioning policy: none | equal | bank-aware (default)"},
      {"instr=", "measured instructions per core (default 8000000)"},
      {"warmup=", "warm-up instructions per core (default instr/2)"},
      harness::value_flag(harness::kEpochKnob),
      {"seed=", "simulation seed (default 42)"},
      {"set=", "run a paper Table III set (Set1..Set8) instead of a mix"},
      {"list", "list the available workload models and exit"},
  }));
  if (const auto exit_code =
          obs::handle_cli(parser, argc, argv, /*reads_positional=*/true)) {
    return *exit_code;
  }
  const auto options = obs::ReportOptions::from_args(parser);
  if (parser.has("list")) {
    common::Table table({"workload", "L2 APKI", "miss ratio @16 ways", "@72 ways"});
    for (const auto& model : trace::spec2000_suite()) {
      table.begin_row()
          .add_cell(model.name)
          .add_cell(model.l2_apki, 1)
          .add_cell(model.miss_ratio(16), 3)
          .add_cell(model.miss_ratio(72), 3);
    }
    table.print(std::cout);
    return 0;
  }

  const auto policy = parse_policy(parser.get("policy", "bank-aware"));
  if (!policy) {
    std::cerr << "unknown policy; use none | equal | bank-aware\n";
    return 2;
  }

  trace::WorkloadMix mix;
  std::string label;
  if (parser.has("set")) {
    const auto set_name = parser.get("set", "");
    bool found = false;
    for (const auto& set : harness::table3_sets()) {
      if (set.label == set_name) {
        mix = set.mix();
        label = set.label;
        found = true;
      }
    }
    if (!found) {
      std::cerr << "unknown set " << set_name << " (use Set1..Set8)\n";
      return 2;
    }
  } else {
    if (parser.positional().size() != 8) {
      std::cerr << "need exactly 8 workload names (or --set=SetN); see --list\n";
      return 2;
    }
    for (const auto& name : parser.positional()) {
      bool known = false;
      for (const auto& model : trace::spec2000_suite()) {
        if (model.name == name) known = true;
      }
      if (!known) {
        std::cerr << "unknown workload '" << name << "'; see --list\n";
        return 2;
      }
    }
    mix = trace::mix_from_names(parser.positional());
    label = trace::mix_label(mix);
  }

  const std::uint64_t instructions =
      harness::read_positive_u64(parser, harness::kInstrKnob, 8'000'000);
  const std::uint64_t warmup = parser.get_u64_or_fail("warmup", instructions / 2);

  sim::SystemConfig config = sim::SystemConfig::baseline();
  config.policy = *policy;
  config.epoch_cycles = harness::read_positive_u64(parser, harness::kEpochKnob, config.epoch_cycles);
  config.seed = parser.get_u64_or_fail("seed", config.seed);
  config.finalize();

  sim::System system(config, mix);
  system.warm_up(warmup);
  system.run(instructions);
  const auto results = system.results();

  obs::Report report("simulate", "mix: " + label + "   policy: " +
                                     std::string(to_string(*policy)) +
                                     "   instructions/core: " +
                                     std::to_string(instructions));
  report.meta("mix", label);
  report.meta("policy", to_string(*policy));
  report.meta("instructions", std::to_string(instructions));
  auto& table = report.table("per_core", {"core", "workload", "ways", "L2 accesses",
                                          "L2 misses", "miss ratio", "CPI"});
  for (CoreId core = 0; core < config.geometry.num_cores; ++core) {
    const auto& c = results.cores[core];
    table.begin_row()
        .cell(std::to_string(core))
        .cell(c.workload)
        .cell(std::to_string(c.allocated_ways))
        .cell(c.l2_accesses())
        .cell(c.l2_misses)
        .cell(c.l2_miss_ratio())
        .cell(c.cpi);
  }
  report.metric("l2_miss_ratio", results.l2_miss_ratio());
  report.metric("mean_cpi", results.mean_cpi());
  report.metric("epochs", results.epochs);
  // The full structured result (all component counters + epoch series).
  report.attach("system_results", results.to_json());
  return report.emit(std::cout, options) ? 0 : 1;
}
