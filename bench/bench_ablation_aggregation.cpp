// Ablation of the paper's Section III-B aggregation discussion (Fig. 4):
//   - Cascade offers the most faithful LRU stitching, but "the migration
//     rates observed in simulation are prohibitively high";
//   - Address Hash has the lowest lookup cost but requires symmetric banks;
//   - Parallel matches Address Hash's migration rate at the cost of wider
//     directory look-ups (the scheme the paper adopts);
//   - the Fig. 4c mitigation limits cascading to two levels.
// This bench runs the same Bank-aware workload set under all four schemes
// and reports migrations, look-up width, miss ratio and CPI. The four
// scheme variants run concurrently through harness::run_variant_sweep; rows
// are emitted in sweep order, so the artifact is byte-identical for any
// --threads value, and with or without a --snapshot-bank.
//
// Flags: --warmup, --instr, --seed, --threads, --snapshot-bank, --json-out.

#include <iostream>
#include <vector>

#include "harness/config_cli.hpp"
#include "harness/experiments.hpp"
#include "obs/report.hpp"
#include "sim/system.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  harness::FlagSpec spec = {harness::value_flag(harness::kWarmupKnob),
                            harness::value_flag(harness::kInstrKnob),
                            harness::value_flag(harness::kSimSeedKnob)};
  for (auto& row : harness::SweepOptions::cli_flags()) spec.push_back(std::move(row));
  common::ArgParser parser(obs::with_report_flags(std::move(spec)));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const std::uint64_t warmup = harness::read_u64(parser, harness::kWarmupKnob, 3'000'000);
  const std::uint64_t accesses =
      harness::read_positive_u64(parser, harness::kInstrKnob, 6'000'000);
  const std::uint64_t seed = harness::read_u64(parser, harness::kSimSeedKnob, 42);
  const auto sweep_options = harness::SweepOptions::from_args(parser);
  const auto mix = harness::table3_sets()[1].mix();  // Set2: capacity-diverse

  const nuca::AggregationKind kinds[] = {
      nuca::AggregationKind::Cascade,
      nuca::AggregationKind::AddressHash,
      nuca::AggregationKind::Parallel,
      nuca::AggregationKind::TwoLevelCascade,
  };
  std::vector<harness::SweepVariant> variants;
  for (const auto kind : kinds) {
    sim::SystemConfig config = sim::SystemConfig::baseline();
    config.policy = sim::PolicyKind::BankAware;
    config.aggregation = kind;
    config.seed = seed;
    config.finalize();
    variants.push_back({nuca::to_string(kind), config, mix, warmup});
  }

  std::vector<sim::SystemResults> results(variants.size());
  harness::run_variant_sweep(variants, sweep_options,
                             [&](sim::System& system, std::size_t index) {
                               system.run(accesses);
                               results[index] = system.results();
                             });

  obs::Report report("ablation_aggregation",
                     "Ablation: bank aggregation schemes (Fig. 4), workload Set2");
  auto& table = report.table(
      "schemes", {"scheme", "migrations / 1k accesses", "dir look-ups / access",
                  "L2 miss ratio", "mean CPI"});

  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& run = results[i];
    const double per_k =
        1000.0 * static_cast<double>(run.promotions() + run.demotions()) /
        static_cast<double>(run.live_l2_accesses());
    const double lookups = static_cast<double>(run.directory_lookups()) /
                           static_cast<double>(run.live_l2_accesses());
    table.begin_row()
        .cell(variants[i].label)
        .cell(per_k, 1)
        .cell(lookups, 2)
        .cell(run.l2_miss_ratio())
        .cell(run.mean_cpi());
    if (kinds[i] == nuca::AggregationKind::Parallel) {
      report.metric("parallel_migrations_per_kilo_access", per_k, 1);
      report.metric("parallel_miss_ratio", run.l2_miss_ratio());
    }
  }
  report.note("paper: Cascade migration 'prohibitively high'; Parallel ~ Hash "
              "migrations with wider look-ups; two-level cascading mitigates");
  return report.emit(std::cout, options) ? 0 : 1;
}
