// Ablation of the repartitioning epoch length (the paper fixes it at 100M
// cycles without exploring it): short epochs chase profiler noise and pay
// repartition transients (off-partition hits, migrations); long epochs
// react slowly and ride stale profiles. This bench sweeps the epoch length
// on a capacity-diverse mix and reports misses, CPI and transient traffic.
// The four epoch variants run concurrently through harness::run_variant_sweep;
// rows are emitted in sweep order, so the artifact is byte-identical for any
// --threads value, and with or without a --snapshot-bank.
//
// Flags: --instr, --seed, --threads, --snapshot-bank, --json-out.

#include <iostream>
#include <vector>

#include "harness/config_cli.hpp"
#include "harness/experiments.hpp"
#include "obs/report.hpp"
#include "sim/system.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  harness::FlagSpec spec = {harness::value_flag(harness::kInstrKnob),
                            harness::value_flag(harness::kSimSeedKnob)};
  for (auto& row : harness::SweepOptions::cli_flags()) spec.push_back(std::move(row));
  common::ArgParser parser(obs::with_report_flags(std::move(spec)));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const std::uint64_t instructions =
      harness::read_positive_u64(parser, harness::kInstrKnob, 10'000'000);
  const std::uint64_t seed = harness::read_u64(parser, harness::kSimSeedKnob, 42);
  const auto sweep_options = harness::SweepOptions::from_args(parser);
  const auto mix = harness::table3_sets()[1].mix();  // Set2

  std::vector<harness::SweepVariant> variants;
  for (const Cycle epoch : {500'000ull, 2'000'000ull, 8'000'000ull, 32'000'000ull}) {
    sim::SystemConfig config = sim::SystemConfig::baseline();
    config.policy = sim::PolicyKind::BankAware;
    config.epoch_cycles = epoch;
    config.seed = seed;
    config.finalize();
    variants.push_back({std::to_string(epoch), config, mix, instructions / 2});
  }

  std::vector<sim::SystemResults> results(variants.size());
  harness::run_variant_sweep(variants, sweep_options,
                             [&](sim::System& system, std::size_t index) {
                               system.run(instructions);
                               results[index] = system.results();
                             });

  obs::Report report("ablation_epoch_length",
                     "Ablation: repartition epoch length (Set2, Bank-aware)");
  auto& table = report.table(
      "epoch_sweep", {"epoch (cycles)", "epochs run", "L2 misses", "mean CPI",
                      "off-partition transient hits"});

  double best_cpi = 0.0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    table.begin_row()
        .cell(variants[i].label)
        .cell(results[i].epochs)
        .cell(results[i].l2_misses())
        .cell(results[i].mean_cpi())
        .cell(results[i].nuca.offview_hits);
    if (best_cpi == 0.0 || results[i].mean_cpi() < best_cpi) {
      best_cpi = results[i].mean_cpi();
    }
  }
  report.metric("best_mean_cpi", best_cpi);
  report.note("expected: a broad sweet spot in the middle; very short epochs "
              "inflate transient traffic, very long ones forgo adaptation");
  return report.emit(std::cout, options) ? 0 : 1;
}
