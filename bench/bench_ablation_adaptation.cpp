// Ablation of the *dynamic* in "dynamic cache partitioning": a program
// phase change swaps the capacity appetites of two cores mid-run. A static
// Equal split cannot respond; the Bank-aware epoch controller re-profiles
// and reallocates within a few epochs. This is the scenario the paper's
// monitoring scheme exists for ("dynamically profile the cache
// requirements of each core ... during the execution of an application").
//
// Setup: core 0 runs facerec-like (56-way appetite) next to a statically
// hungry bzip2 on core 2. After phase 1, core 0's program moves into a
// gcc-like phase (its working set collapses). The dynamic scheme must
// detect the collapse (the decaying MSA histogram drains the ghost of the
// old profile) and hand the freed Center banks to bzip2. We report
// per-phase misses under Equal-partitions and Bank-aware, plus the
// allocation trace of the two cores. The two policy runs execute
// concurrently through harness::run_variant_sweep; rows are emitted in
// policy order, so the artifact is byte-identical for any --threads value,
// and with or without a --snapshot-bank.
//
// Flags: --instr (per phase), --epoch, --threads, --snapshot-bank,
// --json-out.

#include <iostream>
#include <vector>

#include "harness/config_cli.hpp"
#include "harness/experiments.hpp"
#include "obs/report.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  harness::FlagSpec spec = {harness::value_flag(harness::kInstrKnob),
                            harness::value_flag(harness::kEpochKnob)};
  for (auto& row : harness::SweepOptions::cli_flags()) spec.push_back(std::move(row));
  common::ArgParser parser(obs::with_report_flags(std::move(spec)));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const std::uint64_t phase_instructions =
      harness::read_positive_u64(parser, harness::kInstrKnob, 8'000'000);
  const Cycle epoch = harness::read_positive_u64(parser, harness::kEpochKnob, 1'500'000);
  const auto sweep_options = harness::SweepOptions::from_args(parser);

  const auto mix = trace::mix_from_names(
      {"facerec", "gzip", "bzip2", "mesa", "sixtrack", "eon", "crafty", "perlbmk"});

  struct PhaseResult {
    std::uint64_t phase1_misses = 0;
    std::uint64_t phase2_misses = 0;
    std::vector<partition::Allocation> history;
  };

  std::vector<harness::SweepVariant> variants;
  for (const auto policy :
       {sim::PolicyKind::EqualPartition, sim::PolicyKind::BankAware}) {
    sim::SystemConfig config = sim::SystemConfig::baseline();
    config.policy = policy;
    config.epoch_cycles = epoch;
    config.finalize();
    variants.push_back({sim::to_string(policy), config, mix, phase_instructions / 2});
  }

  std::vector<PhaseResult> phases(variants.size());
  harness::run_variant_sweep(
      variants, sweep_options, [&](sim::System& system, std::size_t index) {
        system.run(phase_instructions);
        PhaseResult result;
        result.phase1_misses = system.results().l2_misses();

        // Phase change: core 0's working set collapses.
        system.switch_workload(0, "gcc");
        system.run(phase_instructions);
        result.phase2_misses = system.results().l2_misses() - result.phase1_misses;
        result.history = system.allocation_history();
        phases[index] = std::move(result);
      });
  const PhaseResult& equal = phases[0];
  const PhaseResult& bank = phases[1];

  obs::Report report("ablation_adaptation",
                     "Ablation: adaptation to a program phase change");
  report.meta("phase_instructions", std::to_string(phase_instructions));
  report.meta("epoch_cycles", std::to_string(epoch));

  auto& table = report.table(
      "per_phase_misses", {"policy", "phase-1 misses", "phase-2 misses (post swap)"});
  table.begin_row()
      .cell("Equal-partitions (static)")
      .cell(equal.phase1_misses)
      .cell(equal.phase2_misses);
  table.begin_row()
      .cell("Bank-aware (dynamic)")
      .cell(bank.phase1_misses)
      .cell(bank.phase2_misses);

  auto& history = report.table("allocation_history",
                               {"epoch", "core0 ways", "core2 ways"});
  for (std::size_t e = 0; e < bank.history.size(); ++e) {
    history.begin_row()
        .cell(std::uint64_t{e})
        .cell(std::uint64_t{bank.history[e].ways_per_core[0]})
        .cell(std::uint64_t{bank.history[e].ways_per_core[2]});
  }

  report.metric("equal_phase2_misses", equal.phase2_misses);
  report.metric("bank_aware_phase2_misses", bank.phase2_misses);
  report.metric("phase2_miss_ratio_vs_static",
                equal.phase2_misses == 0
                    ? 0.0
                    : static_cast<double>(bank.phase2_misses) /
                          static_cast<double>(equal.phase2_misses));
  report.note("expected: core0's allocation collapses toward one bank over a few "
              "post-swap epochs (histogram decay drains the ghost profile) while "
              "bzip2's grows; the dynamic scheme's phase-2 misses sit below the "
              "static split's");
  return report.emit(std::cout, options) ? 0 : 1;
}
