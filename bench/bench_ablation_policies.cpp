// Policy-family ablation: where does Bank-aware sit between fairness and
// throughput? Compares, over the Fig. 7 Monte-Carlo mix distribution:
//   - Capitalist  (free-for-all)      -> modelled as the fixed even share
//                                        for projection purposes (the
//                                        detailed shared run is Fig. 8's
//                                        No-partition baseline),
//   - Communist   (equalized misses)  -> Hsu et al.'s fairness policy,
//   - Utilitarian (minimized misses)  -> the Unrestricted allocator,
//   - Bank-aware  (the paper).
// Reported: mean total projected misses vs fixed share, and the mean
// max-min spread of per-core miss ratios (the fairness metric).
//
// Flags: --trials, --seed, --json-out.

#include <iostream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harness/config_cli.hpp"
#include "msa/miss_curve.hpp"
#include "obs/report.hpp"
#include "partition/bank_aware.hpp"
#include "partition/fairness.hpp"
#include "partition/unrestricted.hpp"
#include "trace/mix.hpp"
#include "trace/spec2000.hpp"

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags(
      {harness::value_flag(harness::kTrialsKnob), harness::value_flag(harness::kMcSeedKnob)}));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const std::size_t trials =
      static_cast<std::size_t>(harness::read_positive_u64(parser, harness::kTrialsKnob, 300));
  const std::uint64_t seed = harness::read_u64(parser, harness::kMcSeedKnob, 2009);

  partition::CmpGeometry geometry;
  const auto& suite = trace::spec2000_suite();
  const std::vector<WayCount> even(geometry.num_cores,
                                   geometry.total_ways() / geometry.num_cores);

  common::StreamingStats miss_even, miss_communist, miss_utilitarian, miss_bank;
  common::StreamingStats spread_even, spread_communist, spread_utilitarian,
      spread_bank;

  for (std::size_t trial = 0; trial < trials; ++trial) {
    common::Rng rng(seed, trial);
    const auto mix = trace::random_mix(rng, suite.size(), geometry.num_cores);
    std::vector<msa::MissRatioCurve> curves;
    for (const auto index : mix.workload_indices) {
      const auto& model = suite[index];
      curves.push_back(msa::MissRatioCurve::from_model(model, 128).scaled(model.l2_apki));
    }
    const double fixed = partition::projected_total_misses(curves, even);

    const auto communist = partition::communist_partition(geometry, curves);
    const auto utilitarian = partition::unrestricted_partition(geometry, curves);
    const auto bank = partition::bank_aware_partition(geometry, curves);

    miss_even.add(1.0);
    miss_communist.add(
        partition::projected_total_misses(curves, communist.ways_per_core) / fixed);
    miss_utilitarian.add(
        partition::projected_total_misses(curves, utilitarian.ways_per_core) / fixed);
    miss_bank.add(
        partition::projected_total_misses(curves, bank.allocation.ways_per_core) /
        fixed);

    spread_even.add(partition::miss_ratio_spread(curves, even));
    spread_communist.add(partition::miss_ratio_spread(curves, communist.ways_per_core));
    spread_utilitarian.add(
        partition::miss_ratio_spread(curves, utilitarian.ways_per_core));
    spread_bank.add(
        partition::miss_ratio_spread(curves, bank.allocation.ways_per_core));
  }

  obs::Report report("ablation_policies",
                     "Ablation: Communist / Utilitarian / Bank-aware (" +
                         std::to_string(trials) + " mixes)");
  report.meta("trials", std::to_string(trials));
  report.meta("seed", std::to_string(seed));
  auto& table = report.table("policies", {"policy", "mean misses vs fixed share",
                                          "mean miss-ratio spread (max-min)"});
  table.begin_row().cell("Fixed even share").cell(miss_even.mean()).cell(
      spread_even.mean());
  table.begin_row()
      .cell("Communist (equalize)")
      .cell(miss_communist.mean())
      .cell(spread_communist.mean());
  table.begin_row()
      .cell("Utilitarian (Unrestricted)")
      .cell(miss_utilitarian.mean())
      .cell(spread_utilitarian.mean());
  table.begin_row()
      .cell("Bank-aware (paper)")
      .cell(miss_bank.mean())
      .cell(spread_bank.mean());

  report.metric("communist_mean_misses", miss_communist.mean());
  report.metric("utilitarian_mean_misses", miss_utilitarian.mean());
  report.metric("bank_aware_mean_misses", miss_bank.mean());
  report.metric("bank_aware_mean_spread", spread_bank.mean());
  report.note("expected shape (Hsu et al. / this paper): Communist minimizes the "
              "spread but forfeits misses; Utilitarian minimizes misses; "
              "Bank-aware tracks Utilitarian within a few points under physical "
              "constraints");
  return report.emit(std::cout, options) ? 0 : 1;
}
