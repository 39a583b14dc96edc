// Sampled-interval validation bench: how far the bacp::sampling estimator
// lands from the full detailed run it extrapolates, and how much detailed
// simulation it buys back. For each random mix the bench runs the complete
// detailed simulation (every interval) and the sampled run (K k-medoid
// representatives, snapshot-forked boundaries), then reports per-mix
// relative errors and the wall-clock detail-time reduction from the phase
// timers.
//
// This is a *gated* bench: it exits non-zero unless the p95 relative
// miss-ratio error is at or under --max-p95-error (default 3%) AND the
// detailed-simulation time shrank by at least --min-detail-reduction
// (default 20x). CI runs it as the sampling-validation job, so an estimator
// regression fails the build instead of quietly biasing million-mix sweeps.
//
// Flags: --mixes, --seed, --sampled, --intervals, --interval-instr,
// --warmup, --max-p95-error, --min-detail-reduction, --json-out.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harness/config_cli.hpp"
#include "obs/phase_timer.hpp"
#include "obs/report.hpp"
#include "partition/partition_types.hpp"
#include "sampling/sampled_run.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"
#include "trace/spec2000.hpp"

namespace {

// Counts that must be at least one: a zero aborts deep in the run. K and the
// interval count are 32-bit in SampledRunConfig, so larger values would wrap.
constexpr bacp::harness::Knob kMixesKnob{"mixes", "random mixes to validate (default 8)"};
constexpr bacp::harness::Knob kRepresentativesKnob{
    "sampled", "representative intervals K per mix (default 3)"};
constexpr bacp::harness::Knob kIntervalsKnob{"intervals",
                                             "total intervals per run (default 96)"};
constexpr bacp::harness::Knob kIntervalInstrKnob{
    "interval-instr", "instructions per interval per core (default 50000)"};
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

}  // namespace

int main(int argc, char** argv) {
  using namespace bacp;

  common::ArgParser parser(obs::with_report_flags({
      harness::value_flag(kMixesKnob),
      {"seed=", "mix-draw and simulation seed (default 2009)"},
      harness::value_flag(kRepresentativesKnob),
      harness::value_flag(kIntervalsKnob),
      harness::value_flag(kIntervalInstrKnob),
      {"warmup=", "detailed warm-up instructions before interval 0 (default 500000)"},
      {"max-p95-error=", "gate: max p95 relative miss-ratio error (default 0.03)"},
      {"min-detail-reduction=", "gate: min detail-time reduction factor (default 20)"},
  }));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const std::uint64_t mixes = harness::read_positive_u64(parser, kMixesKnob, 8);
  const std::uint64_t seed = parser.get_u64_or_fail("seed", 2009);
  sampling::SampledRunConfig run;
  run.k = static_cast<std::uint32_t>(
      harness::read_positive_u64(parser, kRepresentativesKnob, 3, kMaxU32));
  run.num_intervals = static_cast<std::uint32_t>(
      harness::read_positive_u64(parser, kIntervalsKnob, 96, kMaxU32));
  run.interval_instructions = harness::read_positive_u64(parser, kIntervalInstrKnob, 50'000);
  run.warmup_instructions = parser.get_u64_or_fail("warmup", 500'000);
  const double max_p95_error = parser.get_double_or_fail("max-p95-error", 0.03);
  const double min_reduction = parser.get_double_or_fail("min-detail-reduction", 20.0);

  const partition::CmpGeometry geometry;
  const sim::SystemConfig config =
      sampling::sampled_system_config(geometry, seed, run.interval_instructions);

  auto& timers = obs::global_phase_timers();
  timers.clear();  // only this bench's phases feed the reduction gate

  obs::Report report("sampling_error",
                     "Sampled-interval estimator error vs full detailed runs");
  report.meta("mixes", std::to_string(mixes));
  report.meta("seed", std::to_string(seed));
  report.meta("sampled", std::to_string(run.k));
  report.meta("intervals", std::to_string(run.num_intervals));
  report.meta("interval_instr", std::to_string(run.interval_instructions));
  report.meta("warmup", std::to_string(run.warmup_instructions));

  auto& table = report.table("mixes", {"mix", "full_miss_ratio", "sampled_miss_ratio",
                                       "miss_error", "full_cpi", "sampled_cpi",
                                       "cpi_error"});

  std::vector<double> miss_errors;
  std::vector<double> cpi_errors;
  const std::size_t suite_size = trace::spec2000_suite().size();
  for (std::uint64_t index = 0; index < mixes; ++index) {
    // The Monte-Carlo discipline: mix i is a pure function of (seed, i).
    common::Rng rng(seed, index);
    const trace::WorkloadMix mix =
        trace::random_mix(rng, suite_size, geometry.num_cores);

    // The ground truth is the every-interval detailed run under the same
    // measurement protocol the sampler extrapolates: each interval measured
    // in isolation (reset at its boundary), misses/accesses pooled over the
    // population and CPI averaged with equal interval weight. A single
    // run() over the whole span measures something different — each core's
    // window then covers a different stretch of global time — and would
    // charge the estimator for a protocol mismatch, not estimation error.
    double full_ratio = 0.0;
    double full_cpi = 0.0;
    {
      sim::System full(config, mix);
      full.warm_up(run.warmup_instructions);
      const auto scope = timers.scope("full.detail");
      double misses = 0.0;
      double accesses = 0.0;
      std::vector<double> interval_cpis;
      interval_cpis.reserve(run.num_intervals);
      for (std::uint32_t interval = 0; interval < run.num_intervals; ++interval) {
        full.reset_measurement();
        full.run(run.interval_instructions);
        const sim::SystemResults results = full.results();
        misses += static_cast<double>(results.l2_misses());
        accesses += static_cast<double>(results.l2_accesses());
        interval_cpis.push_back(results.mean_cpi());
      }
      full_ratio = accesses > 0.0 ? misses / accesses : 0.0;
      full_cpi = common::arithmetic_mean(interval_cpis);
    }

    const sampling::SampledEstimate estimate =
        sampling::run_sampled_mix(config, mix, run, nullptr, nullptr);

    const double miss_error =
        full_ratio > 0.0 ? std::abs(estimate.miss_ratio - full_ratio) / full_ratio
                         : 0.0;
    const double cpi_error =
        full_cpi > 0.0 ? std::abs(estimate.cpi - full_cpi) / full_cpi : 0.0;
    miss_errors.push_back(miss_error);
    cpi_errors.push_back(cpi_error);

    table.begin_row()
        .cell(std::to_string(index))
        .cell(full_ratio, 5)
        .cell(estimate.miss_ratio, 5)
        .cell(miss_error, 5)
        .cell(full_cpi, 4)
        .cell(estimate.cpi, 4)
        .cell(cpi_error, 5);
  }

  const double p50_error = common::percentile(miss_errors, 50.0);
  const double p95_error = common::percentile(miss_errors, 95.0);
  const double max_error = common::percentile(miss_errors, 100.0);
  const double cpi_p95 = common::percentile(cpi_errors, 95.0);

  // The time the estimator is allowed to claim it saved: detailed-interval
  // simulation only. Warm-up/fast-forward/profiling overheads are reported
  // separately — at Monte-Carlo scale they amortize across trials through
  // the profile bank and snapshot store, which this serial bench forgoes.
  const double full_detail_s = timers.seconds("full.detail");
  const double sampled_detail_s = timers.seconds("sampling.detail");
  const double sampled_warm_s = timers.seconds("sampling.warm");
  const double detail_reduction =
      sampled_detail_s > 0.0 ? full_detail_s / sampled_detail_s : 0.0;

  report.metric("miss_error_p50", p50_error, 5);
  report.metric("miss_error_p95", p95_error, 5);
  report.metric("miss_error_max", max_error, 5);
  report.metric("cpi_error_p95", cpi_p95, 5);
  report.metric("detail_reduction", detail_reduction, 2);
  report.metric("full_detail_seconds", full_detail_s, 3);
  report.metric("sampled_detail_seconds", sampled_detail_s, 3);
  report.metric("sampled_warm_seconds", sampled_warm_s, 3);
  report.metric("gate_max_p95_error", max_p95_error, 5);
  report.metric("gate_min_detail_reduction", min_reduction, 2);
  report.note("gated bench: exits non-zero when miss_error_p95 > "
              "gate_max_p95_error or detail_reduction < "
              "gate_min_detail_reduction");

  if (!report.emit(std::cout, options)) return 1;

  bool failed = false;
  if (p95_error > max_p95_error) {
    std::cerr << "GATE FAILED: miss_error_p95 " << p95_error << " > "
              << max_p95_error << "\n";
    failed = true;
  }
  if (detail_reduction < min_reduction) {
    std::cerr << "GATE FAILED: detail_reduction " << detail_reduction << " < "
              << min_reduction << "\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
