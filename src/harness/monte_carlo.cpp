#include "harness/monte_carlo.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include <memory>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "harness/config_cli.hpp"
#include "harness/snapshot_cache.hpp"
#include "msa/miss_curve.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "partition/bank_aware.hpp"
#include "partition/unrestricted.hpp"
#include "sampling/sampled_run.hpp"
#include "trace/spec2000.hpp"

namespace bacp::harness {

std::vector<std::pair<std::string, std::string>> MonteCarloConfig::cli_flags() {
  return {
      value_flag(kTrialsKnob),
      value_flag(kMcSeedKnob),
      value_flag(kThreadsKnob),
      value_flag(kSampledKnob),
      value_flag(kSampledIntervalsKnob),
      value_flag(kSampledIntervalInstrKnob),
      value_flag(kSampledWarmupKnob),
      value_flag(kSnapshotBankKnob),
      value_flag(kMmapKnob),
  };
}

MonteCarloConfig MonteCarloConfig::from_args(const common::ArgParser& parser) {
  MonteCarloConfig config;
  config.trials =
      static_cast<std::size_t>(read_positive_u64(parser, kTrialsKnob, config.trials));
  config.seed = read_u64(parser, kMcSeedKnob, config.seed);
  config.num_threads = read_threads(parser, config.num_threads);
  constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  config.sampled_k = static_cast<std::uint32_t>(
      read_u64(parser, kSampledKnob, config.sampled_k, kMaxU32));
  config.sampled_intervals = static_cast<std::uint32_t>(
      read_positive_u64(parser, kSampledIntervalsKnob, config.sampled_intervals, kMaxU32));
  config.sampled_interval_instructions = read_positive_u64(
      parser, kSampledIntervalInstrKnob, config.sampled_interval_instructions);
  config.sampled_warmup = read_u64(parser, kSampledWarmupKnob, config.sampled_warmup);
  config.snapshot_bank = read_snapshot_bank(parser);
  config.mmap = read_toggle(parser, kMmapKnob, config.mmap);
  return config;
}

namespace {

/// Intensity-weighted analytic curves for the whole suite: curves carry
/// projected miss *counts per kilo-instruction*, so cores with heavier L2
/// traffic dominate the Marginal Utility comparisons — mirroring live
/// profilers, whose histograms are absolute per-epoch counts. Built once
/// per sweep: a workload's curve depends only on (model, depth), so the
/// thousands of trials index this bank instead of re-deriving the same ~26
/// curves from the model each time.
std::vector<msa::MissRatioCurve> suite_curve_bank(WayCount depth) {
  const auto& suite = trace::spec2000_suite();
  std::vector<msa::MissRatioCurve> bank;
  bank.reserve(suite.size());
  for (const auto& model : suite) {
    bank.push_back(msa::MissRatioCurve::from_model(model, depth).scaled(model.l2_apki));
  }
  return bank;
}

/// Per-core curve views for one mix — pointers into the shared bank. The
/// partitioners and projected_total_misses take pointer spans, so a trial
/// never copies curve storage (a copy per trial was ~4% of the analytic
/// sweep).
std::vector<const msa::MissRatioCurve*> curves_for_mix(
    const trace::WorkloadMix& mix, std::span<const msa::MissRatioCurve> bank) {
  std::vector<const msa::MissRatioCurve*> curves;
  curves.reserve(mix.num_cores());
  for (const std::size_t index : mix.workload_indices) {
    BACP_ASSERT(index < bank.size(), "workload index outside the curve bank");
    curves.push_back(&bank[index]);
  }
  return curves;
}

/// sampling::SnapshotStore over the harness SnapshotCache: the sampled
/// engine's boundary states are memoized process-wide (and, with a file
/// bank, machine-wide) with the same future-based single-warm discipline
/// warm-state sweeps use.
class CacheSnapshotStore final : public sampling::SnapshotStore {
 public:
  explicit CacheSnapshotStore(SnapshotCache& cache) : cache_(&cache) {}
  SnapshotPtr get_or_warm(std::uint64_t key, const WarmFn& warm) override {
    return cache_->get_or_warm(key, warm);
  }

 private:
  SnapshotCache* cache_;
};

}  // namespace

MonteCarloSummary run_monte_carlo(const MonteCarloConfig& config) {
  BACP_ASSERT(config.trials > 0, "need at least one trial");
  config.geometry.validate();
  const auto& suite = trace::spec2000_suite();
  const WayCount even_share =
      config.geometry.total_ways() / config.geometry.num_cores;

  MonteCarloSummary summary;
  summary.trials.resize(config.trials);

  const auto timer = obs::global_phase_timers().scope("monte_carlo");
  const auto bank = suite_curve_bank(config.curve_depth);

  // Sampled-mode shared state: one interval-profile bank and one warm-state
  // cache serve every trial — both are thread-safe memoizations of
  // deterministic functions, so sharing them across ThreadPool workers
  // cannot perturb any trial's bytes. The sim seed is the sweep seed:
  // profiles, snapshot keys and trial mixes all hang off the one number the
  // artifact records.
  sim::SystemConfig sampled_config;
  std::unique_ptr<sampling::IntervalProfileBank> profile_bank;
  SnapshotCache snapshot_cache;
  std::unique_ptr<CacheSnapshotStore> snapshot_store;
  sampling::SampledRunConfig sampled_run;
  if (config.sampled_k > 0) {
    sampled_config = sampling::sampled_system_config(
        config.geometry, config.seed, config.sampled_interval_instructions);
    sampled_run.k = config.sampled_k;
    sampled_run.num_intervals = config.sampled_intervals;
    sampled_run.interval_instructions = config.sampled_interval_instructions;
    sampled_run.warmup_instructions = config.sampled_warmup;
    sampling::IntervalProfileConfig intervals;
    intervals.num_intervals = config.sampled_intervals;
    intervals.interval_instructions = config.sampled_interval_instructions;
    profile_bank =
        std::make_unique<sampling::IntervalProfileBank>(sampled_config, intervals);
    if (!config.snapshot_bank.empty()) {
      snapshot_cache.set_file_bank(config.snapshot_bank);
    }
    snapshot_cache.set_mmap_reads(config.mmap);
    snapshot_store = std::make_unique<CacheSnapshotStore>(snapshot_cache);
  }

  common::ThreadPool pool(config.num_threads);
  pool.parallel_for(config.trials, [&](std::size_t trial) {
    // Per-trial RNG stream: identical mixes regardless of thread count.
    common::Rng rng(config.seed, trial);
    TrialResult result;
    result.mix = trace::random_mix(rng, suite.size(), config.geometry.num_cores);
    const auto curves = curves_for_mix(result.mix, bank);

    const std::vector<WayCount> even(config.geometry.num_cores, even_share);
    result.fixed_share_misses = partition::projected_total_misses(curves, even);

    const auto unrestricted =
        partition::unrestricted_partition(config.geometry, curves);
    result.unrestricted_misses =
        partition::projected_total_misses(curves, unrestricted.ways_per_core);

    // Capacity phase only — the trial compares projected misses, so the
    // per-bank lowering (mask vectors, physical bank picks) is dead weight.
    const auto bank_aware = partition::bank_aware_capacity(config.geometry, curves);
    result.bank_aware_misses = partition::projected_total_misses(
        curves, bank_aware.allocation.ways_per_core);

    if (config.sampled_k > 0) {
      const sampling::SampledEstimate estimate =
          sampling::run_sampled_mix(sampled_config, result.mix, sampled_run,
                                    profile_bank.get(), snapshot_store.get());
      result.sampled.evaluated = true;
      result.sampled.miss_ratio = estimate.miss_ratio;
      result.sampled.miss_ratio_ci_half = estimate.miss_ratio_ci_half;
      result.sampled.cpi = estimate.cpi;
      result.sampled.cpi_ci_half = estimate.cpi_ci_half;
    }

    summary.trials[trial] = std::move(result);
  });

  finalize_monte_carlo(summary);
  return summary;
}

void finalize_monte_carlo(MonteCarloSummary& summary) {
  std::vector<double> unrestricted_ratios;
  std::vector<double> bank_ratios;
  unrestricted_ratios.reserve(summary.trials.size());
  bank_ratios.reserve(summary.trials.size());
  const bool sampled =
      !summary.trials.empty() && summary.trials.front().sampled.evaluated;
  std::vector<double> sampled_ratios;
  std::vector<double> sampled_cpis;
  for (const auto& trial : summary.trials) {
    BACP_ASSERT(trial.fixed_share_misses > 0.0, "degenerate mix with zero misses");
    // All-or-nothing: a trial vector that mixed sampled and analytic-only
    // trials would average incomparable quantities.
    BACP_ASSERT(trial.sampled.evaluated == sampled,
                "trial vector mixes sampled and unsampled entries");
    unrestricted_ratios.push_back(trial.unrestricted_ratio());
    bank_ratios.push_back(trial.bank_aware_ratio());
    if (sampled) {
      sampled_ratios.push_back(trial.sampled.miss_ratio);
      sampled_cpis.push_back(trial.sampled.cpi);
    }
  }
  summary.mean_unrestricted_ratio = common::arithmetic_mean(unrestricted_ratios);
  summary.mean_bank_aware_ratio = common::arithmetic_mean(bank_ratios);
  if (sampled) {
    summary.mean_sampled_miss_ratio = common::arithmetic_mean(sampled_ratios);
    summary.mean_sampled_cpi = common::arithmetic_mean(sampled_cpis);
  }
}

obs::Report monte_carlo_report(const MonteCarloConfig& config,
                               const MonteCarloSummary& summary) {
  obs::Report report("fig7_monte_carlo",
                     "Fig. 7: relative miss ratio to fixed-share (" +
                         std::to_string(summary.trials.size()) + " random mixes)");
  report.meta("trials", std::to_string(config.trials));
  report.meta("seed", std::to_string(config.seed));
  report.meta("curve_depth", std::to_string(config.curve_depth));

  // Sort by the Unrestricted reduction, as the paper does, and tabulate the
  // sorted series at percentile stations.
  std::vector<std::size_t> order(summary.trials.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return summary.trials[a].unrestricted_ratio() <
           summary.trials[b].unrestricted_ratio();
  });
  auto& series = report.table(
      "sorted_ratios", {"sorted position", "Unrestricted/fixed", "Bank-aware/fixed"});
  const std::size_t stations = std::min<std::size_t>(summary.trials.size(), 21);
  for (std::size_t s = 0; s < stations; ++s) {
    const std::size_t pos =
        stations == 1 ? 0 : s * (summary.trials.size() - 1) / (stations - 1);
    const auto& trial = summary.trials[order[pos]];
    series.begin_row()
        .cell(std::uint64_t{pos})
        .cell(trial.unrestricted_ratio())
        .cell(trial.bank_aware_ratio());
  }

  // Bank-aware never beats Unrestricted by construction; outliers are the
  // mixes where the banking restrictions cost more than 5 points.
  std::size_t outliers = 0;
  obs::Registry distributions;
  auto& bank_distribution = distributions.distribution("bank_aware_ratio");
  auto& unrestricted_distribution = distributions.distribution("unrestricted_ratio");
  for (const auto& trial : summary.trials) {
    unrestricted_distribution.observe(trial.unrestricted_ratio());
    bank_distribution.observe(trial.bank_aware_ratio());
    if (trial.bank_aware_ratio() > trial.unrestricted_ratio() + 0.05) ++outliers;
  }

  report.metric("mean_unrestricted_ratio", summary.mean_unrestricted_ratio);
  report.metric("mean_bank_aware_ratio", summary.mean_bank_aware_ratio);
  report.metric("outliers", std::uint64_t{outliers});
  report.metric("trials", std::uint64_t{summary.trials.size()});

  // Sampled-sweep block: present iff the sweep ran the detailed sampled
  // engine, so analytic-only reports stay byte-identical to before.
  if (config.sampled_k > 0) {
    report.meta("sampled", std::to_string(config.sampled_k));
    report.meta("sampled_intervals", std::to_string(config.sampled_intervals));
    report.meta("sampled_interval_instr",
                std::to_string(config.sampled_interval_instructions));
    report.meta("sampled_warmup", std::to_string(config.sampled_warmup));
    std::vector<double> sampled_ratios;
    sampled_ratios.reserve(summary.trials.size());
    for (const auto& trial : summary.trials) {
      sampled_ratios.push_back(trial.sampled.miss_ratio);
    }
    report.metric("mean_sampled_miss_ratio", summary.mean_sampled_miss_ratio);
    report.metric("mean_sampled_cpi", summary.mean_sampled_cpi);
    report.metric("sampled_miss_ratio_p50", common::percentile(sampled_ratios, 50.0));
    report.metric("sampled_miss_ratio_p95", common::percentile(sampled_ratios, 95.0));
  }
  report.note("paper: mean Unrestricted ~0.70, mean Bank-aware ~0.73; "
              "outliers (>5pt worse than Unrestricted) few");
  report.attach("ratio_distributions", distributions.to_json());
  return report;
}

}  // namespace bacp::harness
