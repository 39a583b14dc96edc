// mc_analytic and mc_sampled: the Fig. 7 Monte-Carlo engine
// (harness::run_monte_carlo, one thread) over random 8-workload mixes.
//
// mc_analytic projects each mix's misses from MSA curves: all of its work
// is in the partition layer (unrestricted_partition, bank_aware_capacity,
// projected_total_misses) and the msa curves; it never builds a
// sim::System, so a simulator-path change must leave it unchanged.
//
// mc_sampled additionally runs every mix through the detailed simulator
// over k = 3 representative intervals, against a snapshot bank the set-up
// populates cold. It uses the sim/nuca layers differently from
// fig8_detailed — short intervals behind many restores — so snapshot load
// and restore, the SystemPool and sampling dominate.
//
// Traced runs replace run_monte_carlo with the suite's own step-by-step
// reproduction of its trial through public calls, with spans around each
// layer call; every traced sweep must match run_monte_carlo bit for bit.

#include <filesystem>
#include <memory>

#include "harness/monte_carlo.hpp"
#include "harness/snapshot_cache.hpp"
#include "harness/system_pool.hpp"
#include "msa/miss_curve.hpp"
#include "obs/phase_timer.hpp"
#include "partition/bank_aware.hpp"
#include "common/stats.hpp"
#include "partition/unrestricted.hpp"
#include "sampling/interval_features.hpp"
#include "sampling/sampled_run.hpp"
#include "suite.hpp"
#include "trace/spec2000.hpp"

namespace bacp::suite {
namespace {

/// The summary digests at the default scale and seed 2009.
constexpr std::uint64_t kPinnedSeed = 2009;
constexpr std::uint64_t kPinnedAnalyticDigest = 0x3371263967c4e73cull;
constexpr std::uint64_t kPinnedSampledDigest = 0xb581a1431a8ee24cull;

/// bench_trial_throughput's checksum over the summary means: the analytic
/// pair, then (sampled sweeps) the sampled pair.
std::uint64_t summary_digest(const harness::MonteCarloSummary& summary, bool sampled) {
  std::uint64_t digest = fold_bits(0, summary.mean_unrestricted_ratio);
  digest = fold_bits(digest, summary.mean_bank_aware_ratio);
  if (!sampled) return digest;
  digest = fold_bits(digest, summary.mean_sampled_miss_ratio);
  return fold_bits(digest, summary.mean_sampled_cpi);
}

bool same_trial(const harness::TrialResult& a, const harness::TrialResult& b) {
  return a.mix.workload_indices == b.mix.workload_indices &&
         a.fixed_share_misses == b.fixed_share_misses &&
         a.unrestricted_misses == b.unrestricted_misses &&
         a.bank_aware_misses == b.bank_aware_misses &&
         a.sampled.evaluated == b.sampled.evaluated &&
         a.sampled.miss_ratio == b.sampled.miss_ratio &&
         a.sampled.miss_ratio_ci_half == b.sampled.miss_ratio_ci_half &&
         a.sampled.cpi == b.sampled.cpi && a.sampled.cpi_ci_half == b.sampled.cpi_ci_half;
}

/// Trials of `got` that differ from `want` (bit-exact; NaN never matches).
std::uint64_t mismatched_trials(const harness::MonteCarloSummary& got,
                                const harness::MonteCarloSummary& want) {
  if (got.trials.size() != want.trials.size()) return want.trials.size();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < want.trials.size(); ++i) {
    if (!same_trial(got.trials[i], want.trials[i])) ++bad;
  }
  return bad;
}

obs::Json summary_outputs(const harness::MonteCarloSummary& summary, bool sampled) {
  obs::Json out = obs::Json::object();
  out.set("digest", hex64(summary_digest(summary, sampled)))
      .set("mean_unrestricted_ratio", summary.mean_unrestricted_ratio)
      .set("mean_bank_aware_ratio", summary.mean_bank_aware_ratio);
  if (sampled) {
    out.set("mean_sampled_miss_ratio", summary.mean_sampled_miss_ratio)
        .set("mean_sampled_cpi", summary.mean_sampled_cpi);
  }
  return out;
}

/// run_monte_carlo's analytic trial, reproduced through public calls with
/// a span around each layer call: the random mix, the fixed-share,
/// Unrestricted and Bank-aware capacity assignments and their projected
/// miss counts over the intensity-weighted curve bank.
class AnalyticTrial {
 public:
  AnalyticTrial(const harness::MonteCarloConfig& config, Tracer& tracer)
      : config_(config), tracer_(tracer),
        mix_span_(tracer.intern("trace.random_mix")),
        projected_span_(tracer.intern("partition.projected_misses")),
        unrestricted_span_(tracer.intern("partition.unrestricted")),
        capacity_span_(tracer.intern("partition.bank_aware_capacity")) {
    for (const auto& model : trace::spec2000_suite()) {
      bank_.push_back(
          msa::MissRatioCurve::from_model(model, config.curve_depth).scaled(model.l2_apki));
    }
  }

  harness::TrialResult run(std::size_t trial) {
    const partition::CmpGeometry& geometry = config_.geometry;
    common::Rng rng(config_.seed, trial);
    harness::TrialResult result;
    {
      const auto span = tracer_.span(mix_span_, trial);
      result.mix = trace::random_mix(rng, bank_.size(), geometry.num_cores);
    }
    std::vector<const msa::MissRatioCurve*> curves;
    curves.reserve(result.mix.num_cores());
    for (const std::size_t index : result.mix.workload_indices) curves.push_back(&bank_[index]);
    const std::vector<WayCount> even(geometry.num_cores,
                                     geometry.total_ways() / geometry.num_cores);
    {
      const auto span = tracer_.span(projected_span_, trial);
      result.fixed_share_misses = partition::projected_total_misses(curves, even);
    }
    partition::Allocation unrestricted;
    {
      const auto span = tracer_.span(unrestricted_span_, trial);
      unrestricted = partition::unrestricted_partition(geometry, curves);
    }
    {
      const auto span = tracer_.span(projected_span_, trial);
      result.unrestricted_misses =
          partition::projected_total_misses(curves, unrestricted.ways_per_core);
    }
    partition::BankAwareCapacity capacity;
    {
      const auto span = tracer_.span(capacity_span_, trial);
      capacity = partition::bank_aware_capacity(geometry, curves);
    }
    {
      const auto span = tracer_.span(projected_span_, trial);
      result.bank_aware_misses =
          partition::projected_total_misses(curves, capacity.allocation.ways_per_core);
    }
    return result;
  }

 private:
  const harness::MonteCarloConfig& config_;
  Tracer& tracer_;
  Tracer::NameId mix_span_;
  Tracer::NameId projected_span_;
  Tracer::NameId unrestricted_span_;
  Tracer::NameId capacity_span_;
  std::vector<msa::MissRatioCurve> bank_;
};

/// sampling::SnapshotStore over a harness::SnapshotCache, as run_monte_carlo
/// adapts it.
class CacheStore final : public sampling::SnapshotStore {
 public:
  explicit CacheStore(harness::SnapshotCache& cache) : cache_(&cache) {}
  SnapshotPtr get_or_warm(std::uint64_t key, const WarmFn& warm) override {
    return cache_->get_or_warm(key, warm);
  }

 private:
  harness::SnapshotCache* cache_;
};

/// Seconds and calls one obs::global_phase_timers() phase has accumulated.
struct PhaseReading {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};
PhaseReading read_phase(std::string_view name) {
  for (const auto& phase : obs::global_phase_timers().phases()) {
    if (phase.name == name) return {phase.seconds, phase.calls};
  }
  return {};
}

}  // namespace

Outcome run_mc_analytic(const RunOptions& options, Tracer& tracer) {
  Outcome outcome;
  harness::MonteCarloConfig config;
  config.trials = options.params.at("trials");
  config.seed = options.seed;
  config.num_threads = 1;
  harness::MonteCarloConfig warm_config = config;
  warm_config.trials = std::max<std::size_t>(1, config.trials / 8);

  const Tracer::NameId setup_span = tracer.intern("mc.setup");
  const Tracer::NameId sweep_span = tracer.intern("harness.run_monte_carlo");
  const Tracer::NameId trial_span = tracer.intern("mc.trial");
  Measurement measurement(options, tracer, outcome);
  // Set-up is a 1/8-scale sweep: it builds the curve bank and faults in
  // the allocator arenas the timed sweeps reuse.
  measurement.setup([] {},
                    [&] {
                      const auto root = tracer.span(setup_span);
                      const auto sweep = tracer.span(sweep_span);
                      (void)harness::run_monte_carlo(warm_config);
                    });

  const harness::MonteCarloSummary reference = harness::run_monte_carlo(config);
  AnalyticTrial replay(config, tracer);
  const auto replay_sweep = [&](Samples* trial_us) {
    harness::MonteCarloSummary summary;
    summary.trials.resize(config.trials);
    for (std::size_t trial = 0; trial < config.trials; ++trial) {
      const auto span = tracer.span(trial_span, trial);
      const std::int64_t start = now_ns();
      summary.trials[trial] = replay.run(trial);
      if (trial_us != nullptr) trial_us->add(static_cast<double>(now_ns() - start) * 1e-3);
    }
    harness::finalize_monte_carlo(summary);
    return summary;
  };

  Samples trial_us;
  std::uint64_t untraced_allocs = 0;
  std::uint64_t untraced_trials = 0;
  measurement.loop(2, [&](std::size_t) {
    harness::MonteCarloSummary summary;
    if (tracer.enabled()) {
      summary = replay_sweep(&trial_us);
    } else {
      const std::uint64_t allocs_before = allocations();
      summary = harness::run_monte_carlo(config);
      untraced_allocs += allocations() - allocs_before;
      untraced_trials += config.trials;
    }
    std::uint64_t bad = mismatched_trials(summary, reference);
    if (summary_digest(summary, false) != summary_digest(reference, false)) {
      bad = config.trials;
    }
    outcome.ops(config.trials, bad);
    return static_cast<double>(config.trials);
  });

  if (!options.trace && mismatched_trials(replay_sweep(nullptr), reference) != 0) {
    outcome.problem("the step-by-step trial replay differs from run_monte_carlo");
  }
  if (options.seed == kPinnedSeed && options.default_params &&
      summary_digest(reference, false) != kPinnedAnalyticDigest) {
    outcome.problem("summary digest " + hex64(summary_digest(reference, false)) +
                    " differs from the pinned " + hex64(kPinnedAnalyticDigest));
  }
  outcome.outputs = summary_outputs(reference, false);

  if (options.trace) {
    auto& m = outcome.metrics;
    m["trace.random_mix_us"] = tracer.mean_seconds("trace.random_mix") * 1e6;
    m["partition.projected_misses_us"] = tracer.mean_seconds("partition.projected_misses") * 1e6;
    m["partition.unrestricted_us"] = tracer.mean_seconds("partition.unrestricted") * 1e6;
    m["partition.bank_aware_capacity_us"] =
        tracer.mean_seconds("partition.bank_aware_capacity") * 1e6;
    m["mc.trial_us.p50"] = trial_us.median();
    m["mc.trial_us.p99"] = trial_us.percentile(99.0);
    m["mc.trial.samples"] = static_cast<double>(trial_us.size());
    m["mc.allocs_per_trial"] = common::ratio(static_cast<double>(untraced_allocs),
                                             static_cast<double>(untraced_trials));
  }
  return outcome;
}

Outcome run_mc_sampled(const RunOptions& options, Tracer& tracer) {
  Outcome outcome;
  harness::MonteCarloConfig config;
  config.trials = options.params.at("trials");
  config.seed = options.seed;
  config.num_threads = 1;
  config.sampled_k = 3;
  config.sampled_intervals = static_cast<std::uint32_t>(options.params.at("intervals"));
  config.sampled_interval_instructions = options.params.at("interval-instr");
  config.sampled_warmup = options.params.at("sampled-warmup");

  const Tracer::NameId setup_span = tracer.intern("mc.setup");
  const Tracer::NameId sweep_span = tracer.intern("harness.run_monte_carlo");
  const Tracer::NameId trial_span = tracer.intern("sampling.trial");
  const Tracer::NameId acquire_span = tracer.intern("pool.acquire");
  const Tracer::NameId sampled_span = tracer.intern("sampling.run_sampled_mix");

  // Set-up is the cold sweep that populates a private snapshot bank: the
  // real first-sweep cost, so work moved into warming shows in setup_s.
  const std::string bank_prefix =
      (std::filesystem::path(options.scratch) / ("sampled-bank-" + hex64(
          static_cast<std::uint64_t>(now_ns())))).string();
  int bank_index = 0;
  harness::MonteCarloSummary reference;
  Samples warm_seconds;
  Measurement measurement(options, tracer, outcome);
  measurement.setup(
      [&] {
        std::error_code ec;
        if (!config.snapshot_bank.empty()) std::filesystem::remove_all(config.snapshot_bank, ec);
      },
      [&] {
        const auto root = tracer.span(setup_span);
        config.snapshot_bank = bank_prefix + "-" + std::to_string(bank_index++);
        std::filesystem::create_directories(config.snapshot_bank);
        const PhaseReading warm_before = read_phase("sampling.warm");
        harness::MonteCarloSummary cold;
        {
          const auto sweep = tracer.span(sweep_span);
          cold = harness::run_monte_carlo(config);
        }
        warm_seconds.add(read_phase("sampling.warm").seconds - warm_before.seconds);
        if (reference.trials.empty()) {
          reference = std::move(cold);
        } else if (mismatched_trials(cold, reference) != 0) {
          outcome.problem("two cold populate sweeps disagree");
        }
      });

  const sim::SystemConfig sampled_config = sampling::sampled_system_config(
      config.geometry, config.seed, config.sampled_interval_instructions);
  sampling::SampledRunConfig run;
  run.k = config.sampled_k;
  run.num_intervals = config.sampled_intervals;
  run.interval_instructions = config.sampled_interval_instructions;
  run.warmup_instructions = config.sampled_warmup;
  sampling::IntervalProfileConfig intervals;
  intervals.num_intervals = config.sampled_intervals;
  intervals.interval_instructions = config.sampled_interval_instructions;

  Samples trial_ms;
  std::uint64_t untraced_allocs = 0;
  std::uint64_t untraced_trials = 0;
  std::uint64_t traced_trials = 0;
  std::uint64_t traced_passes = 0;
  PhaseReading bank_load;
  PhaseReading restore;
  PhaseReading detail;
  double acquire_pool_hits = 0.0;
  double acquire_pool_misses = 0.0;
  double file_hits = 0.0;
  // run_monte_carlo's sampled sweep, reproduced through SystemPool,
  // SnapshotCache and run_sampled_mix.
  const auto replay_sweep = [&] {
    AnalyticTrial analytic(config, tracer);
    sampling::IntervalProfileBank profiles(sampled_config, intervals);
    harness::SnapshotCache cache;
    cache.set_file_bank(config.snapshot_bank);
    cache.set_mmap_reads(config.mmap);
    CacheStore store(cache);
    harness::SystemPool pool;
    harness::MonteCarloSummary summary;
    summary.trials.resize(config.trials);
    for (std::size_t trial = 0; trial < config.trials; ++trial) {
      const auto span = tracer.span(trial_span, trial);
      const std::int64_t start = now_ns();
      harness::TrialResult result = analytic.run(trial);
      harness::SystemPool::Lease lease;
      {
        const auto acquire = tracer.span(acquire_span, trial);
        lease = pool.acquire(sampled_config, result.mix);
      }
      sampling::SampledEstimate estimate;
      {
        const auto sampled = tracer.span(sampled_span, trial);
        estimate = sampling::run_sampled_mix(sampled_config, result.mix, run, &profiles,
                                             &store, lease.get());
      }
      result.sampled = {true, estimate.miss_ratio, estimate.miss_ratio_ci_half, estimate.cpi,
                        estimate.cpi_ci_half};
      summary.trials[trial] = std::move(result);
      trial_ms.add(static_cast<double>(now_ns() - start) * 1e-6);
    }
    harness::finalize_monte_carlo(summary);
    acquire_pool_hits = static_cast<double>(pool.hits());
    acquire_pool_misses = static_cast<double>(pool.misses());
    file_hits = static_cast<double>(cache.file_hits());
    return summary;
  };

  measurement.loop(2, [&](std::size_t) {
    harness::MonteCarloSummary summary;
    if (tracer.enabled()) {
      const PhaseReading load_before = read_phase("bank.load");
      const PhaseReading restore_before = read_phase("sampling.restore");
      const PhaseReading detail_before = read_phase("sampling.detail");
      summary = replay_sweep();
      const PhaseReading load_after = read_phase("bank.load");
      bank_load.seconds += load_after.seconds - load_before.seconds;
      bank_load.calls += load_after.calls - load_before.calls;
      restore.seconds += read_phase("sampling.restore").seconds - restore_before.seconds;
      detail.seconds += read_phase("sampling.detail").seconds - detail_before.seconds;
      traced_trials += config.trials;
      ++traced_passes;
    } else {
      const std::uint64_t allocs_before = allocations();
      summary = harness::run_monte_carlo(config);
      untraced_allocs += allocations() - allocs_before;
      untraced_trials += config.trials;
    }
    std::uint64_t bad = mismatched_trials(summary, reference);
    if (summary_digest(summary, true) != summary_digest(reference, true)) bad = config.trials;
    outcome.ops(config.trials, bad);
    return static_cast<double>(config.trials);
  });
  std::error_code ec;
  std::filesystem::remove_all(config.snapshot_bank, ec);

  if (options.seed == kPinnedSeed && options.default_params &&
      summary_digest(reference, true) != kPinnedSampledDigest) {
    outcome.problem("summary digest " + hex64(summary_digest(reference, true)) +
                    " differs from the pinned " + hex64(kPinnedSampledDigest));
  }
  outcome.outputs = summary_outputs(reference, true);

  if (options.trace) {
    auto& m = outcome.metrics;
    const auto trials = static_cast<double>(traced_trials);
    m["pool.acquire_us"] = tracer.mean_seconds("pool.acquire") * 1e6;
    m["pool.hits"] = acquire_pool_hits;
    m["pool.misses"] = acquire_pool_misses;
    m["snapshot.file_hits"] = file_hits;
    m["snapshot.bank_load_s"] = common::ratio(bank_load.seconds, trials);
    m["snapshot.bank_load.calls"] = common::ratio(static_cast<double>(bank_load.calls),
                                                   static_cast<double>(traced_passes));
    m["sampling.restore_s"] = common::ratio(restore.seconds, trials);
    m["sampling.detail_s"] = common::ratio(detail.seconds, trials);
    m["sampling.warm_s"] = warm_seconds.median();
    m["sampling.trial_ms.p50"] = trial_ms.median();
    m["sampling.trial_ms.p75"] = trial_ms.percentile(75.0);
    m["sampling.trial.samples"] = static_cast<double>(trial_ms.size());
    m["sampling.allocs_per_trial"] = common::ratio(static_cast<double>(untraced_allocs),
                                                   static_cast<double>(untraced_trials));
  }
  return outcome;
}

}  // namespace bacp::suite
