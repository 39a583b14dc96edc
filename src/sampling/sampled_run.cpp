#include "sampling/sampled_run.hpp"

#include <algorithm>

#include "audit/sampling_audit.hpp"
#include "common/assert.hpp"
#include "common/fnv1a.hpp"
#include "common/stats.hpp"
#include "obs/phase_timer.hpp"
#include "sampling/kmedoids.hpp"
#include "sim/system.hpp"

namespace bacp::sampling {

sim::SystemConfig sampled_system_config(const partition::CmpGeometry& geometry,
                                        std::uint64_t seed,
                                        std::uint64_t interval_instructions) {
  sim::SystemConfig config = sim::SystemConfig::baseline();
  config.geometry = geometry;
  config.seed = seed;
  // Cycles-per-interval ~ instructions at CPI ~ 1; two intervals per epoch
  // keeps boundary work amortized while still adapting within a run.
  config.epoch_cycles = std::max<Cycle>(1, 2 * interval_instructions);
  config.finalize();
  return config;
}

SamplingPlan plan_mix(const sim::SystemConfig& config, const trace::WorkloadMix& mix,
                      const SampledRunConfig& run, IntervalProfileBank* bank) {
  BACP_ASSERT(run.num_intervals > 0, "sampled run requires at least one interval");
  BACP_ASSERT(run.k > 0, "sampled run requires k > 0");
  IntervalProfileConfig intervals;
  intervals.num_intervals = run.num_intervals;
  intervals.interval_instructions = run.interval_instructions;

  // One per-interval mix feature = the concatenation of every core slot's
  // per-interval features: a mix changes phase when any of its co-runners
  // does, and the concatenation keeps per-slot structure separable.
  std::vector<std::vector<double>> points(
      run.num_intervals, std::vector<double>(mix.num_cores() * kFeatureDim, 0.0));
  for (CoreId core = 0; core < mix.num_cores(); ++core) {
    const std::size_t workload = mix.workload_indices[core];
    IntervalProfileBank::ProfilePtr held;
    const WorkloadIntervalProfile* profile = nullptr;
    if (bank != nullptr) {
      BACP_ASSERT(bank->intervals().num_intervals == intervals.num_intervals &&
                      bank->intervals().interval_instructions ==
                          intervals.interval_instructions,
                  "profile bank built for a different interval shape");
      held = bank->get(workload, core);
      profile = held.get();
    }
    WorkloadIntervalProfile local;
    if (profile == nullptr) {
      local = profile_workload_intervals(config, workload, core, intervals);
      profile = &local;
    }
    for (std::uint32_t interval = 0; interval < run.num_intervals; ++interval) {
      std::copy(profile->features[interval].begin(), profile->features[interval].end(),
                points[interval].begin() + core * kFeatureDim);
    }
  }

  const auto clusters = kmedoids(
      points, std::min<std::uint32_t>(run.k, run.num_intervals));

  SamplingPlan plan;
  plan.num_intervals = run.num_intervals;
  plan.k = static_cast<std::uint32_t>(clusters.medoids.size());
  plan.medoids = clusters.medoids;
  plan.assignment = clusters.assignment;
  plan.weights = clusters.weights;

  // Plan legality is a hard precondition of the estimator (a weight
  // mismatch silently biases every extrapolated figure), so refuse here.
  audit::SamplingPlanInput claim;
  claim.num_intervals = plan.num_intervals;
  claim.k = plan.k;
  claim.medoids = plan.medoids;
  claim.assignment = plan.assignment;
  claim.weights = plan.weights;
  const audit::AuditReport report = audit::audit_sampling_plan(claim);
  BACP_ASSERT(report.ok(), "sampling plan failed its legality audit");
  return plan;
}

SampledEstimate run_sampled_mix(const sim::SystemConfig& config,
                                const trace::WorkloadMix& mix,
                                const SampledRunConfig& run,
                                IntervalProfileBank* profiles,
                                SnapshotStore* snapshots) {
  sim::System system(config, mix);
  return run_sampled_mix(config, mix, run, profiles, snapshots, &system);
}

SampledEstimate run_sampled_mix(const sim::SystemConfig& config,
                                const trace::WorkloadMix& mix,
                                const SampledRunConfig& run,
                                IntervalProfileBank* profiles,
                                SnapshotStore* snapshots, sim::System* cold) {
  BACP_ASSERT(cold != nullptr, "run_sampled_mix needs a System");
  BACP_ASSERT(sim::config_digest(cold->config(), cold->mix()) ==
                  sim::config_digest(config, mix),
              "run_sampled_mix: the System was built for another (config, mix)");
  sim::System& system = *cold;
  const SamplingPlan plan = plan_mix(config, mix, run, profiles);

  // Boundary-state keys are a fold chain: the (config, mix) digest, the run
  // shape, then each medoid index in simulation order. The chain makes keys
  // *trajectory*-dependent — the state at boundary m depends on which
  // earlier intervals ran detailed — so two plans share a snapshot iff they
  // share the entire medoid prefix leading to it.
  std::uint64_t chain = sim::config_digest(config, mix);
  chain = common::fnv1a_fold(chain, run.warmup_instructions);
  chain = common::fnv1a_fold(chain, run.interval_instructions);
  chain = common::fnv1a_fold(chain, run.num_intervals);

  bool warmed = false;
  std::uint32_t pos = 0;  // interval boundary the live system stands at
  std::vector<double> ratios(plan.k, 0.0);
  std::vector<double> cpis(plan.k, 0.0);
  std::vector<double> weights(plan.k, 0.0);
  double weighted_misses = 0.0;
  double weighted_accesses = 0.0;

  for (std::uint32_t slot = 0; slot < plan.k; ++slot) {
    const std::uint32_t medoid = plan.medoids[slot];
    chain = common::fnv1a_fold(chain, medoid);

    const auto warm = [&]() -> snapshot::SystemSnapshot {
      const auto timer = obs::global_phase_timers().scope("sampling.warm");
      if (!warmed) {
        system.warm_up(run.warmup_instructions);
        warmed = true;
      }
      for (; pos < medoid; ++pos) system.run(run.interval_instructions);
      // The skipped intervals accumulated statistics and fired epoch
      // boundaries; re-arm the measurement window so the snapshot is
      // statistics-clean (save_state's precondition).
      system.reset_measurement();
      return system.save_state();
    };
    SnapshotStore::SnapshotPtr boundary;
    if (snapshots != nullptr) {
      boundary = snapshots->get_or_warm(chain, warm);
    } else {
      boundary = std::make_shared<const snapshot::SystemSnapshot>(warm());
    }
    // Restore unconditionally: on a store hit this forks the banked state
    // (possibly warmed by another thread or process); on a miss it re-applies
    // the bytes the live system just produced — either way the detailed
    // interval below starts from the identical boundary state, in a fresh
    // measurement window.
    {
      const auto timer = obs::global_phase_timers().scope("sampling.restore");
      system.restore_state(*boundary);
    }
    warmed = true;
    pos = medoid;

    {
      const auto timer = obs::global_phase_timers().scope("sampling.detail");
      system.run(run.interval_instructions);
    }
    pos = medoid + 1;

    const sim::SystemResults results = system.results();
    const double accesses = static_cast<double>(results.l2_accesses());
    const double misses = static_cast<double>(results.l2_misses());
    const double weight = static_cast<double>(plan.weights[slot]);
    ratios[slot] = accesses > 0.0 ? misses / accesses : 0.0;
    cpis[slot] = results.mean_cpi();
    weights[slot] = weight;
    weighted_misses += weight * misses;
    weighted_accesses += weight * accesses;
  }

  SampledEstimate estimate;
  estimate.miss_ratio =
      weighted_accesses > 0.0 ? weighted_misses / weighted_accesses : 0.0;
  const common::WeightedMeanCi ratio_ci = common::weighted_mean_ci(ratios, weights);
  estimate.miss_ratio_ci_half = ratio_ci.ci_half;
  const common::WeightedMeanCi cpi_ci = common::weighted_mean_ci(cpis, weights);
  estimate.cpi = cpi_ci.mean;
  estimate.cpi_ci_half = cpi_ci.ci_half;
  estimate.detailed_intervals = plan.k;
  estimate.total_intervals = plan.num_intervals;
  return estimate;
}

}  // namespace bacp::sampling
