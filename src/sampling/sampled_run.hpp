#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sampling/interval_features.hpp"
#include "sim/system_config.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/mix.hpp"

namespace bacp::sim {
class System;
}  // namespace bacp::sim

namespace bacp::sampling {

/// Warm-state forking seam: the engine keys each medoid's boundary state
/// and asks the store for it, warming via `warm` only on a miss. The
/// harness adapts its SnapshotCache (in-memory or file-banked) behind this
/// interface; tests plug in trivial stores. The store must return the
/// value `warm` produces for the key — any deterministic memoization is
/// legal, including cross-process file banks.
class SnapshotStore {
 public:
  using SnapshotPtr = std::shared_ptr<const snapshot::SystemSnapshot>;
  using WarmFn = std::function<snapshot::SystemSnapshot()>;

  virtual ~SnapshotStore() = default;
  virtual SnapshotPtr get_or_warm(std::uint64_t key, const WarmFn& warm) = 0;
};

/// Sampled-run shape: K representative intervals out of `num_intervals`,
/// each `interval_instructions` per core long, entered from a functionally
/// warmed snapshot; `warmup_instructions` of detailed warm-up precede
/// interval 0 (the paper's cache warm-up, scaled).
struct SampledRunConfig {
  // Defaults are the operating point bench_sampling_error validates: p95
  // relative miss-ratio error well under 3% at a >20x detailed-simulation
  // reduction. The warm-up matters: it moves the steep cold-cache transient
  // out of the measured population, which K medoids of a convex declining
  // curve would otherwise systematically under-represent.
  std::uint32_t k = 3;
  std::uint32_t num_intervals = 96;
  std::uint64_t interval_instructions = 50'000;
  std::uint64_t warmup_instructions = 500'000;
};

/// One mix's interval-selection plan: which intervals represent the run and
/// with what population weights. Shapes match audit::SamplingPlanInput
/// field-for-field; plan_mix() asserts its own audit before returning.
struct SamplingPlan {
  std::uint32_t num_intervals = 0;
  std::uint32_t k = 0;  ///< effective K (min(config.k, num_intervals))
  std::vector<std::uint32_t> medoids;
  std::vector<std::uint32_t> assignment;
  std::vector<std::uint64_t> weights;
};

/// Population-weighted extrapolation of the full run from the K detailed
/// intervals, with large-sample confidence half-widths (z = 1.96) from
/// common::weighted_mean_ci. `miss_ratio` is the ratio-of-sums estimator
/// (weighted misses over weighted accesses); its CI is computed over the
/// per-interval miss ratios, which is conservative for the ratio estimator.
/// No wall-clock fields — timings go through obs::global_phase_timers()
/// ("sampling.warm", "sampling.detail"), keeping this struct artifact-safe.
struct SampledEstimate {
  double miss_ratio = 0.0;
  double miss_ratio_ci_half = 0.0;
  double cpi = 0.0;
  double cpi_ci_half = 0.0;
  std::uint32_t detailed_intervals = 0;
  std::uint32_t total_intervals = 0;
};

/// Canonical detailed-simulation config for sampled sweeps and their
/// validation benches: the Table I baseline over `geometry`, seeded with
/// `seed`, with the epoch interval scaled to twice the interval length so
/// the Bank-aware repartitioning keeps adapting at interval granularity
/// (a full-length epoch would freeze the plan across every short interval).
sim::SystemConfig sampled_system_config(const partition::CmpGeometry& geometry,
                                        std::uint64_t seed,
                                        std::uint64_t interval_instructions);

/// Builds the mix's plan: per-interval feature vectors of every bound
/// (workload, core slot) pair are concatenated into one per-interval mix
/// feature, clustered with kmedoids(). Deterministic for a fixed
/// (config, mix, run). `bank` must have been built from the same config
/// and interval shape; pass nullptr to profile without memoization.
SamplingPlan plan_mix(const sim::SystemConfig& config, const trace::WorkloadMix& mix,
                      const SampledRunConfig& run, IntervalProfileBank* bank);

/// The tentpole engine: plans the mix, then simulates only the medoid
/// intervals in detail — each entered by restoring a snapshot of the
/// interval boundary, produced on first need by detailed warm-up plus
/// System::run over the skipped intervals (the loop that measures them) and
/// keyed by the fold chain (config digest, run shape, medoid prefix), so a
/// boundary state is warmed at most once per store no matter how many
/// trials, threads or processes share it. Returns the population-weighted
/// extrapolation. With `snapshots == nullptr` the engine advances one live
/// system and snapshots only at medoid boundaries (no reuse).
SampledEstimate run_sampled_mix(const sim::SystemConfig& config,
                                const trace::WorkloadMix& mix,
                                const SampledRunConfig& run,
                                IntervalProfileBank* profiles,
                                SnapshotStore* snapshots);

/// The same run on the caller's System, which must be a `System(config,
/// mix)` that has not run yet (harness::SystemPool::acquire builds one).
/// The config and mix are asserted against `cold`'s construction digest;
/// the five-argument overload builds `cold` itself and calls this one.
SampledEstimate run_sampled_mix(const sim::SystemConfig& config,
                                const trace::WorkloadMix& mix,
                                const SampledRunConfig& run,
                                IntervalProfileBank* profiles,
                                SnapshotStore* snapshots, sim::System* cold);

}  // namespace bacp::sampling
