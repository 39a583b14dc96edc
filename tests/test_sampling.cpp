// The sampled-interval engine: deterministic k-medoids selection over
// per-interval feature vectors, audited plans, snapshot-forked detailed
// simulation of only the representative intervals, and population-weighted
// extrapolation that tracks the full detailed run.

#include "sampling/sampled_run.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "audit/sampling_audit.hpp"
#include "harness/system_pool.hpp"
#include "sampling/interval_features.hpp"
#include "sampling/kmedoids.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"

namespace bacp::sampling {
namespace {

// ---------------------------------------------------------------------------
// k-medoids
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> two_blobs() {
  // Two tight clusters on a line; medoids must land one per blob.
  return {{0.0}, {0.1}, {0.2}, {10.0}, {10.1}, {10.2}};
}

TEST(KMedoids, FindsObviousClusters) {
  const auto points = two_blobs();
  const KMedoidsResult result = kmedoids(points, 2);
  ASSERT_EQ(result.medoids.size(), 2u);
  EXPECT_EQ(result.medoids[0], 1u);  // 0.1 is the center of the first blob
  EXPECT_EQ(result.medoids[1], 4u);  // 10.1 of the second
  EXPECT_EQ(result.weights[0], 3u);
  EXPECT_EQ(result.weights[1], 3u);
  const std::vector<std::uint32_t> expected = {0, 0, 0, 1, 1, 1};
  EXPECT_EQ(result.assignment, expected);
}

TEST(KMedoids, IsDeterministicAcrossRepeats) {
  const auto points = two_blobs();
  const KMedoidsResult a = kmedoids(points, 3);
  const KMedoidsResult b = kmedoids(points, 3);
  EXPECT_EQ(a.medoids, b.medoids);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_cost),
            std::bit_cast<std::uint64_t>(b.total_cost));
}

TEST(KMedoids, MedoidsAreAscendingAndSelfAssigned) {
  const auto points = two_blobs();
  for (std::uint32_t k = 1; k <= 6; ++k) {
    const KMedoidsResult result = kmedoids(points, k);
    ASSERT_EQ(result.medoids.size(), k);
    for (std::size_t slot = 1; slot < result.medoids.size(); ++slot) {
      EXPECT_LT(result.medoids[slot - 1], result.medoids[slot]);
    }
    for (std::size_t slot = 0; slot < result.medoids.size(); ++slot) {
      EXPECT_EQ(result.assignment[result.medoids[slot]], slot) << "k=" << k;
    }
    const std::uint64_t covered =
        std::accumulate(result.weights.begin(), result.weights.end(),
                        std::uint64_t{0});
    EXPECT_EQ(covered, points.size());
  }
}

TEST(KMedoids, SurvivesDuplicatePoints) {
  // More medoids than distinct points: duplicates force medoid-valued
  // points into different slots, the canonicalization must keep every
  // medoid self-assigned (the audit invariant).
  const std::vector<std::vector<double>> points = {{1.0}, {1.0}, {1.0}, {1.0}};
  const KMedoidsResult result = kmedoids(points, 3);
  ASSERT_EQ(result.medoids.size(), 3u);
  for (std::size_t slot = 0; slot < result.medoids.size(); ++slot) {
    EXPECT_EQ(result.assignment[result.medoids[slot]], slot);
  }
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
}

TEST(KMedoids, SingleClusterPicksCentralPoint) {
  const std::vector<std::vector<double>> points = {{0.0}, {1.0}, {2.0}, {9.0}};
  const KMedoidsResult result = kmedoids(points, 1);
  ASSERT_EQ(result.medoids.size(), 1u);
  EXPECT_EQ(result.medoids[0], 2u);  // minimizes summed distance
  EXPECT_EQ(result.weights[0], 4u);
}

// ---------------------------------------------------------------------------
// Interval profiling
// ---------------------------------------------------------------------------

sim::SystemConfig tiny_config() {
  return sampled_system_config(partition::CmpGeometry{}, /*seed=*/5,
                               /*interval_instructions=*/2'000);
}

TEST(IntervalFeatures, ProfileHasDeclaredShape) {
  IntervalProfileConfig intervals;
  intervals.num_intervals = 6;
  intervals.interval_instructions = 2'000;
  const auto profile =
      profile_workload_intervals(tiny_config(), /*workload=*/0, /*core=*/0, intervals);
  ASSERT_EQ(profile.features.size(), 6u);
  ASSERT_EQ(profile.sampled_accesses.size(), 6u);
  for (const auto& feature : profile.features) {
    ASSERT_EQ(feature.size(), kFeatureDim);
    for (double v : feature) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(IntervalFeatures, ProfileIsDeterministic) {
  IntervalProfileConfig intervals;
  intervals.num_intervals = 4;
  intervals.interval_instructions = 2'000;
  const auto a =
      profile_workload_intervals(tiny_config(), /*workload=*/3, /*core=*/2, intervals);
  const auto b =
      profile_workload_intervals(tiny_config(), /*workload=*/3, /*core=*/2, intervals);
  ASSERT_EQ(a.features.size(), b.features.size());
  for (std::size_t i = 0; i < a.features.size(); ++i) {
    for (std::size_t d = 0; d < kFeatureDim; ++d) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.features[i][d]),
                std::bit_cast<std::uint64_t>(b.features[i][d]))
          << "interval " << i << " dim " << d;
    }
  }
  EXPECT_EQ(a.sampled_accesses, b.sampled_accesses);
}

TEST(IntervalFeatures, BankMemoizesPerWorkloadCorePair) {
  IntervalProfileConfig intervals;
  intervals.num_intervals = 4;
  intervals.interval_instructions = 2'000;
  IntervalProfileBank bank(tiny_config(), intervals);
  const auto first = bank.get(/*workload=*/1, /*core=*/0);
  const auto second = bank.get(/*workload=*/1, /*core=*/0);
  EXPECT_EQ(first.get(), second.get());  // same shared profile, not a re-run
  const auto other_core = bank.get(/*workload=*/1, /*core=*/1);
  EXPECT_NE(first.get(), other_core.get());
  // The bank serves the same bytes direct profiling computes.
  const auto direct =
      profile_workload_intervals(tiny_config(), /*workload=*/1, /*core=*/0, intervals);
  ASSERT_EQ(first->features.size(), direct.features.size());
  for (std::size_t i = 0; i < direct.features.size(); ++i) {
    EXPECT_EQ(first->features[i], direct.features[i]);
  }
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

trace::WorkloadMix eight_core_mix() {
  return trace::mix_from_names(
      {"mcf", "eon", "art", "gcc", "bzip2", "sixtrack", "facerec", "gzip"});
}

SampledRunConfig tiny_run() {
  SampledRunConfig run;
  run.k = 3;
  run.num_intervals = 8;
  run.interval_instructions = 2'000;
  run.warmup_instructions = 4'000;
  return run;
}

TEST(SamplingPlan, IsAuditCleanAndDeterministic) {
  const auto config = tiny_config();
  const auto mix = eight_core_mix();
  const SamplingPlan a = plan_mix(config, mix, tiny_run(), nullptr);
  const SamplingPlan b = plan_mix(config, mix, tiny_run(), nullptr);
  EXPECT_EQ(a.medoids, b.medoids);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.k, 3u);
  EXPECT_EQ(a.num_intervals, 8u);

  audit::SamplingPlanInput claim;
  claim.num_intervals = a.num_intervals;
  claim.k = a.k;
  claim.medoids = a.medoids;
  claim.assignment = a.assignment;
  claim.weights = a.weights;
  const auto report = audit::audit_sampling_plan(claim);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

TEST(SamplingPlan, BankAndDirectProfilesAgree) {
  const auto config = tiny_config();
  const auto mix = eight_core_mix();
  IntervalProfileConfig intervals;
  intervals.num_intervals = tiny_run().num_intervals;
  intervals.interval_instructions = tiny_run().interval_instructions;
  IntervalProfileBank bank(config, intervals);
  const SamplingPlan with_bank = plan_mix(config, mix, tiny_run(), &bank);
  const SamplingPlan direct = plan_mix(config, mix, tiny_run(), nullptr);
  EXPECT_EQ(with_bank.medoids, direct.medoids);
  EXPECT_EQ(with_bank.weights, direct.weights);
}

TEST(SamplingPlan, CapsKAtIntervalCount) {
  SampledRunConfig run = tiny_run();
  run.k = 64;  // more representatives than intervals
  const SamplingPlan plan = plan_mix(tiny_config(), eight_core_mix(), run, nullptr);
  EXPECT_EQ(plan.k, run.num_intervals);
  EXPECT_EQ(plan.medoids.size(), run.num_intervals);
}

// ---------------------------------------------------------------------------
// Sampled runs
// ---------------------------------------------------------------------------

/// Trivial deterministic store: a std::map plus hit/miss counters.
class MapStore final : public SnapshotStore {
 public:
  SnapshotPtr get_or_warm(std::uint64_t key, const WarmFn& warm) override {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    auto snapshot = std::make_shared<const snapshot::SystemSnapshot>(warm());
    entries_.emplace(key, snapshot);
    return snapshot;
  }

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  std::map<std::uint64_t, SnapshotPtr> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

void expect_estimates_identical(const SampledEstimate& a, const SampledEstimate& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.miss_ratio),
            std::bit_cast<std::uint64_t>(b.miss_ratio));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.miss_ratio_ci_half),
            std::bit_cast<std::uint64_t>(b.miss_ratio_ci_half));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cpi), std::bit_cast<std::uint64_t>(b.cpi));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cpi_ci_half),
            std::bit_cast<std::uint64_t>(b.cpi_ci_half));
  EXPECT_EQ(a.detailed_intervals, b.detailed_intervals);
  EXPECT_EQ(a.total_intervals, b.total_intervals);
}

TEST(SampledRun, ProducesFiniteEstimateWithDeclaredShape) {
  const SampledEstimate estimate =
      run_sampled_mix(tiny_config(), eight_core_mix(), tiny_run(), nullptr, nullptr);
  EXPECT_GT(estimate.miss_ratio, 0.0);
  EXPECT_LE(estimate.miss_ratio, 1.0);
  EXPECT_GT(estimate.cpi, 0.0);
  EXPECT_TRUE(std::isfinite(estimate.miss_ratio_ci_half));
  EXPECT_TRUE(std::isfinite(estimate.cpi_ci_half));
  EXPECT_EQ(estimate.detailed_intervals, 3u);
  EXPECT_EQ(estimate.total_intervals, 8u);
}

TEST(SampledRun, IsBitIdenticalAcrossRepeats) {
  const SampledEstimate a =
      run_sampled_mix(tiny_config(), eight_core_mix(), tiny_run(), nullptr, nullptr);
  const SampledEstimate b =
      run_sampled_mix(tiny_config(), eight_core_mix(), tiny_run(), nullptr, nullptr);
  expect_estimates_identical(a, b);
}

TEST(SampledRun, StoreReuseDoesNotChangeBytes) {
  const auto config = tiny_config();
  const auto mix = eight_core_mix();
  const SampledEstimate bare =
      run_sampled_mix(config, mix, tiny_run(), nullptr, nullptr);

  MapStore store;
  const SampledEstimate first =
      run_sampled_mix(config, mix, tiny_run(), nullptr, &store);
  expect_estimates_identical(bare, first);
  EXPECT_EQ(store.misses(), 3u);  // one boundary per medoid
  EXPECT_EQ(store.hits(), 0u);

  // A second trial of the same mix hits every banked boundary and still
  // produces the identical bytes — the forked state is byte-equal to the
  // state the live system would have reached.
  const SampledEstimate second =
      run_sampled_mix(config, mix, tiny_run(), nullptr, &store);
  expect_estimates_identical(bare, second);
  EXPECT_EQ(store.misses(), 3u);
  EXPECT_EQ(store.hits(), 3u);
}

TEST(SampledRun, PooledSystemReuseDoesNotChangeBytes) {
  // The benchmark suite's replay path: a System acquired for (config, mix)
  // and handed to the six-argument run_sampled_mix gives the estimate the
  // five-argument overload computes on a System it builds itself.
  const auto config = tiny_config();
  const auto mix = eight_core_mix();
  const SampledEstimate bare =
      run_sampled_mix(config, mix, tiny_run(), nullptr, nullptr);

  harness::SystemPool pool;
  auto lease = pool.acquire(config, mix);
  const SampledEstimate leased =
      run_sampled_mix(config, mix, tiny_run(), nullptr, nullptr, lease.get());
  expect_estimates_identical(bare, leased);
}

// The six-argument overload runs on the caller's System as it stands: one
// built for another mix would, on a bank miss, warm that mix's state into
// an entry keyed for `mix`. It aborts instead.
using SampledRunDeath = ::testing::Test;

TEST(SampledRunDeath, SystemBuiltForAnotherMixAborts) {
  const auto config = tiny_config();
  sim::System system(config, trace::mix_from_names({"gzip", "mcf", "eon", "art", "gcc",
                                                    "bzip2", "sixtrack", "facerec"}));
  EXPECT_DEATH((void)run_sampled_mix(config, eight_core_mix(), tiny_run(), nullptr, nullptr,
                                     &system),
               "built for another");
}

TEST(SampledRun, DifferentMixesNeverShareSnapshotKeys) {
  MapStore store;
  const auto config = tiny_config();
  run_sampled_mix(config, eight_core_mix(), tiny_run(), nullptr, &store);
  const std::size_t after_first = store.misses();
  const auto other = trace::mix_from_names(
      {"gzip", "mcf", "eon", "art", "gcc", "bzip2", "sixtrack", "facerec"});
  run_sampled_mix(config, other, tiny_run(), nullptr, &store);
  // The second mix warms its own boundaries: all misses, no cross-mix hits.
  EXPECT_EQ(store.hits(), 0u);
  EXPECT_GT(store.misses(), after_first);
}

TEST(SampledRun, TracksFullDetailedRun) {
  // The extrapolated miss ratio must sit near the every-interval detailed
  // reference under the same measurement protocol (each interval measured
  // in isolation). The tolerance is loose — sampling is an estimator — but
  // tight enough to catch a broken weighting or a misaligned boundary
  // (those are 2x-class errors, not 15%).
  const auto config = tiny_config();
  const auto mix = eight_core_mix();
  SampledRunConfig run = tiny_run();
  run.k = 4;

  const SampledEstimate estimate = run_sampled_mix(config, mix, run, nullptr, nullptr);

  sim::System full(config, mix);
  full.warm_up(run.warmup_instructions);
  double misses = 0.0;
  double accesses = 0.0;
  for (std::uint32_t interval = 0; interval < run.num_intervals; ++interval) {
    full.reset_measurement();
    full.run(run.interval_instructions);
    const sim::SystemResults results = full.results();
    misses += static_cast<double>(results.l2_misses());
    accesses += static_cast<double>(results.l2_accesses());
  }
  const double full_ratio = misses / accesses;

  EXPECT_GT(full_ratio, 0.0);
  EXPECT_NEAR(estimate.miss_ratio, full_ratio, 0.15 * full_ratio)
      << "sampled " << estimate.miss_ratio << " vs full " << full_ratio;
}

TEST(SampledRun, MedoidIntervalsReproduceReferenceIntervalsExactly) {
  // The strong form of the boundary contract: skipped intervals are warmed
  // by the same run() the reference measures them with, so a sampled
  // medoid interval measures bit-for-bit what the every-interval reference
  // measures for that interval. The estimate must therefore be
  // *reconstructible* from the reference's per-interval numbers and the
  // published plan — the only freedom the estimator has is which intervals
  // it runs, never what they measure.
  const auto config = tiny_config();
  const auto mix = eight_core_mix();
  const SampledRunConfig run = tiny_run();

  const SamplingPlan plan = plan_mix(config, mix, run, nullptr);
  const SampledEstimate estimate = run_sampled_mix(config, mix, run, nullptr, nullptr);

  sim::System reference(config, mix);
  reference.warm_up(run.warmup_instructions);
  std::vector<double> interval_misses(run.num_intervals, 0.0);
  std::vector<double> interval_accesses(run.num_intervals, 0.0);
  for (std::uint32_t interval = 0; interval < run.num_intervals; ++interval) {
    reference.reset_measurement();
    reference.run(run.interval_instructions);
    const sim::SystemResults results = reference.results();
    interval_misses[interval] = static_cast<double>(results.l2_misses());
    interval_accesses[interval] = static_cast<double>(results.l2_accesses());
  }

  double weighted_misses = 0.0;
  double weighted_accesses = 0.0;
  for (std::uint32_t slot = 0; slot < plan.k; ++slot) {
    const std::uint32_t medoid = plan.medoids[slot];
    const double weight = static_cast<double>(plan.weights[slot]);
    weighted_misses += weight * interval_misses[medoid];
    weighted_accesses += weight * interval_accesses[medoid];
  }
  ASSERT_GT(weighted_accesses, 0.0);
  EXPECT_DOUBLE_EQ(estimate.miss_ratio, weighted_misses / weighted_accesses);
}

}  // namespace
}  // namespace bacp::sampling
