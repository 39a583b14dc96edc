#include "sampling/interval_features.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"
#include "msa/stack_profiler.hpp"
#include "trace/spec2000.hpp"
#include "trace/synthetic.hpp"

namespace bacp::sampling {

namespace {

/// Way stations sampled along the per-interval miss-ratio curve; clamped to
/// the profiler's stack depth, so with the default 72-way stack the last two
/// stations straddle the maximum assignable capacity.
constexpr std::array<WayCount, kCurveStations> kWayStations = {1, 2, 4, 8,
                                                               16, 32, 48, 72};

/// Feature vector from one interval's histogram delta (bins 0..K-1 = hits
/// by stack position, bin K = misses). Integer counts in, doubles out; an
/// interval whose sampled sets saw no accesses yields the zero vector,
/// which clusters all such quiet intervals together — exactly right.
std::vector<double> features_from_delta(std::span<const std::uint64_t> delta) {
  const std::size_t depth = delta.size() - 1;
  std::vector<double> features(kFeatureDim, 0.0);
  std::uint64_t total = 0;
  for (const std::uint64_t count : delta) total += count;
  if (total == 0) return features;
  const double scale = 1.0 / static_cast<double>(total);

  // Miss-ratio stations: 1 - hits-at-or-above-depth-w, from the hit-bin
  // prefix sums (the MSA inclusion projection evaluated at fixed ways).
  std::size_t feature = 0;
  std::uint64_t prefix = 0;
  std::size_t bin = 0;
  for (const WayCount station : kWayStations) {
    const std::size_t limit = std::min<std::size_t>(station, depth);
    while (bin < limit) prefix += delta[bin++];
    features[feature++] = 1.0 - static_cast<double>(prefix) * scale;
  }

  // Coarse reuse-distance bands: the K hit bins folded into kReuseBands
  // contiguous groups, as access-mass fractions.
  for (std::size_t band = 0; band < kReuseBands; ++band) {
    const std::size_t lo = band * depth / kReuseBands;
    const std::size_t hi = (band + 1) * depth / kReuseBands;
    std::uint64_t mass = 0;
    for (std::size_t i = lo; i < hi; ++i) mass += delta[i];
    features[feature++] = static_cast<double>(mass) * scale;
  }

  // Phase signature: cold-miss fraction and mean normalized hit depth.
  features[feature++] = static_cast<double>(delta[depth]) * scale;
  std::uint64_t hits = 0;
  std::uint64_t depth_weighted = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    hits += delta[i];
    depth_weighted += delta[i] * (i + 1);
  }
  features[feature++] = hits == 0 ? 0.0
                                  : static_cast<double>(depth_weighted) /
                                        (static_cast<double>(hits) *
                                         static_cast<double>(depth));
  return features;
}

}  // namespace

// GCC 12 with -fsanitize=thread -O2 miscounts the offset of the inlined
// vector deallocations below and raises -Wfree-nonheap-object on perfectly
// heap-owned storage (same class of false positive the tsan preset already
// silences with -Wno-restrict). Scoped suppression, not a preset-wide one.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"
#endif

WorkloadIntervalProfile profile_workload_intervals(
    const sim::SystemConfig& config, std::size_t workload, CoreId core,
    const IntervalProfileConfig& intervals) {
  BACP_ASSERT(intervals.num_intervals > 0, "profiling requires at least one interval");
  BACP_ASSERT(intervals.interval_instructions > 0,
              "profiling requires a non-empty interval");
  const auto& model = trace::spec2000_suite().at(workload);

  // The exact stream a System would bind to this slot: same geometry knobs,
  // same seed, same core stamp (the generator's streams are core-dependent
  // and mix-independent — see System's constructor).
  trace::GeneratorConfig generator_config;
  generator_config.num_sets = config.sets_per_bank;
  generator_config.max_depth = config.geometry.total_ways();
  generator_config.core = core;
  trace::SyntheticTraceGenerator generator(model, generator_config, config.seed);
  msa::StackProfiler profiler(config.profiler);

  // Equal-instruction intervals -> APKI-proportional access counts, the
  // same quota rule System::run() applies.
  const std::uint64_t accesses_per_interval = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(intervals.interval_instructions) * model.l2_apki /
             1000.0));

  WorkloadIntervalProfile profile;
  profile.features.reserve(intervals.num_intervals);
  profile.sampled_accesses.reserve(intervals.num_intervals);
  const std::size_t bins = profiler.histogram().num_bins();
  std::vector<std::uint64_t> previous(bins, 0);
  std::vector<std::uint64_t> delta(bins, 0);
  std::uint64_t previous_sampled = 0;
  for (std::uint32_t interval = 0; interval < intervals.num_intervals; ++interval) {
    for (std::uint64_t i = 0; i < accesses_per_interval; ++i) {
      profiler.observe(generator.next().block);
    }
    // Cumulative histogram minus the last boundary's counters — no decay()
    // is ever applied here, so the delta is exactly this interval's mass.
    for (std::size_t bin = 0; bin < bins; ++bin) {
      const std::uint64_t now = profiler.histogram().bin(bin);
      delta[bin] = now - previous[bin];
      previous[bin] = now;
    }
    profile.features.push_back(features_from_delta(delta));
    profile.sampled_accesses.push_back(profiler.sampled_accesses() - previous_sampled);
    previous_sampled = profiler.sampled_accesses();
  }
  return profile;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

IntervalProfileBank::ProfilePtr IntervalProfileBank::get(std::size_t workload,
                                                         CoreId core) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(workload) << 16) | static_cast<std::uint64_t>(core);
  std::shared_future<ProfilePtr> future;
  std::shared_ptr<std::promise<ProfilePtr>> owned;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      future = it->second;
    } else {
      owned = std::make_shared<std::promise<ProfilePtr>>();
      future = owned->get_future().share();
      entries_.emplace(key, future);
    }
  }
  if (owned) {
    // Profile outside the lock: other (workload, core) pairs proceed
    // concurrently, and waiters on this pair block on the future.
    try {
      owned->set_value(std::make_shared<const WorkloadIntervalProfile>(
          profile_workload_intervals(config_, workload, core, intervals_)));
    } catch (...) {
      owned->set_exception(std::current_exception());
    }
  }
  return future.get();
}

}  // namespace bacp::sampling
