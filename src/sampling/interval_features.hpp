#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "sim/system_config.hpp"

namespace bacp::sampling {

/// How a workload's trace is cut into profiling intervals. The interval
/// length is in committed instructions per core (the unit System::run and
/// warm_up use); each interval's L2-access count follows the workload's
/// APKI, exactly as the simulator's equal-instruction slices do.
struct IntervalProfileConfig {
  std::uint32_t num_intervals = 32;
  std::uint64_t interval_instructions = 50'000;
};

/// Dimensionality of one interval's feature vector: miss-ratio stations
/// along the MSA curve, coarse reuse-distance bands, and two phase-signature
/// scalars (cold-miss fraction, mean normalized hit depth).
inline constexpr std::size_t kCurveStations = 8;
inline constexpr std::size_t kReuseBands = 8;
inline constexpr std::size_t kFeatureDim = kCurveStations + kReuseBands + 2;

/// Per-interval feature vectors for one (workload, core slot) pair, plus
/// the sampled-access mass each interval contributed (diagnostics; the
/// features themselves are already normalized per interval).
struct WorkloadIntervalProfile {
  std::vector<std::vector<double>> features;  ///< num_intervals x kFeatureDim
  std::vector<std::uint64_t> sampled_accesses;  ///< per interval
};

/// Profiles workload `workload` bound to core slot `core` under `config`'s
/// trace geometry and seed: replays the exact synthetic stream a System
/// built from (config, any mix binding this workload to this core) would
/// generate, through a standalone StackProfiler, and cuts the cumulative
/// stack-distance histogram into per-interval deltas. All-integer until the
/// final normalization, so the vectors are bit-identical across threads
/// and processes. The stream depends on (workload, core, config.seed) only
/// — never on the co-runners — which is what makes profiles cacheable
/// across Monte-Carlo mixes.
WorkloadIntervalProfile profile_workload_intervals(const sim::SystemConfig& config,
                                                   std::size_t workload, CoreId core,
                                                   const IntervalProfileConfig& intervals);

/// Concurrent memoization of profile_workload_intervals over (workload,
/// core) for one fixed (config, intervals): the first caller of a pair
/// profiles outside the lock while racing callers block on a shared future
/// (the SnapshotCache discipline). One bank serves a whole Monte-Carlo
/// sweep — a suite of W workloads over C core slots needs at most W x C
/// profiling passes no matter how many trials run.
class IntervalProfileBank {
 public:
  using ProfilePtr = std::shared_ptr<const WorkloadIntervalProfile>;

  IntervalProfileBank(const sim::SystemConfig& config,
                      const IntervalProfileConfig& intervals)
      : config_(config), intervals_(intervals) {}

  ProfilePtr get(std::size_t workload, CoreId core);

  const IntervalProfileConfig& intervals() const { return intervals_; }

 private:
  sim::SystemConfig config_;
  IntervalProfileConfig intervals_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::shared_future<ProfilePtr>> entries_;
};

}  // namespace bacp::sampling
