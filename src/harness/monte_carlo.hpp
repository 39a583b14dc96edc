#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "obs/report.hpp"
#include "partition/partition_types.hpp"
#include "trace/mix.hpp"

namespace bacp::harness {

/// Configuration of the paper's Monte-Carlo methodology (Section IV-A):
/// random 8-workload mixes drawn with repetition from the 26-component
/// suite (a C(26+8-1, 8) ~ 14M state space), evaluated by MSA projection
/// rather than detailed simulation.
struct MonteCarloConfig {
  std::size_t trials = 1000;
  std::uint64_t seed = 2009;
  partition::CmpGeometry geometry;
  WayCount curve_depth = 128;
  std::size_t num_threads = 0;  ///< 0 = hardware concurrency
  /// Sampled-interval simulation (bacp::sampling): when > 0, every trial's
  /// mix is additionally run through the detailed simulator over
  /// `sampled_k` k-medoid-selected representative intervals and the full
  /// run is extrapolated with population weights and CIs. The analytic
  /// projection columns are computed either way; 0 = analytic only.
  std::uint32_t sampled_k = 0;
  std::uint32_t sampled_intervals = 96;
  std::uint64_t sampled_interval_instructions = 50'000;
  std::uint64_t sampled_warmup = 500'000;
  /// Directory for file-backed boundary snapshots shared across repeated
  /// sweeps and processes (SnapshotCache::set_file_bank); empty = in-memory
  /// reuse only. Sampled mode only — analytic trials never snapshot.
  std::string snapshot_bank;
  /// Snapshot-bank read path: mmap zero-copy (default) or buffered reads
  /// (--mmap=off). Pure speed dial, byte-identical results.
  bool mmap = true;

  /// The standard sweep flags (--trials, --seed, --threads) for binaries
  /// that run the Monte-Carlo evaluation; pair with from_args().
  static std::vector<std::pair<std::string, std::string>> cli_flags();

  /// Builds a config from parsed flags; an absent flag keeps its built-in
  /// default. An unusable --snapshot-bank exits 2, and so does a zero
  /// --trials, --sampled-intervals or --sampled-interval-instr.
  static MonteCarloConfig from_args(const common::ArgParser& parser);
};

/// One random mix, with projected total miss counts under the three
/// capacity assignments compared in Fig. 7.
struct TrialResult {
  trace::WorkloadMix mix;
  double fixed_share_misses = 0.0;   ///< static even split (16 ways/core)
  double unrestricted_misses = 0.0;  ///< UCP-style, no banking restrictions
  double bank_aware_misses = 0.0;    ///< the paper's scheme

  /// Sampled-interval detailed-simulation extrapolation for this mix
  /// (sampled_k > 0 sweeps only); `evaluated` distinguishes "sampling off"
  /// from a genuine zero estimate, so finalize_monte_carlo can refuse a
  /// trial vector that mixes the two modes.
  struct SampledTrial {
    bool evaluated = false;
    double miss_ratio = 0.0;
    double miss_ratio_ci_half = 0.0;
    double cpi = 0.0;
    double cpi_ci_half = 0.0;
  };
  SampledTrial sampled;

  double unrestricted_ratio() const { return unrestricted_misses / fixed_share_misses; }
  double bank_aware_ratio() const { return bank_aware_misses / fixed_share_misses; }
};

struct MonteCarloSummary {
  std::vector<TrialResult> trials;
  double mean_unrestricted_ratio = 0.0;  ///< paper: ~0.70 (30% reduction)
  double mean_bank_aware_ratio = 0.0;    ///< paper: ~0.73 (27% reduction)
  /// Sampled-sweep headline means; stay zero when sampling is off.
  double mean_sampled_miss_ratio = 0.0;
  double mean_sampled_cpi = 0.0;
};

/// Runs the sweep across a thread pool and finalizes it. Deterministic for
/// a fixed seed regardless of thread count: trial t draws from its own RNG
/// stream Rng(seed, t), so it depends only on the seed and its index.
MonteCarloSummary run_monte_carlo(const MonteCarloConfig& config);

/// Computes the headline mean ratios from a *complete* trial vector (every
/// slot evaluated). run_monte_carlo calls it, and so can a caller that
/// assembles the trial vector itself; the zero-miss assert fires on any
/// unevaluated slot, so a summary with holes cannot be finalized by
/// accident.
void finalize_monte_carlo(MonteCarloSummary& summary);

/// The canonical Fig. 7 result artifact: headline mean ratios, the outlier
/// count (mixes where bank-aware lost to the fixed split), a ratio
/// distribution summary, and the sweep parameters as meta. Byte-identical
/// for a fixed seed regardless of config.num_threads — the determinism
/// contract the observability layer is tested against.
obs::Report monte_carlo_report(const MonteCarloConfig& config,
                               const MonteCarloSummary& summary);

}  // namespace bacp::harness
