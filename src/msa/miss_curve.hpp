#pragma once

#include <span>
#include <vector>

#include "common/histogram.hpp"
#include "common/types.hpp"
#include "trace/workload_model.hpp"

namespace bacp::msa {

/// Projected misses as a function of allocated ways, derived from an MSA
/// LRU histogram via the inclusion property (paper Section III-A): with w
/// ways, every access whose stack distance exceeds w becomes a miss, so
///   misses(w) = total_accesses - sum of hits at depths 1..w.
/// Values are doubles so curves can be weighted by per-core access rates
/// before policies compare Marginal Utilities across cores.
class MissRatioCurve {
 public:
  MissRatioCurve() = default;

  /// hits_by_depth[i] = hits observed at stack distance i+1;
  /// deep_misses = accesses beyond the deepest profiled position (cold
  /// misses plus beyond-capacity reuse).
  MissRatioCurve(std::vector<double> hits_by_depth, double deep_misses);

  /// From a profiler histogram whose final bin is the miss counter.
  static MissRatioCurve from_histogram(const common::Histogram& histogram);

  /// Analytic curve of a workload model (ground truth for the profiler
  /// accuracy tests), normalized to one access total.
  static MissRatioCurve from_model(const trace::WorkloadModel& model,
                                   WayCount max_depth);

  /// Total accesses in the curve (hits + deep misses).
  double total() const { return total_; }

  /// Deepest way count the curve can project (== hits_by_depth.size()).
  WayCount max_ways() const { return static_cast<WayCount>(prefix_hits_.size()); }

  /// Projected miss count with `ways` allocated ways (`ways` may be 0, and
  /// is clamped to max_ways() above).
  double miss_count(WayCount ways) const;

  /// Raw cumulative-hits representation — prefix_hits()[w-1] = hits at
  /// depth <= w — for partition::unrestricted_partition's lookahead scan,
  /// which reads it contiguously; miss_count() is the reference lookup.
  std::span<const double> prefix_hits() const { return prefix_hits_; }

  /// miss_count / total (0 if the curve is empty).
  double miss_ratio(WayCount ways) const;

  /// Curve with every count multiplied by `factor` (used to weight cores by
  /// their access intensity so miss *counts*, not ratios, are compared).
  MissRatioCurve scaled(double factor) const;

  bool empty() const { return total_ == 0.0; }

 private:
  std::vector<double> prefix_hits_;  // prefix_hits_[w-1] = hits at depth <= w
  double total_ = 0.0;
};

}  // namespace bacp::msa
