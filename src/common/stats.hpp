#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace bacp::common {

/// Single-pass streaming statistics (Welford). Used for latency, queue
/// depth and Monte-Carlo result summaries.
class StreamingStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Geometric mean of strictly positive values; the paper reports GM columns
/// in Figs. 8 and 9. Aborts on non-positive input.
double geometric_mean(std::span<const double> values);

/// Arithmetic mean.
double arithmetic_mean(std::span<const double> values);

/// p-th percentile (0..100) by linear interpolation between order
/// statistics (the numpy/R-7 definition): rank = p/100 * (n-1), value =
/// sorted[floor] + frac * (sorted[floor+1] - sorted[floor]). Symmetric at
/// the endpoints (p=0 -> min, p=100 -> max) and unbiased on small samples.
/// Sorts a copy; use percentile_sorted when taking many percentiles of one
/// sample.
double percentile(std::span<const double> values, double p);

/// percentile() over data the caller has already sorted ascending (no copy,
/// no re-sort). Aborts in debug builds if the span is not sorted.
double percentile_sorted(std::span<const double> sorted, double p);

/// Population-weighted mean with a normal-approximation confidence
/// interval, the extrapolation primitive of the sampled-interval estimator:
/// `values[i]` measured on a stratum carrying `weights[i]` population
/// members. The standard error uses the reliability-weights form of the
/// weighted sample variance, so scaling all weights by a constant changes
/// nothing.
struct WeightedMeanCi {
  double mean = 0.0;
  double std_error = 0.0;
  double ci_half = 0.0;  ///< z * std_error
  double weight_total = 0.0;

  double ci_low() const { return mean - ci_half; }
  double ci_high() const { return mean + ci_half; }
};

/// Aborts on empty input, mismatched spans, or non-positive total weight.
/// With a single stratum (or all weight on one value) the standard error is
/// 0 — the caller sees a degenerate interval, not a fabricated one.
WeightedMeanCi weighted_mean_ci(std::span<const double> values,
                                std::span<const double> weights, double z = 1.96);

/// Safe ratio: returns `fallback` when the denominator is zero.
inline double ratio(double numerator, double denominator, double fallback = 0.0) {
  return denominator == 0.0 ? fallback : numerator / denominator;
}

}  // namespace bacp::common
