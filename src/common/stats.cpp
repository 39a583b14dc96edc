#include "common/stats.hpp"

#include <algorithm>

namespace bacp::common {

double geometric_mean(std::span<const double> values) {
  BACP_ASSERT(!values.empty(), "geometric_mean of an empty range");
  double log_sum = 0.0;
  for (double v : values) {
    BACP_ASSERT(v > 0.0, "geometric_mean requires strictly positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double arithmetic_mean(std::span<const double> values) {
  BACP_ASSERT(!values.empty(), "arithmetic_mean of an empty range");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double percentile_sorted(std::span<const double> sorted, double p) {
  BACP_ASSERT(!sorted.empty(), "percentile of an empty range");
  BACP_ASSERT(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
  BACP_DASSERT(std::is_sorted(sorted.begin(), sorted.end()),
               "percentile_sorted input must be ascending");
  const std::size_t n = sorted.size();
  if (n == 1) return sorted.front();
  // Linear interpolation between order statistics. The rank is clamped so
  // floating-point overshoot at p ~ 100 (p/100 * (n-1) landing an ulp past
  // n-1) can never index out of range or extrapolate past the max.
  const double rank =
      std::clamp(p / 100.0 * static_cast<double>(n - 1), 0.0,
                 static_cast<double>(n - 1));
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double percentile(std::span<const double> values, double p) {
  BACP_ASSERT(!values.empty(), "percentile of an empty range");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

WeightedMeanCi weighted_mean_ci(std::span<const double> values,
                                std::span<const double> weights, double z) {
  BACP_ASSERT(!values.empty(), "weighted_mean_ci of an empty range");
  BACP_ASSERT(values.size() == weights.size(),
              "weighted_mean_ci spans must have equal length");
  BACP_ASSERT(z >= 0.0, "weighted_mean_ci z must be non-negative");
  double weight_sum = 0.0;
  double weight_sq_sum = 0.0;
  double weighted_value_sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    BACP_ASSERT(weights[i] >= 0.0, "weighted_mean_ci weights must be non-negative");
    weight_sum += weights[i];
    weight_sq_sum += weights[i] * weights[i];
    weighted_value_sum += weights[i] * values[i];
  }
  BACP_ASSERT(weight_sum > 0.0, "weighted_mean_ci needs positive total weight");

  WeightedMeanCi result;
  result.weight_total = weight_sum;
  result.mean = weighted_value_sum / weight_sum;

  // Reliability-weights (frequency-invariant) sample variance:
  //   s^2 = sum(w (x - mean)^2) / (W - W2/W),  SE = s * sqrt(W2) / W.
  // The denominator vanishes when all weight sits on one stratum; the
  // interval then degenerates to zero width rather than inventing spread.
  double weighted_sq_dev = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double dev = values[i] - result.mean;
    weighted_sq_dev += weights[i] * dev * dev;
  }
  const double denominator = weight_sum - weight_sq_sum / weight_sum;
  if (denominator > 0.0) {
    const double variance = weighted_sq_dev / denominator;
    result.std_error = std::sqrt(variance * weight_sq_sum) / weight_sum;
  }
  result.ci_half = z * result.std_error;
  return result;
}

}  // namespace bacp::common
