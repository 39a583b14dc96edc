#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "obs/json.hpp"

namespace bacp::obs {

/// Streaming summary plus a log2-bucketed histogram of observed samples
/// (per-bank request counts, trial ratios). Bin i holds samples with
/// floor(log2(max(value, 1))) == i (negative samples land in bin 0).
class Distribution {
 public:
  static constexpr std::size_t kNumBins = 64;

  Distribution() : histogram_(kNumBins) {}

  void observe(double value);

  /// {"count", "mean", "stddev", "min", "max", "bins"}, where bins lists
  /// the non-empty histogram bins as {"log2": i, "count": n}.
  Json to_json() const;

 private:
  common::StreamingStats stats_;
  common::Histogram histogram_;
};

}  // namespace bacp::obs
