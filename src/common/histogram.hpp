#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace bacp::common {

/// Dense integer histogram with saturating decay. The MSA profiler keeps one
/// counter per LRU stack position (Fig. 2 of the paper); the epoch controller
/// halves counters between epochs so stale phases age out.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::size_t num_bins) : bins_(num_bins, 0) {}

  void increment(std::size_t bin, std::uint64_t amount = 1) {
    BACP_DASSERT(bin < bins_.size(), "histogram bin out of range");
    bins_[bin] += amount;
    total_ += amount;
  }

  std::uint64_t bin(std::size_t i) const { return bins_.at(i); }
  std::size_t num_bins() const { return bins_.size(); }
  std::uint64_t total() const { return total_; }

  std::span<const std::uint64_t> bins() const { return bins_; }

  /// Exponential decay: halve every counter. Used at epoch boundaries so the
  /// profile tracks the current program phase rather than all history.
  void decay_halve() {
    total_ = 0;
    for (auto& b : bins_) {
      b >>= 1;
      total_ += b;
    }
  }

  void clear() {
    bins_.assign(bins_.size(), 0);
    total_ = 0;
  }

  /// Normalized bin fractions (empty histogram -> all zeros).
  std::vector<double> normalized() const {
    std::vector<double> out(bins_.size(), 0.0);
    if (total_ == 0) return out;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      out[i] = static_cast<double>(bins_[i]) / static_cast<double>(total_);
    }
    return out;
  }

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

}  // namespace bacp::common
