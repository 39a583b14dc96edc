#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "obs/json.hpp"

namespace bacp::obs {

/// Monotonically accumulated 64-bit event count (L2 misses, promotions,
/// DRAM reads). `set` exists for result snapshots that copy a count frozen
/// elsewhere (e.g. the per-quota core snapshots).
class Counter {
 public:
  void add(std::uint64_t amount = 1) { value_ += amount; }
  void set(std::uint64_t value) { value_ = value; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (miss ratio, mean CPI, allocated ways).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Streaming summary plus a log2-bucketed histogram of observed samples
/// (queue depths, per-bank request counts, trial ratios).
class Distribution {
 public:
  static constexpr std::size_t kNumBins = 64;

  Distribution() : histogram_(kNumBins) {}

  void observe(double value);

  std::uint64_t count() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }
  double stddev() const { return stats_.stddev(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  const common::StreamingStats& stats() const { return stats_; }
  /// Bin i holds samples with floor(log2(max(value, 1))) == i (negative
  /// samples land in bin 0).
  const common::Histogram& histogram() const { return histogram_; }

 private:
  common::StreamingStats stats_;
  common::Histogram histogram_;
};

/// Named metric store: the backing of sim::SystemResults and of every
/// JSON artifact the harness emits. Names are hierarchical by
/// convention ("nuca.promotions", "dram.demand_reads"). Lookup creates on
/// first use; iteration is name-ordered, so serialization is deterministic.
///
/// A kind owns its name: registering "x" as a counter and again as a gauge
/// is a programming error (asserted), not a silent shadow.
///
/// Thread model: thread-COMPATIBLE, not thread-safe — a Registry is owned
/// by exactly one simulation/trial at a time (sweeps give every variant its
/// own System and thus its own registries), so it carries no lock and no
/// BACP_GUARDED_BY annotations on purpose. The mutex-guarded observability
/// class is PhaseTimers (common/mutex.hpp capabilities, checked by clang
/// -Wthread-safety).
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Distribution& distribution(std::string_view name);

  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;

  /// Value lookups for typed accessors; absent names read as the fallback.
  std::uint64_t counter_value(std::string_view name, std::uint64_t fallback = 0) const;
  double gauge_value(std::string_view name, double fallback = 0.0) const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + distributions_.size();
  }
  bool empty() const { return size() == 0; }

  /// {"counters": {...}, "gauges": {...}, "distributions": {...}} with
  /// name-sorted members; distributions carry count/mean/stddev/min/max
  /// and the non-empty histogram bins.
  Json to_json() const;

 private:
  void assert_unclaimed(std::string_view name, const void* owner) const;

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Distribution, std::less<>> distributions_;
};

}  // namespace bacp::obs
