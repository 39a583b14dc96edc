#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "sim/system.hpp"
#include "trace/mix.hpp"

namespace bacp::harness {

/// A sampled trial constructs its System; nothing is pooled or rewound.
/// This shell keeps the names the benchmark suite (bench/suite) calls:
/// acquire() builds a fresh sim::System(config, mix) on every call and
/// counts it, so hits() is always 0 and misses() counts constructions.
class SystemPool {
 public:
  using Lease = std::unique_ptr<sim::System>;

  Lease acquire(const sim::SystemConfig& config, const trace::WorkloadMix& mix) {
    ++constructions_;
    return std::make_unique<sim::System>(config, mix);
  }

  std::uint64_t hits() const { return 0; }
  std::uint64_t misses() const { return constructions_.load(); }

 private:
  std::atomic<std::uint64_t> constructions_{0};
};

}  // namespace bacp::harness
