#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace bacp::snapshot {
class Writer;
class Reader;
}  // namespace bacp::snapshot

namespace bacp::audit {
class ComponentAuditor;
}  // namespace bacp::audit

namespace bacp::mem {

/// Main-memory model matching Table I: fixed 260-cycle access latency and a
/// 64 GB/s channel. At the 4 GHz core clock, 64 GB/s moves one 64-byte
/// cache line every 4 cycles, modelled as a single serialized channel slot
/// (a token bucket of line transfers). Demand reads wait for both the slot
/// and the access latency; writebacks consume a slot but nothing waits on
/// them.
struct DramConfig {
  Cycle access_latency = 260;
  Cycle cycles_per_line = 4;  ///< 64 B line / (64 GB/s at 4 GHz)
};

struct DramStats {
  std::uint64_t demand_reads = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t total_channel_wait = 0;  ///< queueing behind the channel
};

/// Exports under "dram.": demand_reads, writebacks, channel_wait_cycles.
void export_stats(const DramStats& stats, obs::Registry& registry);

class Dram {
 public:
  explicit Dram(const DramConfig& config) : config_(config) {}

  /// Schedules a demand line read issued at `now`; returns the cycle the
  /// line is available at the L2.
  Cycle read(Cycle now);

  /// Schedules a dirty-line writeback; occupies channel bandwidth only.
  void writeback(Cycle now);

  const DramConfig& config() const { return config_; }
  const DramStats& stats() const { return stats_; }
  void clear_stats() { stats_ = DramStats{}; }

  /// Serializes channel occupancy and statistics.
  void save_state(snapshot::Writer& writer) const;
  void restore_state(snapshot::Reader& reader);

 private:
  friend class audit::ComponentAuditor;

  Cycle claim_channel(Cycle now);

  // NOLINTNEXTLINE(bacp-snapshot-fields): immutable model constants (Table I); pinned by config_digest
  DramConfig config_;
  Cycle channel_free_at_ = 0;
  DramStats stats_;
};

/// Miss-status holding registers: the per-core cap on outstanding memory
/// requests (Table I: 16 requests / core). The core model consults this to
/// bound its memory-level parallelism.
struct MshrConfig {
  std::uint32_t entries_per_core = 16;
};

}  // namespace bacp::mem
