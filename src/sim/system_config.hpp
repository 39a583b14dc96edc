#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "mem/dram.hpp"
#include "msa/stack_profiler.hpp"
#include "noc/noc.hpp"
#include "nuca/dnuca_cache.hpp"
#include "partition/partition_types.hpp"
#include "trace/mix.hpp"

namespace bacp::sim {

/// The three partitioning schemes of the paper's detailed evaluation
/// (Section IV-B, Figs. 8 and 9), plus `External` for session-style
/// drivers (bacp::sched) that compute plans above the simulator and
/// install them via System::install_partition() — no epoch boundary ever
/// repartitions on its own under External.
enum class PolicyKind {
  NoPartition,     ///< one shared LRU pool
  EqualPartition,  ///< static private 2 MB per core
  BankAware,       ///< dynamic MSA-driven Bank-aware partitioning
  External,        ///< plans installed by the caller (sched::Service)
};

const char* to_string(PolicyKind kind);

/// Full-system configuration; defaults reproduce Table I (scaled for
/// laptop-length simulations where noted).
struct SystemConfig {
  partition::CmpGeometry geometry;  ///< 8 cores, 16 x 1MB banks, 8-way

  PolicyKind policy = PolicyKind::BankAware;
  nuca::AggregationKind aggregation = nuca::AggregationKind::Parallel;

  // L1: 64 KB, 2-way, 64 B blocks, 3-cycle access (Table I).
  std::uint32_t l1_sets = 512;
  WayCount l1_ways = 2;
  Cycle l1_latency = 3;

  // L2 bank geometry: 1 MB, 8-way, 64 B blocks -> 2048 sets.
  std::uint32_t sets_per_bank = 2048;

  noc::NocConfig noc;    ///< 10..70-cycle bank access window
  mem::DramConfig dram;  ///< 260 cycles, 64 GB/s
  mem::MshrConfig mshr;  ///< 16 outstanding requests / core

  msa::ProfilerConfig profiler;  ///< 12-bit tags, 1-in-32 sets, 72 ways

  /// Repartition interval. The paper uses 100M-cycle epochs over 200M+
  /// instruction slices; the default here is proportionally scaled so the
  /// shipped benchmarks run in seconds. Override for full-length runs.
  Cycle epoch_cycles = 8'000'000;

  std::uint64_t seed = 42;
  double gap_jitter = 0.5;

  /// Table I baseline, with cross-field consistency applied (NoC core/bank
  /// counts and profiler set count follow the geometry).
  static SystemConfig baseline();

  /// Re-derives dependent fields after edits; call before constructing a
  /// System if geometry fields were changed.
  void finalize();

  void validate() const;
};

/// Fingerprint over *every* SystemConfig field plus the workload mix: two
/// (config, mix) pairs warm up to byte-identical state iff their digests
/// match, so the snapshot cache keys on this value and snapshot restore
/// asserts it. The implementation serializes each field explicitly and
/// static_asserts the struct sizes, so adding a config field without
/// extending the digest fails the build (fingerprint completeness).
std::uint64_t config_digest(const SystemConfig& config, const trace::WorkloadMix& mix);

}  // namespace bacp::sim
