#include "sim/system_config.hpp"

#include <bit>
#include <cstdint>

#include "common/assert.hpp"
#include "common/fnv1a.hpp"

namespace bacp::sim {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::NoPartition: return "No-partitions";
    case PolicyKind::EqualPartition: return "Equal-partitions";
    case PolicyKind::BankAware: return "Bank-aware";
    case PolicyKind::External: return "External";
  }
  return "?";
}

SystemConfig SystemConfig::baseline() {
  SystemConfig config;
  config.finalize();
  return config;
}

void SystemConfig::finalize() {
  noc.num_cores = geometry.num_cores;
  noc.num_banks = geometry.num_banks;
  profiler.num_sets = sets_per_bank;
  // The profiler stack is as deep as the maximum assignable capacity
  // (paper Section III-A's third reduction technique).
  profiler.profiled_ways = geometry.max_assignable_ways();
  validate();
}

void SystemConfig::validate() const {
  geometry.validate();
  BACP_ASSERT(is_pow2(l1_sets), "l1_sets must be a power of two");
  BACP_ASSERT(l1_ways >= 1, "L1 needs at least one way");
  BACP_ASSERT(is_pow2(sets_per_bank), "sets_per_bank must be a power of two");
  BACP_ASSERT(noc.num_cores == geometry.num_cores, "NoC core count mismatch");
  BACP_ASSERT(noc.num_banks == geometry.num_banks, "NoC bank count mismatch");
  BACP_ASSERT(profiler.num_sets == sets_per_bank, "profiler set count mismatch");
  BACP_ASSERT(epoch_cycles > 0, "epoch_cycles must be positive");
}

// Fingerprint completeness: the digest below serializes every field of
// SystemConfig and of each nested config struct. These size checks make
// "someone added a field but not a digest line" a compile error instead of
// a silently-stale snapshot cache key. When one fires, extend
// config_digest() with the new field, then update the expected size.
static_assert(sizeof(partition::CmpGeometry) == 12, "extend config_digest()");
static_assert(sizeof(noc::NocConfig) == 32, "extend config_digest()");
static_assert(sizeof(mem::DramConfig) == 16, "extend config_digest()");
static_assert(sizeof(mem::MshrConfig) == 4, "extend config_digest()");
static_assert(sizeof(msa::ProfilerConfig) == 16, "extend config_digest()");
static_assert(sizeof(SystemConfig) == 144, "extend config_digest()");

namespace {

/// Streaming FNV-1a over 64-bit words (each field widened to u64 before
/// hashing, so field widths can change without reshuffling the stream).
class FieldDigest {
 public:
  void u64(std::uint64_t value) { hash_ = common::fnv1a_fold(hash_, value); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = common::kFnv1aBasis;
};

}  // namespace

std::uint64_t config_digest(const SystemConfig& config, const trace::WorkloadMix& mix) {
  FieldDigest digest;
  digest.u64(config.geometry.num_cores);
  digest.u64(config.geometry.num_banks);
  digest.u64(config.geometry.ways_per_bank);
  digest.u64(static_cast<std::uint64_t>(config.policy));
  digest.u64(static_cast<std::uint64_t>(config.aggregation));
  digest.u64(config.l1_sets);
  digest.u64(config.l1_ways);
  digest.u64(config.l1_latency);
  digest.u64(config.sets_per_bank);
  digest.u64(config.noc.num_cores);
  digest.u64(config.noc.num_banks);
  digest.u64(config.noc.cycles_per_hop);
  digest.u64(config.noc.max_hops);
  digest.u64(config.noc.bank_busy_cycles);
  digest.u64(config.dram.access_latency);
  digest.u64(config.dram.cycles_per_line);
  digest.u64(config.mshr.entries_per_core);
  digest.u64(config.profiler.num_sets);
  digest.u64(config.profiler.set_sampling);
  digest.u64(config.profiler.partial_tag_bits);
  digest.u64(config.profiler.profiled_ways);
  digest.u64(config.epoch_cycles);
  digest.u64(config.seed);
  digest.f64(config.gap_jitter);
  digest.u64(mix.workload_indices.size());
  for (const std::size_t index : mix.workload_indices) digest.u64(index);
  return digest.value();
}

}  // namespace bacp::sim
