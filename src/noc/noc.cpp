#include "noc/noc.hpp"

#include <algorithm>
#include <span>

#include "common/assert.hpp"
#include "snapshot/codec.hpp"

namespace bacp::noc {

Noc::Noc(const NocConfig& config)
    : config_(config), bank_free_at_(config.num_banks, 0) {
  BACP_ASSERT(config_.num_cores >= 1, "NoC needs cores");
  BACP_ASSERT(config_.num_banks >= config_.num_cores, "NoC needs a bank per core");
  BACP_ASSERT(config_.cycles_per_hop >= 1, "hop latency must be positive");
  BACP_ASSERT(config_.max_hops >= 1, "max_hops must be positive");
  stats_.bank_requests.assign(config_.num_banks, 0);
}

std::uint32_t Noc::hops(CoreId core, BankId bank) const {
  BACP_DASSERT(core < config_.num_cores, "core out of range");
  BACP_DASSERT(bank < config_.num_banks, "bank out of range");
  const bool is_center = bank >= config_.num_cores;
  const std::uint32_t column = is_center ? bank - config_.num_cores : bank;
  const std::uint32_t horizontal = column > core ? column - core : core - column;
  // Local row: adjacent access costs one hop-unit (10 cycles); each column
  // of distance adds one. Center row: one extra vertical unit.
  const std::uint32_t units = std::max(1u, horizontal) + (is_center ? 1u : 0u);
  return std::min(units, config_.max_hops);
}

Cycle Noc::request(CoreId core, BankId bank, Cycle now) {
  const Cycle travel = access_latency(core, bank);
  const Cycle arrival = now + travel / 2;  // request flight: half round trip
  Cycle& free_at = bank_free_at_[bank];
  const Cycle service_start = std::max(arrival, free_at);
  stats_.total_queue_cycles += service_start - arrival;
  free_at = service_start + config_.bank_busy_cycles;
  ++stats_.bank_requests[bank];
  return service_start + config_.bank_busy_cycles + travel - travel / 2;
}

void Noc::migrate(BankId from, BankId to, Cycle now) {
  BACP_DASSERT(from < config_.num_banks && to < config_.num_banks,
               "bank out of range");
  ++stats_.migration_transfers;
  // The destination bank absorbs the write; the source port is assumed
  // dual-ported for reads (migrations are already off the critical path).
  Cycle& free_at = bank_free_at_[to];
  free_at = std::max(free_at, now) + config_.bank_busy_cycles;
}

void Noc::clear_stats() {
  stats_.bank_requests.assign(config_.num_banks, 0);
  stats_.total_queue_cycles = 0;
  stats_.migration_transfers = 0;
}

void Noc::save_state(snapshot::Writer& writer) const {
  writer.u32(config_.num_cores);
  writer.u32(config_.num_banks);
  writer.scalars(std::span<const Cycle>(bank_free_at_));
  writer.scalars(std::span<const std::uint64_t>(stats_.bank_requests));
  writer.u64(stats_.total_queue_cycles);
  writer.u64(stats_.migration_transfers);
}

void Noc::restore_state(snapshot::Reader& reader) {
  BACP_ASSERT(reader.u32() == config_.num_cores, "snapshot num_cores mismatch");
  BACP_ASSERT(reader.u32() == config_.num_banks, "snapshot num_banks mismatch");
  reader.scalars_into(std::span<Cycle>(bank_free_at_));
  reader.scalars_into(std::span<std::uint64_t>(stats_.bank_requests));
  stats_.total_queue_cycles = reader.u64();
  stats_.migration_transfers = reader.u64();
}

void export_stats(const NocStats& stats, obs::Registry& registry) {
  registry.counter("noc.queue_cycles").set(stats.total_queue_cycles);
  registry.counter("noc.migration_transfers").set(stats.migration_transfers);
  auto& requests = registry.distribution("noc.bank_requests");
  for (const std::uint64_t count : stats.bank_requests) {
    requests.observe(static_cast<double>(count));
  }
}

}  // namespace bacp::noc
