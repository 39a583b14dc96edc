#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace bacp::snapshot {
class Writer;
class Reader;
}  // namespace bacp::snapshot

namespace bacp::audit {
class ComponentAuditor;
}  // namespace bacp::audit

namespace bacp::noc {

/// Latency/contention model of the Fig. 1 floorplan: a row of cores, the
/// Local banks beneath them, the Center banks in a second row. The paper
/// abstracts physical design to the bank-access-latency range — "from 10 up
/// to 70 cycles depending on the physical location of both the core ... and
/// the L2 bank", with a core adjacent to its Local bank paying 10 cycles
/// and 7 hops (core 0 to core 7's Local bank) paying 70. We reproduce that
/// exactly: latency = 10 x hop-units, where a Local bank costs
/// max(1, |core - bank column|) units and a Center bank costs one extra
/// vertical unit (so Center latencies sit higher on average but with less
/// spread, as the paper describes), capped at the 7-unit maximum.
struct NocConfig {
  std::uint32_t num_cores = 8;
  std::uint32_t num_banks = 16;
  Cycle cycles_per_hop = 10;
  std::uint32_t max_hops = 7;
  /// Bank service occupancy per request: back-to-back requests to one bank
  /// queue behind each other at this granularity.
  Cycle bank_busy_cycles = 4;
};

struct NocStats {
  std::vector<std::uint64_t> bank_requests;  // per bank
  std::uint64_t total_queue_cycles = 0;      // contention delay summed
  std::uint64_t migration_transfers = 0;     // bank-to-bank line moves
};

class Noc {
 public:
  explicit Noc(const NocConfig& config);

  /// Hop-units between a core and a bank (>= 1).
  std::uint32_t hops(CoreId core, BankId bank) const;

  /// Contention-free round-trip latency of one bank access.
  Cycle access_latency(CoreId core, BankId bank) const {
    return config_.cycles_per_hop * hops(core, bank);
  }

  /// Issues a request at `now`; returns its completion time including bank
  /// queueing (banks serve one request per bank_busy_cycles).
  Cycle request(CoreId core, BankId bank, Cycle now);

  /// Accounts a line migration between two banks (Cascade demotions,
  /// promotion swaps). Off the critical path; tracked for the aggregation
  /// ablation and to occupy the destination bank.
  void migrate(BankId from, BankId to, Cycle now);

  const NocConfig& config() const { return config_; }
  const NocStats& stats() const { return stats_; }
  void clear_stats();

  /// Serializes bank occupancy; restore asserts the geometry echo.
  void save_state(snapshot::Writer& writer) const;
  void restore_state(snapshot::Reader& reader);

 private:
  friend class audit::ComponentAuditor;
  friend struct NocTestPeer;  ///< mutation hooks for the audit kill-tests

  NocConfig config_;
  std::vector<Cycle> bank_free_at_;
  // NOLINTNEXTLINE(bacp-snapshot-fields): measurement state, not warm state; System::restore_state re-arms it
  NocStats stats_;
};

}  // namespace bacp::noc
