#pragma once

#include "audit/audit.hpp"

namespace bacp::noc {
class Noc;
}
namespace bacp::mem {
class Dram;
}
namespace bacp::trace {
class SyntheticTraceGenerator;
}
namespace bacp::msa {
class StackProfiler;
}
namespace bacp::core {
class CoreTimer;
}
namespace bacp::obs {
class TimeSeries;
}

namespace bacp::audit {

/// Single-component structural audits for the System members that sit
/// outside the cache/coherence/partition core: the NoC fabric, the DRAM
/// channel, the synthetic trace generators, the MSA profilers, the core
/// timers and the epoch time series. System::audit_checkpoint runs all of
/// them (under BACP_AUDIT), so every stateful structure reachable from
/// sim::System has a registered audit entry point — the contract the
/// bacp-audit-coverage static check enforces.

/// Noc: geometry sanity (non-zero cores/banks/hop latency), the per-bank
/// occupancy and request vectors are sized to the bank count, and every
/// core/bank hop distance lies in [1, max_hops].
AuditReport audit_noc_fabric(const noc::Noc& noc);

/// Dram: non-zero access latency and per-line channel occupancy (a zero
/// would make the channel model a no-op and silently uncap bandwidth).
AuditReport audit_dram_channel(const mem::Dram& dram);

/// SyntheticTraceGenerator: ring geometry (power-of-two capacity covering
/// max_depth, mask == capacity - 1, id rings allocated, per-set tables
/// sized num_sets), per-set ring legality (head within the ring, size
/// within max_depth), every live block id below the allocation counter, no
/// id listed twice in one set's recency window, and a live batch's undo
/// log still rewindable.
AuditReport audit_trace_generator(const trace::SyntheticTraceGenerator& generator);

/// StackProfiler: derived set/sampling masks match the config they were
/// derived from, stack storage is sized num_stacks x profiled_ways, per-set
/// stack sizes fit the profiled depth, the histogram has profiled_ways + 1
/// bins and its total equals the bin sum, and sampled <= observed.
AuditReport audit_stack_profiler(const msa::StackProfiler& profiler);

/// CoreTimer: timing-model sanity (positive CPI and gap length, MLP window
/// >= 1), the in-flight window respects the MLP cap and is a valid min-heap
/// on completion time, and clocks/marks never run backwards.
AuditReport audit_core_timer(const core::CoreTimer& timer);

/// TimeSeries: every interned handle indexes a real column, handles are
/// distinct, and no column is longer than the epoch count (columns are
/// back-filled lazily, so shorter is legal; longer means a lost epoch).
AuditReport audit_epoch_series(const obs::TimeSeries& series);

/// Friend-key class (see CacheAuditor): the components grant this access to
/// their internals so the audits can check ring bytes and heap layouts
/// without widening their public APIs.
class ComponentAuditor {
 public:
  static void run(const noc::Noc& noc, AuditReport& report);
  static void run(const mem::Dram& dram, AuditReport& report);
  static void run(const trace::SyntheticTraceGenerator& generator,
                  AuditReport& report);
  static void run(const msa::StackProfiler& profiler, AuditReport& report);
  static void run(const core::CoreTimer& timer, AuditReport& report);
  static void run(const obs::TimeSeries& series, AuditReport& report);
};

}  // namespace bacp::audit
