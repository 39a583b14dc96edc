#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace bacp::snapshot {
class Writer;
class Reader;
}  // namespace bacp::snapshot

namespace bacp::audit {
class ComponentAuditor;
}  // namespace bacp::audit

namespace bacp::core {

/// Timing abstraction of one out-of-order core (Table I: 4 GHz, 30-stage,
/// 4-wide, 128-entry ROB, 16 outstanding requests). The model executes the
/// non-memory instruction stream at the workload's base CPI and overlaps
/// L2 accesses up to a memory-level-parallelism window:
///   - between consecutive L2 accesses the core retires
///     `instructions_per_l2_access` instructions in
///     `instructions_per_l2_access x base_cpi` cycles (jittered to avoid
///     lock-step artifacts across cores);
///   - up to `mlp_window` accesses may be in flight; the window models the
///     ROB's ability to run ahead of outstanding misses, capped by the
///     MSHR count;
///   - an access older than `rob_entries` instructions blocks further
///     issue until it completes (ROB drain).
/// CPI falls out of the simulation rather than a closed formula, so bank
/// queueing, DRAM channel contention and partition-latency differences all
/// surface in Fig. 9-style results.
struct CoreTimerConfig {
  double base_cpi = 0.7;
  double instructions_per_l2_access = 100.0;
  std::uint32_t mlp_window = 2;
  std::uint32_t rob_entries = 128;
  double gap_jitter = 0.5;  ///< uniform +-50% spread on inter-access gaps
  std::uint64_t seed = 1;
  CoreId core = 0;
};

class CoreTimer {
 public:
  explicit CoreTimer(const CoreTimerConfig& config);

  /// Issue time of the next L2 access if it were issued now (includes MLP
  /// and ROB stalls). Draws the next gap once and otherwise does not
  /// mutate state, so repeated peeks agree.
  Cycle peek_issue() const;

  /// Executes the gap instructions and stalls up to `issue`, the value
  /// peek_issue() returned with no timer call in between. Must be followed
  /// by record_completion().
  void advance_to_issue(Cycle issue);

  /// Registers the memory system's completion time for the just-issued
  /// access.
  void record_completion(Cycle done_at);

  /// Waits for all outstanding accesses (end of simulation).
  void drain();

  double instructions() const { return instructions_; }
  Cycle time() const { return static_cast<Cycle>(time_); }
  double cpi() const;

  /// Rebinds the timer to a new workload's timing parameters mid-run (a
  /// tenant admission reusing this core slot): the clocks, marks and the
  /// in-flight window carry over — global time never rewinds — while the
  /// gap model, MLP window and RNG stream are rebuilt from `config`. The
  /// pre-drawn gap is discarded so the first gap of the new tenant comes
  /// from its own stream.
  void rebind(const CoreTimerConfig& config);

  /// Advances the local clock to `now` if it is behind (never rewinds).
  /// Used when a core slot rejoins the simulation after sitting idle: its
  /// first access must issue at current global time, not at the frozen
  /// clock of its previous tenant.
  void fast_forward(Cycle now) {
    time_ = std::max(time_, static_cast<double>(now));
  }

  /// Snapshots the measurement-window start (end of cache warm-up).
  void mark();
  double instructions_since_mark() const { return instructions_ - mark_instructions_; }
  double cycles_since_mark() const { return time_ - mark_time_; }
  double cpi_since_mark() const;

  const CoreTimerConfig& config() const { return config_; }

  /// Serializes the RNG state, clocks, the pre-drawn gap and the in-flight
  /// window (in heap-array order, so restore is bit-exact). The marks are
  /// measurement state: System::restore_state re-arms them.
  void save_state(snapshot::Writer& writer) const;
  void restore_state(snapshot::Reader& reader);

 private:
  friend class audit::ComponentAuditor;
  friend struct TimerTestPeer;  ///< mutation hooks for the audit kill-tests

  struct InFlight {
    double done_at = 0.0;
    double issued_at_instruction = 0.0;
    bool operator>(const InFlight& other) const { return done_at > other.done_at; }
  };

  double next_gap_cycles() const;
  void retire_completed();
  /// Retires the earliest completions until the window fits mlp_window.
  void trim_window();

  CoreTimerConfig config_;
  mutable common::Rng rng_;
  double time_ = 0.0;
  double instructions_ = 0.0;
  // NOLINTNEXTLINE(bacp-snapshot-fields): measurement-window start, not warm state; System::restore_state re-arms it with mark()
  double mark_time_ = 0.0;
  // NOLINTNEXTLINE(bacp-snapshot-fields): measurement-window start, not warm state; System::restore_state re-arms it with mark()
  double mark_instructions_ = 0.0;
  // Pre-drawn jittered gap: the first peek_issue() after an issue draws it
  // and advance_to_issue() consumes it; mutable because peeking may draw.
  mutable double pending_gap_ = -1.0;
  // Min-heap on done_at (std::push_heap/pop_heap with std::greater). A raw
  // vector instead of std::priority_queue so peek_issue() can scan the
  // window in place — copying a priority_queue heap-allocates every time.
  std::vector<InFlight> outstanding_;
};

}  // namespace bacp::core
