#include "core/core_timer.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>

#include "common/assert.hpp"
#include "snapshot/codec.hpp"

namespace bacp::core {

namespace {

/// The constructor's and rebind()'s shared parameter check.
void check_config(const CoreTimerConfig& config) {
  BACP_ASSERT(config.base_cpi > 0.0, "base_cpi must be positive");
  BACP_ASSERT(config.instructions_per_l2_access > 0.0,
              "instructions_per_l2_access must be positive");
  BACP_ASSERT(config.mlp_window >= 1, "mlp_window must be >= 1");
  BACP_ASSERT(config.gap_jitter >= 0.0 && config.gap_jitter < 1.0,
              "gap_jitter must be in [0, 1)");
}

}  // namespace

CoreTimer::CoreTimer(const CoreTimerConfig& config)
    : config_(config), rng_(config.seed, config.core) {
  check_config(config_);
  // record_completion() bounds the window at mlp_window, with one slot of
  // transient overshoot before trimming.
  outstanding_.reserve(config_.mlp_window + 1);
}

double CoreTimer::next_gap_cycles() const {
  if (pending_gap_ < 0.0) {
    const double jitter =
        1.0 + config_.gap_jitter * (2.0 * rng_.next_double() - 1.0);
    pending_gap_ = config_.instructions_per_l2_access * config_.base_cpi * jitter;
  }
  return pending_gap_;
}

Cycle CoreTimer::peek_issue() const {
  double t = time_ + next_gap_cycles();
  // MLP window: if `mlp_window` accesses are still in flight at t, issue
  // waits for the earliest of them to complete. Scans the heap storage in
  // place — order is irrelevant for a count plus a running minimum.
  if (outstanding_.size() >= config_.mlp_window) {
    std::uint32_t in_flight_at_t = 0;
    double earliest = std::numeric_limits<double>::infinity();
    for (const auto& entry : outstanding_) {
      if (entry.done_at > t) {
        ++in_flight_at_t;
        earliest = std::min(earliest, entry.done_at);
      }
    }
    if (in_flight_at_t >= config_.mlp_window) t = earliest;
  }
  // ROB drain: the oldest in-flight access may pin the ROB.
  if (!outstanding_.empty()) {
    const double next_instr = instructions_ + config_.instructions_per_l2_access;
    for (const auto& entry : outstanding_) {
      if (next_instr - entry.issued_at_instruction >
          static_cast<double>(config_.rob_entries)) {
        t = std::max(t, entry.done_at);
      }
    }
  }
  return static_cast<Cycle>(t);
}

void CoreTimer::advance_to_issue(Cycle issue) {
  BACP_SLOW_DASSERT(issue == peek_issue(), "advance_to_issue off the peeked issue time");
  pending_gap_ = -1.0;  // consume the drawn gap
  time_ = static_cast<double>(issue);
  instructions_ += config_.instructions_per_l2_access;
  retire_completed();
}

void CoreTimer::retire_completed() {
  while (!outstanding_.empty() && outstanding_.front().done_at <= time_) {
    std::pop_heap(outstanding_.begin(), outstanding_.end(), std::greater<>{});
    outstanding_.pop_back();
  }
}

void CoreTimer::record_completion(Cycle done_at) {
  outstanding_.push_back({static_cast<double>(done_at), instructions_});
  std::push_heap(outstanding_.begin(), outstanding_.end(), std::greater<>{});
  // Invariant: the window can exceed mlp_window only transiently within a
  // peek/advance pair; enforce it here.
  trim_window();
}

void CoreTimer::trim_window() {
  while (outstanding_.size() > config_.mlp_window) {
    time_ = std::max(time_, outstanding_.front().done_at);
    std::pop_heap(outstanding_.begin(), outstanding_.end(), std::greater<>{});
    outstanding_.pop_back();
  }
}

void CoreTimer::drain() {
  // The original loop popped in ascending done_at order, so the net effect
  // is a single max over the window.
  for (const auto& entry : outstanding_) time_ = std::max(time_, entry.done_at);
  outstanding_.clear();
}

double CoreTimer::cpi() const {
  return instructions_ == 0.0 ? 0.0 : time_ / instructions_;
}

void CoreTimer::rebind(const CoreTimerConfig& config) {
  BACP_ASSERT(config.core == config_.core, "rebind may not move the timer across cores");
  check_config(config);
  config_ = config;
  rng_ = common::Rng(config.seed, config.core);
  pending_gap_ = -1.0;
  outstanding_.reserve(config_.mlp_window + 1);
  // A shrunken MLP window must not leave an oversized in-flight set behind.
  trim_window();
}

void CoreTimer::mark() {
  mark_time_ = time_;
  mark_instructions_ = instructions_;
}

double CoreTimer::cpi_since_mark() const {
  const double instr = instructions_since_mark();
  return instr == 0.0 ? 0.0 : cycles_since_mark() / instr;
}

void CoreTimer::save_state(snapshot::Writer& writer) const {
  writer.u32(config_.core);
  for (const std::uint64_t word : rng_.state()) writer.u64(word);
  writer.f64(time_);
  writer.f64(instructions_);
  writer.f64(mark_time_);
  writer.f64(mark_instructions_);
  writer.f64(pending_gap_);
  // Heap-array order, not sorted: restoring the exact array reproduces the
  // exact heap, so subsequent pushes/pops are bit-identical.
  writer.u64(outstanding_.size());
  for (const InFlight& entry : outstanding_) {
    writer.f64(entry.done_at);
    writer.f64(entry.issued_at_instruction);
  }
}

void CoreTimer::restore_state(snapshot::Reader& reader) {
  BACP_ASSERT(reader.u32() == config_.core, "snapshot core id mismatch");
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = reader.u64();
  rng_.set_state(rng_state);
  time_ = reader.f64();
  instructions_ = reader.f64();
  mark_time_ = reader.f64();
  mark_instructions_ = reader.f64();
  pending_gap_ = reader.f64();
  const std::uint64_t in_flight = reader.u64();
  BACP_ASSERT(in_flight <= config_.mlp_window + 1, "snapshot MLP window overflow");
  outstanding_.clear();
  for (std::uint64_t i = 0; i < in_flight; ++i) {
    InFlight entry;
    entry.done_at = reader.f64();
    entry.issued_at_instruction = reader.f64();
    outstanding_.push_back(entry);
  }
}

}  // namespace bacp::core
