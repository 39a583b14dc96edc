#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "audit/pool_audit.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"

namespace bacp::harness {

/// Concurrent free-list of constructed sim::Systems, keyed by the
/// mix-independent sim::config_digest(config). Constructing a System is the
/// dominant setup cost of a short sampled trial — the generator recency
/// rings and the L2 bank arrays alone fault in tens of megabytes —
/// while System::reset_in_place() rewinds all of that storage to
/// cold-construction state without touching the allocator. The pool turns
/// per-trial construction into per-worker construction: a trial leases a
/// pooled System when one with a matching config shape is idle and returns
/// it on lease destruction.
///
/// Contract: a leased System is in whatever state its previous trial left
/// behind. The consumer must rewind it with System::reset_in_place(mix)
/// before use — sampling::run_sampled_mix's `reuse` parameter does exactly
/// that, so harness callers routing through it never touch stale state.
/// Pooling is a pure speed dial: reset_in_place() restores
/// cold-construction state bit-exactly, so results are byte-identical with
/// the pool on or off (tests/test_equivalence.cpp proves it at the snapshot
/// level, the CI artifact matrix at the report level).
class SystemPool {
 public:
  /// Move-only handle to a leased System; returns it to the pool's idle
  /// list on destruction. An empty (default-constructed or moved-from)
  /// lease owns nothing and returns nothing.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), key_(other.key_), system_(std::move(other.system_)),
          pooled_hit_(other.pooled_hit_) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        key_ = other.key_;
        system_ = std::move(other.system_);
        pooled_hit_ = other.pooled_hit_;
        other.pool_ = nullptr;
      }
      return *this;
    }
    ~Lease() { release(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    sim::System* get() const { return system_.get(); }
    sim::System& operator*() const { return *system_; }
    sim::System* operator->() const { return system_.get(); }

    /// True when this lease reuses a pooled System (its state is the
    /// previous trial's leftovers until reset_in_place); false for a fresh
    /// construction.
    bool pooled_hit() const { return pooled_hit_; }

   private:
    friend class SystemPool;
    Lease(SystemPool* pool, std::uint64_t key, std::unique_ptr<sim::System> system,
          bool pooled_hit)
        : pool_(pool), key_(key), system_(std::move(system)), pooled_hit_(pooled_hit) {}

    void release();

    SystemPool* pool_ = nullptr;
    std::uint64_t key_ = 0;
    std::unique_ptr<sim::System> system_;
    bool pooled_hit_ = false;
  };

  SystemPool() = default;
  SystemPool(const SystemPool&) = delete;
  SystemPool& operator=(const SystemPool&) = delete;

  /// A System for (config, mix): an idle pooled System whose construction
  /// config digests equal to `config`'s when one exists (see the class
  /// contract — rewind it before use), otherwise a fresh
  /// sim::System(config, mix). Construction runs outside the pool lock, so
  /// concurrent first-time callers build their Systems in parallel.
  Lease acquire(const sim::SystemConfig& config, const trace::WorkloadMix& mix);

  std::uint64_t hits() const BACP_EXCLUDES(mutex_);
  std::uint64_t misses() const BACP_EXCLUDES(mutex_);
  /// Systems currently parked in the idle lists (not leased out).
  std::uint64_t idle() const BACP_EXCLUDES(mutex_);
  /// Systems currently leased out (acquired, lease not yet destroyed).
  std::uint64_t outstanding() const BACP_EXCLUDES(mutex_);

  /// All four lease counters under one lock acquisition — the consistent
  /// snapshot audit_pool_bookkeeping() needs (reading the individual
  /// accessors back-to-back can tear across a concurrent acquire/release
  /// and falsely trip the conservation invariant).
  audit::PoolBookkeepingInput bookkeeping() const BACP_EXCLUDES(mutex_);

 private:
  void release(std::uint64_t key, std::unique_ptr<sim::System> system)
      BACP_EXCLUDES(mutex_);

  mutable common::Mutex mutex_;
  std::map<std::uint64_t, std::vector<std::unique_ptr<sim::System>>> idle_
      BACP_GUARDED_BY(mutex_);
  std::uint64_t hits_ BACP_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ BACP_GUARDED_BY(mutex_) = 0;
  std::uint64_t outstanding_ BACP_GUARDED_BY(mutex_) = 0;
};

}  // namespace bacp::harness
