#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "harness/snapshot_cache.hpp"
#include "obs/json.hpp"
#include "sched/classifier.hpp"
#include "sched/events.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"

namespace bacp::sched {

/// Sentinel tenant id for a free core slot (tenant ids are caller-chosen;
/// kNoTenant is reserved).
inline constexpr std::uint64_t kNoTenant = ~std::uint64_t{0};

/// Partitioning-as-a-service configuration. `system.policy` is forced to
/// PolicyKind::External — the service owns the planning; the simulator only
/// ever installs plans handed to it.
struct ServiceConfig {
  sim::SystemConfig system;
  ClassifierConfig classifier;

  /// Substrate warm-up before the first epoch (0 = start cold). A service
  /// warms its own System in place; services handed one shared
  /// harness::SnapshotCache warm once per fingerprint and restore the
  /// snapshot bit-identically.
  std::uint64_t warmup_instructions = 0;

  /// Live epochs before a tenant's own MSA profile replaces its analytic
  /// admission prior (the "no re-profiling stall": newcomers are planned
  /// from their workload model until their histogram has content).
  std::uint64_t profile_warm_epochs = 2;

  /// Class capacity budgets, in ways. Light and Streaming tenants are
  /// clustered onto these fixed per-class budgets (their shaped curves
  /// plateau here, so the allocator's marginal utility beyond the budget is
  /// zero); CacheSensitive tenants compete with their real curves.
  WayCount light_ways = 2;
  WayCount streaming_ways = 8;

  /// Derives dependent system fields and pins the policy; call before
  /// constructing a Service if fields were edited.
  void finalize();
};

/// The tenant-churn admission spec.
struct Tenant {
  std::uint64_t id = 0;
  std::string workload;  ///< spec2000 benchmark name
};

/// Online bank-aware partitioning service over one sim::System.
///
/// Session surface instead of the batch warm_up()/run() API: tenants are
/// admitted into core slots and evicted as they depart; every admission,
/// departure and classifier-detected class change triggers a bank-aware
/// repartition over class-shaped miss-ratio curves — no tenant is ever
/// re-profiled from scratch, newcomers plan from analytic priors until
/// their live MSA profile warms. The service harvests per-epoch deltas into
/// per-tenant series keyed by *tenant id*, with the core slot recorded as a
/// label, and re-arms the measurement window every epoch.
///
/// Thread model: thread-COMPATIBLE — one Service owns one sim::System and
/// is driven from a single thread (bench_sched_churn runs one Service per
/// lane, each lane on its own worker). It deliberately carries no lock and
/// no BACP_GUARDED_BY annotations; the shared structure it may touch
/// concurrently with other lanes, harness::SnapshotCache, carries the
/// mutex capability annotations instead (common/mutex.hpp, checked by
/// clang -Wthread-safety).
class Service {
 public:
  /// `substrate_mix` is the System's construction binding (one workload per
  /// core); it seeds the warm-up, after which every slot is deactivated —
  /// tenants only exist through admit(). `warm_cache` (optional) forks the
  /// substrate warm state instead of re-warming per service.
  Service(const ServiceConfig& config, const trace::WorkloadMix& substrate_mix,
          harness::SnapshotCache* warm_cache = nullptr);

  /// Admits a tenant into the lowest free slot: rebinds the slot's core
  /// (coherent L1 flush, fresh generator/timer streams), classifies the
  /// tenant from its analytic prior, and repartitions. Aborts if the id is
  /// live, reserved, or no slot is free — an event stream that over-admits
  /// is malformed, not schedulable.
  void admit(const Tenant& tenant);

  /// Evicts a live tenant: deactivates its slot and repartitions the
  /// survivors. The tenant's series are retained for reporting. Aborts on
  /// unknown ids.
  void evict(std::uint64_t tenant_id);

  /// Advances the service by `epochs` scheduler epochs. Each epoch: the
  /// simulator steps one epoch boundary, per-tenant deltas are harvested
  /// into the tenant series, warm tenants are reclassified (a class change
  /// triggers repartitioning), and the measurement window is re-armed so
  /// the system stays statistics-clean at every epoch edge.
  void step(std::uint64_t epochs = 1);

  /// Plays a churn event stream from the current epoch: events apply at the
  /// start of their epoch, in stream order. Aborts on epoch regressions.
  void play(std::span<const Event> events);

  /// Runs through `final_epoch`, then evicts every live tenant.
  void drain(std::uint64_t final_epoch);

  // --- Introspection ----------------------------------------------------

  std::uint64_t epoch() const { return epoch_; }
  std::size_t num_live() const { return tenants_.size(); }
  std::size_t capacity() const { return slot_tenant_.size(); }
  bool is_live(std::uint64_t tenant_id) const { return tenants_.count(tenant_id) != 0; }
  std::uint64_t admissions() const { return admissions_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t replans() const { return replans_; }
  std::uint64_t class_changes() const { return class_changes_; }
  const sim::System& system() const { return system_; }
  const ServiceConfig& config() const { return config_; }

  struct TenantStatus {
    std::uint64_t id = 0;
    CoreId slot = 0;
    std::size_t workload = 0;  ///< index into trace::spec2000_suite()
    TenantClass cls = TenantClass::Light;
    std::uint64_t admitted_epoch = 0;
    std::uint64_t live_epochs = 0;
    WayCount ways = 0;  ///< allocation installed for the slot at last replan
  };
  /// Live tenants in id order.
  std::vector<TenantStatus> live_tenants() const;

  /// Per-tenant epoch series, keyed by tenant id (stable across slot moves
  /// and retained after eviction): columns epoch / cpi / miss_ratio / ways
  /// / slot. The artifact every churn bench emits; byte-identical for
  /// identical (config, events, seed) regardless of thread count.
  obs::Json tenant_report() const;

 private:
  friend class ServiceAuditor;
  friend struct ServiceTestPeer;  ///< mutation hooks for the audit kill-tests

  struct TenantState {
    std::uint64_t id = 0;
    CoreId slot = 0;
    std::size_t workload = 0;
    TenantClass cls = TenantClass::Light;
    std::uint64_t admitted_epoch = 0;
    std::uint64_t live_epochs = 0;
    std::uint64_t stream_salt = 0;
    WayCount ways = 0;
    /// Decayed instruction window normalizing the live profile to
    /// per-Minstr counts (same half-life as the histogram decay, so curve
    /// and window cover the same history).
    double decayed_instructions = 0.0;
  };

  struct TenantSeries {
    std::vector<double> epoch;
    std::vector<double> cpi;
    std::vector<double> miss_ratio;
    std::vector<double> ways;
    std::vector<double> slot;
  };

  /// Intensity-weighted (per-Minstr) miss-ratio curve for planning: the
  /// tenant's live profile once warm, its analytic model prior before.
  msa::MissRatioCurve planning_curve(const TenantState& tenant) const;
  /// The class-shaped curve fed to the allocator (plateau at the class
  /// budget for Light/Streaming; the real curve for CacheSensitive).
  msa::MissRatioCurve shaped_curve(const TenantState& tenant) const;
  void replan();
  void harvest_epoch();
  void audit_checkpoint(const char* where) const;

  // NOLINTNEXTLINE(bacp-audit-coverage): immutable after construction; validated by the admission path, never mutated per epoch
  ServiceConfig config_;
  // NOLINTNEXTLINE(bacp-audit-coverage): immutable substrate workload description resolved at construction
  trace::WorkloadMix substrate_mix_;
  sim::System system_;
  std::map<std::uint64_t, TenantState> tenants_;  ///< live only, id-ordered
  std::vector<std::uint64_t> slot_tenant_;        ///< per core: id or kNoTenant
  std::map<std::uint64_t, TenantSeries> series_;  ///< retained after eviction
  std::uint64_t epoch_ = 0;
  std::uint64_t next_salt_ = 1;
  std::uint64_t admissions_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t replans_ = 0;
  std::uint64_t class_changes_ = 0;
};

}  // namespace bacp::sched
