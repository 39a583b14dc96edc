#include "sched/service.hpp"

#include <algorithm>
#include <utility>

#ifdef BACP_AUDIT
#include <cstdio>
#include <cstdlib>
#endif

#include "common/assert.hpp"
#include "partition/bank_aware.hpp"
#include "sched/sched_audit.hpp"
#include "trace/spec2000.hpp"

namespace bacp::sched {

void ServiceConfig::finalize() {
  system.policy = sim::PolicyKind::External;
  system.finalize();
  BACP_ASSERT(light_ways >= 1 && streaming_ways >= 1,
              "class budgets need at least one way");
  BACP_ASSERT(light_ways <= system.geometry.max_assignable_ways() &&
                  streaming_ways <= system.geometry.max_assignable_ways(),
              "class budgets exceed the assignable capacity");
}

namespace {

ServiceConfig finalized(ServiceConfig config) {
  config.finalize();
  return config;
}

}  // namespace

Service::Service(const ServiceConfig& config, const trace::WorkloadMix& substrate_mix,
                 harness::SnapshotCache* warm_cache)
    : config_(finalized(config)),
      substrate_mix_(substrate_mix),
      system_(config_.system, substrate_mix_) {
  if (config_.warmup_instructions > 0) {
    harness::warm_system(system_, substrate_mix_, config_.warmup_instructions, warm_cache);
  }
  // The substrate workloads only warm the hierarchy; tenants exist solely
  // through admit(). All slots start idle.
  const CoreId num_cores = config_.system.geometry.num_cores;
  for (CoreId core = 0; core < num_cores; ++core) system_.set_core_active(core, false);
  slot_tenant_.assign(num_cores, kNoTenant);
  audit_checkpoint("service construction");
}

msa::MissRatioCurve Service::planning_curve(const TenantState& tenant) const {
  const WayCount max_ways = config_.system.geometry.max_assignable_ways();
  if (tenant.live_epochs >= config_.profile_warm_epochs &&
      tenant.decayed_instructions > 0.0) {
    // Live profile, normalized to misses-per-Minstr over the same decayed
    // history window the histogram covers (the window holds the *decayed*
    // value, i.e. exactly half the window used at the last harvest).
    const double window = std::max(1.0, tenant.decayed_instructions * 2.0);
    return system_.profiler(tenant.slot).curve().scaled(1.0e6 / window);
  }
  // Admission prior: the workload model's analytic curve (normalized to one
  // access) weighted by its access intensity — accesses-per-Minstr is APKI
  // x 1000. This is what lets a newcomer be planned for at admission
  // instead of stalling until it has been re-profiled from scratch.
  const auto& model = trace::spec2000_suite().at(tenant.workload);
  return msa::MissRatioCurve::from_model(model, max_ways).scaled(model.l2_apki * 1000.0);
}

msa::MissRatioCurve Service::shaped_curve(const TenantState& tenant) const {
  if (tenant.cls == TenantClass::CacheSensitive) return planning_curve(tenant);
  // Clustering by class: Light and Streaming tenants are lowered to a
  // synthetic all-or-nothing curve saturating at their class budget. The
  // allocator sees zero marginal utility past the budget (capacity flows to
  // the cache-sensitive tenants) but the tenant's real intensity below it,
  // so same-class tenants receive identical, adjacent-packed budgets
  // without breaking the single-owner way-mask invariant.
  const WayCount budget =
      tenant.cls == TenantClass::Light ? config_.light_ways : config_.streaming_ways;
  std::vector<double> hits(budget, 0.0);
  hits[budget - 1] = planning_curve(tenant).total();
  return msa::MissRatioCurve(std::move(hits), 0.0);
}

void Service::replan() {
  const auto& geometry = config_.system.geometry;
  // Idle slots plan with empty curves: zero marginal utility everywhere, so
  // they hold only the capacity nobody wants (the allocator must still
  // cover every bank — parked capacity, not an orphaned grant).
  std::vector<msa::MissRatioCurve> curves(geometry.num_cores);
  for (const auto& [id, tenant] : tenants_) curves[tenant.slot] = shaped_curve(tenant);
  const auto result = partition::bank_aware_partition(geometry, curves);
  system_.install_partition(result.allocation, result.assignment);
  for (auto& [id, tenant] : tenants_) {
    tenant.ways = result.allocation.ways_per_core.at(tenant.slot);
  }
  ++replans_;
}

void Service::admit(const Tenant& tenant) {
  BACP_ASSERT(tenant.id != kNoTenant, "tenant id is the reserved sentinel");
  BACP_ASSERT(tenants_.find(tenant.id) == tenants_.end(),
              "admit of a tenant id that is already live");
  CoreId slot = kInvalidCore;
  for (CoreId core = 0; core < slot_tenant_.size(); ++core) {
    if (slot_tenant_[core] == kNoTenant) {
      slot = core;
      break;
    }
  }
  BACP_ASSERT(slot != kInvalidCore, "admit with no free slot (stream over-admits)");

  TenantState state;
  state.id = tenant.id;
  state.slot = slot;
  state.workload = trace::spec2000_index(tenant.workload);
  state.admitted_epoch = epoch_;
  state.stream_salt = next_salt_++;
  system_.reset_core(slot, tenant.workload, state.stream_salt);
  system_.set_core_active(slot, true);
  state.cls = classify(planning_curve(state),
                       config_.system.geometry.max_assignable_ways(), config_.classifier);
  slot_tenant_[slot] = tenant.id;
  tenants_.emplace(tenant.id, state);
  ++admissions_;
  replan();
  audit_checkpoint("admit");
}

void Service::evict(std::uint64_t tenant_id) {
  const auto it = tenants_.find(tenant_id);
  BACP_ASSERT(it != tenants_.end(), "evict of a tenant that is not live");
  system_.set_core_active(it->second.slot, false);
  slot_tenant_[it->second.slot] = kNoTenant;
  tenants_.erase(it);
  ++evictions_;
  replan();
  audit_checkpoint("evict");
}

void Service::harvest_epoch() {
  const auto samples = system_.sample_cores();
  const WayCount max_ways = config_.system.geometry.max_assignable_ways();
  bool class_changed = false;
  for (auto& [id, tenant] : tenants_) {
    const auto& sample = samples.at(tenant.slot);
    TenantSeries& series = series_[id];
    series.epoch.push_back(static_cast<double>(epoch_));
    series.cpi.push_back(sample.cpi);
    series.miss_ratio.push_back(sample.l2_miss_ratio());
    series.ways.push_back(static_cast<double>(sample.allocated_ways));
    series.slot.push_back(static_cast<double>(tenant.slot));
    tenant.ways = sample.allocated_ways;
    const double window = std::max(1.0, tenant.decayed_instructions + sample.instructions);
    tenant.decayed_instructions = window * 0.5;
    ++tenant.live_epochs;
    if (tenant.live_epochs >= config_.profile_warm_epochs) {
      const TenantClass cls =
          classify(planning_curve(tenant), max_ways, config_.classifier);
      if (cls != tenant.cls) {
        tenant.cls = cls;
        ++class_changes_;
        class_changed = true;
      }
    }
  }
  // Re-arm the measurement window: the system is statistics-clean at every
  // epoch edge, which is what makes mid-churn save_state() legal.
  system_.reset_measurement();
  ++epoch_;
  if (class_changed) replan();
}

void Service::step(std::uint64_t epochs) {
  for (std::uint64_t i = 0; i < epochs; ++i) {
    system_.step_epochs(1);
    harvest_epoch();
  }
}

void Service::play(std::span<const Event> events) {
  for (const Event& event : events) {
    BACP_ASSERT(event.epoch >= epoch_, "event stream is behind the service clock");
    if (event.epoch > epoch_) step(event.epoch - epoch_);
    if (event.kind == EventKind::Admit) {
      admit({event.tenant, event.workload});
    } else {
      evict(event.tenant);
    }
  }
}

void Service::drain(std::uint64_t final_epoch) {
  if (final_epoch > epoch_) step(final_epoch - epoch_);
  std::vector<std::uint64_t> live;
  live.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) live.push_back(id);
  for (const std::uint64_t id : live) evict(id);
}

std::vector<Service::TenantStatus> Service::live_tenants() const {
  std::vector<TenantStatus> out;
  out.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) {
    TenantStatus status;
    status.id = tenant.id;
    status.slot = tenant.slot;
    status.workload = tenant.workload;
    status.cls = tenant.cls;
    status.admitted_epoch = tenant.admitted_epoch;
    status.live_epochs = tenant.live_epochs;
    status.ways = tenant.ways;
    out.push_back(status);
  }
  return out;
}

obs::Json Service::tenant_report() const {
  obs::Json report = obs::Json::object();
  report.set("schema", std::uint64_t{1});
  report.set("epochs", epoch_);
  report.set("admissions", admissions_);
  report.set("evictions", evictions_);
  report.set("replans", replans_);
  report.set("class_changes", class_changes_);
  const auto& suite = trace::spec2000_suite();
  obs::Json tenants = obs::Json::array();
  for (const auto& [id, series] : series_) {
    obs::Json entry = obs::Json::object();
    entry.set("tenant", id);
    if (const auto it = tenants_.find(id); it != tenants_.end()) {
      entry.set("live", true);
      entry.set("workload", suite.at(it->second.workload).name);
      entry.set("class", to_string(it->second.cls));
      entry.set("slot", std::uint64_t{it->second.slot});
    } else {
      entry.set("live", false);
    }
    const auto column = [](const std::vector<double>& values) {
      obs::Json array = obs::Json::array();
      for (const double value : values) array.push_back(value);
      return array;
    };
    entry.set("epoch", column(series.epoch));
    entry.set("cpi", column(series.cpi));
    entry.set("miss_ratio", column(series.miss_ratio));
    entry.set("ways", column(series.ways));
    entry.set("slot_series", column(series.slot));
    tenants.push_back(std::move(entry));
  }
  report.set("tenants", std::move(tenants));
  return report;
}

void Service::audit_checkpoint(const char* where) const {
#ifdef BACP_AUDIT
  const audit::AuditReport report = audit_sched(*this);
  if (!report.ok()) {
    std::fprintf(stderr, "BACP_AUDIT (sched) failed at %s: %s\n", where,
                 report.to_string().c_str());
    std::abort();
  }
#else
  (void)where;
#endif
}

}  // namespace bacp::sched
