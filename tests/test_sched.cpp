#include "sched/service.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness/snapshot_cache.hpp"
#include "sched/events.hpp"
#include "sched/sched_audit.hpp"
#include "trace/mix.hpp"

// Service lifecycle tests: tenant admission/eviction against a live
// simulator, structural audits at every boundary, id reuse, and run-to-run
// determinism with and without a shared warm cache.

namespace bacp::sched {
namespace {

trace::WorkloadMix substrate() {
  return trace::mix_from_names(
      {"gzip", "mesa", "eon", "crafty", "perlbmk", "gap", "vortex", "bzip2"});
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.system.epoch_cycles = 10'000;
  config.system.seed = 11;
  config.warmup_instructions = 20'000;
  config.finalize();
  return config;
}

ChurnConfig small_churn() {
  ChurnConfig churn;
  churn.epochs = 30;
  churn.min_residency = 3;
  churn.max_residency = 12;
  churn.arrival_rate = 1.5;
  churn.thrasher_period = 10;
  churn.thrasher_residency = 5;
  return churn;
}

void expect_audit_clean(const Service& service, const char* where) {
  const auto report = audit_sched(service);
  EXPECT_TRUE(report.ok()) << where << ": " << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

TEST(SchedService, AdmitStepEvictLifecycle) {
  Service service(small_config(), substrate());
  EXPECT_EQ(service.num_live(), 0u);
  EXPECT_EQ(service.capacity(), 8u);
  expect_audit_clean(service, "fresh");

  service.admit({101, "mcf"});
  service.admit({102, "swim"});
  expect_audit_clean(service, "after admits");
  EXPECT_EQ(service.num_live(), 2u);
  EXPECT_TRUE(service.is_live(101));
  EXPECT_EQ(service.admissions(), 2u);
  EXPECT_GE(service.replans(), 2u);  // every admission repartitions

  service.step(3);
  expect_audit_clean(service, "after steps");
  EXPECT_EQ(service.epoch(), 3u);

  const auto live = service.live_tenants();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].id, 101u);
  EXPECT_EQ(live[1].id, 102u);
  EXPECT_EQ(live[0].live_epochs, 3u);
  EXPECT_GT(live[0].ways, 0u);

  service.evict(101);
  expect_audit_clean(service, "after evict");
  EXPECT_EQ(service.num_live(), 1u);
  EXPECT_FALSE(service.is_live(101));
  EXPECT_EQ(service.evictions(), 1u);

  // The evicted tenant's series survive for reporting, keyed by id.
  const std::string dump = service.tenant_report().dump();
  EXPECT_NE(dump.find("\"tenant\":101"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"tenant\":102"), std::string::npos) << dump;
}

TEST(SchedService, IdReuseAfterEvictRebindsCleanly) {
  Service service(small_config(), substrate());
  service.admit({7, "mcf"});
  service.step(2);
  service.evict(7);
  service.step(1);

  // Same id, different workload: must admit as a fresh tenant (new binding,
  // new salt for its RNG streams), not resurrect stale state.
  service.admit({7, "swim"});
  expect_audit_clean(service, "after re-admit");
  ASSERT_TRUE(service.is_live(7));
  const auto live = service.live_tenants();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].live_epochs, 0u);
  EXPECT_EQ(live[0].admitted_epoch, 3u);
  EXPECT_EQ(service.admissions(), 2u);

  service.step(2);
  expect_audit_clean(service, "after re-admit steps");
  // Both lifetimes land in one id-keyed series: 2 + 2 harvested epochs.
  const std::string dump = service.tenant_report().dump();
  EXPECT_NE(dump.find("\"workload\":\"swim\""), std::string::npos) << dump;
}

TEST(SchedService, ChurnStreamIsDeterministicAcrossServices) {
  const ChurnConfig churn = small_churn();
  const auto events = generate_churn(churn);
  ASSERT_FALSE(events.empty());

  const auto run = [&] {
    Service service(small_config(), substrate());
    service.play(events);
    service.drain(churn.epochs);
    expect_audit_clean(service, "after drain");
    EXPECT_EQ(service.num_live(), 0u);
    return service.tenant_report().dump();
  };
  EXPECT_EQ(run(), run());
}

// Service lanes sharing one warm cache (the first warms, the second forks
// the snapshot) replay a churn stream exactly as a service that warmed its
// own System in place.
TEST(SchedService, SharedWarmCacheMatchesInPlaceWarmUp) {
  const ChurnConfig churn = small_churn();
  const auto events = generate_churn(churn);

  harness::SnapshotCache cache;
  const auto run = [&](harness::SnapshotCache* warm_cache) {
    Service service(small_config(), substrate(), warm_cache);
    service.play(events);
    service.drain(churn.epochs);
    return std::pair{service.tenant_report().dump(), service.system().save_state().bytes};
  };
  const auto in_place = run(nullptr);
  const auto missed = run(&cache);
  const auto hit = run(&cache);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(missed.first, in_place.first);
  EXPECT_EQ(hit.first, in_place.first);
  EXPECT_EQ(missed.second, in_place.second);
  EXPECT_EQ(hit.second, in_place.second);
}

TEST(SchedServiceDeath, OverAdmissionAborts) {
  Service service(small_config(), substrate());
  for (std::uint64_t id = 1; id <= service.capacity(); ++id) {
    service.admit({id, "gzip"});
  }
  EXPECT_DEATH(service.admit({99, "gzip"}), "free slot");
}

}  // namespace
}  // namespace bacp::sched
