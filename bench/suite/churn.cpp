// sched_churn: the online partitioning service (sched::Service) replaying
// bench_sched_churn's tenant-churn streams, lane by lane, from the suite's
// own event loop — the same dispatch as Service::play plus drain, with
// every admit, evict and step(1) call timed in traced runs. Each admit and
// evict runs one bank-aware replan and System::install_partition, so this
// is where the partition layer's latency reaches a user directly; the
// steps are short simulation bursts between churn events.

#include <memory>
#include <optional>

#include "common/stats.hpp"
#include "harness/snapshot_cache.hpp"
#include "sched/events.hpp"
#include "sched/service.hpp"
#include "suite.hpp"
#include "trace/mix.hpp"

namespace bacp::suite {
namespace {

/// Lane report digests of bench_sched_churn --seed 42 --epochs 500, lanes
/// 0..3.
constexpr std::uint64_t kPinnedSeed = 42;
constexpr std::uint64_t kPinnedDigests[] = {0xb1c4b0d52fae39d8ull, 0x0268281c647fa8eaull,
                                            0x8a8caf9b4a807ebeull, 0x9fe0fea23a27c6d9ull};

std::uint64_t report_digest(const sched::Service& service) {
  return fnv1a(service.tenant_report().dump());
}

}  // namespace

Outcome run_sched_churn(const RunOptions& options, Tracer& tracer) {
  Outcome outcome;
  const std::uint64_t lanes = options.params.at("lanes");
  const std::uint64_t epochs = options.params.at("epochs");
  const auto mix = trace::mix_from_names(
      {"gzip", "mesa", "eon", "crafty", "perlbmk", "gap", "vortex", "bzip2"});
  sched::ServiceConfig base;
  base.system.epoch_cycles = 20'000;
  base.system.seed = options.seed;
  base.warmup_instructions = 200'000;
  base.finalize();

  const Tracer::NameId setup_span = tracer.intern("sched.setup");
  const Tracer::NameId warm_span = tracer.intern("sched.warm");
  const Tracer::NameId lane_span = tracer.intern("sched.lane");
  const Tracer::NameId construct_span = tracer.intern("sched.construct");
  const Tracer::NameId admit_span = tracer.intern("sched.admit");
  const Tracer::NameId evict_span = tracer.intern("sched.evict");
  const Tracer::NameId step_span = tracer.intern("sched.step");

  // Set-up: the lanes' churn streams (bench_sched_churn's high-churn
  // shape) and the substrate warm-up every lane's service forks from.
  std::vector<std::vector<sched::Event>> streams;
  std::unique_ptr<harness::SnapshotCache> warm_cache;
  Measurement measurement(options, tracer, outcome);
  measurement.setup(
      [&] {
        streams.clear();
        warm_cache.reset();
      },
      [&] {
        const auto root = tracer.span(setup_span);
        for (std::uint64_t lane = 0; lane < lanes; ++lane) {
          sched::ChurnConfig churn;
          churn.epochs = epochs;
          churn.num_slots = base.system.geometry.num_cores;
          churn.seed = options.seed + lane;
          churn.arrival_rate = 2.0;
          churn.diurnal_period = 250.0;
          churn.min_residency = 4;
          churn.max_residency = 16;
          churn.thrasher_period = 125;
          churn.thrasher_residency = 12;
          streams.push_back(sched::generate_churn(churn));
        }
        warm_cache = std::make_unique<harness::SnapshotCache>();
        const auto span = tracer.span(warm_span);
        const sched::Service warm(base, mix, warm_cache.get());
      });

  Samples admit_us;
  Samples evict_us;
  Samples step_us;
  std::vector<std::optional<std::uint64_t>> digests(lanes);
  std::uint64_t replans = 0;
  std::uint64_t class_changes = 0;
  std::uint64_t untraced_allocs = 0;
  std::uint64_t untraced_events = 0;
  measurement.loop(lanes, [&](std::size_t pass) {
    const std::size_t lane = pass % lanes;
    const std::vector<sched::Event>& stream = streams[lane];
    const bool traced = tracer.enabled();
    const std::uint64_t allocs_before = allocations();
    const auto root = tracer.span(lane_span, pass);
    std::optional<sched::Service> service;
    {
      const auto span = tracer.span(construct_span, pass);
      service.emplace(base, mix, warm_cache.get());
    }
    // One service call; traced passes span and time it.
    const auto timed = [&](Tracer::NameId name, Samples& kind, const auto& call) {
      if (!traced) return call();
      const auto span = tracer.span(name, pass);
      const std::int64_t start = now_ns();
      call();
      kind.add(static_cast<double>(now_ns() - start) * 1e-3);
    };
    const auto step_to = [&](std::uint64_t epoch) {
      while (service->epoch() < epoch) timed(step_span, step_us, [&] { service->step(1); });
    };
    for (const sched::Event& event : stream) {
      step_to(event.epoch);
      if (event.kind == sched::EventKind::Admit) {
        timed(admit_span, admit_us, [&] { service->admit({event.tenant, event.workload}); });
      } else {
        timed(evict_span, evict_us, [&] { service->evict(event.tenant); });
      }
    }
    step_to(epochs);
    for (const auto& tenant : service->live_tenants()) {
      timed(evict_span, evict_us, [&] { service->evict(tenant.id); });
    }
    if (!traced) {
      untraced_allocs += allocations() - allocs_before;
      untraced_events += stream.size();
    }

    const std::uint64_t digest = report_digest(*service);
    if (!digests[lane]) {
      digests[lane] = digest;
      replans += service->replans();
      class_changes += service->class_changes();
    }
    outcome.ops(stream.size(), digest == *digests[lane] ? 0 : stream.size());
    return static_cast<double>(stream.size());
  });

  // The event loop must reproduce Service::play + drain exactly.
  obs::Json lane_digests = obs::Json::array();
  for (std::uint64_t lane = 0; lane < lanes; ++lane) {
    sched::Service service(base, mix, warm_cache.get());
    service.play(streams[lane]);
    service.drain(epochs);
    if (report_digest(service) != *digests[lane]) {
      outcome.problem("lane " + std::to_string(lane) +
                      ": the suite's event loop differs from Service::play + drain");
      outcome.failed = outcome.attempted;
    }
    if (options.seed == kPinnedSeed && options.default_params && lane < std::size(kPinnedDigests) &&
        *digests[lane] != kPinnedDigests[lane]) {
      outcome.problem("lane " + std::to_string(lane) + ": report digest " +
                      hex64(*digests[lane]) + " differs from the pinned " +
                      hex64(kPinnedDigests[lane]));
    }
    lane_digests.push_back(hex64(*digests[lane]));
  }
  outcome.outputs.set("lane_digests", std::move(lane_digests))
      .set("replans", replans)
      .set("class_changes", class_changes);

  if (options.trace) {
    auto& m = outcome.metrics;
    m["sched.construct_s"] = tracer.mean_seconds("sched.construct");
    m["sched.admit_us.p50"] = admit_us.median();
    m["sched.admit_us.p99"] = admit_us.percentile(99.0);
    m["sched.evict_us.p50"] = evict_us.median();
    m["sched.evict_us.p99"] = evict_us.percentile(99.0);
    m["sched.step_us.p50"] = step_us.median();
    m["sched.step_us.p99"] = step_us.percentile(99.0);
    m["sched.admit.samples"] = static_cast<double>(admit_us.size());
    m["sched.replans"] = static_cast<double>(replans);
    m["sched.class_changes"] = static_cast<double>(class_changes);
    m["sched.allocs_per_event"] = common::ratio(static_cast<double>(untraced_allocs),
                                                static_cast<double>(untraced_events));
  }
  return outcome;
}

}  // namespace bacp::suite
