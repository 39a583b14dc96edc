// Tenant-churn throughput and determinism bench for the bacp::sched online
// partitioning service: several independent service "lanes" each play a
// deterministic synthetic churn stream (diurnal Poisson arrivals, uniform
// residencies, periodic adversarial thrashers) against a live simulator,
// repartitioning on every admission, departure and class change. Each lane's
// service warms its own substrate System in place: forking one shared
// warm-up measured no faster at this scale. Lanes fan out over a ThreadPool
// but results are keyed and emitted in lane order, so the JSON artifact is
// byte-identical for any --threads — the determinism contract CI diffs two
// runs against. Wall-clock throughput goes to stderr only, keeping the
// artifact environment-independent.
//
// Default scale sums to >10k scheduling events across the lanes.
//
// Flags: --epochs, --lanes, --seed, --epoch, --warmup, --threads,
// --json-out.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/fnv1a.hpp"
#include "common/thread_pool.hpp"
#include "harness/config_cli.hpp"
#include "obs/report.hpp"
#include "sched/service.hpp"
#include "trace/mix.hpp"

namespace {

constexpr bacp::harness::Knob kEpochsKnob{"epochs", "churn stream length per lane, epochs"};
constexpr bacp::harness::Knob kLanesKnob{"lanes", "independent service lanes"};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = bacp::common::kFnv1aBasis;
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= bacp::common::kFnv1aPrime;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

struct LaneResult {
  std::size_t events = 0;
  std::uint64_t admissions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t replans = 0;
  std::uint64_t class_changes = 0;
  std::uint64_t report_digest = 0;
  std::size_t report_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace bacp;

  harness::FlagSpec spec = {
      harness::value_flag(kEpochsKnob),
      harness::value_flag(kLanesKnob),
      harness::value_flag(harness::kSimSeedKnob),
      harness::value_flag(harness::kEpochKnob),
      harness::value_flag(harness::kWarmupKnob),
      harness::value_flag(harness::kThreadsKnob),
  };
  common::ArgParser parser(obs::with_report_flags(std::move(spec)));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  const std::uint64_t epochs = harness::read_positive_u64(parser, kEpochsKnob, 1'500);
  const std::uint64_t lanes = harness::read_positive_u64(parser, kLanesKnob, 8);
  const std::uint64_t seed = harness::read_u64(parser, harness::kSimSeedKnob, 42);
  const Cycle epoch_cycles = harness::read_positive_u64(parser, harness::kEpochKnob, 20'000);
  const std::uint64_t warmup = harness::read_u64(parser, harness::kWarmupKnob, 200'000);
  const std::size_t num_threads = harness::read_threads(parser);

  // The substrate mix seeds every lane's warm-up.
  const auto mix = trace::mix_from_names(
      {"gzip", "mesa", "eon", "crafty", "perlbmk", "gap", "vortex", "bzip2"});

  sched::ServiceConfig base;
  base.system.epoch_cycles = epoch_cycles;
  base.system.seed = seed;
  base.warmup_instructions = warmup;
  base.finalize();

  // High-churn stream: short residencies and an above-capacity arrival rate
  // keep slot turnover (and with it admission/eviction repartitioning) near
  // the structural maximum, which is what this bench is stressing.
  std::vector<std::vector<sched::Event>> streams(lanes);
  for (std::uint64_t lane = 0; lane < lanes; ++lane) {
    sched::ChurnConfig churn;
    churn.epochs = epochs;
    churn.num_slots = base.system.geometry.num_cores;
    churn.seed = seed + lane;
    churn.arrival_rate = 2.0;
    churn.diurnal_period = 250.0;
    churn.min_residency = 4;
    churn.max_residency = 16;
    churn.thrasher_period = 125;
    churn.thrasher_residency = 12;
    streams[lane] = sched::generate_churn(churn);
  }

  std::vector<LaneResult> results(lanes);

  // NOLINTNEXTLINE(bacp-det-wallclock): bench wall-time reporting; never feeds simulated state
  const auto start = std::chrono::steady_clock::now();
  common::ThreadPool pool(num_threads);
  pool.parallel_for(lanes, [&](std::size_t lane) {
    sched::Service service(base, mix);
    service.play(streams[lane]);
    service.drain(epochs);

    LaneResult& out = results[lane];
    out.events = streams[lane].size();
    out.admissions = service.admissions();
    out.evictions = service.evictions();
    out.replans = service.replans();
    out.class_changes = service.class_changes();
    const std::string dump = service.tenant_report().dump();
    out.report_digest = fnv1a(dump);
    out.report_bytes = dump.size();
  });
  // NOLINTNEXTLINE(bacp-det-wallclock): bench wall-time reporting, as above
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

  std::uint64_t total_events = 0;
  std::uint64_t total_replans = 0;
  std::uint64_t total_class_changes = 0;
  obs::Report report("sched_churn", "bacp::sched tenant-churn service bench");
  auto& table = report.table(
      "lanes", {"lane", "events", "admits", "evicts", "replans", "class_changes",
                "report_digest", "report_bytes"});
  for (std::uint64_t lane = 0; lane < lanes; ++lane) {
    const LaneResult& lr = results[lane];
    total_events += lr.events;
    total_replans += lr.replans;
    total_class_changes += lr.class_changes;
    table.begin_row()
        .cell(static_cast<std::uint64_t>(lane))
        .cell(static_cast<std::uint64_t>(lr.events))
        .cell(lr.admissions)
        .cell(lr.evictions)
        .cell(lr.replans)
        .cell(lr.class_changes)
        .cell(hex64(lr.report_digest))
        .cell(static_cast<std::uint64_t>(lr.report_bytes));
  }
  report.meta("seed", std::to_string(seed))
      .meta("epoch_cycles", std::to_string(epoch_cycles))
      .meta("warmup_instructions", std::to_string(warmup))
      .metric("lanes", lanes)
      .metric("epochs_per_lane", epochs)
      .metric("total_events", total_events)
      .metric("total_replans", total_replans)
      .metric("total_class_changes", total_class_changes);
  report.note("per-lane report_digest is the FNV-1a of the full tenant_report() JSON; "
              "identical digests across runs/thread counts == identical service history");

  // Timing stays off the artifact so two runs diff clean.
  std::cerr << "sched_churn: " << total_events << " events in " << elapsed.count()
            << " s (" << (elapsed.count() > 0.0
                              ? static_cast<double>(total_events) / elapsed.count()
                              : 0.0)
            << " events/s)\n";

  return report.emit(std::cout, options) ? 0 : 1;
}
