#include "sched/events.hpp"

#include <cmath>
#include <cstddef>

#include "common/assert.hpp"

namespace bacp::sched {

namespace {

/// Knuth's product-of-uniforms Poisson sampler: exact, deterministic, and
/// cheap at the small per-epoch rates churn streams use.
std::uint64_t poisson_draw(common::Rng& rng, double mean) {
  if (mean <= 0.0) return 0;
  const double limit = std::exp(-mean);
  std::uint64_t count = 0;
  double product = rng.next_double();
  while (product > limit) {
    ++count;
    product *= rng.next_double();
  }
  return count;
}

/// Arrival palette spanning the three tenant classes: compute-bound lights,
/// flat-curve streamers, and capacity-hungry cache-sensitive benchmarks.
constexpr const char* kPalette[] = {
    "eon", "crafty", "mesa",          // light
    "swim", "lucas", "equake",        // streaming
    "bzip2", "facerec", "mcf", "gcc", // cache-sensitive
};
constexpr const char* kThrasher = "art";

}  // namespace

std::vector<Event> generate_churn(const ChurnConfig& config) {
  BACP_ASSERT(config.num_slots > 0, "churn needs at least one slot");
  BACP_ASSERT(config.min_residency > 0 && config.min_residency <= config.max_residency,
              "churn residency bounds are inverted");
  common::Rng rng(config.seed, 0x5C4EDULL);
  std::vector<Event> events;
  // Slot occupancy: tenant id per slot (0 = free). Ids start at 1 and are
  // never reused by the generator (reuse is exercised by dedicated tests).
  std::vector<std::uint64_t> slot_tenant(config.num_slots, 0);
  std::vector<std::uint64_t> slot_departs(config.num_slots, 0);
  std::uint64_t next_id = 1;
  constexpr double kPi = 3.14159265358979323846;

  for (std::uint64_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Departures first: a slot freed this epoch is admissible this epoch.
    for (std::uint32_t slot = 0; slot < config.num_slots; ++slot) {
      if (slot_tenant[slot] != 0 && slot_departs[slot] == epoch) {
        events.push_back({epoch, EventKind::Evict, slot_tenant[slot], ""});
        slot_tenant[slot] = 0;
      }
    }

    const auto admit_to_free_slot = [&](const char* workload,
                                        std::uint64_t residency) {
      for (std::uint32_t slot = 0; slot < config.num_slots; ++slot) {
        if (slot_tenant[slot] != 0) continue;
        slot_tenant[slot] = next_id;
        slot_departs[slot] = epoch + residency;
        events.push_back({epoch, EventKind::Admit, next_id, workload});
        ++next_id;
        return;
      }
      // No free slot: the arrival balks. (Real services queue; a stream
      // that over-admits would just trip the Service's capacity assert.)
    };

    // Diurnal modulation: rate swings between ~0 and the configured peak.
    const double phase = 2.0 * kPi * static_cast<double>(epoch) / config.diurnal_period;
    const double rate = config.arrival_rate * 0.5 * (1.0 + std::sin(phase));
    const std::uint64_t arrivals = poisson_draw(rng, rate);
    for (std::uint64_t i = 0; i < arrivals; ++i) {
      const auto pick = rng.next_below(std::size(kPalette));
      const std::uint64_t residency =
          config.min_residency +
          rng.next_below(config.max_residency - config.min_residency + 1);
      admit_to_free_slot(kPalette[pick], residency);
    }

    // Adversarial thrasher: a streaming hog slammed in on a fixed cadence,
    // phase-locked to the diurnal peak (period/4 is where sin() crests).
    if (config.thrasher_period != 0 && epoch % config.thrasher_period == 0 &&
        epoch != 0) {
      admit_to_free_slot(kThrasher, config.thrasher_residency);
    }
  }
  return events;
}

}  // namespace bacp::sched
