#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace bacp::sched {

/// One tenant-churn event, applied at the *start* of the named scheduler
/// epoch (before that epoch is simulated).
enum class EventKind : std::uint8_t {
  Admit,  ///< a tenant arrives and claims a free core slot
  Evict,  ///< a live tenant departs and frees its slot
};

struct Event {
  std::uint64_t epoch = 0;
  EventKind kind = EventKind::Admit;
  std::uint64_t tenant = 0;   ///< stable tenant id (ids may be reused after evict)
  std::string workload;       ///< spec2000 benchmark name; admits only
};

/// Deterministic synthetic churn for the service benchmarks: Poisson
/// arrivals whose rate follows a diurnal (sinusoidal) curve, uniformly
/// drawn residencies, plus a periodic adversarial thrasher tenant (a
/// streaming memory hog admitted at the diurnal peak, when competition for
/// capacity is worst). The generator tracks slot occupancy so the stream
/// never over-admits: an arrival finding no free slot is dropped. Output is
/// a pure function of the config — same config, same byte-identical stream.
struct ChurnConfig {
  std::uint64_t epochs = 1000;      ///< stream length in scheduler epochs
  std::uint32_t num_slots = 8;      ///< core slots available to tenants
  std::uint64_t seed = 1;           ///< arrival/residency/workload draws
  double arrival_rate = 0.4;        ///< mean admits per epoch at diurnal peak
  double diurnal_period = 250.0;    ///< epochs per simulated "day"
  std::uint64_t min_residency = 25; ///< shortest tenant lifetime, epochs
  std::uint64_t max_residency = 150;
  std::uint64_t thrasher_period = 125;  ///< thrasher admission cadence (0 = off)
  std::uint64_t thrasher_residency = 20;
};
std::vector<Event> generate_churn(const ChurnConfig& config);

}  // namespace bacp::sched
