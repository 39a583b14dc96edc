#pragma once

#include <cstdint>
#include <vector>

#include "audit/audit.hpp"

namespace bacp::audit {

/// What one mix's interval-sampling plan claims about itself, stripped to
/// the facts the legality audit needs, so the audit layer stays independent
/// of bacp::sampling: the engine builds this from its k-medoids output and
/// the auditor never sees feature vectors or simulation state.
struct SamplingPlanInput {
  std::uint32_t num_intervals = 0;  ///< population the plan extrapolates to
  std::uint32_t k = 0;              ///< representative intervals simulated
  std::vector<std::uint32_t> medoids;     ///< interval indices, strictly ascending
  std::vector<std::uint32_t> assignment;  ///< per interval: medoid slot in [0, k)
  std::vector<std::uint64_t> weights;     ///< per medoid slot: cluster population
};

/// Plan-legality audit: k in (0, num_intervals]; exactly k medoids, each a
/// distinct in-range interval index in strictly ascending order; every
/// interval assigned to an existing medoid slot; each medoid assigned to
/// its own slot (a medoid is its cluster's representative); each slot's
/// weight equals its assignment population; and the weights sum to the
/// full population — so the extrapolation can neither drop nor
/// double-count an interval. Violations are data, not aborts — the
/// sampling engine decides to refuse.
AuditReport audit_sampling_plan(const SamplingPlanInput& plan);

}  // namespace bacp::audit
