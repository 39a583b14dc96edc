#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bacp::sampling {

/// Deterministic k-medoids clustering (PAM: greedy BUILD, then best-swap
/// SWAP to a local optimum). Medoids are actual input points, so each
/// cluster's representative is a real simulatable interval — the property
/// k-means lacks and the reason SimPoint-style selection uses medoids here.
struct KMedoidsResult {
  std::vector<std::uint32_t> medoids;     ///< point indices, strictly ascending
  std::vector<std::uint32_t> assignment;  ///< per point: medoid slot in [0, k)
  std::vector<std::uint64_t> weights;     ///< per slot: cluster population
  double total_cost = 0.0;  ///< sum of distances to assigned medoids
};

/// Clusters `points` (equal-length feature vectors) around `k` medoids.
/// Fully deterministic: no RNG, all ties broken toward the lowest index, so
/// the same points yield the same plan on every thread count and process.
/// O(k * n^2) per SWAP round — sized for interval counts in the tens to
/// hundreds, not millions. Requires 1 <= k <= points.size().
KMedoidsResult kmedoids(std::span<const std::vector<double>> points, std::uint32_t k);

}  // namespace bacp::sampling
