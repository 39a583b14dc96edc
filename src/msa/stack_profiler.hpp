#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "common/types.hpp"
#include "msa/miss_curve.hpp"

namespace bacp::snapshot {
class Writer;
class Reader;
}  // namespace bacp::snapshot

namespace bacp::audit {
class ComponentAuditor;
}  // namespace bacp::audit

namespace bacp::msa {

/// Hardware-faithful Mattson stack-distance profiler (paper Section III-A).
///
/// One profiler shadows one core's L2 reference stream against a
/// `profiled_ways`-deep LRU stack per monitored set. K+1 counters record
/// hits per stack position plus misses (Fig. 2). The three hardware cost
/// reductions the paper applies are all modelled:
///   - *set sampling* (1-in-N sets monitored; Kessler trace-sampling),
///   - *partial tags*  (width-limited tag compare; aliasing is real here —
///     two blocks hashing alike are confused, exactly the 5%-error source
///     the paper quantifies),
///   - *maximum assignable capacity* (stack only as deep as a core could
///     ever be allocated: 9/16 of the cache in the Bank-aware scheme).
struct ProfilerConfig {
  std::uint32_t num_sets = 2048;       ///< sets of the monitored cache view
  std::uint32_t set_sampling = 32;     ///< monitor 1 in N sets (1 = all)
  std::uint32_t partial_tag_bits = 12; ///< 0 = full-tag reference profiler
  WayCount profiled_ways = 72;         ///< stack depth == max assignable ways
};

class StackProfiler {
 public:
  explicit StackProfiler(const ProfilerConfig& config);

  /// Feeds one block-granular L2 access. Non-sampled sets are ignored (the
  /// hardware never sees them).
  void observe(BlockAddress block);

  /// Counters C1..CK (hits by stack position) plus C(K+1) (misses).
  const common::Histogram& histogram() const { return histogram_; }

  /// Projection to a miss-ratio curve over 1..profiled_ways, scaled back up
  /// by the sampling factor so curves are comparable across sampling rates.
  MissRatioCurve curve() const;

  /// Epoch-boundary decay: halves all counters (and leaves the stacks
  /// intact, as real hardware would).
  void decay();

  void clear();

  std::uint64_t observed_accesses() const { return observed_; }
  std::uint64_t sampled_accesses() const { return sampled_; }
  const ProfilerConfig& config() const { return config_; }

  /// Serializes the histogram, the per-set tag stacks and the access
  /// counters. Restore asserts the config echo matches.
  void save_state(snapshot::Writer& writer) const;
  void restore_state(snapshot::Reader& reader);

 private:
  friend class audit::ComponentAuditor;
  friend struct ProfilerTestPeer;  ///< mutation hooks for the audit kill-tests

  bool is_sampled_set(std::uint32_t set) const {
    // observe() runs per L2 access and the default sampling (1 in 32) is a
    // power of two, so the common case is a mask test, not a division.
    if (sample_is_pow2_) return (set & sample_mask_) == 0;
    return set % config_.set_sampling == 0;
  }
  std::uint32_t stored_tag(BlockAddress block) const;

  ProfilerConfig config_;
  // Set-index geometry, derived once at construction: observe() runs per L2
  // access, so the shift/mask must not be recomputed per call.
  // NOLINTNEXTLINE(bacp-snapshot-fields): derived from config at construction; restore asserts the echo
  std::uint32_t set_shift_ = 0;
  // NOLINTNEXTLINE(bacp-snapshot-fields): derived from config, as above
  std::uint64_t set_mask_ = 0;
  // Sampling-test fast path, derived once at construction.
  // NOLINTNEXTLINE(bacp-snapshot-fields): derived from config, as above
  bool sample_is_pow2_ = false;
  // NOLINTNEXTLINE(bacp-snapshot-fields): derived from config, as above
  std::uint32_t sample_mask_ = 0;
  common::Histogram histogram_;  // profiled_ways + 1 bins
  // Per sampled set: tag stack, MRU first. Tags are either partial hashes
  // or (width 0) the full tag bits — stored uniformly as 64-bit entries.
  // Stacks live in one flat array (profiled_ways entries per sampled set)
  // so the move-to-front on every observe() is a single memmove over
  // contiguous memory instead of a vector erase/insert.
  std::vector<std::uint64_t> stack_entries_;  // num_stacks * profiled_ways
  std::vector<std::uint32_t> stack_sizes_;    // per sampled set
  std::uint64_t observed_ = 0;
  std::uint64_t sampled_ = 0;
};

}  // namespace bacp::msa
