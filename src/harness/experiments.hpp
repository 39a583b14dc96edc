#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "sim/system.hpp"
#include "trace/mix.hpp"

namespace bacp::harness {

/// One of the paper's eight detailed-simulation workload sets (Table III),
/// with the way assignments the paper reports for its Bank-aware runs (for
/// side-by-side comparison; sets 1 and 3 as printed sum to <128, so exact
/// equality is not expected even of the authors' own allocator).
struct ExperimentSet {
  std::string label;
  std::vector<std::string> benchmarks;      // core0..core7
  std::vector<WayCount> paper_ways;         // paper's reported assignment
  trace::WorkloadMix mix() const;
};

/// The eight sets exactly as listed in Table III.
const std::vector<ExperimentSet>& table3_sets();

/// Scale knobs for the detailed simulations behind Figs. 8 and 9. The
/// paper warms for 100M instructions and measures 200M per core; defaults
/// here are scaled ~10x down so the full 8-set sweep runs in minutes.
struct DetailedRunConfig {
  std::uint64_t warmup_instructions = 8'000'000;    ///< per core
  std::uint64_t measure_instructions = 16'000'000;  ///< per core
  Cycle epoch_cycles = 8'000'000;
  std::uint64_t seed = 42;

  /// The standard scale flags (--warmup, --instr, --epoch, --seed) for
  /// binaries that drive detailed simulations; pair with from_args().
  static std::vector<std::pair<std::string, std::string>> cli_flags();

  /// Builds a config from parsed flags; an absent flag keeps its built-in
  /// default. A zero --epoch exits 2.
  static DetailedRunConfig from_args(const common::ArgParser& parser);
};

/// One point of a configuration sweep: a finalized config, the mix it runs
/// and its warm-up length, labelled for reports.
struct SweepVariant {
  std::string label;
  sim::SystemConfig config;  ///< must be finalized
  trace::WorkloadMix mix;
  std::uint64_t warmup_instructions = 0;
};

/// How a sweep executes. Neither knob changes results.
struct SweepOptions {
  /// Worker threads (0 = hardware concurrency). Variants are independent
  /// simulations, so results are identical for any worker count.
  std::size_t num_threads = 0;
  /// Directory for file-backed warm-state snapshots shared across sweeps
  /// and processes (SnapshotCache::set_file_bank); empty = every variant
  /// warms its own System in place.
  std::string snapshot_bank;

  /// The sweep flags (--threads, --snapshot-bank); every sweep binary takes
  /// exactly these. Pair with from_args().
  static std::vector<std::pair<std::string, std::string>> cli_flags();

  /// Builds the options from parsed flags; an absent flag keeps its
  /// default. An unusable --snapshot-bank exits 2.
  static SweepOptions from_args(const common::ArgParser& parser);
};

/// The one sweep engine. Runs every variant over a ThreadPool: construct
/// the variant's System, bring it to its warm point via warm_system() (from
/// the snapshot bank when options.snapshot_bank is set, in place
/// otherwise), then hand it to `body` along with the variant index. `body`
/// must write its findings into caller-owned per-index slots (it runs
/// concurrently); emitting rows in variant order afterwards keeps
/// artifacts independent of the thread count.
void run_variant_sweep(std::span<const SweepVariant> variants, const SweepOptions& options,
                       const std::function<void(sim::System&, std::size_t)>& body);

/// Full-system results of one workload set under the three policies of the
/// paper's Section IV-B.
struct SetComparison {
  std::string label;
  sim::SystemResults none;
  sim::SystemResults equal;
  sim::SystemResults bank_aware;

  double equal_relative_misses() const;
  double bank_relative_misses() const;
  double equal_relative_cpi() const;
  double bank_relative_cpi() const;
};

/// Runs the full set x policy matrix for `sets` (Figs. 8 and 9 share this
/// sweep): No-partition / Equal-partition / Bank-aware per set with
/// identical seeds (same reference streams), as one run_variant_sweep()
/// variant list, so an 8-set sweep keeps every worker busy instead of
/// barriering after each set. Results come back in `sets` order and are
/// byte-for-byte independent of the options.
std::vector<SetComparison> run_detailed_sweep(std::span<const ExperimentSet> sets,
                                              const DetailedRunConfig& config,
                                              const SweepOptions& options);

}  // namespace bacp::harness
