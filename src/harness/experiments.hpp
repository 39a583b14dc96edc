#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "nuca/dnuca_cache.hpp"
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
  nuca::AggregationKind aggregation = nuca::AggregationKind::Parallel;
  std::uint64_t seed = 42;
  /// Worker threads for multi-run sweeps (0 = hardware concurrency).
  /// Every run is an isolated System with its own seed-derived RNG
  /// streams, so results are identical for any worker count.
  std::size_t num_threads = 0;
  /// Warm once per distinct warm-state fingerprint and fork the snapshot
  /// into every run sharing it. Exact restore: artifacts stay byte-for-byte
  /// identical to cold per-run warm-up (--no-snapshot-reuse disables).
  bool snapshot_reuse = true;
  /// Directory for file-backed warm-state snapshots shared across processes
  /// (SnapshotCache::set_file_bank); empty = in-memory reuse only.
  std::string snapshot_bank;

  DetailedRunConfig& with_warmup_instructions(std::uint64_t value) {
    warmup_instructions = value;
    return *this;
  }
  DetailedRunConfig& with_measure_instructions(std::uint64_t value) {
    measure_instructions = value;
    return *this;
  }
  DetailedRunConfig& with_epoch_cycles(Cycle value) {
    epoch_cycles = value;
    return *this;
  }
  DetailedRunConfig& with_aggregation(nuca::AggregationKind value) {
    aggregation = value;
    return *this;
  }
  DetailedRunConfig& with_seed(std::uint64_t value) {
    seed = value;
    return *this;
  }
  DetailedRunConfig& with_num_threads(std::size_t value) {
    num_threads = value;
    return *this;
  }
  DetailedRunConfig& with_snapshot_reuse(bool value) {
    snapshot_reuse = value;
    return *this;
  }

  /// The standard scale flags (--warmup, --instr, --epoch, --seed) plus the
  /// sweep knobs detailed runs honour (--threads, --snapshot-bank,
  /// --no-snapshot-reuse) for binaries that drive detailed simulations;
  /// pair with from_args(). --pool and --mmap are not offered: every policy
  /// run builds its own System and reads the bank through the default path.
  static std::vector<std::pair<std::string, std::string>> cli_flags();

  /// Builds a config from parsed flags. Precedence: explicit flag, then the
  /// BACP_SIM_{WARMUP,INSTR,EPOCH,SEED}, BACP_THREADS and BACP_SNAPSHOT_BANK
  /// environment knobs, then the built-in defaults. An unusable
  /// --snapshot-bank exits 2.
  static DetailedRunConfig from_args(const common::ArgParser& parser);
};

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

/// Runs No-partition / Equal-partition / Bank-aware on one mix with
/// identical seeds (same reference streams) and returns the comparison.
/// The three policy runs are independent simulations and execute on a
/// ThreadPool of config.num_threads workers.
SetComparison run_set_comparison(const std::string& label, const trace::WorkloadMix& mix,
                                 const DetailedRunConfig& config);

/// Runs the full set x policy matrix for `sets` (Figs. 8 and 9 share this
/// sweep): all runs are flattened into one task list over a single
/// ThreadPool, so an 8-set sweep keeps every worker busy instead of
/// barriering after each set. Results come back in `sets` order and are
/// byte-for-byte independent of the worker count.
std::vector<SetComparison> run_detailed_sweep(std::span<const ExperimentSet> sets,
                                              const DetailedRunConfig& config);

}  // namespace bacp::harness
