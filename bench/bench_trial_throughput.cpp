// Trial-engine throughput benchmark: trials/second through the Monte-Carlo
// sweep in its two modes, so bench/out/ tracks per-trial *setup and
// allocation* cost PR over PR (the lever ISSUE 10 targets; the per-access
// hot path is bench_perf_throughput's beat).
//
// Measured surfaces:
//   - analytic: run_monte_carlo with sampling off — per trial, a random
//               mix, the three capacity assignments (fixed share,
//               Unrestricted, Bank-aware) and their projected miss counts.
//               Thousands of these per second is what makes the 10^5-mix
//               sweeps of ROADMAP item 2 tractable.
//   - sampled:  run_monte_carlo --sampled against a *warm* snapshot bank —
//               an untimed populate sweep fills a file bank with every
//               boundary state, then the timed sweep replays the identical
//               trials from it. This is the production shape (re-sweeps
//               and processes share a bank), and it isolates per-trial
//               *start* cost — System setup, snapshot load, restore —
//               which pooling + zero-copy restore attack, over the
//               irreducible detailed-interval floor.
//
// Both surfaces report allocs/trial through the same global operator-new
// counter bench_perf_throughput uses, plus a deterministic checksum over
// the summary ratios so result drift is distinguishable from speed drift.
// The sampled surface also reports bank_bytes_per_snapshot, the mean size
// of the bank's .snap files after the populate sweep: the snapshot format's
// size, which every per-byte cost of a sampled trial scales with
// (deterministic at a fixed seed and scale).
//
// Flags: --trials (analytic trials), --sampled-trials, --seed, --threads,
// --sampled, --sampled-intervals, --sampled-interval-instr,
// --sampled-warmup, --snapshot-bank, --pool, --mmap, --json-out. Scale
// defaults are laptop-friendly; CI passes them explicitly.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <new>
#include <system_error>

#include "common/assert.hpp"
#include "common/env.hpp"
#include "harness/config_cli.hpp"
#include "harness/monte_carlo.hpp"
#include "obs/phase_timer.hpp"
#include "obs/report.hpp"

namespace {

/// Global operator new/delete instrumentation, as in bench_perf_throughput:
/// counts every heap allocation in the process so allocs/trial is an
/// honest whole-engine number (curve copies, vector churn, snapshot
/// buffers — everything). Relaxed ordering suffices; readings bracket
/// whole sweeps.
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

/// FNV-1a over the bit pattern of a double: the summary means must land on
/// identical bytes at a fixed seed regardless of thread count, pool size or
/// restore path — the determinism contract this bench pins.
std::uint64_t fold_bits(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (unsigned shift = 0; shift < 64; shift += 8) {
    hash ^= (bits >> shift) & 0xFFu;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

int main(int argc, char** argv) {
  using namespace bacp;

  constexpr harness::Knob kSampledTrialsKnob{"sampled-trials",
                                             "trials for the sampled surface"};
  auto spec = harness::MonteCarloConfig::cli_flags();
  spec.push_back(harness::value_flag(kSampledTrialsKnob));
  common::ArgParser parser(obs::with_report_flags(std::move(spec)));
  if (const auto exit_code = obs::handle_cli(parser, argc, argv)) return *exit_code;
  const auto options = obs::ReportOptions::from_args(parser);

  // --trials sizes the analytic surface (default large: analytic trials are
  // cheap and the rate estimate needs the sweep to dominate fixed costs);
  // --sampled-trials sizes the detailed surface (default small: each trial
  // runs the simulator). The sampled scale knobs default to short intervals
  // so trial *start* cost — the quantity under test — dominates the run.
  harness::MonteCarloConfig base = harness::MonteCarloConfig::from_args(parser);
  const auto analytic_trials =
      static_cast<std::size_t>(harness::read_positive_u64(parser, harness::kTrialsKnob, 20'000));
  const auto sampled_trials =
      static_cast<std::size_t>(harness::read_positive_u64(parser, kSampledTrialsKnob, 12));

  obs::PhaseTimers timers;
  obs::Report report("trial_throughput", "Trial-engine throughput (trials/second)");
  report.meta("analytic_trials", std::to_string(analytic_trials));
  report.meta("sampled_trials", std::to_string(sampled_trials));
  report.meta("seed", std::to_string(base.seed));
  std::uint64_t checksum = 0;

  auto& table = report.table(
      "throughput", {"surface", "trials", "seconds", "trials/sec", "allocs/trial"});
  const auto add_row = [&](const std::string& surface, std::uint64_t count,
                           double seconds, std::uint64_t allocs) {
    const double rate = seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
    const double allocs_per_trial =
        count == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(count);
    table.begin_row()
        .cell(surface)
        .cell(count)
        .cell(seconds, 4)
        .cell(rate, 0)
        .cell(allocs_per_trial, 1);
    return rate;
  };

  // --- Analytic-only surface. ------------------------------------------
  {
    harness::MonteCarloConfig config = base;
    config.trials = analytic_trials;
    config.sampled_k = 0;
    // Untimed warm-up sweep at 1/8 scale: faults in the curve bank, the
    // thread pool and the allocator arenas so the timed sweep measures
    // steady-state trial cost.
    harness::MonteCarloConfig warm = config;
    warm.trials = std::max<std::size_t>(1, analytic_trials / 8);
    (void)harness::run_monte_carlo(warm);
    const std::uint64_t allocs_before = allocations();
    harness::MonteCarloSummary summary;
    {
      const auto scope = timers.scope("analytic");
      summary = harness::run_monte_carlo(config);
    }
    const std::uint64_t allocs = allocations() - allocs_before;
    checksum = fold_bits(checksum, summary.mean_unrestricted_ratio);
    checksum = fold_bits(checksum, summary.mean_bank_aware_ratio);
    report.metric("analytic_trials_per_sec",
                  add_row("analytic", analytic_trials, timers.seconds("analytic"),
                          allocs),
                  0);
    report.metric("analytic_allocs_per_trial",
                  analytic_trials == 0 ? 0.0
                                       : static_cast<double>(allocs) /
                                             static_cast<double>(analytic_trials),
                  1);
  }

  // --- Sampled surface (detailed simulator over k intervals). -----------
  {
    harness::MonteCarloConfig config = base;
    config.trials = sampled_trials;
    if (config.sampled_k == 0) config.sampled_k = 3;
    // Bench-scale defaults unless the caller pinned them: short intervals
    // and warm-up keep the run seconds-long while preserving the cost
    // shape (setup + snapshot load + restore around small measured runs).
    if (config.sampled_intervals == 96) config.sampled_intervals = 24;
    if (config.sampled_interval_instructions == 50'000) {
      config.sampled_interval_instructions = 20'000;
    }
    if (config.sampled_warmup == 500'000) config.sampled_warmup = 60'000;
    // Warm snapshot bank: unless the caller supplied one, populate a
    // private bank with an untimed sweep of the identical trials, so the
    // timed sweep loads every boundary state from the bank instead of
    // re-warming — the repeated-sweep steady state whose per-trial start
    // cost this surface tracks.
    std::string bank = config.snapshot_bank;
    if (bank.empty()) {
      std::string pattern =
          common::env_string("TMPDIR", "/tmp") + "/bacp-trial-bank.XXXXXX";
      if (char* made = mkdtemp(pattern.data())) bank = made;
      config.snapshot_bank = bank;
    }
    (void)harness::run_monte_carlo(config);
    std::uint64_t snap_bytes = 0;
    std::uint64_t snap_files = 0;
    std::error_code list_error;
    for (const auto& entry : std::filesystem::directory_iterator(bank, list_error)) {
      if (entry.path().extension() != ".snap") continue;
      snap_bytes += entry.file_size();
      ++snap_files;
    }
    const std::uint64_t allocs_before = allocations();
    harness::MonteCarloSummary summary;
    {
      const auto scope = timers.scope("sampled");
      summary = harness::run_monte_carlo(config);
    }
    const std::uint64_t allocs = allocations() - allocs_before;
    // Private bank: best-effort cleanup (a shared --snapshot-bank is the
    // caller's to keep).
    if (base.snapshot_bank.empty() && !bank.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(bank, ec);
    }
    checksum = fold_bits(checksum, summary.mean_sampled_miss_ratio);
    checksum = fold_bits(checksum, summary.mean_sampled_cpi);
    report.metric("sampled_trials_per_sec",
                  add_row("sampled", sampled_trials, timers.seconds("sampled"),
                          allocs),
                  1);
    report.metric("sampled_allocs_per_trial",
                  sampled_trials == 0 ? 0.0
                                      : static_cast<double>(allocs) /
                                            static_cast<double>(sampled_trials),
                  1);
    report.metric("bank_bytes_per_snapshot",
                  snap_files == 0 ? std::uint64_t{0} : snap_bytes / snap_files);
  }

  report.metric("checksum", checksum);
  report.note("trials/sec is the headline; checksum pins the summary ratios "
              "(must not drift across pool size or restore path at a fixed "
              "seed)");
  return report.emit(std::cout, options) ? 0 : 1;
}
