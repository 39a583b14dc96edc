#pragma once

// bacp-suite: the pieces every workload of the benchmark binary shares —
// the host clock, sample statistics, the span tracer, the measurement
// skeleton (timed set-up, closed loop, traced/untraced split) and the
// result record a workload fills. See README.md for the workloads and the
// metric catalog.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace bacp::suite {

/// Monotonic host time in nanoseconds — the suite's only clock read.
std::int64_t now_ns();

/// Heap allocations made by the process so far (main.cpp counts every
/// global operator new).
std::uint64_t allocations();

/// FNV-1a over a byte string, one byte per multiply (bench_sched_churn's
/// lane report digest).
std::uint64_t fnv1a(std::string_view bytes);

/// Folds the bit pattern of a double into an FNV-1a hash, one byte per
/// multiply (bench_trial_throughput's checksum).
std::uint64_t fold_bits(std::uint64_t hash, double value);

std::string hex64(std::uint64_t value);

/// Timing samples with R-7 percentiles (common::percentile).
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  /// p in [0, 100]; 0 when there are no samples.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

 private:
  std::vector<double> values_;
};

/// Span recorder for traced runs. Spans are opened by the suite around
/// its calls into the simulator's layers, nest by scope, and carry the id
/// of the operation (trial, lane, round) that caused them. Per-name call
/// counts and total time are accumulated for every span; the span records,
/// with their self time (the span's duration minus what its child spans
/// cover), are kept in memory for the first kMaxRecords spans, whole trees
/// at a time, and written out at exit as Chrome trace-event JSON.
/// A disabled tracer opens nothing and reads no clock.
class Tracer {
 public:
  using NameId = std::uint32_t;
  static constexpr std::size_t kMaxRecords = 20'000;

  class Span {
   public:
    Span(Tracer& tracer, NameId name, std::uint64_t op);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;  ///< null when the tracer was disabled at open
  };

  /// Registers a span name ("layer.operation"); the layer is the text
  /// before the first dot and becomes the Chrome event category.
  NameId intern(std::string_view name);

  Span span(NameId name, std::uint64_t op = 0) { return Span(*this, name, op); }

  /// Switches recording on or off between spans (never with spans open).
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Mean duration of the spans named `name`, in seconds; 0 when none ran.
  double mean_seconds(std::string_view name) const;
  /// Share of the enabled wall time spent inside layer calls: the spans
  /// directly below a top-level (workload-owned) span.
  double coverage() const;

  /// {"traceEvents": [...], "otherData": {...}}; every span must be closed.
  obs::Json to_chrome_json() const;

 private:
  struct Record {
    NameId name = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t duration_ns = 0;
    std::int64_t self_ns = 0;
  };
  struct Open {
    NameId name = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };

  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
  };

  void open(NameId name, std::uint64_t op);
  void close();

  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Record> records_;
  std::vector<Open> open_;
  bool enabled_ = false;
  bool recording_tree_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::int64_t origin_ns_ = now_ns();
  std::int64_t enabled_since_ns_ = 0;
  std::int64_t enabled_ns_ = 0;
  std::int64_t layer_ns_ = 0;
};

/// Checks a written trace: it parses with obs::Json::parse, every span has
/// a unique id and an existing parent, lies inside its parent's interval,
/// has self time >= 0, and its children's durations never exceed its own.
/// Returns the problems found (empty = valid).
std::vector<std::string> verify_trace(const std::string& path);

/// Workload scale knobs: name -> value.
using Params = std::map<std::string, std::uint64_t>;

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;  ///< directory for files a workload creates
  Params params;        ///< the workload's defaults with flag overrides applied
  bool default_params = true;  ///< no scale flag was given: pinned digests apply
};

/// What one workload run reports. A non-empty `problems` list makes the
/// run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, double> metrics;
  /// Deterministic results (counts, digests) — identical for identical
  /// (workload, seed, params) whether traced or not.
  obs::Json outputs = obs::Json::object();
  std::uint64_t passes = 0;
  double median_rate = 0.0;  ///< median pass rate, recorded beside `throughput`

  void problem(std::string text) { problems.push_back(std::move(text)); }
  /// Counts `ops` operations, `bad` of them failed.
  void ops(std::uint64_t ops, std::uint64_t bad) {
    attempted += ops;
    failed += bad;
  }
};

/// The measurement skeleton every workload shares.
///
///   - setup(): the workload's set-up, run kSetupReps times, each timed;
///     the median is `setup_s`. Traced runs trace it.
///   - loop(): the closed loop. One caller issues pass after pass, each
///     only after the previous one returned, until `seconds` have elapsed
///     and at least `min_passes` ran. A pass returns the work units it
///     completed. Untraced runs report `throughput`, the upper decile of
///     the passes' work per second; traced runs trace two passes in three,
///     keep every third untraced as the baseline, and report
///     `tracing.overhead_ratio` (traced over untraced median time per work
///     unit) and `tracing.coverage`.
class Measurement {
 public:
  static constexpr int kSetupReps = 3;

  Measurement(const RunOptions& options, Tracer& tracer, Outcome& outcome);

  /// `teardown` releases the previous repetition's state outside the timer.
  void setup(const std::function<void()>& teardown, const std::function<void()>& body);
  void loop(std::size_t min_passes, const std::function<double(std::size_t)>& pass);

 private:
  const RunOptions& options_;
  Tracer& tracer_;
  Outcome& outcome_;
};

Outcome run_fig8_detailed(const RunOptions& options, Tracer& tracer);
Outcome run_mc_analytic(const RunOptions& options, Tracer& tracer);
Outcome run_mc_sampled(const RunOptions& options, Tracer& tracer);
Outcome run_sched_churn(const RunOptions& options, Tracer& tracer);

/// `bacp_bench compare PARENT_DIR CHANGE_DIR [--bounds FILE]`.
int compare_main(const std::string& parent_dir, const std::string& change_dir,
                 const std::string& bounds_path);

/// `bacp_bench crosscheck --perf P --trial T --churn C RESULT...`: the
/// suite's outputs against the existing benches' artifacts at equal flags.
int crosscheck_main(const std::string& perf_path, const std::string& trial_path,
                    const std::string& churn_path, const std::vector<std::string>& results);

/// Reads a whole JSON file; null with `error` set on failure.
obs::Json read_json_file(const std::string& path, std::string* error);

}  // namespace bacp::suite
