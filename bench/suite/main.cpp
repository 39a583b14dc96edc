// bacp_bench: the bacp-suite benchmark binary (README.md has the workloads,
// the metric catalog and how the bounds were set).
//
//   bacp_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//              [--out DIR] [--sha SHA] [scale flags]
//   bacp_bench compare PARENT_DIR CHANGE_DIR [--bounds BENCHMARK.json]
//   bacp_bench crosscheck --perf P.json --trial T.json --churn C.json RESULT...
//   bacp_bench verify-trace TRACE UNTRACED_RESULT TRACED_RESULT
//
// A run prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics": {name: {"value",
// "unit"}}}: the end-to-end metrics, or with --trace 1 the per-layer ones.
// With --out it also writes the full result (provenance, parameters,
// deterministic outputs) there, plus the Chrome trace of a traced run.

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <set>
#include <thread>

#include "common/args.hpp"
#include "common/assert.hpp"
#include "suite.hpp"

#ifndef BACP_SUITE_BUILD_TYPE
#define BACP_SUITE_BUILD_TYPE "unknown"
#endif

namespace {

/// Every heap allocation in the process, so allocs-per-operation metrics
/// cover the whole engine. Relaxed ordering suffices: the suite reads it on
/// its only thread around single-threaded work.
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace bacp::suite {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace bacp::suite

namespace {

using namespace bacp;
using namespace bacp::suite;

/// The metric catalog (BENCHMARK.json lists the same names and units).
/// Every untraced run prints exactly end_to_end_metrics(); every traced run
/// prints exactly per_layer_metrics(), with 0 for the metrics of layers the
/// workload does not exercise.
struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Workload {
  const char* name;
  std::uint64_t default_seed;  ///< the seed the existing benches default to
  Params defaults;             ///< the scale knobs the workload accepts
  Outcome (*run)(const RunOptions& options, Tracer& tracer);
};

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"throughput", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> list = {
        {"tracing.overhead_ratio", "ratio"},
        {"tracing.coverage", "ratio"},
    };
    // fig8_detailed, per policy.
    for (const char* slug : {"no_partition", "equal", "bank_aware"}) {
      for (const auto& [stem, unit] :
           {std::pair{"sim.run_s.", "s"}, {"nuca.accesses.", "count"},
            {"nuca.misses.", "count"}, {"nuca.migrations.", "count"},
            {"nuca.directory_lookups.", "count"}, {"dram.reads.", "count"},
            {"noc.queue_cycles.", "cycles"}, {"alloc.per_access.", "count"}}) {
        list.push_back({std::string(stem) + slug, unit});
      }
    }
    const std::vector<MetricSpec> rest = {
        // fig8_detailed set-up spans and component drivers.
        {"sim.construct_s", "s"},
        {"sim.warm_up_s", "s"},
        {"snapshot.save_s", "s"},
        {"snapshot.restore_s", "s"},
        {"trace.ns_per_access", "ns"},
        {"cache.l1_ns_per_access", "ns"},
        {"nuca.ns_per_access.no_partition", "ns"},
        {"nuca.ns_per_access.bank_aware", "ns"},
        {"msa.ns_per_observe", "ns"},
        {"coherence.ns_per_event", "ns"},
        {"noc.ns_per_request", "ns"},
        {"mem.ns_per_read", "ns"},
        {"partition.bank_aware_partition_us", "us"},
        // mc_analytic.
        {"trace.random_mix_us", "us"},
        {"partition.projected_misses_us", "us"},
        {"partition.unrestricted_us", "us"},
        {"partition.bank_aware_capacity_us", "us"},
        {"mc.trial_us.p50", "us"},
        {"mc.trial_us.p99", "us"},
        {"mc.trial.samples", "count"},
        {"mc.allocs_per_trial", "count"},
        // mc_sampled.
        {"pool.acquire_us", "us"},
        {"pool.hits", "count"},
        {"pool.misses", "count"},
        {"snapshot.file_hits", "count"},
        {"snapshot.bank_load_s", "s"},
        {"snapshot.bank_load.calls", "count"},
        {"sampling.restore_s", "s"},
        {"sampling.warm_s", "s"},
        {"sampling.detail_s", "s"},
        {"sampling.trial_ms.p50", "ms"},
        {"sampling.trial_ms.p75", "ms"},
        {"sampling.trial.samples", "count"},
        {"sampling.allocs_per_trial", "count"},
        // sched_churn.
        {"sched.construct_s", "s"},
        {"sched.admit_us.p50", "us"},
        {"sched.admit_us.p99", "us"},
        {"sched.evict_us.p50", "us"},
        {"sched.evict_us.p99", "us"},
        {"sched.step_us.p50", "us"},
        {"sched.step_us.p99", "us"},
        {"sched.admit.samples", "count"},
        {"sched.replans", "count"},
        {"sched.class_changes", "count"},
        {"sched.allocs_per_event", "count"},
    };
    list.insert(list.end(), rest.begin(), rest.end());
    return list;
  }();
  return metrics;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"fig8_detailed", 42, {{"warmup", 2'000'000}, {"instr", 4'000'000}}, &run_fig8_detailed},
      {"mc_analytic", 2009, {{"trials", 10'000}}, &run_mc_analytic},
      {"mc_sampled", 2009,
       {{"trials", 8}, {"intervals", 24}, {"interval-instr", 20'000}, {"sampled-warmup", 60'000}},
       &run_mc_sampled},
      {"sched_churn", 42, {{"lanes", 4}, {"epochs", 500}}, &run_sched_churn},
  };
  return list;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<std::string> scale_flags() {
  std::set<std::string> keys;
  for (const Workload& workload : workloads()) {
    for (const auto& [key, value] : workload.defaults) keys.insert(key);
  }
  return {keys.begin(), keys.end()};
}

common::ArgParser make_parser() {
  std::vector<std::pair<std::string, std::string>> spec = {
      {"workload=", "fig8_detailed | mc_analytic | mc_sampled | sched_churn"},
      {"seed=", "workload seed (default: 42, or 2009 for the mc_* workloads)"},
      {"seconds=", "length of the timed closed loop (default 20)"},
      {"trace=", "1 = traced run: per-layer metrics instead of end-to-end ones"},
      {"out=", "directory for the result file, the trace and scratch files"},
      {"sha=", "git sha recorded in the result's provenance"},
      {"bounds=", "compare: file with the end-to-end bounds (default BENCHMARK.json)"},
      {"perf=", "crosscheck: bench_perf_throughput --json-out artifact"},
      {"trial=", "crosscheck: bench_trial_throughput --json-out artifact"},
      {"churn=", "crosscheck: bench_sched_churn --json-out artifact"},
      {"help", "print this help"},
  };
  for (const std::string& key : scale_flags()) {
    std::string workloads_using;
    for (const Workload& workload : workloads()) {
      if (workload.defaults.count(key) == 0) continue;
      workloads_using += std::string(workloads_using.empty() ? "" : ", ") + workload.name +
                         " default " + std::to_string(workload.defaults.at(key));
    }
    spec.push_back({key + "=", "scale knob (" + workloads_using + ")"});
  }
  return common::ArgParser(std::move(spec));
}

bool write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

int run_main(const common::ArgParser& parser) {
  const std::string name = parser.require_string("workload");
  const Workload* workload = nullptr;
  for (const Workload& candidate : workloads()) {
    if (name == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) parser.fatal_usage("unknown workload '" + name + "'");

  RunOptions options;
  options.seed = parser.get_u64_or_fail("seed", workload->default_seed);
  options.seconds = parser.get_double_or_fail("seconds", 20.0);
  if (!(options.seconds >= 0.0 && options.seconds <= 3600.0)) {
    parser.fatal_usage("--seconds must be within [0, 3600]");
  }
  options.trace = parser.get_bool_or_fail("trace", false);
  const std::string out_dir = parser.get("out", "");
  options.scratch = out_dir.empty() ? "." : out_dir;
  options.params = workload->defaults;
  for (const std::string& key : scale_flags()) {
    if (!parser.has(key)) continue;
    if (workload->defaults.count(key) == 0) {
      parser.fatal_usage("--" + key + " does not apply to workload " + name);
    }
    options.params[key] = parser.get_u64_or_fail(key, 0);
    if (options.params[key] == 0) parser.fatal_usage("--" + key + " must be positive");
    options.default_params = false;
  }
  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);

  std::cerr << "bacp_bench: " << name << " seed " << options.seed << ", "
            << options.seconds << " s" << (options.trace ? ", traced" : "") << '\n';
  Tracer tracer;
  Outcome outcome = workload->run(options, tracer);
  if (!options.trace) outcome.metrics["peak_rss_mb"] = peak_rss_mb();

  const auto& catalog = options.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [metric, value] : outcome.metrics) {
    bool known = false;
    for (const MetricSpec& spec : catalog) known = known || metric == spec.name;
    BACP_ASSERT(known, "a workload reported a metric missing from the catalog");
  }
  obs::Json metrics = obs::Json::object();
  for (const MetricSpec& spec : catalog) {
    const auto found = outcome.metrics.find(spec.name);
    double value = 0.0;
    if (found != outcome.metrics.end()) {
      value = found->second;
    } else if (!options.trace) {
      outcome.problem(std::string("metric ") + spec.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      outcome.problem(std::string("metric ") + spec.name + " is not finite");
      value = 0.0;
    }
    obs::Json entry = obs::Json::object();
    entry.set("value", value).set("unit", spec.unit);
    metrics.set(spec.name, std::move(entry));
  }
  const bool correct = outcome.problems.empty() && outcome.failed == 0 && outcome.attempted > 0;

  obs::Json line = obs::Json::object();
  line.set("correct", correct)
      .set("attempted", outcome.attempted)
      .set("failed", outcome.failed)
      .set("metrics", metrics);

  if (!out_dir.empty()) {
    const std::string stem = name + "-s" + std::to_string(options.seed) + "-t" +
                             (options.trace ? "1" : "0");
    std::filesystem::path result_path;
    for (int n = 0;; ++n) {
      char suffix[32];
      std::snprintf(suffix, sizeof suffix, "-%03d.json", n);
      result_path = std::filesystem::path(out_dir) / (stem + suffix);
      if (!std::filesystem::exists(result_path)) break;
    }
    obs::Json provenance = obs::Json::object();
    provenance.set("git_sha", parser.get("sha", "unknown"))
        .set("build_type", BACP_SUITE_BUILD_TYPE)
        .set("compiler", __VERSION__)
        .set("cpu_model", cpu_model())
        .set("nproc", std::uint64_t{std::thread::hardware_concurrency()})
        .set("threads", 1);
    obs::Json params = obs::Json::object();
    for (const auto& [key, value] : options.params) params.set(key, value);
    obs::Json problems = obs::Json::array();
    for (const std::string& problem : outcome.problems) problems.push_back(problem);
    obs::Json result = obs::Json::object();
    result.set("suite", "bacp-suite")
        .set("schema", 1)
        .set("workload", name)
        .set("seed", options.seed)
        .set("seconds", options.seconds)
        .set("trace", options.trace)
        .set("provenance", std::move(provenance))
        .set("params", std::move(params))
        .set("setup_reps", Measurement::kSetupReps)
        .set("passes", outcome.passes)
        .set("pass_rate_median", outcome.median_rate)
        .set("correct", correct)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("problems", std::move(problems))
        .set("metrics", metrics)
        .set("outputs", outcome.outputs);
    if (options.trace) {
      std::filesystem::path trace_path = result_path;
      trace_path.replace_extension(".trace.json");
      if (!write_text(trace_path, tracer.to_chrome_json().dump())) {
        std::cerr << "bacp_bench: cannot write " << trace_path << '\n';
        return 1;
      }
      result.set("trace_file", trace_path.filename().string());
    }
    if (!write_text(result_path, result.dump(2) + "\n")) {
      std::cerr << "bacp_bench: cannot write " << result_path << '\n';
      return 1;
    }
    std::cerr << "bacp_bench: wrote " << result_path.string() << '\n';
  }

  std::cerr << "bacp_bench: " << outcome.passes << " passes, " << outcome.attempted
            << " ops, " << outcome.failed << " failed\n";
  for (const std::string& problem : outcome.problems) {
    std::cerr << "bacp_bench: PROBLEM: " << problem << '\n';
  }
  for (const auto& [metric, entry] : metrics.members()) {
    std::cerr << "  " << metric << " = " << entry.at("value").dump() << ' '
              << entry.at("unit").as_string() << '\n';
  }
  std::cout << line.dump() << std::endl;
  return correct ? 0 : 1;
}

/// verify-trace: the trace is well formed, and the traced run produced the
/// same deterministic outputs as the untraced one, both correct.
int verify_trace_main(const std::string& trace_path, const std::string& untraced_path,
                      const std::string& traced_path) {
  std::vector<std::string> problems = verify_trace(trace_path);
  std::string error;
  const obs::Json untraced = read_json_file(untraced_path, &error);
  const obs::Json traced = read_json_file(traced_path, &error);
  if (untraced.is_null() || traced.is_null()) {
    problems.push_back(error);
  } else {
    for (const obs::Json* result : {&untraced, &traced}) {
      const obs::Json* correct = result->find("correct");
      if (correct == nullptr || !correct->as_bool()) problems.push_back("a run is not correct");
    }
    const obs::Json* a = untraced.find("outputs");
    const obs::Json* b = traced.find("outputs");
    if (a == nullptr || b == nullptr || !(*a == *b)) {
      problems.push_back("traced and untraced outputs differ");
    }
  }
  for (const std::string& problem : problems) std::cerr << "verify-trace: " << problem << '\n';
  std::cerr << "verify-trace: " << (problems.empty() ? "ok" : "FAILED") << '\n';
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser parser = make_parser();
  if (!parser.parse(argc, argv)) {
    std::cerr << "error: " << parser.error() << '\n' << parser.help(argv[0]);
    return 2;
  }
  if (parser.has("help")) {
    std::cout << parser.help(argv[0]);
    return 0;
  }
  const auto& args = parser.positional();
  const std::string command = args.empty() ? "run" : args[0];
  if (command == "run" && args.size() <= 1) return run_main(parser);
  if (command == "compare" && args.size() == 3) {
    return compare_main(args[1], args[2], parser.get("bounds", "BENCHMARK.json"));
  }
  if (command == "crosscheck" && args.size() >= 2) {
    return crosscheck_main(parser.require_string("perf"), parser.require_string("trial"),
                           parser.require_string("churn"), {args.begin() + 1, args.end()});
  }
  if (command == "verify-trace" && args.size() == 4) {
    return verify_trace_main(args[1], args[2], args[3]);
  }
  parser.fatal_usage("unknown command or wrong argument count");
}
