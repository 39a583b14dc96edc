// bacp_bench compare and crosscheck.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>

#include "common/stats.hpp"
#include "sim/system_config.hpp"
#include "suite.hpp"

namespace bacp::suite {
namespace {

struct Bound {
  std::string name;
  bool higher_is_better = false;
  double bound = 0.0;
};

/// Untraced suite results in `dir`, in file-name order (the order the runs
/// were made in): workload -> one metrics map per run.
std::map<std::string, std::vector<std::map<std::string, double>>> load_runs(
    const std::string& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (entry.is_regular_file() && file.ends_with(".json") && !file.ends_with(".trace.json")) {
      files.push_back(entry.path());
    }
  }
  if (ec) std::cerr << "compare: cannot list " << dir << ": " << ec.message() << '\n';
  std::sort(files.begin(), files.end());
  std::map<std::string, std::vector<std::map<std::string, double>>> runs;
  for (const auto& path : files) {
    std::string error;
    const obs::Json result = read_json_file(path.string(), &error);
    const obs::Json* suite = result.find("suite");
    const obs::Json* trace = result.find("trace");
    const obs::Json* metrics = result.find("metrics");
    if (suite == nullptr || suite->kind() != obs::Json::Kind::String ||
        suite->as_string() != "bacp-suite" || trace == nullptr || trace->as_bool() ||
        metrics == nullptr) {
      continue;
    }
    std::map<std::string, double> values;
    for (const auto& [name, entry] : metrics->members()) {
      values[name] = entry.at("value").as_double();
    }
    runs[result.at("workload").as_string()].push_back(std::move(values));
  }
  return runs;
}

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double spread() const { return median == 0.0 ? 0.0 : (q3 - q1) / std::abs(median); }
};

Summary summarize(const std::vector<double>& values) {
  return {common::percentile(values, 50.0), common::percentile(values, 25.0),
          common::percentile(values, 75.0)};
}

}  // namespace

int compare_main(const std::string& parent_dir, const std::string& change_dir,
                 const std::string& bounds_path) {
  std::string error;
  const obs::Json bounds_json = read_json_file(bounds_path, &error);
  const obs::Json* end_to_end = bounds_json.find("end_to_end");
  if (end_to_end == nullptr || end_to_end->kind() != obs::Json::Kind::Array) {
    std::cerr << "compare: no end_to_end list in " << bounds_path << ' ' << error << '\n';
    return 2;
  }
  std::vector<Bound> bounds;
  for (std::size_t i = 0; i < end_to_end->size(); ++i) {
    const obs::Json& metric = end_to_end->at(i);
    bounds.push_back({metric.at("name").as_string(),
                      metric.at("better").as_string() == "higher",
                      metric.at("bound").as_double()});
  }
  const auto parent = load_runs(parent_dir);
  const auto change = load_runs(change_dir);

  bool regression = false;
  std::printf("%-14s %-15s %-32s %-32s %5s %6s  %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]", "win", "spread",
              "verdict");
  for (const auto& [workload, parent_runs] : parent) {
    const auto found = change.find(workload);
    if (found == change.end()) {
      std::printf("%-14s (no runs of the change)\n", workload.c_str());
      continue;
    }
    const auto& change_runs = found->second;
    for (const Bound& bound : bounds) {
      std::vector<double> p;
      std::vector<double> c;
      for (const auto& run : parent_runs) {
        if (run.count(bound.name) != 0) p.push_back(run.at(bound.name));
      }
      for (const auto& run : change_runs) {
        if (run.count(bound.name) != 0) c.push_back(run.at(bound.name));
      }
      if (p.empty() || c.empty()) continue;
      const auto better = [&](double a, double b) {
        return bound.higher_is_better ? a > b : a < b;
      };
      // Interleaved pairs: the i-th run of each side; ties count for neither.
      const std::size_t pairs = std::min(p.size(), c.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        if (better(c[i], p[i])) ++wins;
      }
      const double win = static_cast<double>(wins) / static_cast<double>(pairs);
      const Summary ps = summarize(p);
      const Summary cs = summarize(c);
      const double spread = std::max(ps.spread(), cs.spread());
      const double worse_by = (bound.higher_is_better ? ps.median - cs.median
                                                      : cs.median - ps.median) /
                              std::abs(ps.median);
      const bool all_better =
          bound.higher_is_better ? *std::min_element(c.begin(), c.end()) >
                                       *std::max_element(p.begin(), p.end())
                                 : *std::max_element(c.begin(), c.end()) <
                                       *std::min_element(p.begin(), p.end());
      // A gain needs >= 9/10 of the pairs and a median shift beyond the
      // parent's own quartile spread; a metric whose spread exceeds its
      // bound is unresolved, not unchanged.
      const char* verdict = "within bound";
      if (win >= 0.9 && worse_by < 0.0 && std::abs(cs.median - ps.median) > ps.q3 - ps.q1) {
        verdict = "gain";
      } else if (spread > bound.bound && !all_better) {
        verdict = "unresolved";
      } else if (worse_by > bound.bound) {
        verdict = "regression";
        regression = true;
      }
      char parent_text[64];
      char change_text[64];
      std::snprintf(parent_text, sizeof parent_text, "%.6g [%.6g, %.6g]", ps.median, ps.q1,
                    ps.q3);
      std::snprintf(change_text, sizeof change_text, "%.6g [%.6g, %.6g]", cs.median, cs.q1,
                    cs.q3);
      std::printf("%-14s %-15s %-32s %-32s %4.0f%% %5.1f%%  %s (n=%zu/%zu, bound %.0f%%)\n",
                  workload.c_str(), bound.name.c_str(), parent_text, change_text, win * 100.0,
                  spread * 100.0, verdict, p.size(), c.size(), bound.bound * 100.0);
    }
  }
  return regression ? 1 : 0;
}

int crosscheck_main(const std::string& perf_path, const std::string& trial_path,
                    const std::string& churn_path, const std::vector<std::string>& results) {
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::cerr << (ok ? "crosscheck: ok   " : "crosscheck: FAIL ") << what << '\n';
    if (!ok) ++failures;
  };
  std::string error;
  std::map<std::string, obs::Json> outputs;
  for (const std::string& path : results) {
    const obs::Json result = read_json_file(path, &error);
    const obs::Json* correct = result.find("correct");
    check(correct != nullptr && correct->as_bool(), path + " is a correct run");
    if (correct != nullptr) outputs[result.at("workload").as_string()] = result.at("outputs");
  }
  for (const char* workload : {"fig8_detailed", "mc_analytic", "mc_sampled", "sched_churn"}) {
    check(outputs.count(workload) != 0, std::string("a result of ") + workload);
  }
  const obs::Json perf = read_json_file(perf_path, &error);
  const obs::Json trial = read_json_file(trial_path, &error);
  const obs::Json churn = read_json_file(churn_path, &error);
  check(!perf.is_null() && !trial.is_null() && !churn.is_null(),
        "the reference artifacts parse " + error);
  if (failures != 0) return 1;

  // fig8_detailed vs bench_perf_throughput's system.<policy> rows.
  const obs::Json& rows = perf.at("tables").at("throughput").at("rows");
  for (const auto& [slug, kind] : {std::pair{"no_partition", sim::PolicyKind::NoPartition},
                                   {"equal", sim::PolicyKind::EqualPartition},
                                   {"bank_aware", sim::PolicyKind::BankAware}}) {
    const std::string label = std::string("system.") + sim::to_string(kind);
    const std::uint64_t ours = outputs["fig8_detailed"].at(slug).at("accesses").as_uint();
    bool found = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows.at(i).at(0).as_string() != label) continue;
      found = true;
      check(rows.at(i).at(1).as_uint() == ours,
            label + " accesses " + rows.at(i).at(1).dump() + " vs " + std::to_string(ours));
    }
    check(found, "bench_perf_throughput has a " + label + " row");
  }

  // mc_analytic + mc_sampled vs bench_trial_throughput's checksum, which
  // folds the analytic means of its --trials sweep and then the sampled
  // means of its --sampled-trials sweep.
  const obs::Json& analytic = outputs["mc_analytic"];
  const obs::Json& sampled = outputs["mc_sampled"];
  std::uint64_t digest = fold_bits(0, analytic.at("mean_unrestricted_ratio").as_double());
  digest = fold_bits(digest, analytic.at("mean_bank_aware_ratio").as_double());
  digest = fold_bits(digest, sampled.at("mean_sampled_miss_ratio").as_double());
  digest = fold_bits(digest, sampled.at("mean_sampled_cpi").as_double());
  const std::uint64_t checksum = trial.at("metrics").at("checksum").as_uint();
  check(digest == checksum, "bench_trial_throughput checksum " + std::to_string(checksum) +
                                " vs " + std::to_string(digest));

  // sched_churn vs bench_sched_churn's per-lane report digests.
  const obs::Json& lanes = churn.at("tables").at("lanes").at("rows");
  const obs::Json& ours = outputs["sched_churn"].at("lane_digests");
  check(lanes.size() == ours.size(), "lane counts match");
  for (std::size_t lane = 0; lane < std::min(lanes.size(), ours.size()); ++lane) {
    const std::string theirs = lanes.at(lane).at(6).as_string();
    check(theirs == ours.at(lane).as_string(),
          "lane " + std::to_string(lane) + " digest " + theirs + " vs " +
              ours.at(lane).as_string());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace bacp::suite
