#!/usr/bin/env bash
# Runs every bench binary and captures its structured JSON artifact into
# bench/out/<name>.json (plus the console output on the terminal). The JSON
# files are schema-stable (see src/obs/report.hpp) and carry each bench's
# headline metrics, so successive runs can be diffed or trended.
#
# Usage:
#   scripts/run_benches.sh [build-dir]
#
# Default build-dir: build/release if it exists, else build. Every bench
# runs at its built-in default scale.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-}"
if [[ -z "${build_dir}" ]]; then
  if [[ -d "${repo_root}/build/release" ]]; then
    build_dir="${repo_root}/build/release"
  else
    build_dir="${repo_root}/build"
  fi
fi
bench_dir="${build_dir}/bench"
out_dir="${repo_root}/bench/out"

if [[ ! -d "${bench_dir}" ]]; then
  echo "error: ${bench_dir} not found — configure and build first:" >&2
  echo "  cmake --preset release && cmake --build --preset release" >&2
  exit 1
fi

mkdir -p "${out_dir}"

# Provenance for the perf trajectory: every JSON artifact records which
# build preset produced it and at which commit (obs::Report::emit appends
# BACP_BENCH_META pairs to the JSON "meta" object). The preset is inferred
# from the build directory name (build/<preset>, as CMakePresets.json lays
# them out).
preset="$(basename "${build_dir}")"
if [[ "${preset}" == "build" ]]; then preset="default"; fi
git_sha="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BACP_BENCH_META="preset=${preset},git_sha=${git_sha}"

benches=(
  bench_fig2_msa_histogram
  bench_fig3_miss_curves
  bench_fig7_monte_carlo
  bench_fig8_miss_rate
  bench_table1_config
  bench_table2_overhead
  bench_table3_assignments
  bench_ablation_adaptation
  bench_ablation_aggregation
  bench_ablation_epoch_length
  bench_ablation_maxcap
  bench_ablation_policies
  bench_ablation_profiler_accuracy
  bench_perf_throughput
  bench_sched_churn
  bench_trial_throughput
)

failed=0
for bench in "${benches[@]}"; do
  binary="${bench_dir}/${bench}"
  if [[ ! -x "${binary}" ]]; then
    echo "skip: ${bench} (not built)" >&2
    continue
  fi
  echo "=== ${bench} ==="
  if ! "${binary}" --json-out="${out_dir}/${bench}.json"; then
    echo "FAILED: ${bench}" >&2
    failed=1
  fi
  echo
done

echo "JSON artifacts in ${out_dir}:"
ls -1 "${out_dir}"
exit "${failed}"
