#!/usr/bin/env bash
# Count flags fail closed: each case below must exit 2 with a message that
# names its flag, before the binary simulates anything or writes its JSON
# artifact. The cases are the count flags each bench or example reads
# itself, plus --epoch=0 and --instr=0 through DetailedRunConfig in the two
# benches that take it; the shared readers also have death tests. A stray
# positional argument (a one-dash flag) fails closed the same way in every
# binary but simulate, which reads workload names.
#
#   scripts/check_usage_errors.sh BENCH_DIR EXAMPLES_DIR
#
# ctest runs it as bench_usage_errors.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: scripts/check_usage_errors.sh BENCH_DIR EXAMPLES_DIR" >&2
  exit 2
fi
bench_dir=$1
examples_dir=$2
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
failed=0

# expect DIR BINARY ARGS...: the last argument is the flag at fault, and
# the message's first line must name it (the usage text after it names
# every flag, so a match there proves nothing).
expect() {
  local exe="$1/$2" name="$2" status
  shift 2
  local flag="${*: -1}"
  "${exe}" "$@" --json-out "${work}/out.json" > /dev/null 2> "${work}/err"
  status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "FAIL: ${name} $*: exit ${status}, expected 2" >&2
    failed=1
  elif ! head -n 1 "${work}/err" | grep -qF -- "${flag}"; then
    echo "FAIL: ${name} $*: the message does not name ${flag}" >&2
    failed=1
  elif [[ -e "${work}/out.json" ]]; then
    echo "FAIL: ${name} $*: wrote an artifact" >&2
    failed=1
  else
    echo "ok: ${name} $*"
  fi
  rm -f "${work}/out.json"
}

expect "${bench_dir}" bench_fig8_miss_rate --sets=0
expect "${bench_dir}" bench_fig8_miss_rate --epoch=0
expect "${bench_dir}" bench_fig8_miss_rate --instr=0
expect "${bench_dir}" bench_perf_throughput --epoch=0
expect "${bench_dir}" bench_perf_throughput --instr=0
expect "${bench_dir}" bench_ablation_adaptation --epoch=0
expect "${bench_dir}" bench_ablation_adaptation --instr=0
expect "${bench_dir}" bench_ablation_aggregation --instr=0
expect "${bench_dir}" bench_ablation_epoch_length --instr=0
expect "${bench_dir}" bench_ablation_maxcap --trials=0
expect "${bench_dir}" bench_ablation_policies --trials=0
expect "${bench_dir}" bench_sched_churn --epoch=0
expect "${bench_dir}" bench_sched_churn --lanes=0
expect "${bench_dir}" bench_sched_churn --epochs=0
expect "${bench_dir}" bench_sampling_error --mixes=0
expect "${bench_dir}" bench_sampling_error --intervals=0
expect "${bench_dir}" bench_sampling_error --sampled=0
expect "${bench_dir}" bench_sampling_error --interval-instr=0
expect "${bench_dir}" bench_sampling_error --sampled=4294967297
expect "${bench_dir}" bench_sampling_error --intervals=4294967297
expect "${examples_dir}" epoch_dynamics --epoch=0
expect "${examples_dir}" epoch_dynamics --instr=0
expect "${examples_dir}" consolidated_server --instr=0
expect "${examples_dir}" scaling_study --trials=0
expect "${examples_dir}" simulate --set=Set1 --epoch=0
expect "${examples_dir}" simulate --set=Set1 --instr=0
expect "${bench_dir}" bench_fig7_monte_carlo -trials
expect "${examples_dir}" epoch_dynamics -instr
exit "${failed}"
