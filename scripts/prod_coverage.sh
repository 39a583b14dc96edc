#!/usr/bin/env bash
# Production call-graph gate: which src/ functions does a shipped binary run?
#
# Configures its own --coverage -O1 build in build/coverage
# (the bench/suite project pulls in the whole repository), builds every
# bench, every example, bacp-analyze and bacp_bench, and runs them at the
# scale the CI jobs and bench/suite/checks.sh use. gcov's JSON names each function's source file,
# so a function counts as run if any binary ran it; tests are never built.
#
#   scripts/prod_coverage.sh
#
# Exits 1 when a function defined in src/**/*.cpp never ran and
# scripts/prod_coverage.allow does not name it, when an allowlist entry
# names a function that ran or no longer exists, or when a run fails.
# Header inlines and template instantiations are left out: which of them
# gcov sees depends on the compiler's inlining. -fno-inline,
# -fno-ipa-pure-const and -fno-ipa-modref keep every call to a src/
# function: at -O1 GCC otherwise inlines small ones into their callers, or
# drops calls to one it proves has no effect (an audit hook that is empty
# outside BACP_AUDIT, say), and gcov reads a function that ran as never run.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/build/coverage"
allow="${root}/scripts/prod_coverage.allow"
# The compiler and the snapshot bank stage temporary files in TMPDIR; keep
# them inside the build.
export TMPDIR="${build}/tmp"
mkdir -p "${TMPDIR}"

# Configured on every run, so a build/coverage left by an older flag set
# takes the current one.
generator=()
if [[ ! -f "${build}/CMakeCache.txt" ]] && command -v ninja > /dev/null 2>&1; then
  generator=(-G Ninja)
fi
cmake -S "${root}/bench/suite" -B "${build}" ${generator[@]+"${generator[@]}"} \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="-O1 -fno-inline -fno-ipa-pure-const -fno-ipa-modref -DNDEBUG" \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage > /dev/null

benches=("${root}"/bench/bench_*.cpp)
benches=("${benches[@]##*/}")
benches=("${benches[@]%.cpp}")
examples=("${root}"/examples/*.cpp)
examples=("${examples[@]##*/}")
examples=("${examples[@]%.cpp}")
cmake --build "${build}" -j "$(nproc 2> /dev/null || echo 2)" \
  --target bacp_bench bacp_analyze "${benches[@]}" "${examples[@]}" > /dev/null

# Counts from an earlier run would hide a function this tree no longer runs.
find "${build}" -name '*.gcda' -delete
runs="${build}/runs"
rm -rf "${runs}"
mkdir -p "${runs}/bank" "${runs}/sampled-bank"
declare -A ran=()
count=0

# run NAME ARGS...: runs bench/NAME, examples/NAME or a binary path; its
# output goes to a numbered log under build/coverage/runs/.
run() {
  local name="$1" exe log
  shift
  if [[ -x "${build}/bench/${name}" ]]; then
    exe="${build}/bench/${name}"
  elif [[ -x "${build}/examples/${name}" ]]; then
    exe="${build}/examples/${name}"
  else
    exe="${name}"
  fi
  count=$((count + 1))
  log="${runs}/${count}-${name##*/}.log"
  if ! "${exe}" "$@" > "${log}" 2>&1; then
    echo "prod_coverage: run failed (log ${log}): ${name} $*" >&2
    exit 1
  fi
  ran["${name##*/}"]=1
}

# bank_leg BENCH ARGS...: the snapshot-equivalence leg, one reference run
# in place, then a populate and a warm pass through one bank.
bank_leg() {
  run "$@" --threads 1 --json-out "${runs}/$1-ref.json"
  run "$@" --snapshot-bank "${runs}/bank" --json-out "${runs}/$1-populate.json"
  run "$@" --snapshot-bank "${runs}/bank" --json-out "${runs}/$1-warm.json"
}

sampled=(--trials 8 --seed 11 --sampled 2 --sampled-intervals 8
         --sampled-interval-instr 5000 --sampled-warmup 20000)
start="$(date +%s)"

bank_leg bench_fig8_miss_rate --warmup 400000 --instr 800000
bank_leg bench_ablation_epoch_length --instr 2000000
bank_leg bench_ablation_aggregation --warmup 400000 --instr 800000
bank_leg bench_ablation_adaptation --instr 1000000
run bench_perf_throughput --json-out "${runs}/perf.json"
for threads in 1 4; do
  run bench_fig7_monte_carlo --trials 64 --seed 11 --threads "${threads}" \
    --json-out "${runs}/mc-t${threads}.json"
  run bench_fig7_monte_carlo "${sampled[@]}" --threads "${threads}" \
    --json-out "${runs}/mc-sampled-t${threads}.json"
done
for pool in auto off; do
  for mmap in auto off; do
    run bench_fig7_monte_carlo "${sampled[@]}" --pool "${pool}" --mmap "${mmap}" \
      --snapshot-bank "${runs}/sampled-bank" --json-out "${runs}/mc-${pool}-${mmap}.json"
  done
done
run bench_trial_throughput --threads 4
run bench_trial_throughput --trials 4000 --sampled-trials 6 --json-out "${runs}/trial.json"
run bench_sampling_error --json-out "${runs}/sampling.json"
run bench_sched_churn --json-out "${runs}/churn.json"
run bench_sched_churn --threads 2 --json-out "${runs}/churn-t2.json"
for bench in bench_table1_config bench_table2_overhead bench_table3_assignments \
             bench_fig2_msa_histogram bench_fig3_miss_curves bench_ablation_maxcap \
             bench_ablation_policies bench_ablation_profiler_accuracy; do
  run "${bench}" --json-out "${runs}/${bench}.json"
done

run quickstart --json-out "${runs}/quickstart.json"
run consolidated_server --instr 1000000 --json-out "${runs}/server.json"
run epoch_dynamics --instr 1500000 --json-out "${runs}/epochs.json"
run scaling_study --trials 50 --json-out "${runs}/scaling.json"
run simulate --list
run simulate --set Set2 --instr 800000 --json-out "${runs}/simulate.json"
run simulate --policy equal --instr 400000 gzip mesa eon crafty perlbmk gap vortex bzip2

run "${build}/bacp/tools/bacp-analyze/bacp-analyze" --root "${root}"
for workload in fig8_detailed mc_analytic mc_sampled sched_churn; do
  run "${build}/bacp_bench" --workload "${workload}" --seconds 0 --out "${runs}/suite"
done
if ! ctest --test-dir "${build}" -R '^bench_suite_' > "${runs}/ctest.log" 2>&1; then
  echo "prod_coverage: bench/suite checks failed (log ${runs}/ctest.log)" >&2
  exit 1
fi
echo "prod_coverage: runs took $(($(date +%s) - start)) s" >&2

missing=0
for name in "${benches[@]}" "${examples[@]}" bacp-analyze bacp_bench; do
  if [[ -z "${ran[${name}]:-}" ]]; then
    echo "prod_coverage: ${name} is built but never run here" >&2
    missing=1
  fi
done
[[ "${missing}" -eq 0 ]] || exit 1

# A deleted source leaves its notes file behind; only current sources
# count. bacp/src/LIB/CMakeFiles/bacp_LIB.dir/X.cpp.gcno is src/LIB/X.cpp.
notes=()
while IFS= read -r note; do
  src_file="${note#"${build}/bacp/"}"
  src_file="${src_file%%/CMakeFiles/*}/${note##*/}"
  if [[ -f "${root}/${src_file%.gcno}" ]]; then notes+=("${note}"); fi
done < <(find "${build}/bacp/src" -name '*.cpp.gcno' | sort)

# One line per (file, function): path relative to the repo, demangled name
# without the bacp:: prefix, ABI tags and std::string's long spelling, and
# "ran" or "never" over every object. Only src/**/*.cpp, and no template
# instantiations (a '<' before the parameter list).
functions="${build}/functions.tsv"
(cd "${build}" && gcov --json-format --stdout --demangled-names "${notes[@]}" 2> /dev/null) |
  jq -r --arg root "${root}/" '
    .files[] | select(.file | startswith($root + "src/") and endswith(".cpp"))
    | (.file | ltrimstr($root)) as $file
    | .functions[] | [$file, .execution_count, .demangled_name] | @tsv' |
  sed -E 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g;
          s/std::basic_string_view<char, std::char_traits<char> >/std::string_view/g;
          s/\[abi:cxx11\]//g; s/\(anonymous namespace\)/{anonymous}/g;
          s/(^|[^[:alnum:]_:])bacp::/\1/g' |
  awk -F'\t' '
    { probe = $3; gsub(/operator<+=?/, "operator", probe); params = index(probe, "(");
      if (params > 0 && index(substr(probe, 1, params), "<") > 0) next;
      total[$1 "\t" $3] += $2 }
    END { for (key in total) print key "\t" (total[key] > 0 ? "ran" : "never") }' |
  sort > "${functions}"

# The allowlist: "reason | file | function | evidence" per line, '#' starts
# a comment, function "*" allows every never-run function of the file.
awk -v allow_path="${allow#"${root}/"}" '
  function fail(message) { print "prod_coverage: " message > "/dev/stderr"; bad = 1 }
  FNR == NR {
    split($0, f, "\t")
    status[f[1] "\t" f[2]] = f[3]
    functions_in[f[1]]++
    if (f[3] == "never") { never[f[1] "\t" f[2]] = 1; never_in[f[1]]++; ++never_total }
    ++total
    next
  }
  /^[[:space:]]*(#|$)/ { next }
  {
    n = split($0, f, /[[:space:]]*[|][[:space:]]*/)
    sub(/^[[:space:]]+/, "", f[1]); sub(/[[:space:]]+$/, "", f[n])
    where = allow_path ":" FNR ": "
    if (n < 3 || n > 4) { fail(where "expected reason | file | function | evidence"); next }
    if (f[1] !~ /^(audit|input|observer|pool)$/) { fail(where "unknown reason \"" f[1] "\""); next }
    if (f[1] == "observer" && f[4] == "") { fail(where "an observer entry names the tests or audits that read it"); next }
    if (f[3] == "*") {
      if (!(f[2] in functions_in)) fail(where f[2] " has no instrumented functions")
      else if (!(f[2] in never_in)) fail(where "every function of " f[2] " ran")
      else whole[f[2]] = 1
      next
    }
    key = f[2] "\t" f[3]
    if (!(key in status)) fail(where "no function " f[3] " in " f[2])
    else if (status[key] == "ran") fail(where f[3] " ran")
    else allowed[key] = 1
  }
  END {
    for (key in never) {
      split(key, k, "\t")
      if (!(key in allowed) && !(k[1] in whole)) fail("never run and not allowlisted: " k[1] "  " k[2])
    }
    printf "prod_coverage: %d src/ functions, %d never run\n", total, never_total > "/dev/stderr"
    exit bad
  }' "${functions}" "${allow}"
echo "prod_coverage: clean after ${SECONDS} s" >&2
