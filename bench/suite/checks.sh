#!/usr/bin/env bash
# The bacp-suite ctest checks (registered in CMakeLists.txt):
#
#   checks.sh crosscheck BACP_BENCH WORKDIR PERF_BENCH TRIAL_BENCH CHURN_BENCH
#       each workload's outputs equal the existing benches' at equal flags;
#   checks.sh trace BACP_BENCH WORKDIR
#       --trace 1 reproduces the untraced outputs and writes a valid trace;
#   checks.sh compare BACP_BENCH WORKDIR
#       compare's verdicts on synthetic result files.
#
# Everything runs at a reduced scale with --seconds 0 (the minimum passes).
set -euo pipefail

mode="$1"
bench="$2"
work="$3"
shift 3
rm -rf "${work}"
mkdir -p "${work}"

# Reduced-scale flags per workload.
fig8=(--workload fig8_detailed --seed 42 --warmup 200000 --instr 400000)
analytic=(--workload mc_analytic --seed 2009 --trials 400)
sampled=(--workload mc_sampled --seed 2009 --trials 2 --intervals 8 --interval-instr 5000
         --sampled-warmup 20000)
churn=(--workload sched_churn --seed 42 --lanes 2 --epochs 60)

# run_reduced OUT_DIR FLAGS_ARRAY_NAME [EXTRA...]: one minimum-length run.
run_reduced() {
  local -n flags="$2"
  "${bench}" "${flags[@]}" "${@:3}" --seconds 0 --out "$1" > /dev/null
}

case "${mode}" in
  crosscheck)
    "$1" --warmup 200000 --instr 400000 --seed 42 --accesses 1000 \
      --json-out "${work}/perf.json" > /dev/null
    "$2" --trials 400 --sampled-trials 2 --seed 2009 --threads 1 --sampled 3 \
      --sampled-intervals 8 --sampled-interval-instr 5000 --sampled-warmup 20000 \
      --json-out "${work}/trial.json" > /dev/null
    "$3" --lanes 2 --epochs 60 --seed 42 --threads 1 \
      --json-out "${work}/churn.json" > /dev/null 2>&1
    for name in fig8 analytic sampled churn; do
      run_reduced "${work}/results" "${name}"
    done
    "${bench}" crosscheck --perf "${work}/perf.json" --trial "${work}/trial.json" \
      --churn "${work}/churn.json" "${work}"/results/*.json
    ;;
  trace)
    for name in fig8 analytic sampled churn; do
      out="${work}/${name}"
      run_reduced "${out}" "${name}" --trace 0
      run_reduced "${out}" "${name}" --trace 1
      "${bench}" verify-trace "${out}"/*-t1-000.trace.json "${out}"/*-t0-000.json \
        "${out}"/*-t1-000.json
    done
    ;;
  compare)
    cat > "${work}/bounds.json" << 'EOF'
{"end_to_end": [
  {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
  {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.05},
  {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]}
EOF
    mkdir -p "${work}/parent" "${work}/change"
    # write_result DIR WORKLOAD RUN SETUP_S THROUGHPUT PEAK_RSS_MB
    write_result() {
      printf '{"suite": "bacp-suite", "workload": "%s", "trace": false, "metrics": {%s, %s, %s}}\n' \
        "$2" "\"setup_s\": {\"value\": $4, \"unit\": \"s\"}" \
        "\"throughput\": {\"value\": $5, \"unit\": \"1/s\"}" \
        "\"peak_rss_mb\": {\"value\": $6, \"unit\": \"MB\"}" > "${work}/$1/$2-$3.json"
    }
    for run in 0 1 2 3 4 5 6 7 8 9; do
      # w: throughput +10% with every pair won -> gain; set-up spread far
      # beyond its bound -> unresolved; rss +10% -> regression.
      write_result parent w "${run}" "$((1 + run))" "$((100 + run % 3))" 50
      write_result change w "${run}" "$((1 + run))" "$((110 + run % 3))" 55
      # v: throughput -1% and rss +1%, both within their bounds.
      write_result parent v "${run}" 2 "$((200 + run % 2))" 50
      write_result change v "${run}" 2 "$((198 + run % 2))" 50.5
    done
    status=0
    "${bench}" compare "${work}/parent" "${work}/change" --bounds "${work}/bounds.json" \
      > "${work}/verdicts.txt" || status=$?
    cat "${work}/verdicts.txt"
    [[ "${status}" -eq 1 ]] || { echo "compare: expected exit 1 on a regression" >&2; exit 1; }
    grep -Eq '^w +throughput .* gain ' "${work}/verdicts.txt"
    grep -Eq '^w +setup_s .* unresolved ' "${work}/verdicts.txt"
    grep -Eq '^w +peak_rss_mb .* regression ' "${work}/verdicts.txt"
    grep -Eq '^v +throughput .* within bound ' "${work}/verdicts.txt"
    grep -Eq '^v +peak_rss_mb .* within bound ' "${work}/verdicts.txt"
    ;;
  *)
    echo "usage: checks.sh crosscheck|trace|compare BACP_BENCH WORKDIR [BENCHES...]" >&2
    exit 2
    ;;
esac
