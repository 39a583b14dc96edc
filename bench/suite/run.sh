#!/usr/bin/env bash
# bacp-suite runner. Builds bacp_bench from this checkout's sources into
# .bench_build/ (the first run configures and compiles; later runs only
# check the build is current), then runs it with the given arguments:
#
#   bench/suite/run.sh --workload fig8_detailed --seed 42 --seconds 10 --trace 0
#   bench/suite/run.sh compare PARENT_DIR CHANGE_DIR
#
# Workload runs write their result file (and the trace of a traced run) to
# bench/out/suite/. Build output goes to stderr, so the last line of stdout
# is the run's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="${root}/.bench_build"
# The compiler and the snapshot bank stage temporary files in TMPDIR; keep
# them inside the checkout.
export TMPDIR="${build}/tmp"
mkdir -p "${TMPDIR}"

if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja > /dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "${root}/bench/suite" -B "${build}" -DCMAKE_BUILD_TYPE=Release \
    ${generator[@]+"${generator[@]}"} >&2
fi
cmake --build "${build}" --target bacp_bench -j "$(nproc 2> /dev/null || echo 2)" >&2

if [[ "${1:-}" == --* ]]; then
  # The ceiling keeps git from reporting an enclosing repository's commit
  # when this checkout is not a repository itself.
  sha="$(GIT_CEILING_DIRECTORIES="$(dirname "${root}")" \
           git -C "${root}" rev-parse HEAD 2> /dev/null || echo unknown)"
  exec "${build}/bacp_bench" "$@" --out "${root}/bench/out/suite" --sha "${sha}"
fi
exec "${build}/bacp_bench" "$@"
