#!/usr/bin/env bash
# Lint gate over src/ bench/ examples/ tests/ and scripts/.
#
# Layers, most precise first; every finding is printed with the layer that
# caught it (lint[ast] / lint[grep] / lint[grep-fallback]):
#   1. bacp-analyze (tools/bacp-analyze): token/AST-level repo checks —
#      determinism hazards (bacp-det-*), snapshot completeness
#      (bacp-snapshot-fields), audit coverage (bacp-audit-coverage), the
#      promoted bans (bacp-arg-lenient, bacp-raw-assert, bacp-raw-strtol)
#      and NOLINT hygiene (bacp-nolint-reason). Opt-outs require
#      `NOLINT(check-id): reason` — a bare marker is itself a finding.
#   2. Grep fallbacks for the promoted bans + NOLINT hygiene — run only
#      when the analyzer binary is missing, so a bare checkout still gates.
#      Structural greps with no AST equivalent (std::unordered_* includes)
#      always run.
#   3. clang-tidy with the checked-in .clang-tidy, if installed.
#   4. shellcheck over scripts/*.sh, if installed.
#
# Usage:
#   scripts/lint.sh                 # run what is available, skip the rest
#   scripts/lint.sh --require-tools # missing bacp-analyze/clang-tidy/
#                                   # shellcheck is an error (CI mode)
#
# The analyzer binary is searched in build/tools/bacp-analyze/ (a plain
# `cmake -B build`) and build/*/tools/bacp-analyze/ (the presets); override
# with BACP_ANALYZE=/path/to/bacp-analyze.
#
# Exit status: 0 clean, 1 findings (or missing tools with --require-tools).

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

require_tools=0
if [[ "${1:-}" == "--require-tools" ]]; then
  require_tools=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: scripts/lint.sh [--require-tools]" >&2
  exit 2
fi

fail=0
cxx_dirs=(src bench examples tests)

# --- Layer 1: bacp-analyze (AST) -------------------------------------------

analyzer=""
for candidate in "${BACP_ANALYZE:-}" build/tools/bacp-analyze/bacp-analyze \
                 build/*/tools/bacp-analyze/bacp-analyze; do
  if [[ -n "${candidate}" && -x "${candidate}" ]]; then
    analyzer="${candidate}"
    break
  fi
done

ast_ran=0
if [[ -n "${analyzer}" ]]; then
  set +e
  ast_output="$("${analyzer}" --root "${repo_root}" 2>/dev/null)"
  ast_status=$?
  set -e
  case "${ast_status}" in
    0)
      ast_ran=1
      echo "lint[ast]: bacp-analyze clean (${analyzer})"
      ;;
    1)
      ast_ran=1
      echo "lint[ast]: bacp-analyze findings (caught by the AST layer):" >&2
      sed 's/^/lint[ast]: /' <<< "${ast_output}" >&2
      echo >&2
      fail=1
      ;;
    *)
      echo "lint: bacp-analyze failed (exit ${ast_status}) — falling back to greps" >&2
      ;;
  esac
else
  echo "lint: bacp-analyze not built — grep fallbacks cover the promoted bans" >&2
fi
if [[ "${ast_ran}" -eq 0 && "${require_tools}" -eq 1 ]]; then
  echo "lint: --require-tools set and the AST layer did not run" >&2
  fail=1
fi

# --- Layer 2: grep rules ---------------------------------------------------

# Reports every line matching an ERE in the C++ tree (minus NOLINT'd lines)
# as a lint failure, tagged with the layer name in `tag`.
check_absent() {
  local tag="$1"
  local label="$2"
  local pattern="$3"
  shift 3
  local matches
  matches="$(grep -rnE --include='*.cpp' --include='*.hpp' "$@" \
               -e "${pattern}" "${cxx_dirs[@]}" | grep -v 'NOLINT' || true)"
  if [[ -n "${matches}" ]]; then
    echo "lint[${tag}]: ${label}" >&2
    sed "s/^/lint[${tag}]: /" <<< "${matches}" >&2
    echo >&2
    fail=1
  fi
}

if [[ "${ast_ran}" -eq 0 ]]; then
  # Promoted bans: AST-level as bacp-arg-lenient / bacp-raw-assert /
  # bacp-raw-strtol; these greps are the no-tools fallback.
  check_absent grep-fallback \
    "lenient ArgParser getter — use get_*_or_fail / require_* instead (bacp-arg-lenient)" \
    '(->|\.)get_(u64|i64|double|bool)\('

  check_absent grep-fallback \
    "raw assert() — use BACP_ASSERT / BACP_DASSERT instead (bacp-raw-assert)" \
    '(^|[^_[:alnum:]])assert[[:space:]]*\(' \
    --exclude=assert.hpp

  check_absent grep-fallback \
    "direct strto*/ato* call — use common::parse_u64 / parse_double instead (bacp-raw-strtol)" \
    '(^|[^_[:alnum:]])(strtoull|strtoul|strtoll|strtol|atoi|atol|atoll)[[:space:]]*\(' \
    --exclude=parse.cpp

  # NOLINT hygiene fallback (bacp-nolint-reason): a marker must name its
  # check ids (separated by "," or ", ") and carry a ": reason" suffix; bare
  # markers suppress nothing.
  bare_nolint="$(grep -rnE --include='*.cpp' --include='*.hpp' \
                   -e 'NOLINT' "${cxx_dirs[@]}" \
                 | grep -vE 'NOLINT(NEXTLINE)?\([a-zA-Z0-9_-]+(, ?[a-zA-Z0-9_-]+)*\): [^ ]' \
                 || true)"
  if [[ -n "${bare_nolint}" ]]; then
    echo "lint[grep-fallback]: NOLINT without '(check-id): reason' (bacp-nolint-reason)" >&2
    sed 's/^/lint[grep-fallback]: /' <<< "${bare_nolint}" >&2
    echo >&2
    fail=1
  fi
fi

# Hash-table iteration order is unspecified and leaks straight into
# artifacts (the sched tenant tables and every report are iteration-ordered).
# Deterministic code uses common::FlatHash64 or std::map; the flat-hash unit
# test keeps std::unordered_map as its reference oracle. Grep-only rule —
# include bans are textual, not structural.
check_absent grep \
  "std::unordered_* include — use common::FlatHash64 or std::map instead" \
  '#include <unordered_' \
  --exclude=test_flat_hash.cpp

# --- Layer 3: clang-tidy ---------------------------------------------------

if command -v clang-tidy > /dev/null 2>&1; then
  lint_build="${repo_root}/build/lint"
  if [[ ! -f "${lint_build}/compile_commands.json" ]]; then
    cmake -B "${lint_build}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DBACP_AUDIT=ON > /dev/null
  fi
  mapfile -t tidy_sources < <(find "${cxx_dirs[@]}" -name '*.cpp' | sort)
  echo "clang-tidy over ${#tidy_sources[@]} files..."
  if ! clang-tidy -p "${lint_build}" --quiet "${tidy_sources[@]}"; then
    echo "lint[clang-tidy]: clang-tidy reported findings" >&2
    fail=1
  fi
else
  echo "lint: clang-tidy not installed — SKIPPING the clang-tidy layer" >&2
  if [[ "${require_tools}" -eq 1 ]]; then fail=1; fi
fi

# --- Layer 4: shellcheck ---------------------------------------------------

if command -v shellcheck > /dev/null 2>&1; then
  if ! shellcheck scripts/*.sh tools/bacp-analyze/check_fixture.sh; then
    echo "lint[shellcheck]: shellcheck reported findings" >&2
    fail=1
  fi
else
  echo "lint: shellcheck not installed — SKIPPING the shellcheck layer" >&2
  if [[ "${require_tools}" -eq 1 ]]; then fail=1; fi
fi

if [[ "${fail}" -eq 0 ]]; then
  echo "lint: clean"
fi
exit "${fail}"
