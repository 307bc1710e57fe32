#!/usr/bin/env bash
# A/B gate: a change that keeps simulated behaviour must leave the
# deterministic bench artifacts exactly as <rev> produces them, and must
# not make T1 slower than <rev> on the same host.
#
# Checks <rev> out in a temporary git worktree, builds it and the working
# tree in Release, runs the E8, T1, R1, R2 and R4 benches and E12's
# awareness parity mode in both, and diffs each BENCH_<tag>.json pair
# once the wall-clock line (wall_ms, alone on its own line) is removed —
# the filter determinism_gate.sh uses.  Fails if a bench exits non-zero
# or any pair differs; prints the diff of every pair that does.
#
# It also prints the line count of src/ (*.cpp and *.hpp) in both trees,
# for the log only: the size never fails the gate.
#
# Then times T1 on both trees with scripts/ab_timing.py, which fails if
# a driver is slower at head than at <rev>; its per-pair table lands in
# ab_timing/pairs.tsv under the current directory.
#
# Usage:
#   scripts/artifact_ab_gate.sh <rev>
#
# Example (what CI runs on a pull request):
#   scripts/artifact_ab_gate.sh "$(git merge-base origin/main HEAD)"
#
# Build trees and run directories live under a temporary directory that
# is removed on exit, together with the worktree.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
REV="$(git -C "${ROOT}" rev-parse --verify "$1^{commit}")"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
WORK="$(mktemp -d)"
BASE_SRC="${WORK}/base-src"

cleanup() {
  git -C "${ROOT}" worktree remove --force "${BASE_SRC}" 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

# "binary:artifact [argument...]": the bench, the tag of the
# BENCH_<tag>.json it writes, and the arguments both sides run it with.
BENCHES=(
  bench_e8_group_scaling:e8
  bench_t1_throughput:t1_throughput
  bench_r1_chaos:r1_chaos
  bench_r2_overload:r2_overload
  bench_r4_failover:r4_failover
  "bench_e12_awareness_scaling:e12_awareness --benchmark_filter=Parity"
)
TARGETS=()
for b in "${BENCHES[@]}"; do TARGETS+=("${b%%:*}"); done

# src_lines <tree> [code]: lines of C++ source under <tree>/src; with
# "code", only the lines that are neither blank nor a // comment.
src_lines() {
  find "$1/src" \( -name '*.cpp' -o -name '*.hpp' \) -print0 | xargs -0 cat |
    if [[ "${2:-}" == code ]]; then grep -Ev '^[[:space:]]*(//.*)?$'; else cat; fi |
    wc -l
}

# build <src> <build-dir>
build() {
  echo "+ build $1"
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$2" -j "${JOBS}" --target "${TARGETS[@]}" >/dev/null
}

echo "artifact_ab_gate: base ${REV}"
git -C "${ROOT}" worktree add --detach "${BASE_SRC}" "${REV}" >/dev/null
for kind in all code; do
  base_lines="$(src_lines "${BASE_SRC}" "${kind}")"
  head_lines="$(src_lines "${ROOT}" "${kind}")"
  printf 'src/ %s lines: base %d, head %d (%+d)\n' "${kind}" \
      "${base_lines}" "${head_lines}" "$(( head_lines - base_lines ))"
done

build "${BASE_SRC}" "${WORK}/base-build"
build "${ROOT}" "${WORK}/head-build"

status=0
for b in "${BENCHES[@]}"; do
  bin="${b%%:*}"
  read -r -a words <<<"${b#*:}"
  json="BENCH_${words[0]}.json"
  args=("${words[@]:1}")
  for side in base head; do
    dir="${WORK}/${side}-run/${bin}"
    mkdir -p "${dir}"
    echo "+ ${side} ${bin} ${args[*]}"
    if ! (cd "${dir}" && "${WORK}/${side}-build/bench/${bin}" \
            "${args[@]}" >/dev/null 2>stderr.log); then
      cat "${dir}/stderr.log" >&2
      echo "artifact_ab_gate: ${side} ${bin} failed" >&2
      exit 1
    fi
  done
  if diff <(grep -v wall_ms "${WORK}/base-run/${bin}/${json}") \
          <(grep -v wall_ms "${WORK}/head-run/${bin}/${json}"); then
    echo "artifact_ab_gate: ${json} identical"
  else
    echo "artifact_ab_gate: ${json} DIFFERS from ${REV}" >&2
    status=1
  fi
done

echo "+ T1 timing"
python3 "${ROOT}/scripts/ab_timing.py" ab_timing \
    "${WORK}/base-build/bench/bench_t1_throughput" \
    "${WORK}/head-build/bench/bench_t1_throughput"
exit "${status}"
