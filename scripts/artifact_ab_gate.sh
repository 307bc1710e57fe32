#!/usr/bin/env bash
# A/B artifact gate: a change that keeps simulated behaviour must leave
# the deterministic bench artifacts exactly as <rev> produces them.
#
# Checks <rev> out in a temporary git worktree, builds it and the working
# tree in Release, runs the E8, T1, R1, R2 and R4 benches in both, and
# diffs each BENCH_<tag>.json pair once the wall-clock line (wall_ms,
# alone on its own line) is removed — the filter determinism_gate.sh
# uses.  Fails if a bench exits non-zero or any pair differs; prints the
# diff of every pair that does.
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

# binary:artifact pairs; every bench runs with its default arguments.
BENCHES=(
  bench_e8_group_scaling:e8
  bench_t1_throughput:t1_throughput
  bench_r1_chaos:r1_chaos
  bench_r2_overload:r2_overload
  bench_r4_failover:r4_failover
)
TARGETS=()
for b in "${BENCHES[@]}"; do TARGETS+=("${b%%:*}"); done

echo "artifact_ab_gate: base ${REV}"
git -C "${ROOT}" worktree add --detach "${BASE_SRC}" "${REV}" >/dev/null

# build <src> <build-dir>
build() {
  echo "+ build $1"
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$2" -j "${JOBS}" --target "${TARGETS[@]}" >/dev/null
}
build "${BASE_SRC}" "${WORK}/base-build"
build "${ROOT}" "${WORK}/head-build"

status=0
for b in "${BENCHES[@]}"; do
  bin="${b%%:*}"
  json="BENCH_${b##*:}.json"
  for side in base head; do
    dir="${WORK}/${side}-run/${bin}"
    mkdir -p "${dir}"
    echo "+ ${side} ${bin}"
    if ! (cd "${dir}" &&
          "${WORK}/${side}-build/bench/${bin}" >/dev/null 2>stderr.log); then
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
exit "${status}"
