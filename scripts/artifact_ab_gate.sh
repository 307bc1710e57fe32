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
# Then times T1 on both trees: TIMING_REPS runs per side, interleaved,
# alternating which side goes first.  Each driver's statistic is its
# fastest repeat of events_per_sec (read from the Google Benchmark JSON);
# the gate passes once the geometric mean of the four head/base ratios
# reaches TIMING_FLOOR.  Below it, another round of reps joins the pool,
# up to TIMING_ROUNDS: on a shared host, slow spells of several seconds
# can starve one side of fast runs, and a second round makes that rare,
# while a real regression stays below the floor however long it runs.
# On a shared 4-vCPU host, 20 of 20 same-binary gates passed (two only
# after the second round), and 10 of 10 failed against a build that
# cuts every driver's events/sec by 16-25%.
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
TIMING_REPS=9
TIMING_ROUNDS=2
TIMING_FLOOR=0.92
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

# t1_timing <base-bin> <head-bin> <run-dir>: the interleaved timing stage.
t1_timing() {
  local -A bin=([base]="$1" [head]="$2")
  local round rep side order
  for round in $(seq 1 "${TIMING_ROUNDS}"); do
    for rep in $(seq $(( (round - 1) * TIMING_REPS + 1 )) \
                     $(( round * TIMING_REPS ))); do
      order="base head"
      (( rep % 2 == 0 )) && order="head base"
      for side in ${order}; do
        if ! (cd "$3" && BENCHMARK_OUT="${side}-${rep}.json" \
              BENCHMARK_OUT_FORMAT=json "${bin[${side}]}" \
              >/dev/null 2>stderr.log); then
          cat "$3/stderr.log" >&2
          echo "artifact_ab_gate: ${side} T1 timing run failed" >&2
          return 1
        fi
      done
    done
    python3 - "$3" "${TIMING_FLOOR}" <<'EOF' && return 0
import glob, json, math, sys

run_dir, floor = sys.argv[1], float(sys.argv[2])

def fastest(side):
    best = {}
    for path in glob.glob(f"{run_dir}/{side}-*.json"):
        for b in json.load(open(path))["benchmarks"]:
            driver = b["name"].split("/")[0].removeprefix("BM_T1_").lower()
            best[driver] = max(best.get(driver, 0.0), b["events_per_sec"])
    return best

base, head = fastest("base"), fastest("head")
logs = []
for driver, base_eps in base.items():
    ratio = head[driver] / base_eps
    logs.append(math.log(ratio))
    print(f"artifact_ab_gate: T1 {driver}: base {base_eps:.0f} ev/s, "
          f"head {head[driver]:.0f} ev/s, {ratio:.3f}x")
mean = math.exp(sum(logs) / len(logs))
ok = mean >= floor
print(f"artifact_ab_gate: T1 events/sec geometric mean {mean:.3f}x "
      f"(floor {floor}) {'ok' if ok else 'below floor'}")
sys.exit(0 if ok else 1)
EOF
  done
  echo "artifact_ab_gate: T1 is slower than the base" >&2
  return 1
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

echo "+ T1 timing: ${TIMING_REPS} interleaved runs per side and round"
mkdir -p "${WORK}/timing"
t1_timing "${WORK}/base-build/bench/bench_t1_throughput" \
    "${WORK}/head-build/bench/bench_t1_throughput" "${WORK}/timing"
exit "${status}"
