#!/usr/bin/env bash
# T1 hash pin: simulated behaviour of the hot-path drivers is IDENTICAL
# to the recorded baseline.
#
# Runs bench_t1_throughput once and compares its four outcome hashes
# (the t1.<driver>.hash knobs of BENCH_t1_throughput.json, each an
# FNV-1a fold over a driver's delivery sequence and final counters) with
# bench/baselines/t1_baseline.json.  Any mismatch means a change altered
# virtual-time behaviour, which is never acceptable from a performance
# patch.  Wall-clock speed is gated elsewhere, A against B on one host
# (scripts/artifact_ab_gate.sh).
#
# The run's BENCH_t1_throughput.json and its Google Benchmark JSON
# (T1_benchmark.json, per-driver events_per_sec counters) are left in
# the build directory.
#
# Usage:
#   scripts/bench_t1_gate.sh [--record] [build-dir]
#
#   --record   re-record the baseline from the current build instead of
#              gating (use after an intentional, reviewed change to the
#              drivers or to simulated behaviour).
#   build-dir  tree containing bench/bench_t1_throughput (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

RECORD=0
BUILD_DIR="build"
for arg in "$@"; do
  case "${arg}" in
    --record) RECORD=1 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done

BASELINE="bench/baselines/t1_baseline.json"
BIN="bench/bench_t1_throughput"

if [[ ! -x "${BUILD_DIR}/${BIN}" ]]; then
  echo "bench_t1_gate: ${BUILD_DIR}/${BIN} not built" >&2
  exit 2
fi

(cd "${BUILD_DIR}" &&
 BENCHMARK_OUT=T1_benchmark.json BENCHMARK_OUT_FORMAT=json "${BIN}" >/dev/null)

python3 - "${BUILD_DIR}/BENCH_t1_throughput.json" "${BASELINE}" \
    "${RECORD}" <<'EOF'
import json, sys

artifact, baseline, record = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
knobs = json.load(open(artifact))["meta"]["knobs"]
hashes = {k: v for k, v in knobs.items()
          if k.startswith("t1.") and k.endswith(".hash")}
if record:
    with open(baseline, "w") as f:
        json.dump(hashes, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_t1_gate: baseline re-recorded at {baseline}")
    sys.exit(0)

failed = False
for key, want in json.load(open(baseline)).items():
    got = hashes.get(key)
    ok = got == want
    print(f"{'ok' if ok else 'FAIL':4s} {key}: {got} "
          f"{'==' if ok else '!='} baseline {want}")
    failed |= not ok
sys.exit(1 if failed else 0)
EOF
