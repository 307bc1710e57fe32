#!/usr/bin/env bash
# Observability overhead gate.
#
# The obs plane's contract is "always on, never felt": with tracing
# compiled in and the sampler dropping everything (COOP_TRACE_SAMPLE=0,
# i.e. every record pays the hash-and-count path but nothing is stored),
# hot-path throughput must stay within OVERHEAD_MAX (default 3%) of the
# tracer-disabled baseline (COOP_TRACE=0, one predicted branch per
# record).
#
# Method: REPS (default 3) interleaved baseline/instrumented pairs of
# bench_t1_throughput on the same machine, best events/sec per driver on
# each side — best-of compares the least-perturbed run of each mode, and
# interleaving keeps thermal/CPU drift from biasing one side.  The rates
# come from each run's Google Benchmark JSON (BENCHMARK_OUT).  Outcome
# hashes (the t1.<driver>.hash knobs of BENCH_t1_throughput.json) must
# agree across every run of both modes: observability must never change
# simulated behaviour, only wall-clock cost.
#
# Usage:
#   scripts/obs_overhead_gate.sh [build-dir]   (default: build)
#
# Environment: OVERHEAD_MAX (fraction, default 0.03), REPS (default 3).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BIN="$(pwd)/${BUILD_DIR}/bench/bench_t1_throughput"
OVERHEAD_MAX="${OVERHEAD_MAX:-0.03}"
REPS="${REPS:-3}"

if [[ ! -x "${BIN}" ]]; then
  echo "obs_overhead_gate: ${BIN} not built" >&2
  exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

export BENCHMARK_OUT=T1_benchmark.json BENCHMARK_OUT_FORMAT=json
for rep in $(seq 1 "${REPS}"); do
  off="${workdir}/off_${rep}"
  on="${workdir}/on_${rep}"
  mkdir -p "${off}" "${on}"
  (cd "${off}" && COOP_TRACE=0 "${BIN}" >/dev/null)
  (cd "${on}" && COOP_TRACE_SAMPLE=0 "${BIN}" >/dev/null)
  echo "obs_overhead_gate: rep ${rep}/${REPS} done"
done

python3 - "${workdir}" "${REPS}" "${OVERHEAD_MAX}" <<'EOF'
import json, sys

workdir, reps, max_overhead = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])

def load(mode):
    """Per rep: {driver: (hash, events_per_sec)}."""
    runs = []
    for r in range(1, reps + 1):
        run = f"{workdir}/{mode}_{r}"
        artifact = json.load(open(f"{run}/BENCH_t1_throughput.json"))
        knobs = artifact["meta"]["knobs"]
        rates = {}
        for b in json.load(open(f"{run}/T1_benchmark.json"))["benchmarks"]:
            driver = b["name"].split("/")[0].removeprefix("BM_T1_").lower()
            rates[driver] = (knobs[f"t1.{driver}.hash"], b["events_per_sec"])
        runs.append(rates)
    return runs

off_runs, on_runs = load("off"), load("on")
failed = False
for name in sorted(off_runs[0]):
    hashes = {r[name][0] for r in off_runs + on_runs}
    if len(hashes) != 1:
        print(f"FAIL {name}: outcome hashes diverge across modes/reps "
              f"({sorted(hashes)}) — instrumentation changed simulated "
              f"behaviour")
        failed = True
        continue
    best_off = max(r[name][1] for r in off_runs)
    best_on = max(r[name][1] for r in on_runs)
    overhead = 1.0 - best_on / best_off
    status = "ok" if overhead <= max_overhead else "FAIL"
    print(f"{status:4s} {name}: tracer-off {best_off:.0f} ev/s, "
          f"sampling-off {best_on:.0f} ev/s, overhead {overhead * 100:.2f}% "
          f"(max {max_overhead * 100:.1f}%)")
    if overhead > max_overhead:
        failed = True
sys.exit(1 if failed else 0)
EOF
