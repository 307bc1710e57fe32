#!/usr/bin/env bash
# Observability overhead gate: with the sampler dropping every record
# (COOP_TRACE_SAMPLE=0), no T1 driver may run slower than with the tracer
# off (COOP_TRACE=0) beyond scripts/ab_timing.py's floor, and no outcome
# hash may differ.  Per-pair table: <build-dir>/obs_timing/pairs.tsv.
#
# Usage: scripts/obs_overhead_gate.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
printf -v BIN %q "$(pwd)/${1:-build}/bench/bench_t1_throughput"
exec python3 scripts/ab_timing.py "${1:-build}/obs_timing" \
    "COOP_TRACE=0 ${BIN}" "COOP_TRACE_SAMPLE=0 ${BIN}"
