#!/usr/bin/env bash
# Determinism gate: a deterministic bench binary must reproduce its
# artifact byte-for-byte across two identical runs.
#
# Runs <binary> [args...] twice, each in a fresh temporary directory, with
# the caller's environment passed through (so e.g. COOP_TRACE_SAMPLE=0
# applies to both runs).  Fails if either run exits non-zero, or if the
# two BENCH_<artifact>.json files differ once the wall-clock line
# (wall_ms, which sits alone on its own line) is removed.  On success the
# first run's BENCH_<artifact>* files are copied into the current
# directory, where CI's upload steps pick them up.
#
# Usage:
#   scripts/determinism_gate.sh <binary> <artifact> [args...]
#
# Example:
#   scripts/determinism_gate.sh build/bench/bench_r1_chaos r1_durable --durable
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <binary> <artifact> [args...]" >&2
  exit 2
fi

BIN="$(realpath "$1")"
ARTIFACT="$2"
shift 2

if [[ ! -x "${BIN}" ]]; then
  echo "determinism_gate: ${BIN} not built" >&2
  exit 2
fi

run_a="$(mktemp -d)"
run_b="$(mktemp -d)"
trap 'rm -rf "${run_a}" "${run_b}"' EXIT

echo "+ ${BIN} $* (twice)"
(cd "${run_a}" && "${BIN}" "$@" >/dev/null)
(cd "${run_b}" && "${BIN}" "$@" >/dev/null)

json="BENCH_${ARTIFACT}.json"
if ! diff <(grep -v wall_ms "${run_a}/${json}") \
          <(grep -v wall_ms "${run_b}/${json}"); then
  echo "determinism_gate: ${json} is not reproducible across runs" >&2
  exit 1
fi
cp "${run_a}/BENCH_${ARTIFACT}"* .
echo "determinism_gate: ${json} reproducible"
