#!/usr/bin/env bash
# Shard-parity gate: the sharded kernel must be indistinguishable from the
# serial differential oracle.
#
# Runs bench_e13_million_users's parity seed matrix (seeds x topologies —
# including a zero-lookahead topology that forces barrier-synchronized
# epochs — x shard counts {1,2,4,8}, each cell hashed against a serial
# run of the same scenario) plus the 10k space-time cell.  The binary
# exits non-zero on any hash/count divergence or lookahead violation, so
# the matrix itself is the assertion; on top of that the gate requires
# the BENCH artifact to reproduce byte-for-byte (modulo wall_ms) across
# two runs — the same determinism contract every other soak obeys.
#
# Usage:
#   scripts/shard_parity_gate.sh [--full] [build-dir]
#
#   --full     also run the 100k and 1M cells, each on 1, 2 and 4
#              threads (several minutes; the default keeps the gate
#              CI-sized).
#   build-dir  tree containing bench/bench_e13_million_users
#              (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

FULL=0
BUILD_DIR="build"
for arg in "$@"; do
  case "${arg}" in
    --full) FULL=1 ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done

BIN="$(pwd)/${BUILD_DIR}/bench/bench_e13_million_users"
if [[ ! -x "${BIN}" ]]; then
  echo "shard_parity_gate: ${BIN} not built" >&2
  exit 2
fi

FILTER="ParityMatrix|SpaceTime/10000/"
[[ "${FULL}" == "1" ]] && FILTER=".*"

echo "shard_parity_gate: oracle matrix (filter: ${FILTER})"
# The artifact (from the first run) lands in the build dir for CI upload.
(cd "${BUILD_DIR}" && "${ROOT}/scripts/determinism_gate.sh" "${BIN}" \
    e13_million_users --benchmark_filter="${FILTER}")
echo "shard_parity_gate: sharded == serial across the matrix," \
     "artifact reproducible"
