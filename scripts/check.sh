#!/usr/bin/env bash
# Tier-1 gate: the checks a change must pass before review.
#
#   1. Release-ish build + full ctest suite (the determinism and
#      correctness contract).
#   2. AddressSanitizer/UBSan build + tests (COOP_SANITIZE=ON), because
#      the ring tracer, hold-back queues and timer wheels are exactly the
#      kind of code that hides lifetime bugs.
#   3. Chaos soak: bench_r1_chaos runs the full seed x scenario matrix
#      (20 seeds x 4 scenarios) and exits non-zero on any invariant
#      violation; a second run must reproduce the artifact byte-for-byte
#      (wall-clock line excluded) or determinism has regressed
#      (scripts/determinism_gate.sh; the other soaks use it too).
#
# Usage: scripts/check.sh [--skip-sanitize]
#
# Build trees land in build-check/ and build-asan/ so the developer's
# own build/ directory is left alone.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
SKIP_SANITIZE=0
[[ "${1:-}" == "--skip-sanitize" ]] && SKIP_SANITIZE=1

run() {
  echo "+ $*"
  "$@"
}

echo "== wire formats: each declared once, as a COOP_FIELDS struct =="
# Messages encode and decode through util::encode/decode; a hand-written
# util::Reader or util::Writer elsewhere in src/ would state a format twice.
if grep -rn 'util::Reader\|util::Writer' src --exclude=codec.hpp; then
  echo "util::Reader/util::Writer used outside src/util/codec.hpp" >&2
  exit 1
fi

echo "== library stats: O(1) memory, no sample per event =="
# A long session must not grow a stat by one sample per edit, grant or
# delivery: these modules keep util::Histogram stats, and a caller that
# needs exact percentiles keeps its own util::Summary, fed by a callback.
if grep -rn 'util::Summary' src/groupware src/ccontrol src/awareness; then
  echo "util::Summary used in src/groupware, src/ccontrol or src/awareness" >&2
  exit 1
fi

echo "== tier-1: build + tests =="
run cmake -B build-check -S . -DCMAKE_BUILD_TYPE=Release
run cmake --build build-check -j "${JOBS}"
run ctest --test-dir build-check --output-on-failure -j "${JOBS}"

# gate <binary> <artifact> [args...]: run a bench twice, fail on any
# violation or on an artifact that differs modulo wall_ms.  The first
# run's artifact is left in build-check/.
gate() {
  (cd build-check && run ../scripts/determinism_gate.sh "$@")
}

echo "== chaos soak: invariants + SLO rules across the seed matrix =="
# SLO rules (ack-rate floor, RTT p99 ceiling) are evaluated per
# virtual-time window; any rule that overspends its breach budget or
# never recovers fails the run.
gate bench/bench_r1_chaos r1_chaos

echo "== durable soak: WAL + checkpoint recovery + anti-entropy =="
# --durable swaps the replicas for durable::DurableStore instances:
# crashes drop the unsynced tail (plus seeded torn garbage), restarts
# recover solely from checkpoint + log replay, and on top of the R1
# invariants the run proves a quiesce-and-recover identity, zero
# acked-op loss and a bounded WAL.  Same determinism contract.
gate bench/bench_r1_chaos r1_durable --durable

echo "== failover soak: coordinator/sequencer crash matrix + partitions =="
# bench_r4_failover drives a five-participant total-order session through
# six failure modes (coordinator crash, crash-restart recovery, sequencer
# crash, both at once, asymmetric partition + heal, flapping member) over
# 20 seeds each.  Every run asserts zero acked-broadcast loss, identical
# core delivery logs, exactly one active coordinator per primary
# partition, and strictly monotone view ids; the binary exits non-zero on
# any violation.  Same determinism contract as the other soaks.
gate bench/bench_r4_failover r4_failover

echo "== overload soak: goodput sweep + no-acked-shed + SLO rules =="
gate bench/bench_r2_overload r2_overload

echo "== awareness parity smoke: indexed fan-out == brute force =="
# bench_e12's parity mode replays the same seeded workload through the
# indexed and brute-force engines and exits non-zero if the delivery
# sequences or stats diverge; the artifact must also reproduce.
gate bench/bench_e12_awareness_scaling e12_awareness \
    --benchmark_filter=Parity

echo "== shard parity: sharded kernel == serial differential oracle =="
# bench_e13_million_users replays the space-time-matrix workload through
# the sharded kernel (shard counts x seeds x topologies, including the
# zero-lookahead barrier mode) and the serial oracle; the binary exits
# non-zero on any divergence, and the gate additionally requires the
# artifact to reproduce byte-for-byte modulo wall_ms.
run scripts/shard_parity_gate.sh build-check

echo "== T1 hash pin: hot-path behaviour =="
# bench_t1_throughput runs the four hot-path drivers once and the gate
# compares their outcome hashes with bench/baselines/t1_baseline.json —
# any drift means simulated behaviour changed.  T1's speed is compared
# against the merge-base on the same host by scripts/artifact_ab_gate.sh.
run scripts/bench_t1_gate.sh build-check

echo "== obs overhead gate: instrumentation must stay under 3% =="
# Tracer-off vs sampling-off runs of each T1 driver, in interleaved
# pairs (scripts/ab_timing.py): the always-on observability plane may
# not make a driver slower than its floor allows, and its outcome hashes
# must agree across modes.
run scripts/obs_overhead_gate.sh build-check

if [[ "${SKIP_SANITIZE}" == "1" ]]; then
  echo "== sanitizer pass skipped (--skip-sanitize) =="
  exit 0
fi

echo "== tier-2: ASan/UBSan build + tests =="
run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DCOOP_SANITIZE=ON
run cmake --build build-asan -j "${JOBS}"
run ctest --test-dir build-asan --output-on-failure -j "${JOBS}"
(cd build-asan && run bench/bench_r1_chaos >/dev/null)
(cd build-asan && run bench/bench_r1_chaos --durable >/dev/null)
(cd build-asan && run bench/bench_r4_failover >/dev/null)
(cd build-asan && run bench/bench_r2_overload >/dev/null)
(cd build-asan && run bench/bench_e12_awareness_scaling \
    --benchmark_filter=Parity >/dev/null)
run scripts/shard_parity_gate.sh build-asan

echo "== all checks passed =="
