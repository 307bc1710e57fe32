#!/usr/bin/env python3
"""Is HEAD's bench_t1_throughput slower than BASE's?  The one timing rule
of every wall-clock gate.

Usage: scripts/ab_timing.py RUN_DIR BASE HEAD

A side is a T1 binary, optionally preceded by VAR=VALUE words: two builds
for an A/B gate, or one build in two environments ("COOP_TRACE=0 bin").
Each T1 driver runs in its own process, PAIRS times per side, in
interleaved pairs whose order alternates; a pair's ratio is head/base
events_per_sec.  A driver fails a round when a one-sided sign test finds
its ratio below FLOOR in significantly more than half the pairs (binomial
p < ALPHA): the floor, not 1.0, because a cost under 1 - FLOOR is
allowed.  Drivers that fail run one more, independent round; the gate
fails (exit 1) only if a driver fails that one too, or at once if a run's
t1.<driver>.hash differs from the driver's other runs.  Every pair is
written to RUN_DIR/pairs.tsv; runs leave their artifacts in RUN_DIR/base
and RUN_DIR/head, each overwriting the last.
"""
import json, math, os, shlex, statistics, subprocess, sys

PAIRS = 60
FLOOR = 0.97
ALPHA = 0.01
ROUNDS = 2


def sign_test_p(below, n):
    """P(X >= below) for X ~ Binomial(n, 1/2): the one-sided sign test."""
    return sum(math.comb(n, i) for i in range(below, n + 1)) / 2 ** n


def judge(driver, rnd, ratios):
    """Prints the driver's round summary; True if the round fails it."""
    below = sum(r < FLOOR for r in ratios)
    p = sign_test_p(below, len(ratios))
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    print(f"ab_timing: round {rnd} {driver}: median {med:.3f}x, IQR "
          f"[{q1:.3f}, {q3:.3f}], {below}/{len(ratios)} pairs below {FLOOR}, "
          f"p = {p:.4f} {'FAIL' if p < ALPHA else 'ok'}", flush=True)
    return p < ALPHA


def gate(measure, drivers):
    """measure(rnd, drivers) yields (driver, base_rate, head_rate,
    base_hash, head_hash) per pair.  True if the gate passes."""
    hashes, suspects = {}, list(drivers)
    for rnd in range(1, ROUNDS + 1):
        ratios = {d: [] for d in suspects}
        for driver, base, head, *pair_hashes in measure(rnd, suspects):
            for h in pair_hashes:
                if hashes.setdefault(driver, h) != h:
                    print(f"ab_timing: FAIL {driver}: outcome hash {h} != "
                          f"{hashes[driver]} of an earlier run")
                    return False
            ratios[driver].append(head / base)
        suspects = [d for d in suspects if judge(d, rnd, ratios[d])]
        if not suspects:
            return True
    print(f"ab_timing: FAIL {', '.join(suspects)}: slower than the base "
          f"in {ROUNDS} rounds")
    return False


def run(side, cwd, args):
    """Runs SIDE ("[VAR=VALUE ...] binary") with ARGS in CWD; returns its
    stdout."""
    words = shlex.split(side)
    env = dict(os.environ, BENCHMARK_OUT="T1_benchmark.json",
               BENCHMARK_OUT_FORMAT="json")
    while "=" in words[0]:
        env.update([words.pop(0).split("=", 1)])
    os.makedirs(cwd, exist_ok=True)
    out = subprocess.run(words + args, cwd=cwd, env=env, text=True,
                         capture_output=True)
    if out.returncode:
        sys.exit(f"ab_timing: {side} {args} failed:\n{out.stderr}")
    return out.stdout


def measure_t1(run_dir, sides):
    """gate()'s measure for SIDES {"base": spec, "head": spec}."""
    table = open(os.path.join(run_dir, "pairs.tsv"), "w")
    table.write("round\tpair\tdriver\tfirst\tbase_ev_s\thead_ev_s\tratio\n")

    def sample(side, driver):
        cwd = os.path.join(run_dir, side)
        run(sides[side], cwd, [f"--benchmark_filter=^BM_T1_{driver}/"])
        gbench = json.load(open(f"{cwd}/T1_benchmark.json"))
        meta = json.load(open(f"{cwd}/BENCH_t1_throughput.json"))["meta"]
        return (gbench["benchmarks"][0]["events_per_sec"],
                meta["knobs"][f"t1.{driver.lower()}.hash"])

    def measure(rnd, drivers):
        for i in range(1, PAIRS + 1):
            first, second = ("base", "head") if i % 2 else ("head", "base")
            for driver in drivers:
                got = {side: sample(side, driver) for side in (first, second)}
                (b, bh), (h, hh) = got["base"], got["head"]
                print(f"{rnd}\t{i}\t{driver}\t{first}\t{b:.0f}\t{h:.0f}\t"
                      f"{h / b:.4f}", file=table, flush=True)
                yield driver, b, h, bh, hh
    return measure


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    run_dir, base, head = sys.argv[1:]
    listing = run(base, os.path.join(run_dir, "base"),
                  ["--benchmark_list_tests"])
    drivers = [line.split("/")[0].removeprefix("BM_T1_")
               for line in listing.splitlines() if line.startswith("BM_T1_")]
    print(f"ab_timing: {PAIRS} interleaved pairs per driver and round, "
          f"floor {FLOOR}, p < {ALPHA}, up to {ROUNDS} rounds; base "
          f"{base!r}, head {head!r}", flush=True)
    sys.exit(0 if gate(measure_t1(run_dir, {"base": base, "head": head}),
                       drivers) else 1)


if __name__ == "__main__":
    main()
