#!/usr/bin/env python3
"""Build and run the coop user-operation benchmark.

    python3 perfbench/run.py --workload coauthor|meeting|crowd|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck [--seconds S]

The first form builds the benchmark (and the coop library from ../src)
into .bench_build/perfbench under the repository root if needed, runs one
workload (or, with "all", each in turn) and prints its metrics; the last
line of standard output is the JSON result.  It exits non-zero, without a
result line, if the build fails or a run does not produce one, and
non-zero after the result line if a correctness check failed.

--selfcheck runs every workload on two seeds, untraced twice and traced
once per seed, and checks that the deterministic fingerprint (work
counts, virtual-time metrics and the outcome hash of the count phase) is
identical across all runs of a seed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("coauthor", "meeting", "crowd")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        configure = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    built = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return built.returncode == 0


def run_once(workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-seed%d.csv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def fingerprint(lines):
    for line in lines:
        if line.startswith("fingerprint "):
            return json.loads(line[len("fingerprint "):])
    return None


def selfcheck(seconds):
    ok = True
    for workload in WORKLOADS:
        for seed in (1, 2):
            prints = []
            for trace in (0, 0, 1):
                code, lines = run_once(workload, seed, seconds, trace)
                fp = fingerprint(lines)
                if code != 0 or fp is None:
                    log("FAIL %s seed %d trace %d: exit %d" %
                        (workload, seed, trace, code))
                    for line in lines:
                        if line.startswith("check failed"):
                            log("  " + line)
                    ok = False
                    continue
                prints.append(fp)
            same = all(fp == prints[0] for fp in prints)
            if not same:
                for key in prints[0]:
                    values = [fp.get(key) for fp in prints]
                    if any(v != values[0] for v in values):
                        log("  %s differs: %s" % (key, values))
            ok = ok and same and len(prints) == 3
            print("%-8s seed %d: %s (hash %s)" %
                  (workload, seed, "identical" if same else "DIFFERENT",
                   prints[0]["hash"] if prints else "-"), flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")

    if not build():
        log("perfbench: build failed")
        return 1
    if args.selfcheck:
        return selfcheck(min(args.seconds, 3))

    worst = 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code, lines = run_once(workload, args.seed, args.seconds, args.trace)
        if parse_result(lines) is None:
            log("perfbench: no result from %s (exit %d)" % (workload, code))
            for line in lines:
                log(line)
            return code or 1
        if len(workloads) > 1:
            print("workload %s" % workload)
        for line in lines:
            print(line, flush=True)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
