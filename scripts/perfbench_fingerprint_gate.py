#!/usr/bin/env python3
"""Pinned perfbench fingerprints: behaviour must not move.

    python3 scripts/perfbench_fingerprint_gate.py [--record] [--baseline FILE]

Runs perfbench once per (workload, seed) pinned in the baseline file
(default bench/baselines/perfbench_fingerprints.json), at the baseline's
--seconds, and compares the "fingerprint" line of each run with the
pinned one.  Every field (outcome hash, work counts, virtual-time
metrics) must match exactly, except the util.alloc* counts, which depend
on the C++ library and are pinned as ceilings: they may fall, never rise.
Prints one line per pair and every field that moved; exits non-zero if
any pair fails or a run produces no fingerprint.

--record re-pins instead of checking: it runs the same pairs and rewrites
the baseline file with their fingerprints (the util.alloc* ceilings become
the counts just measured).  Diff the file afterwards: a change that is
meant to be a pure speed-up may move only the util.alloc* lines.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baselines",
                        "perfbench_fingerprints.json")
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
CEILING_PREFIX = "util.alloc"


def run_fingerprint(workload, seed, seconds):
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    for line in proc.stdout.splitlines():
        if line.startswith("fingerprint "):
            return proc.returncode, json.loads(line[len("fingerprint "):])
    return proc.returncode, None


def compare(pinned, got):
    """Returns the list of human-readable violations (empty = pass)."""
    problems = []
    for key in sorted(set(pinned) | set(got)):
        if key not in got:
            problems.append("%s missing (pinned %r)" % (key, pinned[key]))
        elif key not in pinned:
            problems.append("%s not pinned (got %r)" % (key, got[key]))
        elif key.startswith(CEILING_PREFIX):
            if got[key] > pinned[key]:
                problems.append("%s rose above its ceiling: %r > %r" %
                                (key, got[key], pinned[key]))
        elif got[key] != pinned[key]:
            problems.append("%s: pinned %r, got %r" %
                            (key, pinned[key], got[key]))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default=BASELINE)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the baseline from fresh runs")
    args = ap.parse_args()
    with open(args.baseline) as f:
        baseline = json.load(f)
    seconds = baseline["seconds"]
    ok = True
    recorded = []
    for pinned in baseline["fingerprints"]:
        workload, seed = pinned["workload"], pinned["seed"]
        code, got = run_fingerprint(workload, seed, seconds)
        if code != 0 or got is None:
            print("FAIL %-8s seed %d: exit %d, %s" %
                  (workload, seed, code,
                   "no fingerprint" if got is None else "checks failed"),
                  flush=True)
            ok = False
            continue
        if args.record:
            recorded.append(got)
            print("rec  %-8s seed %d (hash %s)" %
                  (workload, seed, got.get("hash")), flush=True)
            continue
        problems = compare(pinned, got)
        print("%s %-8s seed %d (hash %s)" %
              ("ok  " if not problems else "FAIL", workload, seed,
               got.get("hash")), flush=True)
        for p in problems:
            print("  " + p, flush=True)
        ok = ok and not problems
    if args.record:
        if not ok:
            print("baseline left unchanged: a run failed", flush=True)
            return 1
        with open(args.baseline, "w") as f:
            f.write(json.dumps({"seconds": seconds,
                                "fingerprints": recorded}, indent=2) + "\n")
        print("baseline re-recorded at %s" % args.baseline, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
