#!/usr/bin/env python3
"""The decision rule of scripts/ab_timing.py on fixed synthetic pair sets."""
import contextlib, io, math, os, random, sys, unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
import ab_timing  # noqa: E402

DRIVERS = ("group", "rpc", "awareness", "sharded")


def pairs(seed, slowdown=1.0):
    """PAIRS (base, head, base_hash, head_hash) pairs whose head/base ratio
    is log-normal around `slowdown`, about as spread as this host's A/A
    per-driver pairs (IQR about [0.96, 1.04])."""
    rng = random.Random(seed)
    return [(1e6, 1e6 * slowdown * math.exp(rng.gauss(0, 0.06)), "h", "h")
            for _ in range(ab_timing.PAIRS)]


def aa_round(seed):
    return {d: pairs(seed * 10 + i) for i, d in enumerate(DRIVERS)}


def passes(*rounds, log=None):
    """Runs the gate on the given rounds; True if it passes.  Its report
    goes to `log` (a StringIO) if given."""
    def measure(rnd, drivers):
        for d in drivers:
            for pair in rounds[rnd - 1][d]:
                yield (d, *pair)
    with contextlib.redirect_stdout(log or io.StringIO()):
        return ab_timing.gate(measure, DRIVERS)


class DecisionRule(unittest.TestCase):
    def test_aa_pairs_pass(self):
        for seed in range(1, 21):
            self.assertTrue(passes(aa_round(seed), aa_round(seed + 100)))

    def test_one_wild_pair_passes(self):
        # One base run 1.76x faster than its head run: best-of would read
        # the driver 43% slower; one pair of many moves the sign test by one.
        r = aa_round(1)
        r["group"][0] = (1.76e6, 1e6, "h", "h")
        self.assertTrue(passes(r, aa_round(2)))

    def test_uniform_ten_percent_slowdown_fails(self):
        rounds = [aa_round(s) for s in (1, 2)]
        for s, r in enumerate(rounds):
            r["rpc"] = pairs(50 + s, slowdown=0.90)
        self.assertFalse(passes(*rounds))

    def test_unconfirmed_round_one_failure_passes(self):
        r1 = aa_round(1)
        r1["awareness"] = pairs(7, slowdown=0.90)
        log = io.StringIO()
        self.assertTrue(passes(r1, aa_round(2), log=log))
        self.assertRegex(log.getvalue(), r"round 1 awareness: .* FAIL")
        self.assertRegex(log.getvalue(), r"round 2 awareness: .* ok")

    def test_hash_mismatch_fails_whatever_the_timings(self):
        r = aa_round(1)
        base, head, bh, _ = r["sharded"][5]
        r["sharded"][5] = (base, head * 1.5, bh, "other")
        self.assertFalse(passes(r, aa_round(2)))


if __name__ == "__main__":
    unittest.main()
