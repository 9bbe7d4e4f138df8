"""The `harness` part: the law suites as a user runs them.

One round makes timed clean runs of all suites at each of TIMING_SEEDS, a
clean run of all suites at the round's seed (made from the workload seed
and the round's number), the drop-weight self-test of `unit` and `assoc` at
the round's seed, and a clean run at the kept-back seed.  Every report at a
seed that recurs must be byte-identical to its first one.

The timed runs use the same seeds in every run because the cost of a
convexity trial varies about tenfold with its draws (2-d or 3-d, 2 to 5
generators): at 100 trials, the convexity suite took from 2.7 s to 6.4 s
from one seed to another, so a seeded figure would measure the draws more
than the program.  They are ten short runs rather than one long one, so
that calibration points fall every quarter second or so: the host's speed
changes within a few seconds.  The workload seed reaches the clean runs and
the self-test, whose time is a figure too.
"""

from __future__ import annotations

import numpy as np

from common import Ledger, median

MONAD = ("unit", "assoc", "roundtrip", "functor", "s-iso", "l-iso")
CAPACITY = ("repr", "charac", "shilkret", "possmult")
MUTATED = ("unit", "assoc")
GROUPS = {"laws_monad_s": MONAD, "laws_capacity_s": CAPACITY, "laws_convexity_s": ("convexity",)}

# the seeds of the timed runs of all suites, at TIMED_TRIALS each
TIMING_SEEDS = tuple(range(10))
TIMED_TRIALS = 5
# a seed never used while tuning a change; it must run clean as well
HELD_OUT_SEED = 9001


def round_seed(seed: int, index: int) -> int:
    return int(np.random.default_rng([seed, index, 0x5EED]).integers(2**31))


class Harness:
    name = "harness"
    min_rounds = 2

    def __init__(self, ik, seed: int, light: bool, workdir=None):
        self.ik = ik
        self.seed = seed
        if light:
            self.timing_seeds, self.timed_trials = TIMING_SEEDS[:6], 5
            self.seeded_trials, self.held_out_trials, self.mutate_trials = 5, 5, 20
        else:
            self.timing_seeds, self.timed_trials = TIMING_SEEDS, TIMED_TRIALS
            self.seeded_trials, self.held_out_trials, self.mutate_trials = 10, 10, 300
        self.first: dict[tuple[int, int, str], str] = {}
        self.suite_s: dict[str, float] = {}
        self.rounds = 0

    def _clean(self, led: Ledger, trials: int, seed: int):
        names = self.ik.suite_names()
        ok, reports, wall = led.run(f"run_all seed={seed}", self.ik.run_all, trials, seed, count=len(names))
        if not ok:
            return None, wall
        for r in reports:
            led.expect(r.ok, f"suite {r.suite} at seed {seed} reports {len(r.failures)} failures")
            self._same_as_first(led, seed, trials, r)
        led.expect([r.suite for r in reports] == names, "run_all does not run every suite")
        return reports, wall

    def _same_as_first(self, led: Ledger, seed: int, trials: int, report) -> None:
        doc = self.ik.documents.dump_json(report.to_doc())
        first = self.first.setdefault((seed, trials, report.suite), doc)
        led.expect(doc == first, f"{report.suite} at seed {seed} differs between two passes")

    def round(self, led: Ledger, index: int | None = None) -> dict:
        """One round's figures, at reference speed.  `index` picks the round
        seed; by default the rounds take 0, 1, 2, ... in turn."""
        if index is None:
            index, self.rounds = self.rounds, self.rounds + 1
        seed = round_seed(self.seed, index)
        suites: dict[str, float] = {}
        out = {"suites": suites, "selftest": {}, "laws_all_s": 0.0}
        self.suite_s = {}
        for timing_seed in self.timing_seeds:
            reports, wall = self._clean(led, self.timed_trials, timing_seed)
            if reports is None:
                out["laws_all_s"] = None
                continue
            if out["laws_all_s"] is not None:
                out["laws_all_s"] += wall
            for r in reports:
                suites[r.suite] = suites.get(r.suite, 0.0) + r.elapsed * led.factor
                self.suite_s[r.suite] = self.suite_s.get(r.suite, 0.0) + r.elapsed
        self._clean(led, self.seeded_trials, seed)
        self._selftest(led, seed, out)
        self._clean(led, self.held_out_trials, HELD_OUT_SEED)
        return out

    def _selftest(self, led: Ledger, seed: int, out: dict) -> None:
        for suite in MUTATED:
            ok, report, dt = led.run(
                f"{suite} under drop-weight", self.ik.run_suite, suite, self.mutate_trials, seed,
                mutate="drop-weight",
            )
            if not ok:
                continue
            out["selftest"][suite] = dt
            led.expect(bool(report.failures), f"{suite} under drop-weight finds nothing")
            for failure in report.failures:
                self._check_witness(led, suite, failure)

    def _check_witness(self, led: Ledger, suite: str, failure) -> None:
        """A shrunk witness, decoded from its document, must break the law
        under the corrupted multiplication and keep it under the true one."""
        ik = self.ik
        docs, laws, m = ik.documents, ik.laws, ik.measures
        doc = failure.witness
        if suite == "unit":
            d = docs.density_from_doc(doc)
            if isinstance(d, m.MaxPlusDensity):
                check, mult = m.check_unit_laws, m.multiply
            else:
                check, mult = m.check_unit_laws_times, m.multiply_times
        else:
            metas = [docs.meta_from_doc(e["meta"]) for e in doc["support"]]
            weights = [docs.decode_score(e["weight"]) for e in doc["support"]]
            if isinstance(metas[0], m.MetaDensity):
                d = m.ThirdLevel(tuple(zip(metas, weights)))
                check, mult = m.check_associativity, m.multiply
            else:
                d = m.ThirdLevelTimes(tuple(zip(metas, weights)))
                check, mult = m.check_associativity_times, m.multiply_times
        try:
            broken = not check(d, multiply_fn=laws.drop_weight(mult))
        except ValueError:
            # the corrupted multiplication could not even build a density
            broken = True
        where = f"{suite} witness of trial {failure.trial}"
        led.expect(broken, f"{where} satisfies the law under drop-weight")
        led.expect(check(d), f"{where} violates the law under the true multiplication")

    @staticmethod
    def per_round(rounds: list[dict]) -> dict[str, list[float]]:
        """Per round: the run of all suites, each group's sum of its suites'
        times in that run, and the two mutated suites together."""
        out: dict[str, list[float]] = {k: [] for k in (*GROUPS, "selftest_s", "laws_all_s")}
        for r in rounds:
            if r["laws_all_s"] is not None:
                out["laws_all_s"].append(r["laws_all_s"])
                for key, group in GROUPS.items():
                    out[key].append(sum(r["suites"][s] for s in group))
            if len(r["selftest"]) == len(MUTATED):
                out["selftest_s"].append(sum(r["selftest"].values()))
        return out

    @classmethod
    def metrics(cls, rounds: list[dict]) -> dict[str, float]:
        """The timed runs repeat the same work, so their figures are medians
        over the rounds.  The self-test runs at a new seed each round, so
        its figure is the mean, in which every trial counts once."""
        out = cls.per_round(rounds)
        selftest = out.pop("selftest_s")
        return {**{k: median(v) for k, v in out.items()}, "selftest_s": sum(selftest) / len(selftest)}
