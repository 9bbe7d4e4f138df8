"""The `bulk` part: a library caller with large inputs.

Densities and meta densities live on 10^3 and 10^4 points and capacities on
12 to 16 points (smaller in the light form).  One round makes every call
once and checks each result against the numpy references or against a
property the result must have.  Only the library call is timed.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from common import Ledger, labels, median_of

SUPPORT = 8  # densities per meta density for multiply
PROBED_SUPPORT = 2  # densities per meta density for measure_multiplication
INTEGRALS = 8  # functions integrated against the largest capacity
RECOVERY_BOUND = 40.0
TOL = 1e-9


def _weights(f, space) -> np.ndarray:
    return np.array([f.weights[p] for p in space.points])


def meta_density(ik, rng, space, k: int):
    """A meta density with exactly k support densities, so that the cost of
    a call does not depend on the seed."""
    w = rng.uniform(-8.0, 0.0, k)
    w = w - w.max()
    return ik.MetaDensity(
        tuple((ik.generate.random_maxplus_density(rng, space), float(x)) for x in w)
    )


class Bulk:
    name = "bulk"
    min_rounds = 1

    def __init__(self, ik, seed: int, light: bool, workdir=None):
        self.ik = ik
        gen = ik.generate
        rng = np.random.default_rng([seed, 0xB01C])
        if light:
            small, large, target, caps = 300, 1000, 100, (8, 10, 12)
        else:
            small, large, target, caps = 1000, 10_000, 1000, (12, 14, 16)
        self.s1 = ik.FiniteSpace(labels("x", small))
        self.s2 = ik.FiniteSpace(labels("x", large))
        self.target = ik.FiniteSpace(labels("y", target))

        self.F1 = meta_density(ik, rng, self.s1, SUPPORT)
        self.F2 = meta_density(ik, rng, self.s2, SUPPORT)
        self.N = meta_density(ik, rng, self.s1, PROBED_SUPPORT)
        self.f1 = gen.random_maxplus_density(rng, self.s1)
        self.f2 = gen.random_maxplus_density(rng, self.s2)
        self.g = gen.random_point_map(rng, self.s2, self.target)
        self.phi2 = gen.random_real_function(rng, self.s2)

        n_rec_a, n_rec_b, n_big = caps
        self.sa = ik.FiniteSpace(labels("p", n_rec_a))
        self.sb = ik.FiniteSpace(labels("p", n_rec_b))
        self.sc = ik.FiniteSpace(labels("p", n_big))
        self.ca = gen.random_capacity(rng, self.sa)
        self.cb = gen.random_capacity(rng, self.sb)
        self.cc = gen.random_capacity(rng, self.sc)
        self.table_c = np.array(self.cc.table)
        self.pi = gen.random_possibility_profile(rng, self.sc)
        self.phis = [gen.random_real_function(rng, self.sc) for _ in range(INTEGRALS)]

        # the references' view of the same inputs, in point order
        self.r_F1 = self._meta_arrays(self.F1, self.s1)
        self.r_F2 = self._meta_arrays(self.F2, self.s2)
        self.r_N = self._meta_arrays(self.N, self.s1)
        self.r_f1 = _weights(self.f1, self.s1)
        self.r_f2 = _weights(self.f2, self.s2)
        index = {p: i for i, p in enumerate(self.target.points)}
        self.r_g = np.array([index[self.g.assignment[p]] for p in self.s2.points])
        self.r_phi2 = np.array([self.phi2.values[p] for p in self.s2.points])
        self.r_pi = np.array([self.pi.singletons[p] for p in self.sc.points])
        self.r_phis = [np.array([phi.values[p] for p in self.sc.points]) for phi in self.phis]

    @staticmethod
    def _meta_arrays(F, space):
        densities = np.stack([_weights(f, space) for f, _ in F.support])
        return densities, np.array([w for _, w in F.support])

    # ------------------------------------------------------------------

    @staticmethod
    def _same_density(led: Ledger, what: str, got, space, expected: np.ndarray, tol: float = 0.0) -> None:
        w = _weights(got, space)
        bottom = np.isneginf(expected)
        same_bottom = np.array_equal(np.isneginf(w), bottom)
        close = same_bottom and bool(np.all(np.abs(w[~bottom] - expected[~bottom]) <= tol))
        led.expect(close, f"{what} differs from the numpy reference")
        led.expect(w.max() == 0.0, f"{what} does not peak at exactly 0")

    def round(self, led: Ledger, index: int | None = None) -> dict[str, dict[str, float]]:
        """Every round makes the same calls, so `index` is unused."""
        ik = self.ik
        monad: dict[str, float] = {}
        capacity: dict[str, float] = {}

        def call(times: dict[str, float], key: str, what: str, fn, *args):
            ok, got, dt = led.run(what, fn, *args)
            if ok:
                times[key] = dt
            return ok, got

        for what, F, space, r in (
            ("multiply n1", self.F1, self.s1, self.r_F1),
            ("multiply n2", self.F2, self.s2, self.r_F2),
        ):
            ok, got = call(monad, what, what, ik.multiply, F)
            if ok:
                self._same_density(led, what, got, space, ref.multiply(*r))

        what = "measure_multiplication"
        ok, got = call(monad, what, what, ik.measure_multiplication, self.N)
        if ok:
            self._same_density(led, what, got, self.s1, ref.multiply(*self.r_N))

        ok, got = call(monad, "pushforward", "pushforward", ik.pushforward, self.g, self.f2)
        if ok:
            expected = ref.pushforward(self.r_f2, self.r_g, len(self.target))
            self._same_density(led, "pushforward", got, self.target, expected)

        ok, got = call(monad, "eval_measure", "eval_measure", ik.eval_measure, self.f2, self.phi2)
        if ok:
            expected = ref.eval_measure(self.r_f2, self.r_phi2)
            led.expect(got == expected, "eval_measure differs from the numpy reference")

        f1 = self.f1
        what = "density_from_functional"
        ok, got = call(
            monad, what, what, ik.density_from_functional, lambda phi: ik.eval_measure(f1, phi), self.s1
        )
        if ok:
            self._same_density(led, f"{what} of eval_measure", got, self.s1, self.r_f1)

        ok, times = call(monad, "density_exp", "density_exp", ik.density_exp, self.f2)
        if ok:
            w = _weights(times, self.s2)
            led.expect(w.max() == 1.0, "density_exp does not peak at exactly 1")
            close = bool(np.all(np.abs(w - np.exp(self.r_f2)) <= 1e-15))
            led.expect(close, "density_exp differs from np.exp")
            ok, back = call(monad, "density_log", "density_log", ik.density_log, times)
            if ok:
                self._same_density(led, "density_log of density_exp", back, self.s2, self.r_f2, 1e-12)

        ok, got = call(
            monad, "multiply_times", "multiply_times of meta_exp",
            lambda F: ik.multiply_times(ik.meta_exp(F)), self.F1,
        )
        if ok:
            w = _weights(got, self.s1)
            led.expect(w.max() == 1.0, "multiply_times does not peak at exactly 1")
            expected = np.exp(ref.multiply(*self.r_F1))
            close = bool(np.all(np.abs(w - expected) <= 1e-12))
            led.expect(close, "multiply_times of meta_exp differs from exp of the reference")

        ok, got = call(capacity, "Capacity", "Capacity", ik.Capacity, self.sc, self.table_c)
        if ok:
            led.expect(np.array_equal(got.table, self.table_c), "Capacity changed its table")

        what = "capacity_from_profile"
        ok, got = call(capacity, what, what, ik.capacity_from_profile, self.pi)
        if ok:
            same = np.array_equal(got.table, ref.expand_profile(self.r_pi))
            led.expect(same, f"{what} differs from the numpy expansion")

        for k, (phi, r_phi) in enumerate(zip(self.phis, self.r_phis)):
            ok, value = call(
                capacity, f"maxplus_integral {k}", "maxplus_integral", ik.maxplus_integral, self.cc, phi
            )
            if not ok:
                continue
            expected = ref.level_set_integral(self.table_c, r_phi)
            led.expect(abs(value - expected) <= 1e-12, "maxplus_integral differs from the level-set reference")
            ok, prod = call(
                capacity, f"shilkret_integral {k}", "shilkret_integral", ik.shilkret_integral, self.cc, phi
            )
            if ok:
                close = abs(math.exp(value) - prod) <= 1e-12 * max(1.0, prod)
                led.expect(close, "exp of the integral is not the Shilkret integral")

        slack = max(TOL, math.exp(-RECOVERY_BOUND))
        for c in (self.ca, self.cb):
            what = f"recover_capacity n{len(c.space)}"
            ok, got = call(
                capacity, what, what, ik.recover_capacity, ik.integral_functional(c), c.space, RECOVERY_BOUND
            )
            if ok:
                led.expect(float(np.max(np.abs(got.table - c.table))) <= slack, f"{what} misses an entry")

        return {"bulk_monad_s": monad, "bulk_capacity_s": capacity}

    @staticmethod
    def metrics(rounds: list[dict[str, dict[str, float]]]) -> dict[str, float]:
        """Each call's median time over the rounds, summed over the batch."""
        return {k: sum(median_of(rounds, k).values()) for k in ("bulk_monad_s", "bulk_capacity_s")}
