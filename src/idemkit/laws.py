"""Randomized verification suites for every algebraic law the library relies on.

Each suite draws seeded instances, evaluates one law, and reports failures
with minimized witnesses (spaces are shrunk pointwise and supports pairwise
while the failure persists).  Trial i of a suite always sees the same stream
regardless of scheduling, so identical seeds give identical reports.

The drop-weight mutation deliberately corrupts the monad multiplication
(it discards the last support entry) so the harness can demonstrate that the
unit and associativity suites actually catch broken laws.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .capacities import (
    MetaPossibility,
    check_characterization,
    check_repr,
    integral_functional,
    maxplus_integral,
    possibility_mult,
    recover_capacity,
    shilkret_integral,
)
from .convexity import (
    barycenter,
    bounding_grid,
    check_algebra,
    check_convexity_equivalence,
    density_weights,
)
from .documents import (
    capacity_to_doc,
    density_to_doc,
    function_to_doc,
    generators_to_doc,
    meta_to_doc,
    possibility_to_doc,
)
from .generate import (
    random_capacity,
    random_generator_set,
    random_maxplus_density,
    random_maxtimes_density,
    random_meta,
    random_meta_on_generators,
    random_meta_possibility,
    random_point_map,
    random_possibility_profile,
    random_real_function,
    random_space,
    random_third,
    random_third_times,
)
from .isomorphism import check_l_morphism, check_s_morphism, density_exp, density_log
from .measures import (
    Density,
    Meta,
    check_associativity,
    check_unit_laws,
    density_close,
    density_from_functional,
    dirac,
    eval_measure,
    meta_pushforward,
    multiply,
    normalize,
    pushforward,
)
from .seeding import trial_stream
from .semiring import is_bottom, resolve_tolerance, score_eq
from .spaces import FiniteSpace, PointMap, compose_maps

MUTATIONS = ("drop-weight",)

RECOVERY_BOUND = 40.0
PROBE_BOUND = 64.0

# threshold sweep used by the possibility-multiplication suite
SWEEP_STEPS = 10_000


@dataclass
class Failure:
    trial: int
    description: str
    witness: dict

    def to_doc(self) -> dict:
        return {"trial": self.trial, "description": self.description, "witness": self.witness}


@dataclass
class RunReport:
    suite: str
    trials: int
    seed: int
    failures: list[Failure]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_doc(self) -> dict:
        # elapsed stays out: emitted reports must be byte-identical per seed
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "ok": self.ok,
            "failures": [f.to_doc() for f in self.failures],
        }


def drop_weight(multiply_fn: Callable) -> Callable:
    """Mutation hook: corrupt a multiplication by discarding the last
    support entry whenever there is more than one."""

    def corrupted(meta):
        sup = meta.support
        if len(sup) > 1:
            meta = type(meta)(sup[:-1])
        return multiply_fn(meta)

    return corrupted


def _resolve_mutation(mutate: str | None, multiply_fn: Callable) -> Callable:
    if mutate is None:
        return multiply_fn
    if mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}; available: {', '.join(MUTATIONS)}")
    return drop_weight(multiply_fn)


def _holds(check: Callable[[], bool]) -> bool:
    """Run a law check, treating any exception as a violation."""
    try:
        return bool(check())
    except Exception:
        return False


def _minimize(value, fails: Callable, shrinks: Callable):
    current = value
    while True:
        for cand in shrinks(current):
            if fails(cand):
                current = cand
                break
        else:
            return current


# ---------------------------------------------------------------------------
# shrinking


def _density_shrinks(f: Density) -> Iterator[Density]:
    pts = f.space.points
    if len(pts) <= 1:
        return
    bottom = f.side.bottom
    for drop in pts:
        rest = {p: w for p, w in f.weights.items() if p != drop}
        if all(w == bottom for w in rest.values()):
            continue
        yield normalize(FiniteSpace(tuple(p for p in pts if p != drop)), rest, f.side)


def _restrict(x: Density | Meta, smaller: FiniteSpace):
    """A density, or every density inside a meta at any depth, restricted to
    a smaller space and renormalized."""
    if isinstance(x, Density):
        return normalize(smaller, {p: x.weights[p] for p in smaller.points}, x.side)
    return type(x)(tuple((_restrict(e, smaller), w) for e, w in x.support))


def _meta_shrinks(F: Meta) -> Iterator[Meta]:
    """Shrinks of a meta of any depth, in order: drop one support entry and
    renormalize the rest; shrink one entry that is itself a meta; drop one
    point of the space everywhere."""
    sup = F.support
    if len(sup) > 1:
        residual = F.side.residual
        for i in range(len(sup)):
            rest = [pair for k, pair in enumerate(sup) if k != i]
            peak = max(w for _, w in rest)
            try:
                yield type(F)(tuple((e, residual(w, peak)) for e, w in rest))
            except ValueError:
                continue
    if issubclass(F.entry, Meta):
        for i, (inner, _) in enumerate(sup):
            for cand in _meta_shrinks(inner):
                try:
                    yield type(F)(tuple((cand if k == i else e, w) for k, (e, w) in enumerate(sup)))
                except ValueError:
                    continue
    pts = F.space.points
    if len(pts) > 1:
        for drop in pts:
            try:
                yield _restrict(F, FiniteSpace(tuple(p for p in pts if p != drop)))
            except ValueError:
                continue


def _third_to_doc(G: Meta) -> dict:
    return {
        "support": [
            {"meta": meta_to_doc(m), "weight": w if not is_bottom(w) else "-inf"}
            for m, w in G.support
        ]
    }


# ---------------------------------------------------------------------------
# suites


def _run(name: str, trials: int, seed: int, tag: int, trial_fn) -> RunReport:
    if trials <= 0:
        raise ValueError("trials must be positive")
    start = time.perf_counter()
    failures = []
    for i in range(trials):
        rng = trial_stream(seed, i, tag=tag)
        try:
            outcome = trial_fn(rng)
        except Exception as exc:
            outcome = (f"trial raised {type(exc).__name__}: {exc}", {})
        if outcome is not None:
            desc, witness = outcome
            failures.append(Failure(i, desc, witness))
    return RunReport(name, trials, seed, failures, time.perf_counter() - start)


def suite_unit(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    mult = _resolve_mutation(mutate, multiply)

    def fails(d):
        return not _holds(lambda: check_unit_laws(d, tol, multiply_fn=mult))

    def trial(rng):
        space = random_space(rng, max_space)
        f = random_maxplus_density(rng, space)
        g = random_maxtimes_density(rng, space)
        for side, d in (("max-plus", f), ("max-times", g)):
            if fails(d):
                small = _minimize(d, fails, _density_shrinks)
                return f"unit laws fail for a {side} density", density_to_doc(small)
        return None

    return _run("unit", trials, seed, 10, trial)


def suite_assoc(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    mult = _resolve_mutation(mutate, multiply)

    def fails(x):
        return not _holds(lambda: check_associativity(x, tol, multiply_fn=mult))

    def trial(rng):
        space = random_space(rng, max_space)
        G = random_third(rng, space)
        H = random_third_times(rng, space)
        for side, x in (("max-plus", G), ("max-times", H)):
            if fails(x):
                small = _minimize(x, fails, _meta_shrinks)
                return f"associativity fails for the {side} multiplication", _third_to_doc(small)
        return None

    return _run("assoc", trials, seed, 11, trial)


def suite_roundtrip(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    def trial(rng):
        space = random_space(rng, max_space)
        f = random_maxplus_density(rng, space)

        def fails(d):
            def oracle(phi):
                return eval_measure(d, phi)

            if not _holds(
                lambda: density_close(density_from_functional(oracle, d.space, PROBE_BOUND), d, tol)
            ):
                return True
            probe_rng = trial_stream(seed, 0, tag=121)
            recovered = density_from_functional(oracle, d.space, PROBE_BOUND)
            for _ in range(5):
                phi = random_real_function(probe_rng, d.space)
                if not score_eq(eval_measure(recovered, phi), oracle(phi), tol):
                    return True
            return False

        if fails(f):
            small = _minimize(f, fails, _density_shrinks)
            return "density/functional round trip fails", density_to_doc(small)
        return None

    return _run("roundtrip", trials, seed, 12, trial)


def suite_functor(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    def trial(rng):
        X = random_space(rng, max_space)
        Y = random_space(rng, max_space)
        Z = random_space(rng, max_space)
        f = random_maxplus_density(rng, X)
        g = random_maxtimes_density(rng, X)
        h = random_point_map(rng, X, Y)
        k = random_point_map(rng, Y, Z)
        F = random_meta(rng, X)
        witness = {
            "density": density_to_doc(f),
            "inner_map": h.assignment,
            "outer_map": k.assignment,
        }
        if not density_close(pushforward(PointMap.identity(X), f), f, 1e-12):
            return "identity pushforward changes a density", witness
        if not density_close(pushforward(PointMap.identity(X), g), g, 1e-12):
            return "identity pushforward changes a max-times density", witness
        composed = pushforward(compose_maps(k, h), f)
        staged = pushforward(k, pushforward(h, f))
        if not density_close(composed, staged, 1e-12):
            return "pushforward does not respect composition", witness
        composed_t = pushforward(compose_maps(k, h), g)
        staged_t = pushforward(k, pushforward(h, g))
        if not density_close(composed_t, staged_t, 1e-12):
            return "max-times pushforward does not respect composition", witness
        x = X.points[int(rng.integers(0, len(X)))]
        if not density_close(pushforward(h, dirac(x, X)), dirac(h.assignment[x], Y), 1e-12):
            return "pushforward does not commute with units", witness
        if not density_close(
            multiply(meta_pushforward(h, F)), pushforward(h, multiply(F)), tol
        ):
            return "multiplication is not natural in the map", {**witness, "meta": meta_to_doc(F)}
        return None

    return _run("functor", trials, seed, 13, trial)


def suite_s_iso(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    def trial(rng):
        space = random_space(rng, max_space)
        N = random_meta(rng, space)

        def fails(M):
            return not _holds(lambda: check_s_morphism(M, PROBE_BOUND, tol))

        if fails(N):
            small = _minimize(N, fails, _meta_shrinks)
            return "measure-side and density-side multiplications disagree", meta_to_doc(small)
        return None

    return _run("s-iso", trials, seed, 14, trial)


def suite_l_iso(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    def trial(rng):
        space = random_space(rng, max_space)
        F = random_meta(rng, space)
        f = random_maxplus_density(rng, space)

        def fails(M):
            return not _holds(lambda: check_l_morphism(M, tol))

        if fails(F):
            small = _minimize(F, fails, _meta_shrinks)
            return "exp does not commute with multiplication", meta_to_doc(small)
        if not density_close(density_log(density_exp(f)), f, 1e-12):
            return "exp/log round trip fails", density_to_doc(f)
        return None

    return _run("l-iso", trials, seed, 15, trial)


def suite_repr(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    def trial(rng):
        space = random_space(rng, max_space)
        pi = random_possibility_profile(rng, space)
        phi = random_real_function(rng, space)
        if not check_repr(pi, phi, tol):
            return (
                "singleton and level-set integrals disagree",
                {"profile": possibility_to_doc(pi), "function": function_to_doc(phi)},
            )
        return None

    return _run("repr", trials, seed, 16, trial)


def suite_charac(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    def trial(rng):
        space = random_space(rng, max_space)
        c = random_capacity(rng, space)
        oracle = integral_functional(c)
        inner_seed = int(rng.integers(0, 2**62))
        report = check_characterization(oracle, space, trials=8, seed=inner_seed, tol=tol)
        if not report.passed:
            bad = report.failing()[0]
            return (
                f"integral functional violates {bad.name}",
                {"capacity": capacity_to_doc(c), "witness": bad.witness},
            )
        recovered = recover_capacity(oracle, space, RECOVERY_BOUND)
        slack = max(resolve_tolerance(tol), math.exp(-RECOVERY_BOUND))
        if float(np.max(np.abs(recovered.table - c.table))) > slack:
            return "capacity recovery misses an entry", {"capacity": capacity_to_doc(c)}
        return None

    return _run("charac", trials, seed, 17, trial)


def suite_shilkret(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    def trial(rng):
        space = random_space(rng, max_space)
        c = random_capacity(rng, space)
        phi = random_real_function(rng, space)
        left = math.exp(maxplus_integral(c, phi))
        right = shilkret_integral(c, phi)
        if abs(left - right) > resolve_tolerance(tol):
            return (
                "log-scale and product-scale integrals disagree",
                {"capacity": capacity_to_doc(c), "function": function_to_doc(phi)},
            )
        return None

    return _run("shilkret", trials, seed, 18, trial)


def sweep_grid(steps: int = SWEEP_STEPS) -> np.ndarray:
    """Thresholds k/steps for k = 1..steps, the brute-force sweep of (0, 1]."""
    return np.arange(1, steps + 1) / float(steps)


def swept_capacity_value(C: MetaPossibility, members, grid: np.ndarray) -> float:
    """Brute-force value of the multiplied capacity on one subset: sweep every
    threshold t, score the set of support profiles reaching t on the subset,
    and keep the best score times t."""
    nu = np.array(
        [max((pi.singletons[p] for p in members), default=0.0) for pi, _ in C.support]
    )
    w = np.array([wt for _, wt in C.support])
    hit = nu[:, None] >= grid[None, :]
    best_weight = np.where(hit, w[:, None], 0.0).max(axis=0)
    return float(np.max(best_weight * grid))


def suite_possmult(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    grid = sweep_grid()
    sweep_tol = 1e-6

    def trial(rng):
        space = random_space(rng, min(max_space, 4))
        C = random_meta_possibility(rng, space, quantum=SWEEP_STEPS)
        rho = possibility_mult(C)
        pts = space.points
        for mask in range(1 << len(pts)):
            members = [p for i, p in enumerate(pts) if mask >> i & 1]
            closed = max((rho.singletons[p] for p in members), default=0.0)
            swept = swept_capacity_value(C, members, grid)
            if abs(closed - swept) > sweep_tol:
                return (
                    "closed-form possibility multiplication misses the threshold sweep",
                    {
                        "support": [
                            {"profile": possibility_to_doc(pi), "weight": w}
                            for pi, w in C.support
                        ],
                        "subset": members,
                    },
                )
        return None

    return _run("possmult", trials, seed, 19, trial)


def suite_convexity(trials=500, seed=0, max_space=5, mutate=None, tol=None) -> RunReport:
    def trial(rng):
        dim = 2 if rng.random() < 0.5 else 3
        gens = random_generator_set(rng, dim)
        witness = {"generators": generators_to_doc(gens)}
        grid = bounding_grid(gens, per_axis=11)
        if not check_convexity_equivalence(gens, grid, tol):
            return "hull membership and barycenter reachability disagree", witness
        N = random_meta_on_generators(rng, len(gens))
        if not check_algebra(gens, N, tol):
            return "barycenter does not absorb multiplication", {**witness, "meta": meta_to_doc(N)}
        i = int(rng.integers(0, len(gens)))
        unit = dirac(f"g{i}", N.space)
        if not np.array_equal(barycenter(gens, density_weights(unit)), gens.points[i]):
            return "barycenter of a unit misses its generator", witness
        return None

    return _run("convexity", trials, seed, 20, trial)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    runner: Callable
    law: str


SUITES: dict[str, SuiteSpec] = {
    s.name: s
    for s in (
        SuiteSpec(
            "unit",
            suite_unit,
            "multiplying the two unit embeddings of a density returns it unchanged (both monads)",
        ),
        SuiteSpec(
            "assoc",
            suite_assoc,
            "collapsing a third-level support outside-in or inside-out gives one density (both monads)",
        ),
        SuiteSpec(
            "roundtrip",
            suite_roundtrip,
            "density -> measure functional -> density is the identity, and the functionals agree on probes",
        ),
        SuiteSpec(
            "functor",
            suite_functor,
            "pushforward preserves identities and composition and commutes with units and multiplication",
        ),
        SuiteSpec(
            "s-iso",
            suite_s_iso,
            "multiplication computed through probe functionals equals the direct density multiplication",
        ),
        SuiteSpec(
            "l-iso",
            suite_l_iso,
            "pointwise exp carries units to units and multiplication to max-times multiplication",
        ),
        SuiteSpec(
            "repr",
            suite_repr,
            "the singleton form and the level-set form of the integral agree on possibility capacities",
        ),
        SuiteSpec(
            "charac",
            suite_charac,
            "integral functionals are normalized, comonotone-maxitive, translation-affine, and recoverable",
        ),
        SuiteSpec(
            "shilkret",
            suite_shilkret,
            "exp of the max-plus integral equals the product-scale threshold integral",
        ),
        SuiteSpec(
            "possmult",
            suite_possmult,
            "closed-form possibility multiplication matches a brute-force threshold sweep on every subset",
        ),
        SuiteSpec(
            "convexity",
            suite_convexity,
            "hull membership, barycenter reachability, and the algebra laws agree on generator systems",
        ),
    )
}


def suite_names() -> list[str]:
    return list(SUITES)


def run_suite(
    name: str,
    trials: int = 500,
    seed: int = 0,
    max_space: int = 5,
    mutate: str | None = None,
    tol: float | None = None,
) -> RunReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    if max_space < 1:
        raise ValueError("max-space must be at least 1")
    return SUITES[name].runner(trials=trials, seed=seed, max_space=max_space, mutate=mutate, tol=tol)


def run_all(
    trials: int = 500,
    seed: int = 0,
    max_space: int = 5,
    mutate: str | None = None,
    tol: float | None = None,
) -> list[RunReport]:
    return [run_suite(name, trials, seed, max_space, mutate, tol) for name in SUITES]
