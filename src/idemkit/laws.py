"""Randomized verification suites for every algebraic law the library relies on.

A suite is one trial function `trial(rng, run)`, registered by the `_suite`
decorator above it with its name, its stream tag and the law it checks;
`SUITES` lists the suites in the order they are registered.  A trial draws
seeded instances, evaluates one law, and returns None or a failure with a
minimized witness; it builds the witness document only on the path that
returns it, so a passing trial encodes nothing.  While the failure persists, the shrinker takes the first
candidate that still fails: the witness with one support entry dropped,
one nested entry shrunk, or one point of the space dropped.  A meta with
one entry dropped, and a density with one point dropped, are built from
the checked parts of the last witness through the private builders of
idemkit.measures (`Meta._from_checked`, `Density._divided`), which skip the
checks of each part; a meta that holds a new entry, shrunk or restricted,
is built by its constructor.  A point drop takes its smaller space from
`spaces.shared_space`, one per points tuple, so shrinking a witness builds
a space only the first time one is seen.  Trial i of a suite always draws what
`trial_stream(seed, i, tag)` draws, so identical seeds give identical
reports; `run_suite` re-keys one generator of its own per trial
(`seeding.trial_streams`), and a trial must not keep it past its return.
A trial that checks a law on two sides (`unit`, `assoc`, `l-iso`) draws
each side's input just before it checks it, so a trial that fails on its
first side never draws the second.  A check and its shrinking draw
nothing, so this order leaves every draw, and every report, as it would be
with every side drawn first.
Adding a suite means one decorated trial function with a new, unique tag;
renumbering a tag changes every draw of its suite.

`run_suite` and `run_all` check their arguments once, before any trial
runs, and hand every trial the same frozen `Run`: the seed, the largest
space to draw, the tolerance resolved once, and the multiplication.  A bad
trial count, space size (1 to capacities.MAX_TABLE_POINTS), mutation or
tolerance, or a bad IDEMKIT_TOLERANCE, raises ValueError instead of
reading as a failed law; so does a trial count, space size or seed that is
not an integer (a bool, float or str), with the field named.

The drop-weight mutation deliberately corrupts the monad multiplication
(it discards the last support entry) so the harness can demonstrate that the
unit and associativity suites, the only readers of `run.multiply`, actually
catch broken laws.  It builds the shortened meta without re-checking its
entries; when the dropped entry held the peak, the meta is refused, as the
constructor would refuse it, and the law counts as failing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .capacities import (
    DEFAULT_RECOVERY_BOUND,
    MAX_TABLE_POINTS,
    MetaPossibility,
    _maxitive_table,
    bits_members,
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
from .isomorphism import (
    check_l_morphism,
    check_s_morphism,
    density_exp,
    density_log,
    meta_exp,
    meta_log,
)
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
    pushforward,
)
from .seeding import trial_stream, trial_streams
from .semiring import check_integer, resolve_tolerance, score_eq
from .spaces import FiniteSpace, PointMap, compose_maps, shared_space

MUTATIONS = ("drop-weight",)

# steps of the brute-force threshold sweep; the possibility-multiplication
# suite draws its profiles on the same grid
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
            # a subsequence of the merged support, so nothing merges, but
            # the peak may go with its last entry, which the constructor refuses
            meta = type(meta)._from_checked(sup[:-1])
        return multiply_fn(meta)

    return corrupted


def _resolve_mutation(mutate: str | None, multiply_fn: Callable) -> Callable:
    if mutate is None:
        return multiply_fn
    if mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}; available: {', '.join(MUTATIONS)}")
    return drop_weight(multiply_fn)


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


def _restrict(x: Density | Meta, smaller: FiniteSpace):
    """A density, or every density inside a meta at any depth, restricted to
    a smaller space and renormalized."""
    if isinstance(x, Density):
        w = x.weights
        return type(x)._divided(smaller, {p: w[p] for p in smaller.points})
    return type(x)(tuple((_restrict(e, smaller), w) for e, w in x.support))


def _point_drops(x: Density | Meta) -> Iterator:
    """x restricted to its space less one point (`_restrict`), for each
    point in order; a restriction that cannot renormalize, its weights all
    at bottom, is skipped.  The shrinks of a density, and the last kind of
    shrink of a meta."""
    pts = x.space.points
    if len(pts) > 1:
        for drop in pts:
            try:
                yield _restrict(x, shared_space(tuple(p for p in pts if p != drop)))
            except ValueError:
                continue


def _meta_shrinks(F: Meta, keep_space: bool = False) -> Iterator[Meta]:
    """Shrinks of a meta of any depth, in order: drop one support entry and
    renormalize the rest; shrink one entry that is itself a meta; drop one
    point of the space everywhere (`_point_drops`).  With keep_space the
    last kind is left out: an entry shrunk beside other entries must stay
    on their space, or the enclosing constructor rejects it.  A nested
    shrink keeps every weight, so its constructor never refuses it."""
    sup = F.support
    if len(sup) > 1:
        residual = F.side.residual
        for i in range(len(sup)):
            rest = [pair for k, pair in enumerate(sup) if k != i]
            peak = max(w for _, w in rest)
            # the renormalized peak is exact (x - x = 0.0, x / x = 1.0)
            yield type(F)._from_checked(tuple((e, residual(w, peak)) for e, w in rest))
    if issubclass(F.entry, Meta):
        inner_keeps_space = keep_space or len(sup) > 1
        for i, (inner, _) in enumerate(sup):
            for cand in _meta_shrinks(inner, inner_keeps_space):
                yield type(F)(tuple((cand if k == i else e, w) for k, (e, w) in enumerate(sup)))
    if not keep_space:
        yield from _point_drops(F)


# ---------------------------------------------------------------------------
# registry and runner


@dataclass(frozen=True)
class Run:
    """What every trial of one run reads, checked once before trial 0: the
    seed, the largest space a trial draws, the resolved tolerance, and the
    monad multiplication, corrupted under a mutation."""

    seed: int
    max_space: int
    tol: float
    multiply: Callable


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    tag: int  # trial i draws from trial_stream(seed, i, tag)
    law: str
    trial: Callable  # trial(rng, run): None, or (description, witness) on a failure


SUITES: dict[str, SuiteSpec] = {}


def _suite(name: str, tag: int, law: str) -> Callable:
    """Register the decorated trial as the next suite; its name and its
    stream tag must be new."""

    def register(trial):
        if name in SUITES or any(s.tag == tag for s in SUITES.values()):
            raise ValueError(f"suite {name!r} or stream tag {tag} is already registered")
        SUITES[name] = SuiteSpec(name, tag, law, trial)
        return trial

    return register


def _falsified(x, law: Callable, shrinks: Callable, description: str, to_doc: Callable):
    """None when law(x) holds; else the description and the document of x
    shrunk while the law still fails.  A law that raises counts as failing."""

    def fails(y) -> bool:
        try:
            return not law(y)
        except Exception:
            return True

    if fails(x):
        return description, to_doc(_minimize(x, fails, shrinks))
    return None


# ---------------------------------------------------------------------------
# suites, registered in the order they run


@_suite(
    "unit", 10,
    "multiplying the two unit embeddings of a density returns it unchanged (both monads)",
)
def _unit(rng, run: Run):
    space = random_space(rng, run.max_space)
    law = partial(check_unit_laws, tol=run.tol, multiply_fn=run.multiply)
    sides = (("max-plus", random_maxplus_density), ("max-times", random_maxtimes_density))
    for side, draw in sides:
        desc = f"unit laws fail for a {side} density"
        if found := _falsified(draw(rng, space), law, _point_drops, desc, density_to_doc):
            return found
    return None


@_suite(
    "assoc", 11,
    "collapsing a third-level support outside-in or inside-out gives one density (both monads)",
)
def _assoc(rng, run: Run):
    space = random_space(rng, run.max_space)
    law = partial(check_associativity, tol=run.tol, multiply_fn=run.multiply)
    for side, draw in (("max-plus", random_third), ("max-times", random_third_times)):
        desc = f"associativity fails for the {side} multiplication"
        if found := _falsified(draw(rng, space), law, _meta_shrinks, desc, meta_to_doc):
            return found
    return None


@_suite(
    "roundtrip", 12,
    "density -> measure functional -> density is the identity, and the functionals agree on probes",
)
def _roundtrip(rng, run: Run):
    space = random_space(rng, run.max_space)
    f = random_maxplus_density(rng, space)

    def law(d):
        oracle = partial(eval_measure, d)
        recovered = density_from_functional(oracle, d.space)
        if not density_close(recovered, d, run.tol):
            return False
        probe_rng = trial_stream(run.seed, 0, tag=121)
        probes = (random_real_function(probe_rng, d.space) for _ in range(5))
        return all(score_eq(eval_measure(recovered, phi), oracle(phi), run.tol) for phi in probes)

    desc = "density/functional round trip fails"
    return _falsified(f, law, _point_drops, desc, density_to_doc)


@_suite(
    "functor", 13,
    "pushforward preserves identities and composition and commutes with units and multiplication",
)
def _functor(rng, run: Run):
    X = random_space(rng, run.max_space)
    Y = random_space(rng, run.max_space)
    Z = random_space(rng, run.max_space)
    f = random_maxplus_density(rng, X)
    g = random_maxtimes_density(rng, X)
    h = random_point_map(rng, X, Y)
    k = random_point_map(rng, Y, Z)
    F = random_meta(rng, X)

    def witness() -> dict:
        return {"density": density_to_doc(f), "inner_map": h.assignment, "outer_map": k.assignment}

    sides = (("", f), ("max-times ", g))
    for side, d in sides:
        if not density_close(pushforward(PointMap.identity(X), d), d, 1e-12):
            return f"identity pushforward changes a {side}density", witness()
    for side, d in sides:
        if not density_close(
            pushforward(compose_maps(k, h), d), pushforward(k, pushforward(h, d)), 1e-12
        ):
            return f"{side}pushforward does not respect composition", witness()
    x = X.points[int(rng.integers(0, len(X)))]
    if not density_close(pushforward(h, dirac(x, X)), dirac(h.assignment[x], Y), 1e-12):
        return "pushforward does not commute with units", witness()
    if not density_close(multiply(meta_pushforward(h, F)), pushforward(h, multiply(F)), run.tol):
        return "multiplication is not natural in the map", {**witness(), "meta": meta_to_doc(F)}
    return None


@_suite(
    "s-iso", 14,
    "multiplication computed through probe functionals equals the direct density multiplication",
)
def _s_iso(rng, run: Run):
    N = random_meta(rng, random_space(rng, run.max_space))
    law = partial(check_s_morphism, tol=run.tol)
    desc = "measure-side and density-side multiplications disagree"
    return _falsified(N, law, _meta_shrinks, desc, meta_to_doc)


@_suite(
    "l-iso", 15,
    "pointwise exp carries units to units and multiplication to max-times multiplication, "
    "and pointwise log inverts it on densities and metas",
)
def _l_iso(rng, run: Run):
    space = random_space(rng, run.max_space)
    law = partial(check_l_morphism, tol=run.tol)
    desc = "exp does not commute with multiplication"
    F = random_meta(rng, space)
    if found := _falsified(F, law, _meta_shrinks, desc, meta_to_doc):
        return found
    f = random_maxplus_density(rng, space)
    g = density_exp(f)
    back = density_log(g)
    if not density_close(back, f, 1e-12):
        return "exp/log round trip fails", density_to_doc(f)
    if not density_close(density_exp(back), g, 1e-12):
        return "log/exp round trip fails", density_to_doc(g)

    def round_trip(M):
        return density_close(meta_log(meta_exp(M)), M, run.tol)

    desc = "meta exp/log round trip fails"
    return _falsified(F, round_trip, _meta_shrinks, desc, meta_to_doc)


@_suite(
    "repr", 16,
    "the singleton form and the level-set form of the integral agree on possibility capacities",
)
def _repr(rng, run: Run):
    space = random_space(rng, run.max_space)
    pi = random_possibility_profile(rng, space)
    phi = random_real_function(rng, space)
    if not check_repr(pi, phi, run.tol):
        return (
            "singleton and level-set integrals disagree",
            {"profile": possibility_to_doc(pi), "function": function_to_doc(phi)},
        )
    return None


@_suite(
    "charac", 17,
    "integral functionals are normalized, comonotone-maxitive, translation-affine, and recoverable",
)
def _charac(rng, run: Run):
    space = random_space(rng, run.max_space)
    c = random_capacity(rng, space)
    oracle = integral_functional(c)
    inner_seed = int(rng.integers(0, 2**62))
    report = check_characterization(oracle, space, trials=8, seed=inner_seed, tol=run.tol)
    if not report.passed:
        bad = report.failing()[0]
        return (
            f"integral functional violates {bad.name}",
            {"capacity": capacity_to_doc(c), "witness": bad.witness},
        )
    recovered = recover_capacity(oracle, space)
    slack = max(run.tol, math.exp(-DEFAULT_RECOVERY_BOUND))
    if float(np.max(np.abs(recovered.table - c.table))) > slack:
        return "capacity recovery misses an entry", {"capacity": capacity_to_doc(c)}
    return None


@_suite("shilkret", 18, "exp of the max-plus integral equals the product-scale threshold integral")
def _shilkret(rng, run: Run):
    space = random_space(rng, run.max_space)
    c = random_capacity(rng, space)
    phi = random_real_function(rng, space)
    left = math.exp(maxplus_integral(c, phi))
    right = shilkret_integral(c, phi)
    if abs(left - right) > run.tol:
        return (
            "log-scale and product-scale integrals disagree",
            {"capacity": capacity_to_doc(c), "function": function_to_doc(phi)},
        )
    return None


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


def _breakpoint_values(C: MetaPossibility) -> np.ndarray:
    """The multiplied capacity of C on every subset, in mask order: the
    exact reference of the threshold sweep.  The score
    t * max{w_j : nu_j >= t} of a threshold t only steps down at the values
    nu_j of the profiles on the subset, and grows with t between them, so
    its sup is attained at one of them (Shilkret, 1971).  nu is (entry,
    subset), each profile's maxitive table, 0 on the empty set;
    reach[j, i, s] says profile j reaches nu_i on subset s."""
    nu = _maxitive_table(np.array([pi.vector for pi, _ in C.support]))
    weights = np.array([w for _, w in C.support])
    reach = nu[:, None, :] >= nu[None, :, :]
    best = np.where(reach, weights[:, None, None], 0.0).max(axis=0)
    return (best * nu).max(axis=0)


@_suite(
    "possmult", 19,
    "closed-form possibility multiplication matches the breakpoint reference on every subset",
)
def _possmult(rng, run: Run):
    space = random_space(rng, min(run.max_space, 4))
    C = random_meta_possibility(rng, space, quantum=SWEEP_STEPS)
    closed = _maxitive_table(possibility_mult(C).vector)
    off = np.abs(closed - _breakpoint_values(C)) > run.tol
    if off.any():
        members = list(bits_members(space, int(off.argmax())))
        support = [{"profile": possibility_to_doc(pi), "weight": w} for pi, w in C.support]
        return (
            "closed-form possibility multiplication misses the breakpoint reference",
            {"support": support, "subset": members},
        )
    return None


@_suite(
    "convexity", 20,
    "every hull verdict carries a certificate that a separate check accepts, and the algebra"
    " laws hold on generator systems",
)
def _convexity(rng, run: Run):
    dim = 2 if rng.random() < 0.5 else 3
    gens = random_generator_set(rng, dim)

    def witness() -> dict:
        return {"generators": generators_to_doc(gens)}

    grid = bounding_grid(gens, per_axis=11)
    if not check_convexity_equivalence(gens, grid, run.tol):
        return "a hull verdict has no valid certificate", witness()
    N = random_meta_on_generators(rng, len(gens))
    if not check_algebra(gens, N, run.tol):
        return "barycenter does not absorb multiplication", {**witness(), "meta": meta_to_doc(N)}
    i = int(rng.integers(0, len(gens)))
    unit = dirac(f"g{i}", N.space)
    if not np.array_equal(barycenter(gens, density_weights(unit)), gens.points[i]):
        return "barycenter of a unit misses its generator", witness()
    return None


def suite_names() -> list[str]:
    return list(SUITES)


def _checked_run(
    trials: int, seed: int, max_space: int, mutate: str | None, tol
) -> tuple[int, Run]:
    """The trial count, as an int, and the Run of these arguments."""
    max_space = check_integer("max-space", max_space)
    if max_space < 1:
        raise ValueError("max-space must be at least 1")
    if max_space > MAX_TABLE_POINTS:  # the capacity suites draw spaces up to max-space
        raise ValueError(
            f"max-space must be at most {MAX_TABLE_POINTS}, the most points a capacity table holds"
        )
    mult = _resolve_mutation(mutate, multiply)
    trials = check_integer("trials", trials)
    if trials <= 0:
        raise ValueError("trials must be positive")
    return trials, Run(check_integer("seed", seed), max_space, resolve_tolerance(tol), mult)


def run_suite(
    name: str,
    trials: int = 500,
    seed: int = 0,
    max_space: int = 5,
    mutate: str | None = None,
    tol: float | None = None,
) -> RunReport:
    """Run `trials` trials of one suite.  The arguments, and with tol None
    the IDEMKIT_TOLERANCE setting, are checked before trial 0: a bad one
    raises ValueError instead of reading as a failed law."""
    if not isinstance(name, str) or name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    return _run(SUITES[name], *_checked_run(trials, seed, max_space, mutate, tol))


def _run(spec: SuiteSpec, trials: int, run: Run) -> RunReport:
    """Run `trials` trials of one suite on a checked Run."""
    start = time.perf_counter()
    stream = trial_streams(run.seed, spec.tag)
    failures = []
    for i in range(trials):
        rng = stream(i)
        try:
            outcome = spec.trial(rng, run)
        except Exception as exc:
            outcome = (f"trial raised {type(exc).__name__}: {exc}", {})
        if outcome is not None:
            failures.append(Failure(i, *outcome))
    return RunReport(spec.name, trials, run.seed, failures, time.perf_counter() - start)


def run_all(
    trials: int = 500,
    seed: int = 0,
    max_space: int = 5,
    mutate: str | None = None,
    tol: float | None = None,
) -> list[RunReport]:
    """Run every suite in registration order on one Run; a bad argument
    raises before the first suite runs."""
    trials, run = _checked_run(trials, seed, max_space, mutate, tol)
    return [_run(spec, trials, run) for spec in SUITES.values()]
