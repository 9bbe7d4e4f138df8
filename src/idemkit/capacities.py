"""Capacities, possibility profiles, and the max-plus fuzzy integral.

A capacity is a monotone set function stored as a full table over all
subsets, indexed by bitmask in the space's point order.  Possibility
capacities are maxitive and therefore determined by their singleton values,
so they are stored as profiles and expanded on demand.  A profile is a
max-times density (values in [0, 1], peak 1), and the possibility monad is
the max-times monad of idemkit.measures: its meta type and multiplication
are that monad's, fixed to profiles.

The max-plus integral of phi against a capacity is the maximum over
thresholds t of log(c(level set at t)) + t.  The supremum over all real t is
attained at one of the finitely many values of phi (between consecutive
values the level set is constant and the candidate grows linearly with t),
so restricting t to the value set is exact, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .measures import MaxTimesDensity, MetaTimesDensity, multiply
from .seeding import trial_stream
from .semiring import (
    BOTTOM,
    exp_bridge,
    log_bridge,
    resolve_tolerance,
    score_eq,
)
from .spaces import FiniteSpace, RealFunction, SubsetMask

# full subset tables grow as 2^n; beyond this the representation is unusable
MAX_TABLE_POINTS = 20

TABLE_SLACK = 1e-12

DEFAULT_RECOVERY_BOUND = 40.0


def subset_bits(space: FiniteSpace, members: Iterable[str]) -> int:
    """Bitmask of a subset in the space's point order."""
    mask = 0
    for label in members:
        try:
            mask |= 1 << space.points.index(label)
        except ValueError:
            raise ValueError(f"unknown point {label!r}") from None
    return mask


def bits_members(space: FiniteSpace, mask: int) -> tuple[str, ...]:
    return tuple(p for i, p in enumerate(space.points) if mask >> i & 1)


@dataclass(frozen=True, eq=False)
class Capacity:
    """Monotone normalized set function on all subsets of a finite space."""

    space: FiniteSpace
    table: np.ndarray

    def __post_init__(self):
        n = len(self.space)
        if n > MAX_TABLE_POINTS:
            raise ValueError(f"capacity tables support at most {MAX_TABLE_POINTS} points")
        table = np.asarray(self.table, dtype=float).copy()
        if table.shape != (1 << n,):
            raise ValueError(f"capacity table needs {1 << n} entries, got {table.shape}")
        if not np.all(np.isfinite(table)) or table.min() < 0.0 or table.max() > 1.0:
            raise ValueError("capacity values must lie in [0, 1]")
        if abs(table[0]) > TABLE_SLACK:
            raise ValueError(f"capacity of the empty set is {float(table[0])!r}, expected 0")
        if abs(table[-1] - 1.0) > TABLE_SLACK:
            raise ValueError(f"capacity of the whole space is {float(table[-1])!r}, expected 1")
        idx = np.arange(1 << n)
        for i in range(n):
            grown = table[idx | (1 << i)]
            if np.any(table > grown + TABLE_SLACK):
                bad = int(np.argmax(table - grown))
                raise ValueError(
                    f"capacity not monotone at {bits_members(self.space, bad)!r}"
                )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def value(self, subset) -> float:
        """Capacity of a subset given as a SubsetMask or an iterable of labels."""
        members = subset.members if isinstance(subset, SubsetMask) else subset
        return float(self.table[subset_bits(self.space, members)])

    def singletons(self) -> dict[str, float]:
        return {p: float(self.table[1 << i]) for i, p in enumerate(self.space.points)}


class PossibilityProfile(MaxTimesDensity):
    """Maxitive capacity stored by its singleton values, which is exactly a
    max-times density: values in [0, 1] with peak 1."""

    @property
    def singletons(self) -> dict[str, float]:
        return self.weights


class MetaPossibility(MetaTimesDensity):
    """Possibility capacity over possibility capacities: the max-times meta
    density over profiles."""

    entry = PossibilityProfile


def _maxitive_table(values) -> np.ndarray:
    """The maxitive table whose singleton values are `values`, in point order."""
    n = len(values)
    table = np.zeros(1 << n)
    idx = np.arange(1 << n)
    for i, v in enumerate(values):
        hit = (idx >> i & 1) == 1
        table[hit] = np.maximum(table[hit], v)
    return table


def capacity_from_profile(pi: PossibilityProfile) -> Capacity:
    """Expand a profile to its full maxitive table."""
    return Capacity(pi.space, _maxitive_table([pi.weights[p] for p in pi.space.points]))


def is_possibility(c: Capacity, tol: float | None = None) -> bool:
    """True iff the table is maxitive, i.e. equals the expansion of its own
    singleton restriction."""
    tol = resolve_tolerance(tol)
    rebuilt = _maxitive_table(c.table[1 << np.arange(len(c.space))])
    return bool(np.all(np.abs(rebuilt - c.table) <= tol))


# ---------------------------------------------------------------------------
# integrals


def _level_candidates(c: Capacity, phi: RealFunction):
    """Yield (t, capacity of the level set at t) for every attained value t,
    scanning values downward and growing the mask."""
    order = sorted(
        range(len(phi.space)), key=lambda i: phi.values[phi.space.points[i]], reverse=True
    )
    mask = 0
    k = 0
    n = len(order)
    while k < n:
        t = phi.values[phi.space.points[order[k]]]
        while k < n and phi.values[phi.space.points[order[k]]] == t:
            mask |= 1 << order[k]
            k += 1
        yield t, float(c.table[mask])


def maxplus_integral(c: Capacity, phi: RealFunction) -> float:
    """max over attained t of log(c({phi >= t})) + t."""
    if c.space != phi.space:
        raise ValueError("capacity and function live on different spaces")
    best = BOTTOM
    for t, cv in _level_candidates(c, phi):
        cand = log_bridge(cv) + t
        if cand > best:
            best = cand
    return best


def shilkret_integral(c: Capacity, phi: RealFunction) -> float:
    """The multiplicative twin on exp scale: max over attained t of
    exp(t) * c({phi >= t}).  Kept free of logs so it can serve as an
    independent cross-check of the max-plus integral."""
    if c.space != phi.space:
        raise ValueError("capacity and function live on different spaces")
    best = 0.0
    for t, cv in _level_candidates(c, phi):
        cand = np.exp(t) * cv
        if cand > best:
            best = cand
    return float(best)


def possibility_integral(pi: PossibilityProfile, phi: RealFunction) -> float:
    """Singleton form of the integral: max over points of phi(x) + log(pi(x))."""
    if pi.space != phi.space:
        raise ValueError("profile and function live on different spaces")
    return max(phi.values[p] + log_bridge(w) for p, w in pi.weights.items())


def check_repr(pi: PossibilityProfile, phi: RealFunction, tol: float | None = None) -> bool:
    """The singleton form and the level-set form of the integral agree."""
    return score_eq(
        possibility_integral(pi, phi),
        maxplus_integral(capacity_from_profile(pi), phi),
        tol,
    )


def integral_functional(c: Capacity) -> Callable[[RealFunction], float]:
    """The integral as a functional on functions."""

    def oracle(phi: RealFunction) -> float:
        return maxplus_integral(c, phi)

    return oracle


def recover_capacity(
    oracle: Callable[[RealFunction], float],
    space: FiniteSpace,
    bound: float = DEFAULT_RECOVERY_BOUND,
) -> Capacity:
    """Read a capacity back off a functional with indicator-like probes.

    The probe for a subset is 0 on it and -bound off it; the subset's value
    is exp of the clamped probe result.  Entries at least exp(-bound) are
    recovered exactly for functionals produced by integral_functional; a
    monotonicity violation in the result signals a non-conforming oracle.
    """
    if bound <= 0.0:
        raise ValueError("probe bound must be positive")
    n = len(space)
    if n > MAX_TABLE_POINTS:
        raise ValueError(f"capacity tables support at most {MAX_TABLE_POINTS} points")
    table = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        phi = RealFunction(
            space, {p: 0.0 if mask >> i & 1 else -bound for i, p in enumerate(space.points)}
        )
        v = float(oracle(phi))
        table[mask] = exp_bridge(min(0.0, v))
    return Capacity(space, table)


# ---------------------------------------------------------------------------
# characterization battery


@dataclass
class ConditionOutcome:
    name: str
    checked: int
    passed: bool
    witness: dict | None = None


@dataclass
class CharacterizationReport:
    """Outcome of probing a functional for integral-like behavior:
    normalization, maxitivity on comonotone pairs, translation affinity."""

    outcomes: list[ConditionOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def failing(self) -> list[ConditionOutcome]:
        return [o for o in self.outcomes if not o.passed]


def check_characterization(
    oracle: Callable[[RealFunction], float],
    space: FiniteSpace,
    trials: int = 200,
    seed: int = 0,
    tol: float | None = None,
) -> CharacterizationReport:
    """Sample the three integral conditions and report per-condition results.

    Comonotone pairs are produced as two non-decreasing reshapings of one
    shared ranking function, which covers ties; translations draw a random
    constant and a random function.
    """
    from .generate import random_comonotone_pair, random_real_function

    if trials <= 0:
        raise ValueError("trials must be positive")
    tol = resolve_tolerance(tol)
    report = CharacterizationReport()

    ones = RealFunction.constant(space, 1.0)
    v = float(oracle(ones))
    report.outcomes.append(
        ConditionOutcome(
            "normalization",
            1,
            abs(v - 1.0) <= tol,
            None if abs(v - 1.0) <= tol else {"value": v},
        )
    )

    como = ConditionOutcome("comonotone-maxitivity", trials, True)
    for k in range(trials):
        rng = trial_stream(seed, k, tag=1)
        phi, psi = random_comonotone_pair(rng, space)
        left = float(oracle(RealFunction(space, {p: max(phi.values[p], psi.values[p]) for p in space.points})))
        right = max(float(oracle(phi)), float(oracle(psi)))
        if not score_eq(left, right, tol):
            como.passed = False
            como.witness = {
                "phi": phi.values,
                "psi": psi.values,
                "joined": left,
                "max_of_parts": right,
            }
            break
    report.outcomes.append(como)

    trans = ConditionOutcome("translation", trials, True)
    for k in range(trials):
        rng = trial_stream(seed, k, tag=2)
        phi = random_real_function(rng, space)
        lam = float(rng.uniform(-3.0, 3.0))
        shifted = RealFunction(space, {p: v + lam for p, v in phi.values.items()})
        left = float(oracle(shifted))
        right = lam + float(oracle(phi))
        if not score_eq(left, right, tol):
            trans.passed = False
            trans.witness = {"phi": phi.values, "lam": lam, "shifted": left, "direct": right}
            break
    report.outcomes.append(trans)
    return report


# ---------------------------------------------------------------------------
# possibility monad multiplication

# The possibility monad is the max-times monad: collapsing C gives the
# profile rho(x) = max over support pairs of weight * profile(x).  The
# induced capacity of any subset F then equals the threshold sweep max over
# t in (0,1] of (max of weights whose profile gives F at least t) times t,
# because each sweep candidate is maximized at t = that profile's value on F.
possibility_mult = multiply
