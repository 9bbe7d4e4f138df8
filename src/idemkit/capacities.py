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

integral_functional(c) is that integral as a functional.  It is callable
on one function, and its `batch` integrates every row of a block to the
same floats with no sort, one numpy pass per point: the level set at each
point's value is its tie group and every point above it, one bitmask per
point and row, in the narrowest unsigned integer that holds n bits.
recover_capacity reads a capacity back off it one block of indicator rows
at a time, built point-major and handed over as a (subset, point) view,
through the probe layer of idemkit.spaces (`probe_values`) that
density_from_functional uses too, with the same budget of
PROBE_BLOCK_CELLS values per block.  The logs the batch
gathers are stored on the capacity (`Capacity.log_table`, made on first
read), so every functional of one capacity shares them.  maxplus_integral
and shilkret_integral stay scalar scans, the independent cross-check of the
batch.  Each scans a function's vector (idemkit.spaces keeps every real
function as a vector in point order, with a label dict besides when built
from one), gathered into the capacity's point order.

check_characterization samples the three conditions that make a functional
such an integral.  It draws every trial of a condition first, each from its
own stream of seeding.trial_streams, into rows of one block, and evaluates
the block through probe_values too: an integral functional integrates a
condition in one batch, with the floats of the scalar scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .measures import MaxTimesDensity, MetaTimesDensity, multiply
from .seeding import trial_streams
from .semiring import (
    BOTTOM,
    check_integer,
    log_bridge,
    resolve_tolerance,
    score_eq,
)
from .spaces import (
    PROBE_BLOCK_CELLS,
    FiniteSpace,
    RealFunction,
    SubsetMask,
    check_probe_bound,
    checked_block,
    in_point_order,
    probe_values,
    stored,
)

# full subset tables grow as 2^n; beyond this the representation is unusable
MAX_TABLE_POINTS = 20

# the narrowest unsigned integer that holds a level-set mask of n points, by n
_MASK_DTYPES = tuple(np.min_scalar_type((1 << n) - 1) for n in range(MAX_TABLE_POINTS + 1))

TABLE_SLACK = 1e-12

DEFAULT_RECOVERY_BOUND = 40.0


def subset_bits(space: FiniteSpace, members: Iterable[str]) -> int:
    """Bitmask of a subset in the space's point order."""
    mask = 0
    for label in members:
        try:
            mask |= 1 << space.index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ValueError(f"unknown point {label!r}") from None
    return mask


def bits_members(space: FiniteSpace, mask: int) -> tuple[str, ...]:
    return tuple(p for i, p in enumerate(space.points) if mask >> i & 1)


def _check_table_points(n: int) -> None:
    """Refuse a table over n points before its 2**n entries are made."""
    if n > MAX_TABLE_POINTS:
        raise ValueError(f"capacity tables support at most {MAX_TABLE_POINTS} points")


@dataclass(frozen=True, eq=False)
class Capacity:
    """Monotone normalized set function on all subsets of a finite space."""

    space: FiniteSpace
    table: np.ndarray

    def __post_init__(self):
        n = len(self.space)
        _check_table_points(n)
        try:
            table = np.asarray(self.table, dtype=float).copy()
        except (TypeError, OverflowError) as exc:  # a ValueError keeps its own text
            raise ValueError(f"{exc} in the capacity table") from None
        if table.shape != (1 << n,):
            raise ValueError(f"capacity table needs {1 << n} entries, got {table.shape}")
        # np.min and np.max propagate NaN, which then fails both comparisons
        if not (table.min() >= 0.0 and table.max() <= 1.0):
            raise ValueError("capacity values must lie in [0, 1]")
        if abs(table[0]) > TABLE_SLACK:
            raise ValueError(f"capacity of the empty set is {float(table[0])!r}, expected 0")
        if abs(table[-1] - 1.0) > TABLE_SLACK:
            raise ValueError(f"capacity of the whole space is {float(table[-1])!r}, expected 1")
        for i in range(n):
            # pairs[:, 0] are the masks without point i, pairs[:, 1] the same masks with it
            pairs = table.reshape(-1, 2, 1 << i)
            lo, hi = pairs[:, 0], pairs[:, 1]
            if (lo > hi + TABLE_SLACK).any():
                # lo holds the masks without point i in increasing order, so its
                # first argmax is the first worst mask, the witness of a full scan
                j, k = divmod(int(np.argmax(lo - hi)), 1 << i)
                bad = j << (i + 1) | k
                raise ValueError(
                    f"capacity not monotone at {bits_members(self.space, bad)!r}"
                )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @classmethod
    def _from_checked(cls, space: FiniteSpace, table: np.ndarray) -> "Capacity":
        """The capacity of `table`, a float64 array of 2**n entries in mask
        order, n within MAX_TABLE_POINTS, that the caller owns and made
        monotone, normalized and in [0, 1] (the maxitive expansion of a
        profile, a monotone draw divided by its top): it is marked read-only
        and not checked again."""
        table.setflags(write=False)
        obj = cls.__new__(cls)
        obj.__dict__.update(space=space, table=table)
        return obj

    @stored
    def log_table(self) -> np.ndarray:
        """log_bridge of every table entry, read-only: math.log of each
        nonzero entry and bottom for 0.  Made on first read and kept, which
        is sound because the capacity is frozen and its table read-only."""
        logs = np.full(len(self.table), BOTTOM)
        nonzero = np.flatnonzero(self.table)
        logs[nonzero] = list(map(math.log, self.table[nonzero].tolist()))
        logs.setflags(write=False)
        return logs

    def value(self, subset) -> float:
        """Capacity of a subset given as a SubsetMask or an iterable of labels."""
        members = subset.members if isinstance(subset, SubsetMask) else subset
        return float(self.table[subset_bits(self.space, members)])


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
    """The maxitive table whose singleton values are `values`, in point
    order, in mask order; a (..., n) block gives one table per row."""
    values = np.asarray(values, dtype=float)
    table = np.zeros((*values.shape[:-1], 1 << values.shape[-1]))
    for i in range(values.shape[-1]):
        # the subsets whose top point is i: those below it, each joined with i
        table[..., 1 << i : 2 << i] = np.maximum(table[..., : 1 << i], values[..., i, None])
    return table


def capacity_from_profile(pi: PossibilityProfile) -> Capacity:
    """Expand a profile to its full maxitive table, once its size is
    checked.  A profile's values lie in [0, 1] with peak 1, within the slack
    the constructor allows, so its expansion is a capacity by construction
    and skips the constructor's checks; any other density keeps them."""
    _check_table_points(len(pi.space))
    table = _maxitive_table([pi.weights[p] for p in pi.space.points])
    if isinstance(pi, MaxTimesDensity):
        return Capacity._from_checked(pi.space, table)
    return Capacity(pi.space, table)


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
    scanning values downward and growing the mask.  The values are phi's
    vector in c.space.points order, the order of the table's bitmasks; phi
    may list the same points in another order, but not other points."""
    if c.space != phi.space:
        raise ValueError("capacity and function live on different spaces")
    vals = in_point_order(phi.vector, phi.space, c.space).tolist()
    n = len(vals)
    order = sorted(range(n), key=vals.__getitem__, reverse=True)
    mask = 0
    k = 0
    while k < n:
        t = vals[order[k]]
        while k < n and vals[order[k]] == t:
            mask |= 1 << order[k]
            k += 1
        yield t, float(c.table[mask])


def maxplus_integral(c: Capacity, phi: RealFunction) -> float:
    """max over attained t of log(c({phi >= t})) + t."""
    return max(log_bridge(cv) + t for t, cv in _level_candidates(c, phi))


def shilkret_integral(c: Capacity, phi: RealFunction) -> float:
    """The multiplicative twin on exp scale: max over attained t of
    exp(t) * c({phi >= t}).  Kept free of logs so it can serve as an
    independent cross-check of the max-plus integral."""
    # a level set of capacity +-0.0 gives only 0.0, -0.0 or the nan of
    # inf * 0.0; the whole space's 1 is always left
    with np.errstate(over="ignore"):
        return float(max(np.exp(t) * cv for t, cv in _level_candidates(c, phi) if cv > 0.0))


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


class IntegralFunctional:
    """The max-plus integral against a fixed capacity, as a functional.

    Calling it on a function is maxplus_integral.  `batch` integrates every
    row of a block to the same floats, without a sort.  The level set at a
    point's value t is every point whose value is at least t, its whole tie
    group included, so each point's candidate is log c(that set) + t: the
    scalar scan's candidates, some repeated.  The block is transposed to
    one row per point (no copy when it is a transposed view already), and
    one pass per point builds every point's level set as a bitmask in the
    narrowest unsigned integer that holds n bits; a row's integral is the
    max of its candidates.
    The logs are the capacity's stored `log_table`, made once per capacity,
    so each entry is the float the scalar path uses.  No candidate is -0.0
    (no log is, and a sum is -0.0 only when both terms are), so the max is
    the scalar scan's float, bit for bit.
    """

    __slots__ = ("capacity",)

    def __init__(self, c: Capacity):
        self.capacity = c

    def __call__(self, phi: RealFunction) -> float:
        return maxplus_integral(self.capacity, phi)

    def batch(self, block, space: FiniteSpace | None = None) -> np.ndarray:
        """The integral of each row of an (m, n) block.  Its columns follow
        `space.points`, by default the capacity's own point order; `space`
        must equal the capacity's space.  The block is checked once: 2-d,
        n columns, finite values."""
        c = self.capacity
        if space is None:
            space = c.space
        elif space != c.space:
            raise ValueError("capacity and function live on different spaces")
        vals = in_point_order(checked_block(space, block, "integral rows"), space, c.space)
        t = np.ascontiguousarray(vals.T)
        masks = np.zeros(t.shape, dtype=_MASK_DTYPES[len(t)])
        for row in t[::-1]:  # last point first, so point i ends on bit i
            masks += masks
            masks += row >= t
        return (c.log_table[masks] + t).max(axis=0)


def integral_functional(c: Capacity) -> IntegralFunctional:
    """The integral as a functional on functions, with a batch form."""
    return IntegralFunctional(c)


def recover_capacity(
    oracle: Callable[[RealFunction], float],
    space: FiniteSpace,
    bound: float = DEFAULT_RECOVERY_BOUND,
) -> Capacity:
    """Read a capacity back off a functional with indicator-like probes.

    The probe for a subset is 0 on it and -bound off it; the subset's value
    is exp of the probe result clamped to at most 0, so -inf gives 0, and a
    NaN or +inf result raises ValueError naming the subset.  Entries at
    least exp(-bound) are recovered exactly for functionals produced by
    integral_functional; a monotonicity violation in the result signals a
    non-conforming oracle.

    The probes are the rows of blocks of PROBE_BLOCK_CELLS // n subsets
    (at most PROBE_BLOCK_CELLS values), in increasing mask order, evaluated
    by spaces.probe_values.  Each block is built point-major, one row per
    point and one column per subset, and passed as its (subset, point)
    view, the transpose: an oracle with a `batch(block, space)` method,
    such as an IntegralFunctional, gets that view whole and returns one
    value per row.  Any other oracle is called once per non-empty subset,
    in increasing mask order, on the block's rows as Probes, functions that
    hold their values as vectors (C-ordered copies of the rows).
    """
    check_probe_bound(bound)
    n = len(space)
    _check_table_points(n)
    table = np.zeros(1 << n)
    point_bits = 1 << np.arange(n)
    step = max(1, PROBE_BLOCK_CELLS // n)
    for start in range(1, 1 << n, step):
        stop = min(start + step, 1 << n)
        masks = np.arange(start, stop)
        block = 0.0 - ((point_bits[:, None] & masks) == 0) * float(bound)
        values = probe_values(oracle, space, block.T)
        below = values < math.inf  # False for NaN and +inf
        if not below.all():
            i = int(below.argmin())
            raise ValueError(
                f"oracle value {float(values[i])!r} on the subset "
                f"{bits_members(space, start + i)!r} is not a score"
            )
        # exp_bridge(min(0.0, v)) entry by entry: np.minimum may keep a -0.0
        # that min drops, and exp sends both zeros to 1.0
        table[start:stop] = np.fromiter(map(math.exp, np.minimum(values, 0.0).tolist()), float, stop - start)
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
    A trial count or seed that is not an integer (a bool, float or str)
    raises ValueError naming it.

    Comonotone pairs are produced as two non-decreasing reshapings of one
    shared ranking function (generate.comonotone_rows), which covers ties;
    translations draw a random function and a random constant.  Trial k of
    a condition draws from its own stream, so every trial is drawn first:
    trial k stacks the rows (max(phi, psi), phi, psi), the max keeping phi
    on ties as fn_max does, or (phi + lam, phi), and the oracle evaluates
    each condition's rows in one block through spaces.probe_values (a block
    per PROBE_BLOCK_CELLS values when a condition has more).  A condition
    reports its first failing trial, with phi's and psi's values by label
    and the floats compared.

    An oracle with a `batch` method, such as an integral_functional, gets
    each block whole.  Any other is called once per row, in order: first on
    the constant 1, then on (max(phi, psi), phi, psi) for k = 0, 1, ...,
    then on (phi + lam, phi) for k = 0, 1, ...; it is called on every row
    of the block holding a condition's first failure, the rows after that
    failure included.
    """
    from .generate import comonotone_rows, real_row

    trials, seed = check_integer("trials", trials), check_integer("seed", seed)
    if trials <= 0:
        raise ValueError("trials must be positive")
    tol = resolve_tolerance(tol)
    como_streams, trans_streams = trial_streams(seed, tag=1), trial_streams(seed, tag=2)
    report = CharacterizationReport()
    n = len(space)

    v = float(probe_values(oracle, space, np.ones((1, n)))[0])
    report.outcomes.append(
        ConditionOutcome(
            "normalization",
            1,
            abs(v - 1.0) <= tol,
            None if abs(v - 1.0) <= tol else {"value": v},
        )
    )

    def labelled(vec: np.ndarray) -> dict[str, float]:
        return dict(zip(space.points, vec.tolist()))

    def draw_pair(rng, rows) -> None:
        phi, psi = comonotone_rows(rng, n)
        rows[0], rows[1], rows[2] = np.where(psi > phi, psi, phi), phi, psi

    def maxitive(rows, values, _) -> dict | None:
        left, right = values[0], max(values[1], values[2])
        if score_eq(left, right, tol):
            return None
        return {
            "phi": labelled(rows[1]),
            "psi": labelled(rows[2]),
            "joined": left,
            "max_of_parts": right,
        }

    def draw_shift(rng, rows) -> float:
        rows[1] = real_row(rng, n)
        lam = float(rng.uniform(-3.0, 3.0))
        rows[0] = rows[1] + lam
        return lam

    def affine(rows, values, lam) -> dict | None:
        left, right = values[0], lam + values[1]
        if score_eq(left, right, tol):
            return None
        return {"phi": labelled(rows[1]), "lam": lam, "shifted": left, "direct": right}

    report.outcomes.append(
        _sampled_condition(
            "comonotone-maxitivity", oracle, space, trials, como_streams, 3, draw_pair, maxitive
        )
    )
    report.outcomes.append(
        _sampled_condition("translation", oracle, space, trials, trans_streams, 2, draw_shift, affine)
    )
    return report


def _sampled_condition(
    name: str,
    oracle: Callable[[RealFunction], float],
    space: FiniteSpace,
    trials: int,
    stream: Callable[[int], np.random.Generator],
    width: int,
    draw: Callable,
    verdict: Callable,
) -> ConditionOutcome:
    """The outcome of one condition over `trials` trials of `width` rows.

    Trial k fills its rows, an (width, n) slice of a block, with
    draw(stream(k), rows), which returns what the verdict needs besides the
    values.  One probe_values call evaluates a block of trials, as many as
    PROBE_BLOCK_CELLS values hold (at least one); verdict(rows, values,
    drawn) then gives each trial's witness, None when the condition holds,
    and the first witness ends the scan."""
    outcome = ConditionOutcome(name, trials, True)
    n = len(space)
    step = max(1, PROBE_BLOCK_CELLS // (width * n))
    for start in range(0, trials, step):
        m = min(step, trials - start)
        block = np.empty((m, width, n))
        drawn = [draw(stream(start + j), block[j]) for j in range(m)]
        values = probe_values(oracle, space, block.reshape(m * width, n))
        for rows, vals, extra in zip(block, values.reshape(m, width).tolist(), drawn):
            witness = verdict(rows, vals, extra)
            if witness is not None:
                outcome.passed, outcome.witness = False, witness
                return outcome
    return outcome


# ---------------------------------------------------------------------------
# possibility monad multiplication

# The possibility monad is the max-times monad: collapsing C gives the
# profile rho(x) = max over support pairs of weight * profile(x).  The
# induced capacity of any subset F then equals the threshold sweep max over
# t in (0,1] of (max of weights whose profile gives F at least t) times t,
# because each sweep candidate is maximized at t = that profile's value on F.
possibility_mult = multiply
