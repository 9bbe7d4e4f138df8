"""Normalized densities, their measure functionals, and the two monad structures.

Both monads are one construction over two isomorphic idempotent semirings,
so the code is written once and a `Side` record names the semiring:
MAXPLUS (bottom -inf, peak 0, tensor +) or MAXTIMES (bottom 0, peak 1,
tensor *).  A density peaks at its side's peak and doubles as a
finite-support measure: its functional sends phi to max(f(x) (x) phi(x)).
Meta densities (finitely supported densities over densities) carry the monad
multiplications, and a third nesting level feeds the associativity checks.
Densities and metas share the frozen base `spaces.Frozen`: a constructor
writes each attribute once through the instance dict, and assigning or
deleting one raises FrozenInstanceError.
A real function (idemkit.spaces) and a density are built and stored by one
class, `spaces.PointValues`: one label-dict constructor, `from_vector` for
one vector and `rows` for a block, each checking the range (for a density
[bottom, peak] of its side) and, for a density, the peak.  An object stores
the label dict (`weights`, `values`) or the vector in point order, whichever
it was built from, and makes the other on first read; `PointValues._built`
picks the constructor by the size rule, ARRAY_MIN_POINTS, for the results of
density_from_functional, the bridge and the quantized profile drawer.
density_from_functional builds its probes in blocks of at most
PROBE_BLOCK_CELLS values and hands each block to the probe layer of
idemkit.spaces (`probe_values`), so an oracle with a `batch` form, such as
the one behind measure_multiplication, evaluates each block whole.

The compute forks on the same rule.  On spaces of at least ARRAY_MIN_POINTS
points, eval_measure reads the products of the two vectors at their argmax,
multiply a fold of the weight vectors taking only strictly greater
candidates, pushforward one np.maximum.at over the target index of each
point (no tie rule: given a -0.0 weight it writes back each fiber's first
point at its max, by np.unique's first occurrences), and the closeness of
two densities one comparison of their weight vectors; so each keeps the
first of equal weights, even a zero's sign, as its loop does.  On smaller
spaces, the only ones the law suites draw, the loops are faster, because
numpy's cost per call outweighs its cost per point there.
The public classes only fix a side and an entry type, and every operation
reads the side off its argument; the *_times names are aliases kept for
callers.

Constructors reject unnormalized input instead of silently renormalizing;
normalize divides out the peak explicitly (shifting on the max-plus side,
scaling on the max-times side).  normalize reads its weights through the
same label-dict constructor, with a private per-point type per side whose
range is [bottom, DBL_MAX], so both report the first fault in one fixed
order: unknown labels, then point by point a missing or bad weight, then
the peak.  A meta names the support position of a bad pair.
Bottom-weight entries are dropped from meta supports, and support entries
equal within tolerance are merged by taking the larger weight.  The default
tolerance (semiring.default_tolerance, which reads IDEMKIT_TOLERANCE) is
read when a merge compares entries, that is when two or more are kept; a
one-entry meta never reads it.  The merge passes over two density entries
whose stored label dicts differ by more than the tolerance at one label,
the first point of the first entry's space, without calling `_close`,
which would fail there; metas and vector-built densities are compared in
full.
The shrinker and the drop-weight mutation of idemkit.laws build a meta
that holds a new entry with the constructor.  Where a value is made of
parts that are already checked, private builders skip the checks of each
part and refuse with the constructors' texts.  `Meta._from_checked`
checks only the peak of a reweighted subsequence of one merged support
(its entries are apart, from that merge).  `Density._from_checked` checks
only the peak of a label dict whose weights are in range by how they were
made, and skips the range check of every weight.  It builds every
`dirac` (the peak and bottom), the results of pushforward and multiply
below ARRAY_MIN_POINTS (bottom, checked weights and their products),
normalize's (through `Density._divided`), and below ARRAY_MIN_POINTS the
densities the drawers of idemkit.generate draw.
tests/test_function_forks.py pins these call sites.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping

import numpy as np

from .semiring import BOTTOM, resolve_tolerance
from .spaces import (
    ARRAY_MIN_POINTS,
    PROBE_BLOCK_CELLS,
    FiniteSpace,
    Frozen,
    PointMap,
    PointValues,
    RealFunction,
    check_probe_bound,
    in_point_order,
    probe_values,
    validate_map,
)

# slack on the times side, where division by the peak cannot stay exact
TIMES_NORM_SLACK = 1e-12

DEFAULT_PROBE_BOUND = 64.0

@dataclass(frozen=True)
class Side:
    """One of the two isomorphic semirings weights live in.  Both add by
    max; `otimes` is the multiplication and `residual` divides by a weight
    (used to normalize by the peak).  A weight lies in [bottom, peak], and a
    normalized density attains the peak to within `slack`.

    One scalar closeness serves both sides: weights are equal or within the
    tolerance, so on the max-plus side bottom only ever matches bottom."""

    kind: str  # the document kind tag
    bottom: float
    peak: float
    otimes: Callable[[float, float], float]
    residual: Callable[[float, float], float]
    slack: float

    def outside(self, w: float) -> str:
        """The error text for a weight outside [bottom, peak]."""
        return f"weight {w!r} outside [{self.bottom}, {self.peak}]"


MAXPLUS = Side("maxplus", BOTTOM, 0.0, operator.add, operator.sub, 0.0)
MAXTIMES = Side("maxtimes", 0.0, 1.0, operator.mul, operator.truediv, TIMES_NORM_SLACK)


class Density(PointValues):
    """A weight in [bottom, peak] for every point of the space, attaining the
    peak; weights at bottom mark points outside the support.

    Built and stored as every per-point type is (`spaces.PointValues`): the
    label dict `weights` or the vector `vector`, the range [bottom, peak] of
    the side, and the peak within the side's slack."""

    side: ClassVar[Side]
    noun = "weight"

    @classmethod
    def outside(cls, w: float, p: str) -> str:
        """The error text for a weight outside [bottom, peak], at point p."""
        return f"{cls.side.outside(w)} at point {p!r}"

    def support(self) -> tuple[str, ...]:
        bottom = self.side.bottom
        return tuple(p for p in self.space.points if self.weights[p] != bottom)

    @classmethod
    def _from_checked(cls, space: FiniteSpace, weights: dict[str, float]) -> "Density":
        """The density of `weights`, floats by label in point order.  The
        caller guarantees that each lies in [bottom, peak] (products,
        restrictions and quotients of checked weights do, and so do the
        drawers' weights and a unit's), so only the peak is checked; a weight outside that range is not caught.  A peak that
        misses goes through the constructor, which refuses it with the text
        of the first fault in its order.  This is the one builder beside the
        constructor that stores a label dict unchecked
        (tests/test_function_forks.py holds it to that)."""
        if abs(max(weights.values()) - cls.side.peak) > cls.slack:
            return cls(space, weights)
        obj = cls.__new__(cls)
        attrs = obj.__dict__
        attrs["space"] = space
        attrs[cls._field] = weights
        return obj

    @classmethod
    def _divided(cls, space: FiniteSpace, weights: dict[str, float]) -> "Density":
        """normalize past its reading of the weights: `weights`, floats by
        label in point order, each in [bottom, DBL_MAX], with the peak divided
        out.  The quotients lie in [bottom, peak] and reach the peak exactly,
        so they are built by `_from_checked`."""
        side = cls.side
        peak = max(weights.values())
        if not peak > side.bottom:
            raise ValueError(f"cannot normalize: every weight is {side.bottom!r}")
        residual = side.residual
        return cls._from_checked(space, {p: residual(w, peak) for p, w in weights.items()})


class MaxPlusDensity(Density):
    """Weights in [-inf, 0] with peak exactly 0."""

    side = MAXPLUS
    bounds, slack = (MAXPLUS.bottom, MAXPLUS.peak), MAXPLUS.slack


class MaxTimesDensity(Density):
    """Weights in [0, 1] with peak 1 (within TIMES_NORM_SLACK; canonical
    constructors produce an exact 1)."""

    side = MAXTIMES
    bounds, slack = (MAXTIMES.bottom, MAXTIMES.peak), MAXTIMES.slack


def _close(a, b, tol: float) -> bool:
    """Equality within a resolved tolerance.  Densities: same space and every
    weight equal or within tol, compared as weight vectors in point order
    from ARRAY_MIN_POINTS points on and as label dicts below.  Metas: entries
    of one kind, and supports that match pairwise in entry and weight."""
    if isinstance(a, Density):
        space = a.space
        if space is not b.space and space != b.space:
            return False
        if len(space.points) >= ARRAY_MIN_POINTS:
            u, v = a.vector, in_point_order(b.vector, b.space, space)
            apart = u != v  # equal weights, bottoms among them, need no subtraction
            return bool((np.abs(u[apart] - v[apart]) <= tol).all())
        bw = b.weights
        for p, v in a.weights.items():
            u = bw[p]
            if v != u and abs(v - u) > tol:
                return False
        return True
    if a.entry is not b.entry and issubclass(a.entry, Density) is not issubclass(b.entry, Density):
        return False
    if len(a.support) != len(b.support):
        return False
    taken = [False] * len(b.support)
    for x, w in a.support:
        for k, (y, v) in enumerate(b.support):
            if not taken[k] and abs(w - v) <= tol and _close(x, y, tol):
                taken[k] = True
                break
        else:
            return False
    return True


def density_close(f: Density | Meta, g: Density | Meta, tol: float | None = None) -> bool:
    """Same space, identical bottom pattern, other weights within tolerance;
    two metas of one depth match their supports pairwise (`_close`).  A
    density and a meta, or metas of two depths, are not close."""
    tol = resolve_tolerance(tol)
    return isinstance(f, Density) is isinstance(g, Density) and _close(f, g, tol)


class Meta(Frozen):
    """Finitely supported density over `entry` values sharing one space:
    pairs (entry, weight in [bottom, peak]) with the peak weight attained.
    Bottom-weight pairs are dropped and pairs whose entries are close merge,
    keeping the larger weight.  Closeness is under the default tolerance,
    read when the merge compares entries: only when two or more pairs are
    kept, so a bad IDEMKIT_TOLERANCE fails those constructions alone.
    The constructor builds every meta that holds a new entry; only a
    reweighted subsequence of one merged support, whose entries are apart,
    skips it, through `_from_checked`, which checks the peak alone.

    A meta is frozen (`spaces.Frozen`): the constructor writes `support`
    once, through the instance dict, and assigning or deleting it raises
    FrozenInstanceError.  Equality and hashing are by identity, and the
    repr reads `MetaDensity(support=(...))`."""

    support: tuple[tuple[object, float], ...]
    side: ClassVar[Side]
    entry: ClassVar[type]

    def __init__(self, support):
        side, entry = self.side, self.entry
        bottom, top = side.bottom, side.peak
        kept = []
        try:
            pairs = enumerate(support)
        except TypeError:
            raise ValueError(f"support must be iterable, got {type(support).__name__}") from None
        for k, pair in pairs:
            try:
                item, w = pair
            except (TypeError, ValueError):
                raise ValueError(f"support position {k} is not an (entry, weight) pair") from None
            if w.__class__ is not float:  # float(w) is w itself
                try:
                    w = float(w)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"{exc} at support position {k}") from None
            if not bottom <= w <= top:  # the side's range, for one weight
                raise ValueError(f"{side.outside(w)} at support position {k}")
            if w == bottom:
                continue
            if not isinstance(item, entry):
                raise ValueError(f"support entries must be {entry.__name__} values")
            kept.append((item, w))
        if not kept:
            raise ValueError("empty support after dropping bottom weights")
        # the test is _close(later, earlier), so the merge does not rest on
        # _close being symmetric (on metas it is a greedy matching)
        if len(kept) > 1:
            space = kept[0][0].space
            for item, _ in kept:
                other = item.space
                if other is not space and other != space:
                    raise ValueError("support entries live on different spaces")
            tol = resolve_tolerance(None)
            # each entry's weight at one label, where it reads in O(1): a
            # density's stored label dict; NaN (a meta, a vector) rejects nothing
            label = space.points[0]
            merged, firsts = [], []
            for item, w in kept:
                by_label = item.__dict__.get("weights")
                first = math.nan if by_label is None else by_label[label]
                for k, (other, v) in enumerate(merged):
                    u = firsts[k]
                    if first != u and abs(first - u) > tol:
                        continue  # _close would refuse at that label
                    if _close(item, other, tol):
                        if w > v:
                            merged[k] = (other, w)
                        break
                else:
                    merged.append((item, w))
                    firsts.append(first)
            kept = merged
        self._store(kept)

    @classmethod
    def _from_checked(cls, pairs) -> "Meta":
        """The meta of `pairs`, a reweighted subsequence of one merged
        support: (entry, weight) pairs whose entries are checked and apart
        and whose weights are floats in (bottom, peak].  Only the peak is
        checked, with the constructor's text."""
        obj = cls.__new__(cls)
        obj._store(pairs)
        return obj

    def _store(self, pairs) -> None:
        """Store `pairs`, nonempty and merged, as the support once the peak
        weight is attained."""
        peak = max(map(operator.itemgetter(1), pairs)) if len(pairs) > 1 else pairs[0][1]
        side = self.side
        if abs(peak - side.peak) > side.slack:
            raise ValueError(f"peak support weight is {peak!r}, expected {side.peak!r}")
        self.__dict__["support"] = tuple(pairs)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(support={self.support!r})"

    @property
    def space(self) -> FiniteSpace:
        return self.support[0][0].space


class MetaDensity(Meta):
    """Max-plus densities weighted in [-inf, 0], peak weight exactly 0."""

    side, entry = MAXPLUS, MaxPlusDensity


class MetaTimesDensity(Meta):
    """Max-times densities weighted in [0, 1], peak weight 1."""

    side, entry = MAXTIMES, MaxTimesDensity


class ThirdLevel(Meta):
    """One more nesting: meta densities weighted in [-inf, 0], peak exactly 0."""

    side, entry = MAXPLUS, MetaDensity


class ThirdLevelTimes(Meta):
    """Meta max-times densities weighted in [0, 1], peak weight 1."""

    side, entry = MAXTIMES, MetaTimesDensity


# the classes of each side, by document kind tag
DENSITIES = {cls.side.kind: cls for cls in (MaxPlusDensity, MaxTimesDensity)}
METAS = {cls.side.kind: cls for cls in (MetaDensity, MetaTimesDensity)}


class _Unnormalized(PointValues):
    """Weights before normalize divides out the peak: any in [bottom,
    DBL_MAX] of the side, read by the label-dict constructor, with no peak
    to reach."""

    side: ClassVar[Side]
    noun = "weight"

    @classmethod
    def outside(cls, w: float, p: str) -> str:
        return f"cannot normalize weight {w!r} at point {p!r}: outside [{cls.side.bottom}, inf)"


class _UnnormalizedMaxPlus(_Unnormalized):
    side = MAXPLUS
    bounds = (MAXPLUS.bottom, sys.float_info.max)  # closed, so +inf and NaN fall outside


class _UnnormalizedMaxTimes(_Unnormalized):
    side = MAXTIMES
    bounds = (MAXTIMES.bottom, sys.float_info.max)


_UNNORMALIZED = {cls.side.kind: cls for cls in (_UnnormalizedMaxPlus, _UnnormalizedMaxTimes)}


def normalize(space: FiniteSpace, weights: Mapping[str, float], side: Side = MAXPLUS) -> Density:
    """Divide the peak out of the weights (subtract it on the max-plus side,
    divide by it on the max-times side) so the peak lands exactly on the
    side's peak.  The weights are read first by the label-dict constructor
    of `spaces.PointValues`, in its order: unknown labels, then point by
    point a missing or unconvertible weight or one outside [bottom, inf),
    then a peak at bottom."""
    return DENSITIES[side.kind]._divided(space, _UNNORMALIZED[side.kind](space, weights).weights)


# ---------------------------------------------------------------------------
# measure functionals


def eval_measure(f: Density, phi: RealFunction) -> float:
    """The measure of phi under the density f: max(f(x) (x) phi(x)), that is
    max(f(x) + phi(x)) on the max-plus side and max(f(x) * phi(x)) on the
    max-times side (phi then a UnitFunction).

    From ARRAY_MIN_POINTS points on it reads the products of the two vectors
    at their argmax, below it takes a max over label dicts; both keep the
    first of equal values, so they give the same float, even the sign of a zero."""
    space = f.space
    if space is not phi.space and space != phi.space:
        raise ValueError("density and function live on different spaces")
    if len(space.points) < ARRAY_MIN_POINTS:
        return max(map(f.side.otimes, f.weights.values(), map(phi.values.__getitem__, f.weights)))
    cands = f.side.otimes(f.vector, in_point_order(phi.vector, phi.space, space))
    return float(cands[cands.argmax()])


def density_from_functional(
    oracle: Callable[[RealFunction], float],
    space: FiniteSpace,
    bound: float = DEFAULT_PROBE_BOUND,
    tol: float | None = None,
) -> MaxPlusDensity:
    """Recover the density of a measure functional from probe evaluations.

    Each point is probed with the function that is 0 there and -bound
    elsewhere; a probe value at or below -bound (up to tolerance) is recorded
    as bottom.  Recovery is exact for functionals of valid densities whose
    finite weights all exceed -bound.

    The probes are the rows of blocks of at most PROBE_BLOCK_CELLS values,
    evaluated by spaces.probe_values: an oracle with a `batch(block, space)`
    method gets each block whole and returns one value per row; any other
    oracle is called once per point, in point order, on the block's rows as
    Probes, functions that hold their values as vectors.
    """
    check_probe_bound(bound)
    cut = -bound + resolve_tolerance(tol)
    n = len(space)
    step = max(1, PROBE_BLOCK_CELLS // n)
    values: list[float] = []
    for start in range(0, n, step):
        block = np.full((min(step, n - start), n), -bound)
        block.reshape(-1)[start :: n + 1] = 0.0  # row r probes point start + r
        values += probe_values(oracle, space, block).tolist()
    return MaxPlusDensity._built(space, [BOTTOM if v <= cut else v for v in values])


# ---------------------------------------------------------------------------
# units, pushforwards, multiplications


def dirac(x: str, space: FiniteSpace, side: Side = MAXPLUS) -> Density:
    """Unit of the monad: the peak weight at x, bottom elsewhere."""
    if x not in space:
        raise ValueError(f"unknown point {x!r}")
    return DENSITIES[side.kind]._from_checked(
        space, {p: side.peak if p == x else side.bottom for p in space.points}
    )


def pushforward(g: PointMap, f: Density) -> Density:
    """Functor action: weight at y is the max of f over the fiber of y
    (empty fiber gives bottom).  Both bodies keep the first of equal
    weights, bottom first, even a zero's sign, on either side alike."""
    if f.space != g.source:
        if not validate_map(g):  # reported first
            raise ValueError("invalid point map")
        raise ValueError("density does not live on the source of the map")
    n, assignment = len(f.space), g.assignment
    if n < ARRAY_MIN_POINTS:
        if not validate_map(g):
            raise ValueError("invalid point map")
        weights = dict.fromkeys(g.target.points, f.side.bottom)
        for x, w in f.weights.items():
            y = assignment[x]
            if w > weights[y]:
                weights[y] = w
        # bottom or f's weights, its peak among them
        return type(f)._from_checked(g.target, weights)
    # the target of each source point, in f's point order; building it
    # checks the map as validate_map does, given that f.space == g.source
    try:
        image = np.fromiter(
            map(g.target.index.__getitem__, map(assignment.__getitem__, f.space.points)), np.intp, n
        )
    except (KeyError, TypeError):  # TypeError: an unhashable image
        image = None
    if image is None or len(assignment) != n:
        raise ValueError("invalid point map")
    side, w = f.side, f.vector
    out = np.full(len(g.target), side.bottom)
    np.maximum.at(out, image, w)
    if np.signbit(w[w == 0.0]).any():
        # np.maximum.at may keep either sign of a zero (without a -0.0
        # weight every zero is +0.0 and agrees), so write back each fiber's
        # first point at its max, and bottom where the loop stays at bottom
        first = np.flatnonzero(w == out[image])
        hit, at = np.unique(image[first], return_index=True)
        out[hit] = w[first[at]]
        out[out == side.bottom] = side.bottom
    return type(f).from_vector(g.target, out)


def meta_pushforward(g: PointMap, F: Meta) -> Meta:
    """Induced action on meta densities: push every support density forward;
    colliding images merge by max weight."""
    return type(F)(tuple((pushforward(g, f), w) for f, w in F.support))


def multiply(F: Meta) -> Density:
    """Monad multiplication: weight at x is the max over support pairs of
    density(x) (x) pair weight.  Both bodies fold the pairs from bottom and
    take only strictly greater candidates, so the first of equal weights
    stays, even a zero's sign: the loop per point, numpy per vector."""
    side, space = F.side, F.space
    if len(space.points) < ARRAY_MIN_POINTS:
        otimes = side.otimes
        weights = dict.fromkeys(space.points, side.bottom)
        for f, w in F.support:
            for x, fx in f.weights.items():
                cand = otimes(fx, w)
                if cand > weights[x]:
                    weights[x] = cand
        # a product of weights in range is in range; only the peak can miss
        return F.entry._from_checked(space, weights)
    out = np.full(len(space), side.bottom)
    for f, w in F.support:
        cand = side.otimes(in_point_order(f.vector, f.space, space), w)
        np.copyto(out, cand, where=cand > out)
    return F.entry.from_vector(space, out)


class _SupportFunctional:
    """phi -> max_i(weight_i + measure_i(phi)) over the support pairs of a
    meta density.  `batch` evaluates every row of a probe block: the same
    sums and maxima, one numpy pass per support density."""

    def __init__(self, N: Meta):
        self.N = N

    def __call__(self, phi: RealFunction) -> float:
        return max(w + eval_measure(f, phi) for f, w in self.N.support)

    def batch(self, block: np.ndarray, space: FiniteSpace) -> np.ndarray:
        # fed only by density_from_functional, whose blocks need no checks
        out = None
        for f, w in self.N.support:
            v = f.side.otimes(block, in_point_order(f.vector, f.space, space)).max(axis=1) + w
            out = v if out is None else np.maximum(out, v, out=out)
        return out


def measure_multiplication(
    N: MetaDensity, bound: float = DEFAULT_PROBE_BOUND
) -> MaxPlusDensity:
    """Multiplication computed on the measure side, through probe functionals.

    The support pairs define the functional phi -> max(weight_i + measure_i(phi));
    the result is read back off with density_from_functional, which hands
    the functional its probes a block at a time.  This is a code path
    independent of multiply(), on purpose: comparing the two is the runtime
    check that densities and measures multiply compatibly.
    """
    return density_from_functional(_SupportFunctional(N), N.space, bound)


# ---------------------------------------------------------------------------
# law checks (multiply_fn is a hook for the harness's mutation testing)


def check_unit_laws(
    f: Density,
    tol: float | None = None,
    multiply_fn: Callable[[Meta], Density] = multiply,
) -> bool:
    """Multiplication absorbs the unit on both sides and returns f."""
    tol = resolve_tolerance(tol)
    side = f.side
    meta = METAS[side.kind]
    via_unit = multiply_fn(meta(((f, side.peak),)))
    pairs = tuple(
        (dirac(x, f.space, side), w) for x, w in f.weights.items() if w != side.bottom
    )
    via_functor = multiply_fn(meta(pairs))
    return _close(via_unit, f, tol) and _close(via_functor, f, tol)


def flatten_outer(G: Meta) -> Meta:
    """Multiplication one level up: the combined weight of a density is the
    max over metas of (its weight there) (x) (the meta's weight in G)."""
    otimes = G.side.otimes
    return G.entry(tuple((f, otimes(w, W)) for meta, W in G.support for f, w in meta.support))


def check_associativity(
    G: Meta,
    tol: float | None = None,
    multiply_fn: Callable[[Meta], Density] = multiply,
) -> bool:
    """Both ways of collapsing a third-level element agree.

    Path A multiplies after flattening the outer two levels; path B first
    multiplies every support meta (pushing G down one level) and multiplies
    the result.  The two composites are computed independently.
    """
    path_a = multiply_fn(flatten_outer(G))
    collapsed = G.entry(tuple((multiply_fn(m), W) for m, W in G.support))
    path_b = multiply_fn(collapsed)
    return density_close(path_a, path_b, tol)


# The per-side names of the operations above.  Those that take a density or
# a meta read the side off it and are plain aliases; the others fix a side.
normalize_maxplus = normalize
times_close = density_close
eval_measure_times = eval_measure
pushforward_times = pushforward
check_unit_laws_times = check_unit_laws
check_associativity_times = check_associativity


def normalize_maxtimes(space: FiniteSpace, weights: Mapping[str, float]) -> MaxTimesDensity:
    return normalize(space, weights, MAXTIMES)


def dirac_times(x: str, space: FiniteSpace) -> MaxTimesDensity:
    return dirac(x, space, MAXTIMES)


def multiply_times(F: MetaTimesDensity) -> MaxTimesDensity:
    """multiply under its max-times name.  A function of its own rather than
    an alias, so that the span tracer in perfbench/, which names a function
    by the last module attribute bound to it, still sees `multiply`."""
    return multiply(F)
