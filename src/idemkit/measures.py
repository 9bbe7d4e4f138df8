"""Normalized densities, their measure functionals, and the two monad structures.

Both monads are one construction over two isomorphic idempotent semirings,
so the code is written once and a `Side` record names the semiring:
MAXPLUS (bottom -inf, peak 0, tensor +) or MAXTIMES (bottom 0, peak 1,
tensor *).  A density peaks at its side's peak and doubles as a
finite-support measure: its functional sends phi to max(f(x) (x) phi(x)).
Meta densities (finitely supported densities over densities) carry the monad
multiplications, and a third nesting level feeds the associativity checks.
The public classes only fix a side and an entry type, and every operation
reads the side off its argument; the *_times names are aliases kept for
callers.

Constructors reject unnormalized input instead of silently renormalizing;
normalize divides out the peak explicitly (shifting on the max-plus side,
scaling on the max-times side).  Bottom-weight entries are dropped from
meta supports, and support entries equal within tolerance are merged by
taking the larger weight.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping

from .semiring import BOTTOM, resolve_tolerance
from .spaces import FiniteSpace, PointMap, RealFunction, validate_map

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

    def check(self, w) -> float:
        w = float(w)
        if not self.bottom <= w <= self.peak:  # also rejects NaN
            raise ValueError(f"weight {w!r} outside [{self.bottom}, {self.peak}]")
        return w


MAXPLUS = Side("maxplus", BOTTOM, 0.0, operator.add, operator.sub, 0.0)
MAXTIMES = Side("maxtimes", 0.0, 1.0, operator.mul, operator.truediv, TIMES_NORM_SLACK)


@dataclass(frozen=True, eq=False)
class Density:
    """A weight in [bottom, peak] for every point of the space, attaining the
    peak; weights at bottom mark points outside the support."""

    space: FiniteSpace
    weights: dict[str, float]
    side: ClassVar[Side]

    def __post_init__(self):
        side, weights = self.side, self.weights
        extra = weights.keys() - self.space.label_set
        if extra:
            raise ValueError(f"weights given for unknown points: {sorted(extra)}")
        vals = {}
        for p in self.space.points:
            if p not in weights:
                raise ValueError(f"missing weight for point {p!r}")
            try:
                vals[p] = side.check(weights[p])
            except ValueError as exc:
                raise ValueError(f"{exc} at point {p!r}") from None
        peak = max(vals.values())
        if abs(peak - side.peak) > side.slack:
            raise ValueError(
                f"peak weight is {peak!r}, expected {side.peak!r} (use normalize)"
            )
        object.__setattr__(self, "weights", vals)

    def __call__(self, point: str) -> float:
        return self.weights[point]

    def support(self) -> tuple[str, ...]:
        bottom = self.side.bottom
        return tuple(p for p in self.space.points if self.weights[p] != bottom)


class MaxPlusDensity(Density):
    """Weights in [-inf, 0] with peak exactly 0."""

    side = MAXPLUS


class MaxTimesDensity(Density):
    """Weights in [0, 1] with peak 1 (within TIMES_NORM_SLACK; canonical
    constructors produce an exact 1)."""

    side = MAXTIMES


def _close(a, b, tol: float) -> bool:
    """Equality within a resolved tolerance.  Densities: same space and every
    weight equal or within tol.  Metas: the supports match pairwise, close
    entries with close weights."""
    if isinstance(a, Density):
        if a.space != b.space:
            return False
        bw = b.weights
        for p, v in a.weights.items():
            u = bw[p]
            if v != u and abs(v - u) > tol:
                return False
        return True
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


def density_close(f: Density, g: Density, tol: float | None = None) -> bool:
    """Same space, identical bottom pattern, other weights within tolerance."""
    return _close(f, g, resolve_tolerance(tol))


@dataclass(frozen=True, eq=False)
class Meta:
    """Finitely supported density over `entry` values sharing one space:
    pairs (entry, weight in [bottom, peak]) with the peak weight attained.
    Bottom-weight pairs are dropped and pairs whose entries are close merge,
    keeping the larger weight."""

    support: tuple[tuple[object, float], ...]
    side: ClassVar[Side]
    entry: ClassVar[type]

    def __post_init__(self):
        side, entry = self.side, self.entry
        kept = []
        for item, w in self.support:
            w = side.check(w)
            if w == side.bottom:
                continue
            if not isinstance(item, entry):
                raise ValueError(f"support entries must be {entry.__name__} values")
            kept.append((item, w))
        if not kept:
            raise ValueError("empty support after dropping bottom weights")
        space = kept[0][0].space
        if any(item.space != space for item, _ in kept):
            raise ValueError("support entries live on different spaces")
        tol = resolve_tolerance(None)
        merged: list = []
        for item, w in kept:
            for k, (other, v) in enumerate(merged):
                if _close(item, other, tol):
                    if w > v:
                        merged[k] = (other, w)
                    break
            else:
                merged.append((item, w))
        peak = max(w for _, w in merged)
        if abs(peak - side.peak) > side.slack:
            raise ValueError(f"peak support weight is {peak!r}, expected {side.peak!r}")
        object.__setattr__(self, "support", tuple(merged))

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


def meta_close(a: Meta, b: Meta, tol: float | None = None) -> bool:
    """Supports match pairwise: same carriers within tolerance, close weights."""
    return _close(a, b, resolve_tolerance(tol))


# the classes of each side, by document kind tag
DENSITIES = {cls.side.kind: cls for cls in (MaxPlusDensity, MaxTimesDensity)}
METAS = {cls.side.kind: cls for cls in (MetaDensity, MetaTimesDensity)}


def normalize(space: FiniteSpace, weights: Mapping[str, float], side: Side = MAXPLUS) -> Density:
    """Divide the peak out of the weights (subtract it on the max-plus side,
    divide by it on the max-times side) so the peak lands exactly on the
    side's peak."""
    peak = max(float(w) for w in weights.values())
    if not peak > side.bottom:
        raise ValueError(f"cannot normalize: every weight is {side.bottom!r}")
    residual = side.residual
    return DENSITIES[side.kind](space, {p: residual(float(w), peak) for p, w in weights.items()})


# ---------------------------------------------------------------------------
# measure functionals


def eval_measure(f: Density, phi) -> float:
    """The measure of phi under the density f: max(f(x) (x) phi(x)), that is
    max(f(x) + phi(x)) on the max-plus side and max(f(x) * phi(x)) on the
    max-times side (phi then a UnitFunction)."""
    if f.space != phi.space:
        raise ValueError("density and function live on different spaces")
    return max(map(f.side.otimes, f.weights.values(), map(phi.values.__getitem__, f.weights)))


def probe_function(space: FiniteSpace, x: str, bound: float) -> RealFunction:
    """The recovery probe: 0 at x and -bound elsewhere."""
    if x not in space:
        raise ValueError(f"unknown point {x!r}")
    return RealFunction(space, {p: 0.0 if p == x else -bound for p in space.points})


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
    """
    if bound <= 0.0:
        raise ValueError("probe bound must be positive")
    cut = -bound + resolve_tolerance(tol)
    weights = {}
    for x in space.points:
        v = float(oracle(probe_function(space, x, bound)))
        weights[x] = BOTTOM if v <= cut else v
    return MaxPlusDensity(space, weights)


# ---------------------------------------------------------------------------
# units, pushforwards, multiplications


def dirac(x: str, space: FiniteSpace, side: Side = MAXPLUS) -> Density:
    """Unit of the monad: the peak weight at x, bottom elsewhere."""
    if x not in space:
        raise ValueError(f"unknown point {x!r}")
    return DENSITIES[side.kind](
        space, {p: side.peak if p == x else side.bottom for p in space.points}
    )


def pushforward(g: PointMap, f: Density) -> Density:
    """Functor action: weight at y is the max of f over the fiber of y
    (empty fiber gives bottom)."""
    if not validate_map(g):
        raise ValueError("invalid point map")
    if f.space != g.source:
        raise ValueError("density does not live on the source of the map")
    weights = dict.fromkeys(g.target.points, f.side.bottom)
    for x, w in f.weights.items():
        y = g.assignment[x]
        if w > weights[y]:
            weights[y] = w
    return type(f)(g.target, weights)


def meta_pushforward(g: PointMap, F: Meta) -> Meta:
    """Induced action on meta densities: push every support density forward;
    colliding images merge by max weight."""
    return type(F)(tuple((pushforward(g, f), w) for f, w in F.support))


def multiply(F: Meta) -> Density:
    """Monad multiplication: weight at x is the max over support pairs of
    density(x) (x) pair weight."""
    otimes = F.side.otimes
    weights = dict.fromkeys(F.space.points, F.side.bottom)
    for f, w in F.support:
        for x, fx in f.weights.items():
            cand = otimes(fx, w)
            if cand > weights[x]:
                weights[x] = cand
    return F.entry(F.space, weights)


def measure_multiplication(
    N: MetaDensity, bound: float = DEFAULT_PROBE_BOUND
) -> MaxPlusDensity:
    """Multiplication computed on the measure side, through probe functionals.

    The support pairs define the functional phi -> max(weight_i + measure_i(phi));
    the result is read back off with density_from_functional.  This is a code
    path independent of multiply(), on purpose: comparing the two is the
    runtime check that densities and measures multiply compatibly.
    """

    def oracle(phi: RealFunction) -> float:
        return max(w + eval_measure(f, phi) for f, w in N.support)

    return density_from_functional(oracle, N.space, bound)


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
meta_times_close = meta_close
eval_measure_times = eval_measure
pushforward_times = pushforward
flatten_outer_times = flatten_outer
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
