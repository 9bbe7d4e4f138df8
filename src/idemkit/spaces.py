"""Finite carrier spaces and the functions, maps, and subsets living on them.

On a finite space every function is continuous and every subset is both
closed and open, so no topology objects are needed: level sets, pushforwards
and comonotonicity all reduce to exact finite computations.

This module is also the probe layer that density_from_functional and
recover_capacity share.  A probe is a function held as a float vector in
point order (`Probe`); a block holds one probe per row, at most
PROBE_BLOCK_CELLS values.  probe_values evaluates an oracle on a block: an
oracle with a `batch(block, space)` method gets it whole, any other is called
once per row, in order.  in_point_order gathers values listed in one space's
point order into an equal space's, and row_views makes one object per row of
a checked block, for `Probe.rows` and `Density.rows` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

# absorbs rounding of equal values when a product of differences sits at zero
COMONOTONE_SLACK = 1e-12

# the most values in one block of probes: 2**16 doubles, 512 KiB, which
# stays in cache (one 1000 x 1000 block was about 2x slower)
PROBE_BLOCK_CELLS = 1 << 16


class stored:
    """An attribute made on first read and stored in the instance dict,
    which shadows this non-data descriptor on every later read: what
    functools.cached_property does, without the lock it takes on Python
    3.11."""

    def __init__(self, make):
        self.make = make
        self.name = make.__name__
        self.__doc__ = make.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.make(obj)
        obj.__dict__[self.name] = value
        return value


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Ordered distinct labels.  Identity is the label set; the order only
    fixes iteration for deterministic reports, never a result.  The label
    set is kept as `label_set`, so membership and equality cost no scan,
    and `index` maps each label to its position in `points`."""

    points: tuple[str, ...]

    def __post_init__(self):
        pts = tuple(str(p) for p in self.points)
        if not pts:
            raise ValueError("a space needs at least one point")
        labels = frozenset(pts)
        if len(labels) != len(pts):
            raise ValueError(f"duplicate point labels: {pts!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "label_set", labels)
        object.__setattr__(self, "index", {p: i for i, p in enumerate(pts)})

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.label_set == other.label_set

    def __hash__(self):
        return hash(self.label_set)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[str]:
        return iter(self.points)

    def __contains__(self, label) -> bool:
        try:
            return label in self.label_set
        except TypeError:  # an unhashable label is in no space
            return False


def _total_values(space: FiniteSpace, values: Mapping[str, float]) -> dict[str, float]:
    extra = values.keys() - space.label_set
    if extra:
        raise ValueError(f"values given for unknown points: {sorted(extra)}")
    out = {}
    for p in space.points:
        if p not in values:
            raise ValueError(f"missing value for point {p!r}")
        out[p] = float(values[p])
    return out


@dataclass(frozen=True, eq=False)
class RealFunction:
    """Total finite-valued function on a space."""

    space: FiniteSpace
    values: dict[str, float]

    def __post_init__(self):
        vals = _total_values(self.space, self.values)
        for p, v in vals.items():
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} at point {p!r}")
        object.__setattr__(self, "values", vals)

    def __call__(self, point: str) -> float:
        return self.values[point]

    @classmethod
    def constant(cls, space: FiniteSpace, value: float) -> "RealFunction":
        return cls(space, {p: value for p in space.points})


class Probe(RealFunction):
    """A real function held as a float vector in `space.points` order, so
    that it can be evaluated with numpy reductions.  The label dict
    `values` is built on first read and stored.  The probe takes the array
    over: a float64 array is kept without a copy and marked read-only."""

    def __init__(self, space: FiniteSpace, vector):
        vec = np.asarray(vector, dtype=float)
        n = len(space)
        if vec.ndim != 1 or len(vec) > n:
            raise ValueError(
                f"a probe on {n} points needs a 1-d vector of {n} values, got shape {vec.shape}"
            )
        if len(vec) < n:
            raise ValueError(f"missing value for point {space.points[len(vec)]!r}")
        finite = np.isfinite(vec)
        if np.count_nonzero(finite) != n:
            i = int(finite.argmin())
            raise ValueError(f"non-finite value {float(vec[i])!r} at point {space.points[i]!r}")
        vec.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "vector", vec)

    @stored
    def values(self) -> dict[str, float]:
        return dict(zip(self.space.points, self.vector.tolist()))

    @classmethod
    def constant(cls, space: FiniteSpace, value: float) -> "Probe":
        return cls(space, np.full(len(space), float(value)))

    @classmethod
    def rows(cls, space: FiniteSpace, matrix) -> list["Probe"]:
        """One probe per row of an (m, len(space)) block, each a view of it.
        The block is checked once, with the invariants of the constructor,
        and taken over like a single probe's vector: marked read-only."""
        return row_views(cls, space, checked_block(space, matrix, "probe rows"))


def row_views(cls, space: FiniteSpace, block: np.ndarray) -> list:
    """One `cls` object per row of a checked (m, len(space)) block, made
    without its constructor: its `space` is `space` and its `vector` the
    row, a view.  The block is taken over and marked read-only."""
    block.setflags(write=False)
    out = []
    for row in block:
        obj = cls.__new__(cls)
        attrs = obj.__dict__
        attrs["space"], attrs["vector"] = space, row
        out.append(obj)
    return out


def checked_block(space: FiniteSpace, matrix, what: str) -> np.ndarray:
    """An (m, len(space)) float block of finite values, one function per row
    with its columns in `space.points` order.  An error names the first bad
    row and point; `what` names the caller's rows in a shape error."""
    block = np.asarray(matrix, dtype=float)
    n = len(space)
    if block.ndim != 2 or block.shape[1] != n:
        raise ValueError(f"{what} on {n} points need an (m, {n}) block, got shape {block.shape}")
    finite = np.isfinite(block)
    if not finite.all():
        r, i = np.argwhere(~finite)[0].tolist()
        raise ValueError(
            f"non-finite value {float(block[r, i])!r} at point {space.points[i]!r} in row {r}"
        )
    return block


def in_point_order(values: np.ndarray, source: FiniteSpace, space: FiniteSpace) -> np.ndarray:
    """A vector, or a block with one function per row, whose last axis is in
    the point order of `source`, rearranged into the point order of
    `space`, an equal space; the array itself when the two orders agree."""
    if source is space or source.points == space.points:
        return values
    index = source.index
    return values[..., np.fromiter(map(index.__getitem__, space.points), np.intp, len(space))]


def check_probe_bound(bound: float) -> None:
    """Probes sit at -bound off their points, so bound must be a finite
    positive number."""
    if not (math.isfinite(bound) and bound > 0.0):
        raise ValueError(f"probe bound must be finite and positive, got bound={bound!r}")


def probe_values(oracle, space: FiniteSpace, block: np.ndarray) -> np.ndarray:
    """The oracle's value on each row of an (m, len(space)) probe block, as
    an array of m floats.  An oracle with a `batch(block, space)` method gets
    the block whole and must return one value per row; any other is called
    once per row, in order, on the rows as Probe vectors."""
    batch = getattr(oracle, "batch", None)
    if batch is None:
        return np.array([float(oracle(phi)) for phi in Probe.rows(space, block)])
    values = np.asarray(batch(block, space), dtype=float)
    m = len(block)
    if values.shape != (m,):
        raise ValueError(f"a batch oracle returned shape {values.shape} for {m} probe rows")
    return values


@dataclass(frozen=True, eq=False)
class UnitFunction:
    """Total function with values in [0, 1]."""

    space: FiniteSpace
    values: dict[str, float]

    def __post_init__(self):
        vals = _total_values(self.space, self.values)
        for p, v in vals.items():
            if math.isnan(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"value {v!r} at point {p!r} outside [0, 1]")
        object.__setattr__(self, "values", vals)

    def __call__(self, point: str) -> float:
        return self.values[point]

    @classmethod
    def constant(cls, space: FiniteSpace, value: float) -> "UnitFunction":
        return cls(space, {p: value for p in space.points})


@dataclass(frozen=True, eq=False)
class PointMap:
    """Assignment of source points to target points.

    Deliberately not validated at construction so that validate_map can
    answer questions about broken assignments; every consumer of a PointMap
    calls validate_map first.
    """

    source: FiniteSpace
    target: FiniteSpace
    assignment: dict[str, str]

    @classmethod
    def identity(cls, space: FiniteSpace) -> "PointMap":
        return cls(space, space, {p: p for p in space.points})


@dataclass(frozen=True, eq=False)
class SubsetMask:
    space: FiniteSpace
    members: frozenset[str]

    def __post_init__(self):
        mem = frozenset(self.members)
        unknown = mem - self.space.label_set
        if unknown:
            raise ValueError(f"members outside the space: {sorted(unknown)}")
        object.__setattr__(self, "members", mem)

    def __contains__(self, label) -> bool:
        return label in self.members

    def __len__(self) -> int:
        return len(self.members)


def level_set(phi: RealFunction, t: float) -> SubsetMask:
    """Points where phi reaches at least t."""
    return SubsetMask(phi.space, frozenset(p for p, v in phi.values.items() if v >= t))


def comonotone(phi: RealFunction, psi: RealFunction) -> bool:
    """True iff phi and psi are never ordered oppositely at any two points."""
    if phi.space != psi.space:
        raise ValueError("comonotone requires functions on the same space")
    pts = phi.space.points
    for i, x1 in enumerate(pts):
        for x2 in pts[i + 1 :]:
            prod = (phi.values[x1] - phi.values[x2]) * (psi.values[x1] - psi.values[x2])
            if prod < -COMONOTONE_SLACK:
                return False
    return True


def validate_map(g: PointMap) -> bool:
    """True iff the assignment is total on the source and lands in the target."""
    if g.assignment.keys() != g.source.label_set:
        return False
    return all(y in g.target for y in g.assignment.values())


def compose_maps(g: PointMap, h: PointMap) -> PointMap:
    """The composite g after h."""
    if not validate_map(h) or not validate_map(g):
        raise ValueError("cannot compose invalid point maps")
    if h.target != g.source:
        raise ValueError("composition needs the inner target to equal the outer source")
    return PointMap(h.source, g.target, {x: g.assignment[h.assignment[x]] for x in h.source.points})


def fn_shift(phi: RealFunction, lam: float) -> RealFunction:
    """Add a constant to every value."""
    return RealFunction(phi.space, {p: v + lam for p, v in phi.values.items()})


def fn_max(phi: RealFunction, psi: RealFunction) -> RealFunction:
    """Pointwise maximum."""
    if phi.space != psi.space:
        raise ValueError("pointwise max requires functions on the same space")
    return RealFunction(phi.space, {p: max(v, psi.values[p]) for p, v in phi.values.items()})


def unit_scale(phi: UnitFunction, lam: float) -> UnitFunction:
    """Scale every value by a factor in [0, 1]."""
    return UnitFunction(phi.space, {p: lam * v for p, v in phi.values.items()})


def unit_max(phi: UnitFunction, psi: UnitFunction) -> UnitFunction:
    if phi.space != psi.space:
        raise ValueError("pointwise max requires functions on the same space")
    return UnitFunction(phi.space, {p: max(v, psi.values[p]) for p, v in phi.values.items()})
