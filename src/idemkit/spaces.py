"""Finite carrier spaces and the functions, maps, and subsets living on them.

On a finite space every function is continuous and every subset is both
closed and open, so no topology objects are needed: level sets, pushforwards
and comonotonicity all reduce to exact finite computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

# absorbs rounding of equal values when a product of differences sits at zero
COMONOTONE_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Ordered distinct labels.  Identity is the label set; the order only
    fixes iteration for deterministic reports, never a result.  The label
    set is kept as `label_set`, so membership and equality cost no scan."""

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

    def __eq__(self, other):
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
    extra = set(values) - set(space.points)
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
        unknown = mem - set(self.space.points)
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
    if set(g.assignment) != set(g.source.points):
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
