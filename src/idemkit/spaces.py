"""Finite carrier spaces and the functions, maps, and subsets living on them.

On a finite space every function is continuous and every subset is both
closed and open, so no topology objects are needed: level sets, pushforwards
and comonotonicity all reduce to exact finite computations.

Every per-point type is built and stored by one class, `PointValues`: one
label-dict constructor, `from_vector` (one vector in point order) and `rows`
(one object per row of a block, checked in numpy by `check_range`).  A
subclass supplies only its closed range `bounds`, its error text `outside`,
its `noun`, and, for a density, the `slack` of its peak.  An object stores
the label dict (under `values` for a function, `weights` for a density) or
the read-only float vector `vector`, whichever it was built from, and makes
the other on first read.  `PointValues._built` is the one choice between the
two constructors, by the size rule ARRAY_MIN_POINTS: a list of floats goes
through the dict below it, an array through `from_vector` from it on.
`RealFunction` holds every real function, `UnitFunction` narrows its range
to [0, 1], and `Probe` is the vector constructor under its own name; the
densities of idemkit.measures, and the weights its normalize reads, are the
other per-point types.  Consumers read whichever form suits their size:
eval_measure reduces the vector in numpy from ARRAY_MIN_POINTS points on and
loops over the dict below, and the level-set integrals scan the vector.

This module is also the probe layer that density_from_functional and
recover_capacity share.  A probe is a function built from a float vector in
point order (`Probe`); a block holds one probe per row, at most
PROBE_BLOCK_CELLS values.  probe_values evaluates an oracle on a block: an
oracle with a `batch(block, space)` method gets it whole, any other is called
once per row, in order.  in_point_order gathers values listed in one space's
point order into an equal space's, and row_views makes one object per row of
a block that checked_block has checked, for `PointValues.rows`.  A function
or density keeps the array it is built from (`take_over`), unless another
array could still write that memory.
"""

from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError, dataclass
from typing import ClassVar, Iterator, Mapping

import numpy as np

# absorbs rounding of equal values when a product of differences sits at zero
COMONOTONE_SLACK = 1e-12

# multiply, pushforward, eval_measure and the closeness of densities run in
# numpy from this many points on, and PointValues._built builds through
# from_vector.  Below it label-dict loops and the label-dict constructor are
# faster: numpy's cost per call (about 15-45 us) outweighs its cost per
# point, so at 4 points the loops are 4-8x faster, and the crossovers timed
# on 2 vCPUs lie at 48-64 points for multiply and near 100 for pushforward.
# The law suites draw spaces of at most 5 points.
ARRAY_MIN_POINTS = 64

# the most values in one block of probes: 2**16 doubles, 512 KiB, which
# stays in cache (one 1000 x 1000 block was about 2x slower)
PROBE_BLOCK_CELLS = 1 << 16


class stored:
    """An attribute made on first read and stored in the instance dict,
    which shadows this non-data descriptor on every later read: what
    functools.cached_property does, without the lock it takes on Python
    3.11."""

    def __init__(self, make, name: str | None = None):
        self.make = make
        self.name = name or make.__name__
        self.__doc__ = make.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.make(obj)
        obj.__dict__[self.name] = value
        return value


class Frozen:
    """Attributes set once, by the constructor through the instance dict;
    assigning or deleting one raises, as on a frozen dataclass."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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


class PointValues(Frozen):
    """A value for every point of a space: the one class that builds and
    stores real functions and densities alike.  A subclass supplies its
    range as the closed `bounds` (lo, hi), the error text for a value
    outside them (`outside`), its `noun` ("value" or "weight"), and, for a
    density, the `slack` within which its highest value must reach hi.

    The label-dict constructor checks a dict, and `from_vector` and `rows`
    check values in point order, in numpy, through `check_range`.  An
    object stores the form it was built from, the label dict under the
    plural of its noun (`values`, `weights`) or the read-only float64
    vector `vector` in point order, and makes the other on first read."""

    bounds: ClassVar[tuple[float, float]]
    noun: ClassVar[str]
    slack: ClassVar[float | None] = None  # None: no peak to reach

    def __init_subclass__(cls):
        # the label dict is stored, and read, under the plural of the noun
        if "noun" in cls.__dict__:
            cls._field = cls.noun + "s"
            setattr(cls, cls._field, stored(PointValues._by_label, cls._field))

    def __init__(self, space: FiniteSpace, values: Mapping[str, float]):
        """The object with these values by label.  It reports the first
        fault in a fixed order: a non-mapping, unknown labels, then point by
        point a missing, unconvertible or out-of-range value, then a peak
        off the top of the range."""
        try:
            keys = values.keys()
        except AttributeError:
            raise ValueError(f"{self._field} must be a mapping, got {type(values).__name__}") from None
        if keys != space.label_set:
            extra = keys - space.label_set
            if extra:
                raise ValueError(f"{self._field} given for unknown points: {sorted(extra)}")
        lo, hi = self.bounds
        vals = {}
        for p in space.points:
            if p not in values:
                raise ValueError(f"missing {self.noun} for point {p!r}")
            try:
                v = float(values[p])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{exc} at point {p!r}") from None
            if not lo <= v <= hi:  # the range check of check_range, for one value
                raise ValueError(self.outside(v, p))
            vals[p] = v
        if self.slack is not None:
            peak = max(vals.values())
            if abs(peak - hi) > self.slack:
                top = next(p for p, v in vals.items() if v == peak)  # the first holding it
                raise ValueError(
                    f"peak {self.noun} is {peak!r} at point {top!r}, expected {hi!r} (use normalize)"
                )
        attrs = self.__dict__
        attrs["space"] = space
        attrs[self._field] = vals

    @classmethod
    def from_vector(cls, space: FiniteSpace, vector):
        """The object whose values in point order are `vector`, checked like
        a row of `rows`; an error names the point.  The object takes the
        array over (`take_over`): a float64 array is kept without a copy and
        marked read-only, unless it views memory another array can still
        write."""
        vec = np.asarray(vector, dtype=float)
        n = len(space)
        if vec.ndim != 1 or len(vec) > n:
            raise ValueError(
                f"a {cls.__name__} on {n} points needs a 1-d vector of {n} {cls._field},"
                f" got shape {vec.shape}"
            )
        if len(vec) < n:
            raise ValueError(f"missing {cls.noun} for point {space.points[len(vec)]!r}")
        cls.check_range(space, vec)
        obj = cls.__new__(cls)
        obj.__dict__.update(space=space, vector=take_over(vec))
        return obj

    @classmethod
    def _built(cls, space: FiniteSpace, values: list[float] | np.ndarray):
        """The object whose values in point order are `values`, built by the
        library's size rule: through the label-dict constructor below
        ARRAY_MIN_POINTS points, where a list of floats is cheapest, and
        through `from_vector` from it on, where an array is."""
        if len(space.points) < ARRAY_MIN_POINTS:
            return cls(space, dict(zip(space.points, values)))
        return cls.from_vector(space, values)

    @classmethod
    def rows(cls, space: FiniteSpace, matrix) -> list:
        """One object per row of an (m, len(space)) block, each a view of
        it.  The block is checked once, with the invariants of the
        constructor, and taken over like a single object's vector: marked
        read-only."""
        return row_views(cls, space, checked_block(space, matrix, f"{cls.__name__} rows", cls))

    @classmethod
    def check_range(cls, space: FiniteSpace, values: np.ndarray) -> None:
        """Reject a vector, or a block with one object per row, holding a
        value outside the range; the error names the first such value's
        point and, in a block, its row.  Then, with a `slack`, the peak: a
        vector, or each row of a block, must reach the top of the range
        within it; the error names the point of the highest value."""
        lo, hi = cls.bounds
        inside = (values >= lo) & (values <= hi)  # also rejects NaN
        if np.count_nonzero(inside) != inside.size:
            *row, i = np.argwhere(~inside)[0].tolist()
            where = f" in row {row[0]}" if row else ""
            raise ValueError(cls.outside(float(values[(*row, i)]), space.points[i]) + where)
        if cls.slack is not None:
            block = values.reshape(-1, len(space))
            peaks = block.max(axis=1)
            off = np.abs(peaks - hi) > cls.slack
            if off.any():
                r = int(off.argmax())
                where = f" in row {r}" if values.ndim == 2 else ""
                raise ValueError(
                    f"peak {cls.noun} is {float(peaks[r])!r} at point"
                    f" {space.points[block[r].argmax()]!r}{where}, expected {hi!r} (use normalize)"
                )

    def _by_label(self) -> dict[str, float]:
        """The values by label, in point order."""
        return dict(zip(self.space.points, self.vector.tolist()))

    @stored
    def vector(self) -> np.ndarray:
        """The values in point order, as a read-only float64 array."""
        return take_over(np.fromiter(self.__dict__[self._field].values(), float, len(self.space)))

    def __repr__(self) -> str:
        field = self._field
        return f"{type(self).__name__}(space={self.space!r}, {field}={getattr(self, field)!r})"

    def __call__(self, point: str) -> float:
        return getattr(self, self._field)[point]


class RealFunction(PointValues):
    """A finite value for every point of the space, held as the label dict
    `values` or the vector `vector` (`PointValues`)."""

    bounds = (-sys.float_info.max, sys.float_info.max)  # closed, so +-inf and NaN fall outside
    noun = "value"

    @classmethod
    def constant(cls, space: FiniteSpace, value: float) -> "RealFunction":
        return cls.from_vector(space, np.full(len(space), value, dtype=float))

    @staticmethod
    def outside(v: float, p: str) -> str:
        """The error text for a value outside the range, at point p."""
        return f"non-finite value {v!r} at point {p!r}"


class Probe(RealFunction):
    """A real function built from its vector in point order:
    Probe(space, vector) is RealFunction.from_vector.  The probe layer hands
    a plain oracle its probes as Probe rows."""

    def __init__(self, space: FiniteSpace, vector):
        self.__dict__.update(self.from_vector(space, vector).__dict__)


class UnitFunction(RealFunction):
    """A value in [0, 1] for every point of the space."""

    bounds = (0.0, 1.0)

    @staticmethod
    def outside(v: float, p: str) -> str:
        return f"value {v!r} at point {p!r} outside [0, 1]"


def take_over(array: np.ndarray) -> np.ndarray:
    """The array, read-only, for a function or density to keep: the array
    itself, marked read-only, when it owns its memory or views memory that
    only read-only arrays hold; else a read-only copy, so that no write
    through a writable base, or a buffer numpy does not own, reaches the
    keeper."""
    base = array.base
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:
        array = array.copy()
    array.setflags(write=False)
    return array


def row_views(cls, space: FiniteSpace, block: np.ndarray) -> list:
    """One `cls` object per row of a checked (m, len(space)) block, made
    without its constructor: its `space` is `space` and its `vector` the
    row, a view.  The block is taken over (`take_over`)."""
    block = take_over(block)
    out = []
    for row in block:
        obj = cls.__new__(cls)
        attrs = obj.__dict__
        attrs["space"], attrs["vector"] = space, row
        out.append(obj)
    return out


def checked_block(space: FiniteSpace, matrix, what: str, kind=RealFunction) -> np.ndarray:
    """An (m, len(space)) float block, one object per row with its columns
    in `space.points` order, every row inside the range of `kind`, a
    PointValues class (its `check_range`).  An error names the first bad row and point; `what`
    names the caller's rows in a shape error."""
    block = np.asarray(matrix, dtype=float)
    n = len(space)
    if block.ndim != 2 or block.shape[1] != n:
        raise ValueError(f"{what} on {n} points need an (m, {n}) block, got shape {block.shape}")
    kind.check_range(space, block)
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
    try:
        ok = math.isfinite(bound) and bound > 0.0
    except (TypeError, OverflowError):  # not a real number, or beyond a double
        ok = False
    if not ok:
        raise ValueError(f"probe bound must be finite and positive, got bound={bound!r}")


def probe_values(oracle, space: FiniteSpace, block: np.ndarray) -> np.ndarray:
    """The oracle's value on each row of an (m, len(space)) probe block, as
    an array of m floats.  An oracle with a `batch(block, space)` method gets
    the block whole and must return one value per row; any other is called
    once per row, in order, on its rows as Probes."""
    batch = getattr(oracle, "batch", None)
    if batch is None:
        return np.array([float(oracle(phi)) for phi in Probe.rows(space, block)])
    values = np.asarray(batch(block, space), dtype=float)
    m = len(block)
    if values.shape != (m,):
        raise ValueError(f"a batch oracle returned shape {values.shape} for {m} probe rows")
    return values


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
    return RealFunction.from_vector(phi.space, phi.vector + lam)


def fn_max(phi: RealFunction, psi: RealFunction) -> RealFunction:
    """Pointwise maximum, keeping phi's value where the two are equal, as
    max(v, w) does, so even a zero keeps its sign."""
    if phi.space != psi.space:
        raise ValueError("pointwise max requires functions on the same space")
    u, v = phi.vector, in_point_order(psi.vector, psi.space, phi.space)
    return RealFunction.from_vector(phi.space, np.where(v > u, v, u))
