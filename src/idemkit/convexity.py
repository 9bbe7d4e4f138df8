"""Max-plus convex combinations, tropical hulls, and idempotent barycenters.

Points are plain coordinate arrays; a convex set is represented intensionally
by its generators, since a finite point set is essentially never closed under
the continuum of admissible combinations.  Membership in the generated hull
is decided by residuation: the greatest admissible weight vector is the only
candidate that can ever reproduce a point, because combinations are monotone
in every weight.  Membership is decided for a batch of points at once: the
candidates of every point come from one broadcast over (point, generator,
coordinate), and the single-point functions pass a batch of one row.

The barycenter map takes a normalized weight vector (a max-plus density over
the generators) to the point whose coordinates are the induced measures of
the coordinate functionals.  Those measures are the max-plus combination of
the generators under the weights, so barycenter is combine read on the
measure side, and the two agree bit for bit on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import MaxPlusDensity, MetaDensity, multiply
from .semiring import resolve_tolerance
from .spaces import FiniteSpace

POINT_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Finite generating family in a fixed dimension; rows are points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("generators must form a non-empty 2-d array of coordinates")
        if not np.all(np.isfinite(pts)):
            raise ValueError("generator coordinates must be finite")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.max(np.abs(pts[i] - pts[j])) <= POINT_SLACK:
                    raise ValueError(f"generators {i} and {j} coincide")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def __len__(self) -> int:
        return int(self.points.shape[0])


def as_point(value, dimension: int | None = None) -> np.ndarray:
    p = np.asarray(value, dtype=float)
    if p.ndim != 1 or p.size < 1 or not np.all(np.isfinite(p)):
        raise ValueError("a point is a 1-d array of finite coordinates")
    if dimension is not None and p.size != dimension:
        raise ValueError(f"point has dimension {p.size}, expected {dimension}")
    return p


def _as_grid(points, dimension: int) -> np.ndarray:
    """Validate a batch of points: a 2-d array of finite coordinates, one row
    per point, each of the given dimension."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dimension:
        raise ValueError(
            f"grid points must match the generator dimension {dimension}, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise ValueError("grid coordinates must be finite")
    return pts


def _check_weights(lam: np.ndarray) -> np.ndarray:
    # value checks on weight vectors held in the last axis
    if np.any(np.isnan(lam)) or np.any(lam == np.inf):
        raise ValueError("weights must be scores (finite or -inf)")
    if np.any(lam > 0.0):
        raise ValueError("weights must be non-positive")
    peaks = lam.max(axis=-1)
    if np.any(peaks != 0.0):
        raise ValueError(f"max weight is {np.min(peaks)!r}, expected 0")
    return lam


def as_weight_vector(weights, count: int) -> np.ndarray:
    """Validate weights: one per generator, each in [-inf, 0], peak exactly 0."""
    lam = np.asarray(weights, dtype=float)
    if lam.ndim != 1 or lam.size != count:
        raise ValueError(f"expected {count} weights, got shape {lam.shape}")
    return _check_weights(lam)


def _max_combination(points: np.ndarray, lam: np.ndarray) -> np.ndarray:
    # the one max-combination expression, so every route that combines the
    # generators agrees bit for bit; a (m, k) batch of weight rows gives an
    # (m, d) batch of points
    return np.max(points + lam[..., :, None], axis=-2)


def combine(gens: GeneratorSet, lam) -> np.ndarray:
    """Coordinatewise max of (weight + generator); bottom weights drop out."""
    lam = as_weight_vector(lam, len(gens))
    return _max_combination(gens.points, lam)


def barycenter(gens: GeneratorSet, weights) -> np.ndarray:
    """Point whose coordinate t is the measure of the t-th coordinate
    functional under the weight density: the combination of the generators
    under its weights."""
    return combine(gens, weights)


def residual_weights(p: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Greatest admissible weights: lam_i = min(0, min_t(p_t - x_it)).

    A batch of points, one per row, gives one row of weights per point."""
    return np.minimum(0.0, np.min(p[..., None, :] - gens.points, axis=-1))


def _members(points, gens: GeneratorSet, tol: float | None, route) -> np.ndarray:
    """Residuation verdicts for each row of an (m, d) array.  Rows whose
    candidate peaks below -tol are out; route turns the remaining candidates,
    shifted to peak 0, into the weights that are combined and compared."""
    tol = resolve_tolerance(tol)
    pts = _as_grid(points, gens.dimension)
    lam = residual_weights(pts, gens)
    peak = lam.max(axis=1, keepdims=True)
    live = peak[:, 0] >= -tol
    weights = _check_weights(route(lam[live] - peak[live]))
    member = np.zeros(len(pts), dtype=bool)
    member[live] = np.max(np.abs(_max_combination(gens.points, weights) - pts[live]), axis=1) <= tol
    return member


def hull_members(points, gens: GeneratorSet, tol: float | None = None) -> np.ndarray:
    """Membership in the generated hull for each row of an (m, d) array.

    Combinations are monotone in each weight, so the residuation candidate
    succeeds iff any admissible weight vector does; if even its peak sits
    below 0 no normalized combination can dominate the point.
    """
    return _members(points, gens, tol, lambda lam: lam)


def hull_member(point, gens: GeneratorSet, tol: float | None = None) -> bool:
    """Membership of one point in the generated hull."""
    return bool(hull_members(as_point(point, gens.dimension)[None, :], gens, tol)[0])


def index_space(count: int, prefix: str = "g") -> FiniteSpace:
    """Label space for generator indices, used to put densities on generators."""
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(count)))


def density_weights(f: MaxPlusDensity) -> np.ndarray:
    """Weight vector of a density over an index space, in point order, as a
    writable copy."""
    return np.array(f.vector)


def barycenter_members(points, gens: GeneratorSet, tol: float | None = None) -> np.ndarray:
    """Membership decided through the barycenter route for each row of an
    (m, d) array: does some weight density land on the point?  Uses the same
    residuation candidates but walks each one through the density type and
    the barycenter map; the candidates are checked as densities in one
    block."""
    space = index_space(len(gens))

    def through_densities(lam):
        dens = MaxPlusDensity.rows(space, lam)
        return np.array([density_weights(f) for f in dens]).reshape(-1, len(gens))

    return _members(points, gens, tol, through_densities)


def barycenter_member(point, gens: GeneratorSet, tol: float | None = None) -> bool:
    """Barycenter reachability of one point."""
    return bool(barycenter_members(as_point(point, gens.dimension)[None, :], gens, tol)[0])


def check_algebra(gens: GeneratorSet, N: MetaDensity, tol: float | None = None) -> bool:
    """Barycenter absorbs the monad multiplication.

    Left: barycenter of the multiplied meta.  Right: map every support
    density to its barycenter point and combine those images under the
    meta's weights.  The two must agree coordinatewise.
    """
    tol = resolve_tolerance(tol)
    if N.space != index_space(len(gens)):
        raise ValueError("meta density must live on the generator index space")
    left = barycenter(gens, density_weights(multiply(N)))
    images = np.stack([_max_combination(gens.points, density_weights(f)) for f, _ in N.support])
    outer = np.array([w for _, w in N.support])
    right = _max_combination(images, outer)
    return bool(np.max(np.abs(left - right)) <= tol)


def check_convexity_equivalence(
    gens: GeneratorSet, grid, tol: float | None = None
) -> bool:
    """Hull membership and barycenter reachability give the same verdict on
    every probe point."""
    tol = resolve_tolerance(tol)
    return bool(
        np.array_equal(hull_members(grid, gens, tol), barycenter_members(grid, gens, tol))
    )


def bounding_grid(gens: GeneratorSet, per_axis: int = 11) -> np.ndarray:
    """Regular grid spanning the generators' bounding box."""
    if per_axis < 1:
        raise ValueError("per_axis must be positive")
    lo = gens.points.min(axis=0)
    hi = gens.points.max(axis=0)
    axes = [np.linspace(lo[t], hi[t], per_axis) for t in range(gens.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
