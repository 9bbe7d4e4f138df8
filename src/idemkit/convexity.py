"""Max-plus convex combinations, tropical hulls, and idempotent barycenters.

Points are plain coordinate arrays; a convex set is represented intensionally
by its generators, since a finite point set is essentially never closed under
the continuum of admissible combinations.  Membership in the generated hull
is decided by residuation: the greatest admissible weight vector is the only
candidate that can ever reproduce a point, because combinations are monotone
in every weight.  Membership is decided for a batch of points at once: the
candidates of every point come from one broadcast over (point, generator,
coordinate), and the single-point functions pass a batch of one row.

Every verdict carries a certificate from that same residuation
(`certify_members`).  A point that is in carries its weights, a max-plus
density over the generators whose combination lands on it.  A point that is
out carries a separating max-plus half-space (Zimmermann 1977; Cohen,
Gaubert & Quadrat 2004): with the greatest weights lam, their peak rho and
the projection q_t = max_i(lam_i + x_it), the set

    {z : max(-rho, max_t(z_t - q_t)) <= max(0, max_t(z_t - p_t))}

holds every generator and so the whole hull, but not p.  The check in
`check_convexity_equivalence` reads only the certificates, the generators
and the points: the weights of the members pass as one block of densities,
every generator must lie in its half-space (to within a slack of a few
thousand ulps of the largest coordinate), and every point that is out must
lie beyond its own.  The weights must be the clamped ones,
lam_i = min(0, min_t(p_t - x_it)): without the clamp, a point strictly above
a generator gets rho > 0 and q = p, and its half-space no longer excludes it.

Weights are a max-plus density on the generator index space
(`index_space`): `combine` checks them with `MaxPlusDensity.from_vector`, and
the certificate check reads the member weights as one block of the same
class, so one weight rule serves both and an error names the generator.  The
barycenter map takes such a density to the point whose coordinates are the
induced measures of the coordinate functionals.  Those measures are the
max-plus combination of the generators under the weights, so barycenter is
combine read on the measure side, and the two agree bit for bit on identical
inputs.  Barycenter reachability (`barycenter_members`) is the hull verdict:
a member's certificate weights are a density that lands on it, and a point
that is out lies beyond a half-space that holds every barycenter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .measures import MaxPlusDensity, MetaDensity, multiply
from .semiring import resolve_tolerance
from .spaces import FiniteSpace, checked_block

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


def as_point(value, dimension: int) -> np.ndarray:
    p = np.asarray(value, dtype=float)
    if p.ndim != 1 or p.size < 1 or not np.all(np.isfinite(p)):
        raise ValueError("a point is a 1-d array of finite coordinates")
    if p.size != dimension:
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


@cache  # a space is frozen, so one per count serves every combination
def index_space(count: int) -> FiniteSpace:
    """Label space for generator indices, g0, g1, ..., used to put densities
    on generators."""
    return FiniteSpace(tuple(f"g{i}" for i in range(count)))


def _max_combination(points: np.ndarray, lam: np.ndarray) -> np.ndarray:
    # the one max-combination expression, so every route that combines the
    # generators agrees bit for bit; a (m, k) batch of weight rows gives an
    # (m, d) batch of points
    return np.max(points + lam[..., :, None], axis=-2)


def combine(gens: GeneratorSet, lam) -> np.ndarray:
    """Coordinatewise max of (weight + generator); bottom weights drop out.
    The weights are a max-plus density on the generator index space, checked
    by its class, on a copy: the density takes its vector over and marks it
    read-only, and the caller's array stays writable."""
    f = MaxPlusDensity.from_vector(index_space(len(gens)), np.array(lam, dtype=float))
    return _max_combination(gens.points, f.vector)


def barycenter(gens: GeneratorSet, weights) -> np.ndarray:
    """Point whose coordinate t is the measure of the t-th coordinate
    functional under the weight density: the combination of the generators
    under its weights."""
    return combine(gens, weights)


def residual_weights(p: np.ndarray, gens: GeneratorSet) -> np.ndarray:
    """Greatest admissible weights: lam_i = min(0, min_t(p_t - x_it)).

    A batch of points, one per row, gives one row of weights per point."""
    return np.minimum(0.0, np.min(p[..., None, :] - gens.points, axis=-1))


# relative slack on the one check without tol, that a generator lies in a
# half-space: its two sides round differences of the same coordinates
# differently, by a few ulps of the largest coordinate involved, so the slack
# is this many times the largest magnitude among the generators and the
# points that are out (and never less than this itself)
HALF_SPACE_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class HullVerdicts:
    """Verdicts on an (m, d) batch of points with their certificates.

    `member` holds one verdict per point.  `weights` holds one row per
    member, in point order: normalized weights whose combination lands on
    it.  `peak` (rho) and `projection` (q) hold one entry and one row per
    point that is out, in point order: its separating half-space."""

    member: np.ndarray
    weights: np.ndarray
    peak: np.ndarray
    projection: np.ndarray


def _lands(points: np.ndarray, gens: GeneratorSet, weights: np.ndarray, tol: float) -> np.ndarray:
    # the one comparison of a combination with its point, shared by the
    # verdicts and the check of their weights, so the two agree bit for bit
    return np.max(np.abs(_max_combination(gens.points, weights) - points), axis=-1) <= tol


def _max_gap(floor, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # max(floor, max_t(u_t - v_t)) over the coordinates, the last axis
    return np.maximum(floor, np.max(u - v, axis=-1))


def _verdicts(pts: np.ndarray, gens: GeneratorSet, tol: float):
    # the one residuation: the verdicts, the members' weights shifted to peak
    # 0, and every point's residual weights and their peaks
    lam = residual_weights(pts, gens)
    peak = lam.max(axis=-1)
    member = peak >= -tol
    shifted = lam[member] - peak[member, None]
    landed = _lands(pts[member], gens, shifted, tol)
    member[member] = landed
    return member, shifted[landed], lam, peak


def _certify(pts: np.ndarray, gens: GeneratorSet, tol: float) -> HullVerdicts:
    # the verdicts with the half-spaces of the points that are out
    member, weights, lam, peak = _verdicts(pts, gens, tol)
    out = ~member
    return HullVerdicts(member, weights, peak[out], _max_combination(gens.points, lam[out]))


def certify_members(points, gens: GeneratorSet, tol: float | None = None) -> HullVerdicts:
    """Membership in the generated hull for each row of an (m, d) array,
    with a certificate for each verdict, all from one residuation.

    Combinations are monotone in each weight, so the residuation candidate
    succeeds iff any admissible weight vector does; if even its peak sits
    below -tol no normalized combination can come near the point.  A member
    is certified by that candidate shifted to peak 0, a point that is out by
    the candidate's peak and projection.
    """
    return _certify(_as_grid(points, gens.dimension), gens, resolve_tolerance(tol))


def hull_members(points, gens: GeneratorSet, tol: float | None = None) -> np.ndarray:
    """Membership in the generated hull for each row of an (m, d) array:
    the verdicts of `certify_members`, without their half-spaces."""
    pts = _as_grid(points, gens.dimension)
    return _verdicts(pts, gens, resolve_tolerance(tol))[0]


def hull_member(point, gens: GeneratorSet, tol: float | None = None) -> bool:
    """Membership of one point in the generated hull."""
    return bool(hull_members(as_point(point, gens.dimension)[None, :], gens, tol)[0])


def density_weights(f: MaxPlusDensity) -> np.ndarray:
    """Weight vector of a density over an index space, in point order, as a
    writable copy."""
    return np.array(f.vector)


def barycenter_members(points, gens: GeneratorSet, tol: float | None = None) -> np.ndarray:
    """Barycenter reachability for each row of an (m, d) array: does some
    weight density land on the point?  These are the verdicts of
    `hull_members`, whose member weights are densities that land on their
    points; `check_convexity_equivalence` proves them from the certificates."""
    return hull_members(points, gens, tol)


def barycenter_member(point, gens: GeneratorSet, tol: float | None = None) -> bool:
    """Barycenter reachability of one point: the verdict of `hull_member`."""
    return hull_member(point, gens, tol)


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


def _certificates_hold(pts: np.ndarray, gens: GeneratorSet, v: HullVerdicts, tol: float) -> bool:
    # do the certificates prove their verdicts?  Reads only the certificates,
    # the generators and the points.  The weight rows pass as one block of
    # max-plus densities on the generator index space, and each lands on its
    # point: barycenter reachability itself
    block = checked_block(index_space(len(gens)), v.weights, "barycenter weights", MaxPlusDensity)
    if not _lands(pts[v.member], gens, block, tol).all():
        return False
    x = gens.points
    outside = pts[~v.member]
    # every generator lies in the half-space of every point that is out; the
    # right side comes from the points, not from the certificate, and so does
    # the scale of the slack
    held = _max_gap(-v.peak[:, None], x, v.projection[:, None, :])
    bound = _max_gap(0.0, x, outside[:, None, :])
    scale = max(1.0, np.abs(x).max(), np.abs(outside).max(initial=0.0))
    if not np.all(held <= bound + HALF_SPACE_SLACK * scale):
        return False
    # and the point itself lies beyond it, where the right side is 0
    return bool(np.all(_max_gap(-v.peak, outside, v.projection) > tol))


def check_convexity_equivalence(
    gens: GeneratorSet, grid, tol: float | None = None
) -> bool:
    """Hull membership and barycenter reachability give the same verdict on
    every probe point, proved verdict by verdict from the certificates of
    `certify_members`.  The members' weights pass as one block of max-plus
    densities whose barycenters must land within tol of their points.  Every
    generator must lie in the half-space of every point that is out, to
    within HALF_SPACE_SLACK relative to the largest coordinate, so no
    barycenter reaches that point; and each such point must lie beyond its
    own half-space by more than tol."""
    tol = resolve_tolerance(tol)
    pts = _as_grid(grid, gens.dimension)
    return _certificates_hold(pts, gens, _certify(pts, gens, tol), tol)


def bounding_grid(gens: GeneratorSet, per_axis: int = 11) -> np.ndarray:
    """Regular grid spanning the generators' bounding box."""
    if per_axis < 1:
        raise ValueError("per_axis must be positive")
    lo = gens.points.min(axis=0)
    hi = gens.points.max(axis=0)
    axes = [np.linspace(lo[t], hi[t], per_axis) for t in range(gens.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
