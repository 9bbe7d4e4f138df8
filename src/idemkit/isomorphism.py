"""The exp/log bridge between the max-plus and max-times worlds.

Pointwise exp turns a max-plus density into a max-times one and is compatible
with units, pushforwards, and both multiplications; pointwise log inverts it.
The morphism checks below recompute both sides of each compatibility square
through independent code paths.
"""

from __future__ import annotations

from .measures import (
    DEFAULT_PROBE_BOUND,
    MAXTIMES,
    MaxPlusDensity,
    MaxTimesDensity,
    MetaDensity,
    MetaTimesDensity,
    density_close,
    dirac,
    measure_multiplication,
    multiply,
)
from .semiring import exp_bridge, log_bridge


def density_exp(f: MaxPlusDensity) -> MaxTimesDensity:
    """Pointwise exp; the peak at 0 lands exactly on 1."""
    return MaxTimesDensity(f.space, {p: exp_bridge(w) for p, w in f.weights.items()})


def density_log(g: MaxTimesDensity) -> MaxPlusDensity:
    """Pointwise log, inverse of density_exp.

    A peak within the 1e-12 slack of 1 logs to a near-zero maximum; the
    result is shifted by that maximum (a move bounded by the slack) so the
    output satisfies the exact peak-0 invariant.
    """
    weights = {p: log_bridge(w) for p, w in g.weights.items()}
    peak = max(weights.values())
    if peak != 0.0:
        weights = {p: w - peak for p, w in weights.items()}
    return MaxPlusDensity(g.space, weights)


def meta_exp(F: MetaDensity) -> MetaTimesDensity:
    """Apply the bridge at both levels: (density, weight) becomes
    (density_exp(density), exp(weight))."""
    return MetaTimesDensity(tuple((density_exp(f), exp_bridge(w)) for f, w in F.support))


def check_l_morphism(F: MetaDensity, tol: float | None = None) -> bool:
    """exp of the multiplied meta equals the multiplication of its exp image,
    and exp sends every unit to the times unit."""
    left = density_exp(multiply(F))
    right = multiply(meta_exp(F))
    if not density_close(left, right, tol):
        return False
    space = F.space
    return all(
        density_close(density_exp(dirac(x, space)), dirac(x, space, MAXTIMES), tol)
        for x in space.points
    )


def check_s_morphism(
    N: MetaDensity, bound: float = DEFAULT_PROBE_BOUND, tol: float | None = None
) -> bool:
    """The probe-functional route of multiplication agrees with the direct
    density route; the two sides never share code."""
    return density_close(measure_multiplication(N, bound), multiply(N), tol)
