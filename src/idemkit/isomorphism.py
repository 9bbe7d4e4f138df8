"""The exp/log bridge between the max-plus and max-times worlds.

Pointwise exp turns a max-plus density into a max-times one and is compatible
with units, pushforwards, and both multiplications; pointwise log inverts it.
The morphism checks below recompute both sides of each compatibility square
through independent code paths.  Each direction has one body, on Python
floats, whatever the size of the space; the result is built by the size rule
of `spaces.PointValues._built`.
"""

from __future__ import annotations

import math

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
from .semiring import BOTTOM, exp_bridge


def density_exp(f: MaxPlusDensity) -> MaxTimesDensity:
    """Pointwise exp; the peak at 0 lands exactly on 1."""
    # exp_bridge only adds a check for positive weights, which f has none of
    return MaxTimesDensity._built(f.space, list(map(math.exp, f.vector.tolist())))


def density_log(g: MaxTimesDensity) -> MaxPlusDensity:
    """Pointwise log, inverse of density_exp.

    A peak within the 1e-12 slack of 1 logs to a near-zero maximum; the
    result is shifted by that maximum (a move bounded by the slack) so the
    output satisfies the exact peak-0 invariant.

    Both directions map math.exp or math.log over the weight vector's
    floats, as exp_bridge and log_bridge do (np.log differs from math.log in
    the last bit on some inputs), and build the result by the size rule of
    `PointValues._built`.
    """
    log = math.log
    logs = [log(w) if w != 0.0 else BOTTOM for w in g.vector.tolist()]  # log_bridge
    peak = max(logs)
    if peak != 0.0:
        logs = [w - peak for w in logs]
    return MaxPlusDensity._built(g.space, logs)


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
