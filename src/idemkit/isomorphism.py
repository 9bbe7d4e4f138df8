"""The exp/log bridge between the max-plus and max-times worlds.

Pointwise exp, theta, is an isomorphism of the two monads: it turns a
max-plus density into a max-times one, carries units to units and
multiplication to multiplication, and is natural in the map; pointwise log
inverts it.  The morphism checks below recompute both sides of each
compatibility square through independent code paths.

One body, `_transport(x, side)`, carries a value of either side to `side`
at every depth: a density pointwise, on Python floats whatever the size of
its space, built by the size rule of `spaces.PointValues._built`; a meta of
any depth entry by entry and weight by weight, built by its constructor.
The counterpart class comes from one table of three pairs, read along the
MRO, so a possibility profile logs to a MaxPlusDensity and a
MetaPossibility to a MetaDensity.  `density_exp`, `density_log`, `meta_exp`
and `meta_log` refuse a value from the wrong side, or one that is neither a
density nor a meta, with a ValueError that names the side they need.

theta is a bijection on densities, but on metas only up to the
constructors' tolerance merge: entries that are apart on the max-plus side
may come within the merge tolerance after exp, and then merge.  With
{a: 0, b: -30} at weight 0 and {a: 0, b: -31} at weight -1, 1.0 apart, the
exp image holds one entry, since e^-30 and e^-31 differ by less than 1e-9.
`meta_log(meta_exp(F))` gives F back when no two entries of F come within
the tolerance after exp.
"""

from __future__ import annotations

import math

from .measures import (
    DEFAULT_PROBE_BOUND,
    MAXPLUS,
    MAXTIMES,
    Density,
    MaxPlusDensity,
    MaxTimesDensity,
    Meta,
    MetaDensity,
    MetaTimesDensity,
    Side,
    ThirdLevel,
    ThirdLevelTimes,
    density_close,
    dirac,
    measure_multiplication,
    multiply,
)
from .semiring import BOTTOM

# the (max-plus, max-times) classes of the three levels
_PAIRS = (
    (MaxPlusDensity, MaxTimesDensity),
    (MetaDensity, MetaTimesDensity),
    (ThirdLevel, ThirdLevelTimes),
)
# the class on the other side of each
_COUNTERPART = dict(_PAIRS) | {times: plus for plus, times in _PAIRS}


def _carried(values: list[float], side: Side) -> list[float]:
    """Weights carried to `side`: math.exp of each into max-times (as
    exp_bridge, whose check for positive weights a max-plus value never
    needs); into max-plus math.log of each, bottom for 0 (as log_bridge),
    shifted by the peak when that is not 0.  A max-times peak may miss 1 by
    its 1e-12 slack, and the max-plus peak must be exactly 0; the shift
    moves every weight by at most the slack.  np.exp and np.log differ from
    math.exp and math.log in the last bit on some inputs, so the floats are
    mapped one by one."""
    if side is MAXTIMES:
        return list(map(math.exp, values))
    log = math.log
    logs = [log(w) if w != 0.0 else BOTTOM for w in values]
    peak = max(logs)
    if peak != 0.0:
        logs = [w - peak for w in logs]
    return logs


def _transport(x: Density | Meta, side: Side) -> Density | Meta:
    """x carried to `side`, or x itself when it is on `side` already.  A
    density maps the floats of its weights in point order, read off
    whichever form it stores, and is built by the size rule of
    `PointValues._built`; a meta of any depth carries each entry and its
    weights, and is built by its counterpart's constructor, which merges
    entries that come within tolerance."""
    if x.side is side:
        return x
    for cls in type(x).__mro__:
        if cls in _COUNTERPART:
            cls = _COUNTERPART[cls]
            break
    if isinstance(x, Density):
        return cls._built(x.space, _carried(x._in_order(), side))
    entries, weights = zip(*x.support)
    return cls(tuple(zip([_transport(e, side) for e in entries], _carried(weights, side))))


def _checked(x, kind: type, side: Side, name: str):
    """x, when it is a `kind` (Density or Meta) on `side`; else a
    ValueError that names the side `name` needs."""
    if not isinstance(x, kind) or x.side is not side:
        noun = kind.__name__.lower()
        raise ValueError(f"{name} takes a {side.kind} {noun}, got {type(x).__name__}")
    return x


def density_exp(f: MaxPlusDensity) -> MaxTimesDensity:
    """Pointwise exp; the peak at 0 lands exactly on 1."""
    return _transport(_checked(f, Density, MAXPLUS, "density_exp"), MAXTIMES)


def density_log(g: MaxTimesDensity) -> MaxPlusDensity:
    """Pointwise log, inverse of density_exp.  A peak within the 1e-12
    slack of 1 logs to a near-zero maximum, which is shifted out, so the
    result peaks at exactly 0."""
    return _transport(_checked(g, Density, MAXTIMES, "density_log"), MAXPLUS)


def meta_exp(F: Meta) -> Meta:
    """theta at every level of a max-plus meta of any depth: each entry goes
    through the bridge, and so does each weight.  Entries that come within
    tolerance after exp merge (see the module docstring)."""
    return _transport(_checked(F, Meta, MAXPLUS, "meta_exp"), MAXTIMES)


def meta_log(G: Meta) -> Meta:
    """Inverse of meta_exp on a max-times meta of any depth; the peak weight
    is shifted to exactly 0 as density_log shifts a peak."""
    return _transport(_checked(G, Meta, MAXTIMES, "meta_log"), MAXPLUS)


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
