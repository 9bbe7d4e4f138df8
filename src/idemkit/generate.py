"""Seeded random instances for the law suites and tests.

All generators take a numpy Generator and produce canonically normalized
values: max-plus peaks are exact zeros (a draw minus the running maximum),
multiplicative peaks are exact ones (a draw divided by the maximum), so the
constructors' normalization invariants hold without rounding slack.

Each kind of weight has one drawer: `_plus_weights` draws the max-plus
weights of random_weight_vector and random_maxplus_density, and
`_unit_weights` those of random_maxtimes_density and the unquantized
random_possibility_profile, so equal draws make equal weights on both.
A drawer's arithmetic splits at the library's one size rule,
spaces.ARRAY_MIN_POINTS: below it, on the small spaces the law suites draw,
it works on Python floats taken from its draws with `.tolist()`, which costs
less than numpy's calls; from it on it stays in numpy.  Both bodies make the
same Philox draws in the same order and give bitwise-equal floats.  The
density is built from checked parts below the rule (`_drawn`, through
`Density._from_checked`, which checks the peak alone): a drawer's weights
lie in [bottom, peak] by how they are made, and numpy's `uniform` refuses a
non-finite or inverted `min_weight` before any is.  From the rule on it is
built by `from_vector`.  The quantized profile goes through the
constructor (`PointValues._built`), since a caller's `quantum` can make a
NaN.  A meta level has one drawer, `_random_level`, which reads the meta's
side and normalizes its few weights as Python floats alone, since the meta
constructor reads them one by one.  random_space has one label per letter,
refuses to draw a larger space, and hands out one space per size
(`spaces.shared_space`).  A drawer's only parameters are the knobs some
caller sets (tests/test_knobs.py checks it): random_space's point bounds,
min_weight and bottom_rate of the max-plus drawers, zero_rate of the
max-times ones, quantum of the profile drawers and random_meta's
max_support.
"""

from __future__ import annotations

import string
from typing import Callable

import numpy as np

from .capacities import Capacity, MetaPossibility, PossibilityProfile, _check_table_points
from .convexity import GeneratorSet, index_space
from .measures import (
    Density,
    MaxPlusDensity,
    MaxTimesDensity,
    Meta,
    MetaDensity,
    MetaTimesDensity,
    ThirdLevel,
    ThirdLevelTimes,
)
from .seeding import trial_stream
from .semiring import BOTTOM
from .spaces import ARRAY_MIN_POINTS, FiniteSpace, PointMap, RealFunction, shared_space

__all__ = [
    "trial_stream",
    "random_space",
    "real_row",
    "random_real_function",
    "random_point_map",
    "comonotone_rows",
    "random_comonotone_pair",
    "random_maxplus_density",
    "random_maxtimes_density",
    "random_meta",
    "random_meta_times",
    "random_third",
    "random_third_times",
    "random_capacity",
    "random_possibility_profile",
    "random_meta_possibility",
    "random_weight_vector",
    "random_generator_set",
]

_LABELS = string.ascii_lowercase


def random_space(rng: np.random.Generator, max_points: int = 5, min_points: int = 1) -> FiniteSpace:
    """A space of min_points to max_points points, labelled by letters in
    order; asking for more points than there are letters raises."""
    if max_points > len(_LABELS):
        raise ValueError(
            f"random_space has {len(_LABELS)} labels, asked for up to {max_points} points"
        )
    size = int(rng.integers(min_points, max_points + 1))
    return shared_space(tuple(_LABELS[:size]))


def real_row(rng: np.random.Generator, n: int) -> np.ndarray:
    """The values of a random real function on n points, in point order."""
    return rng.uniform(-5.0, 5.0, n)


def random_real_function(rng: np.random.Generator, space: FiniteSpace) -> RealFunction:
    return RealFunction.from_vector(space, real_row(rng, len(space)))


def random_point_map(
    rng: np.random.Generator, source: FiniteSpace, target: FiniteSpace
) -> PointMap:
    picks = rng.integers(0, len(target), len(source))
    return PointMap(
        source, target, {p: target.points[int(k)] for p, k in zip(source.points, picks)}
    )


def comonotone_rows(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The values on n points, in point order, of two non-decreasing
    reshapings of one shared ranking; ties included.  The draws: the
    ranking (`integers`), then per reshaping its increments (`uniform`),
    which of them are flat (`random`) and its offset (`uniform`)."""
    ranks = rng.integers(0, n, n)

    def reshape() -> np.ndarray:
        incs = rng.uniform(0.0, 2.0, n)
        incs[rng.random(n) < 0.3] = 0.0  # flat stretches cover ties
        table = float(rng.uniform(-3.0, 3.0)) + incs.cumsum()
        return table[ranks]

    return reshape(), reshape()


def random_comonotone_pair(
    rng: np.random.Generator, space: FiniteSpace
) -> tuple[RealFunction, RealFunction]:
    """Two non-decreasing reshapings of one shared ranking: the functions
    of comonotone_rows."""
    phi, psi = comonotone_rows(rng, len(space))
    return RealFunction.from_vector(space, phi), RealFunction.from_vector(space, psi)


def _drawn(cls: type[Density], space: FiniteSpace, weights: list[float] | np.ndarray) -> Density:
    """The density of a drawer's weights in point order, by the size rule:
    below ARRAY_MIN_POINTS from checked parts (`Density._from_checked`,
    which checks the peak alone), since a drawer's floats lie in [bottom,
    peak] by how they are made, and through `from_vector` from it on."""
    if len(space.points) < ARRAY_MIN_POINTS:
        return cls._from_checked(space, dict(zip(space.points, weights)))
    return cls.from_vector(space, weights)


def _plus_weights(
    rng: np.random.Generator, n: int, min_weight: float, bottom_rate: float
) -> list[float] | np.ndarray:
    """The n weights of random_weight_vector, as a list below
    ARRAY_MIN_POINTS and an array from it on; both bodies make the same
    draws and give bitwise-equal floats."""
    if n < ARRAY_MIN_POINTS:
        finite = [u >= bottom_rate for u in rng.random(n).tolist()]
        if not any(finite):
            finite[int(rng.integers(0, n))] = True
        draws = rng.uniform(min_weight, 0.0, n).tolist()
        peak = max(d for d, keep in zip(draws, finite) if keep)
        return [d - peak if keep else BOTTOM for d, keep in zip(draws, finite)]
    finite = rng.random(n) >= bottom_rate
    if not finite.any():
        finite[int(rng.integers(0, n))] = True
    draws = rng.uniform(min_weight, 0.0, n)
    return np.where(finite, draws - draws[finite].max(), BOTTOM)


def random_maxplus_density(
    rng: np.random.Generator,
    space: FiniteSpace,
    min_weight: float = -8.0,
    bottom_rate: float = 0.25,
) -> MaxPlusDensity:
    """The density whose weights in point order are those of
    random_weight_vector."""
    return _drawn(MaxPlusDensity, space, _plus_weights(rng, len(space), min_weight, bottom_rate))


def _unit_weights(rng: np.random.Generator, n: int, zero_rate: float) -> list[float] | np.ndarray:
    """n weights in [0, 1] with peak exactly 1, as a list below
    ARRAY_MIN_POINTS and an array from it on: uniform draws, each set to 0
    with probability zero_rate (one drawn point set to 1 if all are), over
    their max."""
    if n < ARRAY_MIN_POINTS:
        draws = rng.uniform(0.0, 1.0, n).tolist()
        zeroed = rng.random(n).tolist()
        draws = [0.0 if z < zero_rate else d for d, z in zip(draws, zeroed)]
        peak = max(draws)
        if peak <= 0.0:
            draws[int(rng.integers(0, n))] = peak = 1.0
        return [d / peak for d in draws]
    draws = rng.uniform(0.0, 1.0, n)
    draws[rng.random(n) < zero_rate] = 0.0
    if draws.max() <= 0.0:
        draws[int(rng.integers(0, n))] = 1.0
    return draws / draws.max()


def random_maxtimes_density(
    rng: np.random.Generator, space: FiniteSpace, zero_rate: float = 0.25
) -> MaxTimesDensity:
    return _drawn(MaxTimesDensity, space, _unit_weights(rng, len(space), zero_rate))


def _random_level(
    rng: np.random.Generator, meta: type[Meta], max_support: int, draw_entry: Callable[[], object]
) -> Meta:
    """A `meta` value of 1 to max_support entries.  It draws their number,
    then their weights, uniform between the side's peak and its bottom (or
    -8.0, the higher) with the peak of the draws divided out by the side's
    residual, as Python floats, then each entry with draw_entry().  Draws
    that all land at bottom give every entry the peak."""
    side = meta.side
    k = int(rng.integers(1, max_support + 1))
    draws = rng.uniform(max(side.bottom, -8.0), side.peak, k).tolist()
    peak = max(draws)
    weights = [side.residual(d, peak) for d in draws] if peak > side.bottom else [side.peak] * k
    return meta(tuple((draw_entry(), w) for w in weights))


def random_meta(rng: np.random.Generator, space: FiniteSpace, max_support: int = 4) -> MetaDensity:
    return _random_level(rng, MetaDensity, max_support, lambda: random_maxplus_density(rng, space))


def random_meta_times(rng: np.random.Generator, space: FiniteSpace) -> MetaTimesDensity:
    return _random_level(rng, MetaTimesDensity, 4, lambda: random_maxtimes_density(rng, space))


def random_third(rng: np.random.Generator, space: FiniteSpace) -> ThirdLevel:
    return _random_level(rng, ThirdLevel, 4, lambda: random_meta(rng, space))


def random_third_times(rng: np.random.Generator, space: FiniteSpace) -> ThirdLevelTimes:
    return _random_level(rng, ThirdLevelTimes, 4, lambda: random_meta_times(rng, space))


def random_capacity(rng: np.random.Generator, space: FiniteSpace) -> Capacity:
    """Uniform draws made monotone, then normalized: each entry becomes the
    max of the draws over its subsets, built in one pass per point.  The
    quotients by the top draw are monotone, in [0, 1], 0 on the empty set
    and exactly 1 on the whole space, so they skip the constructor's checks
    (`Capacity._from_checked`); a top draw of 0 has no such quotients, and
    the constructor refuses them.  A space too large for a table is refused
    before its 2**n draws are made."""
    n = len(space)
    _check_table_points(n)
    vals = rng.uniform(0.0, 1.0, 1 << n)
    for i in range(n):
        # pairs[:, 1] are the masks with point i, pairs[:, 0] the same masks without it
        pairs = vals.reshape(-1, 2, 1 << i)
        np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    vals[0] = 0.0
    table = vals / vals[-1]
    if vals[-1] > 0.0:
        return Capacity._from_checked(space, table)
    return Capacity(space, table)


def random_possibility_profile(
    rng: np.random.Generator,
    space: FiniteSpace,
    zero_rate: float = 0.2,
    quantum: int | None = None,
) -> PossibilityProfile:
    """Random profile with peak exactly 1; with `quantum`, every value is a
    multiple of 1/quantum so it lies on the matching threshold sweep grid."""
    n = len(space)
    if quantum is None:
        return _drawn(PossibilityProfile, space, _unit_weights(rng, n, zero_rate))
    draws = rng.integers(0, quantum + 1, n) / float(quantum)
    draws[int(rng.integers(0, n))] = 1.0
    return PossibilityProfile._built(space, draws.tolist())


def random_meta_possibility(
    rng: np.random.Generator, space: FiniteSpace, quantum: int | None = None
) -> MetaPossibility:
    return _random_level(
        rng, MetaPossibility, 4, lambda: random_possibility_profile(rng, space, quantum=quantum)
    )


def random_weight_vector(
    rng: np.random.Generator, count: int, min_weight: float = -6.0, bottom_rate: float = 0.2
) -> np.ndarray:
    """count max-plus weights with peak exactly 0, as a float64 array: which
    are finite (`random`, each bottom with probability bottom_rate, one
    drawn point kept if none is), then uniform draws in [min_weight, 0]
    (`uniform`), less the max of the finite ones.  random_maxplus_density
    draws its weights the same way (`_plus_weights`)."""
    return np.asarray(_plus_weights(rng, count, min_weight, bottom_rate), dtype=float)


def random_generator_set(rng: np.random.Generator, dim: int) -> GeneratorSet:
    """2 to 5 generators in `dim` coordinates, each uniform in [-4, 4]."""
    count = int(rng.integers(2, 6))
    return GeneratorSet(rng.uniform(-4.0, 4.0, (count, dim)))


def random_meta_on_generators(rng: np.random.Generator, count: int) -> MetaDensity:
    """Meta density over the index space of a generator set."""
    return random_meta(rng, index_space(count))
