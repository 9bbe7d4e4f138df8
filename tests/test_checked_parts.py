"""The checks that the drawers, `dirac`, the small-space `pushforward` and
the meta merge skip are implied by how their inputs are made: each builds
what its checked counterpart builds, float for float, and raises where it
raises.  So do the two capacity builders, `random_capacity` and
`capacity_from_profile`, whose tables the constructor would accept bit for
bit.  The merge in `Meta.__init__` passes over a pair of density entries
whose weights at one label are more than tol apart, where `_close` fails
anyway; `plain_merge` is that merge without the shortcut."""

from __future__ import annotations

import math

import numpy as np
import pytest

from idemkit import measures
from idemkit.capacities import Capacity, MetaPossibility, PossibilityProfile, capacity_from_profile
from idemkit.generate import (
    random_capacity,
    random_maxplus_density,
    random_maxtimes_density,
    random_meta,
    random_point_map,
    random_possibility_profile,
)
from idemkit.measures import (
    DENSITIES,
    MAXPLUS,
    MAXTIMES,
    MaxPlusDensity,
    MaxTimesDensity,
    MetaDensity,
    MetaTimesDensity,
    ThirdLevel,
    _close,
    dirac,
    pushforward,
)
from idemkit.seeding import trial_stream
from idemkit.semiring import resolve_tolerance
from idemkit.spaces import FiniteSpace, PointMap

ABC = FiniteSpace(("a", "b", "c"))
CBA = FiniteSpace(("c", "b", "a"))  # the same space, its points in another order
TOLERANCES = [None, "0", "0.3", "2.0"]  # IDEMKIT_TOLERANCE; None leaves it unset


def plain_merge(meta_cls, pairs, tol: float) -> list:
    """The support `meta_cls(pairs)` keeps, merged by `_close` alone: each
    kept pair against every pair merged before it, the larger weight kept."""
    merged = []
    for item, w in pairs:
        if w == meta_cls.side.bottom:
            continue
        for k, (other, v) in enumerate(merged):
            if _close(item, other, tol):
                if w > v:
                    merged[k] = (other, w)
                break
        else:
            merged.append((item, w))
    return merged


def _view(support) -> list:
    """A support as entry identities and weight reprs, in order."""
    return [(id(e), repr(w)) for e, w in support]


def _set_tolerance(monkeypatch, raw: str | None) -> float:
    if raw is None:
        monkeypatch.delenv("IDEMKIT_TOLERANCE", raising=False)
    else:
        monkeypatch.setenv("IDEMKIT_TOLERANCE", raw)
    return resolve_tolerance(None)


def _first_weights(side, tol: float) -> list[float]:
    """Weights at the first label that meet the cases of the reject: ties
    (and a signed zero), bottom, exactly tol apart and one ulp further."""
    if side is MAXPLUS:
        grid = [0.0, -0.0, -tol, -2 * tol, -math.inf, -1.0, math.nextafter(-tol, -math.inf)]
    else:
        grid = [1.0, 0.0, tol, 2 * tol, 0.5, math.nextafter(tol, math.inf), 1.0 - tol]
    return sorted({repr(w): w for w in grid if side.bottom <= w <= side.peak}.values())


def _entries(side, tol: float) -> list:
    """Densities on ABC and CBA with the peak at b and every pair of grid
    weights at a and c, so entries tie, differ or sit at bottom at either
    space's first label; and a vector-built copy of some, whose weights
    the merge does not read."""
    cls = DENSITIES[side.kind]
    grid = _first_weights(side, tol)
    out = []
    for x in grid:
        for y in grid:
            for space in (ABC, CBA):
                out.append(cls(space, {"a": x, "b": side.peak, "c": y}))
        out.append(cls.from_vector(CBA, [y, side.peak, x]))
    return out


@pytest.mark.parametrize("raw", TOLERANCES)
@pytest.mark.parametrize("meta_cls", [MetaDensity, MetaTimesDensity], ids=["max-plus", "max-times"])
def test_the_merge_reject_changes_no_merge(monkeypatch, raw, meta_cls):
    tol = _set_tolerance(monkeypatch, raw)
    side = meta_cls.side
    entries = _entries(side, tol)
    low = -0.5 if side is MAXPLUS else 0.5
    merges = 0
    for d in entries:
        for e in entries:
            for pairs in (((d, side.peak), (e, low)), ((d, low), (e, side.peak))):
                got = meta_cls(pairs).support
                want = plain_merge(meta_cls, pairs, tol)
                assert _view(got) == _view(want)
                merges += len(got) == 1
    assert merges > 2 * len(entries)  # not only each entry with itself
    # three entries, the middle one close to either neighbour or to neither
    rng = np.random.default_rng(7)
    for _ in range(400):
        picks = [entries[int(k)] for k in rng.integers(0, len(entries), 3)]
        pairs = tuple(zip(picks, (low, side.peak, low)))
        assert _view(meta_cls(pairs).support) == _view(plain_merge(meta_cls, pairs, tol))


@pytest.mark.parametrize("raw", TOLERANCES)
def test_the_merge_reject_changes_no_drawn_merge(monkeypatch, raw):
    # drawn metas and third levels: entries of metas are never pre-rejected
    tol = _set_tolerance(monkeypatch, raw)
    space = FiniteSpace(("a", "b"))
    for seed in range(60):
        rng = trial_stream(seed, 0, tag=31)
        for meta_cls, draw in (
            (MetaDensity, lambda: random_maxplus_density(rng, space, min_weight=-1.0)),
            (MetaTimesDensity, lambda: random_maxtimes_density(rng, space)),
            (MetaPossibility, lambda: random_possibility_profile(rng, space)),
            (ThirdLevel, lambda: random_meta(rng, space, max_support=2)),
        ):
            lows = rng.uniform(0.3, 0.9, 3).tolist()
            if meta_cls.side is MAXPLUS:
                lows = [-w for w in lows]
            pairs = tuple((draw(), w) for w in (meta_cls.side.peak, *lows))
            assert _view(meta_cls(pairs).support) == _view(plain_merge(meta_cls, pairs, tol))


def test_the_merge_reject_skips_the_comparison(monkeypatch):
    calls = []
    real = measures._close
    monkeypatch.setattr(measures, "_close", lambda a, b, tol: calls.append(1) or real(a, b, tol))
    apart = MaxPlusDensity(ABC, {"a": -1.0, "b": 0.0, "c": 0.0})
    tied = MaxPlusDensity(CBA, {"a": 0.0, "b": 0.0, "c": -1.0})
    base = MaxPlusDensity(ABC, {"a": 0.0, "b": 0.0, "c": 0.0})
    MetaDensity(((base, 0.0), (apart, -1.0)))
    assert calls == []  # apart at a, the first label of the merge's space
    MetaDensity(((base, 0.0), (tied, -1.0)))
    assert calls == [1]  # tied at a: _close decides, and finds c apart
    calls.clear()
    MetaDensity(((base, 0.0), (MaxPlusDensity.from_vector(ABC, [-1.0, 0.0, 0.0]), -1.0)))
    assert calls == [1]  # a vector-built entry is compared in full


def _weights_view(f):
    return [(p, type(w), repr(w)) for p, w in f.weights.items()]


@pytest.mark.parametrize(
    "draw, peak, knobs",
    [
        (
            random_maxplus_density,
            0.0,
            [{}, {"bottom_rate": 0.0}, {"bottom_rate": 1.0}, {"min_weight": 0.0}],
        ),
        (random_maxtimes_density, 1.0, [{}, {"zero_rate": 0.0}, {"zero_rate": 1.0}]),
        (random_possibility_profile, 1.0, [{}, {"zero_rate": 0.0}, {"zero_rate": 1.0}]),
    ],
    ids=["max-plus", "max-times", "profile"],
)
def test_drawn_densities_are_the_constructors(draw, peak, knobs):
    # both sides of ARRAY_MIN_POINTS; below it the drawers skip the range checks
    for n in range(1, 71):
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        for seed in range(20):
            kw = knobs[seed % len(knobs)]
            d = draw(trial_stream(seed, n, tag=31), space, **kw)
            built = type(d)(space, dict(d.weights))
            assert repr(d) == repr(built)
            assert _weights_view(d) == _weights_view(built)
            top = max(d.weights.values())
            assert repr(top) == repr(peak)


@pytest.mark.parametrize("n", [3, 70])
def test_a_bad_min_weight_still_raises(n):
    # numpy's uniform refuses it before any weight is built
    space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
    for bad, error, text in (
        (-math.inf, OverflowError, "high - low range exceeds valid bounds"),
        (math.nan, OverflowError, "high - low range exceeds valid bounds"),
        (5.0, ValueError, "high - low < 0"),
    ):
        with pytest.raises(error, match=text):
            random_maxplus_density(np.random.default_rng(0), space, min_weight=bad)


def constructor_dirac(x, space, side):
    """dirac's body through the label-dict constructor."""
    if x not in space:
        raise ValueError(f"unknown point {x!r}")
    weights = {p: side.peak if p == x else side.bottom for p in space.points}
    return DENSITIES[side.kind](space, weights)


def constructor_pushforward(g, f):
    """pushforward's loop body through the label-dict constructor."""
    weights = dict.fromkeys(g.target.points, f.side.bottom)
    for x, w in f.weights.items():
        y = g.assignment[x]
        if w > weights[y]:
            weights[y] = w
    return type(f)(g.target, weights)


@pytest.mark.parametrize("side", [MAXPLUS, MAXTIMES], ids=["max-plus", "max-times"])
def test_dirac_is_the_constructors(side):
    for space in (ABC, CBA, FiniteSpace(("x",)), FiniteSpace(tuple(f"p{i}" for i in range(70)))):
        for x in space.points:
            assert repr(dirac(x, space, side)) == repr(constructor_dirac(x, space, side))
    with pytest.raises(ValueError, match="unknown point 'z'"):
        dirac("z", ABC, side)


def test_small_pushforward_is_the_constructors():
    spaces = [ABC, CBA, FiniteSpace(("a", "b")), FiniteSpace(("d", "e", "f", "g"))]
    densities = [
        MaxPlusDensity(ABC, {"a": -0.0, "b": 0.0, "c": -math.inf}),  # a signed zero first
        MaxPlusDensity(CBA, {"a": 0.0, "b": -0.0, "c": -1.0}),
        MaxTimesDensity(ABC, {"a": 1.0 - 1e-13, "b": 0.0, "c": 0.5}),  # a peak within the slack
        PossibilityProfile(CBA, {"a": 0.25, "b": 1.0, "c": 0.0}),
    ]
    for seed in range(200):
        rng = trial_stream(seed, 0, tag=32)
        for draw in (random_maxplus_density, random_maxtimes_density, random_possibility_profile):
            densities.append(draw(rng, spaces[seed % 4]))
    for k, f in enumerate(densities):
        for target in spaces:
            g = random_point_map(trial_stream(k, 1, tag=32), f.space, target)
            got, want = pushforward(g, f), constructor_pushforward(g, f)
            assert type(got) is type(want)
            assert repr(got) == repr(want)
    bad = PointMap(ABC, ABC, {"a": "a", "b": "z", "c": "a"})
    with pytest.raises(ValueError, match="invalid point map"):
        pushforward(bad, densities[0])


def _same_table(got: Capacity, want: Capacity) -> bool:
    return (
        got.space == want.space
        and got.table.dtype == want.table.dtype
        and got.table.tobytes() == want.table.tobytes()
        and not got.table.flags.writeable
    )


def test_capacities_from_checked_parts_are_the_constructors():
    # random_capacity and capacity_from_profile skip the table checks; the
    # constructor accepts each table they build and keeps it bit for bit
    for n in range(1, 17):
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        for seed in range(2):
            rng = trial_stream(seed, n, tag=33)
            c = random_capacity(rng, space)
            assert _same_table(c, Capacity(space, c.table))
            for profile in (
                random_possibility_profile(rng, space),
                random_possibility_profile(rng, space, quantum=4),
            ):
                c = capacity_from_profile(profile)
                assert _same_table(c, Capacity(space, c.table))
    # a peak within the slack, and a signed zero
    within = PossibilityProfile(ABC, {"a": 1.0 - 1e-13, "b": -0.0, "c": 0.5})
    c = capacity_from_profile(within)
    assert _same_table(c, Capacity(ABC, c.table))
    assert c.table[-1] == 1.0 - 1e-13


class _ZeroDraws:
    """A generator whose uniform draws are all 0."""

    def uniform(self, low, high, size):
        return np.zeros(size)


def test_a_capacity_draw_at_0_still_raises():
    # every draw 0 leaves no top to divide by: the constructor refuses the
    # quotients, as it did before the draws skipped it
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"^capacity values must lie in \[0, 1\]$"):
        random_capacity(_ZeroDraws(), ABC)
    with pytest.raises(RuntimeWarning, match="invalid value encountered in divide"):
        random_capacity(_ZeroDraws(), ABC)


def test_only_a_profile_skips_the_capacity_checks():
    # another density's expansion is not a capacity; the constructor says so
    with pytest.raises(ValueError, match=r"^capacity of the whole space is 0.0, expected 1$"):
        capacity_from_profile(MaxPlusDensity(ABC, {"a": 0.0, "b": -1.0, "c": -math.inf}))


def test_a_capacity_too_large_is_refused_before_its_draws():
    with pytest.raises(ValueError, match=r"^capacity tables support at most 20 points$"):
        random_capacity(None, FiniteSpace(tuple(f"p{i}" for i in range(21))))
