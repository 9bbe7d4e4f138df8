"""The private builders behind the shrinker and the drop-weight mutation
(`Meta._from_checked`, `Density._from_checked`, `Density._divided`) against the public
constructors and `normalize`: on every input they are given, they build the
same object or refuse with the same text.  A nested shrink holds a new
entry and is built by the constructor, so it merges as every meta does."""

from __future__ import annotations

import pytest

from idemkit import laws
from idemkit.generate import random_third, random_third_times
from idemkit.laws import drop_weight, run_suite
from idemkit.measures import (
    Density,
    MaxPlusDensity,
    MaxTimesDensity,
    Meta,
    MetaDensity,
    MetaTimesDensity,
    ThirdLevel,
    ThirdLevelTimes,
    multiply,
    normalize,
)
from idemkit.seeding import trial_stream
from idemkit.semiring import BOTTOM
from idemkit.spaces import FiniteSpace

AB = FiniteSpace(("a", "b"))

# the drop-weight runs whose report hashes tests/test_golden_reports.py pins
PINNED_DROP_WEIGHT_RUNS = [
    ("unit", 100, 0), ("unit", 100, 1), ("assoc", 100, 0), ("assoc", 100, 1),
    ("unit", 300, 42), ("assoc", 300, 42),
]


def _outcome(build, *args):
    try:
        return "built", build(*args)
    except ValueError as exc:
        return "refused", str(exc)


def _meta_view(F):
    """A meta as its support: entry identities and weight reprs, in order."""
    return [(id(e), repr(w)) for e, w in F.support]


def _density_view(f):
    return type(f), f.space, [(p, repr(w)) for p, w in f.weights.items()]


def _assert_same(got, want, view):
    assert got[0] == want[0]
    if got[0] == "refused":
        assert got[1] == want[1]
    else:
        assert view(got[1]) == view(want[1])


class Spies:
    """Every call of the builders, checked against the public counterpart
    as it is made; `seen` counts the calls by builder and outcome.  The
    counterpart runs the real builders (normalize reaches `_divided`)."""

    def __init__(self, monkeypatch):
        self.seen: dict[tuple[str, str], int] = {}
        self.in_reference = False
        self.spy(monkeypatch, Meta, "_from_checked", "meta", _meta_view,
                 lambda cls, pairs: cls(pairs))
        self.spy(monkeypatch, Density, "_from_checked", "density", _density_view,
                 lambda cls, space, weights: cls(space, weights))
        self.spy(monkeypatch, Density, "_divided", "divided", _density_view,
                 lambda cls, space, weights: normalize(space, weights, cls.side))

    def spy(self, monkeypatch, owner, name, builder, view, public):
        real = getattr(owner, name).__func__

        def checked(cls, *args):
            if self.in_reference:
                return real(cls, *args)
            got = _outcome(real, cls, *args)
            self.in_reference = True
            try:
                want = _outcome(public, cls, *args)
            finally:
                self.in_reference = False
            _assert_same(got, want, view)
            key = (builder, got[0])
            self.seen[key] = self.seen.get(key, 0) + 1
            if got[0] == "refused":
                raise ValueError(got[1])
            return got[1]

        monkeypatch.setattr(owner, name, classmethod(checked))


def _nested(F):
    """The nested shrinks that `_meta_shrinks(F)` yields, F of two or more
    entries, each as (i, pairs, got): `got`, built by the constructor from
    `pairs`, F's support with entry i replaced by a shrink of it."""
    sup, built = F.support, []
    init = Meta.__init__

    def recording(self, support):
        init(self, support)
        built.append((support, self))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Meta, "__init__", recording)
        shrinks = list(laws._meta_shrinks(F))
    for pairs, got in built:
        new = [k for k, ((e, _), (f, _)) in enumerate(zip(pairs, sup)) if e is not f]
        if len(pairs) == len(sup) and len(new) == 1 and any(got is c for c in shrinks):
            yield new[0], pairs, got


def test_builders_agree_with_the_constructors_on_the_pinned_runs(monkeypatch):
    spies = Spies(monkeypatch)
    for suite, trials, seed in PINNED_DROP_WEIGHT_RUNS:
        assert not run_suite(suite, trials, seed, mutate="drop-weight").ok
    seen = spies.seen
    # every builder is reached, and drop-weight loses the peak of many metas
    assert seen[("meta", "built")] > 8_000
    assert seen[("meta", "refused")] > 1_000
    assert seen[("density", "built")] > 10_000
    assert seen[("divided", "built")] > 1_000


@pytest.mark.parametrize("tol", ["0.3", "1.5"])
def test_nested_shrinks_merge_as_the_constructor_does_at_a_coarse_tolerance(monkeypatch, tol):
    # at the default tolerance a shrunk inner meta is almost never close to
    # a sibling; a coarse one on two points makes both merges common: the
    # new entry folds into an earlier sibling or absorbs a later one.  The
    # drop-entry builds are checked against the constructor all the while.
    monkeypatch.setenv("IDEMKIT_TOLERANCE", tol)
    Spies(monkeypatch)
    merges = {"fold": 0, "absorb": 0}
    for i in range(100):
        for draw in (random_third, random_third_times):
            F = draw(trial_stream(2207, i), AB)
            for k, pairs, got in _nested(F) if len(F.support) > 1 else ():
                if len(got.support) < len(pairs):
                    kept = any(e is pairs[k][0] for e, _ in got.support)
                    merges["absorb" if kept else "fold"] += 1
    assert merges["fold"] >= 5 and merges["absorb"] >= 5, merges


def _inner_metas(meta, density):
    """Three inner metas on AB: `single` holds one density, `double` holds
    it and a second one, so dropping the second from `double` leaves a meta
    close to `single`, and `other` is close to neither shrink of `double`."""
    hi, lo = density.side.peak, (-1.0 if density is MaxPlusDensity else 0.5)
    d1 = density(AB, {"a": hi, "b": lo})
    d2 = density(AB, {"a": lo, "b": hi})
    d3 = density(AB, {"a": hi, "b": hi})
    return meta(((d1, hi),)), meta(((d1, hi), (d2, lo))), meta(((d3, hi),))


@pytest.mark.parametrize(
    "third, meta, density, weights",
    [
        (ThirdLevel, MetaDensity, MaxPlusDensity, (-2.0, -0.5, 0.0)),
        (ThirdLevelTimes, MetaTimesDensity, MaxTimesDensity, (0.25, 0.75, 1.0)),
    ],
)
def test_a_shrunk_inner_meta_folds_into_an_earlier_sibling_or_absorbs_a_later_one(
    third, meta, density, weights
):
    single, double, other = _inner_metas(meta, density)
    low, mid, top = weights
    layouts = {
        # the shrunk `double` is close to `single`, before it
        "earlier": third(((single, low), (other, mid), (double, top))),
        "earlier, lighter": third(((single, top), (other, mid), (double, low))),
        # and after it, with `other` between them
        "later": third(((double, low), (other, mid), (single, top))),
        "later, lighter": third(((double, top), (other, low), (single, mid))),
    }
    for name, F in layouts.items():
        i = next(k for k, (e, _) in enumerate(F.support) if e is double)
        shrunk = [(pairs, got) for k, pairs, got in _nested(F) if k == i]
        assert shrunk, name
        assert sum(len(got.support) < len(pairs) for pairs, got in shrunk) == 1, name
    # the fold keeps the earlier entry, the absorption the new one
    (pairs, got), = [(p, g) for k, p, g in _nested(layouts["earlier"]) if len(g.support) == 2]
    assert got.support[0][0] is single and repr(got.support[0][1]) == repr(top)
    (pairs, got), = [(p, g) for k, p, g in _nested(layouts["later"]) if len(g.support) == 2]
    assert got.support[0][0] is pairs[0][0] and repr(got.support[0][1]) == repr(top)
    assert got.support[1][0] is other


def test_drop_weight_refuses_a_meta_whose_last_entry_holds_the_peak():
    f1 = MaxPlusDensity(AB, {"a": 0.0, "b": BOTTOM})
    f2 = MaxPlusDensity(AB, {"a": BOTTOM, "b": 0.0})
    F = MetaDensity(((f1, -1.0), (f2, 0.0)))
    text = "peak support weight is -1.0, expected 0.0"
    with pytest.raises(ValueError, match=f"^{text}$"):
        MetaDensity(F.support[:-1])
    with pytest.raises(ValueError, match=f"^{text}$"):
        drop_weight(multiply)(F)


def _refusals(build, public):
    """The texts with which a builder and its public counterpart, each
    called without arguments, refuse."""
    got, want = _outcome(build), _outcome(public)
    assert got[0] == want[0] == "refused"
    return got[1], want[1]


def test_the_builders_refuse_corrupted_input_with_the_constructors_text():
    f1 = MaxPlusDensity(AB, {"a": 0.0, "b": -3.0})
    f2 = MaxPlusDensity(AB, {"a": -3.0, "b": 0.0})
    # a lost peak, on either side
    pairs = ((f1, -1.0), (f2, -2.0))
    got, want = _refusals(lambda: MetaDensity._from_checked(pairs), lambda: MetaDensity(pairs))
    assert got == want == "peak support weight is -1.0, expected 0.0"
    t1 = MaxTimesDensity(AB, {"a": 1.0, "b": 0.5})
    pairs = ((t1, 0.5),)
    got, want = _refusals(
        lambda: MetaTimesDensity._from_checked(pairs), lambda: MetaTimesDensity(pairs)
    )
    assert got == want == "peak support weight is 0.5, expected 1.0"
    # a density whose peak misses: the builder checks only the peak (its
    # callers keep every weight in range), and the constructor then names
    # the first fault, a weight above the top before the peak itself
    cases = [
        (MaxTimesDensity, {"a": 0.5, "b": 1 - 2e-12},
         "peak weight is 0.999999999998 at point 'b', expected 1.0 (use normalize)"),
        (MaxPlusDensity, {"a": 0.25, "b": 0.5}, "weight 0.25 outside [-inf, 0.0] at point 'a'"),
        (MaxTimesDensity, {"a": 1.0, "b": 1.5}, "weight 1.5 outside [0.0, 1.0] at point 'b'"),
    ]
    for density, weights, text in cases:
        got, want = _refusals(
            lambda: density._from_checked(AB, weights), lambda: density(AB, weights)
        )
        assert got == want == text
    # a restriction whose weights are all at bottom
    a = FiniteSpace(("a",))
    for density, bottom in ((MaxPlusDensity, BOTTOM), (MaxTimesDensity, 0.0)):
        got, want = _refusals(
            lambda: density._divided(a, {"a": bottom}),
            lambda: normalize(a, {"a": bottom}, density.side),
        )
        assert got == want == f"cannot normalize: every weight is {bottom!r}"
    # and through the shrinker, which skips the restriction
    g = MaxPlusDensity(AB, {"a": 0.0, "b": BOTTOM})
    assert [h.space.points for h in laws._point_drops(g)] == [("a",)]
    # a new entry on another space, first or not, which only the
    # constructor, the builder of every nested shrink, is given
    elsewhere = MaxPlusDensity(FiniteSpace(("a", "c")), {"a": 0.0, "c": -1.0})
    for pairs in [
        ((elsewhere, 0.0), (f1, -1.0), (f2, -2.0)),
        ((f1, 0.0), (elsewhere, -1.0), (f2, -2.0)),
    ]:
        with pytest.raises(ValueError, match="^support entries live on different spaces$"):
            MetaDensity(pairs)
