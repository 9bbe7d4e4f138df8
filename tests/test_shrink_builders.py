"""The private builders behind the shrinker and the drop-weight mutation
(`Meta._from_checked`, `Density._from_checked`, `Density._divided`) against the public
constructors and `normalize`: on every input they are given, they build the
same object or refuse with the same text."""

from __future__ import annotations

import weakref

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
    as it is made; `seen` counts the calls by builder and outcome, and
    `merges` the nested shrinks whose new entry folds into an earlier
    sibling or absorbs a later one.  The new entry of a nested shrink is
    its one entry built by `Meta._from_checked` (`made`), so `merges` counts
    only the shrinks of metas built by the public constructors.  The
    counterpart runs the real builders (normalize reaches `_divided`)."""

    def __init__(self, monkeypatch):
        self.seen: dict[tuple[str, str], int] = {}
        self.merges = {"fold": 0, "absorb": 0}
        self.made = weakref.WeakSet()
        self.in_reference = False
        self.spy(monkeypatch, Meta, "_from_checked", "meta", _meta_view,
                 lambda cls, pairs, merge=False: cls(pairs))
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
            if builder == "meta":
                self.count_merge(got[1], *args)
            return got[1]

        monkeypatch.setattr(owner, name, classmethod(checked))

    def count_merge(self, built, pairs, merge=False):
        new = [e for e, _ in pairs if e in self.made]
        if merge and len(new) == 1 and len(built.support) < len(pairs):
            kept = any(e is new[0] for e, _ in built.support)
            self.merges["absorb" if kept else "fold"] += 1
        self.made.add(built)


def test_builders_agree_with_the_constructors_on_the_pinned_runs(monkeypatch):
    spies = Spies(monkeypatch)
    for suite, trials, seed in PINNED_DROP_WEIGHT_RUNS:
        assert not run_suite(suite, trials, seed, mutate="drop-weight").ok
    seen = spies.seen
    # every builder is reached, and drop-weight loses the peak of many metas
    assert seen[("meta", "built")] > 10_000
    assert seen[("meta", "refused")] > 1_000
    assert seen[("density", "built")] > 10_000
    assert seen[("divided", "built")] > 1_000


@pytest.mark.parametrize("tol", ["0.3", "1.5"])
def test_nested_shrinks_merge_as_the_constructor_does_at_a_coarse_tolerance(monkeypatch, tol):
    # at the default tolerance a shrunk inner meta is almost never close to
    # a sibling; a coarse one on two points makes both merges common
    monkeypatch.setenv("IDEMKIT_TOLERANCE", tol)
    spies = Spies(monkeypatch)
    for i in range(100):
        for draw in (random_third, random_third_times):
            for _ in laws._meta_shrinks(draw(trial_stream(2207, i), AB)):
                pass
    assert spies.merges["fold"] >= 5 and spies.merges["absorb"] >= 5, spies.merges


def _inner_metas(meta, density):
    """Three inner metas on AB: `single` holds one density, `double` holds
    it and a second one, so dropping the second from `double` leaves a meta
    close to `single`, and `other` is close to neither shrink of `double`."""
    hi, lo = density.side.peak, (-1.0 if density is MaxPlusDensity else 0.5)
    d1 = density(AB, {"a": hi, "b": lo})
    d2 = density(AB, {"a": lo, "b": hi})
    d3 = density(AB, {"a": hi, "b": hi})
    return meta(((d1, hi),)), meta(((d1, hi), (d2, lo))), meta(((d3, hi),))


def _nested(F, i):
    """The nested shrinks of entry i of F, as `_meta_shrinks` yields them,
    each beside the pairs it was built from."""
    sup = F.support
    for cand in laws._meta_shrinks(sup[i][0], True):
        pairs = tuple((cand if k == i else e, w) for k, (e, w) in enumerate(sup))
        yield pairs, type(F)._from_checked(pairs, True)


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
        shrunk = list(_nested(F, i))
        assert shrunk, name
        merged = 0
        for pairs, got in shrunk:
            want = third(pairs)
            assert _meta_view(got) == _meta_view(want), name
            merged += len(got.support) < len(pairs)
        assert merged == 1, name
    # the fold keeps the earlier entry, the absorption the new one
    (pairs, got), = [(p, g) for p, g in _nested(layouts["earlier"], 2) if len(g.support) == 2]
    assert got.support[0][0] is single and repr(got.support[0][1]) == repr(top)
    (pairs, got), = [(p, g) for p, g in _nested(layouts["later"], 0) if len(g.support) == 2]
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
    # a new entry on another space, first or not
    elsewhere = MaxPlusDensity(FiniteSpace(("a", "c")), {"a": 0.0, "c": -1.0})
    for pairs in [
        ((elsewhere, 0.0), (f1, -1.0), (f2, -2.0)),
        ((f1, 0.0), (elsewhere, -1.0), (f2, -2.0)),
    ]:
        got, want = _refusals(
            lambda: MetaDensity._from_checked(pairs, True), lambda: MetaDensity(pairs)
        )
        assert got == want == "support entries live on different spaces"
