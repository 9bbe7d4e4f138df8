import json
import re
from pathlib import Path

import numpy as np
import pytest

from idemkit import generate, laws
from idemkit.capacities import MetaPossibility, PossibilityProfile
from idemkit.convexity import index_space
from idemkit.generate import (
    random_maxplus_density,
    random_maxtimes_density,
    random_possibility_profile,
)
from idemkit.laws import (
    SUITES,
    SWEEP_STEPS,
    drop_weight,
    run_all,
    run_suite,
    suite_names,
    sweep_grid,
    swept_capacity_value,
)
from idemkit.measures import (
    MaxPlusDensity,
    MaxTimesDensity,
    MetaDensity,
    MetaTimesDensity,
    ThirdLevel,
    ThirdLevelTimes,
    multiply,
    normalize,
)
from idemkit.seeding import trial_stream
from idemkit.semiring import BOTTOM
from idemkit.spaces import FiniteSpace, RealFunction

AB = FiniteSpace(("a", "b"))

DATA = Path(__file__).parent / "data"


def test_every_suite_passes_a_short_run():
    for name in suite_names():
        report = run_suite(name, trials=10, seed=0)
        assert report.ok, (name, report.failures)
        assert report.suite == name
        assert report.trials == 10


def test_reports_are_deterministic_per_seed():
    a = run_suite("assoc", trials=15, seed=42)
    b = run_suite("assoc", trials=15, seed=42)
    assert a.to_doc() == b.to_doc()
    mutated_a = run_suite("unit", trials=15, seed=42, mutate="drop-weight")
    mutated_b = run_suite("unit", trials=15, seed=42, mutate="drop-weight")
    assert mutated_a.to_doc() == mutated_b.to_doc()


def test_mutation_breaks_unit_and_assoc():
    unit = run_suite("unit", trials=40, seed=0, mutate="drop-weight")
    assert not unit.ok
    assoc = run_suite("assoc", trials=40, seed=0, mutate="drop-weight")
    assert not assoc.ok
    for report in (unit, assoc):
        first = report.failures[0]
        assert first.description
        assert first.witness


def test_mutation_witnesses_are_minimized():
    report = run_suite("unit", trials=40, seed=0, mutate="drop-weight")
    witness = report.failures[0].witness
    values = witness["values"]
    # a single further shrink must make the failure vanish: one-point
    # densities satisfy the mutated unit laws, so minimized witnesses keep
    # exactly two live points
    assert len(values) == 2


def test_drop_weight_discards_a_support_entry():
    f1 = MaxPlusDensity(AB, {"a": 0.0, "b": BOTTOM})
    f2 = MaxPlusDensity(AB, {"a": BOTTOM, "b": 0.0})
    F = MetaDensity(((f1, 0.0), (f2, -1.0)))
    corrupted = drop_weight(multiply)
    assert corrupted(F).weights != multiply(F).weights
    single = MetaDensity(((f1, 0.0),))
    assert corrupted(single).weights == multiply(single).weights


def test_unknown_suite_and_mutation_are_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", trials=1, seed=0)
    with pytest.raises(ValueError):
        run_suite("unit", trials=1, seed=0, mutate="scramble")
    with pytest.raises(ValueError):
        run_suite("unit", trials=0, seed=0)


def test_run_all_covers_every_suite():
    reports = run_all(trials=2, seed=0)
    assert [r.suite for r in reports] == suite_names()
    assert all(r.ok for r in reports)


def test_suite_registry_descriptions():
    assert set(SUITES) == set(suite_names())
    for spec in SUITES.values():
        assert spec.law and spec.law[0].islower()


def test_trial_streams_are_stable_and_disjoint():
    a = trial_stream(0, 0).uniform(size=4)
    b = trial_stream(0, 0).uniform(size=4)
    assert np.array_equal(a, b)
    c = trial_stream(0, 1).uniform(size=4)
    d = trial_stream(1, 0).uniform(size=4)
    e = trial_stream(0, 0, tag=1).uniform(size=4)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def _inner_densities(witness):
    return sum(len(entry["meta"]["support"]) for entry in witness["support"])


def test_drop_weight_witnesses_match_the_recorded_ones():
    # recorded at 100 trials, seed 0, while each side had its own shrinkers;
    # since then the max-times third level also shrinks its inner metas, as
    # the max-plus one always did, so only max-times assoc witnesses may move
    recorded = json.loads((DATA / "drop_weight_seed0_100.json").read_text())
    unit = run_suite("unit", trials=100, seed=0, mutate="drop-weight")
    assert unit.to_doc() == recorded["unit"]

    failures = run_suite("assoc", trials=100, seed=0, mutate="drop-weight").to_doc()["failures"]
    assert [[f["trial"], f["description"]] for f in failures] == recorded["assoc"]["failures"]
    plus = [f for f in failures if "max-plus" in f["description"]]
    assert plus == recorded["assoc"]["maxplus_failures"]
    before = recorded["assoc"]["maxtimes_inner_densities"]
    after = {
        str(f["trial"]): _inner_densities(f["witness"])
        for f in failures
        if "max-times" in f["description"]
    }
    assert after.keys() == before.keys()
    assert all(after[t] <= before[t] for t in before)
    assert sum(after.values()) < sum(before.values())


def test_inner_metas_beside_other_entries_are_not_restricted(monkeypatch):
    # an inner meta shrunk by dropping a point would leave its siblings'
    # space, so the shrinker only tries that when the meta stands alone
    abc = FiniteSpace(("a", "b", "c"))
    m1 = MetaDensity(((MaxPlusDensity(abc, {"a": 0.0, "b": -1.0, "c": -2.0}), 0.0),))
    m2 = MetaDensity(((MaxPlusDensity(abc, {"a": -2.0, "b": 0.0, "c": -1.0}), 0.0),))
    restricted = []
    real = laws._restrict

    def counting(x, smaller):
        restricted.append(type(x))
        return real(x, smaller)

    monkeypatch.setattr(laws, "_restrict", counting)
    pair = ThirdLevel(((m1, 0.0), (m2, -1.0)))
    candidates = list(laws._meta_shrinks(pair))
    # two entry drops, then the third level's own three point drops, each
    # restricting both inner metas
    assert [len(c.space) for c in candidates] == [3, 3, 2, 2, 2]
    assert restricted.count(MetaDensity) == 6

    restricted.clear()
    alone = ThirdLevel(((m1, 0.0),))
    candidates = list(laws._meta_shrinks(alone))
    # the inner meta's three point drops come first, then the outer ones
    assert [len(c.space) for c in candidates] == [2] * 6
    assert restricted.count(MetaDensity) == 6


def _level(rng, k, side):
    if side == "plus":
        draws = rng.uniform(-8.0, 0.0, k)
        return draws - draws.max()
    draws = rng.uniform(0.0, 1.0, k)
    return draws / draws.max() if draws.max() > 0 else np.ones(k)


def _density_as_before(rng, space, which):
    """The density generators as each drew its weights with its own code."""
    n = len(space)
    if which == "random_maxplus_density":
        finite = rng.random(n) >= 0.25
        if not finite.any():
            finite[int(rng.integers(0, n))] = True
        draws = rng.uniform(-8.0, 0.0, n)
        peak = draws[finite].max()
        return MaxPlusDensity(space, {
            p: float(draws[i]) - peak if finite[i] else BOTTOM for i, p in enumerate(space.points)
        })
    zero_rate = 0.25 if which == "random_maxtimes_density" else 0.2
    draws = rng.uniform(0.0, 1.0, n)
    draws[rng.random(n) < zero_rate] = 0.0
    if draws.max() <= 0.0:
        draws[int(rng.integers(0, n))] = 1.0
    peak = draws.max()
    cls = MaxTimesDensity if which == "random_maxtimes_density" else PossibilityProfile
    return cls(space, {p: float(v) / peak for p, v in zip(space.points, draws)})


def _drawn_as_before(rng, space, which):
    """The density and meta generators as each drew its value on its own:
    for a meta, the number of entries, then the weight level, then each
    entry."""
    if which.endswith(("density", "profile")):
        return _density_as_before(rng, space, which)
    cls, side, entry = {
        "random_meta": (
            MetaDensity, "plus", lambda: _drawn_as_before(rng, space, "random_maxplus_density")
        ),
        "random_meta_times": (
            MetaTimesDensity, "times",
            lambda: _drawn_as_before(rng, space, "random_maxtimes_density"),
        ),
        "random_meta_possibility": (
            MetaPossibility, "times", lambda: random_possibility_profile(rng, space, quantum=8)
        ),
        "random_third": (ThirdLevel, "plus", lambda: _drawn_as_before(rng, space, "random_meta")),
        "random_third_times": (
            ThirdLevelTimes, "times", lambda: _drawn_as_before(rng, space, "random_meta_times")
        ),
    }[which]
    k = int(rng.integers(1, 5))
    return cls(tuple((entry(), float(w)) for w in _level(rng, k, side)))


def test_meta_generators_draw_in_the_recorded_order():
    # the density generators, their entries, too
    for which in ("random_maxplus_density", "random_maxtimes_density",
                  "random_possibility_profile", "random_meta", "random_meta_times",
                  "random_meta_possibility", "random_third", "random_third_times"):
        kwargs = {"quantum": 8} if which == "random_meta_possibility" else {}
        for seed in range(25):
            space = FiniteSpace(tuple("abcdefgh"[: 1 + seed % 8]))
            new, old = trial_stream(8800, seed), trial_stream(8800, seed)
            got = getattr(generate, which)(new, space, **kwargs)
            assert repr(got) == repr(_drawn_as_before(old, space, which))
            assert new.random() == old.random()  # no draw more or less
    # the real functions and the generator sets, and the metas on the
    # index space of a generator set
    for seed in range(25):
        space, dim = FiniteSpace(tuple("abcdefgh"[: 1 + seed % 8])), 1 + seed % 4
        for which, arg, before in (
            ("random_real_function", space,
             lambda rng: RealFunction.from_vector(space, rng.uniform(-5.0, 5.0, len(space)))),
            ("random_generator_set", dim,
             lambda rng: rng.uniform(-4.0, 4.0, (int(rng.integers(2, 6)), dim))),
            ("random_meta_on_generators", 1 + seed % 5,
             lambda rng: _drawn_as_before(rng, index_space(1 + seed % 5), "random_meta")),
        ):
            new, old = trial_stream(8801, seed), trial_stream(8801, seed)
            got, ref = getattr(generate, which)(new, arg), before(old)
            if which == "random_generator_set":  # an array's repr rounds
                got, ref = got.points.tolist(), ref.tolist()
            assert repr(got) == repr(ref)
            assert new.random() == old.random()
    # the max-plus density is the draw of random_weight_vector
    space = FiniteSpace(tuple("abcde"))
    f = random_maxplus_density(trial_stream(8802, 0), space, -3.0, 0.5)
    w = generate.random_weight_vector(trial_stream(8802, 0), 5, -3.0, 0.5)
    assert f.weights == dict(zip(space.points, w.tolist()))


def _reprs(f):
    return [(p, repr(w)) for p, w in f.weights.items()]


def _density_shrinks_as_before(f):
    pts = f.space.points
    if len(pts) <= 1:
        return
    for drop in pts:
        rest = {p: w for p, w in f.weights.items() if p != drop}
        if all(w == f.side.bottom for w in rest.values()):
            continue
        yield normalize(FiniteSpace(tuple(p for p in pts if p != drop)), rest, f.side)


def test_density_shrinks_are_the_point_drops_of_metas():
    abc = FiniteSpace(("a", "b", "c"))
    cases = [
        MaxPlusDensity(abc, {"a": 0.0, "b": BOTTOM, "c": BOTTOM}),  # dropping a leaves only bottom
        MaxPlusDensity(abc, {"a": -1.0, "b": 0.0, "c": -0.0}),
        MaxTimesDensity(abc, {"a": 0.0, "b": 1.0, "c": 0.0}),
        MaxTimesDensity(abc, {"a": 0.5, "b": 1.0, "c": 0.25}),
        MaxPlusDensity(FiniteSpace(("a",)), {"a": 0.0}),
    ]
    for seed in range(40):
        space = FiniteSpace(tuple("abcde"[: 1 + seed % 5]))
        cases.append(random_maxplus_density(trial_stream(8803, seed), space))
        cases.append(random_maxtimes_density(trial_stream(8803, seed), space))
    for f in cases:
        got = [_reprs(g) for g in laws._point_drops(f)]
        assert got == [_reprs(g) for g in _density_shrinks_as_before(f)]
    assert [g.space.points for g in laws._point_drops(cases[0])] == [("a", "c"), ("a", "b")]


# the registry as the streams were first tagged: a renumbered tag changes
# every draw of its suite, yet a clean report only says "ok": true
REGISTERED = [
    ("unit", 10), ("assoc", 11), ("roundtrip", 12), ("functor", 13), ("s-iso", 14),
    ("l-iso", 15), ("repr", 16), ("charac", 17), ("shilkret", 18), ("possmult", 19),
    ("convexity", 20),
]


def test_suite_registry_is_pinned():
    assert [(name, spec.tag) for name, spec in SUITES.items()] == REGISTERED
    assert all(spec.name == name for name, spec in SUITES.items())
    # a second suite under a taken name or tag is refused at registration
    for name, tag in (("unit", 21), ("hull-iso", 20)):
        with pytest.raises(ValueError, match="already registered"):
            laws._suite(name, tag, "a law")(lambda rng, run: None)
    assert [(name, spec.tag) for name, spec in SUITES.items()] == REGISTERED


BAD_ARGUMENTS = [
    ({"mutate": "bogus"}, "unknown mutation 'bogus'"),
    ({"tol": float("nan")}, "tol must be finite and non-negative, got nan"),
    ({"tol": -1.0}, "tol must be finite and non-negative, got -1.0"),
    ({"tol": "x"}, "tol must be a number, got 'x'"),
    # capacity tables stop at 20 points, so the capacity suites would raise
    ({"max_space": 21}, "max-space must be at most 20"),
    # a suite name that is not a string, unhashable here, is an unknown suite
    ({"suite": ["unit"]}, "unknown suite ['unit']; available: unit, assoc"),
]


def _no_trial_may_run(monkeypatch):
    drawn = []
    monkeypatch.setattr(laws, "trial_stream", lambda *args, **kwargs: drawn.append(args))
    monkeypatch.setattr(laws, "trial_streams", lambda *args, **kwargs: drawn.append(args))
    return drawn


@pytest.mark.parametrize("name", [name for name, _ in REGISTERED] + ["all"])
def test_bad_arguments_raise_before_any_trial(monkeypatch, name):
    drawn = _no_trial_may_run(monkeypatch)

    def run(suite=name, **kwargs):
        if suite == "all":
            return run_all(trials=2, seed=0, **kwargs)
        return run_suite(suite, trials=2, seed=0, **kwargs)

    for kwargs, message in BAD_ARGUMENTS:
        with pytest.raises(ValueError, match=re.escape(message)):
            run(**kwargs)
    monkeypatch.setenv("IDEMKIT_TOLERANCE", "abc")
    with pytest.raises(ValueError, match="IDEMKIT_TOLERANCE must be a number, got 'abc'"):
        run()
    assert drawn == []


NON_INTEGERS = [
    ("trials", "3"), ("trials", True), ("trials", 3.0),
    ("max_space", "x"), ("max_space", 2.5), ("max_space", True),
    ("seed", 1.5), ("seed", "0"), ("seed", False),
]


@pytest.mark.parametrize("field, value", NON_INTEGERS)
def test_non_integer_arguments_raise_before_any_trial(monkeypatch, field, value):
    drawn = _no_trial_may_run(monkeypatch)
    kwargs = {"trials": 2, "seed": 0, "max_space": 3, field: value}
    message = f"{field.replace('_', '-')} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite("unit", **kwargs)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_all(**kwargs)
    assert drawn == []


def test_run_all_hands_every_trial_of_every_suite_one_run(monkeypatch):
    seen = []

    def trial(rng, run):
        seen.append(run)

    suites = {name: laws.SuiteSpec(name, tag, "", trial) for name, tag in (("a", 1), ("b", 2))}
    monkeypatch.setattr(laws, "SUITES", suites)
    reports = run_all(trials=3, seed=0, mutate="drop-weight", tol=1e-6)
    assert [(r.suite, r.trials, r.ok) for r in reports] == [("a", 3, True), ("b", 3, True)]
    assert len(seen) == 6 and all(run is seen[0] for run in seen)
    assert seen[0].tol == 1e-6


def test_numpy_integer_arguments_run_as_ints():
    report = run_suite("unit", trials=np.int64(3), seed=np.uint64(7), max_space=np.int32(4))
    assert report.to_doc() == run_suite("unit", trials=3, seed=7, max_space=4).to_doc()
    assert type(report.trials) is int and type(report.seed) is int
    json.dumps(report.to_doc())


@pytest.mark.parametrize("name", [name for name, _ in REGISTERED])
def test_every_suite_accepts_drop_weight(name):
    report = run_suite(name, trials=2, seed=0, mutate="drop-weight")
    assert report.suite == name and report.trials == 2


def test_random_space_refuses_more_points_than_labels():
    assert len(generate.random_space(trial_stream(8804, 0), 26, min_points=26)) == 26
    for max_points in (27, 40):
        with pytest.raises(ValueError, match=f"26 labels, asked for up to {max_points} points"):
            generate.random_space(trial_stream(8804, 0), max_points, min_points=max_points)


def _masks_in_order(space: FiniteSpace):
    """(mask, members) for every subset of the space, in mask order."""
    pts = space.points
    for mask in range(1 << len(pts)):
        yield mask, [p for i, p in enumerate(pts) if mask >> i & 1]


def test_breakpoint_reference_equals_the_sweep_exactly():
    # on profiles drawn on the sweep's grid the sweep sees every breakpoint,
    # so the two references give the same float on every subset, in mask order
    grid = sweep_grid(10_000)
    for i in range(200):
        rng = trial_stream(0, i, tag=60)
        space = generate.random_space(rng, 4)
        C = generate.random_meta_possibility(rng, space, quantum=10_000)
        reference = laws._breakpoint_values(C)
        assert reference.shape == (1 << len(space),)
        for mask, members in _masks_in_order(space):
            assert reference[mask] == swept_capacity_value(C, members, grid), (i, members)


def _nudged(C):
    """possibility_mult with every value strictly between 0 and 1 lowered by
    a relative 1e-12."""
    rho = multiply(C)
    v = rho.vector
    nudged = np.where((v == 0.0) | (v == 1.0), v, v * (1 - 1e-12))
    return PossibilityProfile.from_vector(rho.space, nudged)


def _summed(C):
    """possibility_mult with a sum over the support in place of the max,
    cut at 1."""
    profiles = np.array([pi.vector for pi, _ in C.support])
    weights = np.array([w for _, w in C.support])
    return PossibilityProfile.from_vector(C.space, np.minimum(1.0, weights @ profiles))


def test_possmult_reads_the_run_tolerance(monkeypatch):
    desc = "closed-form possibility multiplication misses the breakpoint reference"
    monkeypatch.setattr(laws, "possibility_mult", _nudged)
    assert run_suite("possmult", 200, 0).ok
    exact = run_suite("possmult", 200, 0, tol=0.0)
    assert len(exact.failures) > 50
    grid = sweep_grid()
    for failure in exact.failures[:20]:
        assert failure.description == desc
        assert set(failure.witness) == {"support", "subset"}
        # the first failing subset in mask order, as a subset-by-subset scan
        # against the sweep at the same tolerance finds it
        rng = trial_stream(0, failure.trial, tag=SUITES["possmult"].tag)
        space = generate.random_space(rng, 4)
        C = generate.random_meta_possibility(rng, space, quantum=SWEEP_STEPS)
        rho = _nudged(C)
        first = next(
            members for _, members in _masks_in_order(space)
            if max((rho(p) for p in members), default=0.0) != swept_capacity_value(C, members, grid)
        )
        assert failure.witness["subset"] == first
    monkeypatch.setattr(laws, "possibility_mult", _summed)
    summed = run_suite("possmult", 200, 0)
    assert len(summed.failures) > 50
    assert {f.description for f in summed.failures} == {desc}


@pytest.mark.parametrize("seed", range(10))
def test_possmult_is_exact_at_tol_0(seed):
    assert run_suite("possmult", 100, seed, tol=0.0).ok
