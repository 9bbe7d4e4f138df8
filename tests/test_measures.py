import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from idemkit import measures, spaces
from idemkit.capacities import PossibilityProfile
from idemkit.generate import (
    random_maxplus_density,
    random_maxtimes_density,
    random_meta,
    random_point_map,
    random_real_function,
    random_space,
    random_third,
    random_third_times,
    trial_stream,
)
from idemkit.isomorphism import density_exp, density_log
from idemkit.measures import (
    ARRAY_MIN_POINTS,
    MAXPLUS,
    MAXTIMES,
    MaxPlusDensity,
    MaxTimesDensity,
    MetaDensity,
    MetaTimesDensity,
    ThirdLevelTimes,
    check_associativity,
    check_associativity_times,
    check_unit_laws,
    check_unit_laws_times,
    density_close,
    density_from_functional,
    dirac,
    dirac_times,
    eval_measure,
    eval_measure_times,
    measure_multiplication,
    meta_pushforward,
    multiply,
    multiply_times,
    normalize_maxplus,
    normalize_maxtimes,
    pushforward,
    pushforward_times,
    times_close,
)
from idemkit.semiring import BOTTOM, is_bottom
from idemkit.spaces import (
    FiniteSpace,
    PointMap,
    Probe,
    RealFunction,
    UnitFunction,
    compose_maps,
    fn_max,
    fn_shift,
    in_point_order,
)

AB = FiniteSpace(("a", "b"))
ABC = FiniteSpace(("a", "b", "c"))
NOT_A_FLOAT = "float() argument must be a string or a real number, not 'NoneType'"
TOO_LARGE = "int too large to convert to float"


def plus_density(**weights):
    return MaxPlusDensity(FiniteSpace(tuple(weights)), weights)


def test_density_vector_is_a_stored_read_only_array_in_point_order():
    space = FiniteSpace(("b", "a", "c"))
    for f in (
        MaxPlusDensity(space, {"a": 0.0, "b": -1.5, "c": BOTTOM}),
        MaxTimesDensity(space, {"a": 1.0, "b": 0.25, "c": 0.0}),
    ):
        vec = f.vector
        assert vec.dtype == np.float64
        assert vec.tolist() == [f.weights[p] for p in space.points]
        assert f.vector is vec
        with pytest.raises(ValueError):
            vec[0] = 0.5


def test_density_constructor_rejects_unnormalized():
    with pytest.raises(ValueError):
        MaxPlusDensity(AB, {"a": -0.5, "b": -1.0})
    with pytest.raises(ValueError):
        MaxPlusDensity(AB, {"a": 0.5, "b": 0.0})
    with pytest.raises(ValueError):
        MaxPlusDensity(AB, {"a": BOTTOM, "b": BOTTOM})
    with pytest.raises(ValueError):
        MaxTimesDensity(AB, {"a": 0.5, "b": 0.2})


def test_normalize_helpers():
    f = normalize_maxplus(AB, {"a": -0.5, "b": -1.0})
    assert f.weights == {"a": 0.0, "b": -0.5}
    g = normalize_maxtimes(AB, {"a": 0.5, "b": 0.2})
    assert g.weights["a"] == 1.0 and abs(g.weights["b"] - 0.4) < 1e-15
    with pytest.raises(ValueError):
        normalize_maxplus(AB, {"a": BOTTOM, "b": BOTTOM})
    with pytest.raises(ValueError):
        normalize_maxtimes(AB, {"a": 0.0, "b": 0.0})


@pytest.mark.parametrize("side", (MAXPLUS, MAXTIMES), ids=("maxplus", "maxtimes"))
@pytest.mark.parametrize(
    "weights, message",
    [
        ({"a": math.nan, "b": -1.0}, "cannot normalize weight nan at point 'a': outside [{bottom}, inf)"),
        ({"a": math.inf, "b": 0.0}, "cannot normalize weight inf at point 'a': outside [{bottom}, inf)"),
        ({}, "missing weight for point 'a'"),
        ({"a": "x", "b": 0.5}, "could not convert string to float: 'x' at point 'a'"),
        ({"a": 0.5, "b": None}, f"{NOT_A_FLOAT} at point 'b'"),
        ({"a": 0.5, "b": 0.5, "z": math.nan}, "weights given for unknown points: ['z']"),
        ([0.5, 0.5], "weights must be a mapping, got list"),
    ],
)
def test_normalize_checks_each_weight_before_dividing(side, weights, message):
    with pytest.raises(ValueError) as info:
        measures.normalize(AB, weights, side)
    assert str(info.value) == message.format(bottom=side.bottom)


@pytest.mark.parametrize("side", (MAXPLUS, MAXTIMES), ids=("maxplus", "maxtimes"))
@pytest.mark.parametrize(
    "weights",
    [
        [0.5, 0.5],  # not a mapping
        {"a": 0.5, "b": 0.5, "z": 0.5},  # an unknown label
        {"a": 0.0},  # a missing weight
        {"a": "x", "b": 0.0},  # a weight that does not convert
        {"a": 0.0, "b": None},
    ],
    ids=("not-a-mapping", "unknown-label", "missing", "unconvertible", "none"),
)
def test_normalize_reads_its_weights_as_the_constructor_does(side, weights):
    # the faults both readers share have one text, the label-dict
    # constructor's; a weight read after the fault lies in both ranges
    with pytest.raises(ValueError) as expected:
        measures.DENSITIES[side.kind](AB, weights)
    with pytest.raises(ValueError) as info:
        measures.normalize(AB, weights, side)
    assert str(info.value) == str(expected.value)


def test_normalize_takes_bottom_only_on_the_plus_side():
    assert normalize_maxplus(AB, {"a": 0.5, "b": BOTTOM}).weights == {"a": 0.0, "b": BOTTOM}
    for w in (-1.0, BOTTOM):
        with pytest.raises(ValueError) as info:
            normalize_maxtimes(AB, {"a": w, "b": 0.5})
        assert str(info.value) == f"cannot normalize weight {w!r} at point 'a': outside [0.0, inf)"


def test_eval_measure_examples():
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -1.0})
    phi = RealFunction(AB, {"a": 2.0, "b": 5.0})
    assert eval_measure(f, phi) == 4.0
    assert eval_measure(dirac("a", AB), phi) == 2.0
    assert eval_measure(f, RealFunction.constant(AB, 0.0)) == 0.0


def test_eval_measure_times_examples():
    g = MaxTimesDensity(AB, {"a": 1.0, "b": 0.5})
    phi = UnitFunction(AB, {"a": 0.2, "b": 1.0})
    assert eval_measure_times(g, phi) == 0.5
    assert eval_measure_times(dirac_times("a", AB), phi) == 0.2
    assert eval_measure_times(g, UnitFunction.constant(AB, 1.0)) == 1.0


def test_eval_measure_space_mismatch():
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -1.0})
    with pytest.raises(ValueError):
        eval_measure(f, RealFunction.constant(ABC, 0.0))


def _dict_reduction(f, values):
    return max(f.side.otimes(w, values[p]) for p, w in f.weights.items())


def test_eval_measure_on_a_probe_equals_the_dict_reduction():
    values = {"a": 2.0, "b": -64.0, "c": 0.5}
    cab = FiniteSpace(("c", "a", "b"))
    for weights in (
        {"a": 0.0, "b": -1.0, "c": BOTTOM},
        {"a": BOTTOM, "b": 0.0, "c": BOTTOM},
        {"a": -0.25, "b": BOTTOM, "c": 0.0},
    ):
        f = MaxPlusDensity(ABC, weights)
        expected = _dict_reduction(f, values)
        assert eval_measure(f, RealFunction(ABC, values)) == expected
        assert eval_measure(f, Probe(ABC, [values[p] for p in ABC.points])) == expected
        # same labels listed in another order: the probe is read by label
        assert eval_measure(f, Probe(cab, [values[p] for p in cab.points])) == expected
    g = MaxTimesDensity(ABC, {"a": 1.0, "b": 0.0, "c": 0.5})
    unit = {"a": 0.25, "b": 1.0, "c": 0.75}
    assert eval_measure(g, Probe(cab, [unit[p] for p in cab.points])) == _dict_reduction(g, unit)
    for i in range(30):
        rng = trial_stream(310, i)
        space = random_space(rng, 6)
        f = random_maxplus_density(rng, space)
        phi = random_real_function(rng, space)
        backwards = FiniteSpace(space.points[::-1])
        expected = eval_measure(f, phi)
        assert expected == _dict_reduction(f, phi.values)
        assert eval_measure(f, Probe(space, [phi(p) for p in space.points])) == expected
        assert eval_measure(f, Probe(backwards, [phi(p) for p in backwards.points])) == expected


def test_eval_measure_is_an_idempotent_measure():
    # normalization, translation, and max-preservation on random instances
    for i in range(200):
        rng = trial_stream(101, i)
        space = random_space(rng, 6)
        f = random_maxplus_density(rng, space)
        phi = random_real_function(rng, space)
        psi = random_real_function(rng, space)
        lam = float(rng.uniform(-4.0, 4.0))
        assert abs(eval_measure(f, RealFunction.constant(space, 1.0)) - 1.0) <= 1e-12
        assert abs(eval_measure(f, fn_shift(phi, lam)) - (lam + eval_measure(f, phi))) <= 1e-12
        joined = eval_measure(f, fn_max(phi, psi))
        assert abs(joined - max(eval_measure(f, phi), eval_measure(f, psi))) <= 1e-12


def test_eval_measure_times_is_a_times_measure():
    for i in range(200):
        rng = trial_stream(102, i)
        space = random_space(rng, 6)
        g = random_maxtimes_density(rng, space)
        phi = UnitFunction.from_vector(space, rng.uniform(0.0, 1.0, len(space)))
        psi = UnitFunction.from_vector(space, rng.uniform(0.0, 1.0, len(space)))
        lam = float(rng.uniform(0.0, 1.0))
        assert abs(eval_measure_times(g, UnitFunction.constant(space, 1.0)) - 1.0) <= 1e-12
        scaled = UnitFunction.from_vector(space, lam * phi.vector)
        assert abs(eval_measure_times(g, scaled) - lam * eval_measure_times(g, phi)) <= 1e-12
        joined = eval_measure_times(g, fn_max(phi, psi))
        assert (
            abs(joined - max(eval_measure_times(g, phi), eval_measure_times(g, psi))) <= 1e-12
        )


def test_density_from_functional_examples():
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -1.0})
    recovered = density_from_functional(lambda phi: eval_measure(f, phi), AB, 10.0)
    assert recovered.weights == {"a": 0.0, "b": -1.0}

    d = dirac("a", AB)
    rd = density_from_functional(lambda phi: eval_measure(d, phi), AB, 10.0)
    assert rd.weights["a"] == 0.0 and is_bottom(rd.weights["b"])

    g = MaxPlusDensity(AB, {"a": 0.0, "b": BOTTOM})
    rg = density_from_functional(lambda phi: eval_measure(g, phi), AB, 10.0)
    assert is_bottom(rg.weights["b"])


def test_density_from_functional_rejects_bad_bound():
    with pytest.raises(ValueError):
        density_from_functional(lambda phi: 0.0, AB, 0.0)
    for bound in (-1.0, math.inf, math.nan, "x", None, 10**400):
        with pytest.raises(ValueError, match="bound"):
            density_from_functional(lambda phi: 0.0, AB, bound)


def test_dirac_examples():
    d = dirac("a", AB)
    assert d.weights == {"a": 0.0, "b": BOTTOM}
    assert dirac_times("a", AB).weights == {"a": 1.0, "b": 0.0}
    with pytest.raises(ValueError):
        dirac("z", AB)
    g = PointMap(AB, ABC, {"a": "c", "b": "b"})
    assert density_close(pushforward(g, d), dirac("c", ABC), 0.0)


def test_pushforward_examples():
    src = FiniteSpace(("a", "b", "c"))
    tgt = FiniteSpace(("u", "v"))
    g = PointMap(src, tgt, {"a": "u", "b": "u", "c": "v"})
    f = MaxPlusDensity(src, {"a": 0.0, "b": -2.0, "c": -5.0})
    assert pushforward(g, f).weights == {"u": 0.0, "v": -5.0}

    wide = FiniteSpace(("u", "v", "w"))
    g2 = PointMap(src, wide, {"a": "u", "b": "u", "c": "v"})
    assert is_bottom(pushforward(g2, f).weights["w"])

    assert pushforward(PointMap.identity(src), f).weights == f.weights

    ft = MaxTimesDensity(src, {"a": 1.0, "b": 0.3, "c": 0.6})
    assert pushforward_times(g, ft).weights == {"u": 1.0, "v": 0.6}
    assert pushforward_times(g2, ft).weights["w"] == 0.0
    assert pushforward_times(PointMap.identity(src), ft).weights == ft.weights


def test_pushforward_rejects_invalid_map():
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -1.0})
    broken = PointMap(AB, ABC, {"a": "c"})
    with pytest.raises(ValueError):
        pushforward(broken, f)


def test_multiply_examples():
    f1 = MaxPlusDensity(AB, {"a": 0.0, "b": BOTTOM})
    f2 = MaxPlusDensity(AB, {"a": BOTTOM, "b": 0.0})
    F = MetaDensity(((f1, 0.0), (f2, -1.0)))
    assert multiply(F).weights == {"a": 0.0, "b": -1.0}

    f = MaxPlusDensity(ABC, {"a": 0.0, "b": -0.25, "c": BOTTOM})
    assert multiply(MetaDensity(((f, 0.0),))).weights == f.weights

    unit_image = MetaDensity(
        tuple((dirac(x, ABC), w) for x, w in f.weights.items() if not is_bottom(w))
    )
    assert multiply(unit_image).weights == f.weights


def test_multiply_times_examples():
    g1 = MaxTimesDensity(AB, {"a": 1.0, "b": 0.0})
    g2 = MaxTimesDensity(AB, {"a": 0.0, "b": 1.0})
    F = MetaTimesDensity(((g1, 1.0), (g2, 0.5)))
    assert multiply_times(F).weights == {"a": 1.0, "b": 0.5}

    g = MaxTimesDensity(ABC, {"a": 1.0, "b": 0.25, "c": 0.0})
    assert multiply_times(MetaTimesDensity(((g, 1.0),))).weights == g.weights

    unit_image = MetaTimesDensity(
        tuple((dirac_times(x, ABC), w) for x, w in g.weights.items() if w > 0.0)
    )
    assert multiply_times(unit_image).weights == g.weights


def test_meta_constructor_contracts():
    f1 = MaxPlusDensity(AB, {"a": 0.0, "b": -1.0})
    f2 = MaxPlusDensity(AB, {"a": 0.0, "b": BOTTOM})
    # bottom-weight entries are dropped
    F = MetaDensity(((f1, 0.0), (f2, BOTTOM)))
    assert len(F.support) == 1
    # duplicates merge by max weight
    G = MetaDensity(((f1, -0.5), (f1, 0.0)))
    assert len(G.support) == 1 and G.support[0][1] == 0.0
    with pytest.raises(ValueError):
        MetaDensity(((f1, 0.5),))
    with pytest.raises(ValueError):
        MetaDensity(((f1, -0.5),))
    with pytest.raises(ValueError):
        MetaDensity(((f1, BOTTOM),))


def test_meta_stays_frozen_with_its_repr_and_identity():
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -1.0})
    F = MetaDensity(((f, 0.0),))
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'support'"):
        F.support = ()
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'support'"):
        del F.support
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'other'"):
        F.other = 1
    assert F.support == ((f, 0.0),)
    # the text a frozen dataclass printed
    assert repr(F) == (
        "MetaDensity(support=((MaxPlusDensity(space=FiniteSpace(points=('a', 'b')),"
        " weights={'a': 0.0, 'b': -1.0}), 0.0),))"
    )
    G = ThirdLevelTimes(support=((MetaTimesDensity(((dirac_times("a", AB), 1.0),)), 1.0),))
    assert repr(G) == (
        "ThirdLevelTimes(support=((MetaTimesDensity(support=((MaxTimesDensity("
        "space=FiniteSpace(points=('a', 'b')), weights={'a': 1.0, 'b': 0.0}), 1.0),)), 1.0),))"
    )
    # equality and hashing by identity
    twin = MetaDensity(((f, 0.0),))
    assert F == F and F != twin and repr(F) == repr(twin)
    assert hash(F) == object.__hash__(F) and len({F, twin}) == 2


def test_measure_multiplication_examples():
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -0.75})
    N = MetaDensity(((f, 0.0),))
    assert density_close(measure_multiplication(N, 64.0), f, 1e-12)

    f1 = MaxPlusDensity(AB, {"a": 0.0, "b": BOTTOM})
    f2 = MaxPlusDensity(AB, {"a": BOTTOM, "b": 0.0})
    N2 = MetaDensity(((f1, 0.0), (f2, -1.0)))
    assert measure_multiplication(N2, 64.0).weights == {"a": 0.0, "b": -1.0}


def test_measure_multiplication_agrees_with_multiply():
    for i in range(100):
        rng = trial_stream(103, i)
        space = random_space(rng, 5)
        N = random_meta(rng, space)
        assert density_close(measure_multiplication(N, 64.0), multiply(N), 1e-9)


def test_unit_laws():
    assert check_unit_laws(dirac("a", AB), 1e-12)
    f = MaxPlusDensity(ABC, {"a": 0.0, "b": -1.0, "c": BOTTOM})
    assert check_unit_laws(f, 1e-12)
    for i in range(100):
        rng = trial_stream(104, i)
        space = random_space(rng, 6)
        assert check_unit_laws(random_maxplus_density(rng, space), 1e-12)
        assert check_unit_laws_times(random_maxtimes_density(rng, space), 1e-12)


def test_associativity_single_meta_reduces_to_unit_law():
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -2.0})
    meta = MetaDensity(((f, 0.0),))
    from idemkit.measures import ThirdLevel

    assert check_associativity(ThirdLevel(((meta, 0.0),)), 1e-12)


def test_associativity_random():
    for i in range(100):
        rng = trial_stream(105, i)
        space = random_space(rng, 4)
        assert check_associativity(random_third(rng, space), 1e-9)
        assert check_associativity_times(random_third_times(rng, space), 1e-9)


def test_functoriality_random():
    for i in range(100):
        rng = trial_stream(106, i)
        X = random_space(rng, 5)
        Y = random_space(rng, 5)
        Z = random_space(rng, 5)
        f = random_maxplus_density(rng, X)
        h = random_point_map(rng, X, Y)
        g = random_point_map(rng, Y, Z)
        assert density_close(
            pushforward(compose_maps(g, h), f), pushforward(g, pushforward(h, f)), 1e-12
        )
        ft = random_maxtimes_density(rng, X)
        assert times_close(
            pushforward_times(compose_maps(g, h), ft),
            pushforward_times(g, pushforward_times(h, ft)),
            1e-12,
        )


def test_multiply_is_natural_in_the_map():
    for i in range(100):
        rng = trial_stream(107, i)
        X = random_space(rng, 5)
        Y = random_space(rng, 5)
        g = random_point_map(rng, X, Y)
        F = random_meta(rng, X)
        assert density_close(
            multiply(meta_pushforward(g, F)), pushforward(g, multiply(F)), 1e-9
        )


# ---------------------------------------------------------------------------
# the numpy bodies against the label-dict loops

SIZES = (ARRAY_MIN_POINTS - 1, ARRAY_MIN_POINTS, 1000)


def _both_bodies(monkeypatch, fn):
    """fn() once through the label-dict loops and constructor and once
    through the numpy bodies and `from_vector`, whatever the size of its
    spaces."""
    results = []
    for cutoff in (1 << 30, 1):
        monkeypatch.setattr(measures, "ARRAY_MIN_POINTS", cutoff)
        monkeypatch.setattr(spaces, "ARRAY_MIN_POINTS", cutoff)
        results.append(fn())
    return results


def _reprs(f):
    return [(p, repr(w)) for p, w in f.weights.items()]


def _same_body_results(monkeypatch, fn):
    loops, arrays = _both_bodies(monkeypatch, fn)
    assert type(loops) is type(arrays)
    assert loops.space.points == arrays.space.points
    assert _reprs(loops) == _reprs(arrays)
    return arrays


def _spaces(rng, n):
    space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
    return space, FiniteSpace(tuple(space.points[i] for i in rng.permutation(n)))


def _draw(rng, side, space, peaks=(0,), signed=False):
    """Weights in point order: a quarter at bottom (as -0.0 on the
    max-times side when signed), the rest inside, the peak at `peaks`
    (given as -0.0 on the max-plus side when signed)."""
    n = len(space)
    if side is MAXPLUS:
        vals = rng.uniform(-8.0, -0.5, n)
    else:
        vals = rng.uniform(0.05, 0.95, n)
    vals[rng.random(n) < 0.25] = -0.0 if signed and side is MAXTIMES else side.bottom
    for i in peaks:
        vals[int(i)] = -0.0 if signed and side is MAXPLUS else side.peak
    return vals


def _density(side, space, vals):
    return measures.DENSITIES[side.kind](space, dict(zip(space.points, vals.tolist())))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("side", (MAXPLUS, MAXTIMES), ids=("maxplus", "maxtimes"))
def test_multiply_bodies_agree_by_repr(monkeypatch, side, n):
    rng = trial_stream(7001, n)
    space, other = _spaces(rng, n)
    a_vals = _draw(rng, side, space, (0, 1), signed=True)
    b_vals = _draw(rng, side, space, (0, 1))
    if side is MAXPLUS:  # both peak at points 0 and 1, with opposite signs of zero
        a_vals[:2] = (-0.0, 0.0)
        b_vals[:2] = (0.0, -0.0)
    a = _density(side, space, a_vals)
    # b on a reordered space
    b_other = measures.DENSITIES[side.kind](other, _density(side, space, b_vals).weights)
    c = _density(side, space, _draw(rng, side, space, (n - 1,), signed=True))
    meta = measures.METAS[side.kind]
    if side is MAXPLUS:
        weights = [(-0.0, 0.0, -0.5), (0.0, -0.0, -2.5)]
    else:
        weights = [(1.0, 1.0, 0.5), (0.25, 1.0, 0.75)]
    for w in weights:
        for first in (a, b_other):
            second = b_other if first is a else a
            F = meta(((first, w[0]), (second, w[1]), (c, w[2])))
            out = _same_body_results(monkeypatch, lambda: multiply(F))
            assert out.vector.max() == side.peak
    if side is MAXPLUS:
        F = meta(((a, -0.0), (b_other, 0.0)))
        assert _reprs(_both_bodies(monkeypatch, lambda: multiply(F))[1])[0] == ("p0", "-0.0")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("side", (MAXPLUS, MAXTIMES), ids=("maxplus", "maxtimes"))
def test_pushforward_bodies_agree_by_repr(monkeypatch, side, n):
    rng = trial_stream(7002, n)
    space, other = _spaces(rng, n)
    m = max(4, n // 8)
    target = FiniteSpace(tuple(f"q{i}" for i in range(m)))
    i, j, k, l, top = (int(x) for x in rng.choice(n, 5, replace=False))
    for signed in (False, True):
        vals = _draw(rng, side, other, (i, j, k, l, top), signed=signed)
        if side is MAXPLUS:  # peaks of both signs, -0.0 first in one fibre and last in another
            vals[[min(i, j), max(i, j), min(k, l), max(k, l)]] = (-0.0, 0.0, 0.0, -0.0)
        else:  # bottoms of both signs
            vals[[i, j, k, l]] = (-0.0, 0.0, 0.0, -0.0)
        f = _density(side, other, vals)
        # q0 and q1 get the pairs, the last target point an empty fibre
        picks = rng.integers(2, m - 1, n)
        picks[[i, j]] = 0
        picks[[k, l]] = 1
        images = dict(zip(other.points, (target.points[int(x)] for x in picks)))
        g = PointMap(space, target, {p: images[p] for p in space.points})
        out = _same_body_results(monkeypatch, lambda: pushforward(g, f))
        assert out.weights[target.points[-1]] == side.bottom
        assert out.vector.max() == side.peak


@pytest.mark.parametrize("n", SIZES)
def test_exp_log_bodies_agree_by_repr(monkeypatch, n):
    rng = trial_stream(7003, n)
    space, other = _spaces(rng, n)
    f = _density(MAXPLUS, other, _draw(rng, MAXPLUS, other, (0, 1), signed=True))
    g = _same_body_results(monkeypatch, lambda: density_exp(f))
    assert g.vector.max() == 1.0
    back = _same_body_results(monkeypatch, lambda: density_log(g))
    assert back.vector.max() == 0.0
    h = _density(MAXTIMES, space, _draw(rng, MAXTIMES, space, (2,), signed=True) * (1.0 - 5e-13))
    assert h.vector.max() < 1.0
    shifted = _same_body_results(monkeypatch, lambda: density_log(h))
    assert shifted.vector.max() == 0.0
    assert np.array_equal(np.isneginf(shifted.vector), h.vector == 0.0)


@pytest.mark.parametrize("n", (4, ARRAY_MIN_POINTS))
def test_pushforward_rejects_missing_extra_and_off_target_assignments(n):
    space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
    target = FiniteSpace(("u", "v"))
    f = random_maxplus_density(trial_stream(7004, n), space)
    good = {p: "u" for p in space.points}
    last = space.points[-1]
    broken = (
        {p: y for p, y in good.items() if p != last},  # missing
        {**good, "zz": "u"},  # extra
        {**good, last: "w"},  # off target
        {**good, last: ["u"]},  # an unhashable image
    )
    for assignment in broken:
        with pytest.raises(ValueError, match="invalid point map"):
            pushforward(PointMap(space, target, assignment), f)
        # an invalid map is reported before a density on another space
        with pytest.raises(ValueError, match="invalid point map"):
            pushforward(PointMap(space, target, assignment), dirac("a", AB))
    assert pushforward(PointMap(space, target, good), f).weights == {"u": 0.0, "v": BOTTOM}
    with pytest.raises(ValueError, match="source of the map"):
        pushforward(PointMap(space, target, good), dirac("a", AB))


@pytest.mark.parametrize(
    "density, bad, what",
    [
        (MaxPlusDensity, math.nan, "weight nan outside"),
        (MaxPlusDensity, math.inf, "weight inf outside"),
        (MaxPlusDensity, 0.5, "weight 0.5 outside"),
        (MaxTimesDensity, math.nan, "weight nan outside"),
        (MaxTimesDensity, -0.25, "weight -0.25 outside"),
        (MaxTimesDensity, 1.5, "weight 1.5 outside"),
    ],
)
def test_density_rows_reject_a_bad_weight_naming_the_row_and_the_point(density, bad, what):
    side = density.side
    good = [side.peak, side.bottom, side.peak]
    with pytest.raises(ValueError, match=f"{what} .* at point 'b' in row 1"):
        density.rows(ABC, [good, [side.peak, bad, side.bottom]])
    with pytest.raises(ValueError, match=f"{what} .* at point 'b'$"):
        density.from_vector(ABC, [side.peak, bad, side.bottom])


def test_density_rows_reject_a_bad_peak_naming_the_row_and_the_point():
    block = [[0.0, -1.0, BOTTOM], [-1.0, -0.5, BOTTOM]]
    with pytest.raises(ValueError, match="peak weight is -0.5 at point 'b' in row 1"):
        MaxPlusDensity.rows(ABC, block)
    with pytest.raises(ValueError, match="peak weight is -inf at point 'a' in row 0"):
        MaxPlusDensity.rows(ABC, [[BOTTOM] * 3])
    with pytest.raises(ValueError, match="peak weight is 0.5 at point 'c' in row 1"):
        MaxTimesDensity.rows(ABC, [[1.0, 0.0, 0.5], [0.0, 0.25, 0.5]])
    # within the max-times slack is a peak
    assert MaxTimesDensity.rows(ABC, [[0.5, 1.0 - 5e-13, 0.0]])[0].weights["b"] == 1.0 - 5e-13
    for bad in ([0.0, -1.0], [[[0.0, -1.0, -2.0]]]):
        with pytest.raises(ValueError, match="shape"):
            MaxPlusDensity.rows(ABC, bad)


def test_density_rows_are_read_only_views_with_their_label_dicts():
    block = np.array([[0.0, -1.5, BOTTOM], [-0.0, 0.0, -2.0]])
    rows = MaxPlusDensity.rows(ABC, block)
    assert [type(f) for f in rows] == [MaxPlusDensity, MaxPlusDensity]
    assert rows[0].weights == {"a": 0.0, "b": -1.5, "c": BOTTOM}
    assert rows[1].weights is rows[1].weights
    assert np.shares_memory(rows[1].vector, block)
    with pytest.raises(ValueError):
        rows[1].vector[0] = -1.0
    assert _reprs(rows[1]) == [("a", "-0.0"), ("b", "0.0"), ("c", "-2.0")]
    assert MaxPlusDensity.rows(ABC, np.empty((0, 3))) == []
    f = MaxTimesDensity.from_vector(ABC, [1.0, 0.0, 0.5])
    assert f.weights == {"a": 1.0, "b": 0.0, "c": 0.5} and f("c") == 0.5
    with pytest.raises(AttributeError):
        f.weights = {}


def test_a_density_keeps_its_weights_when_the_base_of_its_vector_is_written():
    w = np.array([0.0, -1.0, -2.0])
    f = MaxPlusDensity.from_vector(AB, w[:2])
    w[1] = 5.0
    assert f.weights == {"a": 0.0, "b": -1.0} and f.vector.tolist() == [0.0, -1.0]
    block = np.array([[0.0, -1.0, 7.0], [-3.0, 0.0, 7.0]])
    rows = MaxPlusDensity.rows(AB, block[:, :2])
    block[:] = 9.0
    assert [g.vector.tolist() for g in rows] == [[0.0, -1.0], [-3.0, 0.0]]
    # a view of memory no array can write is kept as it is
    frozen = np.array([0.0, -1.0, -2.0])
    frozen.setflags(write=False)
    assert np.shares_memory(MaxPlusDensity.from_vector(AB, frozen[:2]).vector, frozen)


def test_density_from_functional_calls_a_plain_oracle_once_per_point_in_order(monkeypatch):
    space = FiniteSpace(tuple(f"p{i}" for i in range(40)))
    f = random_maxplus_density(trial_stream(7005, 0), space)
    monkeypatch.setattr(measures, "PROBE_BLOCK_CELLS", 200)  # blocks of 5 rows
    seen = []

    def oracle(phi):
        assert isinstance(phi, Probe) and phi.space is space
        seen.append(int(np.argmax(phi.vector)))
        return eval_measure(f, phi)

    got = density_from_functional(oracle, space, 20.0)
    assert seen == list(range(40))
    assert _reprs(got) == _reprs(f)


def test_measure_multiplication_batches_equal_per_probe_calls(monkeypatch):
    for n in (3, ARRAY_MIN_POINTS, 300):
        rng = trial_stream(7006, n)
        space, other = _spaces(rng, n)
        N = MetaDensity(
            (
                (random_maxplus_density(rng, space), -0.0),
                (random_maxplus_density(rng, other), -1.25),
                (_density(MAXPLUS, space, _draw(rng, MAXPLUS, space, (1,), signed=True)), 0.0),
            )
        )
        for cells in (1 << 16, 7 * n):  # one block, and blocks of 7 rows
            monkeypatch.setattr(measures, "PROBE_BLOCK_CELLS", cells)
            batched = measure_multiplication(N, 40.0)
            functional = measures._SupportFunctional(N)
            one_by_one = density_from_functional(lambda phi: functional(phi), space, 40.0)
            assert _reprs(batched) == _reprs(one_by_one)
            assert density_close(batched, multiply(N), 1e-12)


def test_density_from_functional_rejects_a_batch_of_the_wrong_shape():
    class Short:
        def __call__(self, phi):
            return 0.0

        def batch(self, block, space):
            return np.zeros(len(block) - 1)

    with pytest.raises(ValueError, match="batch oracle returned shape"):
        density_from_functional(Short(), ABC)


@pytest.mark.parametrize(
    "density, space, weights, message",
    [
        # a missing key and a bad weight: the points are checked in order
        (MaxPlusDensity, AB, {"a": 0.5}, "weight 0.5 outside [-inf, 0.0] at point 'a'"),
        (MaxPlusDensity, AB, {"b": 0.5}, "missing weight for point 'a'"),
        (MaxPlusDensity, AB, {"a": "x"}, "could not convert string to float: 'x' at point 'a'"),
        (MaxTimesDensity, ABC, {"a": 1.0, "b": 2.0}, "weight 2.0 outside [0.0, 1.0] at point 'b'"),
        # an unknown key is reported before any weight
        (MaxPlusDensity, AB, {"a": math.nan, "z": 0.0}, "weights given for unknown points: ['z']"),
        (MaxTimesDensity, AB, {"a": 1.5, "c": 0.0}, "weights given for unknown points: ['c']"),
        # two bad weights: the first in point order, not in key order
        (MaxPlusDensity, AB, {"b": 1.0, "a": math.nan}, "weight nan outside [-inf, 0.0] at point 'a'"),
        (MaxPlusDensity, FiniteSpace(("b", "a")), {"a": math.nan, "b": 1.0},
         "weight 1.0 outside [-inf, 0.0] at point 'b'"),
        (MaxPlusDensity, AB, {"a": "x", "b": 1.0}, "could not convert string to float: 'x' at point 'a'"),
        # a weight float() cannot take at all is a ValueError naming the point
        (MaxPlusDensity, AB, {"a": 0.0, "b": None}, f"{NOT_A_FLOAT} at point 'b'"),
        (MaxTimesDensity, AB, {"a": None}, f"{NOT_A_FLOAT} at point 'a'"),
        # weights in range but no peak; the first of equal maxima is named
        (MaxPlusDensity, AB, {"a": -1.0, "b": -2.0},
         "peak weight is -1.0 at point 'a', expected 0.0 (use normalize)"),
        (MaxTimesDensity, AB, {"a": -0.0, "b": 0.0},
         "peak weight is -0.0 at point 'a', expected 1.0 (use normalize)"),
        # an integer beyond a double's range names its point, in the loop and
        # when the labels differ (here c is missing)
        (MaxPlusDensity, AB, {"a": 0.0, "b": -10**400}, f"{TOO_LARGE} at point 'b'"),
        (MaxTimesDensity, ABC, {"a": 1.0, "b": 10**400}, f"{TOO_LARGE} at point 'b'"),
        # weights in point order are for from_vector, not the label-dict constructor
        (MaxPlusDensity, AB, [0.0, -1.0], "weights must be a mapping, got list"),
        (MaxTimesDensity, AB, np.ones(2), "weights must be a mapping, got ndarray"),
        (PossibilityProfile, AB, None, "weights must be a mapping, got NoneType"),
    ],
)
def test_density_constructor_error_texts_on_inputs_with_two_faults(density, space, weights, message):
    with pytest.raises(ValueError) as info:
        density(space, weights)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "density, weights, message",
    [
        (MaxPlusDensity, [0.0], "missing weight for point 'b'"),
        (MaxTimesDensity, [1.0], "missing weight for point 'b'"),
        (MaxPlusDensity, [-1.0, -1.0],
         "peak weight is -1.0 at point 'a', expected 0.0 (use normalize)"),
        (MaxTimesDensity, [0.25, 0.5],
         "peak weight is 0.5 at point 'b', expected 1.0 (use normalize)"),
    ],
)
def test_both_density_constructors_word_a_fault_alike(density, weights, message):
    for build in (density.from_vector, lambda space, w: density(space, dict(zip(space.points, w)))):
        with pytest.raises(ValueError) as info:
            build(AB, weights)
        assert str(info.value) == message


def test_meta_constructor_error_texts_on_inputs_with_two_faults():
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -1.0})
    g = MaxPlusDensity(ABC, {"a": 0.0, "b": -1.0, "c": BOTTOM})
    t = MaxTimesDensity(AB, {"a": 1.0, "b": 0.5})
    cases = [
        # the entries are checked in order: weight, then bottom, then type
        (MetaDensity, ((f, 0.5), ("x", 0.0)),
         "weight 0.5 outside [-inf, 0.0] at support position 0"),
        (MetaDensity, (("x", 0.0), (f, 0.5)), "support entries must be MaxPlusDensity values"),
        (MetaTimesDensity, ((t, 0.0), (f, 1.0)), "support entries must be MaxTimesDensity values"),
        (MetaDensity, ((f, "w"),), "could not convert string to float: 'w' at support position 0"),
        (MetaDensity, ((f, 0.0), (f, None)), f"{NOT_A_FLOAT} at support position 1"),
        # a bottom entry is dropped before its type is looked at
        (MetaDensity, (("x", BOTTOM), (f, -0.5)), "peak support weight is -0.5, expected 0.0"),
        # a bad weight comes before entries on different spaces
        (MetaDensity, ((f, 0.0), (g, 0.0), (f, math.nan)),
         "weight nan outside [-inf, 0.0] at support position 2"),
        # different spaces come before a missing peak
        (MetaDensity, ((f, -1.0), (g, -2.0)), "support entries live on different spaces"),
        (MetaDensity, ((f, BOTTOM), (g, BOTTOM)), "empty support after dropping bottom weights"),
        # merged entries keep the larger weight, which still misses the peak
        (MetaDensity, ((f, -1.0), (f, -0.5)), "peak support weight is -0.5, expected 0.0"),
        (MetaTimesDensity, ((t, 0.5), (t, -0.0)), "peak support weight is 0.5, expected 1.0"),
        (MetaDensity, ((f, 0.0), (f, -10**400)), f"{TOO_LARGE} at support position 1"),
        # an entry that is not an (entry, weight) pair, and a support that is
        # not iterable
        (MetaDensity, [1], "support position 0 is not an (entry, weight) pair"),
        (MetaDensity, [(f,)], "support position 0 is not an (entry, weight) pair"),
        (MetaDensity, ((f, 0.0), (f, -1.0, 0.0)), "support position 1 is not an (entry, weight) pair"),
        (MetaTimesDensity, ((t, 1.0), None), "support position 1 is not an (entry, weight) pair"),
        (MetaDensity, None, "support must be iterable, got NoneType"),
        (MetaTimesDensity, 1.0, "support must be iterable, got float"),
    ]
    for meta, support, message in cases:
        with pytest.raises(ValueError) as info:
            meta(support)
        assert str(info.value) == message, support


def test_a_density_takes_its_vector_over():
    # the caller's array becomes the density's store, so it is marked
    # read-only: a later write cannot lift a weight above the peak
    for cls, weights in ((MaxPlusDensity, [0.0, -1.0]), (MaxTimesDensity, [1.0, 0.5])):
        vec = np.array(weights)
        f = cls.from_vector(AB, vec)
        assert np.shares_memory(f.vector, vec)  # kept without a copy
        with pytest.raises(ValueError, match="read-only"):
            vec[1] = 5.0
        assert f.weights == dict(zip(AB.points, weights))
    # a vector that fails its check is left as it was
    vec = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        MaxPlusDensity.from_vector(AB, vec)
    vec[1] = -1.0


def test_meta_reads_the_tolerance_only_when_a_merge_compares(monkeypatch):
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -1.0})
    near = MaxPlusDensity(AB, {"a": 0.0, "b": -1.0 + 1e-6})
    far = MaxPlusDensity(AB, {"a": -1.0, "b": 0.0})
    F = MetaDensity(((f, 0.0), (far, -1.0), (near, -2.0)))
    assert len(F.support) == 3
    monkeypatch.setenv("IDEMKIT_TOLERANCE", "not a number")
    # one kept entry, also after dropping a bottom one: nothing to compare
    assert MetaDensity(((f, 0.0),)).support == ((f, 0.0),)
    assert MetaDensity(((f, 0.0), (near, BOTTOM))).support == ((f, 0.0),)
    with pytest.raises(ValueError, match="IDEMKIT_TOLERANCE"):
        MetaDensity(((f, 0.0), (near, -1.0)))
    # a subsequence of a merged support compares nothing; a merge of two does
    assert MetaDensity._from_checked(F.support[:-1]).support == F.support[:-1]
    with pytest.raises(ValueError, match="IDEMKIT_TOLERANCE"):
        MetaDensity._from_checked(F.support[:-1], merge=True)
    # a change between two merges takes effect
    monkeypatch.setenv("IDEMKIT_TOLERANCE", "1e-3")
    assert MetaDensity(((f, -1.0), (near, 0.0))).support == ((f, 0.0),)
    monkeypatch.setenv("IDEMKIT_TOLERANCE", "1e-9")
    assert len(MetaDensity(((f, -1.0), (near, 0.0))).support) == 2


def _close_inputs(n):
    """Pairs of densities on n points, the second built from a vector on the
    same space or from a dict on a reordered one: equal, a live weight half
    or twice the tolerance apart, a bottom against a weight 1e-12 from it,
    and every zero (peaks, and max-times bottoms) of the other sign."""
    rng = trial_stream(7007, n)
    space, other = _spaces(rng, n)
    for side in (MAXPLUS, MAXTIMES):
        base = _draw(rng, side, space, (0, 1), signed=True)
        live = int(np.flatnonzero((base != side.bottom) & (base != side.peak))[0])
        dead = int(np.flatnonzero(base == side.bottom)[0])
        variants = {"same": base.copy()}
        for name, delta in (("half tol", 5e-10), ("two tol", 2e-9)):
            variants[name] = base.copy()
            variants[name][live] -= delta
        # within tol of bottom: close on the max-times side only
        variants["bottom lifted"] = base.copy()
        variants["bottom lifted"][dead] = -1e-12 if side is MAXPLUS else 1e-12
        variants["zero sign"] = np.where(base == 0.0, -base, base)
        cls = measures.DENSITIES[side.kind]
        a = cls.from_vector(space, base)
        for name, vals in variants.items():
            by_vector = cls.from_vector(space, vals)
            by_dict = cls(other, dict(zip(space.points, vals.tolist())))
            for first, second in ((a, by_vector), (a, by_dict), (by_dict, a)):
                yield side.kind, name, first, second


@pytest.mark.parametrize("n", SIZES)
def test_close_vector_and_dict_paths_agree(monkeypatch, n):
    verdicts = {}
    for kind, name, a, b in _close_inputs(n):
        for tol in (0.0, 1e-9):
            loops, arrays = _both_bodies(monkeypatch, lambda: measures._close(a, b, tol))
            assert loops == arrays, (kind, name, tol)
            # the same verdict in either order and on either space
            assert verdicts.setdefault((kind, name, tol), arrays) == arrays, (kind, name, tol)
    for kind in ("maxplus", "maxtimes"):
        assert verdicts[kind, "same", 0.0] and verdicts[kind, "zero sign", 0.0]
        assert verdicts[kind, "half tol", 1e-9] and not verdicts[kind, "half tol", 0.0]
        assert not verdicts[kind, "two tol", 1e-9]
    assert not verdicts["maxplus", "bottom lifted", 1e-9]
    assert verdicts["maxtimes", "bottom lifted", 1e-9]
    assert not verdicts["maxtimes", "bottom lifted", 0.0]
    monkeypatch.undo()
    # from ARRAY_MIN_POINTS points on, densities built from vectors are
    # compared without building their label dicts
    space, other = _spaces(trial_stream(7008, n), n)
    f = MaxPlusDensity.from_vector(space, _draw(trial_stream(7008, n), MAXPLUS, space))
    g = MaxPlusDensity.from_vector(other, in_point_order(f.vector, space, other))
    assert density_close(f, g) and density_close(g, f)
    assert ("weights" in f.__dict__ or "weights" in g.__dict__) == (n < ARRAY_MIN_POINTS)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("side", (MAXPLUS, MAXTIMES), ids=("maxplus", "maxtimes"))
def test_pushforward_with_and_without_a_negative_zero_matches_its_loop(monkeypatch, side, n):
    rng = trial_stream(7009, n)
    space, other = _spaces(rng, n)
    target = FiniteSpace(tuple(f"q{i}" for i in range(max(4, n // 8))))
    g = PointMap(space, target, {p: target.points[int(rng.integers(len(target)))] for p in space.points})
    for signed in (False, True):
        vals = _draw(rng, side, other, (0, n - 1), signed=signed)
        f = _density(side, other, vals)
        assert bool(np.signbit(vals[vals == 0.0]).any()) == signed
        out = _same_body_results(monkeypatch, lambda: pushforward(g, f))
        assert out.vector.max() == side.peak
