import math

import pytest

from idemkit.capacities import MetaPossibility, PossibilityProfile
from idemkit.generate import (
    random_maxplus_density,
    random_maxtimes_density,
    random_meta,
    random_meta_possibility,
    random_meta_times,
    random_point_map,
    random_space,
    random_third,
    random_third_times,
    trial_stream,
)
from idemkit.isomorphism import (
    check_l_morphism,
    check_s_morphism,
    density_exp,
    density_log,
    meta_exp,
    meta_log,
)
from idemkit.measures import (
    MaxPlusDensity,
    MaxTimesDensity,
    MetaDensity,
    MetaTimesDensity,
    ThirdLevel,
    ThirdLevelTimes,
    density_close,
    dirac,
    dirac_times,
    flatten_outer,
    meta_pushforward,
    multiply,
    multiply_times,
    pushforward,
    pushforward_times,
    times_close,
)
from idemkit.semiring import BOTTOM, is_bottom
from idemkit.spaces import ARRAY_MIN_POINTS, FiniteSpace

AB = FiniteSpace(("a", "b"))

E_MINUS_1 = 0.36787944117144233
LN_HALF = -0.6931471805599453


def test_density_exp_examples():
    f = MaxPlusDensity(AB, {"a": 0.0, "b": BOTTOM})
    assert density_exp(f).weights == {"a": 1.0, "b": 0.0}
    g = MaxPlusDensity(AB, {"a": 0.0, "b": LN_HALF})
    assert density_exp(g).weights["b"] == pytest.approx(0.5, abs=1e-15)


def test_density_log_examples():
    g = MaxTimesDensity(AB, {"a": 1.0, "b": 0.0})
    f = density_log(g)
    assert f.weights["a"] == 0.0 and is_bottom(f.weights["b"])
    h = MaxTimesDensity(AB, {"a": 1.0, "b": 0.5})
    assert density_log(h).weights["b"] == pytest.approx(LN_HALF, abs=1e-15)


def test_exp_log_round_trips():
    for i in range(200):
        rng = trial_stream(201, i)
        space = random_space(rng, 6)
        f = random_maxplus_density(rng, space)
        assert density_close(density_log(density_exp(f)), f, 1e-12)
        g = density_exp(f)
        assert times_close(density_exp(density_log(g)), g, 1e-12)


def test_meta_exp_worked_example():
    f1 = MaxPlusDensity(AB, {"a": 0.0, "b": BOTTOM})
    f2 = MaxPlusDensity(AB, {"a": BOTTOM, "b": 0.0})
    F = MetaDensity(((f1, 0.0), (f2, -1.0)))
    image = meta_exp(F)
    weights = sorted(w for _, w in image.support)
    assert weights == pytest.approx([E_MINUS_1, 1.0], abs=1e-15)
    assert all(set(f.weights.values()) == {0.0, 1.0} for f, _ in image.support)


def test_meta_exp_single_pair():
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -2.0})
    image = meta_exp(MetaDensity(((f, 0.0),)))
    assert len(image.support) == 1
    assert image.support[0][1] == 1.0


def test_l_morphism_dirac_pair():
    F = MetaDensity(((dirac("a", AB), 0.0),))
    assert check_l_morphism(F, 1e-12)


def test_l_morphism_worked_example():
    f1 = MaxPlusDensity(AB, {"a": 0.0, "b": BOTTOM})
    f2 = MaxPlusDensity(AB, {"a": BOTTOM, "b": 0.0})
    F = MetaDensity(((f1, 0.0), (f2, -1.0)))
    left = density_exp(multiply(F))
    right = multiply_times(meta_exp(F))
    assert left.weights == {"a": 1.0, "b": pytest.approx(E_MINUS_1, abs=1e-15)}
    assert times_close(left, right, 1e-12)
    assert check_l_morphism(F, 1e-9)


def test_l_morphism_random():
    for i in range(200):
        rng = trial_stream(202, i)
        space = random_space(rng, 5)
        assert check_l_morphism(random_meta(rng, space), 1e-9)


def test_s_morphism_dirac_pair():
    N = MetaDensity(((dirac("a", AB), 0.0),))
    assert check_s_morphism(N, 64.0, 1e-12)


def test_s_morphism_two_finitely_supported_measures():
    mu1 = MaxPlusDensity(AB, {"a": 0.0, "b": -2.0})
    mu2 = MaxPlusDensity(AB, {"a": -1.0, "b": 0.0})
    N = MetaDensity(((mu1, 0.0), (mu2, -0.5)))
    assert check_s_morphism(N, 64.0, 1e-9)


def test_s_morphism_random():
    for i in range(200):
        rng = trial_stream(203, i)
        space = random_space(rng, 5)
        assert check_s_morphism(random_meta(rng, space), 64.0, 1e-9)


def test_exp_is_natural_in_the_map():
    for i in range(100):
        rng = trial_stream(204, i)
        X = random_space(rng, 5)
        Y = random_space(rng, 5)
        g = random_point_map(rng, X, Y)
        f = random_maxplus_density(rng, X)
        assert times_close(
            density_exp(pushforward(g, f)), pushforward_times(g, density_exp(f)), 1e-12
        )


def test_exp_preserves_order_and_argmax():
    for i in range(100):
        rng = trial_stream(205, i)
        space = random_space(rng, 5)
        f = random_maxplus_density(rng, space)
        g = random_maxplus_density(rng, space)
        ef, eg = density_exp(f), density_exp(g)
        pointwise_le = all(f.weights[p] <= g.weights[p] for p in space.points)
        exp_le = all(ef.weights[p] <= eg.weights[p] for p in space.points)
        assert pointwise_le == exp_le
        argmax = {p for p in space.points if f.weights[p] == 0.0}
        exp_argmax = {p for p in space.points if ef.weights[p] == 1.0}
        assert argmax == exp_argmax


def test_max_times_multiplication_is_natural_in_the_map():
    # exact: both sides take the same maxima of the same products
    for i in range(1000):
        rng = trial_stream(206, i)
        X = random_space(rng, 5)
        Y = random_space(rng, 5)
        h = random_point_map(rng, X, Y)
        G = random_meta_times(rng, X)
        assert density_close(multiply(meta_pushforward(h, G)), pushforward(h, multiply(G)), 0.0)


def test_exp_log_round_trips_on_metas():
    for i in range(200):
        rng = trial_stream(207, i)
        space = random_space(rng, 5)
        F = random_meta(rng, space)
        image = meta_exp(F)
        assert type(image) is MetaTimesDensity
        assert density_close(meta_log(image), F)
        G = random_meta_times(rng, space)
        back = meta_log(G)
        assert type(back) is MetaDensity
        assert density_close(meta_exp(back), G)


def test_the_third_level_crosses_and_exp_commutes_with_its_collapse():
    for i in range(200):
        rng = trial_stream(208, i)
        space = random_space(rng, 4)
        T = random_third(rng, space)
        image = meta_exp(T)
        assert type(image) is ThirdLevelTimes
        assert all(type(M) is MetaTimesDensity for M, _ in image.support)
        assert density_close(meta_log(image), T)
        assert times_close(
            density_exp(multiply(flatten_outer(T))), multiply(flatten_outer(image))
        )
        U = random_third_times(rng, space)
        back = meta_log(U)
        assert type(back) is ThirdLevel
        assert density_close(meta_exp(back), U)


def test_meta_log_shifts_a_peak_weight_inside_the_slack_to_zero():
    near = 1.0 - 5e-13
    G = MetaTimesDensity(((dirac_times("a", AB), near), (dirac_times("b", AB), 0.5)))
    weights = dict((f.support(), w) for f, w in meta_log(G).support)
    assert weights[("a",)] == 0.0
    assert repr(weights[("b",)]) == repr(math.log(0.5) - math.log(near))


def test_possibility_types_log_to_the_max_plus_types():
    pi = PossibilityProfile(AB, {"a": 1.0, "b": 0.5})
    assert type(density_log(pi)) is MaxPlusDensity
    C = random_meta_possibility(trial_stream(209, 0), AB)
    assert type(C) is MetaPossibility
    back = meta_log(C)
    assert type(back) is MetaDensity
    assert all(type(f) is MaxPlusDensity for f, _ in back.support)


@pytest.mark.parametrize("n", (4, ARRAY_MIN_POINTS, 200))
def test_the_transport_is_the_per_weight_formula(n):
    rng = trial_stream(210, n)
    space = FiniteSpace(tuple(f"p{k}" for k in range(n)))
    f = random_maxplus_density(rng, space)
    g = random_maxtimes_density(rng, space)
    near = MaxTimesDensity(space, {p: w * (1.0 - 5e-13) for p, w in g.weights.items()})
    assert max(near.weights.values()) < 1.0

    def logs(h):
        return [math.log(w) if w != 0.0 else BOTTOM for w in h.weights.values()]

    def reprs(values):
        return list(map(repr, values))

    assert reprs(density_exp(f).weights.values()) == reprs(map(math.exp, f.weights.values()))
    # the same floats whichever form, label dict or vector, the input stores
    for x in (MaxPlusDensity(space, dict(f.weights)), MaxPlusDensity.from_vector(space, f.vector)):
        assert repr(density_exp(x)) == repr(density_exp(f))
    for y in (MaxTimesDensity(space, dict(g.weights)), MaxTimesDensity.from_vector(space, g.vector)):
        assert repr(density_log(y)) == repr(density_log(g))
    assert reprs(density_log(g).weights.values()) == reprs(logs(g))
    peak = max(logs(near))
    assert reprs(density_log(near).weights.values()) == reprs(w - peak for w in logs(near))
    F = random_meta(rng, space)
    assert reprs(w for _, w in meta_exp(F).support) == reprs(math.exp(w) for _, w in F.support)


def test_exp_merges_meta_entries_that_meet_within_the_tolerance():
    # 1.0 apart on the max-plus side, but e^-30 and e^-31 are within 1e-9
    f = MaxPlusDensity(AB, {"a": 0.0, "b": -30.0})
    g = MaxPlusDensity(AB, {"a": 0.0, "b": -31.0})
    F = MetaDensity(((f, 0.0), (g, -1.0)))
    assert len(F.support) == 2
    image = meta_exp(F)
    assert len(image.support) == 1
    assert image.support[0][1] == 1.0
    back = meta_log(image)
    assert len(back.support) == 1
    assert density_close(back, MetaDensity(((f, 0.0),)))


MAXPLUS_META = MetaDensity(((dirac("a", AB), 0.0),))
MAXTIMES_META = MetaTimesDensity(((dirac_times("a", AB), 1.0),))


@pytest.mark.parametrize(
    "convert, value, text",
    [
        (density_exp, dirac_times("a", AB), "takes a maxplus density, got MaxTimesDensity"),
        (density_log, dirac("a", AB), "takes a maxtimes density, got MaxPlusDensity"),
        (meta_exp, MAXTIMES_META, "takes a maxplus meta, got MetaTimesDensity"),
        (meta_log, MAXPLUS_META, "takes a maxtimes meta, got MetaDensity"),
        (density_exp, 3.0, "takes a maxplus density, got float"),
        (density_log, None, "takes a maxtimes density, got NoneType"),
        (density_exp, MAXPLUS_META, "takes a maxplus density, got MetaDensity"),
        (meta_exp, dirac("a", AB), "takes a maxplus meta, got MaxPlusDensity"),
        (meta_log, "F", "takes a maxtimes meta, got str"),
    ],
)
def test_a_value_from_the_wrong_side_is_refused_by_name(convert, value, text):
    with pytest.raises(ValueError, match=f"^{convert.__name__} {text}$"):
        convert(value)
