import json
import math
import re

import numpy as np
import pytest

from idemkit.capacities import MAX_TABLE_POINTS, PossibilityProfile, maxplus_integral
from idemkit.documents import density_to_doc, function_to_doc, possibility_to_doc
from idemkit.generate import random_capacity, trial_stream
from idemkit.measures import MaxPlusDensity, MaxTimesDensity, eval_measure
from idemkit.semiring import BOTTOM
from idemkit.spaces import (
    FiniteSpace,
    PointMap,
    Probe,
    RealFunction,
    SubsetMask,
    UnitFunction,
    comonotone,
    compose_maps,
    fn_max,
    fn_shift,
    in_point_order,
    level_set,
    probe_values,
    validate_map,
)

ABC = FiniteSpace(("a", "b", "c"))


def test_space_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        FiniteSpace(())
    with pytest.raises(ValueError):
        FiniteSpace(("a", "a"))


def test_space_identity_is_the_label_set():
    assert FiniteSpace(("a", "b")) == FiniteSpace(("b", "a"))
    assert FiniteSpace(("a", "b")) != FiniteSpace(("a", "c"))
    assert hash(FiniteSpace(("a", "b"))) == hash(FiniteSpace(("b", "a")))


def test_space_index_maps_each_label_to_its_position():
    assert ABC.index == {"a": 0, "b": 1, "c": 2}
    cab = FiniteSpace(("c", "a", "b"))
    assert cab.index == {"c": 0, "a": 1, "b": 2}
    assert all(cab.points[i] == p for p, i in cab.index.items())
    assert cab == ABC and ABC == ABC


def test_probe_values_are_its_label_dict():
    phi = Probe(ABC, np.array([0.5, -2.0, 3.0]))
    assert isinstance(phi, RealFunction)
    assert phi.values == {"a": 0.5, "b": -2.0, "c": 3.0}
    assert list(phi.values) == list(ABC.points)
    assert phi("b") == -2.0
    cab = Probe(FiniteSpace(("c", "a", "b")), [3, 0.5, -2])
    assert cab.values == {"c": 3.0, "a": 0.5, "b": -2.0}
    assert Probe.constant(ABC, 1.5).values == RealFunction.constant(ABC, 1.5).values


def test_probe_vector_is_read_only():
    vec = np.zeros(3)
    phi = Probe(ABC, vec)
    assert phi.vector is vec  # an owned float64 array is kept without a copy
    assert phi.vector.dtype == np.float64
    with pytest.raises(ValueError):
        phi.vector[0] = 1.0


def test_a_function_keeps_its_values_when_the_base_of_its_vector_is_written():
    w = np.array([0.0, -1.0, -2.0])
    phi = RealFunction.from_vector(FiniteSpace(("a", "b")), w[:2])
    w[1] = math.nan
    assert phi.values == {"a": 0.0, "b": -1.0} and phi.vector.tolist() == [0.0, -1.0]
    block = np.zeros((2, 4))
    rows = RealFunction.rows(ABC, block[:, 1:])
    block[:] = math.inf
    assert [f.vector.tolist() for f in rows] == [[0.0] * 3] * 2


def test_probe_rejects_a_bad_vector_and_names_the_point():
    with pytest.raises(ValueError, match="missing value for point 'c'"):
        Probe(ABC, [0.0, 1.0])
    with pytest.raises(ValueError, match="3 values"):
        Probe(ABC, [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="3 values"):
        Probe(ABC, np.zeros((1, 3)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"non-finite value {bad!r} at point 'b'"):
            Probe(ABC, [1.0, bad, bad])


def test_probe_rows_are_read_only_probes_of_each_row():
    block = np.array([[0.5, -2.0, 3.0], [1.0, 1.0, -1.0]])
    probes = Probe.rows(ABC, block)
    assert len(probes) == 2 and all(type(p) is Probe for p in probes)
    assert probes[0].values == Probe(ABC, [0.5, -2.0, 3.0]).values
    assert probes[1]("c") == -1.0
    assert probes[1].vector.base is not None  # a view of the block, not a copy
    for target in (block, probes[0].vector):
        with pytest.raises(ValueError):
            target[0] = 9.0
    assert Probe.rows(ABC, np.zeros((0, 3))) == []


def test_probe_rows_reject_a_bad_block_and_name_the_point():
    for shape in ((2, 2), (2, 4), (3,), (1, 1, 3)):
        with pytest.raises(ValueError, match=r"\(m, 3\) block"):
            Probe.rows(ABC, np.zeros(shape))
    for bad in (math.nan, math.inf, -math.inf):
        block = np.zeros((3, 3))
        block[2, 1] = bad
        with pytest.raises(ValueError, match=f"non-finite value {bad!r} at point 'b' in row 2"):
            Probe.rows(ABC, block)


def test_in_point_order_gathers_the_last_axis_into_the_other_order():
    cab = FiniteSpace(("c", "a", "b"))
    vector = np.array([3.0, 0.5, -2.0])  # c, a, b
    assert in_point_order(vector, cab, ABC).tolist() == [0.5, -2.0, 3.0]
    block = np.array([[3.0, 0.5, -2.0], [-0.0, 1.0, 2.0]])
    got = in_point_order(block, cab, ABC)
    assert got.shape == (2, 3)
    assert [list(map(repr, row)) for row in got.tolist()] == [
        ["0.5", "-2.0", "3.0"],
        ["1.0", "2.0", "-0.0"],
    ]
    assert in_point_order(got, ABC, cab).tolist() == block.tolist()


def test_in_point_order_returns_the_array_itself_when_the_orders_agree():
    vector, block = np.arange(3.0), np.zeros((4, 3))
    assert in_point_order(vector, ABC, ABC) is vector
    assert in_point_order(block, ABC, FiniteSpace(("a", "b", "c"))) is block


def test_probe_values_calls_a_plain_oracle_once_per_row_in_order():
    block = np.array([[0.0, -1.0, -2.0], [5.0, 4.0, 3.0], [-0.5, 0.0, 0.5]])
    seen = []

    def oracle(phi):
        assert type(phi) is Probe and phi.space is ABC
        seen.append(phi.vector.tolist())
        return phi("c")

    got = probe_values(oracle, ABC, block)
    assert seen == block.tolist()
    assert got.dtype == np.float64 and got.tolist() == [-2.0, 3.0, 0.5]


def test_probe_values_hands_a_batch_oracle_the_block_whole():
    calls = []

    class Batch:
        def __call__(self, phi):
            raise AssertionError("a batch oracle is fed blocks")

        def batch(self, block, space):
            calls.append((block, space))
            return [float(v) for v in block.max(axis=1)]

    block = np.array([[0.0, -1.0, -2.0], [5.0, 4.0, 3.0]])
    assert probe_values(Batch(), ABC, block).tolist() == [0.0, 5.0]
    assert len(calls) == 1 and calls[0][0] is block and calls[0][1] is ABC


def test_probe_values_rejects_a_batch_of_the_wrong_shape():
    for shape in ((1,), (3,), (2, 1), ()):

        class Wrong:
            def batch(self, block, space):
                return np.zeros(shape)

        message = re.escape(f"a batch oracle returned shape {shape} for 2 probe rows")
        with pytest.raises(ValueError, match=f"^{message}$"):
            probe_values(Wrong(), ABC, np.zeros((2, 3)))


def test_real_function_requires_exact_cover():
    with pytest.raises(ValueError):
        RealFunction(ABC, {"a": 1.0, "b": 2.0})
    with pytest.raises(ValueError):
        RealFunction(ABC, {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
    with pytest.raises(ValueError):
        RealFunction(ABC, {"a": 1.0, "b": float("inf"), "c": 3.0})


def test_unit_function_range():
    UnitFunction(ABC, {"a": 0.0, "b": 0.5, "c": 1.0})
    with pytest.raises(ValueError):
        UnitFunction(ABC, {"a": 0.0, "b": 1.5, "c": 1.0})


NOT_A_FLOAT = "float() argument must be a string or a real number, not 'NoneType'"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RealFunction(ABC, {"a": 1.0, "z": 0.0}), "values given for unknown points: ['z']"),
        (lambda: RealFunction(ABC, {"a": 1.0, "c": math.inf}), "missing value for point 'b'"),
        (lambda: RealFunction(ABC, {"a": 1.0, "b": math.nan, "c": 0.0}),
         "non-finite value nan at point 'b'"),
        (lambda: RealFunction(ABC, {"a": 1.0, "b": None, "c": 0.0}), f"{NOT_A_FLOAT} at point 'b'"),
        # a ValueError from float() names its point too
        (lambda: RealFunction(ABC, {"a": "x", "b": 0.0, "c": 0.0}),
         "could not convert string to float: 'x' at point 'a'"),
        (lambda: UnitFunction(ABC, {"a": 0.5, "b": 1.5, "c": -1.0}),
         "value 1.5 at point 'b' outside [0, 1]"),
        (lambda: UnitFunction(ABC, {"a": None, "b": 0.0, "c": 0.0}), f"{NOT_A_FLOAT} at point 'a'"),
        (lambda: UnitFunction.from_vector(ABC, [0.5, 0.0, math.nan]),
         "value nan at point 'c' outside [0, 1]"),
        (lambda: UnitFunction.rows(ABC, [[0.0] * 3, [0.0, -0.5, 2.0]]),
         "value -0.5 at point 'b' outside [0, 1] in row 1"),
        (lambda: UnitFunction.constant(ABC, 1.5), "value 1.5 at point 'a' outside [0, 1]"),
        (lambda: RealFunction.from_vector(ABC, [0.0, 1.0]), "missing value for point 'c'"),
        # an integer beyond a double's range names its point
        (lambda: RealFunction(ABC, {"a": 1.0, "b": 10**400, "c": 0.0}),
         "int too large to convert to float at point 'b'"),
        (lambda: UnitFunction(ABC, {"a": 0.0, "b": 0.5, "c": -10**400}),
         "int too large to convert to float at point 'c'"),
        # two faults: the first in point order, whatever kind each is
        (lambda: RealFunction(ABC, {"a": 1.0, "b": math.inf, "c": None}),
         "non-finite value inf at point 'b'"),
        (lambda: RealFunction(ABC, {"a": None, "b": math.nan, "c": 0.0}), f"{NOT_A_FLOAT} at point 'a'"),
        (lambda: RealFunction(ABC, {"a": -math.inf, "c": 0.0}), "non-finite value -inf at point 'a'"),
        # values in point order are for from_vector, not the label-dict constructor
        (lambda: RealFunction(ABC, [0.0, 1.0, 2.0]), "values must be a mapping, got list"),
        (lambda: UnitFunction(ABC, np.zeros(3)), "values must be a mapping, got ndarray"),
    ],
)
def test_function_constructor_error_texts(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "cls, plural",
    [
        (MaxPlusDensity, "weights"),
        (PossibilityProfile, "weights"),
        (RealFunction, "values"),
        (Probe, "values"),
    ],
)
@pytest.mark.parametrize("shape", [(4,), (1, 3)])
def test_from_vector_shape_error_counts_in_the_plural_of_the_noun(cls, plural, shape):
    with pytest.raises(ValueError) as info:
        cls.from_vector(ABC, np.zeros(shape))
    assert str(info.value) == (
        f"a {cls.__name__} on 3 points needs a 1-d vector of 3 {plural}, got shape {shape}"
    )


def test_functions_are_frozen_and_keep_their_class():
    for phi in (
        RealFunction(ABC, {"a": 0.0, "b": 1.0, "c": 2.0}),
        UnitFunction.from_vector(ABC, [0.0, 0.5, -0.0]),
        Probe(ABC, [1.0, 2.0, 3.0]),
    ):
        with pytest.raises(AttributeError):
            phi.values = {}
        with pytest.raises(AttributeError):
            del phi.space
        assert repr(phi) == f"{type(phi).__name__}(space={ABC!r}, values={phi.values!r})"
    assert type(UnitFunction.constant(ABC, 0.5)) is UnitFunction
    assert type(RealFunction.rows(ABC, np.zeros((2, 3)))[1]) is RealFunction


def _reprs(phi):
    return [repr(phi(p)) for p in phi.space.points]


def _doc_bytes(phi):
    return json.dumps(function_to_doc(phi)).encode()


@pytest.mark.parametrize("n", [3, 63, 64, 1000])
def test_dict_and_vector_built_functions_agree(n):
    """Every reader gives the same floats, by repr, whichever form a function
    was built from, on a space listing its points in another order than the
    densities', with signed zeros among the values and at the maxima; so do
    the readers of densities and profiles, and every constructor rejects a
    value out of its range with the same text either way."""
    rng = trial_stream(1111, n)
    space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
    turned = FiniteSpace(space.points[::-1])
    # values in [-5, 0] with zeros of both signs, the maxima the densities hit
    vals = rng.uniform(-5.0, 0.0, n)
    vals[rng.random(n) < 0.3] = -0.0
    vals[rng.random(n) < 0.1] = 0.0
    unit = np.where(rng.random(n) < 0.5, -0.0, rng.uniform(0.0, 1.0, n))
    other = np.where(vals == 0.0, -vals, rng.uniform(-5.0, 0.0, n))  # zeros of the other sign
    zero_at = (vals == 0.0) | (rng.random(n) < 0.2)
    weights = np.where(zero_at, np.where(rng.random(n) < 0.5, -0.0, 0.0), BOTTOM)
    weights[0] = 0.0
    f = MaxPlusDensity.from_vector(space, weights)
    g = MaxTimesDensity.from_vector(space, np.where(zero_at, 1.0, rng.uniform(0.0, 1.0, n)))
    c = random_capacity(rng, turned) if n <= MAX_TABLE_POINTS else None

    def both(cls, values):
        by_label = dict(zip(turned.points, values.tolist()))
        return cls(turned, by_label), cls.from_vector(turned, values)

    pairs = [both(RealFunction, vals), both(UnitFunction, unit)]
    psi_d, psi_v = both(RealFunction, other)
    for phi_d, phi_v in pairs:
        assert repr(phi_d.values) == repr(phi_v.values)
        assert repr(phi_d.vector.tolist()) == repr(phi_v.vector.tolist())
        assert _reprs(phi_d) == _reprs(phi_v)
        for t in (-2.5, -0.0, 0.0, 0.5):
            assert level_set(phi_d, t).members == level_set(phi_v, t).members
        assert comonotone(phi_d, psi_d) == comonotone(phi_v, psi_v)
        assert _doc_bytes(phi_d) == _doc_bytes(phi_v)
        for d in (f, g):
            # the plain loop over the label dicts, first of equal maxima kept
            loop = max(d.side.otimes(w, phi_d(p)) for p, w in d.weights.items())
            assert repr(eval_measure(d, phi_d)) == repr(eval_measure(d, phi_v)) == repr(loop)
        if c is not None:
            assert repr(maxplus_integral(c, phi_d)) == repr(maxplus_integral(c, phi_v))
        # the dict comprehensions fn_max and fn_shift were before they took vectors
        joined = repr({p: max(v, psi_d(p)) for p, v in phi_d.values.items()})
        assert repr(fn_max(phi_d, psi_d).values) == repr(fn_max(phi_v, psi_v).values) == joined
        shifted = repr({p: v + 0.75 for p, v in phi_d.values.items()})
        assert repr(fn_shift(phi_d, 0.75).values) == repr(fn_shift(phi_v, 0.75).values) == shifted
    # densities and profiles, built either way: the same repr and document
    # bytes, with zeros of both signs among the weights
    profile = np.where(zero_at, 1.0, np.where(rng.random(n) < 0.3, -0.0, rng.uniform(0.0, 1.0, n)))
    for cls, values, to_doc in (
        (MaxPlusDensity, weights, density_to_doc),
        (MaxTimesDensity, g.vector, density_to_doc),
        (PossibilityProfile, profile, possibility_to_doc),
    ):
        by_dict, by_vector = both(cls, values)
        assert repr(by_dict) == repr(by_vector)
        assert _reprs(by_dict) == _reprs(by_vector)
        assert json.dumps(to_doc(by_dict)).encode() == json.dumps(to_doc(by_vector)).encode()
    # one value out of range, first, in the middle or last: the same text
    # from either constructor
    for cls, values, faults in (
        (RealFunction, vals, (math.nan, math.inf, -math.inf)),
        (UnitFunction, unit, (math.nan, 1.5, -0.5)),
        (MaxPlusDensity, weights, (math.nan, math.inf, 0.5)),
        (MaxTimesDensity, g.vector, (math.nan, 2.0, -0.5)),
        (PossibilityProfile, profile, (math.nan, 1.5, -1e-300)),
    ):
        for i in (0, n // 2, n - 1):
            for bad in faults:
                broken = values.copy()
                broken[i] = bad
                texts = []
                for make in (
                    lambda: cls(turned, dict(zip(turned.points, broken.tolist()))),
                    lambda: cls.from_vector(turned, broken),
                ):
                    with pytest.raises(ValueError) as info:
                        make()
                    texts.append(str(info.value))
                assert texts[0] == texts[1], (cls.__name__, i, bad)
                assert repr(bad) in texts[0] and f"at point {turned.points[i]!r}" in texts[0]


def test_level_set_example():
    phi = RealFunction(ABC, {"a": 0.0, "b": 1.0, "c": 2.0})
    assert level_set(phi, 1.0).members == {"b", "c"}
    assert level_set(phi, -1.0).members == {"a", "b", "c"}
    assert level_set(phi, 3.0).members == set()


def test_level_set_antitone():
    phi = RealFunction(ABC, {"a": 0.3, "b": -1.2, "c": 2.0})
    thresholds = sorted([-2.0, -1.2, 0.0, 0.3, 1.0, 2.0, 5.0])
    for lo, hi in zip(thresholds, thresholds[1:]):
        assert level_set(phi, hi).members <= level_set(phi, lo).members


def test_level_set_constant_between_values():
    phi = RealFunction(ABC, {"a": 0.0, "b": 1.0, "c": 2.0})
    for t in (1.1, 1.5, 1.9):
        assert level_set(phi, t).members == {"c"}


def test_comonotone_examples():
    phi = RealFunction(ABC, {"a": 0.0, "b": 1.0, "c": 2.0})
    psi = RealFunction(ABC, {"a": 0.0, "b": 0.0, "c": 1.0})
    assert comonotone(phi, psi)
    constant = RealFunction.constant(ABC, 3.5)
    assert comonotone(constant, phi)
    two = FiniteSpace(("a", "b"))
    up = RealFunction(two, {"a": 0.0, "b": 1.0})
    down = RealFunction(two, {"a": 1.0, "b": 0.0})
    assert not comonotone(up, down)


def test_comonotone_symmetric_reflexive_and_shift_invariant():
    phi = RealFunction(ABC, {"a": 0.5, "b": -2.0, "c": 1.0})
    psi = RealFunction(ABC, {"a": 1.0, "b": -1.0, "c": 1.0})
    assert comonotone(phi, phi)
    assert comonotone(phi, psi) == comonotone(psi, phi)
    assert comonotone(phi, fn_shift(phi, 4.25))


def test_comonotone_requires_same_space():
    phi = RealFunction(ABC, {"a": 0.0, "b": 1.0, "c": 2.0})
    other = RealFunction(FiniteSpace(("x", "y")), {"x": 0.0, "y": 1.0})
    with pytest.raises(ValueError):
        comonotone(phi, other)


def test_validate_map():
    target = FiniteSpace(("u", "v"))
    good = PointMap(ABC, target, {"a": "u", "b": "u", "c": "v"})
    assert validate_map(good)
    missing = PointMap(ABC, target, {"a": "u", "b": "u"})
    assert not validate_map(missing)
    stray = PointMap(ABC, target, {"a": "u", "b": "u", "c": "w"})
    assert not validate_map(stray)
    assert validate_map(PointMap.identity(ABC))


def test_compose_maps():
    Y = FiniteSpace(("u", "v"))
    Z = FiniteSpace(("p", "q"))
    h = PointMap(ABC, Y, {"a": "u", "b": "v", "c": "v"})
    g = PointMap(Y, Z, {"u": "p", "v": "q"})
    gh = compose_maps(g, h)
    assert gh.assignment == {"a": "p", "b": "q", "c": "q"}
    with pytest.raises(ValueError):
        compose_maps(h, g)


def test_fn_helpers():
    phi = RealFunction(ABC, {"a": 0.0, "b": 1.0, "c": 2.0})
    psi = RealFunction(ABC, {"a": 3.0, "b": 0.0, "c": 2.5})
    assert fn_shift(phi, 2.0).values == {"a": 2.0, "b": 3.0, "c": 4.0}
    assert fn_max(phi, psi).values == {"a": 3.0, "b": 1.0, "c": 2.5}


def test_subset_mask_validation():
    assert len(SubsetMask(ABC, frozenset({"a", "c"}))) == 2
    with pytest.raises(ValueError):
        SubsetMask(ABC, frozenset({"a", "z"}))


def test_probe_values_are_stored_on_first_read():
    phi = Probe.rows(ABC, [[0.5, -2.0, 3.0]])[0]
    values = phi.values
    assert type(values) is dict and phi.values is values
    assert values == {"a": 0.5, "b": -2.0, "c": 3.0}
    with pytest.raises(AttributeError):
        phi.no_such_attribute
