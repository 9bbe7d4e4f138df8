import json

import numpy as np
import pytest

from idemkit.capacities import Capacity, PossibilityProfile, capacity_from_profile
from idemkit.convexity import GeneratorSet
from idemkit.generate import random_capacity, trial_stream
from idemkit.documents import (
    capacity_from_doc,
    capacity_to_doc,
    decode_number,
    decode_score,
    density_from_doc,
    density_to_doc,
    dump_json,
    encode_score,
    function_from_doc,
    generators_from_doc,
    generators_to_doc,
    meta_from_doc,
    meta_to_doc,
    possibility_from_doc,
    possibility_to_doc,
    space_from_doc,
    space_to_doc,
    weights_from_doc,
    weights_to_doc,
)
from idemkit.measures import (
    MaxPlusDensity,
    MaxTimesDensity,
    MetaDensity,
    MetaTimesDensity,
    ThirdLevel,
    ThirdLevelTimes,
)
from idemkit.semiring import BOTTOM, is_bottom
from idemkit.spaces import FiniteSpace

ABC = FiniteSpace(("a", "b", "c"))


def test_score_tokens():
    assert encode_score(BOTTOM) == "-inf"
    assert encode_score(1.5) == 1.5
    assert is_bottom(decode_score("-inf"))
    assert decode_score(-2) == -2.0
    for bad in ("inf", "nan", None, True, float("nan")):
        with pytest.raises(ValueError):
            decode_score(bad)


def test_space_round_trip():
    assert space_from_doc(space_to_doc(ABC)) == ABC
    with pytest.raises(ValueError):
        space_from_doc({"points": "abc"})
    with pytest.raises(ValueError):
        space_from_doc([1, 2])


def test_function_document():
    doc = {"values": {"a": 2.0, "b": 5.0, "c": 0.0}}
    phi = function_from_doc(doc, ABC)
    assert phi("b") == 5.0
    with pytest.raises(ValueError):
        function_from_doc({"values": {"a": 2.0}}, ABC)


def test_density_round_trip_maxplus():
    f = MaxPlusDensity(ABC, {"a": 0.0, "b": -1.25, "c": BOTTOM})
    doc = density_to_doc(f)
    assert doc["kind"] == "maxplus"
    assert doc["values"]["c"] == "-inf"
    back = density_from_doc(doc, ABC)
    assert back.weights == f.weights
    inferred = density_from_doc(json.loads(json.dumps(doc)))
    assert inferred.weights == f.weights


def test_density_round_trip_maxtimes():
    g = MaxTimesDensity(ABC, {"a": 1.0, "b": 0.25, "c": 0.0})
    back = density_from_doc(density_to_doc(g), ABC)
    assert back.weights == g.weights
    with pytest.raises(ValueError):
        density_from_doc({"kind": "density", "values": {"a": 0.0}})


def test_meta_round_trip():
    f1 = MaxPlusDensity(ABC, {"a": 0.0, "b": -1.0, "c": BOTTOM})
    f2 = MaxPlusDensity(ABC, {"a": BOTTOM, "b": 0.0, "c": -0.5})
    F = MetaDensity(((f1, 0.0), (f2, -2.0)))
    back = meta_from_doc(meta_to_doc(F))
    assert len(back.support) == 2
    weights = sorted(w for _, w in back.support)
    assert weights == [-2.0, 0.0]


def test_meta_doc_writes_a_meta_entry_under_meta_at_any_depth():
    f = MaxPlusDensity(ABC, {"a": 0.0, "b": -1.0, "c": BOTTOM})
    g = MaxPlusDensity(ABC, {"a": BOTTOM, "b": 0.0, "c": -0.5})
    F, G = MetaDensity(((f, 0.0),)), MetaDensity(((g, 0.0), (f, -1.5)))
    doc = meta_to_doc(ThirdLevel(((F, 0.0), (G, -2.0))))
    assert doc == {
        "support": [
            {"meta": meta_to_doc(F), "weight": 0.0},
            {"meta": meta_to_doc(G), "weight": -2.0},
        ]
    }
    assert doc["support"][1]["meta"]["support"][1] == {"density": density_to_doc(f), "weight": -1.5}
    t = MaxTimesDensity(ABC, {"a": 1.0, "b": 0.5, "c": 0.0})
    inner = meta_to_doc(ThirdLevelTimes(((MetaTimesDensity(((t, 1.0),)), 1.0),)))
    assert inner["support"][0]["meta"]["support"][0]["density"] == density_to_doc(t)


def test_capacity_round_trip():
    c = capacity_from_profile(PossibilityProfile(ABC, {"a": 1.0, "b": 0.5, "c": 0.1}))
    doc = capacity_to_doc(c)
    assert doc["sets"][""] == 0.0
    assert doc["sets"]["a|b|c"] == 1.0
    assert set(doc["sets"]) == {"", "a", "b", "c", "a|b", "a|c", "b|c", "a|b|c"}
    back = capacity_from_doc(doc, ABC)
    assert np.array_equal(back.table, c.table)


def _capacity_doc_by_mask(c):
    """The capacity document built one mask at a time."""
    sets = {}
    for mask in range(len(c.table)):
        members = [p for i, p in enumerate(c.space.points) if mask >> i & 1]
        sets["|".join(sorted(members))] = float(c.table[mask])
    return {"kind": "capacity", "sets": sets}


def test_capacity_document_matches_the_per_mask_build_on_a_reordered_space():
    for n in range(1, 13):
        rng = trial_stream(611, n)
        # point order differs from label order, and "p10" sorts before "p2"
        space = FiniteSpace(tuple(f"p{i}" for i in rng.permutation(n)))
        assert n == 1 or space.points != tuple(sorted(space.points))
        c = random_capacity(rng, space)
        doc = capacity_to_doc(c)
        assert json.dumps(doc) == json.dumps(_capacity_doc_by_mask(c))
        assert np.array_equal(capacity_from_doc(doc, space).table, c.table)


def test_capacity_document_requires_all_subsets():
    c = capacity_from_profile(PossibilityProfile(ABC, {"a": 1.0, "b": 0.5, "c": 0.1}))
    doc = capacity_to_doc(c)
    del doc["sets"]["a|b"]
    with pytest.raises(ValueError):
        capacity_from_doc(doc, ABC)
    bad = capacity_to_doc(c)
    bad["sets"]["a|a"] = bad["sets"].pop("a|b")
    with pytest.raises(ValueError):
        capacity_from_doc(bad, ABC)


CAPACITY_ABC = [0.0, 0.2, 0.3, 0.5, 0.1, 0.4, 0.6, 1.0]


def _abc_doc(**renamed):
    """The capacity document of CAPACITY_ABC with some keys respelled; a
    respelling goes in the old key's place, so the iteration order stays."""
    sets = capacity_to_doc(Capacity(ABC, CAPACITY_ABC))["sets"]
    return {"kind": "capacity", "sets": {renamed.get(k, k): v for k, v in sets.items()}}


def test_capacity_from_doc_reads_canonical_and_respelled_keys():
    assert np.array_equal(capacity_from_doc(_abc_doc(), ABC).table, CAPACITY_ABC)
    respelled = _abc_doc(**{"a|b": "b|a", "a|b|c": "c|a|b", "b|c": "c|b"})
    assert list(respelled["sets"]) == ["", "a", "b", "b|a", "c", "a|c", "c|b", "c|a|b"]
    assert np.array_equal(capacity_from_doc(respelled, ABC).table, CAPACITY_ABC)
    # a space listing its points in another order reads the same keys
    cba = FiniteSpace(("c", "b", "a"))
    back = capacity_from_doc(respelled, cba)
    assert [back.value(m) for m in (["a"], ["b", "c"], ["a", "c"])] == [0.2, 0.6, 0.4]


def test_capacity_from_doc_keeps_its_error_texts_and_order():
    cases = [
        ({"a|b": "a|a"}, "subset key repeats a label: 'a|a'"),
        ({"a|b": "b|d"}, "unknown point 'd'"),
        ({"a|b": "b|a|b"}, "subset key repeats a label: 'b|a|b'"),
        ({"a": "b|a"}, "duplicate subset key: 'a|b'"),
        ({"c": "c|b"}, "duplicate subset key: 'b|c'"),
        ({"a|c": "c|a|b"}, "duplicate subset key: 'a|b|c'"),
        ({"a|b|c": "b|a"}, "duplicate subset key: 'b|a'"),
    ]
    for renamed, message in cases:
        with pytest.raises(ValueError) as info:
            capacity_from_doc(_abc_doc(**renamed), ABC)
        assert str(info.value) == message
    # a bad number after a duplicate key: the duplicate is reported first
    doc = _abc_doc(**{"c": "c|b"})
    doc["sets"]["a|b|c"] = "x"
    with pytest.raises(ValueError, match=r"^duplicate subset key: 'b\|c'$"):
        capacity_from_doc(doc, ABC)
    doc = _abc_doc()
    doc["sets"]["b"] = float("nan")
    with pytest.raises(ValueError, match=r"^not a finite number: nan$"):
        capacity_from_doc(doc, ABC)


def test_capacity_from_doc_parses_keys_where_labels_make_them_ambiguous():
    # a label holding the separator: every key is split, as capacity_to_doc
    # cannot write such a document in the first place
    space = FiniteSpace(("a|b", "c"))
    doc = {"kind": "capacity", "sets": {"": 0.0, "c": 0.5, "a|b": 0.5, "a|b|c": 1.0}}
    with pytest.raises(ValueError, match=r"^unknown point 'a'$"):
        capacity_from_doc(doc, space)
    # an empty label: the empty key is the empty set, "|c" the pair
    space = FiniteSpace(("", "c"))
    doc = {"kind": "capacity", "sets": {"": 0.0, "c": 0.25, "|c": 1.0}}
    with pytest.raises(ValueError, match="needs all 4 subsets"):
        capacity_from_doc(doc, space)
    doc["sets"]["|"] = 0.5
    with pytest.raises(ValueError, match=r"^subset key repeats a label: '\|'$"):
        capacity_from_doc(doc, space)


def test_capacity_document_rejects_separator_in_labels():
    space = FiniteSpace(("a|b", "a", "b"))
    c = capacity_from_profile(PossibilityProfile(space, {"a|b": 1.0, "a": 0.5, "b": 0.1}))
    with pytest.raises(ValueError, match=r"'a\|b'"):
        capacity_to_doc(c)


def test_possibility_round_trip():
    pi = PossibilityProfile(ABC, {"a": 1.0, "b": 0.5, "c": 0.0})
    back = possibility_from_doc(possibility_to_doc(pi))
    assert back.singletons == pi.singletons
    with pytest.raises(ValueError):
        possibility_from_doc({"kind": "capacity", "singletons": {}})


NAN = float("nan")
SPACE_ERROR = "a space needs at least one point"

# (decoder, document, explicit space, the one error text), in each decoder's
# fault order: a function reads its values, then decodes them, then builds;
# a density reads its values, makes the space, then checks its kind; a
# possibility checks its kind before its singletons
DECODER_FAULTS = [
    (function_from_doc, [1], ABC, "function document must be a JSON object"),
    (function_from_doc, {}, ABC, "function document needs a 'values' object"),
    (function_from_doc, {"values": [1]}, ABC, "function document needs a 'values' object"),
    (function_from_doc, {"values": {}}, ABC, "missing value for point 'a'"),
    (function_from_doc, {"values": {"a": "x", "b": 1, "c": 2}}, ABC, "not a number: 'x'"),
    (function_from_doc, {"values": {"a": 1, "b": NAN, "c": 2}}, ABC, "not a finite number: nan"),
    (
        function_from_doc,
        {"values": {"a": 1, "b": 2, "c": 3, "z": 4}},
        ABC,
        "values given for unknown points: ['z']",
    ),
    # every value is decoded before the labels are checked
    (function_from_doc, {"values": {"a": 1, "b": 2, "c": 3, "z": True}}, ABC, "not a number: True"),
    (density_from_doc, "x", None, "density document must be a JSON object"),
    (density_from_doc, {"kind": "maxplus"}, None, "density document needs a 'values' object"),
    (density_from_doc, {"kind": "maxplus", "values": [0]}, None, "density document needs a 'values' object"),
    (density_from_doc, {"kind": "maxplus", "values": {}}, None, SPACE_ERROR),
    (density_from_doc, {"kind": "maxplus", "values": {}}, ABC, "missing weight for point 'a'"),
    (density_from_doc, {"kind": "density", "values": {"a": 0}}, None, "unknown density kind: 'density'"),
    (density_from_doc, {"values": {"a": 0}}, None, "unknown density kind: None"),
    (density_from_doc, {"kind": ["maxplus"], "values": {"a": 0}}, None, "unknown density kind: ['maxplus']"),
    (
        density_from_doc,
        {"kind": "maxplus", "values": {"a": 0, "b": "inf"}},
        None,
        "not a score: 'inf' (numbers or the token '-inf')",
    ),
    (density_from_doc, {"kind": "maxtimes", "values": {"a": 1, "b": "-inf"}}, None, "not a number: '-inf'"),
    (
        density_from_doc,
        {"kind": "maxplus", "values": {"a": 0, "b": 0, "c": 0, "z": 0}},
        ABC,
        "weights given for unknown points: ['z']",
    ),
    # two faults: the space is made, and fails, before the kind is read
    (density_from_doc, {"kind": "bogus", "values": {}}, None, SPACE_ERROR),
    (density_from_doc, {"kind": "bogus"}, None, "density document needs a 'values' object"),
    (possibility_from_doc, None, None, "possibility document must be a JSON object"),
    (
        possibility_from_doc,
        {"kind": "maxtimes", "singletons": {"a": 1}},
        None,
        "expected a possibility document, got kind 'maxtimes'",
    ),
    (possibility_from_doc, {"singletons": {"a": 1}}, None, "expected a possibility document, got kind None"),
    (possibility_from_doc, {"kind": "possibility"}, None, "possibility document needs a 'singletons' object"),
    (
        possibility_from_doc,
        {"kind": "possibility", "singletons": [1]},
        None,
        "possibility document needs a 'singletons' object",
    ),
    (possibility_from_doc, {"kind": "possibility", "singletons": {}}, None, SPACE_ERROR),
    (possibility_from_doc, {"kind": "possibility", "singletons": {}}, ABC, "missing weight for point 'a'"),
    (
        possibility_from_doc,
        {"kind": "possibility", "singletons": {"a": 1, "b": "-inf"}},
        None,
        "not a number: '-inf'",
    ),
    (
        possibility_from_doc,
        {"kind": "possibility", "singletons": {"a": 1, "b": 0, "c": 0, "z": 0}},
        ABC,
        "weights given for unknown points: ['z']",
    ),
    # two faults: the kind is checked before the singletons
    (
        possibility_from_doc,
        {"kind": "capacity", "singletons": {}},
        None,
        "expected a possibility document, got kind 'capacity'",
    ),
]


@pytest.mark.parametrize(
    "decode, doc, space, message",
    DECODER_FAULTS,
    ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(DECODER_FAULTS)],
)
def test_label_keyed_decoders_report_the_first_fault(decode, doc, space, message):
    with pytest.raises(ValueError) as info:
        decode(doc, space)
    assert str(info.value) == message


def test_generators_round_trip():
    gens = GeneratorSet(np.array([[0.0, 3.0], [2.0, 0.0]]))
    back = generators_from_doc(generators_to_doc(gens))
    assert np.array_equal(back.points, gens.points)
    with pytest.raises(ValueError):
        generators_from_doc({"dim": 2, "points": [[1.0]]})


def test_weights_round_trip():
    doc = weights_to_doc([0.0, BOTTOM, -2.0])
    assert doc["weights"][1] == "-inf"
    back = weights_from_doc(doc)
    assert back[0] == 0.0 and is_bottom(back[1]) and back[2] == -2.0


def test_dump_json_is_deterministic(tmp_path):
    doc = {"b": 1.0, "a": [1, 2, {"z": "-inf"}]}
    t1 = dump_json(doc)
    t2 = dump_json(doc, str(tmp_path / "out.json"))
    assert t1 == t2
    assert (tmp_path / "out.json").read_text().strip() == t1


def test_numbers_beyond_double_range_are_not_finite_numbers():
    huge = 10**400
    for raw in (huge, -huge):
        with pytest.raises(ValueError, match=r"^not a finite number: -?10{400}$"):
            decode_number(raw)
        with pytest.raises(ValueError, match=r"^not a score: -?10{400} \(numbers or the token"):
            decode_score(raw)
    assert decode_number(10**300) == 1e300 and decode_score(-(10**300)) == -1e300


def test_decode_score_names_every_non_score_alike():
    for bad in (float("nan"), float("inf"), True, "0.5", "inf", None, [0.0]):
        with pytest.raises(ValueError, match=r"^not a score: .* \(numbers or the token '-inf'\)$"):
            decode_score(bad)


def test_generators_need_an_integer_dimension_that_is_not_a_bool():
    for dim in (True, False, 1.0, "1"):
        with pytest.raises(ValueError, match="integer 'dim'"):
            generators_from_doc({"dim": dim, "points": [[0.5]]})
    assert generators_from_doc({"dim": 1, "points": [[0.5]]}).dimension == 1
