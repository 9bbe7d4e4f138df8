import json

import numpy as np
import pytest

from idemkit.capacities import PossibilityProfile, capacity_from_profile
from idemkit.convexity import GeneratorSet
from idemkit.generate import random_capacity, trial_stream
from idemkit.documents import (
    capacity_from_doc,
    capacity_to_doc,
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
    subset_from_doc,
    weights_from_doc,
    weights_to_doc,
)
from idemkit.measures import MaxPlusDensity, MaxTimesDensity, MetaDensity
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


def test_subset_document():
    mask = subset_from_doc({"members": ["a", "c"]}, ABC)
    assert mask.members == {"a", "c"}


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
