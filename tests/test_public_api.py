"""The public surface survives the merge of the two sides into one core:
every name the package exported while each side had its own classes, the
module attributes perfbench/ reads, and isinstance telling the sides apart."""

import importlib

import pytest

import idemkit
from idemkit import isomorphism, measures
from idemkit.capacities import MetaPossibility, PossibilityProfile
from idemkit.spaces import FiniteSpace

# idemkit/__init__.py exports from before the sides shared one core
EXPORTS = """
BOTTOM Capacity CharacterizationReport FiniteSpace GeneratorSet MaxPlusDensity
MaxTimesDensity MetaDensity MetaPossibility MetaTimesDensity PointMap
PossibilityProfile RealFunction RunReport SubsetMask ThirdLevel ThirdLevelTimes
UnitFunction barycenter barycenter_members bounding_grid capacity_from_profile
check_algebra check_associativity check_associativity_times
check_characterization check_convexity_equivalence check_l_morphism check_repr
check_s_morphism check_unit_laws check_unit_laws_times combine comonotone
compose_maps default_tolerance density_close density_exp
density_from_functional density_log dirac dirac_times eval_measure
eval_measure_times exp_bridge hull_member hull_members index_space
integral_functional is_bottom is_possibility level_set log_bridge
maxplus_integral measure_multiplication meta_exp meta_pushforward multiply
multiply_times normalize_maxplus normalize_maxtimes oplus otimes
possibility_integral possibility_mult pushforward pushforward_times
recover_capacity run_all run_suite score_eq shilkret_integral suite_names
times_close validate_map
""".split()

# module attributes read by perfbench/ (harness.py, bulk.py, probes.py,
# cli_calls.py)
MODULE_ATTRS = {
    "measures": (
        "MaxPlusDensity MetaDensity ThirdLevel ThirdLevelTimes check_associativity "
        "check_associativity_times check_unit_laws check_unit_laws_times multiply "
        "multiply_times"
    ),
    "laws": "drop_weight run_suite _minimize",
    "documents": (
        "capacity_from_doc capacity_to_doc decode_score density_from_doc density_to_doc "
        "dump_json function_to_doc meta_from_doc possibility_to_doc space_to_doc"
    ),
    "generate": (
        "random_capacity random_maxplus_density random_meta random_point_map "
        "random_possibility_profile random_real_function random_weight_vector"
    ),
}

AB = FiniteSpace(("a", "b"))


def test_every_earlier_export_is_importable():
    assert [name for name in EXPORTS if not hasattr(idemkit, name)] == []


def test_module_attributes_used_by_the_benchmark_resolve():
    missing = [
        f"{module}.{name}"
        for module, names in MODULE_ATTRS.items()
        for name in names.split()
        if not callable(getattr(importlib.import_module(f"idemkit.{module}"), name, None))
    ]
    assert missing == []


def test_isinstance_tells_the_sides_apart():
    plus = measures.dirac("a", AB)
    times = measures.dirac_times("a", AB)
    assert isinstance(plus, measures.MaxPlusDensity)
    assert not isinstance(plus, measures.MaxTimesDensity)
    assert isinstance(times, measures.MaxTimesDensity)
    assert not isinstance(times, measures.MaxPlusDensity)
    F = measures.MetaDensity(((plus, 0.0),))
    G = measures.MetaTimesDensity(((times, 1.0),))
    assert isinstance(F, measures.MetaDensity) and not isinstance(F, measures.MetaTimesDensity)
    assert isinstance(G, measures.MetaTimesDensity) and not isinstance(G, measures.MetaDensity)
    assert isinstance(measures.ThirdLevel(((F, 0.0),)), measures.ThirdLevel)
    assert not isinstance(measures.ThirdLevel(((F, 0.0),)), measures.ThirdLevelTimes)
    assert isinstance(measures.multiply(F), measures.MaxPlusDensity)
    assert isinstance(measures.multiply_times(G), measures.MaxTimesDensity)


def test_possibility_types_are_the_max_times_types():
    pi = PossibilityProfile(AB, {"a": 1.0, "b": 0.5})
    assert isinstance(pi, measures.MaxTimesDensity)
    assert pi.singletons is pi.weights
    with pytest.raises(AttributeError):
        pi.singletons = {}
    C = MetaPossibility(((pi, 1.0),))
    assert isinstance(C, measures.MetaTimesDensity)
    assert isinstance(idemkit.possibility_mult(C), PossibilityProfile)
    with pytest.raises(ValueError):
        MetaPossibility(((measures.dirac_times("a", AB), 1.0),))


def test_multiply_keeps_a_name_of_its_own():
    # the span tracer names a function by the last module attribute bound to
    # it, so an alias of multiply in measures would rename every call
    bound = [n for n, v in vars(measures).items() if v is measures.multiply]
    assert bound == ["multiply"]
    # and so would an alias of a bridge entry point in isomorphism
    for name in ("density_exp", "density_log", "meta_exp", "meta_log"):
        fn = getattr(isomorphism, name)
        assert [n for n, v in vars(isomorphism).items() if v is fn] == [name]
        assert getattr(idemkit, name) is fn
