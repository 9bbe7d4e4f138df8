import json
from pathlib import Path

import numpy as np
import pytest

from idemkit.laws import (
    SUITES,
    drop_weight,
    run_all,
    run_suite,
    suite_names,
)
from idemkit.measures import MaxPlusDensity, MetaDensity, multiply
from idemkit.seeding import trial_stream
from idemkit.semiring import BOTTOM
from idemkit.spaces import FiniteSpace

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
