"""Golden values of the capacity layer: exact outputs on seeded inputs.

A fast path must reproduce these to the last bit.  The file
`data/golden_values.json` was recorded with the scalar integrals, the
per-call recovery loop and the per-mask capacity document; to record it again after a deliberate change, run

    PYTHONPATH=src python tests/test_golden_values.py

and list every changed value with its cause in the change log.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from idemkit.capacities import (
    check_characterization,
    integral_functional,
    maxplus_integral,
    recover_capacity,
    shilkret_integral,
)
from idemkit.documents import capacity_to_doc
from idemkit.generate import random_capacity, trial_stream
from idemkit.spaces import FiniteSpace, Probe, RealFunction

GOLDEN = Path(__file__).parent / "data" / "golden_values.json"

FUNCTIONS = 6  # seeded functions per kind and size


def _space(n: int) -> FiniteSpace:
    return FiniteSpace(tuple(f"p{i}" for i in range(n)))


def _reordered(space: FiniteSpace, rng) -> FiniteSpace:
    """The same labels in a shuffled point order."""
    order = rng.permutation(len(space))
    return FiniteSpace(tuple(space.points[i] for i in order))


def _integral_inputs(n: int):
    """(name, function) pairs on the labels of _space(n): plain draws, draws
    with ties, and the same draws given on a reordered space, as label
    dicts and as probe vectors."""
    rng = trial_stream(6006, n)
    space = _space(n)
    other = _reordered(space, rng)
    for k in range(FUNCTIONS):
        plain = rng.uniform(-5.0, 5.0, n)
        tied = rng.integers(-2, 3, n) * 1.25
        for kind, vals in (("plain", plain), ("ties", tied)):
            values = {p: float(v) for p, v in zip(space.points, vals)}
            yield f"{kind} {k}", RealFunction(space, values)
            yield f"{kind} {k} reordered", RealFunction(other, values)
            yield f"{kind} {k} reordered probe", Probe(other, [values[p] for p in other.points])


def _summing(phi) -> float:
    return sum(phi.values.values())


def golden_values() -> dict:
    out: dict = {"maxplus_integral": {}, "shilkret_integral": {}, "recover_capacity": {}}
    for n in (4, 14):
        c = random_capacity(trial_stream(6007, n), _space(n))
        for name, phi in _integral_inputs(n):
            out["maxplus_integral"][f"n{n} {name}"] = repr(maxplus_integral(c, phi))
            out["shilkret_integral"][f"n{n} {name}"] = repr(shilkret_integral(c, phi))
    for n in (4, 12):
        space = _space(n)
        c = random_capacity(trial_stream(6008, n), space)
        table = recover_capacity(integral_functional(c), space, 40.0).table
        out["recover_capacity"][f"n{n}"] = [repr(v) for v in table.tolist()]
    # check_characterization's witnesses against an oracle that is no integral
    report = check_characterization(_summing, FiniteSpace(("a", "b", "c")), trials=50, seed=0)
    out["characterization_summing"] = {o.name: repr(o.witness) for o in report.failing()}
    rng = trial_stream(6009, 10)
    space = _reordered(_space(10), rng)
    text = json.dumps(capacity_to_doc(random_capacity(rng, space)))
    out["capacity_to_doc_sha256"] = {"n10 reordered": hashlib.sha256(text.encode()).hexdigest()}
    return out


def test_golden_values_are_unchanged():
    recorded = json.loads(GOLDEN.read_text())
    current = golden_values()
    assert current.keys() == recorded.keys()
    for group, values in recorded.items():
        changed = [k for k in values if current[group].get(k) != values[k]]
        assert current[group].keys() == values.keys(), group
        assert not changed, (group, changed)


def test_golden_inputs_cover_ties_and_reordered_spaces():
    names = [name for name, _ in _integral_inputs(4)]
    assert any("ties" in name and "probe" in name for name in names)
    for name, phi in _integral_inputs(14):
        if name.startswith("ties"):
            assert len(set(phi.values.values())) < len(phi.space)
        if "reordered" in name:
            assert phi.space.points != _space(14).points


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_values(), indent=1, sort_keys=True) + "\n")
