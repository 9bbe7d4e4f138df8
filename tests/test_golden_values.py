"""Golden values of the capacity and monad layers: exact outputs on seeded
inputs.

A fast path must reproduce these to the last bit.  The file
`data/golden_values.json` was recorded with the scalar integrals, the
per-call recovery loop and the per-mask capacity document, and with the
label-dict loops of the monad operations and the exp/log bridge; to record
it again after a deliberate change, run

    PYTHONPATH=src python tests/test_golden_values.py

and list every changed value with its cause in the change log.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from idemkit.capacities import (
    check_characterization,
    integral_functional,
    maxplus_integral,
    recover_capacity,
    shilkret_integral,
)
from idemkit.convexity import barycenter_members, bounding_grid, hull_members
from idemkit.documents import capacity_to_doc
from idemkit.generate import (
    random_capacity,
    random_generator_set,
    random_maxplus_density,
    random_maxtimes_density,
    trial_stream,
)
from idemkit.isomorphism import density_exp, density_log, meta_exp
from idemkit.measures import (
    MAXPLUS,
    MAXTIMES,
    METAS,
    MaxTimesDensity,
    density_from_functional,
    eval_measure,
    measure_multiplication,
    multiply,
    multiply_times,
    pushforward,
)
from idemkit.spaces import FiniteSpace, PointMap, Probe, RealFunction

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


def _signed_zeros(f):
    """The same density with every zero weight given as -0.0."""
    return type(f)(f.space, {p: -0.0 if w == 0.0 else w for p, w in f.weights.items()})


def _density(rng, side, space):
    if side is MAXPLUS:
        return random_maxplus_density(rng, space)
    return random_maxtimes_density(rng, space)


def _meta(rng, side, n: int):
    """A meta density on the labels of _space(n) with three supports, all
    with bottom weights: one on the plain space, one with its zeros given
    as -0.0, and one on a reordered space."""
    space = _space(n)
    other = _reordered(space, rng)
    dens = (_density(rng, side, space), _signed_zeros(_density(rng, side, space)), _density(rng, side, other))
    if side is MAXPLUS:
        # the signed-zero density at weight -0.0 keeps its -0.0 peak
        weights = np.array([0.0, -0.0, float(rng.uniform(-4.0, 0.0))])
    else:
        draws = rng.uniform(0.1, 1.0, len(dens))
        weights = draws / draws.max()
    return METAS[side.kind](tuple(zip(dens, weights.tolist())))


def _weights_repr(f, n: int) -> list[str]:
    """Every weight's repr, in the point order of _space(n)."""
    return [repr(f.weights[p]) for p in _space(n).points]


def _verdicts(members) -> str:
    return "".join("1" if m else "0" for m in members.tolist())


def monad_golden_values() -> dict:
    out: dict = {}
    for n in (4, 1000):
        rng = trial_stream(6010, n)
        space = _space(n)
        other = _reordered(space, rng)
        for side in (MAXPLUS, MAXTIMES):
            F = _meta(rng, side, n)
            out[f"multiply {side.kind} n{n}"] = _weights_repr(multiply(F), n)
            # the density on a reordered source; the last target points get empty fibres
            m = max(2, n // 10)
            target = FiniteSpace(tuple(f"q{i}" for i in range(m)))
            picks = rng.integers(0, m - 1, n)
            g = PointMap(space, target, {p: target.points[int(k)] for p, k in zip(space.points, picks)})
            pushed = pushforward(g, _signed_zeros(_density(rng, side, other)))
            out[f"pushforward {side.kind} n{n}"] = [repr(pushed.weights[q]) for q in target.points]
        N = _meta(rng, MAXPLUS, n)
        out[f"measure_multiplication n{n}"] = _weights_repr(measure_multiplication(N), n)
        out[f"multiply_times of meta_exp n{n}"] = _weights_repr(multiply_times(meta_exp(N)), n)
        f = _signed_zeros(random_maxplus_density(rng, space))
        for name, on in (("", space), (" reordered", other)):
            got = density_from_functional(lambda phi: eval_measure(f, phi), on)
            out[f"density_from_functional of eval_measure{name} n{n}"] = _weights_repr(got, n)
        out[f"density_exp n{n}"] = _weights_repr(density_exp(f), n)
        g = _signed_zeros(random_maxtimes_density(rng, other))
        out[f"density_log n{n}"] = _weights_repr(density_log(g), n)
        # a peak inside the max-times slack, which density_log shifts out
        near = MaxTimesDensity(other, {p: w * (1.0 - 5e-13) for p, w in g.weights.items()})
        out[f"density_log near peak n{n}"] = _weights_repr(density_log(near), n)
    return out


def convexity_golden_verdicts() -> dict:
    out: dict = {}
    rng = trial_stream(6011, 0)
    for k in range(6):
        dim = 2 + k % 2
        gens = random_generator_set(rng, dim)
        grid = bounding_grid(gens, 11 if dim == 2 else 7)
        out[f"hull {k} d{dim}"] = _verdicts(hull_members(grid, gens))
        out[f"barycenter {k} d{dim}"] = _verdicts(barycenter_members(grid, gens))
    return out


def golden_values() -> dict:
    out: dict = {"maxplus_integral": {}, "shilkret_integral": {}, "recover_capacity": {}}
    out["monad"] = monad_golden_values()
    out["convexity_verdicts"] = convexity_golden_verdicts()
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
