"""Fixed-size timings of single public operations, one module at a time.

These run in every traced run, untraced, on inputs made from the seed, so a
change to one operation shows here even when an end-to-end metric hides it.
Each probe repeats its call within a small time budget and reports the
median; the numpy references are timed alongside for comparison.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from bulk import PROBED_SUPPORT, SUPPORT, meta_density
from cli_calls import spawn
from common import clock, labels, median

BUDGET_S = 1.0
MAX_REPEATS = 7
SPAWNS = 5


def time_call(fn, *args) -> float:
    """Median seconds of one call, repeated until the budget is spent."""
    times = []
    start = clock()
    while len(times) < MAX_REPEATS and (not times or clock() - start < BUDGET_S):
        t0 = clock()
        fn(*args)
        times.append(clock() - t0)
    return median(times)


def run_probes(ik, seed: int) -> tuple[dict[str, float], dict[str, float]]:
    """Returns (per-layer metrics, reference timings for comparison)."""
    gen, docs = ik.generate, ik.documents
    rng = np.random.default_rng([seed, 0x9B0])
    s1 = ik.FiniteSpace(labels("x", 1000))
    s2 = ik.FiniteSpace(labels("x", 10_000))
    target = ik.FiniteSpace(labels("y", 1000))
    F1, F2 = meta_density(ik, rng, s1, SUPPORT), meta_density(ik, rng, s2, SUPPORT)
    N = meta_density(ik, rng, s1, PROBED_SUPPORT)
    f1 = gen.random_maxplus_density(rng, s1)
    f2 = gen.random_maxplus_density(rng, s2)
    g = gen.random_point_map(rng, s2, target)
    phi2 = gen.random_real_function(rng, s2)
    times2 = ik.density_exp(f2)
    sp = {n: ik.FiniteSpace(labels("p", n)) for n in (12, 14, 16)}
    caps = {n: gen.random_capacity(rng, sp[n]) for n in sp}
    pi16 = gen.random_possibility_profile(rng, sp[16])
    phi16 = gen.random_real_function(rng, sp[16])
    cap_doc = docs.capacity_to_doc(caps[14])
    dens_doc = docs.density_to_doc(f2)

    m: dict[str, float] = {}
    ms, us = 1e3, 1e6
    m["spaces.validate_map.n10000_ms"] = ms * time_call(ik.validate_map, g)
    m["spaces.FiniteSpace_eq.n10000_us"] = us * time_call(s2.__eq__, ik.FiniteSpace(s2.points))
    m["measures.MaxPlusDensity.n10000_ms"] = ms * time_call(ik.MaxPlusDensity, s2, f2.weights)
    m["measures.multiply.n1000_ms"] = ms * time_call(ik.multiply, F1)
    m["measures.multiply.n10000_ms"] = ms * time_call(ik.multiply, F2)
    m["measures.pushforward.n10000_ms"] = ms * time_call(ik.pushforward, g, f2)
    m["measures.eval_measure.n10000_us"] = us * time_call(ik.eval_measure, f2, phi2)
    m["measures.density_from_functional.n1000_ms"] = ms * time_call(
        ik.density_from_functional, lambda phi: ik.eval_measure(f1, phi), s1
    )
    m["measures.measure_multiplication.n1000_ms"] = ms * time_call(ik.measure_multiplication, N)
    m["isomorphism.density_exp.n10000_ms"] = ms * time_call(ik.density_exp, f2)
    m["isomorphism.density_log.n10000_ms"] = ms * time_call(ik.density_log, times2)
    m["capacities.Capacity.n16_ms"] = ms * time_call(ik.Capacity, sp[16], caps[16].table)
    m["capacities.capacity_from_profile.n16_ms"] = ms * time_call(ik.capacity_from_profile, pi16)
    m["capacities.maxplus_integral.n16_us"] = us * time_call(ik.maxplus_integral, caps[16], phi16)
    m["capacities.recover_capacity.n12_ms"] = ms * time_call(
        ik.recover_capacity, ik.integral_functional(caps[12]), sp[12]
    )
    m["capacities.recover_capacity.n14_ms"] = ms * time_call(
        ik.recover_capacity, ik.integral_functional(caps[14]), sp[14]
    )
    calls = 0
    oracle14 = ik.integral_functional(caps[14])

    def counting(phi):
        nonlocal calls
        calls += 1
        return oracle14(phi)

    ik.recover_capacity(counting, sp[14])
    m["capacities.recover_capacity.oracle_calls"] = float(calls)
    m["generate.random_meta.n10000_ms"] = ms * time_call(
        lambda: gen.random_meta(np.random.default_rng([seed, 0x3E7A]), s2, SUPPORT)
    )
    m["generate.random_capacity.n14_ms"] = ms * time_call(
        gen.random_capacity, np.random.default_rng([seed, 0xCA9]), sp[14]
    )
    m["documents.capacity_from_doc.n14_ms"] = ms * time_call(docs.capacity_from_doc, cap_doc, sp[14])
    m["documents.capacity_to_doc.n14_ms"] = ms * time_call(docs.capacity_to_doc, caps[14])
    m["documents.density_from_doc.n10000_ms"] = ms * time_call(docs.density_from_doc, dens_doc)
    m["documents.density_to_doc.n10000_ms"] = ms * time_call(docs.density_to_doc, f2)

    interp = median([spawn(["-c", "pass"])[1] for _ in range(SPAWNS)])
    imported = median([spawn(["-c", "import idemkit.cli"])[1] for _ in range(SPAWNS)])
    m["cli.interpreter_ms"] = ms * interp
    m["cli.import_ms"] = ms * (imported - interp)

    w1 = np.stack([[f.weights[p] for p in s1.points] for f, _ in F1.support])
    w2 = np.stack([[f.weights[p] for p in s2.points] for f, _ in F2.support])
    o1 = np.array([w for _, w in F1.support])
    o2 = np.array([w for _, w in F2.support])
    index = {p: i for i, p in enumerate(target.points)}
    g_index = np.array([index[g.assignment[p]] for p in s2.points])
    fw2 = np.array([f2.weights[p] for p in s2.points])
    references = {
        "reference.multiply.n1000_ms": ms * time_call(ref.multiply, w1, o1),
        "reference.multiply.n10000_ms": ms * time_call(ref.multiply, w2, o2),
        "reference.pushforward.n10000_ms": ms * time_call(ref.pushforward, fw2, g_index, len(target)),
    }
    return m, references
