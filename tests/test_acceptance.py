"""Acceptance battery: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting the stated tolerance and trial counts."""

import json
import math
import time
from pathlib import Path

import numpy as np

from idemkit.capacities import (
    check_characterization,
    check_repr,
    integral_functional,
    maxplus_integral,
    possibility_mult,
    recover_capacity,
    shilkret_integral,
)
from idemkit.cli import main
from idemkit.convexity import (
    barycenter,
    bounding_grid,
    check_algebra,
    check_convexity_equivalence,
    combine,
    density_weights,
    hull_member,
    index_space,
)
from idemkit.generate import (
    random_capacity,
    random_generator_set,
    random_maxplus_density,
    random_maxtimes_density,
    random_meta,
    random_meta_on_generators,
    random_meta_possibility,
    random_possibility_profile,
    random_real_function,
    random_space,
    random_third,
    random_third_times,
    random_weight_vector,
    trial_stream,
)
from idemkit.isomorphism import check_l_morphism, check_s_morphism, density_exp, density_log
from idemkit.laws import sweep_grid, swept_capacity_value
from idemkit.measures import (
    check_associativity,
    check_associativity_times,
    check_unit_laws,
    check_unit_laws_times,
    density_close,
    density_from_functional,
    dirac,
    eval_measure,
    measure_multiplication,
    multiply,
)


def _report(num: int, label: str, ok: bool, start: float, detail: str = "") -> float:
    # one line per criterion; run pytest with -s to stream them live
    elapsed = time.perf_counter() - start
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {status} {label} ({elapsed:.2f}s)"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    return elapsed


def test_criterion_01_unit_laws():
    start = time.perf_counter()
    bad = 0
    for i in range(1000):
        rng = trial_stream(0, i, tag=51)
        space = random_space(rng, 6)
        if not check_unit_laws(random_maxplus_density(rng, space), 1e-12):
            bad += 1
        if not check_unit_laws_times(random_maxtimes_density(rng, space), 1e-12):
            bad += 1
    elapsed = _report(1, "unit laws on 1000+1000 densities", bad == 0, start)
    assert bad == 0
    assert elapsed < 1.0


def test_criterion_02_associativity():
    start = time.perf_counter()
    bad = 0
    for i in range(500):
        rng = trial_stream(0, i, tag=52)
        space = random_space(rng, 4)
        if not check_associativity(random_third(rng, space), 1e-9):
            bad += 1
        if not check_associativity_times(random_third_times(rng, space), 1e-9):
            bad += 1
    elapsed = _report(2, "associativity of both multiplications, 500 third-level instances", bad == 0, start)
    assert bad == 0
    assert elapsed < 5.0


def test_criterion_03_round_trips():
    start = time.perf_counter()
    bad = 0
    for i in range(1000):
        rng = trial_stream(0, i, tag=53)
        space = random_space(rng, 6)
        f = random_maxplus_density(rng, space, min_weight=-32.0)
        oracle = lambda phi: eval_measure(f, phi)
        recovered = density_from_functional(oracle, space, 64.0)
        if not density_close(recovered, f, 1e-9):
            bad += 1
            continue
        for _ in range(20):
            phi = random_real_function(rng, space)
            if abs(eval_measure(recovered, phi) - oracle(phi)) > 1e-9:
                bad += 1
                break
    elapsed = _report(3, "density/functional round trips, 1000 densities x 20 probes", bad == 0, start)
    assert bad == 0
    assert elapsed < 2.0


def test_criterion_04_s_isomorphism():
    start = time.perf_counter()
    bad = 0
    for i in range(500):
        rng = trial_stream(0, i, tag=54)
        space = random_space(rng, 5)
        N = random_meta(rng, space)
        if not check_s_morphism(N, 64.0, 1e-9):
            bad += 1
        if not density_close(measure_multiplication(N, 64.0), multiply(N), 1e-9):
            bad += 1
    elapsed = _report(4, "probe-route multiplication matches the density route, 500 metas", bad == 0, start)
    assert bad == 0
    assert elapsed < 5.0


def test_criterion_05_l_morphism():
    start = time.perf_counter()
    bad = 0
    for i in range(500):
        rng = trial_stream(0, i, tag=55)
        space = random_space(rng, 5)
        if not check_l_morphism(random_meta(rng, space), 1e-9):
            bad += 1
    for i in range(1000):
        rng = trial_stream(1, i, tag=55)
        space = random_space(rng, 6)
        f = random_maxplus_density(rng, space)
        if not density_close(density_log(density_exp(f)), f, 1e-12):
            bad += 1
    elapsed = _report(5, "exp/log monad morphism (500 metas) and round trips (1000 densities)", bad == 0, start)
    assert bad == 0
    assert elapsed < 3.0


def test_criterion_06_representation_equality():
    start = time.perf_counter()
    bad = 0
    zero_profiles = 0
    for i in range(1000):
        rng = trial_stream(0, i, tag=56)
        space = random_space(rng, 8)
        pi = random_possibility_profile(rng, space)
        if any(v == 0.0 for v in pi.singletons.values()):
            zero_profiles += 1
        if not check_repr(pi, random_real_function(rng, space), 1e-9):
            bad += 1
    ok = bad == 0 and zero_profiles > 0
    elapsed = _report(6, "singleton and level-set integrals agree, 1000 pairs", ok, start,
                      f"{zero_profiles} profiles with exact zeros")
    assert bad == 0
    assert zero_profiles > 0
    assert elapsed < 2.0


def test_criterion_07_shilkret_correspondence():
    start = time.perf_counter()
    bad = 0
    for i in range(500):
        rng = trial_stream(0, i, tag=57)
        space = random_space(rng, 5)
        c = random_capacity(rng, space)
        phi = random_real_function(rng, space)
        if abs(math.exp(maxplus_integral(c, phi)) - shilkret_integral(c, phi)) > 1e-9:
            bad += 1
    elapsed = _report(7, "exp of the integral equals the product-scale integral, 500 pairs", bad == 0, start)
    assert bad == 0
    assert elapsed < 2.0


def test_criterion_08_characterization():
    start = time.perf_counter()
    bad = 0
    recovery_slack = max(1e-9, math.exp(-40.0))
    for i in range(200):
        rng = trial_stream(0, i, tag=58)
        space = random_space(rng, 5)
        c = random_capacity(rng, space)
        oracle = integral_functional(c)
        report = check_characterization(oracle, space, trials=200, seed=i, tol=1e-9)
        if not report.passed:
            bad += 1
            continue
        recovered = recover_capacity(oracle, space, 40.0)
        if float(np.max(np.abs(recovered.table - c.table))) > recovery_slack:
            bad += 1
    summing = check_characterization(
        lambda phi: sum(phi.values.values()), random_space(trial_stream(1, 0, tag=58), 5, min_points=2),
        trials=200, seed=0, tol=1e-9,
    )
    rejected = not summing.passed and all(o.witness is not None for o in summing.failing())
    ok = bad == 0 and rejected
    elapsed = _report(8, "200 integral functionals characterized and recovered; summing oracle rejected", ok, start)
    assert bad == 0
    assert rejected
    assert elapsed < 10.0


def test_criterion_09_convexity_equivalence():
    start = time.perf_counter()
    bad = 0
    for i in range(100):
        rng = trial_stream(0, i, tag=59)
        gens = random_generator_set(rng, 2 if i % 2 else 3)
        grid = bounding_grid(gens, per_axis=11)
        if not check_convexity_equivalence(gens, grid, 1e-9):
            bad += 1
    for i in range(200):
        rng = trial_stream(1, i, tag=59)
        gens = random_generator_set(rng, 2 if i % 2 else 3)
        if not check_algebra(gens, random_meta_on_generators(rng, len(gens)), 1e-9):
            bad += 1
    for i in range(100):
        rng = trial_stream(2, i, tag=59)
        gens = random_generator_set(rng, 2)
        k = int(rng.integers(0, len(gens)))
        unit = dirac(f"g{k}", index_space(len(gens)))
        if not np.array_equal(barycenter(gens, density_weights(unit)), gens.points[k]):
            bad += 1
        member = combine(gens, random_weight_vector(rng, len(gens)))
        others = np.stack([member, combine(gens, random_weight_vector(rng, len(gens)))])
        shifted = np.max(others + np.array([0.0, -1.5])[:, None], axis=0)
        if not hull_member(shifted, gens, 1e-9):
            bad += 1
    elapsed = _report(9, "hull/barycenter equivalence on 100 grids, 200 algebra checks, invariants", bad == 0, start)
    assert bad == 0
    assert elapsed < 30.0


def test_criterion_10_possibility_multiplication():
    start = time.perf_counter()
    grid = sweep_grid(10_000)
    bad = 0
    for i in range(200):
        rng = trial_stream(0, i, tag=60)
        space = random_space(rng, 4)
        C = random_meta_possibility(rng, space, quantum=10_000)
        rho = possibility_mult(C)
        pts = space.points
        for mask in range(1 << len(pts)):
            members = [p for k, p in enumerate(pts) if mask >> k & 1]
            closed = max((rho.singletons[p] for p in members), default=0.0)
            if abs(closed - swept_capacity_value(C, members, grid)) > 1e-6:
                bad += 1
                break
    elapsed = _report(10, "closed-form possibility multiplication vs 10^4-step sweep, 200 instances", bad == 0, start)
    assert bad == 0
    assert elapsed < 5.0


def test_criterion_11_harness_self_test(tmp_path, capsys):
    start = time.perf_counter()
    unit_json = str(tmp_path / "unit.json")
    assoc_json = str(tmp_path / "assoc.json")
    rc_unit = main(["laws", "--suite", "unit", "--trials", "50", "--seed", "0",
                    "--mutate", "drop-weight", "--json", unit_json])
    rc_assoc = main(["laws", "--suite", "assoc", "--trials", "50", "--seed", "0",
                     "--mutate", "drop-weight", "--json", assoc_json])
    mutated_ok = rc_unit == 1 and rc_assoc == 1
    witnesses_ok = True
    for path in (unit_json, assoc_json):
        doc = json.loads(Path(path).read_text())
        failures = doc["reports"][0]["failures"]
        if not failures or not failures[0]["witness"]:
            witnesses_ok = False

    clean_start = time.perf_counter()
    rc_all = main(["laws", "--suite", "all", "--trials", "500", "--seed", "0"])
    clean_elapsed = time.perf_counter() - clean_start
    capsys.readouterr()

    ok = mutated_ok and witnesses_ok and rc_all == 0 and clean_elapsed < 60.0
    _report(11, "mutated suites fail with witnesses; clean 500-trial run exits 0", ok, start,
            f"all-suite run {clean_elapsed:.1f}s")
    assert mutated_ok
    assert witnesses_ok
    assert rc_all == 0
    assert clean_elapsed < 60.0
