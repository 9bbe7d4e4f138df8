import math

import numpy as np
import pytest

from idemkit.capacities import (
    RECOVERY_BLOCK,
    Capacity,
    MetaPossibility,
    PossibilityProfile,
    capacity_from_profile,
    check_characterization,
    check_repr,
    integral_functional,
    is_possibility,
    maxplus_integral,
    possibility_integral,
    possibility_mult,
    recover_capacity,
    shilkret_integral,
    subset_bits,
)
from idemkit.generate import (
    random_capacity,
    random_comonotone_pair,
    random_meta_possibility,
    random_possibility_profile,
    random_real_function,
    random_space,
    trial_stream,
)
from idemkit.laws import sweep_grid, swept_capacity_value
from idemkit.semiring import BOTTOM
from idemkit.spaces import FiniteSpace, Probe, RealFunction, fn_max, fn_shift

ABC = FiniteSpace(("a", "b", "c"))
AB = FiniteSpace(("a", "b"))

WORKED_PROFILE = {"a": 1.0, "b": 0.5, "c": 0.1}
WORKED_PHI = {"a": 0.0, "b": 1.0, "c": 2.0}
WORKED_INTEGRAL = 0.3068528194400547  # 1 + ln(0.5), beats 0 and 2 + ln(0.1)


def brute_integral(c: Capacity, phi: RealFunction, steps: int = 200_001) -> float:
    """Independent oracle: sweep a fine threshold grid instead of the value set."""
    vals = list(phi.values.values())
    lo, hi = min(vals) - 1.0, max(vals) + 1.0
    best = BOTTOM
    for t in np.linspace(lo, hi, steps):
        members = [p for p, v in phi.values.items() if v >= t]
        cv = c.value(members)
        if cv > 0.0:
            best = max(best, math.log(cv) + t)
    return best


def test_capacity_from_profile_examples():
    pi = PossibilityProfile(ABC, WORKED_PROFILE)
    c = capacity_from_profile(pi)
    assert c.value({"b", "c"}) == 0.5
    assert c.value(set()) == 0.0
    assert c.value({"a", "b", "c"}) == 1.0


def test_capacity_from_profile_is_the_subset_max():
    for n in range(1, 11):
        rng = trial_stream(310, n)
        profile = random_possibility_profile(rng, FiniteSpace(tuple(f"p{i}" for i in range(n))))
        values = [profile.weights[p] for p in profile.space.points]
        expected = [max([0.0] + [v for i, v in enumerate(values) if m >> i & 1]) for m in range(1 << n)]
        c = capacity_from_profile(profile)
        assert c.table.tolist() == expected
        assert is_possibility(c)


def test_capacity_validation():
    with pytest.raises(ValueError):
        Capacity(AB, [0.0, 0.5, 0.5, 0.9])  # whole space below 1
    with pytest.raises(ValueError):
        Capacity(AB, [0.1, 0.5, 0.5, 1.0])  # empty set above 0
    with pytest.raises(ValueError):
        Capacity(AB, [0.0, 0.8, 0.5, 0.7])  # not monotone
    with pytest.raises(ValueError):
        Capacity(FiniteSpace(tuple(f"p{i}" for i in range(21))), [0.0])


def test_is_possibility():
    pi = PossibilityProfile(ABC, WORKED_PROFILE)
    assert is_possibility(capacity_from_profile(pi))
    lumpy = Capacity(AB, [0.0, 0.3, 0.3, 1.0])
    assert not is_possibility(lumpy)
    dirac_cap = Capacity(AB, [0.0, 1.0, 0.0, 1.0])
    assert is_possibility(dirac_cap)


def test_maxplus_integral_worked_example():
    c = capacity_from_profile(PossibilityProfile(ABC, WORKED_PROFILE))
    phi = RealFunction(ABC, WORKED_PHI)
    assert maxplus_integral(c, phi) == pytest.approx(WORKED_INTEGRAL, abs=1e-12)
    # the fine-grid sweep only misses an attained value by its step
    assert brute_integral(c, phi) == pytest.approx(WORKED_INTEGRAL, abs=1e-4)


def test_maxplus_integral_constant_function():
    c = capacity_from_profile(PossibilityProfile(ABC, WORKED_PROFILE))
    assert maxplus_integral(c, RealFunction.constant(ABC, 2.5)) == pytest.approx(2.5, abs=1e-12)


def test_maxplus_integral_all_or_nothing_capacity():
    n = len(ABC)
    table = np.zeros(1 << n)
    table[-1] = 1.0
    c = Capacity(ABC, table)
    phi = RealFunction(ABC, {"a": -1.0, "b": 3.0, "c": 0.5})
    assert maxplus_integral(c, phi) == pytest.approx(-1.0, abs=1e-12)


def test_maxplus_integral_matches_brute_force_on_random_input():
    for i in range(5):
        rng = trial_stream(301, i)
        space = random_space(rng, 4)
        c = random_capacity(rng, space)
        phi = random_real_function(rng, space)
        assert brute_integral(c, phi) == pytest.approx(maxplus_integral(c, phi), abs=1e-4)


def test_integrals_read_a_function_on_a_reordered_space_by_label():
    c = Capacity(AB, np.array([0.0, 1.0, 0.25, 1.0]))  # c({a}) = 1, c({b}) = 0.25
    expected = (math.log(0.25) + 2.0, math.exp(2.0) * 0.25)
    for space in (AB, FiniteSpace(("b", "a"))):
        phi = RealFunction(space, {"a": 0.0, "b": 2.0})
        probe = Probe(space, [phi(p) for p in space.points])
        for f in (phi, probe):
            assert maxplus_integral(c, f) == expected[0]
            assert shilkret_integral(c, f) == expected[1]
    for i in range(20):
        rng = trial_stream(309, i)
        space = random_space(rng, 5)
        c = random_capacity(rng, space)
        phi = random_real_function(rng, space)
        turned = FiniteSpace(space.points[::-1])
        for f in (RealFunction(turned, phi.values), Probe(turned, [phi(p) for p in turned.points])):
            assert maxplus_integral(c, f) == maxplus_integral(c, phi)
            assert shilkret_integral(c, f) == shilkret_integral(c, phi)


def test_possibility_integral_examples():
    pi = PossibilityProfile(ABC, WORKED_PROFILE)
    phi = RealFunction(ABC, WORKED_PHI)
    assert possibility_integral(pi, phi) == pytest.approx(WORKED_INTEGRAL, abs=1e-12)
    point_mass = PossibilityProfile(ABC, {"a": 0.0, "b": 1.0, "c": 0.0})
    assert possibility_integral(point_mass, phi) == 1.0
    assert possibility_integral(pi, RealFunction.constant(ABC, -2.0)) == pytest.approx(-2.0)


def test_check_repr():
    pi = PossibilityProfile(ABC, WORKED_PROFILE)
    assert check_repr(pi, RealFunction(ABC, WORKED_PHI))
    point_mass = PossibilityProfile(ABC, {"a": 0.0, "b": 0.0, "c": 1.0})
    for i in range(20):
        rng = trial_stream(302, i)
        assert check_repr(point_mass, random_real_function(rng, ABC))
    for i in range(200):
        rng = trial_stream(303, i)
        space = random_space(rng, 8)
        pi = random_possibility_profile(rng, space)
        assert check_repr(pi, random_real_function(rng, space))


def test_integral_functional_examples():
    dirac_cap = Capacity(AB, [0.0, 1.0, 0.0, 1.0])
    oracle = integral_functional(dirac_cap)
    for i in range(20):
        rng = trial_stream(304, i)
        phi = random_real_function(rng, AB)
        assert oracle(phi) == pytest.approx(phi("a"), abs=1e-12)
    c = capacity_from_profile(PossibilityProfile(ABC, WORKED_PROFILE))
    assert integral_functional(c)(RealFunction.constant(ABC, 1.0)) == pytest.approx(1.0)


def test_recover_capacity_round_trip():
    c = capacity_from_profile(PossibilityProfile(ABC, WORKED_PROFILE))
    recovered = recover_capacity(integral_functional(c), ABC, 40.0)
    assert np.max(np.abs(recovered.table - c.table)) <= 1e-9


def test_recover_capacity_dirac_functional():
    oracle = lambda phi: phi("a")
    recovered = recover_capacity(oracle, AB, 40.0)
    expected = np.array([0.0, 1.0, 0.0, 1.0])
    assert np.max(np.abs(recovered.table - expected)) <= 1e-9


def test_recover_capacity_zero_entries_floor():
    table = np.zeros(4)
    table[-1] = 1.0
    c = Capacity(AB, table)
    recovered = recover_capacity(integral_functional(c), AB, 40.0)
    assert 0.0 < recovered.table[1] <= math.exp(-40.0) + 1e-22
    with pytest.raises(ValueError):
        recover_capacity(integral_functional(c), AB, -1.0)


def test_recover_capacity_rejects_bad_bound():
    c = Capacity(AB, np.array([0.0, 0.5, 0.5, 1.0]))
    for bound in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="bound"):
            recover_capacity(integral_functional(c), AB, bound)


def _recover_with_dict_probes(oracle, space, bound):
    """The recovery loop on label-dict probes, one per non-empty subset."""
    table = np.zeros(1 << len(space))
    for mask in range(1, 1 << len(space)):
        phi = RealFunction(
            space, {p: 0.0 if mask >> i & 1 else -bound for i, p in enumerate(space.points)}
        )
        table[mask] = math.exp(min(0.0, float(oracle(phi))))
    return table


def test_recover_capacity_across_probe_blocks():
    space = FiniteSpace(tuple(f"p{i}" for i in range(13)))
    assert 1 << len(space) > RECOVERY_BLOCK
    c = random_capacity(trial_stream(305, 0), space)
    oracle = integral_functional(c)
    recovered = recover_capacity(oracle, space, 40.0)
    assert np.array_equal(recovered.table, _recover_with_dict_probes(oracle, space, 40.0))
    assert np.max(np.abs(recovered.table - c.table)) <= 1e-9

    def by_values(phi):
        return maxplus_integral(c, RealFunction(space, dict(phi.values)))

    assert np.array_equal(recover_capacity(by_values, space, 40.0).table, recovered.table)


def test_recover_capacity_calls_the_oracle_once_per_subset_in_mask_order():
    for n in (1, 4, 13):
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        c = random_capacity(trial_stream(306, n), space)
        seen = []

        def oracle(phi):
            assert isinstance(phi, Probe) and phi.space is space
            seen.append(sum(1 << i for i, v in enumerate(phi.vector) if v == 0.0))
            return maxplus_integral(c, phi)

        recover_capacity(oracle, space, 40.0)
        assert seen == list(range(1, 1 << n))


def test_check_characterization_accepts_integrals():
    for i in range(10):
        rng = trial_stream(305, i)
        space = random_space(rng, 5)
        c = random_capacity(rng, space)
        report = check_characterization(integral_functional(c), space, trials=50, seed=i)
        assert report.passed, report.failing()


def test_check_characterization_rejects_summing_oracle():
    oracle = lambda phi: sum(phi.values.values())
    report = check_characterization(oracle, ABC, trials=50, seed=0)
    assert not report.passed
    failing = {o.name for o in report.failing()}
    assert "translation" in failing
    assert all(o.witness is not None for o in report.failing())


def test_check_characterization_max_oracle_passes_and_recovers_ones():
    oracle = lambda phi: max(phi.values.values())
    report = check_characterization(oracle, ABC, trials=50, seed=0)
    assert report.passed
    recovered = recover_capacity(oracle, ABC, 40.0)
    assert np.all(recovered.table[1:] == 1.0)


def test_integral_translation_and_comonotone_maxitivity():
    for i in range(100):
        rng = trial_stream(306, i)
        space = random_space(rng, 5)
        c = random_capacity(rng, space)
        phi = random_real_function(rng, space)
        lam = float(rng.uniform(-3.0, 3.0))
        assert maxplus_integral(c, fn_shift(phi, lam)) == pytest.approx(
            lam + maxplus_integral(c, phi), abs=1e-9
        )
        f1, f2 = random_comonotone_pair(rng, space)
        joined = maxplus_integral(c, fn_max(f1, f2))
        assert joined == pytest.approx(
            max(maxplus_integral(c, f1), maxplus_integral(c, f2)), abs=1e-9
        )


def test_integral_monotone_in_the_capacity():
    for i in range(50):
        rng = trial_stream(307, i)
        space = random_space(rng, 4)
        c1 = random_capacity(rng, space)
        c2 = random_capacity(rng, space)
        bigger = Capacity(space, np.maximum(c1.table, c2.table))
        phi = random_real_function(rng, space)
        assert maxplus_integral(c1, phi) <= maxplus_integral(bigger, phi) + 1e-12


def test_shilkret_correspondence():
    for i in range(100):
        rng = trial_stream(308, i)
        space = random_space(rng, 5)
        c = random_capacity(rng, space)
        phi = random_real_function(rng, space)
        assert math.exp(maxplus_integral(c, phi)) == pytest.approx(
            shilkret_integral(c, phi), abs=1e-9
        )


def test_possibility_mult_examples():
    pi1 = PossibilityProfile(AB, {"a": 1.0, "b": 0.0})
    pi2 = PossibilityProfile(AB, {"a": 0.0, "b": 1.0})
    C = MetaPossibility(((pi1, 1.0), (pi2, 0.5)))
    rho = possibility_mult(C)
    assert rho.singletons == {"a": 1.0, "b": 0.5}

    single = MetaPossibility(((pi1, 1.0),))
    assert possibility_mult(single).singletons == pi1.singletons

    pi3 = PossibilityProfile(AB, {"a": 0.6, "b": 1.0})
    C2 = MetaPossibility(((pi1, 1.0), (pi3, 0.5)))
    rho2 = possibility_mult(C2)
    assert rho2.singletons["a"] == 1.0
    assert rho2.singletons["b"] == 0.5


def test_possibility_mult_matches_threshold_sweep():
    grid = sweep_grid()
    for i in range(20):
        rng = trial_stream(309, i)
        space = random_space(rng, 4)
        C = random_meta_possibility(rng, space, quantum=len(grid))
        rho = possibility_mult(C)
        pts = space.points
        for mask in range(1 << len(pts)):
            members = [p for k, p in enumerate(pts) if mask >> k & 1]
            closed = max((rho.singletons[p] for p in members), default=0.0)
            assert abs(closed - swept_capacity_value(C, members, grid)) <= 1e-6


def test_meta_possibility_constructor():
    pi1 = PossibilityProfile(AB, {"a": 1.0, "b": 0.0})
    with pytest.raises(ValueError):
        MetaPossibility(((pi1, 0.5),))  # peak weight below 1
    dropped = MetaPossibility(((pi1, 1.0), (PossibilityProfile(AB, {"a": 0.0, "b": 1.0}), 0.0)))
    assert len(dropped.support) == 1


def test_random_capacity_is_the_upward_sweep():
    for n in range(1, 9):
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        for seed in range(20):
            vals = np.random.default_rng(seed).uniform(0.0, 1.0, 1 << n)
            for mask in range(1, 1 << n):
                for i in range(n):
                    if mask >> i & 1:
                        below = vals[mask ^ (1 << i)]
                        if below > vals[mask]:
                            vals[mask] = below
            vals[0] = 0.0
            got = random_capacity(np.random.default_rng(seed), space)
            assert got.table.tobytes() == (vals / vals[-1]).tobytes()


def test_subset_bits_order():
    assert subset_bits(ABC, ["a"]) == 1
    assert subset_bits(ABC, ["c", "a"]) == 5
    with pytest.raises(ValueError):
        subset_bits(ABC, ["z"])
    with pytest.raises(ValueError, match="unknown point"):
        subset_bits(ABC, [["a"]])
