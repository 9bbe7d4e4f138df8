import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemkit import capacities
from idemkit.capacities import (
    PROBE_BLOCK_CELLS,
    Capacity,
    MetaPossibility,
    PossibilityProfile,
    bits_members,
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
    comonotone_rows,
    random_capacity,
    random_comonotone_pair,
    random_meta_possibility,
    random_possibility_profile,
    random_real_function,
    random_space,
    trial_stream,
)
from idemkit.laws import sweep_grid, swept_capacity_value
from idemkit.measures import density_from_functional
from idemkit.semiring import BOTTOM, log_bridge
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
    with pytest.raises(ValueError, match="^int too large to convert to float in the capacity table$"):
        Capacity(FiniteSpace(("a",)), [0, 10**400])


def test_capacity_from_profile_checks_the_size_before_the_table():
    # 2**40 entries would be 8 TiB; the size check comes first
    space = FiniteSpace(tuple(f"p{i}" for i in range(40)))
    profile = PossibilityProfile(space, {p: 1.0 for p in space.points})
    with pytest.raises(ValueError, match="^capacity tables support at most 20 points$"):
        capacity_from_profile(profile)


def _first_monotonicity_witness(space, table):
    """The witness of the monotonicity check made with one gather per point:
    the first point i, then the first worst mask in mask order."""
    idx = np.arange(len(table))
    for i in range(len(space)):
        grown = table[idx | (1 << i)]
        if np.any(table > grown + 1e-12):
            bad = int(np.argmax(table - grown))
            return f"capacity not monotone at {bits_members(space, bad)!r}"
    return None


def test_capacity_monotonicity_witness_matches_the_gather_check():
    raised = 0
    for n in range(1, 11):
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        for k in range(20):
            rng = trial_stream(610, n * 100 + k)
            table = rng.uniform(0.0, 1.0, 1 << n)
            if k % 2:  # mostly monotone: a few dips below a subset
                table = random_capacity(rng, space).table.copy()
                dips = rng.integers(1, len(table) - 1, 1 + n // 3) if n > 1 else []
                table[dips] = table[dips] * rng.uniform(0.0, 1.0, len(dips))
            table[0], table[-1] = 0.0, 1.0
            expected = _first_monotonicity_witness(space, table)
            if expected is None:
                Capacity(space, table)
                continue
            raised += 1
            with pytest.raises(ValueError) as info:
                Capacity(space, table)
            assert str(info.value) == expected
    assert raised >= 150


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


def _tied_rows(rng, m, n):
    """Rows of uniform draws, a third of them drawn from five values so that
    most have ties, and some holding only 0.0 and -0.0, which tie."""
    block = rng.uniform(-5.0, 5.0, (m, n))
    block[::3] = rng.integers(-2, 3, (len(block[::3]), n)) * 0.75
    block[1::5] = np.where(rng.random((len(block[1::5]), n)) < 0.5, 0.0, -0.0)
    return block


def _jittered_plateaus(rng, space):
    """A capacity with few distinct values, each entry but the whole space
    raised by up to 5e-13: monotone only within TABLE_SLACK, so a part of a
    tie group can have a larger value than the whole group."""
    table = np.ceil(random_capacity(rng, space).table * 4.0) / 4.0
    table[1:-1] = np.minimum(table[1:-1] + rng.uniform(0.0, 5e-13, len(table) - 2), 1.0)
    return Capacity(space, table)


def _indicator_rows(rng, m, n, bound=40.0):
    """recover_capacity's probe rows: 0.0 on a random non-empty subset and
    -bound off it, so every row holds at most two values."""
    masks = rng.integers(1, 1 << n, m)
    return np.where((masks[:, None] & (1 << np.arange(n))) != 0, 0.0, -bound)


def _signed_zero_rows(rng, m, n):
    """Rows that mix 0.0 and -0.0 with a few other values."""
    return rng.choice(np.array([0.0, -0.0, 0.0, -0.0, 1.5, -2.0]), (m, n))


def _sparse_capacity(rng, space, core):
    """A capacity that is 0 on every subset that misses one of the first
    `core` points, and on the subsets that hold them all a random capacity
    of the remaining points, so its log table takes 2**(n - core) logs:
    cheap at n = 20."""
    rest = random_capacity(rng, FiniteSpace(space.points[core:])).table
    table = np.zeros(1 << len(space))
    table[(1 << core) - 1 :: 1 << core] = rest  # the masks that hold the first `core` bits
    return Capacity(space, table)


def _assert_batch_is_the_scalar_integral(c, on, block):
    got = integral_functional(c).batch(block, on)
    assert got.shape == (len(block),)
    for row, value in zip(block, got.tolist()):
        phi = RealFunction(on, dict(zip(on.points, row.tolist())))
        assert repr(value) == repr(maxplus_integral(c, phi))
    return got


def test_integral_batch_matches_the_scalar_integral_row_by_row():
    for n in range(1, 21):
        rng = trial_stream(612, n)
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        reordered = FiniteSpace(tuple(space.points[i] for i in rng.permutation(n)[::-1]))
        if n <= 14:
            cases, m = (
                (random_capacity(rng, space), space),
                (random_capacity(rng, space), reordered),
                (_jittered_plateaus(rng, space), space),
            ), 60
        else:  # a few rows on large tables, the largest made cheap
            big = random_capacity(rng, space) if n <= 16 else _sparse_capacity(rng, space, n - 8)
            cases, m = ((big, reordered),), 6
        for c, on in cases:
            block = np.vstack(
                [_tied_rows(rng, m, n), _indicator_rows(rng, m, n), _signed_zero_rows(rng, m, n)]
            )
            got = _assert_batch_is_the_scalar_integral(c, on, block)
            if on is space:
                assert np.array_equal(integral_functional(c).batch(block), got)


DBL_MAX = np.finfo(float).max
# signed zeros, the ends of the float range, subnormals and the smallest
# normal, and a few plain values that rows repeat
ROW_POOL = (
    0.0, -0.0, DBL_MAX, -DBL_MAX,
    5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
    1.0, -1.0, 0.75, -3.0,
)


@st.composite
def _capacities_on_reordered_spaces(draw):
    """(capacity, space it is integrated on, rows): a random capacity, one
    with jittered plateaus, or one with zero entries, on 1-6 points, and a
    block of rows drawn from ROW_POOL, on the capacity's points in a drawn
    order."""
    n = draw(st.integers(1, 6))
    rng = trial_stream(616, draw(st.integers(0, 2**20)))
    space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
    kind = draw(st.sampled_from(("random", "plateaus", "zeros")))
    if kind == "plateaus":
        c = _jittered_plateaus(rng, space)
    else:
        c = random_capacity(rng, space)
        if kind == "zeros":
            table = c.table.copy()
            table[table < np.quantile(table, 0.5)] = 0.0  # still monotone
            c = Capacity(space, table)
    on = FiniteSpace(tuple(draw(st.permutations(space.points))))
    # a block takes its values from a few of the pool's, so that rows tie
    values = draw(st.lists(st.sampled_from(ROW_POOL), min_size=1, max_size=4, unique_by=repr))
    row = st.lists(st.sampled_from(values), min_size=n, max_size=n)
    block = np.array(draw(st.lists(row, min_size=1, max_size=8)), dtype=float)
    return c, on, block


@settings(max_examples=200, deadline=None)
@given(_capacities_on_reordered_spaces())
def test_integral_batch_is_the_scalar_integral_on_any_pooled_row(case):
    _assert_batch_is_the_scalar_integral(*case)


def test_integral_batch_masks_are_the_narrowest_unsigned_integers():
    # read by point count from a table made once, up to the largest capacity
    dtypes = capacities._MASK_DTYPES
    assert len(dtypes) == capacities.MAX_TABLE_POINTS + 1
    for n, want in ((1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
                    (17, np.uint32), (20, np.uint32)):
        assert dtypes[n] == np.dtype(want), n


def test_integral_batch_takes_an_empty_block_and_leaves_its_input_alone():
    c = random_capacity(trial_stream(613, 0), ABC)
    functional = integral_functional(c)
    assert functional.batch(np.zeros((0, 3))).shape == (0,)
    block = np.array([[1.0, 2.0, 2.0]])
    assert functional.batch(block).tolist() == [maxplus_integral(c, Probe(ABC, block[0]))]
    block[0, 0] = 3.0  # still writable: batch does not take the block over


def test_integral_batch_rejects_a_bad_block_and_names_the_row_and_point():
    functional = integral_functional(random_capacity(trial_stream(613, 1), ABC))
    for shape in ((3,), (2, 2), (2, 4), (1, 1, 3)):
        with pytest.raises(ValueError, match=r"\(m, 3\) block"):
            functional.batch(np.zeros(shape))
    for bad in (math.nan, math.inf, -math.inf):
        block = np.zeros((4, 3))
        block[2, 1] = bad
        with pytest.raises(ValueError, match=rf"{bad!r} at point 'b' in row 2"):
            functional.batch(block)
    with pytest.raises(ValueError, match="different spaces"):
        functional.batch(np.zeros((1, 2)), AB)


def test_log_table_is_read_only_and_is_log_bridge_of_each_entry():
    zeros = 0
    for n in range(1, 15):
        rng = trial_stream(615, n)
        space = FiniteSpace(tuple(f"p{i}" for i in rng.permutation(n)))
        table = random_capacity(rng, space).table.copy()
        table[table < np.quantile(table, 0.4)] = 0.0  # still monotone, with zeros
        c = Capacity(space, table)
        logs = c.log_table
        assert logs.dtype == np.float64 and logs.shape == table.shape
        assert not logs.flags.writeable
        with pytest.raises(ValueError):
            logs[0] = 0.0
        zeros += np.count_nonzero(table[1:] == 0.0)
        assert list(map(repr, logs.tolist())) == [repr(log_bridge(v)) for v in table.tolist()]
        assert c.log_table is logs
    assert zeros > 1000


def test_functionals_of_one_capacity_share_its_log_table():
    c = random_capacity(trial_stream(615, 20), ABC)
    first, second = integral_functional(c), integral_functional(c)
    block = _tied_rows(trial_stream(615, 21), 30, 3)
    assert "log_table" not in vars(c)
    got = first.batch(block)
    logs = vars(c)["log_table"]  # made by the first batch, on the capacity
    assert np.array_equal(second.batch(block), got)
    assert vars(c)["log_table"] is logs and c.log_table is logs


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
    for bound in (0.0, -1.0, math.inf, math.nan, "x", None, 10**400):
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
    assert 1 << len(space) > PROBE_BLOCK_CELLS // len(space)
    c = random_capacity(trial_stream(305, 0), space)
    oracle = integral_functional(c)
    recovered = recover_capacity(oracle, space, 40.0)
    assert np.array_equal(recovered.table, _recover_with_dict_probes(oracle, space, 40.0))
    assert np.max(np.abs(recovered.table - c.table)) <= 1e-9

    def by_values(phi):
        return maxplus_integral(c, RealFunction(space, dict(phi.values)))

    assert np.array_equal(recover_capacity(by_values, space, 40.0).table, recovered.table)


def test_recover_capacity_from_a_batch_matches_the_per_mask_calls():
    for n, seed in ((1, 0), (4, 1), (13, 2), (13, 3)):
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        reordered = FiniteSpace(space.points[::-1])
        functional = integral_functional(random_capacity(trial_stream(614, seed), space))
        for on in (space, reordered):
            one_by_one = recover_capacity(lambda phi: functional(phi), on, 40.0)
            assert np.array_equal(recover_capacity(functional, on, 40.0).table, one_by_one.table)


def test_recover_capacity_checks_what_a_batch_oracle_returns():
    class Short:
        def __call__(self, phi):
            return 0.0

        def batch(self, block, space):
            return np.zeros(len(block) - 1)

    with pytest.raises(ValueError, match="shape"):
        recover_capacity(Short(), ABC, 40.0)


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


def test_recover_capacity_at_16_points_matches_the_per_mask_dict_loop():
    space = FiniteSpace(tuple(f"p{i}" for i in range(16)))
    c = random_capacity(trial_stream(616, 0), space)
    functional = integral_functional(c)
    expected = _recover_with_dict_probes(functional, space, 40.0)
    assert np.array_equal(recover_capacity(functional, space, 40.0).table, expected)
    plain = recover_capacity(lambda phi: functional(phi), space, 40.0)
    assert np.array_equal(plain.table, expected)


class _SpyBatch:
    """A batch oracle that integrates against a capacity and keeps a copy of
    each probe block it is handed."""

    def __init__(self, functional):
        self.functional, self.blocks = functional, []

    def __call__(self, phi):
        raise AssertionError("a batch oracle is fed blocks")

    def batch(self, block, space):
        self.blocks.append(np.array(block))
        values = self.functional.batch(block, space)
        # the block's memory layout does not reach the floats
        again = self.functional.batch(np.ascontiguousarray(block), space)
        assert values.tobytes() == again.tobytes()
        return values


def test_recover_capacity_hands_a_batch_oracle_signed_indicator_rows_in_mask_order():
    # an int bound past int64 is a valid bound too, read as its float
    for n, bound in ((1, 40.0), (5, 3.0), (4, 2**64), (13, 40.0)):
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        spy = _SpyBatch(integral_functional(random_capacity(trial_stream(626, n), space)))
        recover_capacity(spy, space, bound)
        assert len(spy.blocks) == math.ceil(((1 << n) - 1) / (PROBE_BLOCK_CELLS // n))
        rows = np.concatenate(spy.blocks)
        members = rows == 0.0
        assert (members @ (1 << np.arange(n))).tolist() == list(range(1, 1 << n))
        # +0.0 on the subset, never -0.0, and exactly -bound off it
        assert not np.signbit(rows[members]).any()
        assert (rows[~members] == -float(bound)).all()


def test_recover_capacity_gives_a_plain_and_a_batch_oracle_the_same_bits():
    for n in range(1, 11):
        rng = trial_stream(627, n)
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        reordered = FiniteSpace(tuple(space.points[i] for i in rng.permutation(n)))
        functional = integral_functional(random_capacity(rng, space))
        contiguous = []

        def plain(phi):
            contiguous.append(phi.vector.flags.c_contiguous)
            return functional(phi)

        for on, bound in ((space, 40.0), (reordered, 40.0), (space, 3.0), (reordered, 3.0)):
            expected = recover_capacity(functional, on, bound).table.tobytes()
            assert recover_capacity(plain, on, bound).table.tobytes() == expected
        # a plain oracle's Probe rows are views of a C-ordered copy of the block
        assert len(contiguous) == 4 * ((1 << n) - 1) and all(contiguous)


class _BatchOf:
    """A batch oracle giving `value` on each row that holds point index i,
    and `other` on the rest."""

    def __init__(self, i, value, other=0.0):
        self.i, self.value, self.other = i, value, other

    def __call__(self, phi):
        raise AssertionError("a batch oracle is fed blocks")

    def batch(self, block, space):
        return np.where(block[:, self.i] == 0.0, self.value, self.other)


def test_recover_capacity_rejects_nan_and_plus_inf_and_names_the_subset():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"{bad!r} on the subset \('a',\)"):
            recover_capacity(_BatchOf(0, bad), ABC, 40.0)
        with pytest.raises(ValueError, match=rf"{bad!r} on the subset \('b',\)"):
            recover_capacity(_BatchOf(1, bad), ABC, 40.0)
        with pytest.raises(ValueError, match=rf"{bad!r} on the subset \('a', 'b'\)"):
            recover_capacity(lambda phi: bad if phi.vector[:2].tolist() == [0.0, 0.0] else 0.0, ABC)
        with pytest.raises(ValueError, match=rf"{bad!r} on the subset \('c',\)"):
            recover_capacity(lambda phi: bad if phi("c") == 0.0 else 0.0, ABC)
    # the first bad subset past the first probe block is named
    space = FiniteSpace(tuple(f"p{i}" for i in range(13)))
    with pytest.raises(ValueError, match=r"nan on the subset \('p12',\)"):
        recover_capacity(_BatchOf(12, math.nan), space, 40.0)


def test_recover_capacity_clamps_positive_values_and_sends_minus_inf_to_zero():
    for oracle in (
        lambda phi: 2.5 if phi("a") == 0.0 else -math.inf,
        _BatchOf(0, 2.5, -math.inf),
    ):
        assert recover_capacity(oracle, AB, 40.0).table.tolist() == [0.0, 1.0, 0.0, 1.0]


def test_check_characterization_accepts_integrals():
    for i in range(10):
        rng = trial_stream(305, i)
        space = random_space(rng, 5)
        c = random_capacity(rng, space)
        report = check_characterization(integral_functional(c), space, trials=50, seed=i)
        assert report.passed, report.failing()


@pytest.mark.parametrize(
    "field, value",
    [("trials", True), ("trials", 2.5), ("trials", "8"), ("seed", 1.5), ("seed", True), ("seed", "3")],
    ids=repr,
)
def test_check_characterization_refuses_a_trial_count_or_seed_that_is_not_an_integer(field, value):
    oracle = lambda phi: max(phi.values.values())
    message = rf"^{field} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        check_characterization(oracle, ABC, **{"trials": 3, "seed": 0, field: value})


def test_check_characterization_takes_numpy_integers_as_ints():
    # a failing oracle, so the reports carry witnesses drawn from the seed
    oracle = lambda phi: sum(phi.values.values())
    report = check_characterization(oracle, ABC, trials=np.int64(20), seed=np.uint64(4))
    assert report.outcomes == check_characterization(oracle, ABC, trials=20, seed=4).outcomes


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


def _characterization_one_call_at_a_time(oracle, space, trials, seed, tol=None):
    """check_characterization as it was before it drew in bulk: one fresh
    stream and one oracle call per function, stopping at the first failure."""
    tol = capacities.resolve_tolerance(tol)
    v = float(oracle(RealFunction.constant(space, 1.0)))
    report = capacities.CharacterizationReport()
    report.outcomes.append(
        capacities.ConditionOutcome(
            "normalization", 1, abs(v - 1.0) <= tol, None if abs(v - 1.0) <= tol else {"value": v}
        )
    )
    como = capacities.ConditionOutcome("comonotone-maxitivity", trials, True)
    for k in range(trials):
        phi, psi = random_comonotone_pair(trial_stream(seed, k, tag=1), space)
        left = float(oracle(fn_max(phi, psi)))
        right = max(float(oracle(phi)), float(oracle(psi)))
        if not capacities.score_eq(left, right, tol):
            como.passed = False
            como.witness = {"phi": phi.values, "psi": psi.values, "joined": left, "max_of_parts": right}
            break
    report.outcomes.append(como)
    trans = capacities.ConditionOutcome("translation", trials, True)
    for k in range(trials):
        rng = trial_stream(seed, k, tag=2)
        phi = random_real_function(rng, space)
        lam = float(rng.uniform(-3.0, 3.0))
        left = float(oracle(fn_shift(phi, lam)))
        right = lam + float(oracle(phi))
        if not capacities.score_eq(left, right, tol):
            trans.passed = False
            trans.witness = {"phi": phi.values, "lam": lam, "shifted": left, "direct": right}
            break
    report.outcomes.append(trans)
    return report


def _reports_equal(a, b) -> bool:
    # repr tells -0.0 from 0.0, which == does not
    return repr(a.outcomes) == repr(b.outcomes)


def test_check_characterization_batch_equals_the_scalar_integral():
    pairs = failing = 0
    for i in range(60):
        rng = trial_stream(618, i)
        space = random_space(rng, 5)
        c = random_capacity(rng, space)
        scalar = lambda phi, c=c: maxplus_integral(c, phi)
        # tol = 0 fails translation on rounding, so the witnesses are compared too
        for tol in (None, 0.0):
            batch = check_characterization(integral_functional(c), space, trials=20, seed=i, tol=tol)
            plain = check_characterization(scalar, space, trials=20, seed=i, tol=tol)
            before = _characterization_one_call_at_a_time(scalar, space, 20, i, tol)
            assert _reports_equal(batch, plain) and _reports_equal(batch, before), (i, tol)
            pairs += 1
            failing += not batch.passed
    assert pairs >= 100 and failing > 0


@pytest.mark.parametrize(
    "oracle",
    [
        lambda phi: sum(phi.values.values()),
        lambda phi: max(phi.values.values()),
        lambda phi: phi("a") + 0.5,
        lambda phi: min(phi.values.values()) + (phi("b") > 0),
    ],
)
def test_check_characterization_keeps_the_reports_of_one_call_at_a_time(oracle):
    for seed, space in ((0, ABC), (1, FiniteSpace(("c", "a", "b", "d"))), (2, AB)):
        for tol in (None, 0.0):
            assert _reports_equal(
                check_characterization(oracle, space, trials=40, seed=seed, tol=tol),
                _characterization_one_call_at_a_time(oracle, space, 40, seed, tol),
            )


def test_check_characterization_calls_a_plain_oracle_on_every_row_in_order():
    seen = []

    def recording(phi):
        seen.append(phi.vector.tolist())
        return max(phi.values.values())

    space, trials = FiniteSpace(("b", "a", "c", "d")), 6
    assert check_characterization(recording, space, trials=trials, seed=3).passed
    expected = [[1.0] * 4]
    for k in range(trials):
        phi, psi = random_comonotone_pair(trial_stream(3, k, tag=1), space)
        expected += [fn_max(phi, psi).vector.tolist(), phi.vector.tolist(), psi.vector.tolist()]
    for k in range(trials):
        rng = trial_stream(3, k, tag=2)
        phi = random_real_function(rng, space)
        lam = float(rng.uniform(-3.0, 3.0))
        expected += [(phi.vector + lam).tolist(), phi.vector.tolist()]
    assert seen == expected


def test_a_plain_oracle_sees_the_rows_after_a_failure_in_its_block():
    calls = []
    oracle = lambda phi: calls.append(phi) or sum(phi.values.values())
    report = check_characterization(oracle, ABC, trials=50, seed=0)
    assert {o.name for o in report.failing()} >= {"translation"}
    assert len(calls) == 1 + 3 * 50 + 2 * 50


def test_check_characterization_takes_blocks_within_the_probe_budget(monkeypatch):
    space = FiniteSpace(tuple("abcde"))
    c = random_capacity(trial_stream(619, 0), space)
    shapes = []

    class Spy:
        def __init__(self):
            self.inner = integral_functional(c)

        def batch(self, block, space):
            shapes.append(block.shape)
            return self.inner.batch(block, space)

    monkeypatch.setattr(capacities, "PROBE_BLOCK_CELLS", 70)  # 4 comonotone trials, 7 translations
    report = check_characterization(Spy(), space, trials=10, seed=5)
    assert report.passed
    assert shapes == [(1, 5), (12, 5), (12, 5), (6, 5), (14, 5), (6, 5)]
    scalar = lambda phi: maxplus_integral(c, phi)
    assert _reports_equal(report, _characterization_one_call_at_a_time(scalar, space, 10, 5))


def test_comonotone_rows_draw_in_the_recorded_order():
    for n in range(1, 7):
        new, old = trial_stream(620, n), trial_stream(620, n)
        got = comonotone_rows(new, n)
        ranks = old.integers(0, n, n)
        for row in got:
            incs = old.uniform(0.0, 2.0, n)
            incs[old.random(n) < 0.3] = 0.0
            offset = float(old.uniform(-3.0, 3.0))
            assert repr(row.tolist()) == repr((offset + np.cumsum(incs))[ranks].tolist())
        assert new.random() == old.random()  # no draw more or less
        phi, psi = random_comonotone_pair(trial_stream(620, n), FiniteSpace(tuple("abcdef"[:n])))
        assert repr((phi.vector.tolist(), psi.vector.tolist())) == repr(
            tuple(row.tolist() for row in got)
        )


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


def test_integrals_refuse_a_function_on_other_points():
    c = Capacity(AB, np.array([0.0, 1.0, 0.25, 1.0]))
    phi = RealFunction(ABC, {"a": 0.0, "b": 1.0, "c": 2.0})
    for integral in (maxplus_integral, shilkret_integral):
        with pytest.raises(ValueError, match="^capacity and function live on different spaces$"):
            integral(c, phi)


def test_shilkret_integral_starts_its_max_at_zero():
    """The level-set candidates exp(t) * c({phi >= t}) would be nan, when
    exp(t) overflows to inf on a level set of capacity 0, or -0.0, when it
    underflows to 0 on one of capacity -0.0.  The max skips those level
    sets, so it starts at a candidate of 0.0 or more and neither is ever
    the answer; no overflow warns either, and the test runs with warnings
    as errors."""
    phi = RealFunction(AB, {"a": 800.0, "b": 1.0})
    c = Capacity(AB, np.array([0.0, 0.0, 0.5, 1.0]))  # c({a}) = 0, c({b}) = 0.5
    assert repr(shilkret_integral(c, phi)) == repr(math.e)
    c = Capacity(AB, np.array([0.0, 0.3, 0.5, 1.0]))  # c({a}) = 0.3: exp(800) * 0.3
    assert shilkret_integral(c, phi) == math.inf
    c = Capacity(AB, np.array([0.0, -0.0, 0.5, 1.0]))  # c({a}) = -0.0
    assert repr(shilkret_integral(c, RealFunction(AB, {"a": -800.0, "b": -900.0}))) == "0.0"


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


class _CountingBatch:
    """An integral functional's batch that records the rows of each block."""

    def __init__(self, c):
        self.functional, self.rows = integral_functional(c), []

    def batch(self, block, space):
        self.rows.append(len(block))
        return self.functional.batch(block, space)


def test_recover_capacity_follows_the_probe_block_budget(monkeypatch):
    # blocks of 10, 384 and (the floor) 1 rows
    for n, cells in ((4, 40), (13, 5000), (6, 5)):
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        c = random_capacity(trial_stream(617, n), space)
        whole = recover_capacity(integral_functional(c), space, 40.0)
        monkeypatch.setattr(capacities, "PROBE_BLOCK_CELLS", cells)
        oracle = _CountingBatch(c)
        split = recover_capacity(oracle, space, 40.0)
        monkeypatch.undo()
        step = max(1, cells // n)
        assert len(oracle.rows) > 1 and max(oracle.rows) == step
        assert oracle.rows == [min(step, (1 << n) - start) for start in range(1, 1 << n, step)]
        assert split.table.tobytes() == whole.table.tobytes()


def test_both_readers_reject_a_batch_of_the_wrong_shape_with_one_text():
    class Five:
        def batch(self, block, space):
            return np.zeros(5)

    messages = []
    for space in (ABC, FiniteSpace(("a",))):
        for read in (density_from_functional, recover_capacity):
            with pytest.raises(ValueError) as info:
                read(Five(), space)
            messages.append(str(info.value))
    assert messages[0] == "a batch oracle returned shape (5,) for 3 probe rows"
    assert messages[1] == "a batch oracle returned shape (5,) for 7 probe rows"
    assert messages[2] == messages[3] == "a batch oracle returned shape (5,) for 1 probe rows"
