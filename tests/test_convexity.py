import numpy as np
import pytest

from idemkit.cli import main
from idemkit.convexity import (
    GeneratorSet,
    HullVerdicts,
    barycenter,
    barycenter_member,
    barycenter_members,
    bounding_grid,
    _certificates_hold,
    certify_members,
    check_algebra,
    check_convexity_equivalence,
    combine,
    density_weights,
    hull_member,
    hull_members,
    index_space,
    residual_weights,
)
from idemkit.generate import (
    random_generator_set,
    random_meta_on_generators,
    random_weight_vector,
    trial_stream,
)
from idemkit.laws import run_suite
from idemkit.measures import MaxPlusDensity, MetaDensity, dirac
from idemkit.semiring import BOTTOM, default_tolerance

GENS = GeneratorSet(np.array([[0.0, 3.0], [2.0, 0.0]]))


def check_certificates(gens, points, verdicts, tol=None):
    # the certificate check of check_convexity_equivalence, on any verdicts;
    # it reads the points as columns
    tol = default_tolerance() if tol is None else tol
    return _certificates_hold(np.asarray(points, dtype=float).T, gens, verdicts, tol)


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GeneratorSet(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        GeneratorSet(np.array([1.0, 2.0]))


def test_generator_set_names_the_first_coinciding_pair():
    # two coinciding pairs, (0, 4) and (1, 2): the first row's pair comes
    # first, though the second pair's rows come earlier in the array
    rows = [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0 + 1e-12], [3.0, 3.0], [0.0, -0.0]]
    with pytest.raises(ValueError, match=r"^generators 0 and 4 coincide$"):
        GeneratorSet(np.array(rows))
    with pytest.raises(ValueError, match=r"^generators 0 and 1 coincide$"):
        GeneratorSet(np.array(rows[1:]))
    with pytest.raises(ValueError, match=r"^generators 2 and 3 coincide$"):
        GeneratorSet(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [2.0, 2.0]]))
    assert len(GeneratorSet(np.array([[0.0, 0.0], [0.0, 2e-9]]))) == 2


def test_an_int_beyond_a_double_is_a_value_error_naming_the_field():
    with pytest.raises(ValueError, match=r"^int too large to convert to float in the generator coordinates$"):
        GeneratorSet([[1, 10**400], [0, 0]])
    with pytest.raises(ValueError, match=r"^int too large to convert to float in the point$"):
        hull_member([10**400, 0], GENS)
    grid = [[0, 0], [10**400, 0]]
    for route in (hull_members, certify_members, barycenter_members):
        with pytest.raises(ValueError, match=r"^int too large to convert to float in the grid$"):
            route(grid, GENS)
    with pytest.raises(ValueError, match=r"^int too large to convert to float in the grid$"):
        check_convexity_equivalence(GENS, grid)


@pytest.mark.parametrize("per_axis", [2.5, "3", 3.0, True, np.float64(3.0), None], ids=repr)
def test_bounding_grid_refuses_a_per_axis_that_is_not_an_integer(per_axis):
    with pytest.raises(ValueError, match=r"^per_axis must be an integer, got "):
        bounding_grid(GENS, per_axis)


def test_bounding_grid_takes_a_numpy_integer_and_refuses_zero():
    assert bounding_grid(GENS, np.int64(3)).shape == (9, 2)
    with pytest.raises(ValueError, match=r"^per_axis must be positive$"):
        bounding_grid(GENS, 0)


# weight vectors combine refuses, each for one fault of a max-plus density on
# two generators: a wrong length or shape, NaN, +inf, a positive weight, a
# peak below 0 (bottom among them)
BAD_WEIGHTS = [
    [0.0, -2.0, 0.0],
    [0.0],
    [],
    [[0.0, -1.0]],
    0.0,
    [0.0, np.nan],
    [0.0, np.inf],
    [-np.inf, np.inf],
    [0.5, -2.0],
    [-0.5, -2.0],
    [BOTTOM, BOTTOM],
]


def test_combine_takes_a_signed_zero_peak_and_bottom():
    assert np.array_equal(combine(GENS, [-0.0, -2.0]), [0.0, 3.0])
    assert np.array_equal(combine(GENS, [-0.0, BOTTOM]), [0.0, 3.0])


@pytest.mark.parametrize("weights", BAD_WEIGHTS, ids=repr)
def test_combine_words_a_bad_weight_as_the_density_does(weights):
    with pytest.raises(ValueError) as density:
        MaxPlusDensity.from_vector(index_space(2), weights)
    for route in (combine, barycenter):
        with pytest.raises(ValueError) as info:
            route(GENS, weights)
        assert str(info.value) == str(density.value)


def test_combine_error_texts_name_the_generator():
    with pytest.raises(ValueError, match=r"^missing weight for point 'g1'$"):
        combine(GENS, [0.0])
    with pytest.raises(
        ValueError, match=r"^a MaxPlusDensity on 2 points needs a 1-d vector of 2 weights, got shape \(3,\)$"
    ):
        combine(GENS, [0.0, -2.0, 0.0])
    with pytest.raises(ValueError, match=r"^weight 0.5 outside \[-inf, 0.0\] at point 'g0'$"):
        combine(GENS, [0.5, -2.0])
    with pytest.raises(ValueError, match=r"^peak weight is -0.5 at point 'g0', expected 0.0"):
        barycenter(GENS, [-0.5, -2.0])


def test_combine_leaves_the_callers_array_writable():
    for route in (combine, barycenter):
        lam = np.array([0.0, -2.0])
        assert np.array_equal(route(GENS, lam), [0.0, 3.0])
        assert lam.flags.writeable
        lam[1] = -1.0
        assert np.array_equal(route(GENS, lam), [1.0, 3.0])


def test_combine_examples():
    assert np.array_equal(combine(GENS, [0.0, -2.0]), [0.0, 3.0])
    assert np.array_equal(combine(GENS, [0.0, 0.0]), [2.0, 3.0])
    single = GeneratorSet(np.array([[1.5, -0.5]]))
    assert np.array_equal(combine(single, [0.0]), [1.5, -0.5])


def test_combine_drops_bottom_weights():
    assert np.array_equal(combine(GENS, [0.0, BOTTOM]), [0.0, 3.0])


def test_hull_member_examples():
    assert hull_member([1.0, 3.0], GENS)
    assert hull_member([0.0, 3.0], GENS)
    assert hull_member([2.0, 0.0], GENS)
    assert not hull_member([3.0, 0.0], GENS)


def test_hull_member_residual_candidates():
    assert np.array_equal(residual_weights(np.array([1.0, 3.0]), GENS), [0.0, -1.0])
    assert np.array_equal(residual_weights(np.array([3.0, 0.0]), GENS), [-3.0, 0.0])
    # below every generator: peak of the candidate is negative, not a member
    low = GeneratorSet(np.array([[0.0, 0.0]]))
    assert not hull_member([-1.0, -1.0], low)


def test_barycenter_examples():
    gens = GeneratorSet(np.array([[0.0, 0.0], [2.0, 1.0]]))
    assert np.array_equal(barycenter(gens, [0.0, -1.0]), [1.0, 0.0])
    assert np.array_equal(barycenter(gens, [BOTTOM, 0.0]), [2.0, 1.0])
    assert np.array_equal(barycenter(gens, [0.0, 0.0]), [2.0, 1.0])


def test_barycenter_requires_normalized_weights():
    with pytest.raises(ValueError):
        barycenter(GENS, [-0.5, -1.0])


def test_barycenter_of_unit_is_the_generator():
    for i in range(30):
        rng = trial_stream(401, i)
        gens = random_generator_set(rng, 2 if i % 2 else 3)
        k = int(rng.integers(0, len(gens)))
        unit = dirac(f"g{k}", index_space(len(gens)))
        assert np.array_equal(barycenter(gens, density_weights(unit)), gens.points[k])


def test_combine_and_barycenter_are_bitwise_identical():
    for i in range(50):
        rng = trial_stream(402, i)
        gens = random_generator_set(rng, 3)
        lam = random_weight_vector(rng, len(gens))
        assert np.array_equal(combine(gens, lam), barycenter(gens, lam))


def test_barycenter_lands_in_the_hull():
    for i in range(50):
        rng = trial_stream(403, i)
        gens = random_generator_set(rng, 2)
        lam = random_weight_vector(rng, len(gens))
        assert hull_member(barycenter(gens, lam), gens)


def test_generators_belong_to_their_hull_under_permutation():
    for i in range(20):
        rng = trial_stream(404, i)
        gens = random_generator_set(rng, 3)
        perm = rng.permutation(len(gens))
        shuffled = GeneratorSet(gens.points[perm])
        for row in gens.points:
            assert hull_member(row, gens)
            assert hull_member(row, shuffled)


def test_hull_idempotence():
    # combinations of hull members stay members of the original hull
    for i in range(20):
        rng = trial_stream(405, i)
        gens = random_generator_set(rng, 2)
        members = np.stack(
            [combine(gens, random_weight_vector(rng, len(gens))) for _ in range(3)]
        )
        for alpha in (-3.0, -1.0, -0.25, 0.0):
            lam = np.full(len(members), alpha)
            lam[int(rng.integers(0, len(members)))] = 0.0
            point = np.max(members + lam[:, None], axis=0)
            assert hull_member(point, gens)


def test_translation_equivariance():
    for i in range(20):
        rng = trial_stream(406, i)
        gens = random_generator_set(rng, 2)
        grid = bounding_grid(gens, per_axis=5)
        shift = float(rng.uniform(-5.0, 5.0))
        shifted = GeneratorSet(gens.points + shift)
        for p in grid:
            assert hull_member(p, gens) == hull_member(p + shift, shifted)


def test_check_algebra_single_unit():
    gens = GeneratorSet(np.array([[0.0, 3.0], [2.0, 0.0]]))
    space = index_space(2)
    N = MetaDensity(((dirac("g0", space), 0.0),))
    assert check_algebra(gens, N)


def test_check_algebra_worked_and_random():
    space = index_space(2)
    f1 = MaxPlusDensity(space, {"g0": 0.0, "g1": -1.0})
    f2 = MaxPlusDensity(space, {"g0": -2.0, "g1": 0.0})
    N = MetaDensity(((f1, 0.0), (f2, -0.5)))
    assert check_algebra(GENS, N)
    for i in range(100):
        rng = trial_stream(407, i)
        gens = random_generator_set(rng, 2 if i % 2 else 3)
        meta = random_meta_on_generators(rng, len(gens))
        assert check_algebra(gens, meta)


def test_check_algebra_rejects_foreign_space():
    space = index_space(3)
    N = MetaDensity(((dirac("g0", space), 0.0),))
    with pytest.raises(ValueError):
        check_algebra(GENS, N)


def test_convexity_equivalence_worked_example():
    grid = np.array([[1.0, 3.0], [3.0, 0.0], [0.0, 3.0], [2.0, 0.0]])
    assert check_convexity_equivalence(GENS, grid)
    assert hull_member([1.0, 3.0], GENS) and barycenter_member([1.0, 3.0], GENS)
    assert not hull_member([3.0, 0.0], GENS) and not barycenter_member([3.0, 0.0], GENS)


def test_convexity_equivalence_random_grids():
    for i in range(20):
        rng = trial_stream(408, i)
        gens = random_generator_set(rng, 2 if i % 2 else 3)
        grid = bounding_grid(gens, per_axis=5)
        assert check_convexity_equivalence(gens, grid)


def _member_by_point(p, gens, tol=1e-9):
    # per-point residuation: the reference the batched functions must match
    lam = residual_weights(p, gens)
    peak = lam.max()
    if peak < -tol:
        return False
    return bool(np.max(np.abs(combine(gens, lam - peak) - p)) <= tol)


def test_batched_membership_matches_per_point_residuation():
    verdicts = set()
    for i in range(40):
        rng = trial_stream(409, i)
        gens = random_generator_set(rng, 2 if i % 2 else 3)
        exact = np.stack(
            [combine(gens, random_weight_vector(rng, len(gens))) for _ in range(20)]
        )
        probes = np.concatenate([bounding_grid(gens, per_axis=7), exact, exact + 1e-6])
        expected = np.array([_member_by_point(p, gens) for p in probes])
        assert expected[-40:-20].all()
        assert np.array_equal(hull_members(probes, gens), expected)
        assert np.array_equal(barycenter_members(probes, gens), expected)
        certified = certify_members(probes, gens)
        assert np.array_equal(certified.member, expected)
        assert check_certificates(gens, probes, certified)
        verdicts.update(expected.tolist())
    assert verdicts == {True, False}


def test_batched_membership_validates_the_grid():
    empty = np.empty((0, 2))
    assert hull_members(empty, GENS).shape == (0,)
    assert barycenter_members(empty, GENS).shape == (0,)
    assert check_certificates(GENS, empty, certify_members(empty, GENS))
    for bad in (np.zeros((3, 3)), np.array([[np.nan, 0.0]]), np.array([1.0, 3.0])):
        with pytest.raises(ValueError):
            hull_members(bad, GENS)
        with pytest.raises(ValueError):
            certify_members(bad, GENS)
        with pytest.raises(ValueError):
            barycenter_members(bad, GENS)
        with pytest.raises(ValueError):
            check_convexity_equivalence(GENS, bad)


@pytest.mark.parametrize("tol", [-1, float("nan"), float("inf")])
def test_membership_rejects_a_bad_explicit_tolerance(tol):
    assert hull_member([1.0, 3.0], GENS, tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        hull_member([1.0, 3.0], GENS, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        barycenter_member([1.0, 3.0], GENS, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        certify_members(np.array([[1.0, 3.0]]), GENS, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        check_convexity_equivalence(GENS, bounding_grid(GENS, per_axis=3), tol)


def _half_space(p, gens):
    # the residual half-space of one point: its peak and projection
    lam = residual_weights(p, gens)
    return lam.max(), np.max(gens.points + lam[:, None], axis=0)


def _certified_draws(tag, count=100):
    # the suite's kind of draws, each grid with generators added so that
    # it holds members and, mostly, points that are out
    for i in range(count):
        rng = trial_stream(tag, i)
        gens = random_generator_set(rng, 2 if i % 2 else 3)
        probes = np.concatenate([bounding_grid(gens, per_axis=5), gens.points])
        verdicts = certify_members(probes, gens)
        assert check_certificates(gens, probes, verdicts)
        yield rng, gens, probes, verdicts


def test_certificates_reject_a_member_flipped_out_with_its_own_half_space():
    for rng, gens, probes, v in _certified_draws(410):
        j = int(rng.choice(np.flatnonzero(v.member)))
        member = v.member.copy()
        member[j] = False
        slot = int(np.count_nonzero(~member[:j]))
        rho, q = _half_space(probes[j], gens)
        kept = np.flatnonzero(v.member) != j
        forged = HullVerdicts(
            member,
            v.weights[kept],
            np.insert(v.peak, slot, rho),
            np.insert(v.projection, slot, q, axis=0),
        )
        assert not check_certificates(gens, probes, forged)


def test_certificates_reject_a_point_flipped_in_with_its_residual_weights():
    flipped = 0
    for rng, gens, probes, v in _certified_draws(411):
        if v.member.all():
            continue
        j = int(rng.choice(np.flatnonzero(~v.member)))
        member = v.member.copy()
        member[j] = True
        slot = int(np.count_nonzero(member[:j]))
        lam = residual_weights(probes[j], gens)
        kept = np.flatnonzero(~v.member) != j
        forged = HullVerdicts(
            member,
            np.insert(v.weights, slot, lam - lam.max(), axis=0),
            v.peak[kept],
            v.projection[kept],
        )
        assert not check_certificates(gens, probes, forged)
        flipped += 1
    assert flipped >= 90


def test_certificates_reject_a_lowered_half_space():
    # a raised q is still a valid half-space, so only lowering corrupts it
    lowered = 0
    for rng, gens, probes, v in _certified_draws(412):
        if v.member.all():
            continue
        r = int(rng.integers(0, len(v.peak)))
        projection = v.projection.copy()
        projection[r] -= 0.5
        forged = HullVerdicts(v.member, v.weights, v.peak, projection)
        assert not check_certificates(gens, probes, forged)
        # where -rho alone separates the point, a raised q still holds the
        # generators and still excludes the point
        deep = -v.peak > 1e-9
        raised = v.projection.copy()
        raised[deep] += 0.5
        assert check_certificates(gens, probes, HullVerdicts(v.member, v.weights, v.peak, raised))
        lowered += 1
    assert lowered >= 90


def test_certificates_reject_weights_that_drop_their_last_generator():
    grid = bounding_grid(GENS, per_axis=5)
    v = certify_members(grid, GENS)
    assert check_certificates(GENS, grid, v)
    weights = v.weights.copy()
    last = weights[:, -1]
    assert (last < 0.0).any()
    last[last < 0.0] = BOTTOM
    assert not check_certificates(GENS, grid, HullVerdicts(v.member, weights, v.peak, v.projection))
    # one row alone: [1, 3] is reached only through its weight -1 on g1
    j = int(np.flatnonzero(np.all(grid[v.member] == [1.0, 3.0], axis=1))[0])
    weights = v.weights.copy()
    assert weights[j, -1] == -1.0
    weights[j, -1] = BOTTOM
    assert not check_certificates(GENS, grid, HullVerdicts(v.member, weights, v.peak, v.projection))


def test_certificate_weights_must_be_densities():
    grid = bounding_grid(GENS, per_axis=3)
    v = certify_members(grid, GENS)
    bad = v.weights.copy()
    bad[0] -= 1.0  # peak no longer 0: not a density
    with pytest.raises(ValueError, match="peak"):
        check_certificates(GENS, grid, HullVerdicts(v.member, bad, v.peak, v.projection))


def test_points_above_a_generator_get_accepted_half_spaces():
    # the clamp in the residual weights keeps rho <= 0: without it, a point
    # strictly above a generator gets rho > 0 and q = p, which excludes nothing
    above = GENS.points + 1.0
    v = certify_members(above, GENS)
    assert not v.member.any()
    assert check_certificates(GENS, above, v)
    unclamped = np.min(above[:, None, :] - GENS.points, axis=-1)
    rho = unclamped.max(axis=1)
    q = np.max(GENS.points + unclamped[:, :, None], axis=1)
    assert (rho > 0.0).all() and np.array_equal(q, above)
    assert not check_certificates(GENS, above, HullVerdicts(v.member, v.weights, rho, q))
    strict = 0
    for i in range(100):
        rng = trial_stream(413, i)
        gens = random_generator_set(rng, 2 if i % 2 else 3)
        probes = gens.points + rng.uniform(0.01, 2.0, size=gens.points.shape)
        v = certify_members(probes, gens)
        assert check_certificates(gens, probes, v)
        strict += int(np.count_nonzero(~v.member))
    assert strict > 0


def test_half_space_slack_scales_with_the_coordinates():
    # at 1e5 the projection q_t = lam_i + x_it rounds to a grid of 2^-36, so
    # a generator's side of its half-space can sit ~7e-12 above the bound;
    # an absolute 1e-12 slack refused about 40 % of these honest verdicts
    gens = GeneratorSet(np.array([[0.0, 1e5], [1.0, 0.0]]))
    rng = trial_stream(414, 0)
    probes = np.stack([-rng.uniform(0.0, 1.0, 500), 1e5 + rng.uniform(1.0, 10.0, 500)], axis=1)
    v = certify_members(probes, gens)
    assert not v.member.any()
    assert check_convexity_equivalence(gens, probes)
    assert all(check_convexity_equivalence(gens, p[None, :]) for p in probes)
    # coordinates near 1 and near 1e5 in one generator set, and GENS moved by 1e5
    mixed = GeneratorSet(np.array([[0.3, 1e5], [1.7, 0.2], [1e5 - 0.9, 1.1]]))
    for gens in (mixed, GeneratorSet(GENS.points + 1e5)):
        grid = bounding_grid(gens, per_axis=41)
        v = certify_members(grid, gens)
        assert v.member.any() and not v.member.all()
        assert check_convexity_equivalence(gens, grid)


def test_convexity_suite_at_tol_0_reports_verdicts_without_certificates():
    # at tol 0 a boundary point's residuation can round (p_t - x_it) + x_it
    # one ulp above p_t, so its verdict reads out and no half-space proves it
    report = run_suite("convexity", 300, 0, tol=0)
    assert len(report.failures) == 170
    assert {f.description for f in report.failures} == {"a hull verdict has no valid certificate"}
    assert run_suite("convexity", 300, 0, tol=1e-15).ok


def test_bounding_grid_shape():
    grid = bounding_grid(GENS, per_axis=11)
    assert grid.shape == (121, 2)
    assert np.all(grid.min(axis=0) == GENS.points.min(axis=0))
    assert np.all(grid.max(axis=0) == GENS.points.max(axis=0))


# the last-axis formulas of the layout with one row per point and the
# coordinates last, kept as the reference for the axis-first kernels


def _reference_residual(p, x):
    return np.minimum(0.0, np.min(p[..., None, :] - x, axis=-1))


def _reference_combination(x, lam):
    return np.max(x + lam[..., :, None], axis=-2)


def _reference_certificates(pts, x, tol):
    lam = _reference_residual(pts, x)
    peak = lam.max(axis=-1)
    member = peak >= -tol
    shifted = lam[member] - peak[member, None]
    landed = np.max(np.abs(_reference_combination(x, shifted) - pts[member]), axis=-1) <= tol
    member[member] = landed
    out = ~member
    return member, shifted[landed], peak[out], _reference_combination(x, lam[out])


def _signed_integers(rng, shape, low, high):
    # integer-valued coordinates, each zero given a random sign
    values = rng.integers(low, high, size=shape).astype(float)
    return np.where((values == 0.0) & (rng.random(shape) < 0.5), -0.0, values)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _signed_zero_draw(rng, k, d, random_points):
    # distinct integer generators, their exact combinations under integer
    # weights with a signed-zero peak, the generators themselves, and
    # random integer points, most of them out
    x = _signed_integers(rng, (k, d), -3, 4)
    while len(np.unique(x, axis=0)) < k:
        x = _signed_integers(rng, (k, d), -3, 4)
    lam = _signed_integers(rng, (2 * k, k), -3, 1)
    lam[np.arange(2 * k), rng.integers(0, k, 2 * k)] = np.where(rng.random(2 * k) < 0.5, -0.0, 0.0)
    probes = np.concatenate(
        [_reference_combination(x, lam), x, _signed_integers(rng, (random_points, d), -4, 5)]
    )
    return GeneratorSet(x), probes


def _signed_zero_tie(values, extreme):
    # along the last axis: the extreme is zero, and zeros of both signs reach it
    zero = (values == 0.0) & (extreme == 0.0)
    return (zero & np.signbit(values)).any(axis=-1) & (zero & ~np.signbit(values)).any(axis=-1)


def _rows_without_signed_zero_ties(pts, x):
    # points whose residuation meets no tie between +0.0 and -0.0 in a min
    # over the coordinates or in the max over the generators
    diff = pts[:, None, :] - x
    lam = _reference_residual(pts, x)
    residual_tie = _signed_zero_tie(diff, diff.min(axis=-1, keepdims=True)).any(axis=-1)
    return ~(residual_tie | _signed_zero_tie(lam, lam.max(axis=-1, keepdims=True)))


@pytest.mark.parametrize(
    "shapes, ties_by_lane",
    [([(k, d) for k in range(1, 6) for d in range(1, 4)] * 10, False), ([(64, 16)] * 3, True)],
    ids=["short axes", "long axes"],
)
def test_axis_first_kernels_match_the_last_axis_formulas_bit_for_bit(shapes, ties_by_lane):
    # every value is equal.  Signs of zeros are equal too, except where a tie
    # between +0.0 and -0.0 decides a reduction over a long axis: numpy folds
    # a short axis one element after another, as the leading-axis kernels do
    # on every axis, but a long contiguous last axis in SIMD lanes, so there
    # the reference's sign follows the vector width of the CPU
    rng = trial_stream(415, len(shapes))
    tol = default_tolerance()
    seen, tied, points = set(), 0, 0
    for k, d in shapes:
        gens, probes = _signed_zero_draw(rng, k, d, 40)
        x = gens.points
        free = _rows_without_signed_zero_ties(probes, x) if ties_by_lane else np.ones(len(probes), bool)
        tied += int(np.count_nonzero(~free))
        points += len(probes)
        member, weights, peak, projection = _reference_certificates(probes, x, tol)
        v = certify_members(probes, gens)
        assert _same_bits(v.member, member)
        assert _same_bits(hull_members(probes, gens), member)
        for got, want, rows in (
            (v.weights, weights, free[member]),
            (v.peak, peak, free[~member]),
            (v.projection, projection, free[~member]),
            (residual_weights(probes, gens), _reference_residual(probes, x), free),
        ):
            assert np.array_equal(got, want) and _same_bits(got[rows], want[rows])
        for w in weights:
            assert _same_bits(combine(gens, w), _reference_combination(x, w))
        batch, rows = probes[:6].reshape(2, 3, d), free[:6].reshape(2, 3)
        got, want = residual_weights(batch, gens), _reference_residual(batch, x)
        assert np.array_equal(got, want) and _same_bits(got[rows], want[rows])
        for p, row_free in zip(probes, free):
            got, want = residual_weights(p, gens), _reference_residual(p, x)
            assert np.array_equal(got, want) and (not row_free or _same_bits(got, want))
        seen.update(member.tolist())
    # members and points that are out; ties are rare
    assert seen == {True, False}
    assert tied <= points // 20


def test_hull_member_explain_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "gens.json"
    path.write_text('{"dim": 3, "points": [[0, 0, 0], [3, 1, 0], [1, 4, 2], [2, 2, 5]]}')
    argv = ["hull", "member", "--generators", str(path), "--explain", "--point"]
    assert main(argv + ["[2,2,2]"]) == 0
    assert capsys.readouterr().out.splitlines() == ["true", "weights [0,-1,-2,-3]"]
    assert main(argv + ["[4,0,1]"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "false", "rho 0", "q [2,0,1]", "broken at coordinate 0: p - q = 2",
    ]
