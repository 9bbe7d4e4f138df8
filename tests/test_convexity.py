import numpy as np
import pytest

from idemkit import convexity
from idemkit.convexity import (
    GeneratorSet,
    as_weight_vector,
    barycenter,
    barycenter_member,
    barycenter_members,
    bounding_grid,
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
from idemkit.measures import MaxPlusDensity, MetaDensity, dirac
from idemkit.semiring import BOTTOM

GENS = GeneratorSet(np.array([[0.0, 3.0], [2.0, 0.0]]))


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GeneratorSet(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        GeneratorSet(np.array([1.0, 2.0]))


def test_weight_vector_validation():
    as_weight_vector([0.0, -2.0], 2)
    as_weight_vector([0.0, BOTTOM], 2)
    with pytest.raises(ValueError):
        as_weight_vector([0.0, -2.0], 3)
    with pytest.raises(ValueError):
        as_weight_vector([0.5, -2.0], 2)
    with pytest.raises(ValueError):
        as_weight_vector([-0.5, -2.0], 2)


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
        verdicts.update(expected.tolist())
    assert verdicts == {True, False}


def test_batched_membership_validates_the_grid():
    empty = np.empty((0, 2))
    assert hull_members(empty, GENS).shape == (0,)
    assert barycenter_members(empty, GENS).shape == (0,)
    for bad in (np.zeros((3, 3)), np.array([[np.nan, 0.0]]), np.array([1.0, 3.0])):
        with pytest.raises(ValueError):
            hull_members(bad, GENS)
        with pytest.raises(ValueError):
            barycenter_members(bad, GENS)
        with pytest.raises(ValueError):
            check_convexity_equivalence(GENS, bad)


def test_convexity_equivalence_catches_a_corrupted_barycenter_route(monkeypatch):
    grid = bounding_grid(GENS, per_axis=5)
    assert check_convexity_equivalence(GENS, grid)
    honest = convexity.density_weights

    def drop_last_weight(f):
        w = honest(f)
        if w[-1] < 0.0:
            w[-1] = BOTTOM
        return w

    monkeypatch.setattr(convexity, "density_weights", drop_last_weight)
    assert not check_convexity_equivalence(GENS, grid)


def test_bounding_grid_shape():
    grid = bounding_grid(GENS, per_axis=11)
    assert grid.shape == (121, 2)
    assert np.all(grid.min(axis=0) == GENS.points.min(axis=0))
    assert np.all(grid.max(axis=0) == GENS.points.max(axis=0))
