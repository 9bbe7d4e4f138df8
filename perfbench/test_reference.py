"""Hand-computed cases for the numpy references, including the README tour."""

import math

import numpy as np

import reference as ref

NEG = -np.inf


def test_multiply_takes_max_of_density_plus_weight_and_keeps_bottom():
    densities = np.array([[0.0, -1.0, NEG], [-2.0, 0.0, NEG]])
    out = ref.multiply(densities, np.array([0.0, -1.0]))
    assert out.tolist() == [0.0, -1.0, NEG]


def test_multiply_single_pair_at_weight_zero_is_identity():
    f = np.array([0.0, -3.5, NEG, -0.25])
    assert ref.multiply(f[None, :], np.array([0.0])).tolist() == f.tolist()


def test_pushforward_takes_fibre_max_and_leaves_empty_fibres_at_bottom():
    out = ref.pushforward(np.array([0.0, -1.0, -3.0, NEG]), np.array([1, 1, 0, 0]), 3)
    assert out.tolist() == [-3.0, 0.0, NEG]


def test_eval_measure_readme_tour_value():
    # f = {a: 0, b: -1, c: bottom}, phi = {a: 2, b: 5, c: 100}
    assert ref.eval_measure(np.array([0.0, -1.0, NEG]), np.array([2.0, 5.0, 100.0])) == 4.0


def test_expand_profile_small_table():
    table = ref.expand_profile(np.array([1.0, 0.5, 0.1]))
    assert table.tolist() == [0.0, 1.0, 0.5, 1.0, 0.1, 1.0, 0.5, 1.0]


def test_level_set_integral_readme_tour_value():
    # profile {a: 1, b: 0.5, c: 0.1}, phi = {a: 0, b: 1, c: 2}: the level set
    # {b, c} at t = 1 attains log(0.5) + 1
    table = ref.expand_profile(np.array([1.0, 0.5, 0.1]))
    value = ref.level_set_integral(table, np.array([0.0, 1.0, 2.0]))
    assert value == math.log(0.5) + 1.0
    assert abs(value - 0.306852819) < 1e-9


def test_level_set_integral_skips_zero_capacity_levels():
    # c({a}) = 0, so t = 3 contributes bottom and t = 1 (the whole space) wins
    table = np.array([0.0, 0.0, 1.0, 1.0])
    assert ref.level_set_integral(table, np.array([3.0, 1.0])) == 1.0


def test_level_set_integral_groups_ties_into_one_level():
    # both points share t = 2, so the only level set is the whole space
    table = np.array([0.0, 0.3, 0.4, 1.0])
    assert ref.level_set_integral(table, np.array([2.0, 2.0])) == 2.0


def test_max_combination_readme_tour_value():
    # generators (0, 3) and (2, 0) with weights (0, -1): max((0, 3), (1, -1))
    gens = np.array([[0.0, 3.0], [2.0, 0.0]])
    assert ref.max_combination(gens, np.array([0.0, -1.0])).tolist() == [1.0, 3.0]


def test_max_combination_drops_bottom_weights():
    gens = np.array([[0.0, 3.0], [2.0, 0.0]])
    assert ref.max_combination(gens, np.array([NEG, 0.0])).tolist() == [2.0, 0.0]
