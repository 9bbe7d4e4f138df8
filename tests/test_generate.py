"""The weight drawers of idemkit.generate: one drawer per kind of weight,
with a scalar body below measures.ARRAY_MIN_POINTS and a numpy body from
it on, which must give bitwise-equal weights from the same draws."""

import numpy as np
import pytest

from idemkit import generate
from idemkit.measures import ARRAY_MIN_POINTS
from idemkit.seeding import trial_stream
from idemkit.semiring import BOTTOM
from idemkit.spaces import FiniteSpace


def _space(n):
    return FiniteSpace(tuple(f"p{i}" for i in range(n)))


DRAWERS = {
    "max-plus weights": lambda rng, n, rate: generate.random_weight_vector(rng, n, -6.0, rate),
    "max-plus density": lambda rng, n, rate: generate.random_maxplus_density(
        rng, _space(n), bottom_rate=rate
    ).vector,
    "max-times density": lambda rng, n, rate: generate.random_maxtimes_density(
        rng, _space(n), zero_rate=rate
    ).vector,
    "profile": lambda rng, n, rate: generate.random_possibility_profile(
        rng, _space(n), zero_rate=rate
    ).vector,
}


@pytest.mark.parametrize("kind", list(DRAWERS))
def test_scalar_and_vector_bodies_draw_bitwise_equal_weights(monkeypatch, kind):
    draw = DRAWERS[kind]
    for n in range(1, 2 * ARRAY_MIN_POINTS + 1):
        for seed in range(3):
            # rate 1.0 sends every draw to bottom (or zero), so one drawn
            # point is set to the peak
            for rate in (0.0, 0.25, 1.0):
                bodies = []
                # a rule above n takes the scalar body, a rule at n the vector one
                for rule in (n + 1, n):
                    monkeypatch.setattr(generate, "ARRAY_MIN_POINTS", rule)
                    rng = trial_stream(8805, seed, n)
                    weights = draw(rng, n, rate)
                    assert type(weights) is np.ndarray and weights.dtype == np.float64
                    assert weights.shape == (n,)
                    bodies.append((weights.tobytes(), rng.random()))  # no draw more or less
                assert bodies[0] == bodies[1], (n, seed, rate)
                peak = 0.0 if kind.startswith("max-plus") else 1.0
                assert weights.max() == peak
                if rate == 1.0:
                    bottom = BOTTOM if peak == 0.0 else 0.0
                    assert np.count_nonzero(weights != bottom) == 1


def test_each_body_keeps_its_form():
    # below the rule a drawer works on Python floats, from it on in numpy
    for n, form in ((ARRAY_MIN_POINTS - 1, list), (ARRAY_MIN_POINTS, np.ndarray)):
        assert type(generate._plus_weights(trial_stream(8806, n), n, -6.0, 0.2)) is form
        assert type(generate._unit_weights(trial_stream(8806, n), n, 0.2)) is form
        f = generate.random_maxplus_density(trial_stream(8806, n), _space(n))
        # the label-dict constructor stores the dict, from_vector the vector
        assert ("weights" if form is list else "vector") in vars(f)
