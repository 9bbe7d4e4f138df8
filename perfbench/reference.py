"""Plain numpy references the benchmark checks the library against.

Every function here works on arrays in a fixed point order and shares no
code with idemkit, so agreement with the library is evidence, not a tautology.
Bottom is -inf throughout; it stays -inf under max and under adding a finite
number, which is all these references need.
"""

from __future__ import annotations

import numpy as np


def multiply(densities: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Monad multiplication: per point, the max over the support of
    density(x) + pair weight.  `densities` is (k, n), `weights` is (k,)."""
    densities = np.asarray(densities, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return np.max(densities + weights[:, None], axis=0)


def pushforward(weights: np.ndarray, target_index: np.ndarray, target_size: int) -> np.ndarray:
    """Weight at each target point is the max over its fibre; an empty fibre
    stays at bottom."""
    out = np.full(target_size, -np.inf)
    np.maximum.at(out, np.asarray(target_index, dtype=np.intp), np.asarray(weights, dtype=float))
    return out


def eval_measure(weights: np.ndarray, values: np.ndarray) -> float:
    """The measure of a function under a density: max(f(x) + phi(x))."""
    return float(np.max(np.asarray(weights, dtype=float) + np.asarray(values, dtype=float)))


def level_set_integral(table: np.ndarray, values: np.ndarray) -> float:
    """Max over attained t of log c({phi >= t}) + t, with the capacity given
    as a table indexed by bitmask in point order."""
    values = np.asarray(values, dtype=float)
    table = np.asarray(table, dtype=float)
    bits = np.left_shift(1, np.arange(values.size))
    ts = np.unique(values)
    masks = np.array([int(bits[values >= t].sum()) for t in ts])
    caps = table[masks]
    with np.errstate(divide="ignore"):
        cands = np.log(caps) + ts
    return float(np.max(cands))


def expand_profile(singletons: np.ndarray) -> np.ndarray:
    """Maxitive expansion of a profile: each subset gets the max of its
    members' singleton values, the empty set 0."""
    singletons = np.asarray(singletons, dtype=float)
    n = singletons.size
    masks = np.arange(1 << n)
    member = (masks[:, None] >> np.arange(n)[None, :]) & 1
    return np.max(np.where(member == 1, singletons[None, :], 0.0), axis=1)


def max_combination(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Coordinatewise max over generators of weight + generator; rows of
    `points` are generators."""
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return np.max(points + weights[:, None], axis=0)
