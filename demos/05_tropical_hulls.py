"""Tropical convexity: combinations, hull membership, idempotent barycenters.

A combination shifts each generator by a non-positive weight (peak weight 0)
and takes coordinatewise maxima.  Membership in the generated hull is decided
by a single residuation candidate, and the barycenter map realizes the same
arithmetic as the structure map of a weight density.
"""

import numpy as np

from idemkit import (
    GeneratorSet,
    MaxPlusDensity,
    MetaDensity,
    barycenter,
    check_algebra,
    check_convexity_equivalence,
    combine,
    hull_member,
    hull_members,
    index_space,
)
from idemkit.convexity import bounding_grid, density_weights, residual_weights

gens = GeneratorSet(np.array([[0.0, 3.0], [2.0, 0.0]]))

# weights are non-positive with peak 0; bottom drops a generator entirely
print("combine (0,-2):", combine(gens, [0.0, -2.0]))
print("combine (0, 0):", combine(gens, [0.0, 0.0]))

# membership: the greatest admissible weights either reproduce the point or
# nothing does
p = np.array([1.0, 3.0])
print("residual for (1,3):", residual_weights(p, gens))
print("(1,3) in hull:", hull_member(p, gens))
print("(3,0) in hull:", hull_member([3.0, 0.0], gens))

# the barycenter of a weight density has coordinates max(weight + generator)
gens2 = GeneratorSet(np.array([[0.0, 0.0], [2.0, 1.0]]))
print("barycenter (0,-1):", barycenter(gens2, [0.0, -1.0]))

# weight densities live on the generator index space g0, g1, ...
idx = index_space(len(gens2))
mu1 = MaxPlusDensity(idx, {"g0": 0.0, "g1": -1.0})
mu2 = MaxPlusDensity(idx, {"g0": -2.0, "g1": 0.0})
N = MetaDensity(((mu1, 0.0), (mu2, -0.5)))

# the barycenter absorbs the monad multiplication
print("algebra law:", check_algebra(gens2, N))

# and on a grid over the bounding box, hull membership coincides with
# barycenter reachability: every verdict carries a certificate, weights whose
# barycenter is the point or a half-space that holds the generators but not
# the point, and the check accepts them all
grid = bounding_grid(gens, per_axis=11)
print("grid size:", grid.shape, "equivalence:", check_convexity_equivalence(gens, grid))

# one batched residuation decides membership for the whole grid
members = int(hull_members(grid, gens).sum())
print(f"{members} of {len(grid)} grid points lie in the hull")
