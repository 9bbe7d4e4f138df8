"""The exp/log bridge identifies the max-plus and max-times structures.

Pointwise exp is a bijection between the two density spaces that carries
units to units and multiplication to multiplication; pointwise log is its
inverse.  On meta densities it is a bijection only up to the constructors'
tolerance merge: two entries apart on the max-plus side, such as
{a: 0, b: -30} and {a: 0, b: -31}, come within 1e-9 after exp and merge,
so meta_log(meta_exp(F)) gives F back when no two of its entries meet so
closely.  The checks below recompute both sides of each square.
"""

from idemkit import (
    BOTTOM,
    FiniteSpace,
    MaxPlusDensity,
    MetaDensity,
    check_l_morphism,
    check_s_morphism,
    density_close,
    density_exp,
    density_log,
    dirac,
    dirac_times,
    meta_exp,
    meta_log,
    multiply,
    multiply_times,
)

space = FiniteSpace(("a", "b"))

# bottom maps to 0 and the peak at 0 maps to the peak at 1
f = MaxPlusDensity(space, {"a": 0.0, "b": BOTTOM})
print("exp image:", density_exp(f).weights)      # {'a': 1.0, 'b': 0.0}
print("log back :", density_log(density_exp(f)).weights)

# units correspond exactly
print("unit match:", density_exp(dirac("a", space)).weights == dirac_times("a", space).weights)

# the bridge lifts to meta densities: weights go through exp as well
f2 = MaxPlusDensity(space, {"a": BOTTOM, "b": 0.0})
F = MetaDensity(((f, 0.0), (f2, -1.0)))
image = meta_exp(F)
print("meta image weights:", sorted(w for _, w in image.support))  # [e^-1, 1.0]
back = meta_log(image)
print("meta log back weights:", sorted(w for _, w in back.support))  # [-1.0, 0.0]
print("meta round trip:", density_close(back, F))
# up to the tolerance merge: entries 1.0 apart meet within 1e-9 after exp
g30 = MaxPlusDensity(space, {"a": 0.0, "b": -30.0})
g31 = MaxPlusDensity(space, {"a": 0.0, "b": -31.0})
close_pair = MetaDensity(((g30, 0.0), (g31, -1.0)))
print("entries before/after exp:", len(close_pair.support), len(meta_exp(close_pair).support))  # 2 1

# multiplication commutes with the bridge: exp(multiply(F)) = multiply(exp F)
left = density_exp(multiply(F))
right = multiply_times(image)
print("left :", left.weights)
print("right:", right.weights)
print("l-morphism verified:", check_l_morphism(F))

# and the measure-side multiplication agrees with the density-side one
print("s-morphism verified:", check_s_morphism(F, bound=64.0))
