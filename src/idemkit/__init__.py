"""Exactly computable max-plus measure theory on finite spaces.

Normalized densities double as finite-support measures and carry two monad
structures (max-plus and max-times) that the exp/log bridge identifies;
possibility capacities integrate functions through a level-set fuzzy
integral; tropical geometry supplies hulls and idempotent barycenters.
Every law the library trades on can be re-verified at runtime through the
randomized suites in idemkit.laws (or the `idemkit laws` command).
"""

from .capacities import (
    Capacity,
    CharacterizationReport,
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
)
from .convexity import (
    GeneratorSet,
    barycenter,
    barycenter_members,
    bounding_grid,
    check_algebra,
    check_convexity_equivalence,
    combine,
    hull_member,
    hull_members,
    index_space,
)
from .isomorphism import (
    check_l_morphism,
    check_s_morphism,
    density_exp,
    density_log,
    meta_exp,
    meta_log,
)
from .laws import RunReport, run_all, run_suite, suite_names
from .measures import (
    MAXPLUS,
    MAXTIMES,
    Density,
    MaxPlusDensity,
    MaxTimesDensity,
    Meta,
    MetaDensity,
    MetaTimesDensity,
    Side,
    ThirdLevel,
    ThirdLevelTimes,
    check_associativity,
    check_associativity_times,
    check_unit_laws,
    check_unit_laws_times,
    density_close,
    density_from_functional,
    dirac,
    dirac_times,
    eval_measure,
    eval_measure_times,
    measure_multiplication,
    meta_pushforward,
    multiply,
    multiply_times,
    normalize,
    normalize_maxplus,
    normalize_maxtimes,
    pushforward,
    pushforward_times,
    times_close,
)
from .semiring import (
    BOTTOM,
    default_tolerance,
    exp_bridge,
    is_bottom,
    log_bridge,
    oplus,
    otimes,
    score_eq,
)
from .spaces import (
    FiniteSpace,
    PointMap,
    Probe,
    RealFunction,
    SubsetMask,
    UnitFunction,
    comonotone,
    compose_maps,
    level_set,
    validate_map,
)

__version__ = "0.1.0"
