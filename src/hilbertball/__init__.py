"""Numerics for quantum states living on the open unit ball of C^n.

The ball carries a hyperbolic Kaehler metric of constant holomorphic
sectional curvature -2; its isometries act through an indefinite-form
group on C^n + C, observables form a noncommutative operator algebra,
and the ordinary Schroedinger flow reappears as a one-parameter isometry
group.  This package computes in that picture: distances and curvature,
isometries and their Lie algebra, the function algebra with its product
and norms, exact flows, and a randomized verification suite behind the
`hilbertball` command.
"""

from .errors import DomainError, ParseError
from .geometry import (
    CURVATURE,
    HBAR,
    BallPoint,
    TangentVector,
    curve_length,
    distance,
    geodesic_from_origin,
    k_factor,
    kahler_form,
    metric,
    origin,
    recover_inner_product,
    sectional_curvature_probe,
    tanh_distance,
)
from .isometries import (
    ExtendedOperator,
    MirrorTransformation,
    epsilon_operator,
    inverse,
    is_inhomogeneous_unitary,
    lie_algebra_check,
    mirror_apply,
    mobius_apply,
    mobius_differential,
    transport_from_origin,
)
from .algebra import (
    dispersion,
    evaluate,
    hamiltonian_field,
    kahler_condition_check,
    norm_b,
    norm_d,
    norm_s,
    poisson_bracket,
    star_operator,
    star_pointwise,
    unit,
)
from .dynamics import (
    DiscGenerator,
    HamiltonianGenerator,
    alpha,
    disc_evolve_closed,
    evolve_exp,
    schrodinger_evolve,
    trajectory,
)
from .numerics import mat_exp, op_norm
from .verify import VerifyConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ParseError",
    "CURVATURE",
    "HBAR",
    "BallPoint",
    "TangentVector",
    "curve_length",
    "distance",
    "geodesic_from_origin",
    "k_factor",
    "kahler_form",
    "metric",
    "origin",
    "recover_inner_product",
    "sectional_curvature_probe",
    "tanh_distance",
    "ExtendedOperator",
    "MirrorTransformation",
    "epsilon_operator",
    "inverse",
    "is_inhomogeneous_unitary",
    "lie_algebra_check",
    "mirror_apply",
    "mobius_apply",
    "mobius_differential",
    "transport_from_origin",
    "dispersion",
    "evaluate",
    "hamiltonian_field",
    "kahler_condition_check",
    "norm_b",
    "norm_d",
    "norm_s",
    "poisson_bracket",
    "star_operator",
    "star_pointwise",
    "unit",
    "DiscGenerator",
    "HamiltonianGenerator",
    "alpha",
    "disc_evolve_closed",
    "evolve_exp",
    "schrodinger_evolve",
    "trajectory",
    "mat_exp",
    "op_norm",
    "VerifyConfig",
    "run_suite",
    "__version__",
]
