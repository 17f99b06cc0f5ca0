"""Darboux-partner construction and numerical verification for the
symmetric trigonometric Poschl-Teller well.

The infinite square well on (0, pi/(2 alpha)) is mapped, by a first-order
Darboux transformation seeded on its ground state, onto the kappa = lam = 2
Poschl-Teller well.  The package provides exact rational evaluation of the
terminating hypergeometric bound states, stable closed forms of the
transformed modes, the polynomial identities connecting the two, and a
quadrature/finite-difference verification suite with a CLI front end.
"""
from .closed_form import (
    TrigEigenfunction,
    chi_derivatives,
    chi_eval,
    coefficient_C,
    identity_sides,
    normalization_A,
)
from .darboux import (
    intertwine,
    partner_potential,
    transform_normalization,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    ParameterError,
)
from .hypergeom import (
    TerminatingHypergeometric,
    f21_derivative,
    f21_eval_exact,
    f21_eval_real,
    midpoint_vanishing,
)
from .models import (
    PTParams,
    WellConfig,
    box_energy,
    pt_energy,
    pt_potential,
)
from .numerics import (
    QuadratureRule,
    gauss_legendre,
)
from .verify import (
    CheckResult,
    DEFAULT_TOLERANCES,
    VerificationReport,
    check_correspondence,
    check_expectation_x,
    check_fd_spectrum,
    check_first_moment,
    check_hypergeom_norm,
    check_identity,
    check_orthonormality,
    check_residual,
    check_trig_norm,
    fd_spectrum,
    resolve_tolerances,
    run_full_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CheckResult",
    "ConvergenceError",
    "DEFAULT_TOLERANCES",
    "DomainError",
    "EvaluationError",
    "ParameterError",
    "PTParams",
    "QuadratureRule",
    "TerminatingHypergeometric",
    "TrigEigenfunction",
    "VerificationReport",
    "WellConfig",
    "box_energy",
    "check_correspondence",
    "check_expectation_x",
    "check_fd_spectrum",
    "check_first_moment",
    "check_hypergeom_norm",
    "check_identity",
    "check_orthonormality",
    "check_residual",
    "check_trig_norm",
    "chi_derivatives",
    "chi_eval",
    "coefficient_C",
    "f21_derivative",
    "f21_eval_exact",
    "f21_eval_real",
    "fd_spectrum",
    "gauss_legendre",
    "identity_sides",
    "intertwine",
    "midpoint_vanishing",
    "normalization_A",
    "partner_potential",
    "pt_energy",
    "pt_potential",
    "resolve_tolerances",
    "run_full_suite",
    "transform_normalization",
]
