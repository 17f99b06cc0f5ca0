"""Darboux-partner construction and numerical verification for the
symmetric trigonometric Poschl-Teller well.

The infinite square well on (0, pi/(2 alpha)) is mapped, by a first-order
Darboux transformation seeded on its ground state, onto the kappa = lam = 2
Poschl-Teller well.  The package provides exact rational evaluation of the
terminating hypergeometric bound states, stable closed forms of the
transformed modes, the polynomial identities connecting the two, and a
quadrature/finite-difference verification suite with a CLI front end.
"""
from . import closed_form, darboux, errors, hypergeom, models, numerics, verify
from .closed_form import *
from .darboux import *
from .errors import *
from .hypergeom import *
from .models import *
from .numerics import *
from .verify import *

__version__ = "0.1.0"

__all__ = ["__version__", *closed_form.__all__, *darboux.__all__, *errors.__all__,
           *hypergeom.__all__, *models.__all__, *numerics.__all__, *verify.__all__]
