"""First-order Darboux transformation seeded on the ground box mode.

With W(x) = -(d/dx) log sin(2 alpha x) = -2 alpha cot(2 alpha x), the
operator L = d/dx + W annihilates the k = 1 box mode and maps each k >= 2
mode onto an eigenfunction of the partner Hamiltonian
-d^2/dx^2 + W' + W^2 + omega^2 at the unchanged energy 4 alpha^2 k^2,
where omega^2 = box_energy(cfg, 1) is the annihilated seed's energy.
"""
from __future__ import annotations

import math

from .errors import ParameterError
from .models import WellConfig, _require_open, _require_partner, box_energy

__all__ = [
    "superpotential",
    "partner_potential",
    "intertwine",
    "transform_normalization",
    "transformed_eigenpair",
]


def superpotential(cfg: WellConfig, x: float) -> float:
    """W(x) = -2 alpha cot(2 alpha x), singular at both walls."""
    _require_open(cfg, x)
    a = cfg.alpha
    t = 2.0 * a * x
    return -2.0 * a * math.cos(t) / math.sin(t)


def partner_potential(cfg: WellConfig, x: float) -> float:
    """W' + W^2 + omega^2, assembled with the analytic derivative
    W'(x) = 4 alpha^2 / sin^2(2 alpha x).  Collapses to
    8 alpha^2 / sin^2(2 alpha x)."""
    w = superpotential(cfg, x)
    a = cfg.alpha
    s = math.sin(2.0 * a * x)
    w_prime = 4.0 * a * a / (s * s)
    return w_prime + w * w + box_energy(cfg, 1)


def intertwine(cfg: WellConfig, k: int, x: float) -> float:
    """(L phi_k)(x) = sqrt(4 alpha / pi) 2 alpha
    [k cos(2 alpha k x) - cot(2 alpha x) sin(2 alpha k x)].

    Direct form; it loses accuracy near the walls where the cotangent
    blows up.  closed_form's bracket rows (TGrid.mode, read at one point by
    chi_eval) are the stable rewrite.
    """
    if k < 1:
        raise ParameterError(f"box index k must be >= 1, got {k}")
    _require_open(cfg, x)
    a = cfg.alpha
    t = 2.0 * a * x
    cot = math.cos(t) / math.sin(t)
    return math.sqrt(4.0 * a / math.pi) * 2.0 * a * (
        k * math.cos(k * t) - cot * math.sin(k * t)
    )


def transform_normalization(cfg: WellConfig, k: int) -> float:
    """1 / sqrt(eps_k - omega^2) = 1 / (2 alpha sqrt(k^2 - 1)).

    The seed itself (k = 1) sits at eps_1 = omega^2, so its image has zero
    norm; that is reported as a ZeroDivisionError rather than a parameter
    problem.
    """
    if k < 1:
        raise ParameterError(f"box index k must be >= 1, got {k}")
    if k == 1:
        raise ZeroDivisionError(
            "seed mode is annihilated: eps_1 - omega^2 = 0 leaves nothing to normalize"
        )
    a = cfg.alpha
    return 1.0 / (2.0 * a * math.sqrt(float(k * k - 1)))


def transformed_eigenpair(cfg: WellConfig, k: int):
    """Energy 4 alpha^2 k^2 and the normalized partner eigenfunction
    x -> N_k (L phi_k)(x) as a closure over the open interval."""
    _require_partner(k)
    energy = box_energy(cfg, k)
    norm = transform_normalization(cfg, k)

    def profile(x: float) -> float:
        return norm * intertwine(cfg, k, x)

    return energy, profile
