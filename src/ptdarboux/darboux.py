"""First-order Darboux transformation seeded on the ground box mode.

With W(x) = -(d/dx) log sin(2 alpha x) = -2 alpha cot(2 alpha x), the
operator L = d/dx + W annihilates the k = 1 box mode and maps each k >= 2
mode onto an eigenfunction of the partner Hamiltonian
-d^2/dx^2 + W' + W^2 + omega^2 at the unchanged energy 4 alpha^2 k^2,
where omega^2 = box_energy(cfg, 1) is the annihilated seed's energy.
"""
from __future__ import annotations

import math

from .models import WellConfig, _require_box, _require_open, box_energy

__all__ = [
    "partner_potential",
    "intertwine",
    "transform_normalization",
]


def partner_potential(cfg: WellConfig, x: float) -> float:
    """W' + W^2 + omega^2, assembled with the analytic derivative
    W'(x) = 4 alpha^2 / sin^2(2 alpha x).  Collapses to
    8 alpha^2 / sin^2(2 alpha x).  One point of _partner_potentials."""
    (v,) = _partner_potentials(cfg, [x])
    return v


def _partner_potentials(cfg: WellConfig, xs) -> list:
    """partner_potential at every x of `xs`, in one pass: W and W' from one
    sin(2 alpha x), with the scales taken once."""
    a = cfg.alpha
    two_a, w_scale, w_prime_scale, omega_sq = 2.0 * a, -2.0 * a, 4.0 * a * a, box_energy(cfg, 1)
    row = []
    for x in xs:
        _require_open(cfg, x)
        t = two_a * x
        s = math.sin(t)
        w = w_scale * math.cos(t) / s
        row.append(w_prime_scale / (s * s) + w * w + omega_sq)
    return row


def intertwine(cfg: WellConfig, k: int, x: float) -> float:
    """(L phi_k)(x) = sqrt(4 alpha / pi) 2 alpha
    [k cos(2 alpha k x) - cot(2 alpha x) sin(2 alpha k x)].

    Direct form; it loses accuracy near the walls where the cotangent
    blows up.  closed_form's bracket rows (TGrid.mode; chi_eval reads one
    point of the same sweep) are the stable rewrite.
    """
    _require_box(k)
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
    _require_box(k)
    if k == 1:
        raise ZeroDivisionError(
            "seed mode is annihilated: eps_1 - omega^2 = 0 leaves nothing to normalize"
        )
    a = cfg.alpha
    return 1.0 / (2.0 * a * math.sqrt(float(k * k - 1)))

