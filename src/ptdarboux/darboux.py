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


# The 53 bits of pi after math.pi's: pi = math.pi + _PI_LO to about 1e-32.
_PI_LO = 1.2246467991473532e-16


def intertwine(cfg: WellConfig, k: int, x: float) -> float:
    """(L phi_k)(x) = sqrt(4 alpha / pi) 2 alpha
    [k cos(kt) - cot(t) sin(kt)], t = 2 alpha x.

    The bracket is -sin^2(t) U'_{k-1}(cos t), and U_m(cos t) = sin((m+1) t)
    / sin t turns it into the sine sum -2 sin(t) sum j sin(jt) over j = k-1,
    k-3, ... >= 1, whose terms share one sign near the wall, so it keeps
    its relative accuracy up to it.  Past t = pi/2 it reads the mirror
    (math.pi - t) + _PI_LO, whose subtraction is exact (Sterbenz), times the
    bracket's parity (-1)^k under t -> pi - t, so that no j t rounds near
    j pi.  The seed, k = 1, maps to exactly 0.
    """
    _require_box(k)
    _require_open(cfg, x)
    a = cfg.alpha
    t, sign = 2.0 * a * x, -2.0
    if t > 0.5 * math.pi:
        t, sign = (math.pi - t) + _PI_LO, 2.0 if k % 2 else -2.0
    return math.sqrt(4.0 * a / math.pi) * 2.0 * a * (sign * math.sin(t)) * math.fsum(
        j * math.sin(j * t) for j in range(k - 1, 0, -2))


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

