"""Particle in a box and trigonometric Poschl-Teller well on (0, pi/(2 alpha)).

Both Hamiltonians are -d^2/dx^2 plus a potential (hbar = 2m = 1).  The box
spectrum is 4 alpha^2 k^2 for k >= 1; the Poschl-Teller spectrum is
alpha^2 (2n + kappa + lam)^2.  Energies are written so that for the
symmetric kappa = lam = 2 well the n-th level coincides bit-for-bit with
the box level k = n + 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError

__all__ = [
    "WellConfig",
    "PTParams",
    "box_energy",
    "pt_potential",
    "pt_energy",
]


@dataclass(frozen=True)
class WellConfig:
    """Geometry of the interval (0, L) with L = pi / (2 alpha).  Every check
    of alpha in the package builds one: 0 < alpha < inf, NaN rejected."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf):
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")

    @property
    def length(self) -> float:
        return math.pi / (2.0 * self.alpha)


@dataclass(frozen=True)
class PTParams:
    """Poschl-Teller strength parameters; lam is the coefficient usually
    written with a Greek lambda (reserved word in Python)."""

    kappa: float
    lam: float

    def __post_init__(self):
        if not (self.kappa > 1):
            raise ParameterError(f"kappa must exceed 1, got {self.kappa}")
        if not (self.lam > 1):
            raise ParameterError(f"lam must exceed 1, got {self.lam}")


def _require_open(cfg: WellConfig, x: float) -> None:
    if not (0.0 < x < cfg.length):
        raise DomainError(f"x={x} outside open interval (0, {cfg.length})")


def _require_partner(k: int) -> None:
    """Partner modes are the images of box modes k >= 2 (k = 1 is annihilated)."""
    if k < 2:
        raise ParameterError(f"partner modes exist for k >= 2, got {k}")


def _require_box(k: int) -> None:
    if k < 1:
        raise ParameterError(f"box index k must be >= 1, got {k}")


def box_energy(cfg: WellConfig, k: int) -> float:
    _require_box(k)
    return 4.0 * cfg.alpha * cfg.alpha * (k * k)


def pt_potential(cfg: WellConfig, p: PTParams, x: float) -> float:
    """V(x) = alpha^2 [kappa(kappa-1)/sin^2(alpha x) + lam(lam-1)/cos^2(alpha x)].

    Defined on the open interval only; both walls are infinite.
    """
    _require_open(cfg, x)
    a = cfg.alpha
    s = math.sin(a * x)
    c = math.cos(a * x)
    return a * a * (p.kappa * (p.kappa - 1.0) / (s * s) + p.lam * (p.lam - 1.0) / (c * c))


def pt_energy(cfg: WellConfig, p: PTParams, n: int) -> float:
    if n < 0:
        raise ParameterError(f"level index n must be >= 0, got {n}")
    e = 2 * n + p.kappa + p.lam
    return cfg.alpha * cfg.alpha * (e * e)

