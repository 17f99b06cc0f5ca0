"""Closed-form partner eigenfunctions and the polynomial identities behind them.

The Darboux image of box mode k is, up to normalization,
k cos(kt) - cot(t) sin(kt) with t = 2 alpha x.  Using
sin(kt)/sin(t) = U_{k-1}(cos t) (Chebyshev, second kind) this becomes the
polynomial-in-cos(t) bracket k cos(kt) - cos(t) U_{k-1}(cos t), finite on
the closed interval.  The same bracket appears on the right-hand side of
the hypergeometric identities that tie these images to the Poschl-Teller
bound states of the symmetric kappa = lam = 2 well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, EvaluationError, ParameterError, StabilityError
from .hypergeom import TerminatingHypergeometric, f21_eval_exact, f21_eval_real
from .numerics import chebyshev_u, chebyshev_u_derivatives

__all__ = [
    "TrigEigenfunction",
    "chi_eval",
    "chi_derivatives",
    "coefficient_C",
    "normalization_A",
    "identity_sides",
    "ratio_identity_even",
    "ratio_identity_odd",
    "identity_sides_t",
    "ratio_identity_even_t",
    "ratio_identity_odd_t",
]

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class TrigEigenfunction:
    """Normalized partner eigenfunction of index k >= 2 at energy 4 alpha^2 k^2."""

    k: int
    alpha: float
    norm: float = field(init=False)

    def __post_init__(self):
        if self.k < 2:
            raise ParameterError(f"partner modes exist for k >= 2, got {self.k}")
        if not (self.alpha > 0):
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(
            self,
            "norm",
            math.sqrt(4.0 * self.alpha / math.pi) / math.sqrt(self.k * self.k - 1.0),
        )


def _stable_bracket(k: int, t: float) -> float:
    """k cos(kt) - cos(t) U_{k-1}(cos t); equals k cos(kt) - cot(t) sin(kt)
    but stays finite at t = 0 and t = pi (where it vanishes)."""
    c = math.cos(t)
    return k * math.cos(k * t) - c * chebyshev_u(k - 1, c)


def chi_eval(f: TrigEigenfunction, x: float) -> float:
    """Value of the normalized partner mode on the closed interval [0, L]."""
    length = math.pi / (2.0 * f.alpha)
    if not (0.0 <= x <= length):
        raise DomainError(f"x={x} outside closed interval [0, {length}]")
    t = 2.0 * f.alpha * x
    return f.norm * _stable_bracket(f.k, t)


def chi_derivatives(f: TrigEigenfunction, x: float) -> tuple[float, float, float]:
    """(value, d/dx, d2/dx2) of the partner mode at an interior point.

    Differentiating g(t) = k cos(kt) - cos(t) U_{k-1}(cos t) in t with
    s = sin t, c = cos t, and (U, U', U'') the Chebyshev value and its
    argument derivatives at c:

        g'  = -k^2 sin(kt) + s (U + c U')
        g'' = -k^3 cos(kt) + c (U + c U') - s^2 (2 U' + c U'')

    then d/dx = 2 alpha d/dt.  Points with t = 2 alpha x within 2e-6 of
    either wall (t = 0 or pi) are rejected, at every alpha; use chi_eval
    for the (vanishing) wall values.
    """
    a = f.alpha
    k = f.k
    t = 2.0 * a * x
    if not (2e-6 < t < math.pi - 2e-6):
        raise DomainError(f"x={x} (t={t}) too close to a wall for derivative evaluation")
    s = math.sin(t)
    c = math.cos(t)
    u, du, ddu = chebyshev_u_derivatives(k - 1, c)
    g = k * math.cos(k * t) - c * u
    g1 = -(k * k) * math.sin(k * t) + s * (u + c * du)
    g2 = -(k * k * k) * math.cos(k * t) + c * (u + c * du) - s * s * (2.0 * du + c * ddu)
    return f.norm * g, f.norm * 2.0 * a * g1, f.norm * 4.0 * a * a * g2


def coefficient_C(n: int) -> Fraction:
    """Exact proportionality constant C_n tying the degree-n hypergeometric
    factor to the index n + 2 trigonometric bracket.

    Even and odd indices take different closed forms:

        C_{2m}   = (-1)^(m+1) / (8 (m+1))
                   * 2F1(-2m, 2m+4; 5/2; 1/2)
        C_{2m+1} = (-1)^(m+1) / 20 * (2m+1)(2m+5) / (4 (m+1)(m+2))
                   * 2F1(-2m, 2m+6; 7/2; 1/2)

    First values: -1/8, -1/32, -1/80.  The result is guaranteed nonzero;
    a vanishing value would make the identity normalization meaningless
    and raises EvaluationError.
    """
    if n < 0:
        raise ParameterError(f"index n must be >= 0, got {n}")
    m, parity = divmod(n, 2)
    sign = Fraction((-1) ** (m + 1))
    if parity == 0:
        factor = f21_eval_exact(
            TerminatingHypergeometric(2 * m, Fraction(2 * m + 4), Fraction(5, 2)), _HALF
        )
        value = sign / (8 * (m + 1)) * factor
    else:
        factor = f21_eval_exact(
            TerminatingHypergeometric(2 * m, Fraction(2 * m + 6), Fraction(7, 2)), _HALF
        )
        value = (
            sign
            / 20
            * Fraction((2 * m + 1) * (2 * m + 5), 4 * (m + 1) * (m + 2))
            * factor
        )
    if value == 0:
        raise EvaluationError(f"proportionality constant C_{n} evaluated to zero")
    return value


def normalization_A(n: int, alpha: float) -> float:
    """Amplitude making the level-n bound state of the symmetric well equal
    the normalized partner mode of index n + 2: A_n = N_{n+2} / C_n."""
    return float(1 / coefficient_C(n)) * TrigEigenfunction(n + 2, alpha).norm


def _checked_t(alpha: float, x: float, margin: float) -> float:
    if not (alpha > 0):
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not (margin > 0):
        raise ParameterError(f"margin must be positive, got {margin}")
    t = 2.0 * alpha * x
    if not (margin <= t <= math.pi - margin):
        raise StabilityError(
            f"t={t} within {margin} of a wall node; the cotangent side is unreliable there"
        )
    return t


def identity_sides_t(n: int, t: float) -> tuple[float, float]:
    """identity_sides at t = 2 alpha x, with sin^2(alpha x) = sin^2(t / 2).

    Dimensionless core without the wall guard: the caller keeps t at least
    a margin away from 0 and pi.
    """
    if n < 0:
        raise ParameterError(f"index n must be >= 0, got {n}")
    s_half = math.sin(0.5 * t)
    lhs = f21_eval_real(
        TerminatingHypergeometric(n, Fraction(n + 4), Fraction(5, 2)), s_half * s_half
    )
    s_t = math.sin(t)
    rhs = 4.0 * float(coefficient_C(n)) * _stable_bracket(n + 2, t) / (s_t * s_t)
    return lhs, rhs


def ratio_identity_even_t(m: int, t: float) -> tuple[float, float]:
    """ratio_identity_even at t = 2 alpha x; no wall guard (see identity_sides_t)."""
    if m < 0:
        raise ParameterError(f"index m must be >= 0, got {m}")
    h = TerminatingHypergeometric(2 * m, Fraction(2 * m + 4), Fraction(5, 2))
    den = f21_eval_exact(h, _HALF)
    if den == 0:
        raise ZeroDivisionError(f"midpoint value of the even index-{m} factor is zero")
    s_half = math.sin(0.5 * t)
    lhs = f21_eval_real(h, s_half * s_half) / float(den)
    s_t = math.sin(t)
    k = 2 * m + 2
    rhs = (-1.0) ** (m + 1) / (2.0 * (m + 1)) * _stable_bracket(k, t) / (s_t * s_t)
    return lhs, rhs


def ratio_identity_odd_t(m: int, t: float) -> tuple[float, float]:
    """ratio_identity_odd at t = 2 alpha x; no wall guard (see identity_sides_t)."""
    if m < 0:
        raise ParameterError(f"index m must be >= 0, got {m}")
    den = f21_eval_exact(
        TerminatingHypergeometric(2 * m, Fraction(2 * m + 6), Fraction(7, 2)), _HALF
    )
    if den == 0:
        raise ZeroDivisionError(f"reference value of the odd index-{m} factor is zero")
    s_half = math.sin(0.5 * t)
    lhs = (
        f21_eval_real(
            TerminatingHypergeometric(2 * m + 1, Fraction(2 * m + 5), Fraction(5, 2)),
            s_half * s_half,
        )
        / float(den)
    )
    s_t = math.sin(t)
    k = 2 * m + 3
    prefactor = (
        (-1.0) ** (m + 1)
        / 20.0
        * ((2 * m + 1) * (2 * m + 5))
        / ((m + 1) * (m + 2))
    )
    rhs = prefactor * _stable_bracket(k, t) / (s_t * s_t)
    return lhs, rhs


def identity_sides(
    n: int, alpha: float, x: float, margin: float = 1e-3
) -> tuple[float, float]:
    """Both sides of the bound-state identity

        2F1(-n, n+4; 5/2; sin^2(alpha x))
            = 4 C_n [ (n+2) cos((n+2) t) - cot(t) sin((n+2) t) ] / sin^2(t)

    with t = 2 alpha x.  The left side is the polynomial evaluation; the
    right side uses the stable bracket but still divides by sin^2(t), so
    points with t within `margin` of 0 or pi are rejected
    (StabilityError).  The polynomial side alone is valid everywhere.
    Both sides depend on x only through t (identity_sides_t).
    """
    return identity_sides_t(n, _checked_t(alpha, x, margin))


def ratio_identity_even(
    m: int, alpha: float, x: float, margin: float = 1e-3
) -> tuple[float, float]:
    """Parameter-free form of the even identity: the ratio of the degree-2m
    hypergeometric factor to its midpoint value equals

        (-1)^(m+1) / (2 (m+1)) * [bracket of index 2m+2] / sin^2(t).

    All proportionality constants cancel, so this probes the functional
    shape independently of coefficient_C.  Points with t within `margin`
    of a wall are rejected as in identity_sides.
    """
    return ratio_identity_even_t(m, _checked_t(alpha, x, margin))


def ratio_identity_odd(
    m: int, alpha: float, x: float, margin: float = 1e-3
) -> tuple[float, float]:
    """Parameter-free form of the odd identity.  The degree-(2m+1) factor
    vanishes at the midpoint, so the reference denominator is the shifted
    factor 2F1(-2m, 2m+6; 7/2; 1/2) instead:

        2F1(-(2m+1), 2m+5; 5/2; sin^2(alpha x)) / 2F1(-2m, 2m+6; 7/2; 1/2)
            = (-1)^(m+1)/20 * (2m+1)(2m+5)/((m+1)(m+2))
              * [bracket of index 2m+3] / sin^2(t)

    Points with t within `margin` of a wall are rejected as in
    identity_sides.
    """
    return ratio_identity_odd_t(m, _checked_t(alpha, x, margin))
