"""Closed-form partner eigenfunctions and the polynomial identities behind them.

The Darboux image of box mode k is, up to normalization,
k cos(kt) - cot(t) sin(kt) with t = 2 alpha x.  Using
sin(kt)/sin(t) = U_{k-1}(cos t) (Chebyshev, second kind) this becomes the
polynomial-in-cos(t) bracket k cos(kt) - cos(t) U_{k-1}(cos t), finite on
the closed interval; its t-derivatives differentiate the same recurrence.
The same bracket appears on the right-hand side of the hypergeometric
identity that ties these images to the Poschl-Teller bound states of the
symmetric kappa = lam = 2 well; its base, even-ratio and odd-ratio forms
are one level-n formula (identity_pairs).  Every row
sampled on a row of t (bound-state factors, brackets and their second
derivatives, the partner potential, both sides of the identities and of
the correspondence) comes from one holder, TGrid; the point-wise
chi_eval and chi_derivatives read one point of its sweeps, and
identity_sides reads a one-point TGrid.
"""
from __future__ import annotations

import math
from array import array
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from itertools import count, islice

from .darboux import partner_potential
from .errors import DomainError, EvaluationError, ParameterError, StabilityError
from .hypergeom import LevelTable, TerminatingHypergeometric, f21_eval_exact
from .models import WellConfig, _require_partner

__all__ = [
    "TrigEigenfunction",
    "TGrid",
    "chi_eval",
    "chi_derivatives",
    "coefficient_C",
    "normalization_A",
    "identity_sides",
    "identity_pairs",
    "IDENTITY_FAMILIES",
]

_HALF = Fraction(1, 2)


class TrigEigenfunction(namedtuple("TrigEigenfunction", "k alpha")):
    """Normalized partner eigenfunction of index k >= 2 at energy 4 alpha^2 k^2."""

    __slots__ = ()

    def __new__(cls, k: int, alpha: float):
        _require_partner(k)
        WellConfig(alpha)
        return super().__new__(cls, k, alpha)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace validates too

    @property
    def norm(self) -> float:
        return math.sqrt(4.0 * self.alpha / math.pi) / math.sqrt(self.k * self.k - 1.0)


def _bracket_rows(ts):
    """Rows of the bracket k cos(kt) - cos(t) U_{k-1}(cos t) at every t of
    `ts` for k = 2, 3, ...; it equals k cos(kt) - cot(t) sin(kt) but stays
    finite at t = 0 and t = pi (where it vanishes).  U_{k-1}(cos t) continues
    one forward sweep of U_j = (2c) U_{j-1} - U_{j-2}, keeping its last two
    rows; the sweep is stable to ~2e-13 of max|U_k| = k + 1 for k <= 63."""
    cosines = array("d", map(math.cos, ts))
    two_cos = array("d", [2.0 * c for c in cosines])
    u_prev, u = array("d", [0.0]) * len(ts), array("d", [1.0]) * len(ts)  # U_-1, U_0
    for k in count(2):
        u_prev, u = u, array("d", [tc * v - w for tc, v, w in zip(two_cos, u, u_prev)])
        yield _bracket(k, ts, cosines, u)


def _bracket(k, ts, cosines, u) -> array:
    """The bracket row k cos(kt) - cos(t) U_{k-1}(cos t) from the U_{k-1} row u."""
    return array("d", [k * math.cos(k * t) - c * v for t, c, v in zip(ts, cosines, u)])


def _chebyshev_rows(cosines):
    """Rows (U, U', U'') of U_{k-1}(c) and its first two derivatives in c at
    every c of `cosines` for k = 2, 3, ...: one forward sweep differentiates
    U_j = (2c) U_{j-1} - U_{j-2} in c, U_j' = 2 U_{j-1} + (2c) U_{j-1}' -
    U_{j-2}' and U_j'' = 4 U_{j-1}' + (2c) U_{j-1}'' - U_{j-2}'', keeping the
    last two rows of each."""
    two_cos = array("d", [2.0 * c for c in cosines])
    zeros = array("d", [0.0]) * len(cosines)
    u_prev, u = zeros, array("d", [1.0]) * len(cosines)  # U_-1, U_0
    du_prev, du, ddu_prev, ddu = zeros, zeros, zeros, zeros  # U', U'' at j = -1, 0
    while True:
        u_prev, u = u, array("d", [tc * v - w for tc, v, w in zip(two_cos, u, u_prev)])
        du_prev, du = du, array("d", [2.0 * w + tc * v - z
                                      for w, tc, v, z in zip(u_prev, two_cos, du, du_prev)])
        ddu_prev, ddu = ddu, array("d", [4.0 * w + tc * v - z
                                         for w, tc, v, z in zip(du_prev, two_cos, ddu, ddu_prev)])
        yield u, du, ddu


def _derivative_rows(ts):
    """Rows g'' in t of the bracket g = k cos(kt) - cos(t) U_{k-1}(cos t) at
    every t of `ts` for k = 2, 3, ..., from the _chebyshev_rows sweep
    (chi_derivatives states g'')."""
    sines = array("d", map(math.sin, ts))
    cosines = array("d", map(math.cos, ts))
    for k, rows in zip(count(2), _chebyshev_rows(cosines)):
        yield _second_derivative(k, ts, sines, cosines, *rows)


def _second_derivative(k, ts, sines, cosines, u, du, ddu) -> array:
    """The row g'' from the rows (U, U', U'') of _chebyshev_rows at index k."""
    return array("d", [-(k * k * k) * math.cos(k * t) + c * (v + c * dv)
                       - s * s * (2.0 * dv + c * ddv)
                       for t, s, c, v, dv, ddv in zip(ts, sines, cosines, u, du, ddu)])


def chi_eval(f: TrigEigenfunction, x: float) -> float:
    """Value of the normalized partner mode on the closed interval [0, L],
    one point of the bracket rows (_bracket_rows)."""
    length = WellConfig(f.alpha).length
    if not (0.0 <= x <= length):
        raise DomainError(f"x={x} outside closed interval [0, {length}]")
    return f.norm * next(islice(_bracket_rows([2.0 * f.alpha * x]), f.k - 2, None))[0]


def chi_derivatives(f: TrigEigenfunction, x: float) -> tuple[float, float, float]:
    """(value, d/dx, d2/dx2) of the partner mode at an interior point.

    Differentiating g(t) = k cos(kt) - cos(t) U_{k-1}(cos t) in t with
    s = sin t, c = cos t, and (U, U', U'') the Chebyshev value and its
    argument derivatives at c:

        g'  = -k^2 sin(kt) + s (U + c U')
        g'' = -k^3 cos(kt) + c (U + c U') - s^2 (2 U' + c U'')

    then d/dx = 2 alpha d/dt.  Points with t = 2 alpha x within 2e-6 of
    either wall (t = 0 or pi) are rejected, at every alpha; use chi_eval
    for the (vanishing) wall values.  One Chebyshev sweep gives all three.
    """
    a = f.alpha
    t = 2.0 * a * x
    if not (2e-6 < t < math.pi - 2e-6):
        raise DomainError(f"x={x} (t={t}) too close to a wall for derivative evaluation")
    k, s, c = f.k, math.sin(t), math.cos(t)
    u, du, ddu = next(islice(_chebyshev_rows([c]), k - 2, None))
    (g,), (g2,) = _bracket(k, [t], [c], u), _second_derivative(k, [t], [s], [c], u, du, ddu)
    g1 = -(k * k) * math.sin(k * t) + s * (u[0] + c * du[0])
    return f.norm * g, f.norm * 2.0 * a * g1, f.norm * 4.0 * a * a * g2


def _midpoint_factor(n: int) -> tuple[Fraction, Fraction]:
    """Exact split C_n = r_n D_n of the level-n proportionality constant
    into a rational prefactor r_n and a 2F1 value D_n at z = 1/2:

        n = 2m:    r_n = (-1)^(m+1) / (8 (m+1))
                   D_n = 2F1(-2m, 2m+4; 5/2; 1/2)
        n = 2m+1:  r_n = (-1)^(m+1) / 20 * (2m+1)(2m+5) / (4 (m+1)(m+2))
                   D_n = 2F1(-2m, 2m+6; 7/2; 1/2)

    The odd level's own factor vanishes at the midpoint, so its D_n is the
    shifted factor.  coefficient_C and the ratio identities share these.
    """
    if n < 0:
        raise ParameterError(f"index n must be >= 0, got {n}")
    m, parity = divmod(n, 2)
    sign = Fraction((-1) ** (m + 1))
    if parity == 0:
        r = sign / (8 * (m + 1))
        h = TerminatingHypergeometric(2 * m, Fraction(2 * m + 4), Fraction(5, 2))
    else:
        r = sign / 20 * Fraction((2 * m + 1) * (2 * m + 5), 4 * (m + 1) * (m + 2))
        h = TerminatingHypergeometric(2 * m, Fraction(2 * m + 6), Fraction(7, 2))
    return r, f21_eval_exact(h, _HALF)


def coefficient_C(n: int) -> Fraction:
    """Exact proportionality constant C_n = r_n D_n (_midpoint_factor) tying
    the degree-n hypergeometric factor to the index n + 2 trigonometric
    bracket.

    First values: -1/8, -1/32, -1/80.  The result is guaranteed nonzero;
    a vanishing value would make the identity normalization meaningless
    and raises EvaluationError.
    """
    r, d = _midpoint_factor(n)
    value = r * d
    if value == 0:
        raise EvaluationError(f"proportionality constant C_{n} evaluated to zero")
    return value


def normalization_A(n: int, alpha: float) -> float:
    """Amplitude making the level-n bound state of the symmetric well equal
    the normalized partner mode of index n + 2: A_n = N_{n+2} / C_n."""
    return float(1 / coefficient_C(n)) * TrigEigenfunction(n + 2, alpha).norm


# The identities divide by sin^2(t): their right sides are trusted only for
# t = 2 alpha x at least this far from both walls.
WALL_MARGIN = 1e-3

# The identity families, read by identity_pairs, the suite and the CLI: the
# letter of a family's index (n, a level, or m, a family index), its row
# label, the level of an index and the largest index run at a degree cap.
IdentityFamily = namedtuple("IdentityFamily", "letter label level top")
IDENTITY_FAMILIES = {
    "base": IdentityFamily("n", "base", lambda n: n, lambda cap: cap),
    "even": IdentityFamily("m", "even ratio", lambda m: 2 * m, lambda cap: cap // 2),
    "odd": IdentityFamily("m", "odd ratio", lambda m: 2 * m + 1, lambda cap: cap // 2),
}


class TGrid:
    """The rows sampled on one row `ts` of t = 2 alpha x, shared by every
    reader: level(n) = F_n(sin^2(t/2)) (a LevelTable), mode(k) = the
    bracket g of index k >= 2 and second_derivative(k) = its row g'' in t
    (one _bracket_rows and one _derivative_rows sweep, every row kept), and,
    built on first use, sin_sq = sin^2(t) for the identities, the bound
    state's factors (bound_state_pairs) and the residual's partner potential
    at unit scale, x = t / 2 (every t inside (0, pi)).  A returned row is
    shared and must not be changed."""

    def __init__(self, ts):
        self.ts = ts
        self._levels = LevelTable(array("d", [s * s for s in (math.sin(0.5 * t) for t in ts)]))
        # generators: nothing runs before mode() or second_derivative()
        self._modes = (_bracket_rows(ts), [])  # index k at position k - 2
        self._second = (_derivative_rows(ts), [])

    def level(self, n: int) -> array:
        return self._levels.level(n)

    def mode(self, k: int) -> array:
        return self._kept(self._modes, k)

    def second_derivative(self, k: int) -> array:
        return self._kept(self._second, k)

    @staticmethod
    def _kept(table, k: int):
        _require_partner(k)
        sweep, rows = table
        while len(rows) <= k - 2:
            rows.append(next(sweep))
        return rows[k - 2]

    @cached_property
    def sin_sq(self) -> array:
        return array("d", [s * s for s in map(math.sin, self.ts)])

    @cached_property
    def potential(self) -> array:
        cfg = WellConfig(1.0)
        return array("d", [partner_potential(cfg, 0.5 * t) for t in self.ts])

    @cached_property
    def bound_factors(self) -> tuple[array, array]:
        halves = [0.5 * t for t in self.ts]
        return (array("d", [math.sin(h) ** 2.0 for h in halves]),
                array("d", [math.cos(h) ** 2.0 for h in halves]))

    def bound_state_pairs(self, n: int, alpha: float) -> tuple[list[float], list[float]]:
        """Rows of the level-n bound state A_n sin^2 cos^2(t/2) F_n of the
        kappa = lam = 2 well and of the partner mode N_{n+2} bracket(t) at
        x = t / (2 alpha), read from the level and mode rows."""
        amplitude = normalization_A(n, alpha)
        norm = TrigEigenfunction(n + 2, alpha).norm
        psi = [amplitude * s2 * c2 * f for s2, c2, f in zip(*self.bound_factors, self.level(n))]
        return psi, [norm * g for g in self.mode(n + 2)]


def identity_pairs(which: str, index: int, grid: TGrid) -> list[tuple[float, float]]:
    """Both sides of one identity family at each t = 2 alpha x of `grid`, a
    TGrid that several calls may share.

    The three families are one identity at level n,

        2F1(-n, n+4; 5/2; sin^2(t/2)) = 4 C_n [bracket of index n+2] / sin^2(t):

    "base" is it at n = index; "even" and "odd" are it at n = 2m and
    n = 2m + 1 (m = index) divided through by D_n, so that their right side
    carries the exact 4 r_n and never C_n (_midpoint_factor).  The level's
    constants are built once for the whole grid.  There is no wall guard:
    the caller keeps every t at least WALL_MARGIN away from 0 and pi.
    """
    family = IDENTITY_FAMILIES.get(which)
    if family is None:
        raise ParameterError(f"identity family must be one of {sorted(IDENTITY_FAMILIES)}, "
                             f"got {which!r}")
    if index < 0:
        raise ParameterError(f"index {family.letter} must be >= 0, got {index}")
    n = family.level(index)
    if which == "base":
        den, pref = 1.0, 4.0 * float(coefficient_C(n))
    else:
        r, d = _midpoint_factor(n)
        den, pref = float(d), float(4 * r)
    return [
        (f / den, pref * g / s2)
        for f, g, s2 in zip(grid.level(n), grid.mode(n + 2), grid.sin_sq)
    ]


def identity_sides(n: int, alpha: float, x: float) -> tuple[float, float]:
    """Both sides of the bound-state identity

        2F1(-n, n+4; 5/2; sin^2(alpha x))
            = 4 C_n [ (n+2) cos((n+2) t) - cot(t) sin((n+2) t) ] / sin^2(t)

    with t = 2 alpha x: one point of identity_pairs("base", ...).  The
    right side divides by sin^2(t), so points with t within WALL_MARGIN of
    0 or pi are rejected (StabilityError); the polynomial side alone is
    valid everywhere.
    """
    WellConfig(alpha)
    t = 2.0 * alpha * x
    if not (WALL_MARGIN <= t <= math.pi - WALL_MARGIN):
        raise StabilityError(
            f"t={t} within {WALL_MARGIN} of a wall node; the cotangent side is unreliable there"
        )
    return identity_pairs("base", n, TGrid([t]))[0]
