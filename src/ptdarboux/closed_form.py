"""Closed-form partner eigenfunctions and the polynomial identities behind them.

The Darboux image of box mode k is, up to normalization,
k cos(kt) - cot(t) sin(kt) with t = 2 alpha x.  Using
sin(kt)/sin(t) = U_{k-1}(cos t) (Chebyshev, second kind) this becomes the
polynomial-in-cos(t) bracket k cos(kt) - cos(t) U_{k-1}(cos t), finite on
the closed interval; its t-derivatives differentiate the same recurrence.
The same bracket appears on the right-hand side of the hypergeometric
identity that ties these images to the Poschl-Teller bound states of the
symmetric kappa = lam = 2 well; its base, even-ratio and odd-ratio forms
are one level-n formula (_identity_rows).  Every row
sampled on a row of t (bound-state factors, brackets and their second
derivatives, the partner potential, both sides of the identities and of
the correspondence) comes from one holder, TGrid, whose read sweeps the
level or U recurrence to its own index and builds that row alone, and
whose _hold builds every row a reader will ask for in one sweep each; the
point-wise chi_eval and identity_sides read a one-point TGrid, and
chi_derivatives reads one point of the sweeps.
"""
from __future__ import annotations

import math
from array import array
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import chain, islice

from .darboux import _partner_potentials
from .errors import DomainError, EvaluationError, ParameterError, StabilityError
from . import hypergeom
from .hypergeom import _f21_exact
from .models import WellConfig, _require_partner

__all__ = [
    "TrigEigenfunction",
    "TGrid",
    "chi_eval",
    "chi_derivatives",
    "coefficient_C",
    "normalization_A",
    "identity_sides",
    "IDENTITY_FAMILIES",
]


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


def _picked(rows, indices, first=0):
    """(i, row) for each i of `indices` from the sweep `rows`, whose rows
    are numbered first, first + 1, ...: read up to the largest index and no
    further."""
    keep = set(indices)
    return ((i, row) for i, row in zip(range(first, max(keep, default=first - 1) + 1), rows)
            if i in keep)


def _level_rows(ts):
    """Rows of F_n(z) = 2F1(-n, n+4; 5/2; z) at z = sin^2(t/2) for every t of
    `ts`, n = 0, 1, ...: one _jacobi_rows sweep, a = beta = 3/2 (DLMF 18.7.1),
    whose z row and rows are lists."""
    zs = [s * s for s in map(math.sin, [0.5 * t for t in ts])]
    yield from hypergeom._jacobi_rows(1.5, 1.5, zs)


def _bound_factors(ts) -> tuple[array, array]:
    """The rows sin^2(t/2) and cos^2(t/2) of the bound state's factor
    sin^2 cos^2(t/2) F_n at every t of `ts`."""
    halves = [0.5 * t for t in ts]
    return (array("d", [s * s for s in map(math.sin, halves)]),
            array("d", [c * c for c in map(math.cos, halves)]))


def _u_rows(cosines):
    """Rows U_{k-1}(c) at every c of `cosines` for k = 2, 3, ...: one forward
    sweep of U_j = (2c) U_{j-1} - U_{j-2}, keeping its last two rows; the
    factors 2c and both rows are lists (as _jacobi_rows' are), which a step
    reads without boxing each float again.  The sweep is stable to ~2e-13
    of max|U_k| = k + 1 for k <= 63."""
    two_cos = [2.0 * c for c in cosines]
    u_prev, u = [0.0] * len(cosines), [1.0] * len(cosines)  # U_-1, U_0
    while True:
        u_prev, u = u, [tc * v - w for tc, v, w in zip(two_cos, u, u_prev)]
        yield u


def _cos_row(ts, k) -> list:
    """The row cos(kt) at every t of `ts`, which a bracket and its g'' share;
    k is taken as a float once, which rounds each product as the int would."""
    fk, cos = float(k), math.cos
    return [cos(fk * t) for t in ts]


def _bracket_rows(ts, ks):
    """(k, N_k g_k) for each k of `ks`: the partner modes at unit scale
    (alpha = 1, norm N_k) at every t of `ts`, each scaled as its bracket
    g_k = k cos(kt) - cos(t) U_{k-1}(cos t) is built (_bracket), from one U
    sweep (_u_rows) to the largest k; g_k equals k cos(kt) - cot(t) sin(kt)
    but stays finite at t = 0 and t = pi (where it vanishes)."""
    cosines = list(map(math.cos, ts))
    for k, u in _picked(_u_rows(cosines), ks, 2):
        yield k, _bracket(k, _cos_row(ts, k), cosines, u, TrigEigenfunction(k, 1.0).norm)


def _bracket(k, cos_kt, cosines, u, scale) -> list:
    """The row scale * (k cos(kt) - cos(t) U_{k-1}(cos t)) from the rows
    cos(kt) (_cos_row) and U_{k-1} u, as a list, which its reader sums or
    copies into an array to keep; a scale of 1.0 gives the bracket's own
    bits.  k is taken as a float once, which rounds each product as the int
    would."""
    fk = float(k)
    return [scale * (fk * ck - c * v) for ck, c, v in zip(cos_kt, cosines, u)]


def _chebyshev_rows(us):
    """Rows (U, U', U'') of U_{k-1}(c) and its first two derivatives in c
    for k = 2, 3, ..., from the rows U_1, U_2, ... of one U sweep (_u_rows),
    whose first row U_1 = 2c is, bit for bit, the factor 2c of each
    recurrence: one forward sweep differentiates U_j = (2c) U_{j-1} - U_{j-2}
    in c, U_j' = 2 U_{j-1} + (2c) U_{j-1}' - U_{j-2}' and
    U_j'' = 4 U_{j-1}' + (2c) U_{j-1}'' - U_{j-2}'', keeping the last two
    rows of each, lists (as _u_rows')."""
    us = iter(us)
    two_cos = next(us)
    zeros = [0.0] * len(two_cos)
    u_prev = [1.0] * len(two_cos)  # U_0
    du_prev, du, ddu_prev, ddu = zeros, zeros, zeros, zeros  # U', U'' at j = -1, 0
    for u in chain([two_cos], us):
        du_prev, du = du, [2.0 * w + tc * v - z
                           for w, tc, v, z in zip(u_prev, two_cos, du, du_prev)]
        ddu_prev, ddu = ddu, [4.0 * w + tc * v - z
                              for w, tc, v, z in zip(du_prev, two_cos, ddu, ddu_prev)]
        yield u, du, ddu
        u_prev = u


def _second_derivative(k, cos_kt, sin_sq, cosines, u, du, ddu) -> array:
    """The row g'' from the rows cos(kt) (_cos_row) and sin^2(t) and the
    rows (U, U', U'') of _chebyshev_rows at index k; -k^3 is taken as a
    float once, which rounds each product as the int would."""
    cube = float(-(k * k * k))
    return array("d", [cube * ck + c * (v + c * dv) - s2 * (2.0 * dv + c * ddv)
                       for ck, s2, c, v, dv, ddv in zip(cos_kt, sin_sq, cosines, u, du, ddu)])


def chi_eval(f: TrigEigenfunction, x: float) -> float:
    """Value of the normalized partner mode on the closed interval [0, L]:
    one point of TGrid.mode."""
    length = WellConfig(f.alpha).length
    if not (0.0 <= x <= length):
        raise DomainError(f"x={x} outside closed interval [0, {length}]")
    return f.norm * TGrid([2.0 * f.alpha * x]).mode(f.k)[0]


def chi_derivatives(f: TrigEigenfunction, x: float) -> tuple[float, float, float]:
    """(value, d/dx, d2/dx2) of the partner mode at an interior point.

    Differentiating g(t) = k cos(kt) - cos(t) U_{k-1}(cos t) in t with
    s = sin t, c = cos t, and (U, U', U'') the Chebyshev value and its
    argument derivatives at c:

        g'  = -k^2 sin(kt) + s (U + c U')
        g'' = -k^3 cos(kt) + c (U + c U') - s^2 (2 U' + c U'')

    then d/dx = 2 alpha d/dt.  Points with t = 2 alpha x within 2e-6 of
    either wall (t = 0 or pi) are rejected, at every alpha; use chi_eval
    for the (vanishing) wall values.  One U sweep (_u_rows) and the
    Chebyshev sweep that differentiates it (_chebyshev_rows) give all three.
    """
    a = f.alpha
    t = 2.0 * a * x
    if not (2e-6 < t < math.pi - 2e-6):
        raise DomainError(f"x={x} (t={t}) too close to a wall for derivative evaluation")
    k, s, c = f.k, math.sin(t), math.cos(t)
    cos_kt = _cos_row([t], k)
    u, du, ddu = next(islice(_chebyshev_rows(_u_rows([c])), k - 2, None))
    (g,) = _bracket(k, cos_kt, [c], u, 1.0)
    (g2,) = _second_derivative(k, cos_kt, [s * s], [c], u, du, ddu)
    g1 = -(k * k) * math.sin(k * t) + s * (u[0] + c * du[0])
    return f.norm * g, f.norm * 2.0 * a * g1, f.norm * 4.0 * a * a * g2


@lru_cache(maxsize=64)
def _midpoint_factor(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact split C_n = r_n D_n of the level-n proportionality constant
    into a rational prefactor r_n and a 2F1 value D_n at z = 1/2, each an
    unreduced integer (numerator, denominator) pair with a positive
    denominator:

        n = 2m:    r_n = (-1)^(m+1) / (8 (m+1))
                   D_n = 2F1(-2m, 2m+4; 5/2; 1/2)
        n = 2m+1:  r_n = (-1)^(m+1) / 20 * (2m+1)(2m+5) / (4 (m+1)(m+2))
                   D_n = 2F1(-2m, 2m+6; 7/2; 1/2)

    The odd level's own factor vanishes at the midpoint, so its D_n is the
    shifted factor.  coefficient_C and the ratio identities share these,
    built once per level (up to 64 levels kept; the pairs are tuples of
    ints, which no reader can change).  A float is taken from a pair as
    num / den, which rounds correctly, as float(Fraction) does.
    """
    if n < 0:
        raise ParameterError(f"index n must be >= 0, got {n}")
    m, parity = divmod(n, 2)
    sign = (-1) ** (m + 1)
    if parity == 0:
        return (sign, 8 * (m + 1)), _f21_exact(2 * m, (2 * m + 4, 1), (5, 2), (1, 2))
    return ((sign * (2 * m + 1) * (2 * m + 5), 80 * (m + 1) * (m + 2)),
            _f21_exact(2 * m, (2 * m + 6, 1), (7, 2), (1, 2)))


def _coefficient(n: int) -> tuple[int, int]:
    """C_n = r_n D_n (_midpoint_factor) as an unreduced integer (numerator,
    denominator) pair; a vanishing value would make the identity
    normalization meaningless and raises EvaluationError."""
    (r_num, r_den), (d_num, d_den) = _midpoint_factor(n)
    num = r_num * d_num
    if num == 0:
        raise EvaluationError(f"proportionality constant C_{n} evaluated to zero")
    return num, r_den * d_den


def coefficient_C(n: int):
    """Exact proportionality constant C_n = r_n D_n (_midpoint_factor) tying
    the degree-n hypergeometric factor to the index n + 2 trigonometric
    bracket, as a fractions.Fraction in lowest terms.

    First values: -1/8, -1/32, -1/80.  The result is guaranteed nonzero;
    a vanishing value would make the identity normalization meaningless
    and raises EvaluationError.
    """
    from fractions import Fraction  # only this public form needs it

    return Fraction(*_coefficient(n))


def normalization_A(n: int, alpha: float) -> float:
    """Amplitude making the level-n bound state of the symmetric well equal
    the normalized partner mode of index n + 2: A_n = N_{n+2} / C_n."""
    num, den = _coefficient(n)
    return den / num * TrigEigenfunction(n + 2, alpha).norm


# The identities divide by sin^2(t): their right sides are trusted only for
# t = 2 alpha x at least this far from both walls.
WALL_MARGIN = 1e-3

# The identity families, read by _identity_rows, the suite and the CLI: the
# letter of a family's index (n, a level, or m, a family index), its row
# label, the level of an index and the largest index run at a degree cap.
IdentityFamily = namedtuple("IdentityFamily", "letter label level top")
IDENTITY_FAMILIES = {
    "base": IdentityFamily("n", "base", lambda n: n, lambda cap: cap),
    "even": IdentityFamily("m", "even ratio", lambda m: 2 * m, lambda cap: cap // 2),
    "odd": IdentityFamily("m", "odd ratio", lambda m: 2 * m + 1, lambda cap: cap // 2),
}


class TGrid:
    """The rows sampled on one row `ts` of t = 2 alpha x: level(n) =
    F_n(sin^2(t/2)), mode(k) = the bracket g of index k >= 2 and
    second_derivative(k) = its row g'' in t, each built when it is read by
    a sweep to its own index (_rows) and not kept; and, built on first read
    and kept, sin_sq = sin^2(t) for the identities, the bound state's
    factors and the residual's partner potential at unit scale, x = t / 2
    (every t inside (0, pi)).  A grid that holds rows (_hold, the suite's
    interior grid) returns those, built once up front.  Every row it
    returns or keeps is an array('d'), each bracket copied into one as it
    is built; what its sweeps read at every point, its cos t row and the
    working rows, are lists.  A returned row is shared and must not be
    changed."""

    def __init__(self, ts):
        self.ts = ts
        self._cosines = list(map(math.cos, ts))
        self._levels, self._modes, self._second = {}, {}, {}  # the rows _hold built

    def _rows(self, levels=(), modes=(), seconds=()) -> tuple[dict, dict, dict]:
        """The level rows at each n of `levels`, the brackets at each k of
        `modes` and their g'' rows at each k of `seconds`, as three dicts:
        one level sweep (_level_rows) to the largest n, and one U sweep
        (_u_rows) to the largest k, differentiated (_chebyshev_rows) up to
        the largest g'' and read on alone past it.  A bracket and its g''
        share one row cos(kt), and every g'' reads the grid's cos t and
        sin^2 t rows."""
        ts, cosines = self.ts, self._cosines
        level_rows = {n: array("d", row) for n, row in _picked(_level_rows(ts), levels)}
        modes, seconds = set(modes), set(seconds)
        brackets, second = {}, {}
        if modes or seconds:
            us = _u_rows(cosines)
            derived = _chebyshev_rows(us)  # advances the same sweep us
            top = max(seconds, default=1)
            for k in range(2, max(modes | seconds) + 1):
                u, *derivatives = next(derived) if k <= top else (next(us),)
                if k in modes or k in seconds:
                    cos_kt = _cos_row(ts, k)
                    if k in modes:
                        brackets[k] = array("d", _bracket(k, cos_kt, cosines, u, 1.0))
                    if k in seconds:
                        second[k] = _second_derivative(k, cos_kt, self.sin_sq, cosines, u,
                                                       *derivatives)
        return level_rows, brackets, second

    def _hold(self, levels, modes, seconds) -> None:
        """Build the rows at these indices (_rows), sin_sq, the potential and
        the bound factors, and keep them all; a build that raises keeps no
        row of _rows."""
        rows = self._rows(levels, modes, seconds)
        self.sin_sq, self.potential, self.bound_factors
        self._levels, self._modes, self._second = rows

    def level(self, n: int) -> array:
        if n < 0:
            raise ParameterError(f"index must be >= 0, got {n}")
        return self._levels[n] if n in self._levels else self._rows(levels=[n])[0][n]

    def mode(self, k: int) -> array:
        _require_partner(k)
        return self._modes[k] if k in self._modes else self._rows(modes=[k])[1][k]

    def second_derivative(self, k: int) -> array:
        _require_partner(k)
        return self._second[k] if k in self._second else self._rows(seconds=[k])[2][k]

    @cached_property
    def sin_sq(self) -> array:
        return array("d", [s * s for s in map(math.sin, self.ts)])

    @cached_property
    def potential(self) -> array:
        return array("d", _partner_potentials(WellConfig(1.0), (0.5 * t for t in self.ts)))

    @cached_property
    def bound_factors(self) -> tuple[array, array]:
        return _bound_factors(self.ts)

    def bound_state_pairs(self, n: int, alpha: float) -> tuple[list[float], list[float]]:
        """Rows of the level-n bound state A_n sin^2 cos^2(t/2) F_n of the
        kappa = lam = 2 well and of the partner mode N_{n+2} bracket(t) at
        x = t / (2 alpha), read from the level and mode rows."""
        amplitude = normalization_A(n, alpha)
        norm = TrigEigenfunction(n + 2, alpha).norm
        psi = [amplitude * s2 * c2 * f for s2, c2, f in zip(*self.bound_factors, self.level(n))]
        return psi, [norm * g for g in self.mode(n + 2)]


def _identity_rows(which: str, index: int, grid: TGrid) -> tuple:
    """The left and the right side of one identity family at every t of
    `grid`, as two rows.

    The three families are one identity at level n,

        2F1(-n, n+4; 5/2; sin^2(t/2)) = 4 C_n [bracket of index n+2] / sin^2(t):

    "base" is it at n = index; "even" and "odd" are it at n = 2m and
    n = 2m + 1 (m = index) divided through by D_n, so that their right side
    carries the exact 4 r_n and never C_n (_midpoint_factor).  The level's
    constants are built once for the whole grid; the base left side is the
    level row itself (f / 1.0 == f for every float), shared and not to be
    changed.  There is no wall guard: the caller keeps every t at least
    WALL_MARGIN away from 0 and pi.
    """
    family = IDENTITY_FAMILIES.get(which)
    if family is None:
        raise ParameterError(f"identity family must be one of {sorted(IDENTITY_FAMILIES)}, "
                             f"got {which!r}")
    if index < 0:
        raise ParameterError(f"index {family.letter} must be >= 0, got {index}")
    n = family.level(index)
    if which == "base":
        c_num, c_den = _coefficient(n)
        lhs, pref = grid.level(n), 4.0 * (c_num / c_den)
    else:
        (r_num, r_den), (d_num, d_den) = _midpoint_factor(n)
        den, pref = d_num / d_den, 4 * r_num / r_den
        lhs = [f / den for f in grid.level(n)]
    return lhs, [pref * g / s2 for g, s2 in zip(grid.mode(n + 2), grid.sin_sq)]


def identity_sides(n: int, alpha: float, x: float) -> tuple[float, float]:
    """Both sides of the bound-state identity

        2F1(-n, n+4; 5/2; sin^2(alpha x))
            = 4 C_n [ (n+2) cos((n+2) t) - cot(t) sin((n+2) t) ] / sin^2(t)

    with t = 2 alpha x: one point of _identity_rows("base", ...).  The
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
    lhs, rhs = _identity_rows("base", n, TGrid([t]))
    return lhs[0], rhs[0]
