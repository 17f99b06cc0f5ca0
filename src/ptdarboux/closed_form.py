"""Closed-form partner eigenfunctions and the polynomial identities behind them.

The Darboux image of box mode k is, up to normalization,
k cos(kt) - cot(t) sin(kt) with t = 2 alpha x.  With c = cos t, this is
k T_k(c) - c U_{k-1}(c) (Chebyshev, first and second kind), and since
(1 - c^2) U'_{k-1}(c) = c U_{k-1}(c) - k T_k(c) (DLMF 18.9) it is the
product g_k = -sin^2(t) U'_{k-1}(cos t): no two terms cancel, so it keeps
its relative accuracy up to the walls, where it vanishes.  It and its
t-derivatives read one sweep of the U recurrence and its argument
derivatives (_u_rows).  Over sin^2 t it is the right side of the identity
that ties these images to the Poschl-Teller bound states of the symmetric
kappa = lam = 2 well, whose left side F_n(sin^2(t/2)) is a polynomial in
cos t too; its three forms are one level-n formula (_identity_rows).
Every row sampled on a row of t (bound-state factors, brackets and their
second derivatives, the partner potential, both sides of the identities
and of the correspondence, and the t rule's quadrature rows) comes from one
holder, TGrid, which builds the rows at the indices it is built with in one
sweep each, and any other row a read asks for alone, by a sweep of its
cos t row to that index; the t rule's tables stream their rows from its
one generator (TGrid._rows), the point-wise chi_eval and identity_sides
read a one-point TGrid, and chi_derivatives reads one point of the sweep.
"""
from __future__ import annotations

import math
from array import array
from collections import namedtuple
from functools import cached_property, lru_cache

from .darboux import _partner_potentials
from .errors import DomainError, EvaluationError, ParameterError
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


def _level_rows(xs, ns):
    """(n, F_n) for each n of `ns`, in increasing order: the rows of F_n(z) =
    2F1(-n, n+4; 5/2; z) at each x = 1 - 2z of the list `xs`, from one
    _jacobi_rows sweep, a = 3/2 (DLMF 18.7.1), that stops after the largest
    n."""
    return hypergeom._jacobi_rows(1.5, xs, ns)


def _u_rows(cosines, depth, ks):
    """(k, rows) for each k of `ks` (k >= 2), in increasing order: the rows
    U'_{k-1} to its depth-th derivative at every c of the list `cosines`,
    from one sweep of chains of one order and parity of j that stops after
    the largest k: U_j = y U_{j-2} - U_{j-4}, y = (2c)^2 - 2 (Mason &
    Handscomb 2003, ch. 2), and U_j^(d) = U_{j-2}^(d) + 2j U_{j-1}^(d-1)
    (DLMF 18.9), which reads only the chain one order below of the other
    parity.  It forms the chains its rows read alone, each to the last
    index read, in lists, and the row y only when a U chain steps past U_1;
    integer values at c = +-1 stay exact.  Against exact values at the same
    c, the rows keep within 1.6e-14 of max|U_{k-1}^(d)| (k <= 63, d <= 3) on
    the suite's interior grid, and 9.5e-15 where |c| < 0.9995 (y's
    rounding)."""
    keep = set(ks)
    last = {(d, j % 2): j for d, j in sorted(  # (order, parity): the last index read
        (d, j) for k in keep for top in range(1, depth + 1)
        for d, j in zip(range(top + 1), range(k - 1 - top, k)))}
    size = len(cosines)
    y = ([4.0 * c * c - 2.0 for c in cosines]  # read only by a U chain stepping past U_1
         if max(last.get((0, 0), 0), last.get((0, 1), 0)) > 1 else [])
    rows = dict.fromkeys(last, [0.0] * size)  # U^(d)_0 = U^(d)_-1 = 0 for d >= 1
    back = [[-1.0] * size, [0.0] * size]  # U_-2, U_-1 before U_0, U_1 (where odd U starts)
    rows[0, 0], rows[0, 1] = [1.0] * size, [2.0 * c for c in cosines] if (0, 1) in last else []
    del cosines  # only y and U_1 read it: a caller's fresh list is freed here
    for j in range(1, max(keep, default=1)):
        p, twice = j % 2, 2.0 * j
        for d in (d for d in range(depth + 1) if last.get((d, p), -1) >= j):
            if d:
                rows[d, p] = [w + twice * v for w, v in zip(rows[d, p], rows[d - 1, 1 - p])]
            elif j > 1:
                back[p], rows[0, p] = rows[0, p], [
                    f * v - b for f, v, b in zip(y, rows[0, p], back[p])]
        if j + 1 in keep:
            yield j + 1, tuple(rows[d, p] for d in range(1, depth + 1))


def _bracket(sin_sq, slope, scale) -> list:
    """The row scale * g_k, g_k = -sin^2(t) U'_{k-1}(cos t), from the rows
    sin^2 t and U'_{k-1} `slope`, as a list, which its reader sums or
    copies into an array to keep; a scale of 1.0 gives the bracket's own
    bits.  It is a product: no two terms cancel, so each value keeps its
    relative accuracy up to the walls, where it vanishes."""
    minus = -scale
    return [minus * (s2 * p) for s2, p in zip(sin_sq, slope)]


def _g2_factors(cosines, sin_sq) -> tuple[list, list, list]:
    """The rows -2 (c^2 - s^2), 5 c s^2 and s^4 that g'' reads at every k."""
    return ([-2.0 * (c * c - s2) for c, s2 in zip(cosines, sin_sq)],
            [5.0 * c * s2 for c, s2 in zip(cosines, sin_sq)], [s2 * s2 for s2 in sin_sq])


def _second_derivative(factors, slope, slope1, slope2) -> list:
    """The row g'' = -2 (c^2 - s^2) P + 5 c s^2 P' - s^4 P'' of the bracket
    g = -s^2 P, P = U'_{k-1}(c), c = cos t and s^2 = sin^2 t, as a list, from
    _g2_factors (its products left to right) and (P, P', P'') (_u_rows)."""
    return [f * p + f1 * p1 - f2 * p2
            for f, f1, f2, p, p1, p2 in zip(*factors, slope, slope1, slope2)]


def _t_of(alpha: float, x: float) -> float:
    """t = 2 alpha x of a point x of the closed interval [0, L]; any other
    x raises DomainError."""
    length = WellConfig(alpha).length
    if not (0.0 <= x <= length):
        raise DomainError(f"x={x} outside closed interval [0, {length}]")
    return 2.0 * alpha * x


def chi_eval(f: TrigEigenfunction, x: float) -> float:
    """Value of the normalized partner mode on the closed interval [0, L]:
    one point of TGrid.mode."""
    return f.norm * TGrid([_t_of(f.alpha, x)]).mode(f.k)[0]


def chi_derivatives(f: TrigEigenfunction, x: float) -> tuple[float, float, float]:
    """(value, d/dx, d2/dx2) of the partner mode on the closed interval [0, L].

    Differentiating g(t) = -s^2 P in t with s = sin t, c = cos t and
    (P, P', P'') = U'_{k-1} and its argument derivatives at c:

        g'  = s (s^2 P' - 2 c P)
        g'' = -2 (c^2 - s^2) P + 5 c s^2 P' - s^4 P''

    then d/dx = 2 alpha d/dt.  No term divides by s, so the walls are
    points like any other, where g and g' vanish.  One depth-3 U sweep
    (_u_rows) gives all three.
    """
    a = f.alpha
    t = _t_of(a, x)
    s, c = math.sin(t), math.cos(t)
    s2 = s * s
    ((_, (p, p1, p2)),) = _u_rows([c], 3, [f.k])
    (g,) = _bracket([s2], p, 1.0)
    (g2,) = _second_derivative(_g2_factors([c], [s2]), p, p1, p2)
    g1 = s * (s2 * p1[0] - 2.0 * c * p[0])
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
    F_n(sin^2(t/2)), slope(k) = U'_{k-1}(cos t) and second_derivative(k) = the
    row g'' in t of the bracket g of index k >= 2; mode(k) = g = -sin^2(t)
    U'_{k-1}(cos t), formed on each read; and, built on first read and kept,
    sin_sq = sin^2(t), the bound state's factors and the residual's partner
    potential at unit scale, x = t / 2 (every t inside (0, pi)).  Held rows are
    the level, U'_{k-1} and g'' rows at the indices the grid is built with,
    each an array('d') copied from _rows at construction; any other read is
    the list of its own sweep (_rows), not kept, and a reader that streams
    many rows in turn (the t rule's tables) reads _rows itself.  Its cos t
    row, which it holds, and the sweeps' working rows are lists.  A returned
    row is shared and must not be changed."""

    def __init__(self, ts, levels=(), slopes=(), seconds=()):
        self.ts = ts
        self._cosines = list(map(math.cos, ts))
        self._held = {(kind, i): array("d", row)
                      for kind, i, row in self._rows(levels, slopes, seconds)}

    def _rows(self, levels=(), slopes=(), seconds=()):
        """(kind, index, row), each row the list it is built in: the level row
        at each n of `levels`, then the row U'_{k-1} at each k of `slopes` and
        the g'' row at each k of `seconds`, from one level sweep (_level_rows)
        and one U sweep (_u_rows) of the cos t row, each run only if asked
        for a row and to its largest index, the U sweep to depth 3 if any g''
        is asked for and to 1 if not; every g'' reads the rows of _g2_factors."""
        cosines = self._cosines
        if levels:
            for n, level in _level_rows(cosines, levels):
                yield "levels", n, level
        slopes, seconds = set(slopes), set(seconds)
        if slopes or seconds:
            factors = _g2_factors(cosines, self.sin_sq) if seconds else ()
            for k, (slope, *higher) in _u_rows(cosines, 3 if seconds else 1, slopes | seconds):
                if k in slopes:
                    yield "slopes", k, slope
                if k in seconds:
                    yield "seconds", k, _second_derivative(factors, slope, *higher)

    def _row(self, kind: str, index: int) -> array | list:
        """The held row of `kind` at `index`, else the list of its own sweep."""
        held = self._held.get((kind, index))
        return held if held is not None else next(self._rows(**{kind: [index]}))[2]

    def level(self, n: int) -> array | list:
        if n < 0:
            raise ParameterError(f"index must be >= 0, got {n}")
        return self._row("levels", n)

    def slope(self, k: int) -> array | list:
        _require_partner(k)
        return self._row("slopes", k)

    def mode(self, k: int) -> list:
        return _bracket(self.sin_sq, self.slope(k), 1.0)

    def second_derivative(self, k: int) -> array | list:
        _require_partner(k)
        return self._row("seconds", k)

    @cached_property
    def sin_sq(self) -> array:
        return array("d", [s * s for s in map(math.sin, self.ts)])

    @cached_property
    def potential(self) -> array:
        return array("d", _partner_potentials(WellConfig(1.0), (0.5 * t for t in self.ts)))

    @cached_property
    def bound_factors(self) -> tuple[array, array]:
        """The rows sin^2(t/2) and cos^2(t/2) of the bound state's factor
        sin^2 cos^2(t/2) F_n."""
        halves = [0.5 * t for t in self.ts]
        return (array("d", [s * s for s in map(math.sin, halves)]),
                array("d", [c * c for c in map(math.cos, halves)]))

    def bound_state_pairs(self, n: int, alpha: float) -> tuple[list[float], list[float]]:
        """Rows of the level-n bound state A_n sin^2 cos^2(t/2) F_n of the
        kappa = lam = 2 well and of the partner mode N_{n+2} bracket(t) at
        x = t / (2 alpha), read from the level and slope rows, with the
        bits of N_{n+2} times mode(n + 2)."""
        amplitude = normalization_A(n, alpha)
        norm = TrigEigenfunction(n + 2, alpha).norm
        psi = [amplitude * s2 * c2 * f for s2, c2, f in zip(*self.bound_factors, self.level(n))]
        return psi, _bracket(self.sin_sq, self.slope(n + 2), norm)


def _identity_rows(which: str, index: int, grid: TGrid) -> tuple:
    """The left and the right side of one identity family at every t of
    `grid`, as two rows.

    The three families are one identity at level n,

        2F1(-n, n+4; 5/2; sin^2(t/2)) = 4 C_n [bracket of index n+2] / sin^2(t)
                                      = -4 C_n U'_{n+1}(cos t):

    "base" is it at n = index; "even" and "odd" are it at n = 2m and
    n = 2m + 1 (m = index) divided through by D_n, so that their right side
    carries the exact 4 r_n and never C_n (_midpoint_factor).  The right
    side is read from the grid's row U'_{n+1} (TGrid.slope): it divides by
    nothing, so it holds on the closed interval.  The level's constants are
    built once for the whole grid; the base left side is the level row
    itself (f / 1.0 == f for every float), shared and not to be changed.
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
    minus = -pref
    return lhs, [minus * p for p in grid.slope(n + 2)]


def identity_sides(n: int, alpha: float, x: float) -> tuple[float, float]:
    """Both sides of the bound-state identity

        2F1(-n, n+4; 5/2; sin^2(alpha x))
            = 4 C_n [ (n+2) cos((n+2) t) - cot(t) sin((n+2) t) ] / sin^2(t)

    with t = 2 alpha x on the closed interval [0, L] (any other x raises
    DomainError): one point of _identity_rows("base", ...), whose right
    side -4 C_n U'_{n+1}(cos t) is finite at the walls too.
    """
    lhs, rhs = _identity_rows("base", n, TGrid([_t_of(alpha, x)]))
    return lhs[0], rhs[0]
