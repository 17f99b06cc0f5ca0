"""Terminating Gauss hypergeometric polynomials 2F1(-n, b; c; z).

Two evaluation paths.  The exact path writes the parameters and z over
integer numerators and denominators and nests the series in Horner form,
swept backward on one integer numerator and denominator, so a value costs
integer products and a single reduction to lowest terms.  The
floating-point path must track the exact one even where the series terms
near z = 1 reach 2e16 (n = 25), 2e27 (n = 40) or 2e42 (n = 60) while the
value is O(1).  Summing the power series loses the value to that cancellation
unless it is carried in ever more precision, so the float path evaluates
the polynomial as a normalized Jacobi polynomial by its three-term
recurrence in degree, whose terms stay of the size of the result.
"""
from __future__ import annotations

from array import array
from collections import namedtuple
from fractions import Fraction
from itertools import count, islice

from .errors import ParameterError

__all__ = [
    "TerminatingHypergeometric",
    "LevelTable",
    "f21_eval_exact",
    "f21_eval_real",
    "f21_derivative",
    "midpoint_vanishing",
]


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, float):
        # floats are exact dyadic rationals; the conversion is lossless
        return Fraction(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"{what} must be rational (int/Fraction) or float, got {type(value)!r}")


class TerminatingHypergeometric(namedtuple("TerminatingHypergeometric", "n b c")):
    """Parameters of the degree-n polynomial 2F1(-n, b; c; z); b and c are
    stored as Fractions.

    c must not be zero or a negative integer, otherwise the series is
    undefined.  The degree in z equals n unless a Pochhammer factor of b
    truncates the series earlier.
    """

    __slots__ = ()

    def __new__(cls, n: int, b, c):
        if n < 0:
            raise ParameterError("degree n must be nonnegative")
        b = _as_fraction(b, "parameter b")
        c = _as_fraction(c, "parameter c")
        if c.denominator == 1 and c <= 0:
            raise ParameterError(
                f"third parameter c={c} is a nonpositive integer; series undefined"
            )
        return super().__new__(cls, n, b, c)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace validates too


def f21_eval_exact(h: TerminatingHypergeometric, z) -> Fraction:
    """Exact rational value of the n+1 term series.

    With b = b_n/b_d, c = c_n/c_d and z = z_n/z_d, the term ratio
    (-n+j)(b+j) z / ((c+j)(j+1)) is p_j / q_j with the integers

        p_j = (j-n)(b_n + j b_d) c_d z_n,   q_j = (c_n + j c_d) b_d z_d (j+1),

    so the nested form 1 + r_0 (1 + r_1 (1 + ... r_{n-1})) is swept backward
    from j = n-1 on one integer numerator and denominator, and the value is
    reduced once, by the closing Fraction.
    """
    if isinstance(z, float):
        raise TypeError("exact path needs rational z; use f21_eval_real or pass a Fraction")
    z = _as_fraction(z, "argument z")
    n = h.n
    b_n, b_d = h.b.numerator, h.b.denominator
    c_n, c_d = h.c.numerator, h.c.denominator
    p_scale, q_scale = c_d * z.numerator, b_d * z.denominator
    num = den = 1
    for j in range(n - 1, -1, -1):
        q = (c_n + j * c_d) * q_scale * (j + 1)
        num, den = q * den + (j - n) * (b_n + j * b_d) * p_scale * num, q * den
    return Fraction(num, den)


def _jacobi_rows(a: float, beta: float, zs):
    """The rows R_0, R_1, R_2, ... of the normalized Jacobi recurrence at
    every z of `zs`, one array('d') per degree, keeping only the last two.

    R_n = P_n^(a,beta)(x) / P_n^(a,beta)(1) with x = 1 - 2z (DLMF 15.9.1),
    R_0 = 1, R_1 = 1 - (a+beta+2) z/(a+1), and with s = 2j + a + beta
    (DLMF 18.9.2)

        2(j+a)(j+a+beta)(s-2) R_j
            = (s-1)[s(s-2)x + a^2 - beta^2] R_{j-1} - 2(j-1)(j+beta-1)s R_{j-2},

    so R_j = (p (q x + a^2 - beta^2) R_{j-1} - c2 R_{j-2}) / den, with
    step coefficients that do not depend on the target degree.
    """
    ab = a + beta
    xs = array("d", [1.0 - 2.0 * z for z in zs])
    diff_sq = a * a - beta * beta
    r_prev = array("d", [1.0]) * len(zs)
    yield r_prev
    r = array("d", [1.0 - (a + beta + 2.0) * z / (a + 1.0) for z in zs])
    yield r
    for j in count(2):
        s = 2 * j + ab
        p, q, c2 = s - 1.0, s * (s - 2.0), 2.0 * (j - 1) * (j + beta - 1.0) * s
        den = 2.0 * (j + a) * (j + ab) * (s - 2.0)
        r_prev, r = r, array(
            "d", [(p * (q * x + diff_sq) * v - c2 * w) / den for x, v, w in zip(xs, r, r_prev)]
        )
        yield r


def f21_eval_real(h: TerminatingHypergeometric, z: float) -> float:
    """Floating-point value of 2F1(-n, b; c; z): one point of the
    _jacobi_rows sweep at degree n, with a = c - 1 and beta = b - n - c.

    No step cancels large terms, so the error stays near the rounding level
    of max|F| (checked to n = 160).  The recurrence needs a > -1 and beta > -1;
    other parameters raise ParameterError (f21_eval_exact takes them).
    """
    c = float(h.c)
    a = c - 1.0
    beta = float(h.b) - h.n - c
    if not (a > -1.0 and beta > -1.0):
        raise ParameterError(f"float path needs c - 1 > -1 and b - n - c > -1, got {a}, {beta}")
    return next(islice(_jacobi_rows(a, beta, [float(z)]), h.n, None))[0]


class LevelTable:
    """F_n(z) = 2F1(-n, n+4; 5/2; z) of every level n on a fixed row of z.
    Here a = beta = 3/2 at every n (the Gegenbauer polynomials C_n^(2)(1 - 2z),
    DLMF 18.7.1), so ascending levels continue one sweep of _jacobi_rows,
    started on first use; only its last two rows are kept and a lower level
    restarts it.  Keeping every row gives the same bits but holds 61 rows per
    table at n = 60: verify --n-max 60 --panels 1024 peaks at 154 MB instead
    of 95 MB.  A returned row is shared and must not be changed."""

    def __init__(self, zs):
        self.zs = zs
        self._sweep, self._level, self._row = None, -1, None

    def level(self, n: int) -> array:
        if n < 0:
            raise ParameterError(f"index n must be >= 0, got {n}")
        if self._sweep is None or n < self._level:
            self._sweep, self._level = enumerate(_jacobi_rows(1.5, 1.5, self.zs)), -1
        while self._level < n:
            self._level, self._row = next(self._sweep)
        return self._row


def f21_derivative(
    h: TerminatingHypergeometric,
) -> tuple[Fraction, TerminatingHypergeometric]:
    """Parameter-shift form of d/dz 2F1(-n, b; c; z).

    Returns (factor, shifted) with factor = (-n)b/c and shifted parameters
    (n-1, b+1, c+1).  For n = 0 the derivative vanishes identically: the
    factor is 0 and the parameters are returned unchanged.
    """
    if h.n == 0:
        return Fraction(0), h
    factor = Fraction(-h.n) * h.b / h.c
    return factor, TerminatingHypergeometric(h.n - 1, h.b + 1, h.c + 1)


def midpoint_vanishing(m: int) -> tuple[bool, bool | None]:
    """Exact midpoint-vanishing checks for index m.

    First component: 2F1(-(2m+1), 2m+5; 5/2; 1/2) == 0, valid for all
    m >= 0.  Second component: 2F1(-2m+1, 2m+5; 7/2; 1/2) == 0, which is a
    terminating series only for m >= 1; for m = 0 the first parameter is
    +1 and the check does not apply, reported as None.

    Both evaluations are exact rational sums, so a True really is the
    integer zero and not a small residual.
    """
    if m < 0:
        raise ParameterError("index m must be nonnegative")
    half = Fraction(1, 2)
    first = f21_eval_exact(
        TerminatingHypergeometric(2 * m + 1, Fraction(2 * m + 5), Fraction(5, 2)), half
    ) == 0
    if m == 0:
        return first, None
    second = f21_eval_exact(
        TerminatingHypergeometric(2 * m - 1, Fraction(2 * m + 5), Fraction(7, 2)), half
    ) == 0
    return first, second
