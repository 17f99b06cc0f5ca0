"""Terminating Gauss hypergeometric polynomials 2F1(-n, b; c; z).

Two evaluation paths.  The exact path writes the parameters and z over
integer numerators and denominators and nests the series in Horner form,
swept backward on one integer numerator and denominator, so a value costs
integer products only.  The package's own readers take the unreduced
pair (a zero test, or one correctly rounded float num / den).  Only the
public exact API (f21_eval_exact, f21_derivative, TerminatingHypergeometric)
builds Fractions, importing fractions in its own bodies, so that no
subcommand loads it.

The floating-point path must track the exact one even where the series
terms near z = 1 reach 2e16 (n = 25), 2e27 (n = 40) or 2e42 (n = 60) while
the value is O(1).  Summing the power series loses the value to that
cancellation unless it is carried in ever more precision, so the float
path evaluates the polynomial as a normalized Jacobi polynomial by its
three-term recurrence in degree, whose terms stay of the size of the
result.  Every 2F1 of the package lies on a Gegenbauer ladder
b = n + 2c - 1, where the recurrence has one step form, and the float path
takes only those; the exact path takes any parameters.
"""
from __future__ import annotations

from collections import namedtuple

from .errors import ParameterError

__all__ = [
    "TerminatingHypergeometric",
    "f21_eval_exact",
    "f21_eval_real",
    "f21_derivative",
    "midpoint_vanishing",
]


def _as_fraction(value, what: str):
    """value as a fractions.Fraction; a float converts exactly."""
    from fractions import Fraction

    if isinstance(value, (int, float, Fraction)):
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


def _f21_exact(n: int, b: tuple[int, int], c: tuple[int, int],
               z: tuple[int, int]) -> tuple[int, int]:
    """Unreduced (num, den) of 2F1(-n, b; c; z) with b, c and z given as
    integer (numerator, denominator) pairs; den is nonzero when c is no
    nonpositive integer.

    With b = b_n/b_d, c = c_n/c_d and z = z_n/z_d, the term ratio
    (-n+j)(b+j) z / ((c+j)(j+1)) is p_j / q_j with the integers

        p_j = (j-n)(b_n + j b_d) c_d z_n,   q_j = (c_n + j c_d) b_d z_d (j+1),

    so the nested form 1 + r_0 (1 + r_1 (1 + ... r_{n-1})) is swept backward
    from j = n-1 on one integer numerator and denominator.
    """
    (b_n, b_d), (c_n, c_d), (z_n, z_d) = b, c, z
    p_scale, q_scale = c_d * z_n, b_d * z_d
    num = den = 1
    for j in range(n - 1, -1, -1):
        q = (c_n + j * c_d) * q_scale * (j + 1)
        num, den = q * den + (j - n) * (b_n + j * b_d) * p_scale * num, q * den
    return num, den


def f21_eval_exact(h: TerminatingHypergeometric, z):
    """Exact rational value of the n+1 term series, as a fractions.Fraction:
    the _f21_exact sweep, reduced once by the closing Fraction."""
    from fractions import Fraction

    if isinstance(z, float):
        raise TypeError("exact path needs rational z; use f21_eval_real or pass a Fraction")
    z = _as_fraction(z, "argument z")
    return Fraction(*_f21_exact(h.n, (h.b.numerator, h.b.denominator),
                                (h.c.numerator, h.c.denominator),
                                (z.numerator, z.denominator)))


def _jacobi_rows(a: float, xs, ns):
    """(n, R_n) for each n of `ns`, in increasing order: the rows of the
    normalized Gegenbauer-ladder Jacobi recurrence at every x of the list
    `xs`, from one sweep that keeps only its last two rows and stops after
    the largest n; an empty `ns` builds no row.  A step reads its two rows'
    floats, and those of xs, without boxing them again.  A row is shared and
    must not be changed; a holder that keeps rows copies them into arrays,
    which take a quarter of the memory.

    R_n = P_n^(a,a)(x) / P_n^(a,a)(1) is 2F1(-n, n+2a+1; a+1; z) at
    x = 1 - 2z (DLMF 15.9.1), R_0 = 1, R_1 = x, and with s = 2j + 2a
    (DLMF 18.9.2 at beta = a)

        2(j+a)(j+2a)(s-2) R_j = (s-1) s(s-2) x R_{j-1} - 2(j-1)(j+a-1)s R_{j-2}.

    Each step folds its coefficients once into slope = (s-1) s(s-2) / den,
    with den the left side's factor, so that an element costs

        R_j = slope x R_{j-1} - (slope - 1) R_{j-2}.

    slope - 1 is 2(j-1)(j+a-1)s / den (R_j(x=1) = 1), and taking it so keeps
    R_j(x=1) = 1 and R_j(x=-1) = (-1)^j exactly at every degree: slope is at
    least 1 for a > -1, and subtracting 1 from it is exact.
    """
    keep = set(ns)
    for j in range(max(keep, default=-1) + 1):
        if j == 0:
            r = [1.0] * len(xs)
        elif j == 1:
            r_prev, r = r, xs
        else:
            s = 2 * j + 2.0 * a
            den = 2.0 * (j + a) * (j + 2.0 * a) * (s - 2.0)
            slope = (s - 1.0) * (s * (s - 2.0)) / den
            back = slope - 1.0
            r_prev, r = r, [slope * x * v - back * w for x, v, w in zip(xs, r, r_prev)]
        if j in keep:
            yield j, r


def f21_eval_real(h: TerminatingHypergeometric, z: float) -> float:
    """Floating-point value of 2F1(-n, b; c; z) on the Gegenbauer ladder
    b = n + 2c - 1 (F_n is c = 5/2): one point of the _jacobi_rows sweep at
    degree n, with a = c - 1.

    No step cancels large terms, so the error stays near the rounding level
    of max|F| (checked to n = 160).  F(0) = 1 and F(1) = (-1)^n exactly.
    The ladder is compared as exact rationals, and the recurrence needs
    a > -1, that is c > 0 once c - 1 is rounded; other parameters raise
    ParameterError (f21_eval_exact takes them).
    """
    a = float(h.c - 1)
    if h.b != h.n + 2 * h.c - 1 or not a > -1.0:
        raise ParameterError(f"float path takes only the ladder b = n + 2c - 1 with c > 0, "
                             f"got n={h.n}, b={h.b}, c={h.c}; f21_eval_exact takes any")
    return next(_jacobi_rows(a, [1.0 - 2.0 * float(z)], [h.n]))[1][0]


def f21_derivative(h: TerminatingHypergeometric) -> tuple:
    """Parameter-shift form of d/dz 2F1(-n, b; c; z).

    Returns (factor, shifted): the fractions.Fraction factor = (-n)b/c and
    the TerminatingHypergeometric of the shifted parameters (n-1, b+1, c+1).
    For n = 0 the derivative vanishes identically: the factor is 0 and the
    parameters are returned unchanged.
    """
    from fractions import Fraction

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
    first = _f21_exact(2 * m + 1, (2 * m + 5, 1), (5, 2), (1, 2))[0] == 0
    if m == 0:
        return first, None
    second = _f21_exact(2 * m - 1, (2 * m + 5, 1), (7, 2), (1, 2))[0] == 0
    return first, second
