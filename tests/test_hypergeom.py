"""Exact and floating-point evaluation of terminating 2F1 polynomials."""
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PassCounter, f21_real, f21_term_ratio_sum, pochhammer
from ptdarboux.cli import MAX_DEGREE
from ptdarboux.errors import ParameterError
from ptdarboux.hypergeom import (
    TerminatingHypergeometric,
    _jacobi_rows,
    f21_derivative,
    f21_eval_exact,
    f21_eval_real,
    midpoint_vanishing,
)


def _direct_sum(n, b, c, z):
    # independent oracle: term-by-term Pochhammer sum, all in rationals
    total = Fraction(0)
    for j in range(n + 1):
        total += (
            pochhammer(Fraction(-n), j)
            * pochhammer(b, j)
            / pochhammer(c, j)
            * z**j
            / math.factorial(j)
        )
    return total


def test_degree_zero_is_one():
    h = TerminatingHypergeometric(0, Fraction(7), Fraction(5, 2))
    assert f21_eval_exact(h, Fraction(1, 3)) == 1
    # the float path takes the ladder b = n + 2c - 1 only
    assert f21_eval_real(TerminatingHypergeometric(0, 4, Fraction(5, 2)), 0.77) == 1.0


def test_degree_one_closed_form():
    h = TerminatingHypergeometric(1, Fraction(5), Fraction(5, 2))
    z = Fraction(2, 7)
    assert f21_eval_exact(h, z) == 1 - Fraction(5) * z / Fraction(5, 2)


def _ladders(n):
    # the Gegenbauer ladders a = beta of F_n (c = 5/2) and of the odd-ratio
    # factors (c = 7/2)
    return (TerminatingHypergeometric(n, n + 4, Fraction(5, 2)),
            TerminatingHypergeometric(n, n + 6, Fraction(7, 2)))


def test_real_evaluation_at_zero_is_exactly_one():
    # the folded step keeps both ends exact at every degree: F(0) = 1 and,
    # on the ladders, F(1) = (-1)^n, bit for bit; c = 3/5 and 3/10 are
    # ladders whose a = beta is no dyadic rational
    h = TerminatingHypergeometric(9, Fraction(13), Fraction(5, 2))
    assert f21_eval_real(h, 0.0) == 1.0
    for n in range(161):
        for h in (*_ladders(n), *(TerminatingHypergeometric(n, n + 2 * c - 1, c)
                                  for c in (Fraction(3, 5), Fraction(3, 10)))):
            assert (f21_eval_real(h, 0.0), f21_eval_real(h, 1.0)) == (1.0, (-1.0) ** n), h


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.fractions(min_value=Fraction(1, 4), max_value=30, max_denominator=8),
    st.fractions(min_value=Fraction(1, 4), max_value=10, max_denominator=8),
    st.fractions(min_value=-2, max_value=2, max_denominator=16),
)
def test_exact_matches_direct_pochhammer_sum(n, b, c, z):
    h = TerminatingHypergeometric(n, b, c)
    assert f21_eval_exact(h, z) == _direct_sum(n, b, c, z)


def _exact_path_cases():
    half = Fraction(1, 2)
    # every parameter set the package evaluates at z = 1/2: the midpoint
    # factors D_n of both parities and midpoint_vanishing's two factors
    for m in range(MAX_DEGREE // 2 + 1):
        yield TerminatingHypergeometric(2 * m, 2 * m + 4, Fraction(5, 2)), half
        yield TerminatingHypergeometric(2 * m, 2 * m + 6, Fraction(7, 2)), half
        yield TerminatingHypergeometric(2 * m + 1, 2 * m + 5, Fraction(5, 2)), half
        if m:
            yield TerminatingHypergeometric(2 * m - 1, 2 * m + 5, Fraction(7, 2)), half
    yield TerminatingHypergeometric(0, 7, Fraction(5, 2)), Fraction(3, 5)
    yield TerminatingHypergeometric(0, 7, Fraction(5, 2)), 0
    yield TerminatingHypergeometric(9, 13, Fraction(5, 2)), 0
    yield TerminatingHypergeometric(9, 13, Fraction(5, 2)), Fraction(-7, 3)
    yield TerminatingHypergeometric(12, Fraction(9, 2), Fraction(3, 2)), Fraction(17, 4)
    yield TerminatingHypergeometric(8, 3, Fraction(-5, 2)), 5
    # b = -2 ends the series after three terms
    yield TerminatingHypergeometric(5, -2, Fraction(5, 2)), Fraction(2, 3)
    yield TerminatingHypergeometric(6, Fraction(-3, 2), Fraction(1, 2)), Fraction(1, 2)
    yield TerminatingHypergeometric(7, 2.75, 0.625), Fraction(-5, 8)
    yield TerminatingHypergeometric(7, -4.5, -1.25), 3
    rng = random.Random(20151)
    for _ in range(300):
        c = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        if c.denominator == 1 and c <= 0:
            c -= Fraction(1, 2)
        b = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        z = Fraction(rng.randint(-64 * 50, 64 * 50), rng.randint(1, 50))
        yield TerminatingHypergeometric(rng.randint(0, 40), b, c), z


def test_exact_path_equals_the_term_ratio_oracle():
    for h, z in _exact_path_cases():
        value = f21_eval_exact(h, z)
        assert type(value) is Fraction
        assert value == f21_term_ratio_sum(h, z), (h, z)


def test_real_tracks_exact_in_cancellation_regime():
    # harshest desk-scale case: terms reach ~1e15 while the value is O(1)
    worst = 0.0
    for n in (5, 10, 15, 20, 25):
        h = TerminatingHypergeometric(n, Fraction(n + 4), Fraction(5, 2))
        for num in range(0, 33):
            z = Fraction(num, 32)
            exact = f21_eval_exact(h, z)
            approx = f21_eval_real(h, float(z))
            scale = max(1.0, abs(float(exact)))
            worst = max(worst, abs(approx - float(exact)) / scale)
    assert worst <= 1e-13


def test_real_path_equals_the_scalar_oracle():
    # f21_eval_real is one point of the _jacobi_rows sweep; it keeps the bits
    # of the general scalar Jacobi loop (tests/oracles.py), whose shift is 0
    # on the Gegenbauer ladder, at every degree the accuracy tests reach
    zs = (0.0, 0.013, 0.25, 0.5, 0.77, 0.999, 1.0, Fraction(1, 3))
    for n in range(161):
        for h in _ladders(n):
            assert [f21_eval_real(h, z) for z in zs] == [f21_real(h, z) for z in zs], n


@pytest.mark.parametrize("n", [40, 80, 160])
def test_real_tracks_exact_at_high_degree(n):
    # the power series' terms reach 2e27 (n = 40) to 5e117 (n = 160) near
    # z = 1, while the polynomial stays within [-1, 1]
    h = TerminatingHypergeometric(n, Fraction(n + 4), Fraction(5, 2))
    pairs = [(f21_eval_real(h, k / 256), float(f21_eval_exact(h, Fraction(k, 256))))
             for k in range(257)]
    scale = max(abs(exact) for _, exact in pairs)
    assert max(abs(real - exact) for real, exact in pairs) / scale <= 1e-13


def test_ladder_rows_track_the_exact_path_to_a_few_ulps():
    # every fourth degree n <= 160 of both ladders at z = k/256, one sweep
    # each, against f21_eval_exact, as a share of max|F|: measured worst
    # 8.9e-16 (c = 7/2, n = 24), as over every degree.  A fold that rounds
    # back = 2(j-1)(j+beta-1)s / den on its own, not as slope + shift - 1,
    # measured 9.3e-15 (c = 5/2) and 9.8e-15 (c = 7/2), above the bound at
    # 24 and 22 of these 41 degrees.  F(1 - z) = (-1)^n F(z) on a ladder, so
    # the exact values at k > 128 mirror those below.
    xs = [1.0 - k / 128 for k in range(257)]  # x = 1 - 2z, exact
    worst = 0.0
    for c in (Fraction(5, 2), Fraction(7, 2)):
        for n, row in _jacobi_rows(float(c) - 1.0, xs, range(0, 161, 4)):
            h = TerminatingHypergeometric(n, n + 2 * c - 1, c)
            exact = [float(f21_eval_exact(h, Fraction(k, 256))) for k in range(129)]
            exact += [(-1) ** n * value for value in reversed(exact[:128])]
            scale = max(map(abs, exact))
            worst = max(worst, max(abs(r - e) for r, e in zip(row, exact)) / scale)
    assert worst <= 2e-15


def test_jacobi_rows_for_no_degree_build_no_row():
    # an empty index set returns before the sweep reads its row of x, so
    # not even R_0 = 1 (a row of len(xs) ones) is built
    xs = PassCounter([0.5, -0.25, 1.0])
    assert list(_jacobi_rows(1.5, xs, [])) == []
    assert (xs.passes, xs.lengths) == (0, 0)


@pytest.mark.parametrize("a", [1.5], ids=["ladder"])
def test_jacobi_rows_yield_the_degrees_asked_in_order_and_stop(a):
    # degrees 1 and 3, asked for as [3, 1], come in increasing order with
    # the bits of a full sweep's rows, and the sweep stops after degree 3:
    # R_1 is x itself, which the steps to degrees 2 and 3 then read twice
    xs = [1.0 - k / 64 for k in range(129)]
    full = {n: [v.hex() for v in row] for n, row in _jacobi_rows(a, xs, range(8))}
    counted = PassCounter(xs)
    picked = list(_jacobi_rows(a, counted, [3, 1]))
    assert counted.passes == 4
    assert [(n, [v.hex() for v in row]) for n, row in picked] == [(1, full[1]), (3, full[3])]


def test_real_rejects_parameters_outside_the_jacobi_range():
    # the float path takes the ladder b = n + 2c - 1 with c > 0 only:
    # b = 8 at n = 3, c = 5/2 lies off it (b = 7 on it), as do the first two;
    # c = -1/2 and c = 10^-400 lie on it, but a = c - 1 is -3/2 or rounds to
    # -1, where the recurrence divides by zero.  Each names the exact path,
    # which still evaluates them
    for h in (
        TerminatingHypergeometric(3, Fraction(2), Fraction(-7, 2)),
        TerminatingHypergeometric(3, Fraction(1), Fraction(5, 2)),
        TerminatingHypergeometric(3, Fraction(8), Fraction(5, 2)),
        TerminatingHypergeometric(3, Fraction(1), Fraction(-1, 2)),
        TerminatingHypergeometric(3, 2 + Fraction(2, 10 ** 400), Fraction(1, 10 ** 400)),
    ):
        with pytest.raises(ParameterError, match="f21_eval_exact"):
            f21_eval_real(h, 0.25)
        assert f21_eval_exact(h, Fraction(1, 4)) == _direct_sum(h.n, h.b, h.c, Fraction(1, 4))


def test_exact_rejects_float_argument():
    h = TerminatingHypergeometric(2, Fraction(6), Fraction(5, 2))
    with pytest.raises(TypeError):
        f21_eval_exact(h, 0.5)


def test_a_parameter_or_argument_that_is_no_number_raises_type_error():
    # an int, a float or a Fraction converts exactly; anything else is refused
    with pytest.raises(TypeError) as err:
        TerminatingHypergeometric(2, "5", Fraction(5, 2))
    assert str(err.value) == ("parameter b must be rational (int/Fraction) or float, "
                              "got <class 'str'>")
    h = TerminatingHypergeometric(2, Fraction(6), Fraction(5, 2))
    with pytest.raises(TypeError) as err:
        f21_eval_exact(h, Decimal("0.5"))
    assert str(err.value) == ("argument z must be rational (int/Fraction) or float, "
                              "got <class 'decimal.Decimal'>")


def test_parameter_validation():
    with pytest.raises(ParameterError):
        TerminatingHypergeometric(-1, Fraction(2), Fraction(5, 2))
    with pytest.raises(ParameterError):
        TerminatingHypergeometric(3, Fraction(2), Fraction(0))
    with pytest.raises(ParameterError):
        TerminatingHypergeometric(3, Fraction(2), Fraction(-4))
    # non-integer negatives are fine
    TerminatingHypergeometric(3, Fraction(2), Fraction(-7, 2))


def test_float_parameters_convert_exactly():
    h = TerminatingHypergeometric(2, 4.0, 2.5)
    assert h.b == Fraction(4)
    assert h.c == Fraction(5, 2)


def test_derivative_parameter_shift():
    h = TerminatingHypergeometric(4, Fraction(8), Fraction(5, 2))
    factor, shifted = f21_derivative(h)
    assert factor == Fraction(-4) * Fraction(8) / Fraction(5, 2)
    assert (shifted.n, shifted.b, shifted.c) == (3, Fraction(9), Fraction(7, 2))


def test_derivative_of_constant_vanishes():
    h = TerminatingHypergeometric(0, Fraction(8), Fraction(5, 2))
    factor, shifted = f21_derivative(h)
    assert factor == 0
    assert shifted == h


def test_derivative_matches_central_difference():
    h = TerminatingHypergeometric(6, Fraction(10), Fraction(5, 2))
    factor, shifted = f21_derivative(h)
    worst = {1e-4: 0.0, 1e-5: 0.0}
    for z in (0.15, 0.4, 0.65, 0.9):
        analytic = float(factor) * f21_eval_real(shifted, z)
        for h_step in worst:
            cd = (f21_eval_real(h, z + h_step) - f21_eval_real(h, z - h_step)) / (
                2 * h_step
            )
            dev = abs(analytic - cd) / max(1.0, abs(analytic))
            worst[h_step] = max(worst[h_step], dev)
    assert worst[1e-4] <= 5e-6
    assert worst[1e-5] <= 5e-8
    # O(h^2): shrinking h by 10 should shrink the error by ~100
    assert worst[1e-5] <= worst[1e-4] / 10


def test_derivative_exact_consistency():
    # d/dz at rational z, checked exactly via the polynomial difference ratio
    h = TerminatingHypergeometric(3, Fraction(7), Fraction(5, 2))
    factor, shifted = f21_derivative(h)
    z = Fraction(1, 3)
    eps = Fraction(1, 10**12)
    numeric = (f21_eval_exact(h, z + eps) - f21_eval_exact(h, z - eps)) / (2 * eps)
    analytic = factor * f21_eval_exact(shifted, z)
    assert abs(numeric - analytic) < Fraction(1, 10**20)


def test_midpoint_vanishing_all_applicable_cases():
    first, second = midpoint_vanishing(0)
    assert first is True
    assert second is None
    for m in range(1, 26):
        first, second = midpoint_vanishing(m)
        assert first is True
        assert second is True


def test_midpoint_vanishing_rejects_negative():
    with pytest.raises(ParameterError):
        midpoint_vanishing(-1)


def test_midpoint_nonvanishing_partners():
    # the companions entering the proportionality constants must NOT vanish,
    # nor may the even-family value 2F1(-2m, 2m+5; 5/2; 1/2): an exact path
    # that returned 0 by mistake would pass every vanishing check
    half = Fraction(1, 2)
    for m in range(MAX_DEGREE // 2 + 1):
        assert f21_eval_exact(
            TerminatingHypergeometric(2 * m, Fraction(2 * m + 5), Fraction(5, 2)), half
        ) != 0
        even = f21_eval_exact(
            TerminatingHypergeometric(2 * m, Fraction(2 * m + 4), Fraction(5, 2)), half
        )
        odd = f21_eval_exact(
            TerminatingHypergeometric(2 * m, Fraction(2 * m + 6), Fraction(7, 2)), half
        )
        assert even != 0
        assert odd != 0
