"""Gauss-Legendre rules, and the tests' rational Pochhammer symbols and
Chebyshev recurrence (tests/oracles.py) that other tests compare against."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chebyshev_u, legendre_rule, pochhammer
from ptdarboux import numerics
from ptdarboux.errors import ConvergenceError, ParameterError
from ptdarboux.numerics import QuadratureRule, gauss_legendre


def test_pochhammer_values():
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(-2, 3) == (-2) * (-1) * 0
    assert pochhammer(Fraction(-5, 2), 2) == Fraction(-5, 2) * Fraction(-3, 2)


def test_pochhammer_rejects_negative_count():
    with pytest.raises(ParameterError):
        pochhammer(Fraction(1), -1)


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=20),
    st.integers(min_value=0, max_value=12),
)
def test_pochhammer_recurrence(a, n):
    assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)


def test_gauss_legendre_order_two_frozen():
    rule = gauss_legendre(2)
    node = 0.5773502691896257  # 1/sqrt(3)
    assert math.isclose(rule.nodes[0], -node, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(rule.nodes[1], node, rel_tol=0, abs_tol=1e-15)
    for w in rule.weights:
        assert math.isclose(w, 1.0, rel_tol=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 64, 255, 1024])
def test_gauss_legendre_equals_the_integer_coefficient_recurrence(order):
    # the rule takes the recurrence's coefficients as floats once; each
    # converts exactly, so every node and weight keeps its bits
    rule = gauss_legendre(order)
    nodes, weights = legendre_rule(order)
    assert list(map(float.hex, rule.nodes)) == list(map(float.hex, nodes))
    assert list(map(float.hex, rule.weights)) == list(map(float.hex, weights))


def test_gauss_legendre_order_one():
    rule = gauss_legendre(1)
    assert rule.nodes == (0.0,)
    assert math.isclose(rule.weights[0], 2.0, rel_tol=1e-15)


def test_gauss_legendre_structure():
    for order in (2, 5, 16, 64):
        rule = gauss_legendre(order)
        assert isinstance(rule, QuadratureRule)
        assert rule.order == order
        assert len(rule.nodes) == len(rule.weights) == order
        assert all(a < b for a, b in zip(rule.nodes, rule.nodes[1:]))
        assert all(w > 0 for w in rule.weights)
        # symmetric rule on [-1, 1]
        for i in range(order):
            assert math.isclose(rule.nodes[i], -rule.nodes[order - 1 - i], abs_tol=1e-15)
        assert math.isclose(math.fsum(rule.weights), 2.0, rel_tol=1e-14)


def test_gauss_legendre_rejects_bad_order():
    with pytest.raises(ParameterError):
        gauss_legendre(0)


def test_gauss_legendre_raises_when_a_root_does_not_converge(monkeypatch):
    # a NaN recurrence never takes a Newton step under 1e-15: after its 100
    # steps the first root raises
    monkeypatch.setattr(numerics, "_legendre_pair", lambda steps, x: (math.nan, math.nan))
    with pytest.raises(ConvergenceError, match=r"^Legendre root 0 of order 4 did not converge$"):
        gauss_legendre(4)


@pytest.mark.parametrize("order", [1, 2, 4, 8, 16, 32, 64])
def test_gauss_legendre_monomial_exactness(order):
    # an order-p rule integrates monomials up to degree 2p-1 exactly
    rule = gauss_legendre(order)
    for q in range(2 * order):
        value = math.fsum(w * x**q for x, w in zip(rule.nodes, rule.weights))
        exact = 0.0 if q % 2 else 2.0 / (q + 1)
        assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact))


def test_chebyshev_u_against_sine_identity():
    # U_k(cos t) sin t = sin((k+1) t)
    for k in range(0, 14):
        for i in range(1, 20):
            t = math.pi * i / 20
            lhs = chebyshev_u(k, math.cos(t)) * math.sin(t)
            assert abs(lhs - math.sin((k + 1) * t)) <= 1e-12


def test_chebyshev_u_small_orders():
    c = 0.37
    assert chebyshev_u(0, c) == 1.0
    assert chebyshev_u(1, c) == 2 * c
    assert math.isclose(chebyshev_u(2, c), 4 * c * c - 1, rel_tol=1e-15)
    with pytest.raises(ParameterError):
        chebyshev_u(-1, c)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10))
def test_gauss_legendre_integrates_lagrange_degree_bound(order):
    # integrate a dense polynomial of the highest exact degree, built with
    # rational coefficients so the reference is computed without rounding
    degree = 2 * order - 1
    coefs = [Fraction((-1) ** j, j + 1) for j in range(degree + 1)]
    exact = sum(
        2 * c / Fraction(j + 1) for j, c in enumerate(coefs) if j % 2 == 0
    )
    rule = gauss_legendre(order)

    def poly(x):
        acc = 0.0
        for c in reversed(coefs):
            acc = acc * x + float(c)
        return acc

    value = math.fsum(w * poly(x) for x, w in zip(rule.nodes, rule.weights))
    assert abs(value - float(exact)) <= 1e-13 * max(1.0, abs(float(exact)))
