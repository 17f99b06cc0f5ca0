"""Gauss-Legendre quadrature rules on [-1, 1]."""
from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConvergenceError, ParameterError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
]


class QuadratureRule(namedtuple("QuadratureRule", "order nodes weights")):
    """Gauss-Legendre nodes/weights on [-1, 1], immutable and shareable."""

    __slots__ = ()


def _legendre_pair(order: int, x: float) -> tuple[float, float]:
    """P_order(x) and P_{order-1}(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for j in range(1, order):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, p_prev


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order.

    Nodes are the Legendre roots, located by Newton iteration started from
    the Chebyshev-angle guesses cos(pi*(i + 3/4)/(order + 1/2)) and driven
    to 1e-15; weights use w = 2/((1 - x^2) P'_order(x)^2).
    """
    if order < 1:
        raise ParameterError("quadrature order must be >= 1")
    nodes = [0.0] * order
    weights = [0.0] * order
    for i in range((order + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (order + 0.5))
        for _ in range(100):
            p, p_prev = _legendre_pair(order, x)
            dp = order * (x * p - p_prev) / (x * x - 1.0)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-15:
                break
        else:
            raise ConvergenceError(
                f"Legendre root {i} of order {order} did not converge"
            )
        p, p_prev = _legendre_pair(order, x)
        dp = order * (x * p - p_prev) / (x * x - 1.0)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        # roots emerge in descending order; mirror into a symmetric rule
        nodes[i] = -x
        weights[i] = w
        nodes[order - 1 - i] = x
        weights[order - 1 - i] = w
    return QuadratureRule(order, tuple(nodes), tuple(weights))

