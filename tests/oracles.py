"""Independent reference implementations that the tests compare against."""
from fractions import Fraction


def f21_term_ratio_sum(h, z) -> Fraction:
    """2F1(-n, b; c; z) summed term by term in Fractions, each term from the
    last by the ratio (-n+j)(b+j) z / ((c+j)(j+1))."""
    z = Fraction(z)
    total = Fraction(0)
    term = Fraction(1)
    for j in range(h.n + 1):
        total += term
        term = term * (-h.n + j) * (h.b + j) * z / ((h.c + j) * (j + 1))
    return total
