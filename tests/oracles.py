"""Independent reference implementations that the tests compare against.

The package evaluates on rows (closed_form.TGrid and the quadrature tables
that verify builds by sweeping a recurrence); these are the point-wise forms
those rows must equal, kept here so that a bulk reference loop in a test
costs one scalar call per point.  legendre_rule is the Gauss-Legendre rule
built with the recurrence's integer coefficients, sturm_count_decimal is
verify's Sturm count at 60 digits, bracket_decimal is a partner mode's
bracket and its g'' at 60 digits, identity_pairs zips the two sides of an
identity family into (left, right) pairs, and json_safe is the payload whose
json.dumps the CLI's JSON writer must reproduce.
"""
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from ptdarboux import closed_form, verify
from ptdarboux.errors import ParameterError
from ptdarboux.hypergeom import TerminatingHypergeometric
from ptdarboux.numerics import gauss_legendre


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


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+n-1), exact; 1 for n = 0."""
    if n < 0:
        raise ParameterError("pochhammer order must be nonnegative")
    out = Fraction(1)
    a = Fraction(a)
    for j in range(n):
        out *= a + j
    return out


def f21_real(h, z: float) -> float:
    """2F1(-n, b; c; z) in floats by the normalized Jacobi recurrence in
    degree (DLMF 15.9.1, 18.9.2) with a = c - 1, beta = b - n - c, swept at
    one point in its folded step R_j = (slope x + shift) R_{j-1} - back
    R_{j-2}, back = slope + shift - 1, and R_1 = x when a = beta, where
    shift is 0; hypergeom.f21_eval_real and the level rows (closed_form.TGrid,
    the z rule's level sums) must equal it bit for bit."""
    a = float(h.c - 1)
    beta = float(h.b - h.n - h.c)
    ab = a + beta
    z = float(z)
    x = 1.0 - 2.0 * z
    diff_sq = a * a - beta * beta
    r_prev, r = 1.0, x if a == beta else 1.0 - (a + beta + 2.0) * z / (a + 1.0)
    for j in range(2, h.n + 1):
        s = 2 * j + ab
        den = 2.0 * (j + a) * (j + ab) * (s - 2.0)
        slope, shift = (s - 1.0) * (s * (s - 2.0)) / den, (s - 1.0) * diff_sq / den
        r_prev, r = r, (slope * x + shift) * r - (slope + shift - 1.0) * r_prev
    return r if h.n else 1.0


def legendre_rule(order: int) -> tuple[tuple, tuple]:
    """(nodes, weights) of the Gauss-Legendre rule of `order`: Newton's
    method on P_order from cos(pi (i + 3/4) / (order + 1/2)) to a step of
    1e-15, with the three-term recurrence in its integer coefficients,
    P_{j+1} = ((2j+1) x P_j - j P_{j-1}) / (j+1), and w = 2 / ((1 - x^2)
    P'^2); numerics.gauss_legendre must equal it tuple for tuple."""
    def pair(x):
        p_prev, p = 1.0, x
        for j in range(1, order):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        return p, p_prev

    nodes, weights = [0.0] * order, [0.0] * order
    for i in range((order + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (order + 0.5))
        for _ in range(100):
            p, p_prev = pair(x)
            dx = p / (order * (x * p - p_prev) / (x * x - 1.0))
            x -= dx
            if abs(dx) <= 1e-15:
                break
        p, p_prev = pair(x)
        dp = order * (x * p - p_prev) / (x * x - 1.0)
        nodes[i], nodes[order - 1 - i] = -x, x
        weights[i] = weights[order - 1 - i] = 2.0 / ((1.0 - x * x) * dp * dp)
    return tuple(nodes), tuple(weights)


def chebyshev_u(k: int, c: float) -> float:
    """Chebyshev polynomial of the second kind U_k(c), forward recurrence."""
    if k < 0:
        raise ParameterError("chebyshev_u index must be nonnegative")
    if k == 0:
        return 1.0
    u_prev, u = 1.0, 2.0 * c
    for _ in range(k - 1):
        u_prev, u = u, 2.0 * c * u - u_prev
    return u


def chebyshev_u_slope(k: int, c: float) -> float:
    """U_k'(c), the argument derivative of U_k, by U_j' = U_{j-2}' + 2j U_{j-1},
    swept beside U's own forward recurrence."""
    if k < 0:
        raise ParameterError("chebyshev_u_slope index must be nonnegative")
    u_prev, u, du_prev, du = 0.0, 1.0, 0.0, 0.0  # U and U' at j = -1, 0
    for j in range(1, k + 1):
        u_prev, u, du_prev, du = u, 2.0 * c * u - u_prev, du, du_prev + 2.0 * j * u
    return du


def stable_bracket(k: int, t: float) -> float:
    """-sin^2(t) U'_{k-1}(cos t), the bracket row of index k at t."""
    s = math.sin(t)
    return -(s * s) * chebyshev_u_slope(k - 1, math.cos(t))


def bracket_decimal(k: int, t: float, digits: int = 60) -> tuple[Decimal, Decimal]:
    """The bracket g = k cos(kt) - cot(t) sin(kt) of index k and its g'' at
    t (taken exactly, 0 < t < pi) in `digits`-digit decimal arithmetic, from
    the cotangent form differentiated by hand,

        g'' = -k^3 cos(kt) - 2 csc^2 cot sin(kt) + 2 k csc^2 cos(kt) + k^2 cot sin(kt),

    with cos(kt) = T_k(c) and sin(kt) = s U_{k-1}(c), c = cos t and s = sin t
    from their Taylor series: the cancellation the package's product form
    avoids is carried out with digits to spare."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        t = Decimal(t)
        c, s, term, j = Decimal(0), Decimal(0), Decimal(1), 0
        while term > Decimal(10) ** -ctx.prec:  # term = t^j / j!, past its peak at j = t
            if j % 2:
                s += term if j % 4 == 1 else -term
            else:
                c += term if j % 4 == 0 else -term
            j += 1
            term = term * t / j
        t_prev, t_k, u_prev, u = Decimal(1), c, Decimal(0), Decimal(1)  # T_0, T_1, U_-1, U_0
        for _ in range(k - 1):
            t_prev, t_k = t_k, 2 * c * t_k - t_prev
            u_prev, u = u, 2 * c * u - u_prev
        cos_kt, sin_kt = t_k, s * u
        cot, csc_sq = c / s, 1 / (s * s)
        g = k * cos_kt - cot * sin_kt
        g2 = (-k ** 3 * cos_kt - 2 * csc_sq * cot * sin_kt + 2 * k * csc_sq * cos_kt
              + k * k * cot * sin_kt)
        ctx.prec = digits
        return +g, +g2


def chi(f, x: float) -> float:
    """closed_form.chi_eval without its domain check: N_k bracket(2 alpha x)."""
    return f.norm * stable_bracket(f.k, 2.0 * f.alpha * x)


def identity_pairs(which: str, index: int, grid) -> list[tuple[float, float]]:
    """Both sides of one identity family at each t of `grid` (a TGrid), as
    (left, right) pairs: the two rows of closed_form._identity_rows, zipped."""
    return list(zip(*closed_form._identity_rows(which, index, grid)))


def pt_eigen_hypergeom(cfg, p, n: int, amplitude: float, x: float) -> float:
    """Bound state amplitude sin^kappa(alpha x) cos^lam(alpha x)
    2F1(-n, n + kappa + lam; kappa + 1/2; sin^2(alpha x)) of the PT well."""
    h = TerminatingHypergeometric(
        n, Fraction(p.kappa) + Fraction(p.lam) + n, Fraction(p.kappa) + Fraction(1, 2)
    )
    a = cfg.alpha
    s = math.sin(a * x)
    c = math.cos(a * x)
    return amplitude * s**p.kappa * c**p.lam * f21_real(h, s * s)


def integrate(profile, a: float, b: float, order: int, panels: int) -> float:
    """The suite's composite Gauss-Legendre rule applied to `profile`."""
    nodes = verify._nodes(a, b, order, panels)
    return verify._weighted_sum([profile(x) for x in nodes[0]], nodes)


def integrate_product(first, second, a: float, b: float, order: int, panels: int) -> float:
    """The suite's rule applied to first * second in the association of the
    t-rule sums (verify._t_sum): half * sum (w first(x)) second(x)."""
    abscissae, weights, half = verify._nodes(a, b, order, panels)
    return half * math.fsum((w * first(x)) * second(x) for x, w in zip(abscissae, weights))


def sturm_count_decimal(w0: float, rest: list, shift: float, factor: float, mu: float,
                        digits: int = 60) -> int:
    """verify._sturm_count's sweep in `digits`-digit decimal arithmetic: the
    same pivots 1 + u, u_0 = shift + factor (w0 - mu) and u_i = w_i - mu +
    u_{i-1} / (1 + u_{i-1}), on the same float matrix entries and mu, each
    taken exactly, so only the float rounding of the sweep itself is gone.
    The number of pivots with 1 + u <= 0; a zero one continues as the
    package's next float below -1."""
    with localcontext() as ctx:
        ctx.prec = digits
        mu = Decimal(mu)
        u = Decimal(shift) + Decimal(factor) * (Decimal(w0) - mu)
        negatives = 0
        for w in rest:
            if u <= -1:
                negatives += 1
                if u == -1:
                    u = Decimal(verify._ZERO_PIVOT)
            u = Decimal(w) - mu + u / (1 + u)
        return negatives + (u <= -1)


def ascending_rule(a: float, b: float, order: int, panels: int) -> tuple[list, list]:
    """The composite Gauss-Legendre rule with `panels` equal subintervals of
    (a, b) as (abscissae, weights), in ascending order: panel by panel from
    a, each panel's nodes from left to right."""
    rule = gauss_legendre(order)
    h = (b - a) / panels
    half = 0.5 * h
    abscissae = [a + p * h + half + half * node for p in range(panels) for node in rule.nodes]
    return abscissae, list(rule.weights) * panels


def fsum_partials(terms) -> float:
    """The mean number of partials that each of `terms` walks in Shewchuk's
    summation loop as CPython's math.fsum runs it (Shewchuk, Discrete
    Comput. Geom. 18 (1997) 305): the partials are non-overlapping floats
    in increasing magnitude whose exact sum is that of the terms so far,
    and each term is added to every one of them."""
    partials, walked = [], 0
    for x in terms:
        walked += len(partials)
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x] if x else []
    return walked / len(terms)


def json_safe(obj):
    """A CLI payload as json.dumps(..., indent=2, sort_keys=True) must see
    it for the CLI's JSON writer (cli._json_text) to match it byte for byte:
    each non-finite float as its repr string, and each (header, rows) table
    as the list of dict(zip(header, row))."""
    if isinstance(obj, dict):
        return {key: json_safe(val) for key, val in obj.items()}
    if isinstance(obj, tuple):
        header, rows = obj
        return [json_safe(dict(zip(header, row))) for row in rows]
    if isinstance(obj, list):
        return [json_safe(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj
