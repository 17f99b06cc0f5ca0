"""Quantitative verification: quadrature checks of every closed-form integral,
orthonormality, eigen-equation residuals, and an independent finite-difference
spectrum of the partner potential.

Every check returns a CheckResult with the computed value, the closed-form
reference, deviations, and the tolerance it was judged against; the full
suite aggregates them into a VerificationReport without ever aborting on a
single failure.
"""
from __future__ import annotations

import math
import operator
import sys
from array import array
from collections import namedtuple
from contextvars import ContextVar
from functools import lru_cache
from types import MappingProxyType, SimpleNamespace

from . import closed_form
from .closed_form import IDENTITY_FAMILIES, TrigEigenfunction
from .errors import ConvergenceError, EvaluationError, ParameterError
from .hypergeom import midpoint_vanishing
from .models import WellConfig, _require_partner, box_energy
from .numerics import gauss_legendre

__all__ = [
    "CheckResult",
    "VerificationReport",
    "DEFAULT_TOLERANCES",
    "resolve_tolerances",
    "check_trig_norm",
    "check_hypergeom_norm",
    "check_expectation_x",
    "check_first_moment",
    "check_orthonormality",
    "check_residual",
    "check_correspondence",
    "check_identity",
    "INTERIOR_POINTS",
    "fd_spectrum",
    "check_fd_spectrum",
    "run_full_suite",
]

# The default run (levels, quadrature rule, finite-difference grid and modes),
# then fd_spectrum's smallest grid and largest mode count.
N_MAX = 10
QUAD_ORDER = 64
PANELS = 32
GRID_POINTS = 4000
FD_MODES = 3
MIN_GRID_POINTS = 100
MAX_MODES = 10

# Read-only, so that no importer can loosen a default for every caller.
DEFAULT_TOLERANCES = MappingProxyType({
    "quadrature": 1e-10,
    "identity": 1e-9,
    "residual": 1e-8,
    "fd_spectrum": 1e-2,
})


def _tolerance(name: str, value: float | None) -> float:
    """The registry default of `name` if value is None, else value, which must
    be finite and >= 0: no deviation can be judged against NaN, inf or < 0."""
    if value is None:
        return DEFAULT_TOLERANCES[name]
    value = float(value)
    if not (0.0 <= value < math.inf):
        raise ParameterError(f"tolerance {name!r} must be finite and >= 0, got {value}")
    return abs(value)  # -0.0 is reported as 0.0


def resolve_tolerances(overrides: dict | None = None) -> dict:
    """Default tolerance registry with optional per-name overrides.

    Unknown names are rejected so a typo cannot silently loosen a check,
    and every value passes _tolerance's rule.
    """
    merged = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if name not in merged:
            raise ParameterError(f"unknown tolerance {name!r}; known: {sorted(merged)}")
        merged[name] = _tolerance(name, value)
    return merged


CheckResult = namedtuple("CheckResult", "name computed reference abs_dev rel_dev tolerance passed")
VerificationReport = namedtuple("VerificationReport", "checks parameters overall")


def _make_check(name: str, computed: float, reference: float, tolerance: float) -> CheckResult:
    abs_dev = abs(computed - reference)
    rel_dev = abs_dev / abs(reference) if reference != 0.0 else abs_dev
    return CheckResult(
        name=name,
        computed=computed,
        reference=reference,
        abs_dev=abs_dev,
        rel_dev=rel_dev,
        tolerance=tolerance,
        passed=rel_dev <= tolerance,
    )


def _row(family: str, computed: float, reference: float, tol: float, *args) -> CheckResult:
    """The row of suite family `family` (_FAMILIES), named from its check's arguments."""
    return _make_check(_FAMILIES[family].row.format(*args), computed, reference, tol)


def _report(checks: list[CheckResult], parameters: dict) -> VerificationReport:
    return VerificationReport(
        checks=tuple(checks),
        parameters=parameters,
        overall=all(c.passed for c in checks),
    )


@lru_cache(maxsize=1)
def _rule(order: int):
    """The Gauss-Legendre rule on [-1, 1] that every node set of one order maps."""
    return gauss_legendre(order)


@lru_cache(maxsize=8)
def _nodes(a: float, b: float, order: int, panels: int):
    """Abscissae, weights and half panel width of the composite
    Gauss-Legendre rule with `panels` equal subintervals of (a, b).

    The terms run from the middle out: node by node from each panel's
    middle node out to its ends, and for each node panel by panel from the
    middle panel out to the walls.  So the large terms come first and the
    tiny ones at the walls last, and math.fsum, which adds each term to
    every partial it holds (Shewchuk 1997), holds about 4 partials where
    the ascending order held 16.  fsum is correctly rounded and every row
    is computed node by node, so each sum has the same bits in any order
    (fsum's intermediate overflow aside, which these bounded rows never
    reach).  Abscissae and weights are lists, which the loops that read
    them read without boxing each float again; they are shared and must
    not be changed.
    """
    if not (a < b):
        raise ParameterError(f"need a < b, got a={a}, b={b}")
    if panels < 1:
        raise ParameterError(f"panel count must be >= 1, got {panels}")
    nodes, weights = _rule(order)[1:]
    h = (b - a) / panels
    half = 0.5 * h
    mid_nodes = sorted(range(order), key=lambda i: abs(2 * i - order + 1))
    starts = [a + p * h + half
              for p in sorted(range(panels), key=lambda p: abs(2 * p - panels + 1))]
    return ([start + half * nodes[i] for i in mid_nodes for start in starts],
            [weights[i] for i in mid_nodes for _ in starts], half)


def _require_finite(values, abscissae):
    """Abort with the abscissa of the first non-finite value, if any, first
    in the order of the row (for a rule's row, _nodes' order)."""
    if not all(map(math.isfinite, values)):
        x, value = next((x, v) for x, v in zip(abscissae, values) if not math.isfinite(v))
        raise EvaluationError(f"integrand returned {value} at x={x}")


def _checked(sums, values, abscissae) -> tuple:
    """The floats that sums() returns, sums of products of the row `values`
    sampled at `abscissae` with positive weights, checked from the sums: a
    sum is non-finite, or fsum raises (+inf and -inf, or an intermediate
    overflow), exactly when the row holds a non-finite value or its
    products overflow.  Only then is the row scanned (_require_finite), and
    a finite row's own sums or error stand."""
    try:
        results = sums()
    except (ValueError, OverflowError):
        _require_finite(values, abscissae)
        raise
    if not all(map(math.isfinite, results)):
        _require_finite(values, abscissae)
    return results


def _t_sum(nodes, weighted, row) -> float:
    """half sum (w a) b on the rule `nodes` (_nodes), from weighted = w a and
    row = b, in one exactly-rounded sum."""
    return nodes[2] * math.fsum(map(operator.mul, weighted, row))


def _weigh(nodes, row) -> list:
    """The row weighted by the rule `nodes`, w a, as a list: it is transient
    (at most one is held at a time), and multiplying it into another row
    (_t_sum) then boxes only that row's floats."""
    return list(map(operator.mul, nodes[1], row))


def _moment_sums(nodes, row) -> dict:
    """D = half sum (w r) r and M = half sum (w r)(t r) of a row r on the t
    rule `nodes`, both from one weighted row; a non-finite value of r aborts
    with its abscissa, found from the two sums (_checked)."""
    weighted = _weigh(nodes, row)
    d, m = _checked(lambda: (_t_sum(nodes, weighted, row),
                             _t_sum(nodes, weighted, map(operator.mul, nodes[0], row))),
                    row, nodes[0])
    return {"D": d, "M": m}


def _mode_sums(order: int, panels: int, ks) -> dict:
    """{k: (r_k, its D and M)} for each k of `ks`: the partner mode r_k =
    N_k g_k normalized at alpha = 1 (x = t / 2) on the t rule, formed
    (closed_form._bracket) from the rows U'_{k-1} of one U sweep of the
    rule's TGrid to the largest k: summed as the list it is built in, and
    kept as one array('d') copy."""
    nodes = _nodes(0.0, math.pi, order, panels)
    grid, sums = closed_form.TGrid(nodes[0]), {}
    for _, k, slope in grid._rows(slopes=ks):
        row = closed_form._bracket(grid.sin_sq, slope, TrigEigenfunction(k, 1.0).norm)
        sums[k] = array("d", row), _moment_sums(nodes, row)
    return sums


def _level_sums(order: int, panels: int, ns) -> dict:
    """{n: D and M of l_n} for each n of `ns`: the level l_n = sin^2 cos^2(t/2)
    F_n on the t rule, from one level sweep of the rule's TGrid to the
    largest n, each level times the grid's bound_factors; no level row is
    kept."""
    nodes = _nodes(0.0, math.pi, order, panels)
    grid = closed_form.TGrid(nodes[0])
    factor = list(map(operator.mul, *grid.bound_factors))
    return {n: _moment_sums(nodes, list(map(operator.mul, factor, level)))
            for _, n, level in grid._rows(levels=ns)}


def _z_level_sums(order: int, panels: int, ns) -> dict:
    """{n: sum} for each n of `ns`: the z-form rule's sum of its integrand
    weight * F_n^2(z) (check_hypergeom_norm), from one level sweep to the
    largest n at its row 1 - 2z, each summed by _t_sum; a non-finite value
    aborts with its abscissa, found from the sum (_checked)."""
    nodes = _nodes(0.0, 1.0, order, panels)
    xs = [1.0 - 2.0 * (u * u * (3.0 - 2.0 * u)) for u in nodes[0]]
    weights = [6.0 * ((u * (1.0 - u)) ** 4 * ((3.0 - 2.0 * u) * (1.0 + 2.0 * u)) ** 1.5)
               for u in nodes[0]]
    sums = {}
    for n, level in closed_form._level_rows(xs, ns):
        values = [w * f * f for w, f in zip(weights, level)]
        (sums[n],) = _checked(lambda: (_t_sum(nodes, nodes[1], values),), values, nodes[0])
    return sums


# The running suite's tables (_plan) under (builder, *its arguments but the
# indices), which its checks read in place of their own; empty outside a suite.
# The checks' signatures are public, so the suite cannot pass its tables to
# them; a context variable keeps each thread's suite to itself.
_suite = ContextVar("_suite", default={})


def _table(build, order: int, panels: int, indices) -> dict:
    """The running suite's table of `build` at this rule if it holds every
    index, else build(order, panels, indices), which no one keeps."""
    table = _suite.get().get((build, order, panels))
    if table is None or not table.keys() >= set(indices):
        table = build(order, panels, indices)
    return table


def check_trig_norm(
    k: int, *, order: int = QUAD_ORDER, panels: int = PANELS, tolerance: float | None = None
) -> CheckResult:
    """Norm integral of the index-k bracket over (0, pi) against pi/2 (k^2-1),
    D(r_k) / N_k^2 (_mode_sums).

    The integrand is the stable Chebyshev form, identical to the
    cotangent-form integrand away from the removable endpoint singularities.
    """
    tol = _tolerance(_FAMILIES["trig norm"].tolerance, tolerance)
    norm = TrigEigenfunction(k, 1.0).norm
    computed = _table(_mode_sums, order, panels, [k])[k][1]["D"] / (norm * norm)
    return _row("trig norm", computed, 0.5 * math.pi * (k * k - 1), tol, k)


def check_hypergeom_norm(n: int, form: str = "z", *, order: int = QUAD_ORDER,
                         panels: int = PANELS, tolerance: float | None = None) -> CheckResult:
    """Norm integral of the degree-n hypergeometric bound-state factor.

    form="x": integral of sin^4 x cos^4 x F^2(sin^2 x) over (0, pi/2)
    against (pi/4)((n+2)^2 - 1) C_n^2: D(l_n) / 2 in t = 2x (_level_sums).
    form="z": integral of z^{3/2} (1-z)^{3/2} F^2(z) over (0, 1) against
    (pi/2)((n+2)^2 - 1) C_n^2.  The z-form kernel has square-root behaviour
    at both endpoints, which would cap plain panel quadrature near 1e-9
    relative; substituting z = 3u^2 - 2u^3 makes the integrand analytic:

        z^{3/2} (1-z)^{3/2} dz = 6 u^4 (1-u)^4 [(3-2u)(1+2u)]^{3/2} du.
    """
    if form not in ("x", "z"):
        raise ParameterError(f"form must be 'x' or 'z', got {form!r}")
    tol = _tolerance(_FAMILIES["hypergeom norm"].tolerance, tolerance)
    c_n = _c_float(n)
    k = n + 2
    if form == "x":
        computed = _table(_level_sums, order, panels, [n])[n]["D"] / 2.0
    else:
        computed = _table(_z_level_sums, order, panels, [n])[n]
    reference = (0.25 if form == "x" else 0.5) * math.pi * (k * k - 1) * c_n * c_n
    return _row("hypergeom norm", computed, reference, tol, n, form)


def check_expectation_x(k: int, alpha: float = 1.0, *, order: int = QUAD_ORDER,
                        panels: int = PANELS, tolerance: float | None = None) -> CheckResult:
    """Position expectation of the normalized partner mode against
    pi/(4 alpha), M(r_k) / (4 alpha) (_mode_sums).  The value is
    index-independent: every mode is symmetric about the interval midpoint
    up to sign."""
    _require_partner(k)
    WellConfig(alpha)
    tol = _tolerance(_FAMILIES["expectation"].tolerance, tolerance)
    computed = _table(_mode_sums, order, panels, [k])[k][1]["M"] / (4.0 * alpha)
    return _row("expectation", computed, math.pi / (4.0 * alpha), tol, k, alpha)


def check_first_moment(n_or_k: int, form: str = "trig", *, order: int = QUAD_ORDER,
                       panels: int = PANELS, tolerance: float | None = None) -> CheckResult:
    """x-weighted norm integrals.

    form="trig" (index k >= 2): integral of t [bracket_k(t)]^2 over (0, pi)
    against (pi^2/4)(k^2 - 1): M(r_k) / N_k^2 (_mode_sums).
    form="hypergeom" (index n >= 0): integral of
    x sin^4 x cos^4 x F^2(sin^2 x) over (0, pi/2) against
    (pi^2/16)((n+2)^2 - 1) C_n^2: M(l_n) / 4 in t = 2x (_level_sums).
    """
    if form not in ("trig", "hypergeom"):
        raise ParameterError(f"form must be 'trig' or 'hypergeom', got {form!r}")
    family = f"{form} moment"
    tol = _tolerance(_FAMILIES[family].tolerance, tolerance)
    if form == "trig":
        k = n_or_k
        norm = TrigEigenfunction(k, 1.0).norm
        computed = _table(_mode_sums, order, panels, [k])[k][1]["M"] / (norm * norm)
        reference = 0.25 * math.pi * math.pi * (k * k - 1)
    else:
        c_n = _c_float(n_or_k)
        k = n_or_k + 2
        computed = _table(_level_sums, order, panels, [n_or_k])[n_or_k]["M"] / 4.0
        reference = math.pi * math.pi / 16.0 * (k * k - 1) * c_n * c_n
    return _row(family, computed, reference, tol, n_or_k, form)


def check_orthonormality(k_max: int, alpha: float = 1.0, *, order: int = QUAD_ORDER,
                         panels: int = PANELS, tolerance: float | None = None
                         ) -> VerificationReport:
    """Gram matrix of the normalized partner modes k = 2..k_max: entry (i, j)
    is P(r_i, r_j) / 2 and (k, k) is D(r_k) / 2 (_mode_sums), at unit scale, so
    the same bits at every alpha; every pair is summed.  Diagonal entries
    are compared with 1 in relative terms, off-diagonal ones with 0 in
    absolute terms (same tolerance)."""
    if k_max < 2:
        raise ParameterError(f"k_max must be >= 2, got {k_max}")
    WellConfig(alpha)
    tol = _tolerance(_FAMILIES["gram"].tolerance, tolerance)
    modes = _table(_mode_sums, order, panels, range(2, k_max + 1))
    nodes = _nodes(0.0, math.pi, order, panels)
    checks = []
    for i in range(2, k_max + 1):
        row, sums = modes[i]
        weighted = _weigh(nodes, row)
        for j in range(i, k_max + 1):
            pair = sums["D"] if i == j else _t_sum(nodes, weighted, modes[j][0])
            reference = 1.0 if i == j else 0.0
            checks.append(_make_check(f"gram ({i},{j})", pair / 2.0, reference, tol))
    return _report(checks, {"alpha": alpha, "k_max": k_max, "quad_order": order,
                            "panels": panels})


# The interior rows (identities, correspondence, residual) sample t = 2 alpha x
# at INTERIOR_POINTS equal steps on [WALL_MARGIN, pi - WALL_MARGIN], clear of
# the walls, where the residual's partner potential 2 / sin^2(t) is unbounded.
INTERIOR_POINTS = 1000
WALL_MARGIN = 1e-3


def _interior_ts() -> list:
    step = (math.pi - 2.0 * WALL_MARGIN) / (INTERIOR_POINTS - 1)
    return [WALL_MARGIN + i * step for i in range(INTERIOR_POINTS)]


def _interior_rows(levels=(), modes=(), seconds=()) -> closed_form.TGrid:
    """The interior grid holding its level, U'_{k-1} and g'' rows at these
    indices (every mode k reads U'_{k-1})."""
    return closed_form.TGrid(_interior_ts(), levels, modes, seconds)


def _interior_grid() -> closed_form.TGrid:
    """The running suite's interior grid, which holds every row its
    families read, else one holding none, each of whose reads builds its
    own row."""
    return _suite.get().get((_interior_rows,)) or _interior_rows()


def check_residual(k: int, alpha: float = 1.0, *, tolerance: float | None = None) -> CheckResult:
    """Worst eigen-equation residual max |-chi'' + V1 chi - eps_k chi| of the
    partner mode of norm N_k over the interior grid in t, with analytic
    second derivatives (TGrid.second_derivative) and the grid's partner
    potential row (TGrid.potential), over eps_k N_k, which makes it
    independent of alpha.  It runs at unit scale (alpha = 1, x = t / 2
    exactly), so the result is the same bits at every alpha; the caller's
    alpha only names the row.
    """
    _require_partner(k)
    WellConfig(alpha)
    tol = _tolerance(_FAMILIES["residual"].tolerance, tolerance)
    energy = box_energy(WellConfig(1.0), k)
    norm = TrigEigenfunction(k, 1.0).norm
    norm4 = norm * 4.0
    grid = _interior_grid()
    worst = max([
        abs(-(norm4 * g2) + v * (chi := norm * g) - energy * chi)
        for v, g2, g in zip(grid.potential, grid.second_derivative(k), grid.mode(k))
    ])
    return _row("residual", worst / (energy * norm), 0.0, tol, k, alpha)


def check_correspondence(
    n: int, alpha: float = 1.0, *, tolerance: float | None = None
) -> CheckResult:
    """Pointwise correspondence of the level-n bound state of the symmetric
    well, scaled by normalization_A, with the normalized partner mode of
    index n + 2: max |psi - chi| / max |chi| over the interior grid in t.
    Both sides scale alike in alpha, so this runs at unit scale (alpha = 1,
    x = t / 2 exactly) and is the same bits at every alpha."""
    WellConfig(alpha)
    tol = _tolerance(_FAMILIES["correspondence"].tolerance, tolerance)
    psi, chi = _interior_grid().bound_state_pairs(n, 1.0)
    scale = max(map(abs, chi))
    dev = max(map(abs, map(operator.sub, psi, chi))) / scale
    return _row("correspondence", dev, 0.0, tol, n, alpha)


def check_identity(which: str, index: int, *, tolerance: float | None = None) -> CheckResult:
    """One identity family ("base" at level n, "even" or "odd" at family
    index m): the worst deviation between its two sides over the interior
    grid in t, scaled by the largest left-side value.

    The identities are dimensionless, so the grid lives in t = 2 alpha x on
    [1e-3, pi - 1e-3] and the result does not depend on alpha.
    """
    tol = _tolerance(_FAMILIES["identity"].tolerance, tolerance)
    lhs, rhs = closed_form._identity_rows(which, index, _interior_grid())
    scale = max(map(abs, lhs)) or 1.0
    dev = max(map(abs, map(operator.sub, lhs, rhs))) / scale
    return _row("identity", dev, 0.0, tol, which, IDENTITY_FAMILIES[which], index)


def _fd_matrix(grid_points: int) -> tuple[tuple, tuple]:
    """The alpha-free finite-difference matrix of -d^2/dt^2 + 2/sin^2(t) on
    the grid t_i = (i + 1/2) h, h = pi / grid_points, times h^2: tridiag(-1,
    2 + w_i, -1) with w_i = 2 h^2 / sin^2(t_i), as its two blocks under the
    mirror t -> pi - t: the even block, then the odd one (Cantoni & Butler
    1976).  Each is (w0, rest, shift, factor): the w_i from the middle node
    out to the wall at i = 0, and the first pivot's u_0 = shift + factor (w0
    - mu) in the pivots 1 + u of T - mu (_sturm_count).

    On an even grid the blocks share every entry but the first, 2 + w -/+ 1,
    so u_0 is w - mu and 2 + w - mu.  On an odd grid the odd block drops the
    middle node (u_0 = 1 + w - mu), and the even block keeps it with its
    coupling sqrt(2), brought to 1 by dividing the middle row and column by
    sqrt(2): that halves the first pivot, u_0 = (w - mu) / 2, and leaves the
    count of negative pivots unchanged (Sylvester's law of inertia).
    """
    h = math.pi / grid_points
    h2 = h * h
    half, odd = divmod(grid_points, 2)
    sines = map(math.sin, ((i + 0.5) * h for i in range(half - 1 + odd, -1, -1)))
    rest = [2.0 * h2 / (s * s) for s in sines]
    first = rest.pop(0)
    if odd:
        return (first, rest, 0.0, 0.5), (rest[0], rest[1:], 1.0, 1.0)
    return (first, rest, 0.0, 1.0), (first, rest, 2.0, 1.0)


# The u of a zero pivot continues as the next float below -1, so that the pivot
# 1 + u is -2^-52.
_ZERO_PIVOT = -1.0 - 2.0 ** -52


def _sturm_count(w0: float, rest: list, shift: float, factor: float, mu: float) -> int:
    """One Sturm sweep: the number of negative pivots of T - mu, that is of
    eigenvalues of T below mu, for the block (w0, rest, shift, factor) of
    _fd_matrix.  Each pivot is written 1 + u: u_0 = shift + factor (w0 - mu)
    and u_i = w_i - mu + u_{i-1} / (1 + u_{i-1}), so no step subtracts two
    numbers near 2, whose rounding would swamp the small eigenvalues
    (Parlett & Dhillon 2000).  A pivot is negative when 1 + u <= 0; a zero
    one continues as _ZERO_PIVOT."""
    u = shift + factor * (w0 - mu)
    negatives = 0
    for w in rest:
        if u <= -1.0:
            negatives += 1
            if u == -1.0:
                u = _ZERO_PIVOT
        u = w - mu + u / (1.0 + u)
    return negatives + (u <= -1.0)


# The width, relative to its upper end, to which every mode's bracket is
# bisected (_settle), which puts its centre within _HALF_WIDTH / 2 of the
# eigenvalue; a start bracket at most this wide is settled by its two counts.
_HALF_WIDTH = 4.9e-14

# The bisection steps _settle may take: from (0, top] it needs at most 50
# (top / eigenvalue is at most (MAX_MODES + 2)^2 / 4), so more only follow a
# step that does not halve the bracket.
_MAX_STEPS = 200

# The wall layer of the half-offset grid: v = x^2 + _WALL_BETA s solves
# -(v_{i+1} - 2 v_i + v_{i-1}) + 2 v_i / x_i^2 = 0 on x_i = i + 1/2 with
# v_{-1} = 0, where s is the solution that decays like 1/x (a backward
# recurrence gives it); _asymptotic's h^3 coefficient is 4 |beta| / (3 pi).
_WALL_BETA = -0.01865364928352934
_WALL_GAMMA = 4.0 * abs(_WALL_BETA) / (3.0 * math.pi)


def _block_mode(mode: int) -> tuple[int, int]:
    """The block (0 even, 1 odd) holding the matrix's mode-th eigenvalue,
    and its place there: the i-th eigenvector of an unreduced tridiagonal
    matrix changes sign i - 1 times, and a mirror-even one an even number of
    times, so mode i is the ((i + 1) // 2)-th of the even block when i is
    odd and of the odd block when i is even."""
    return 1 - mode % 2, (mode + 1) // 2


def _settle(block: tuple, place: int, lo: float, up: float,
            top: float) -> tuple[float, float]:
    """The block's place-th eigenvalue from the start bracket (lo, up], by
    Sturm counts alone, as the bracket (lo, up) with count(lo) < place <=
    count(up) (Barth, Martin & Wilkinson 1967).

    The start is clamped to [0, top] and kept when its counts hold the
    eigenvalue.  Otherwise (NaN, nothing left between its ends, or either
    count failing) it falls back once to (0, top]: 0 lies below every
    eigenvalue of the positive definite blocks, and the top is counted, so
    a top with only held < place below it raises EvaluationError(held).
    Bisection then narrows the bracket to _HALF_WIDTH of its upper end, so
    its centre is within _HALF_WIDTH / 2 of the eigenvalue, and a start that
    narrow takes only its two counts.  So the start sets only the cost.
    From (0, top] that takes about log2(top / eigenvalue) + 45 steps, and a
    bisection that has not narrowed in fewer than _MAX_STEPS raises
    ConvergenceError.
    """
    lo, up = max(0.0, lo), min(top, up)
    if not (lo < up and _sturm_count(*block, lo) < place <= _sturm_count(*block, up)):
        lo, up = 0.0, top
        if (held := _sturm_count(*block, top)) < place:
            raise EvaluationError(held)
    for _ in range(_MAX_STEPS):
        if up - lo <= _HALF_WIDTH * up:
            return lo, up
        mid = 0.5 * (lo + up)
        if _sturm_count(*block, mid) < place:
            lo = mid
        else:
            up = mid
    raise ConvergenceError(f"the bracket of eigenvalue {place} of its block is ({lo!r}, {up!r}) "
                           f"after {_MAX_STEPS} bisection steps")


def _asymptotic(k: int, h: float) -> float:
    """The grid eigenvalue of the continuum mode k^2 (k >= 2) in units of
    h^2, to O(h^4):

        k^2 - (h^2 / 12) k (15 k^3 - 24 k^2 + 16) / 15 + gamma h^3 k^2 (k^2 - 1).

    The h^2 term is -(h^2 / 12) int (g_k'')^2 / int g_k^2 for the partner
    mode g_k = k cos(kt) - cot(t) sin(kt), the correction of Paine, de Hoog &
    Anderssen (1981) for a regular potential.  The h^3 term is the wall
    layer of the half-offset grid: near each wall g_k is c t^2, c = -(k^3 -
    k) / 3, and the grid's solution there is c h^2 (x^2 + beta s) at t = x h
    (_WALL_BETA).  Its 1/t tail c beta h^3 / t raises the eigenvalue by
    3 c^2 |beta| h^3 / int g_k^2 at each wall, 3 the Wronskian of t^2 and
    1/t, and int g_k^2 = (pi / 2)(k^2 - 1): over both walls, gamma =
    4 |beta| / (3 pi).
    """
    h2, k2 = h * h, k * k
    return h2 * (k2 - h2 * (k * (15 * k2 * k - 24 * k2 + 16)) / 180.0
                 + _WALL_GAMMA * h2 * h * (k2 * (k2 - 1)))


def _sturm_grid(grid_points: int, count: int, top: float) -> tuple[float, list]:
    """The grid's Sturm work for the lowest `count` modes: h^2 and each
    mode's bracket (lo, up), in units of h^2 (_fd_matrix).

    Each mode i (from 1), k = i + 1, is _settle's from one start bracket,
    inside [0, top] (top h^2 here), about its _asymptotic value mu.  On 13
    grids of 100-20,000 points the eigenvalue lay above mu by 0.20-0.73 of r
    = (k h)^4 / 360, so the start is centred on mu (1 + r / 2) and w =
    max(_HALF_WIDTH, r) / 2 - 2^-51 wide on each side.  Where r is at most
    _HALF_WIDTH, it already meets _settle's stop (the 2^-51 absorbs the
    roundings of its ends), and its two counts settle it; elsewhere it is
    the one-sided (mu, mu (1 + r)], to a rounding.
    """
    h = math.pi / grid_points
    h2 = h ** 2
    blocks = _fd_matrix(grid_points)
    modes = []
    for mode in range(1, count + 1):
        block, place = _block_mode(mode)
        k = mode + 1
        mu, r = _asymptotic(k, h), (k * h) ** 4 / 360.0
        w = max(_HALF_WIDTH, r) / 2.0 - 2.0 ** -51
        try:
            modes.append(_settle(blocks[block], place, mu * (1.0 + r / 2.0 - w),
                                 mu * (1.0 + r / 2.0 + w), top * h2))
        except EvaluationError as short:
            raise EvaluationError(f"block {block} of the {grid_points}-point grid holds "
                                  f"{short.args[0]} of its {(count + 1 - block) // 2} modes "
                                  f"below the top {top}") from None
    return h2, modes


def _require_grid(grid_points: int) -> None:
    if grid_points < MIN_GRID_POINTS:
        raise ParameterError(f"need at least {MIN_GRID_POINTS} grid points, got {grid_points}")


def fd_spectrum(alpha: float, grid_points: int, count: int) -> list[float]:
    """Lowest `count` eigenvalues of -d^2/dx^2 + 8 alpha^2 / sin^2(2 alpha x)
    on (0, pi/(2 alpha)): 4 alpha^2 times those of the alpha-free
    discretization of -d^2/dt^2 + 2/sin^2(t) on (0, pi), t = 2 alpha x.

    The uniform grid (t_i = (i + 1/2) pi / grid_points) is offset half a
    step from both walls so the singular potential is finite at every node.
    The matrix is scaled by h^2, and grid and potential are mirror-symmetric
    about t = pi/2, so it splits into a mirror-even and a mirror-odd block
    of half its size (_fd_matrix), each mode in one of them (_block_mode).
    Each pivot of a Sturm sweep is written 1 + u with no cancellation
    (_sturm_count), so the low modes keep their relative accuracy on every
    grid: the ground mode's error falls fourfold per grid doubling up to the
    100,000-point cap, where it is -1.1e-10.

    Every mode is certified by Sturm counts alone, which prove that a
    bracket (lo, up] holds exactly that mode (Barth, Martin & Wilkinson
    1967).  Each mode i (from 0), k = i + 2, starts at mu, the grid
    eigenvalue's three-term expansion in h (_asymptotic) about its continuum
    one, k^2, at most 2.7e-5 below the grid's (mode 9 at 100 points).  It is
    bisected by counts from one start bracket (_sturm_grid), centred on
    mu (1 + r / 2), r = (k h)^4 / 360, and max(4.9e-14, r) wide less a
    rounding, to a width of 4.9e-14 of its upper end, and the result is its
    centre, within 2.45e-14 of the eigenvalue, relative (_settle).  Where r
    is at most 4.9e-14 the start is that narrow already, and its two counts
    settle the mode.  At 40,000 points and 10 modes that is 20 counts of 20,000 rows;
    at 4,000 points and 3 modes, 10 counts of 2,000 rows.

    An alpha whose 4 alpha^2 is not a positive normal float is rejected: an
    underflowed scale would return zeros that match underflowed exact
    energies.  So is one whose 4 alpha^2 times the bracket top (count + 2)^2
    overflows, since every eigenvalue lies below it.
    """
    scale = box_energy(WellConfig(alpha), 1)
    if not (sys.float_info.min <= scale < math.inf):
        raise ParameterError(f"4 alpha^2 = {scale} is not a normal float at alpha = {alpha}")
    _require_grid(grid_points)
    if count < 0 or count > MAX_MODES:
        raise ParameterError(f"count must be between 0 and {MAX_MODES}, got {count}")
    if count == 0:
        return []
    top = float((count + 2) ** 2)
    if not math.isfinite(scale * top):  # checked before any sweep
        raise ParameterError(f"4 alpha^2 = {scale} times the bracket top {top} overflows")
    h2, modes = _sturm_grid(grid_points, count, top)
    return [scale * (0.5 * (lo + up) / h2) for lo, up in modes]


def check_fd_spectrum(
    alpha: float, grid_points: int, count: int, *, tolerance: float | None = None
) -> VerificationReport:
    """The lowest `count` finite-difference eigenvalues (fd_spectrum), row
    "fd mode i" against the exact partner energy 4 alpha^2 (i + 2)^2."""
    tol = _tolerance(_FAMILIES["fd"].tolerance, tolerance)
    modes = fd_spectrum(alpha, grid_points, count)
    cfg = WellConfig(alpha)
    checks = [
        _make_check(f"fd mode {i}", lam, box_energy(cfg, i + 2), tol)
        for i, lam in enumerate(modes)
    ]
    return _report(
        checks, {"alpha": alpha, "grid_points": grid_points, "count": count}
    )


# The exact coefficient table's first values as (numerator, denominator),
# frozen by hand reduction.
_FROZEN_C = {0: (-1, 8), 1: (-1, 32), 2: (-1, 80)}


def _c_float(n: int) -> float:
    """C_n rounded once from its exact pair, as float(coefficient_C(n))."""
    num, den = closed_form._coefficient(n)
    return num / den


def _check_coefficient(n: int) -> CheckResult:
    num, den = _FROZEN_C[n]
    return _row("coefficient", _c_float(n), num / den, 0.0, n)


def _check_midpoint_vanishing(m: int) -> CheckResult:
    first, second = midpoint_vanishing(m)
    ok = first and (second is None or second)
    return _row("midpoint", 0.0 if ok else 1.0, 0.0, 0.0, m)


# The full suite's row families in report order: each row's name format over
# its check's arguments (the Gram matrix's and fd spectrum's: of the one row an
# error leaves), the tolerance key (None: exact, at 0), the checks' arguments
# at a run's parameters, and the call of a check with the run's quadrature rule
# and resolved tolerance.  A call looks its check up by name when it runs, so
# a check replaced on this module (traced or patched) is the one that runs.
_Family = namedtuple("_Family", "row tolerance indices check")
_FAMILIES = {
    "coefficient": _Family(
        "coefficient C_{}", None, lambda run: [(n,) for n in _FROZEN_C],
        lambda rule, tol, n: _check_coefficient(n)),
    "midpoint": _Family(
        "midpoint vanishing m={}", None, lambda run: [(m,) for m in range(26)],
        lambda rule, tol, m: _check_midpoint_vanishing(m)),
    "trig norm": _Family(
        "trig norm k={}", "quadrature", lambda run: [(k,) for k in range(2, run.n_max + 3)],
        lambda rule, tol, *args: check_trig_norm(*args, **rule, tolerance=tol)),
    "hypergeom norm": _Family(
        "hypergeom norm ({1}-form) n={0}", "quadrature",
        lambda run: [(n, form) for n in range(run.n_max + 1) for form in ("x", "z")],
        lambda rule, tol, *args: check_hypergeom_norm(*args, **rule, tolerance=tol)),
    "expectation": _Family(
        "expectation <x> k={} alpha={}", "quadrature",
        lambda run: [(k, run.alpha) for k in range(2, max(2, run.n_max) + 1)],
        lambda rule, tol, *args: check_expectation_x(*args, **rule, tolerance=tol)),
    "trig moment": _Family(
        "first moment (trig) k={}", "quadrature",
        lambda run: [(k, "trig") for k in range(2, max(2, run.n_max) + 1)],
        lambda rule, tol, *args: check_first_moment(*args, **rule, tolerance=tol)),
    "hypergeom moment": _Family(
        "first moment (hypergeom) n={}", "quadrature",
        lambda run: [(n, "hypergeom") for n in range(run.n_max + 1)],
        lambda rule, tol, *args: check_first_moment(*args, **rule, tolerance=tol)),
    "gram": _Family(
        "gram matrix", "quadrature", lambda run: [(max(2, run.n_max), run.alpha)],
        lambda rule, tol, *args: check_orthonormality(*args, **rule, tolerance=tol)),
    "residual": _Family(
        "residual (partner) k={} alpha={}", "residual",
        lambda run: [(k, run.alpha) for k in range(2, max(2, run.n_max) + 1)],
        lambda rule, tol, *args: check_residual(*args, tolerance=tol)),
    "correspondence": _Family(
        "bound-state correspondence n={}", "identity",
        lambda run: [(n, run.alpha) for n in range(run.n_max + 1)],
        lambda rule, tol, *args: check_correspondence(*args, tolerance=tol)),
    # (which, its IdentityFamily, index): the level-indexed rows first, then
    # the others interleaved by index
    "identity": _Family(
        "identity ({1.label}) {1.letter}={2}", "identity",
        lambda run: sorted(((which, family, i) for which, family in IDENTITY_FAMILIES.items()
                            for i in range(family.top(run.n_max) + 1)),
                           key=lambda args: (args[1].letter != "n", args[2])),
        lambda rule, tol, which, _, i: check_identity(which, i, tolerance=tol)),
    "fd": _Family(
        "fd spectrum", "fd_spectrum", lambda run: [(run.alpha, run.grid_points, FD_MODES)],
        lambda rule, tol, *args: check_fd_spectrum(*args, tolerance=tol)),
}


def _plan(run) -> dict:
    """The suite's tables (_suite), each built once, to exactly the indices
    that its families read at the run (_FAMILIES' indices).  A build that
    raises keeps nothing: each row that reads it builds its own and raises
    its check's error."""
    reads = {name: family.indices(run) for name, family in _FAMILIES.items()}
    norms, rule = reads["hypergeom norm"], (run.quad_order, run.panels)
    modes = {args[0] for name in ("trig norm", "expectation", "trig moment")
             for args in reads[name]} | set(range(2, reads["gram"][0][0] + 1))
    levels = {n for n, form in norms if form == "x"} | {n for n, _ in reads["hypergeom moment"]}
    grid_levels = ({n for n, _ in reads["correspondence"]}
                   | {family.level(i) for _, family, i in reads["identity"]})
    seconds = {k for k, _ in reads["residual"]}
    builds = {(_mode_sums, *rule): (modes,), (_level_sums, *rule): (levels,),
              (_z_level_sums, *rule): ([n for n, form in norms if form == "z"],),
              (_interior_rows,): (grid_levels, seconds | {n + 2 for n in grid_levels}, seconds)}
    tables = {}
    for key, indices in builds.items():
        try:
            tables[key] = key[0](*key[1:], *indices)
        except Exception:  # noqa: BLE001 - its readers raise the error in their rows
            continue
    return tables


def run_full_suite(
    alpha: float = 1.0,
    n_max: int = N_MAX,
    quad_order: int = QUAD_ORDER,
    panels: int = PANELS,
    tolerances: dict | None = None,
    *,
    grid_points: int = GRID_POINTS,
) -> VerificationReport:
    """Run every family of _FAMILIES, in its order, over its rows at n_max,
    and aggregate one report.  A parameter that no row could use raises
    ParameterError before any row runs or any table is built; then each
    table is built once (_plan), the families read it, and it is freed when
    the suite returns.  A check that raises is recorded as one failed row at
    its family's tolerance, and the suite never aborts.
    """
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    WellConfig(alpha)
    _nodes(0.0, math.pi, quad_order, panels)  # the t rule every quadrature family reads
    _require_grid(grid_points)
    tols = resolve_tolerances(tolerances)
    parameters = {"alpha": alpha, "n_max": n_max, "quad_order": quad_order,
                  "panels": panels, "grid_points": grid_points}
    run, rule = SimpleNamespace(**parameters), {"order": quad_order, "panels": panels}
    checks: list[CheckResult] = []
    token = _suite.set(_plan(run))
    try:
        for family in _FAMILIES.values():
            tol = 0.0 if family.tolerance is None else tols[family.tolerance]
            for args in family.indices(run):
                try:
                    result = family.check(rule, tol, *args)
                except Exception as exc:  # noqa: BLE001 - aggregation must not abort
                    name = f"{family.row.format(*args)} [error: {type(exc).__name__}: {exc}]"
                    checks.append(CheckResult(name, math.nan, math.nan, math.inf, math.inf,
                                              tol, False))
                    continue
                checks.extend(result.checks if isinstance(result, VerificationReport)
                              else (result,))
    finally:
        _suite.reset(token)
    return _report(checks, parameters)
