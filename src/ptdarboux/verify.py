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
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from types import MappingProxyType

from . import closed_form
from .closed_form import IDENTITY_FAMILIES, WALL_MARGIN, TrigEigenfunction
from .errors import EvaluationError, ParameterError
from .hypergeom import LevelTable, midpoint_vanishing
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
    return value


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


class CheckResult(namedtuple("CheckResult",
                             "name computed reference abs_dev rel_dev tolerance passed")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


class VerificationReport(namedtuple("VerificationReport", "checks parameters overall")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "parameters": dict(self.parameters),
            "overall": self.overall,
            "checks": [c.to_dict() for c in self.checks],
        }


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


def _report(checks: list[CheckResult], parameters: dict) -> VerificationReport:
    return VerificationReport(
        checks=tuple(checks),
        parameters=parameters,
        overall=all(c.passed for c in checks),
    )


@lru_cache(maxsize=8)
def _nodes(a: float, b: float, order: int, panels: int):
    """Abscissae, weights and half panel width of the composite
    Gauss-Legendre rule with `panels` equal subintervals of (a, b)."""
    if not (a < b):
        raise ParameterError(f"need a < b, got a={a}, b={b}")
    if panels < 1:
        raise ParameterError(f"panel count must be >= 1, got {panels}")
    rule = gauss_legendre(order)
    h = (b - a) / panels
    half = 0.5 * h
    abscissae = [a + p * h + half + half * node for p in range(panels) for node in rule.nodes]
    return array("d", abscissae), array("d", rule.weights * panels), half


def _require_finite(values, abscissae) -> None:
    """Abort with the abscissa of the first non-finite value, if any."""
    if not all(map(math.isfinite, values)):
        x, value = next((x, v) for x, v in zip(abscissae, values) if not math.isfinite(v))
        raise EvaluationError(f"integrand returned {value} at x={x}")


def _weighted_sum(values, nodes) -> float:
    """The rule `nodes` (_nodes) applied to `values` sampled at its abscissae,
    in one exactly-rounded sum; a non-finite value aborts with its abscissa."""
    abscissae, weights, half = nodes
    _require_finite(values, abscissae)
    return half * math.fsum(map(operator.mul, weights, values))


@lru_cache(maxsize=1)
def _quad_grid(order: int, panels: int):
    """The rule on t in (0, pi), its TGrid and the x-form weight row
    (sin x cos x)^4 at x = t / 2 (check_hypergeom_norm)."""
    nodes = _nodes(0.0, math.pi, order, panels)
    weights = [(math.sin(0.5 * t) * math.cos(0.5 * t)) ** 4 for t in nodes[0]]
    return nodes, closed_form.TGrid(nodes[0]), array("d", weights)


@lru_cache(maxsize=1)
def _level_table(order: int, panels: int):
    """The z-form rule (check_hypergeom_norm), the weight row of its
    integrand weight * F^2(z) and the level table at its z row."""
    nodes = _nodes(0.0, 1.0, order, panels)
    zs = [u * u * (3.0 - 2.0 * u) for u in nodes[0]]
    weights = [6.0 * ((u * (1.0 - u)) ** 4 * ((3.0 - 2.0 * u) * (1.0 + 2.0 * u)) ** 1.5)
               for u in nodes[0]]
    return nodes, array("d", weights), LevelTable(zs)


def _level_sum(n: int, form: str, order: int, panels: int, moment: bool = False) -> float:
    """One form's rule applied to weight * F_n^2 or (x form) x * weight * F_n^2.
    The x form sums over the t nodes at x = t / 2 with half the t rule's
    half-width: both halvings are exact, so this is the (0, pi/2) rule."""
    if form == "x":
        (ts, quad_weights, half), grid, weights = _quad_grid(order, panels)
        nodes, levels = (ts, quad_weights, 0.5 * half), grid.level(n)
        if moment:
            weights = ((0.5 * t) * w for t, w in zip(ts, weights))
    else:
        nodes, weights, table = _level_table(order, panels)
        levels = table.level(n)
    return _weighted_sum([w * f * f for w, f in zip(weights, levels)], nodes)


def check_trig_norm(
    k: int, *, order: int = QUAD_ORDER, panels: int = PANELS, tolerance: float | None = None
) -> CheckResult:
    """Norm integral of the index-k bracket over (0, pi) against pi/2 (k^2-1).

    The integrand is the stable Chebyshev form, identical to the
    cotangent-form integrand away from the removable endpoint singularities.
    """
    _require_partner(k)
    tol = _tolerance("quadrature", tolerance)
    nodes, grid, _ = _quad_grid(order, panels)
    computed = _weighted_sum([g * g for g in grid.mode(k)], nodes)
    reference = 0.5 * math.pi * (k * k - 1)
    return _make_check(f"trig norm k={k}", computed, reference, tol)


def check_hypergeom_norm(
    n: int,
    form: str = "z",
    *,
    order: int = QUAD_ORDER,
    panels: int = PANELS,
    tolerance: float | None = None,
) -> CheckResult:
    """Norm integral of the degree-n hypergeometric bound-state factor.

    form="x": integral of sin^4 x cos^4 x F^2(sin^2 x) over (0, pi/2)
    against (pi/4)((n+2)^2 - 1) C_n^2.
    form="z": integral of z^{3/2} (1-z)^{3/2} F^2(z) over (0, 1) against
    (pi/2)((n+2)^2 - 1) C_n^2.  The z-form kernel has square-root behaviour
    at both endpoints, which would cap plain panel quadrature near 1e-9
    relative; substituting z = 3u^2 - 2u^3 makes the integrand analytic:

        z^{3/2} (1-z)^{3/2} dz = 6 u^4 (1-u)^4 [(3-2u)(1+2u)]^{3/2} du.
    """
    if form not in ("x", "z"):
        raise ParameterError(f"form must be 'x' or 'z', got {form!r}")
    tol = _tolerance("quadrature", tolerance)
    c_n = float(closed_form.coefficient_C(n))
    k = n + 2
    computed = _level_sum(n, form, order, panels)
    reference = (0.25 if form == "x" else 0.5) * math.pi * (k * k - 1) * c_n * c_n
    return _make_check(f"hypergeom norm ({form}-form) n={n}", computed, reference, tol)


def check_expectation_x(
    k: int,
    alpha: float = 1.0,
    *,
    order: int = QUAD_ORDER,
    panels: int = PANELS,
    tolerance: float | None = None,
) -> CheckResult:
    """Position expectation of the normalized partner mode against pi/(4 alpha).

    The value is index-independent: every mode is symmetric about the
    interval midpoint up to sign.  The sum runs in t at unit scale
    (alpha = 1, x = t / 2) and is then divided by alpha.
    """
    _require_partner(k)
    WellConfig(alpha)
    tol = _tolerance("quadrature", tolerance)
    norm = TrigEigenfunction(k, 1.0).norm
    nodes, grid, _ = _quad_grid(order, panels)
    values = [(t / 2.0) * (norm * g) * (norm * g) for t, g in zip(nodes[0], grid.mode(k))]
    computed = _weighted_sum(values, nodes) / 2.0 / alpha
    reference = math.pi / (4.0 * alpha)
    return _make_check(f"expectation <x> k={k} alpha={alpha}", computed, reference, tol)


def check_first_moment(
    n_or_k: int,
    form: str = "trig",
    *,
    order: int = QUAD_ORDER,
    panels: int = PANELS,
    tolerance: float | None = None,
) -> CheckResult:
    """x-weighted norm integrals.

    form="trig" (index k >= 2): integral of t [bracket_k(t)]^2 over (0, pi)
    against (pi^2/4)(k^2 - 1).
    form="hypergeom" (index n >= 0): integral of
    x sin^4 x cos^4 x F^2(sin^2 x) over (0, pi/2) against
    (pi^2/16)((n+2)^2 - 1) C_n^2.
    """
    tol = _tolerance("quadrature", tolerance)
    if form == "trig":
        k = n_or_k
        _require_partner(k)
        nodes, grid, _ = _quad_grid(order, panels)
        computed = _weighted_sum([t * (g * g) for t, g in zip(nodes[0], grid.mode(k))], nodes)
        reference = 0.25 * math.pi * math.pi * (k * k - 1)
        return _make_check(f"first moment (trig) k={k}", computed, reference, tol)
    if form == "hypergeom":
        n = n_or_k
        c_n = float(closed_form.coefficient_C(n))
        k = n + 2
        computed = _level_sum(n, "x", order, panels, moment=True)
        reference = math.pi * math.pi / 16.0 * (k * k - 1) * c_n * c_n
        return _make_check(f"first moment (hypergeom) n={n}", computed, reference, tol)
    raise ParameterError(f"form must be 'trig' or 'hypergeom', got {form!r}")


def check_orthonormality(
    k_max: int,
    alpha: float = 1.0,
    *,
    order: int = QUAD_ORDER,
    panels: int = PANELS,
    tolerance: float | None = None,
) -> VerificationReport:
    """Gram matrix of the normalized partner modes k = 2..k_max.

    An entry is one weighted sum in t over two mode rows normalized at unit
    scale (alpha = 1, x = t / 2), divided by 2; the matrix is dimensionless,
    so it is the same bits at every alpha.  Diagonal entries are compared
    with 1 in relative terms; off-diagonal entries with 0 in absolute terms
    (same tolerance).  Each normalized row is checked for non-finite values
    once: |N_k g| <= 2 k N_k < 2.7, so products of finite rows are finite,
    and a non-finite product would make fsum return one or raise.
    """
    if k_max < 2:
        raise ParameterError(f"k_max must be >= 2, got {k_max}")
    WellConfig(alpha)
    tol = _tolerance("quadrature", tolerance)
    (abscissae, weights, half), grid, _ = _quad_grid(order, panels)
    rows = {}
    for k in range(2, k_max + 1):
        norm = TrigEigenfunction(k, 1.0).norm
        rows[k] = array("d", [norm * g for g in grid.mode(k)])
        _require_finite(rows[k], abscissae)
    checks = []
    for i in range(2, k_max + 1):
        for j in range(i, k_max + 1):
            products = map(operator.mul, rows[i], rows[j])
            computed = half * math.fsum(map(operator.mul, weights, products)) / 2.0
            reference = 1.0 if i == j else 0.0
            checks.append(_make_check(f"gram ({i},{j})", computed, reference, tol))
    return _report(
        checks,
        {"alpha": alpha, "k_max": k_max, "quad_order": order, "panels": panels},
    )


# The interior rows (identities, correspondence, residual) sample t = 2 alpha x
# at INTERIOR_POINTS equal steps on [WALL_MARGIN, pi - WALL_MARGIN], clear of
# the walls, where the identities divide by sin^2(t).
INTERIOR_POINTS = 1000


@lru_cache(maxsize=1)
def _interior_grid():
    """The one interior grid in t, with the rows its readers share
    (closed_form.TGrid)."""
    step = (math.pi - 2.0 * WALL_MARGIN) / (INTERIOR_POINTS - 1)
    return closed_form.TGrid([WALL_MARGIN + i * step for i in range(INTERIOR_POINTS)])


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
    tol = _tolerance("residual", tolerance)
    energy = box_energy(WellConfig(1.0), k)
    norm = TrigEigenfunction(k, 1.0).norm
    grid = _interior_grid()
    worst = max(
        abs(-(norm * 4.0 * g2) + v * (norm * g) - energy * (norm * g))
        for v, g, g2 in zip(grid.potential, grid.mode(k), grid.second_derivative(k))
    )
    return _make_check(
        f"residual (partner) k={k} alpha={alpha}", worst / (energy * norm), 0.0, tol
    )


def check_correspondence(
    n: int, alpha: float = 1.0, *, tolerance: float | None = None
) -> CheckResult:
    """Pointwise correspondence of the level-n bound state of the symmetric
    well, scaled by normalization_A, with the normalized partner mode of
    index n + 2: max |psi - chi| / max |chi| over the interior grid in t.
    Both sides scale alike in alpha, so this runs at unit scale (alpha = 1,
    x = t / 2 exactly) and is the same bits at every alpha."""
    WellConfig(alpha)
    tol = _tolerance("identity", tolerance)
    psi, chi = _interior_grid().bound_state_pairs(n, 1.0)
    scale = max(map(abs, chi))
    dev = max(map(abs, map(operator.sub, psi, chi))) / scale
    return _make_check(f"bound-state correspondence n={n}", dev, 0.0, tol)


def _identity_name(which: str, index: int) -> str:
    family = IDENTITY_FAMILIES[which]
    return f"identity ({family.label}) {family.letter}={index}"


def check_identity(which: str, index: int, *, tolerance: float | None = None) -> CheckResult:
    """One identity family ("base" at level n, "even" or "odd" at family
    index m): the worst deviation between its two sides over the interior
    grid in t, scaled by the largest left-side value.

    The identities are dimensionless, so the grid lives in t = 2 alpha x on
    [1e-3, pi - 1e-3] and the result does not depend on alpha.
    """
    tol = _tolerance("identity", tolerance)
    pairs = closed_form.identity_pairs(which, index, _interior_grid())
    scale = max(abs(lhs) for lhs, _ in pairs) or 1.0
    dev = max(abs(lhs - rhs) for lhs, rhs in pairs) / scale
    return _make_check(_identity_name(which, index), dev, 0.0, tol)


def _fd_matrix(grid_points: int) -> tuple[float, list, float]:
    """The alpha-free finite-difference matrix of -d^2/dt^2 + 2/sin^2(t) on
    the grid t_i = (i + 1/2) h, h = pi / grid_points: its first diagonal
    entry, the other diagonal entries, and the squared off-diagonal 1/h^4."""
    h = math.pi / grid_points
    inv_h2 = 1.0 / (h * h)

    def diagonal(i: int) -> float:
        s = math.sin((i + 0.5) * h)
        return 2.0 * inv_h2 + 2.0 / (s * s)

    return diagonal(0), [diagonal(i) for i in range(1, grid_points)], inv_h2 * inv_h2


def _sturm_count(d0: float, rest: list, off_sq: float, lam: float) -> int:
    """One Sturm sweep: the number of negative pivots of T - lam, that is of
    eigenvalues of T below lam, for the symmetric tridiagonal T with diagonal
    (d0, *rest) and every squared off-diagonal equal to off_sq.  A zero pivot
    counts as negative and continues as -1e-300."""
    q = d0 - lam
    negatives = 0
    if q <= 0.0:
        negatives = 1
        q = q or -1e-300
    for d in rest:
        q = d - lam - off_sq / q
        if q <= 0.0:
            negatives += 1
            q = q or -1e-300
    return negatives


def _sturm_newton(d0: float, rest: list, off_sq: float, lam: float) -> tuple[int, float]:
    """_sturm_count's sweep, pivot for pivot, returning with the count the
    log-derivative d/dlam ln|det(T - lam)| = sum q_i'/q_i, where the pivots'
    derivatives follow q_i' = -1 + (off_sq / q_{i-1}) q_{i-1}'/q_{i-1}."""
    q = d0 - lam
    negatives = 0
    if q <= 0.0:
        negatives = 1
        q = q or -1e-300
    ratio = -1.0 / q
    log_det = ratio
    for d in rest:
        r = off_sq / q
        q = d - lam - r
        if q <= 0.0:
            negatives += 1
            q = q or -1e-300
        ratio = (r * ratio - 1.0) / q
        log_det += ratio
    return negatives, log_det


# Newton sweeps the pre-pass spends on one mode at most, and the bracket
# width, relative to its upper end, at which a mode's bisection stops.
_NEWTON_SWEEPS = 8
_STOP_WIDTH = 1e-10


def _bisect(hi: float, at_least) -> tuple[float, float]:
    """The bracket every mode's bisection ends in: from [0, hi], halve at
    the midpoint, keeping the upper half when at_least(mid), until the width
    is at most _STOP_WIDTH of the upper end."""
    lo, up = 0.0, hi
    while up - lo > _STOP_WIDTH * up:
        mid = 0.5 * (lo + up)
        if at_least(mid):
            up = mid
        else:
            lo = mid
    return lo, up


class _SturmRecord:
    """Every Sturm count swept for one matrix, as sorted (lam, count) pairs,
    answering the bisection's comparison count(lam) >= mode.

    The count this recurrence computes is non-decreasing in lam under IEEE
    arithmetic (Kahan 1966; Demmel, Dhillon & Ren 1995), so a recorded lam_a
    <= lam with count(lam_a) >= mode decides the comparison True, and a
    recorded lam_b >= lam with count(lam_b) < mode decides it False; only an
    undecided comparison costs a sweep.  The pre-pass adds counts near each
    mode's flip so that its bisection is decided almost entirely from here.
    """

    def __init__(self, matrix: tuple[float, list, float]):
        self.matrix = matrix  # _fd_matrix's (d0, rest, off_sq)
        self.lams: list[float] = []
        self.counts: list[int] = []

    def _insert(self, lam: float, count: int) -> None:
        i = bisect_left(self.lams, lam)
        self.lams.insert(i, lam)
        self.counts.insert(i, count)

    def count(self, lam: float) -> int:
        count = _sturm_count(*self.matrix, lam)
        self._insert(lam, count)
        return count

    def at_least(self, lam: float, mode: int) -> bool:
        i = bisect_left(self.counts, mode)
        if i and lam <= self.lams[i - 1]:
            return False
        if i < len(self.lams) and lam >= self.lams[i]:
            return True
        return self.count(lam) >= mode

    def prepass(self, mode: int, hi: float) -> None:
        """Isolate the mode-th flip between recorded counts mode - 1 and mode
        by bisection, refine it by Newton on ln|det(T - lam)|, and sweep the
        two ends of the bracket the bisection would end in were the flip at
        Newton's estimate.  Only adds counts: no estimate enters a result.

        A far Newton step (over 1e-6 relative) that leaves the isolating
        bracket is replaced by the bracket's midpoint.  A near one that
        leaves it or fails to halve has met the rounding floor of the
        counts: the pre-pass ends there, and the bisection sweeps the rest.
        """
        while True:
            i = bisect_left(self.counts, mode)
            a, below = (self.lams[i - 1], self.counts[i - 1]) if i else (0.0, 0)
            b = self.lams[i]
            if below == mode - 1 and self.counts[i] == mode:
                break
            if b - a <= _STOP_WIDTH * b:
                return
            self.count(0.5 * (a + b))
        lam, last = 0.5 * (a + b), math.inf
        for _ in range(_NEWTON_SWEEPS):
            count, log_det = _sturm_newton(*self.matrix, lam)
            self._insert(lam, count)
            if count < mode:
                a = lam
            else:
                b = lam
            step = 1.0 / log_det if log_det else math.inf
            inside = a < lam - step < b
            if abs(step) > 1e-6 * lam:
                if not inside:
                    lam, last = 0.5 * (a + b), math.inf
                    continue
            elif not inside or abs(step) > 0.5 * last:
                return
            lam -= step
            if abs(step) <= 1e-11 * lam:
                break
            last = abs(step)
        else:
            return
        lo, up = _bisect(hi, lambda mid: mid >= lam)
        self.at_least(lo, mode)
        self.at_least(up, mode)


def fd_spectrum(alpha: float, grid_points: int, count: int) -> list[float]:
    """Lowest `count` eigenvalues of -d^2/dx^2 + 8 alpha^2 / sin^2(2 alpha x)
    on (0, pi/(2 alpha)): 4 alpha^2 times those of the alpha-free
    discretization of -d^2/dt^2 + 2/sin^2(t) on (0, pi), t = 2 alpha x.

    The uniform grid (t_i = (i + 1/2) pi / grid_points) is offset half a
    step from both walls so the singular potential is finite at every node.
    Each mode is found by bisection on the Sturm count of the shifted matrix
    (Barth, Martin & Wilkinson 1967), which is immune to the misconvergence
    an iterative solver could suffer: from [0, hi], halve until the width is
    1e-10 of the upper end, and return the midpoint.  The bisection locates
    where the floating-point count flips.  At 4000 points and more, the low
    modes' flip sits at the rounding floor of the diagonal 2/h^2, about
    1.5e-8 of the ground mode at 40,000 points, so it is not the discrete
    eigenvalue to 1e-10.

    The comparisons are answered by a _SturmRecord shared by all modes: one
    sweep per comparison that no recorded count decides, after a pre-pass
    per mode (bisection to isolate the mode, then Newton on
    d/dlam ln|det(T - lam)|) that only adds counts.  The comparisons and so
    the results are those of sweeping at every midpoint, bit for bit.

    An alpha whose 4 alpha^2 is not a positive normal float is rejected: an
    underflowed scale would return zeros that match underflowed exact
    energies.  So is one whose 4 alpha^2 times the bracket top hi
    overflows, since every eigenvalue lies below hi.
    """
    scale = box_energy(WellConfig(alpha), 1)
    if not (sys.float_info.min <= scale < math.inf):
        raise ParameterError(f"4 alpha^2 = {scale} is not a normal float at alpha = {alpha}")
    if grid_points < MIN_GRID_POINTS:
        raise ParameterError(f"need at least {MIN_GRID_POINTS} grid points, got {grid_points}")
    if count < 0 or count > MAX_MODES:
        raise ParameterError(f"count must be between 0 and {MAX_MODES}, got {count}")
    if count == 0:
        return []
    record = _SturmRecord(_fd_matrix(grid_points))
    hi = 4.0 * (count + 2) ** 2
    while record.count(hi) < count:
        hi *= 2.0
    if not math.isfinite(scale * hi):
        raise ParameterError(f"4 alpha^2 = {scale} times the bracket top {hi} overflows")
    eigenvalues = []
    for mode in range(1, count + 1):
        record.prepass(mode, hi)
        lo, up = _bisect(hi, lambda mid: record.at_least(mid, mode))
        eigenvalues.append(scale * (0.5 * (lo + up)))
    return eigenvalues


def check_fd_spectrum(
    alpha: float, grid_points: int, count: int, *, tolerance: float | None = None
) -> VerificationReport:
    """The lowest `count` finite-difference eigenvalues (fd_spectrum), row
    "fd mode i" against the exact partner energy 4 alpha^2 (i + 2)^2."""
    tol = _tolerance("fd_spectrum", tolerance)
    modes = fd_spectrum(alpha, grid_points, count)
    cfg = WellConfig(alpha)
    checks = [
        _make_check(f"fd mode {i}", lam, box_energy(cfg, i + 2), tol)
        for i, lam in enumerate(modes)
    ]
    return _report(
        checks, {"alpha": alpha, "grid_points": grid_points, "count": count}
    )


# The exact coefficient table's first values, frozen by hand reduction.
_FROZEN_C = {0: Fraction(-1, 8), 1: Fraction(-1, 32), 2: Fraction(-1, 80)}


def _check_coefficient(n: int) -> CheckResult:
    value = closed_form.coefficient_C(n)
    return _make_check(f"coefficient C_{n}", float(value), float(_FROZEN_C[n]), 0.0)


def _check_midpoint_vanishing(m: int) -> CheckResult:
    first, second = midpoint_vanishing(m)
    ok = first and (second is None or second)
    return _make_check(f"midpoint vanishing m={m}", 0.0 if ok else 1.0, 0.0, 0.0)


def _suite_specs(
    alpha: float,
    n_max: int,
    quad_order: int,
    panels: int,
    tols: dict,
    grid_points: int,
) -> list[tuple]:
    """Every check of the full suite in report order, as (name, tolerance,
    thunk).  A thunk returns one CheckResult or a VerificationReport whose
    rows all enter the report; name and tolerance label the failed row
    recorded in place of a thunk that raises."""
    quad_tol, id_tol = tols["quadrature"], tols["identity"]
    quad = {"order": quad_order, "panels": panels, "tolerance": quad_tol}
    levels = range(n_max + 1)
    partners = range(2, max(2, n_max) + 1)
    # the level-indexed rows first, then the others interleaved by index
    identities = sorted(((which, i) for which, family in IDENTITY_FAMILIES.items()
                         for i in range(family.top(n_max) + 1)),
                        key=lambda spec: (IDENTITY_FAMILIES[spec[0]].letter != "n", spec[1]))
    specs = [(f"coefficient C_{n}", 0.0, partial(_check_coefficient, n)) for n in _FROZEN_C]
    specs += [(f"midpoint vanishing m={m}", 0.0, partial(_check_midpoint_vanishing, m))
              for m in range(26)]
    specs += [(f"trig norm k={k}", quad_tol, partial(check_trig_norm, k, **quad))
              for k in range(2, n_max + 3)]
    specs += [(f"hypergeom norm ({form}-form) n={n}", quad_tol,
               partial(check_hypergeom_norm, n, form, **quad))
              for n in levels for form in ("x", "z")]
    specs += [(f"expectation <x> k={k} alpha={alpha}", quad_tol,
               partial(check_expectation_x, k, alpha, **quad)) for k in partners]
    specs += [(f"first moment (trig) k={k}", quad_tol,
               partial(check_first_moment, k, "trig", **quad)) for k in partners]
    specs += [(f"first moment (hypergeom) n={n}", quad_tol,
               partial(check_first_moment, n, "hypergeom", **quad)) for n in levels]
    specs.append(("gram matrix", quad_tol,
                  partial(check_orthonormality, partners[-1], alpha, **quad)))
    specs += [(f"residual (partner) k={k} alpha={alpha}", tols["residual"],
               partial(check_residual, k, alpha, tolerance=tols["residual"]))
              for k in partners]
    specs += [(f"bound-state correspondence n={n}", id_tol,
               partial(check_correspondence, n, alpha, tolerance=id_tol)) for n in levels]
    specs += [(_identity_name(which, i), id_tol,
               partial(check_identity, which, i, tolerance=id_tol))
              for which, i in identities]
    specs.append(("fd spectrum", tols["fd_spectrum"],
                  partial(check_fd_spectrum, alpha, grid_points, FD_MODES,
                          tolerance=tols["fd_spectrum"])))
    return specs


def run_full_suite(
    alpha: float = 1.0,
    n_max: int = N_MAX,
    quad_order: int = QUAD_ORDER,
    panels: int = PANELS,
    tolerances: dict | None = None,
    *,
    grid_points: int = GRID_POINTS,
) -> VerificationReport:
    """Run every check over the desk-scale ranges and aggregate a report.

    Deterministic ordering: exact coefficient table, midpoint vanishing,
    trig norms, hypergeometric norms (x then z per degree), expectation
    values, first moments, Gram matrix, residuals, bound-state
    correspondence, the three identity families, and the finite-difference
    spectrum.  A check that raises is recorded as failed; the suite never
    aborts.
    """
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    parameters = {"alpha": alpha, "n_max": n_max, "quad_order": quad_order,
                  "panels": panels, "grid_points": grid_points}
    checks: list[CheckResult] = []
    for name, tolerance, thunk in _suite_specs(**parameters,
                                               tols=resolve_tolerances(tolerances)):
        try:
            result = thunk()
        except Exception as exc:  # noqa: BLE001 - aggregation must not abort
            checks.append(
                CheckResult(
                    name=f"{name} [error: {type(exc).__name__}: {exc}]",
                    computed=math.nan,
                    reference=math.nan,
                    abs_dev=math.inf,
                    rel_dev=math.inf,
                    tolerance=tolerance,
                    passed=False,
                )
            )
            continue
        if isinstance(result, VerificationReport):
            checks.extend(result.checks)
        else:
            checks.append(result)
    return _report(checks, parameters)
