"""Independent reference implementations that the tests compare against,
and the one place where a test counts or refuses the package's work.

The package evaluates on rows (closed_form.TGrid and the quadrature tables
that verify builds by sweeping a recurrence); these are the point-wise forms
those rows must equal, kept here so that a bulk reference loop in a test
costs one scalar call per point.  legendre_rule is the Gauss-Legendre rule
built with the recurrence's integer coefficients, sturm_count_decimal is
verify's Sturm count at 60 digits, bracket_decimal is a partner mode's
bracket and its g'' at 60 digits, bracket_exact is the bracket in
Fractions from the floats sin t and cos t, chebyshev_u_exact is U_j and
its argument derivatives in exact rational arithmetic, identity_pairs zips
the two sides of an identity family into (left, right) pairs, json_safe is
the payload whose json.dumps the CLI's JSON writer must reproduce, mutant
is a package function with one deliberate defect, which a check must
catch, PassCounter is a list that counts the passes a sweep makes over
it, x_grid is the tests' equally spaced x grid and held the indices at
which a TGrid holds rows of a kind.

WORK names each package function whose calls a test counts or refuses, by
the kind of work it does; spy records the calls of one kind, forbid makes
the calls of a kind or of a public name raise, and clear_caches (or the
fresh_caches fixture) empties the package's memos, so that a count sees
every call.  fd_modes reads, through spy, the block, place and bracket in
which verify.fd_spectrum settles each mode.  A renamed engine is renamed
in WORK alone."""
import importlib
import inspect
import math
import pkgutil
import textwrap
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import ptdarboux
from ptdarboux import closed_form, darboux, hypergeom, verify
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
    """2F1(-n, b; c; z) in floats: jacobi_real at x = 1 - 2z, which
    hypergeom.f21_eval_real and the z rule's level sums must equal bit for
    bit."""
    return jacobi_real(h, 1.0 - 2.0 * float(z))


def jacobi_real(h, x: float) -> float:
    """2F1(-n, b; c; z) at x = 1 - 2z in floats by the normalized Jacobi
    recurrence in degree (DLMF 15.9.1, 18.9.2) with a = c - 1,
    beta = b - n - c, swept at one point in its folded step R_j = (slope x +
    shift) R_{j-1} - back R_{j-2}, back = slope + shift - 1, from R_1 = 1 -
    (a+beta+2)(1-x) / (2a+2), which is x when a = beta, where shift is 0;
    the level rows at x = cos t (closed_form.TGrid, the t rule's level sums)
    must equal it bit for bit."""
    a = float(h.c - 1)
    beta = float(h.b - h.n - h.c)
    ab = a + beta
    diff_sq = a * a - beta * beta
    r_prev, r = 1.0, x if a == beta else 1.0 - (ab + 2.0) * (1.0 - x) / (2.0 * a + 2.0)
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
    """U_k'(c), the argument derivative of U_k, by U_j' = U_{j-2}' + 2j U_{j-1}
    over the j of k's parity, reading the U of the other parity, which step
    two degrees at a time, U_j = y U_{j-2} - U_{j-4} with y = (2c)^2 - 2:
    the chains of closed_form._u_rows, which the rows U'_{k} must equal bit
    for bit."""
    if k < 0:
        raise ParameterError("chebyshev_u_slope index must be nonnegative")
    y = 4.0 * c * c - 2.0
    u_back, u = (-1.0, 1.0) if k % 2 else (0.0, 2.0 * c)  # U_-2, U_0 or U_-1, U_1
    du = 0.0
    for j in range(2 - k % 2, k + 1, 2):  # u is U_{j-1}
        u_back, u, du = u, y * u - u_back, du + 2.0 * j * u
    return du


def chebyshev_u_exact(top: int, c: float, depth: int) -> tuple[int, list[tuple]]:
    """(den, rows): U_j(c) and its argument derivatives to the depth-th at
    c (a float, taken exactly, c = m / den with den a power of 2), exactly,
    each as the integer rows[j][d] = U_j^(d)(c) den^j, for j = 0..top.
    They follow U_j = 2c U_{j-1} - U_{j-2} differentiated d times,
    U_j^(d) = 2c U_{j-1}^(d) + 2d U_{j-1}^(d-1) - U_{j-2}^(d): another
    recurrence than the package's, in exact rational arithmetic kept over
    the one denominator den^j, so that no step reduces a fraction."""
    m, den = c.as_integer_ratio()
    rows = [(0,) * (depth + 1), (1,) + (0,) * depth]  # j = -1, 0
    for _ in range(top):
        back, last = rows[-2], rows[-1]
        rows.append(tuple(2 * m * last[d] + (2 * d * den * last[d - 1] if d else 0)
                          - den * den * back[d] for d in range(depth + 1)))
    return den, rows[1:]


def stable_bracket(k: int, t: float) -> float:
    """-sin^2(t) U'_{k-1}(cos t), the bracket row of index k at t."""
    s = math.sin(t)
    return -(s * s) * chebyshev_u_slope(k - 1, math.cos(t))


def bracket_exact(k: int, t: float) -> Fraction:
    """-sin^2(t) U'_{k-1}(cos t), the bracket of index k at t, exactly from
    the floats sin t and cos t (chebyshev_u_exact)."""
    den, rows = chebyshev_u_exact(k - 1, math.cos(t), 1)
    return -Fraction(math.sin(t)) ** 2 * Fraction(rows[k - 1][1], den ** (k - 1))


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
    2F1(-n, n + kappa + lam; kappa + 1/2; sin^2(alpha x)) of the PT well,
    its 2F1 read at 1 - 2 sin^2(alpha x) = cos(2 alpha x) (jacobi_real)."""
    h = TerminatingHypergeometric(
        n, Fraction(p.kappa) + Fraction(p.lam) + n, Fraction(p.kappa) + Fraction(1, 2)
    )
    a = cfg.alpha
    s = math.sin(a * x)
    c = math.cos(a * x)
    factor = jacobi_real(h, math.cos(2.0 * a * x))
    return amplitude * _power(s, p.kappa) * _power(c, p.lam) * factor


def _power(v: float, e: float) -> float:
    """v^e; an integral e as the product v * v * ... that the package forms,
    which pow(v, 2.0) misses by an ulp for about one float in a thousand."""
    return math.prod([v] * int(e)) if float(e).is_integer() else v ** e


class PassCounter(list):
    """A list that counts the passes made over it (iter) and the reads of
    its length (len), so that a test sees which rows a sweep builds."""

    passes = lengths = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()

    def __len__(self):
        self.lengths += 1
        return super().__len__()


def integrate(profile, a: float, b: float, order: int, panels: int) -> float:
    """The suite's composite Gauss-Legendre rule applied to `profile`: its
    sum kernel (verify._t_sum) over the rule's weights, checked as the suite
    checks its sums (verify._checked), so that a non-finite value aborts
    with its abscissa."""
    nodes = verify._nodes(a, b, order, panels)
    values = [profile(x) for x in nodes[0]]
    (total,) = verify._checked(lambda: (verify._t_sum(nodes, nodes[1], values),),
                               values, nodes[0])
    return total


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


def mutant(function, old: str, new: str):
    """A copy of the package function `function` whose source has its one
    `old` replaced by `new`, compiled in a copy of its module's namespace;
    the caller puts it in place of the original (monkeypatch.setattr)."""
    source = textwrap.dedent(inspect.getsource(function))
    if source.count(old) != 1:
        raise ValueError(f"{old!r} occurs {source.count(old)} times in {function.__name__}")
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


# The package functions whose calls a test counts (spy) or refuses (forbid),
# each named once, by the kind of work it does.
WORK = {
    "rule": verify.gauss_legendre,  # the Gauss-Legendre rule of one order
    "nodes": verify._nodes,  # a composite rule's node set
    "weigh": verify._weigh,  # a row times its rule's weights
    "t sum": verify._t_sum,  # one sum over a rule
    "mode sums": verify._mode_sums,  # the suite's four tables (verify._plan)
    "level sums": verify._level_sums,
    "z level sums": verify._z_level_sums,
    "interior grid": verify._interior_rows,
    "coefficient row": verify._check_coefficient,
    "sturm count": verify._sturm_count,  # one Sturm sweep of a block
    "settle": verify._settle,  # one mode's bracket from its start bracket
    "asymptotic": verify._asymptotic,  # one mode's start, in units of h^2
    "u sweep": closed_form._u_rows,  # the U recurrence, a generator of rows
    "bracket": closed_form._bracket,  # a bracket row from its row U'_{k-1}
    "g2 factors": closed_form._g2_factors,  # the rows every g'' row reads
    "coefficient": closed_form._coefficient,  # C_n as an integer pair
    "level sweep": hypergeom._jacobi_rows,  # the level recurrence, a generator of rows
    "exact": hypergeom._f21_exact,  # one exact 2F1 value
    "potential rows": darboux._partner_potentials,
}


def package_modules():
    """Each module of the package but __main__, which runs the CLI."""
    for info in pkgutil.iter_modules(ptdarboux.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"ptdarboux.{info.name}")


def _install(monkeypatch, function, wrap, only=None):
    """wrap(bound) in place of every binding `bound` of `function`, or of a
    spy on it, in the package and its modules, or in the module `only`
    alone."""
    bound = [(module, name, value)
             for module in ([only] if only else [ptdarboux, *package_modules()])
             for name, value in vars(module).items() if getattr(value, "_work", value) is function]
    assert bound, f"no package module binds {function!r}"
    for module, name, value in bound:
        wrapper = wrap(value)
        wrapper._work = function
        monkeypatch.setattr(module, name, wrapper)


def spy(monkeypatch, kind, keep=lambda out, *args: args, only=None):
    """The list of keep(out, *args) of every call of the package function
    WORK[kind] for the rest of the test, in the order the calls return, out
    being what the call returned.  A sweep (a generator function) is
    recorded when it is called, with out the list of the items it has
    yielded so far.  Every module that binds the function calls the spy,
    or the module `only` alone; a second spy on it records the same calls."""
    function, calls = WORK[kind], []

    def wrap(bound):
        if inspect.isgeneratorfunction(function):
            def wrapper(*args):
                rows = []
                calls.append(keep(rows, *args))
                return (rows.append(item) or item for item in bound(*args))
        else:
            def wrapper(*args):
                out = bound(*args)
                calls.append(keep(out, *args))
                return out
        return wrapper

    _install(monkeypatch, function, wrap, only)
    return calls


def forbid(monkeypatch, *names):
    """Every call of each of `names`, a kind of WORK or a public name of the
    package, raises AssertionError, from any module that binds it."""
    for name in names:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{name} was called")

        _install(monkeypatch, WORK[name] if name in WORK else getattr(ptdarboux, name),
                 lambda bound: refuse)


def fd_modes(grid_points: int, count: int) -> tuple[float, list[tuple]]:
    """h^2 and each mode's (block, place, lo, up) of the grid's `count`
    lowest modes, in units of h^2 (verify._fd_matrix): the block that
    verify.fd_spectrum settles it in, its place there and the bracket that
    verify._settle returns for it, recorded by spy."""
    with pytest.MonkeyPatch.context() as patch:
        modes = spy(patch, "settle", lambda out, block, place, *start: (block, place, *out))
        verify.fd_spectrum(0.5, grid_points, count)
    return (math.pi / grid_points) ** 2, modes


def held(grid, kind: str) -> list[int]:
    """The indices at which a closed_form.TGrid holds rows of `kind`."""
    return sorted(i for held_kind, i in grid._held if held_kind == kind)


def x_grid(alpha: float, points: int, margin: float) -> list[float]:
    """`points` equally spaced x = t / (2 alpha), t from margin to pi - margin."""
    step = (math.pi - 2 * margin) / (points - 1)
    return [(margin + i * step) / (2 * alpha) for i in range(points)]


def clear_caches():
    """Empty every memo (functools.lru_cache) of the package's modules, so
    that a count sees the calls an earlier one made for it."""
    for module in package_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def fresh_caches():
    """The package's memos emptied before and after the test (clear_caches)."""
    clear_caches()
    yield
    clear_caches()
