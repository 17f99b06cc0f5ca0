"""Stable closed forms, exact coefficients, and the polynomial identities."""
import math
from fractions import Fraction

import pytest

from oracles import (
    PassCounter,
    chebyshev_u_exact,
    chebyshev_u_slope,
    chi,
    clear_caches,
    forbid,
    identity_pairs,
    mutant,
    spy,
    x_grid,
)
from ptdarboux import closed_form, verify
from ptdarboux.cli import MAX_DEGREE
from ptdarboux.closed_form import (
    TGrid,
    TrigEigenfunction,
    _midpoint_factor,
    chi_derivatives,
    chi_eval,
    coefficient_C,
    identity_sides,
    normalization_A,
)
from ptdarboux.errors import DomainError, ParameterError
from ptdarboux.verify import check_identity

# frozen by exact rational series summation (two independent closed forms
# agree for every index below)
COEFFICIENTS = [
    Fraction(-1, 8),
    Fraction(-1, 32),
    Fraction(-1, 80),
    Fraction(-1, 160),
    Fraction(-1, 280),
    Fraction(-1, 448),
    Fraction(-1, 672),
    Fraction(-1, 960),
    Fraction(-1, 1320),
    Fraction(-1, 1760),
    Fraction(-1, 2288),
    Fraction(-1, 2912),
    Fraction(-1, 3640),
]


def test_trig_eigenfunction_validation():
    f = TrigEigenfunction(2, 1.0)
    assert math.isclose(f.norm, math.sqrt(4 / math.pi) / math.sqrt(3), rel_tol=1e-15)
    with pytest.raises(ParameterError):
        TrigEigenfunction(1, 1.0)
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            TrigEigenfunction(2, alpha)


def test_chi_eval_vanishes_at_walls():
    # at x = L, t = 2 alpha L rounds to pi_f = fl(pi), where sin^2 t is
    # 1.5e-32 and not 0: the product form gives -N sin^2(pi_f) U'_4(-1),
    # U'_4(-1) = -(5^3 - 5) / 3, about 1e-31 N
    f = TrigEigenfunction(5, 1.0)
    assert chi_eval(f, 0.0) == 0.0
    s = math.sin(math.pi)
    assert chi_eval(f, math.pi / 2) == f.norm * (-(s * s) * -40.0) > 0.0
    with pytest.raises(DomainError):
        chi_eval(f, -0.01)
    with pytest.raises(DomainError):
        chi_eval(f, math.pi / 2 + 0.01)


def test_chi_eval_equals_the_point_wise_oracle():
    # chi_eval is one point of the TGrid bracket rows; it must keep the bits
    # of the scalar Chebyshev form at every index the suite reaches
    for alpha in (1.0, 0.6024, 1e-8, 1e8):
        length = math.pi / (2 * alpha)
        xs = [length * i / 40 for i in range(41)]
        for k in (2, 3, 12, 31, 62):
            f = TrigEigenfunction(k, alpha)
            assert [chi_eval(f, x) for x in xs] == [chi(f, x) for x in xs]


def test_chi_eval_matches_cotangent_form_on_interior():
    for alpha in (0.5, 1.0, 2.0):
        for k in (2, 3, 8):
            f = TrigEigenfunction(k, alpha)
            for x in x_grid(alpha, 120, 1e-2):
                t = 2 * alpha * x
                naive = f.norm * (
                    k * math.cos(k * t) - math.sin(k * t) / math.tan(t)
                )
                assert abs(chi_eval(f, x) - naive) <= 1e-12


def test_chi_sign_and_peak_structure():
    # k=2 mode is a single negative-normalized lobe: -norm * 2 sin^2 t
    f = TrigEigenfunction(2, 1.0)
    for x in (0.3, 0.8, 1.4):
        t = 2 * x
        expected = -f.norm * 2 * math.sin(t) ** 2
        assert math.isclose(chi_eval(f, x), expected, rel_tol=1e-13)


def test_chi_derivatives_match_value():
    f = TrigEigenfunction(7, 1.3)
    for x in x_grid(1.3, 40, 1e-2):
        value, _, _ = chi_derivatives(f, x)
        assert value == chi_eval(f, x)


def test_chi_derivatives_read_one_sweep_with_the_grid_rows_bits(monkeypatch):
    # one _u_rows sweep and no TGrid per call; the value and g'' keep the
    # bits of the TGrid rows at alpha = 1, where x = t / 2 is exact, and so
    # does chi_eval, a one-point TGrid read
    ts = [0.05 + 0.03 * i for i in range(100)]
    grid = TGrid(ts)
    rows = {k: (grid.mode(k), grid.second_derivative(k)) for k in (2, 3, 12, 40)}
    for k, (modes, _) in rows.items():
        f = TrigEigenfunction(k, 1.0)
        assert [chi_eval(f, 0.5 * t) for t in ts] == [f.norm * g for g in modes]
    sweeps = spy(monkeypatch, "u sweep")
    forbid(monkeypatch, "TGrid")
    for k, (modes, seconds) in rows.items():
        f = TrigEigenfunction(k, 1.0)
        for t, g, g2 in zip(ts, modes, seconds):
            value, _, second = chi_derivatives(f, 0.5 * t)
            assert value == f.norm * g and second == f.norm * 4.0 * g2
    assert len(sweeps) == 4 * len(ts)


def test_chi_first_derivative_against_central_difference():
    h = 1e-6
    worst = 0.0
    for k in (2, 3, 5, 10):
        for alpha in (0.5, 1.0, 2.0):
            f = TrigEigenfunction(k, alpha)
            length = math.pi / (2 * alpha)
            for i in range(1, 40):
                x = length * i / 40
                _, first, _ = chi_derivatives(f, x)
                cd = (chi(f, x + h) - chi(f, x - h)) / (2 * h)
                worst = max(worst, abs(first - cd) / max(1.0, abs(first)))
    assert worst <= 1e-8


def test_chi_second_derivative_against_differenced_first():
    # central-differencing the analytic first derivative gives a clean
    # second-derivative oracle (differencing values twice is noise-bound)
    h = 1e-6
    worst = 0.0
    for k in (2, 3, 5, 10):
        for alpha in (0.5, 1.0, 2.0):
            f = TrigEigenfunction(k, alpha)
            length = math.pi / (2 * alpha)
            for i in range(1, 40):
                x = length * i / 40
                _, _, second = chi_derivatives(f, x)
                d_plus = chi_derivatives(f, x + h)[1]
                d_minus = chi_derivatives(f, x - h)[1]
                cd = (d_plus - d_minus) / (2 * h)
                worst = max(worst, abs(second - cd) / max(1.0, abs(second)))
    assert worst <= 1e-7


def test_chi_derivatives_accept_the_closed_interval():
    # like chi_eval, chi_derivatives takes every x of [0, L], walls and
    # points next to them included, and raises DomainError just outside
    for alpha in (1e-6, 1.0, 1e6):
        f = TrigEigenfunction(3, alpha)
        length = math.pi / (2.0 * alpha)
        for x in (0.0, 5e-7 / alpha, length - 5e-7 / alpha, length):
            value, first, second = chi_derivatives(f, x)
            assert value == chi_eval(f, x)
            assert all(map(math.isfinite, (first, second)))
        for x in (-math.ulp(length), math.nextafter(length, math.inf)):
            with pytest.raises(DomainError):
                chi_derivatives(f, x)


@pytest.mark.parametrize("alpha", [1e-8, 1.0, 1e8])
def test_chi_derivatives_at_the_wall_are_its_taylor_coefficients(alpha):
    # near t = 0, g_k = -(k^3 - k) t^2 / 3 + O(t^4): value 0, slope 0 and
    # second derivative N 4 alpha^2 (-2 (k^3 - k) / 3), in d/dx = 2 alpha d/dt
    for k in (2, 3, 12, 62):
        f = TrigEigenfunction(k, alpha)
        value, first, second = chi_derivatives(f, 0.0)
        assert value == 0.0 and first == 0.0
        assert second == f.norm * 4.0 * alpha * alpha * (-2.0 * (k ** 3 - k) / 3)


def test_coefficient_table_exact():
    for n, expected in enumerate(COEFFICIENTS):
        assert coefficient_C(n) == expected
    with pytest.raises(ParameterError):
        coefficient_C(-1)


def test_coefficient_parity_forms_are_consistent():
    # all are negative and strictly shrinking in magnitude
    values = [coefficient_C(n) for n in range(0, 21)]
    assert all(v < 0 for v in values)
    mags = [abs(v) for v in values]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_normalization_amplitude():
    # A_n = N_{n+2} / C_n; ground level at alpha = 1
    expected = -8 * math.sqrt(4 / math.pi) / math.sqrt(3)
    assert math.isclose(normalization_A(0, 1.0), expected, rel_tol=1e-14)
    assert normalization_A(0, 1.0) < 0
    for n, alpha in [(0, 1.0), (3, 0.6024), (7, 2.5)]:
        k = n + 2
        norm = math.sqrt(4.0 * alpha / math.pi) / math.sqrt(k * k - 1.0)
        assert normalization_A(n, alpha) == float(1 / coefficient_C(n)) * norm
    with pytest.raises(ParameterError):
        normalization_A(0, -1.0)


def test_identity_sides_agree_on_interior_grid():
    for n in range(0, 11):
        pairs = [identity_sides(n, 1.0, x) for x in x_grid(1.0, 500, 1e-3)]
        scale = max(abs(l) for l, _ in pairs)
        dev = max(abs(l - r) for l, r in pairs) / scale
        assert dev <= 1e-9


def test_identities_delegate_to_their_t_cores():
    # sin(alpha x) is half of t = 2 alpha x exactly, so the x-level form
    # reproduces the one t-level core bit for bit at any alpha
    for alpha in (0.6024, 0.73, 1.0, 1.502, 7.0):
        for x in x_grid(alpha, 17, 1e-3)[1:-1]:
            t = 2.0 * alpha * x
            assert identity_sides(3, alpha, x) == identity_pairs("base", 3, TGrid([t]))[0]
    for which in ("base", "even", "odd"):
        with pytest.raises(ParameterError):
            identity_pairs(which, -1, TGrid([1.0]))
    with pytest.raises(ParameterError):
        identity_pairs("triple", 1, TGrid([1.0]))


def test_identity_pairs_build_exact_constants_once(monkeypatch):
    # one grid costs one exact C_n (base) or one midpoint factor (ratios),
    # however many points it has; the ratio forms never touch C_n.  Each
    # level's factor is kept (_midpoint_factor's memo), and base n = 7 and
    # odd m = 3 share level 7, so the memo is cleared before each call
    calls = {kind: spy(monkeypatch, kind) for kind in ("coefficient", "exact")}
    for which, index, expected_c in (("base", 7, 1), ("even", 3, 0), ("odd", 3, 0)):
        for made in calls.values():
            made.clear()
        clear_caches()
        result = check_identity(which, index)
        assert result.passed
        assert {kind: len(made) for kind, made in calls.items()} == {"coefficient": expected_c,
                                                                     "exact": 1}


def test_a_spoiled_u_slope_step_fails_every_identity_family(monkeypatch):
    # the identities' right sides are -4 C_n U'_{n+1}: a U' step whose
    # 2j U_{j-1} is (2 + 1e-7) j U_{j-1} moves them by about 5e-8, far past
    # the default tolerance 1e-9, in every family and at every index tried
    families = [("base", 0), ("base", 9), ("even", 0), ("even", 4), ("odd", 0), ("odd", 30)]
    assert all(check_identity(which, index).passed for which, index in families)
    monkeypatch.setattr(closed_form, "_u_rows",
                        mutant(closed_form._u_rows, "2.0 * j", "(2.0 + 1e-7) * j"))
    for which, index in families:
        result = check_identity(which, index)
        assert not result.passed and result.computed > 1e-8, (which, index, result.computed)


def test_u_rows_track_exact_values_on_the_interior_grid():
    # one depth-3 sweep to k = 63 at every cos t of the suite's interior
    # grid and at c = 1 and -1, against exact rational values at the same
    # floats, as a share of max|U_{k-1}^(d)| over [-1, 1] (its value at
    # c = 1): measured worst 1.56e-14 (U'_61, the third grid point), and
    # 9.5e-15 where t is over 0.03 from a wall: next to one, y = (2c)^2 - 2
    # carries up to 2.2e-16 of rounding, which the rows read in y amplify
    # most.  At c = 1 and -1 every value is an integer and exact
    cosines = [math.cos(t) for t in verify._interior_ts()] + [1.0, -1.0]
    exact = [chebyshev_u_exact(62, c, 3) for c in cosines]
    (_, at_one), (_, at_minus_one) = exact[-2:]
    worst = 0.0
    for k, rows in closed_form._u_rows(cosines, 3, range(2, 64)):
        for d, row in enumerate(rows, 1):
            assert row[-2:] == [at_one[k - 1][d], at_minus_one[k - 1][d]], (k, d)
            scale = abs(at_one[k - 1][d])
            for (den, values), value in zip(exact, row):
                num, pow2 = value.as_integer_ratio()
                dens = pow2 * den ** (k - 1)
                error = abs(num * den ** (k - 1) - values[k - 1][d] * pow2) / dens
                worst = max(worst, error / scale if scale else error)
    assert worst <= 2e-14


def test_u_sweep_frees_its_cosines_after_its_set_up():
    # only the rows y and U_1 read the cos t list, so the sweep's frame holds
    # it no longer once its first row is out: a caller's fresh list (as
    # chi_derivatives hands it) is freed for the rest of the sweep
    sweep = closed_form._u_rows([math.cos(t) for t in (0.3, 1.1, 2.9)], 3, range(2, 12))
    assert "cosines" in sweep.gi_frame.f_locals
    next(sweep)
    assert "cosines" not in sweep.gi_frame.f_locals


@pytest.mark.parametrize("k, passes, slope", [
    (2, 0, lambda c: 2.0),
    (3, 1, lambda c: 8.0 * c),
    (4, 1, lambda c: 24.0 * c * c - 4.0),
], ids=["U'_1", "U'_2", "U'_3"])
def test_u_sweep_builds_only_the_rows_its_read_steps(k, passes, slope):
    # a lone depth-1 read passes over its cosines only for the rows it
    # steps: U'_1 = 2 reads none, U'_2 = 8c the row U_1 = 2c alone, and
    # U'_3 = 24c^2 - 4 the row y = (2c)^2 - 2 alone, which a sweep builds
    # only when a U chain steps past U_1
    cosines = PassCounter([0.5, -1.0, 0.25, 1.0])
    ((index, (row,)),) = closed_form._u_rows(cosines, 1, [k])
    assert index == k and row == [slope(c) for c in list.__iter__(cosines)]
    assert cosines.passes == passes


def test_coefficient_closed_form_to_degree_cap():
    # C_n = -3 / (4 (n+1)(n+2)(n+3)), independent of the 2F1 route
    for n in range(MAX_DEGREE + 1):
        assert coefficient_C(n) == Fraction(-3, 4 * (n + 1) * (n + 2) * (n + 3))


def test_ratio_prefactors_follow_from_coefficient():
    # 4 r_n = 4 C_n / D_n, and equals the ratio identities' printed prefactors
    for n in range(MAX_DEGREE + 1):
        r, d = (Fraction(*pair) for pair in _midpoint_factor(n))
        assert 4 * r == 4 * Fraction(-3, 4 * (n + 1) * (n + 2) * (n + 3)) / d
        m, parity = divmod(n, 2)
        if parity == 0:
            printed = Fraction((-1) ** (m + 1), 2 * (m + 1))
        else:
            printed = Fraction((-1) ** (m + 1) * (2 * m + 1) * (2 * m + 5),
                               20 * (m + 1) * (m + 2))
        assert 4 * r == printed


def test_identity_sides_base_case_both_sides_one():
    # n = 0: the polynomial side is identically 1 and the trig side
    # reproduces it to rounding
    lhs, rhs = identity_sides(0, 1.0, 0.6)
    assert lhs == 1.0
    assert abs(rhs - 1.0) <= 1e-10


def test_identity_sides_accept_the_closed_interval():
    # the right side -4 C_n U'_{n+1}(cos t) divides by nothing, so both
    # sides hold at the walls, where F_n(0) = 1 and F_n(1) = (-1)^n, and next
    # to them; just outside [0, L] is a DomainError
    for n in (0, 2, 7, 60):
        assert identity_sides(n, 1.0, 0.0) == (1.0, 1.0)
        lhs, rhs = identity_sides(n, 1.0, math.pi / 2)
        assert lhs == (-1.0) ** n and abs(rhs - lhs) <= 1e-12
        for x in (1e-9, 1e-5, math.pi / 2 - 1e-5):
            lhs, rhs = identity_sides(n, 1.0, x)
            assert abs(rhs - lhs) <= 1e-12
    for x in (-1e-300, math.nextafter(math.pi / 2, 4.0)):
        with pytest.raises(DomainError):
            identity_sides(2, 1.0, x)
    with pytest.raises(ParameterError):
        identity_sides(-1, 1.0, 0.5)
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            identity_sides(2, alpha, 0.5)
    # -4 C_n U'_{n+1}(1) = 1 exactly: C_n = -3 / (4 (n+1)(n+2)(n+3))
    assert chebyshev_u_slope(61, 1.0) == 61 * 62 * 63 / 3


def test_ratio_identity_even_agrees():
    grid = TGrid([2.0 * x for x in x_grid(1.0, 500, 1e-3)])
    for m in range(0, 6):
        pairs = identity_pairs("even", m, grid)
        scale = max(abs(l) for l, _ in pairs)
        dev = max(abs(l - r) for l, r in pairs) / scale
        assert dev <= 1e-9


def test_ratio_identity_odd_agrees():
    grid = TGrid([2.0 * x for x in x_grid(1.0, 500, 1e-3)])
    for m in range(0, 6):
        pairs = identity_pairs("odd", m, grid)
        scale = max(abs(l) for l, _ in pairs)
        dev = max(abs(l - r) for l, r in pairs) / scale
        assert dev <= 1e-9


def test_ratio_identities_scale_invariance():
    # alpha only reparametrizes the axis: same deviation behaviour at alpha=2
    pairs = identity_pairs("even", 1, TGrid([4.0 * x for x in x_grid(2.0, 200, 1e-3)]))
    scale = max(abs(l) for l, _ in pairs)
    assert max(abs(l - r) for l, r in pairs) / scale <= 1e-9


def test_ratio_identity_validation():
    with pytest.raises(ParameterError):
        identity_pairs("even", -1, TGrid([1.0]))
    with pytest.raises(ParameterError):
        identity_pairs("odd", -1, TGrid([1.0]))


def test_identity_connects_midpoint_values():
    # at t = pi/2 the even lhs ratio equals the rhs with sin t = 1 exactly
    grid = TGrid([math.pi / 2])
    for m in range(0, 4):
        (lhs, rhs), = identity_pairs("even", m, grid)
        assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-12)
        assert abs(lhs) > 0.1  # midpoint value is O(1), not a degenerate zero
