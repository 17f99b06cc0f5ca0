"""Stable closed forms, exact coefficients, and the polynomial identities."""
import math
from fractions import Fraction

import pytest

from oracles import chi
from ptdarboux import closed_form
from ptdarboux.cli import MAX_DEGREE
from ptdarboux.closed_form import (
    TGrid,
    TrigEigenfunction,
    _midpoint_factor,
    chi_derivatives,
    chi_eval,
    coefficient_C,
    identity_pairs,
    identity_sides,
    normalization_A,
)
from ptdarboux.errors import DomainError, ParameterError, StabilityError
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


def _grid(alpha, t_margin=1e-3, points=500):
    step = (math.pi - 2 * t_margin) / (points - 1)
    return [(t_margin + i * step) / (2 * alpha) for i in range(points)]


def _t_grid(alpha, **kwargs):
    """The TGrid at t = 2 alpha x of _grid's points."""
    return TGrid([2.0 * alpha * x for x in _grid(alpha, **kwargs)])


def test_trig_eigenfunction_validation():
    f = TrigEigenfunction(2, 1.0)
    assert math.isclose(f.norm, math.sqrt(4 / math.pi) / math.sqrt(3), rel_tol=1e-15)
    with pytest.raises(ParameterError):
        TrigEigenfunction(1, 1.0)
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            TrigEigenfunction(2, alpha)


def test_chi_eval_vanishes_at_walls():
    f = TrigEigenfunction(5, 1.0)
    assert chi_eval(f, 0.0) == 0.0
    assert chi_eval(f, math.pi / 2) == 0.0
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
            for x in _grid(alpha, t_margin=1e-2, points=120):
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
    for x in _grid(1.3, t_margin=1e-2, points=40):
        value, _, _ = chi_derivatives(f, x)
        assert value == chi_eval(f, x)


def test_chi_derivatives_read_one_sweep_with_the_grid_rows_bits(monkeypatch):
    # one _chebyshev_rows sweep and no TGrid per call; the value and g''
    # keep the bits of the TGrid rows at alpha = 1, where x = t / 2 is exact
    sweeps = 0
    original = closed_form._chebyshev_rows

    def counted(cosines):
        nonlocal sweeps
        sweeps += 1
        return original(cosines)

    ts = [0.05 + 0.03 * i for i in range(100)]
    grid = TGrid(ts)
    rows = {k: (grid.mode(k), grid.second_derivative(k)) for k in (2, 3, 12, 40)}
    monkeypatch.setattr(closed_form, "_chebyshev_rows", counted)
    monkeypatch.setattr(closed_form, "TGrid", None)
    for k, (modes, seconds) in rows.items():
        f = TrigEigenfunction(k, 1.0)
        for t, g, g2 in zip(ts, modes, seconds):
            value, _, second = chi_derivatives(f, 0.5 * t)
            assert value == f.norm * g and second == f.norm * 4.0 * g2
            assert chi_eval(f, 0.5 * t) == value
    assert sweeps == 4 * len(ts)


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


def test_chi_derivatives_reject_wall_neighborhood():
    f = TrigEigenfunction(3, 1.0)
    with pytest.raises(DomainError):
        chi_derivatives(f, 5e-7)
    with pytest.raises(DomainError):
        chi_derivatives(f, math.pi / 2 - 5e-7)
    # the guard is on t = 2 alpha x, so it neither grows nor shrinks with alpha
    wide = TrigEigenfunction(3, 1e6)
    with pytest.raises(DomainError):
        chi_derivatives(wide, 1e-6 / 2e6)
    x = 1e-3 / 2e6
    assert chi_derivatives(wide, x)[0] == chi_eval(wide, x)


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
        pairs = [identity_sides(n, 1.0, x) for x in _grid(1.0)]
        scale = max(abs(l) for l, _ in pairs)
        dev = max(abs(l - r) for l, r in pairs) / scale
        assert dev <= 1e-9


def test_identities_delegate_to_their_t_cores():
    # sin(alpha x) is half of t = 2 alpha x exactly, so the x-level form
    # reproduces the one t-level core bit for bit at any alpha
    for alpha in (0.6024, 0.73, 1.0, 1.502, 7.0):
        for x in _grid(alpha, points=17)[1:-1]:
            t = 2.0 * alpha * x
            assert identity_sides(3, alpha, x) == identity_pairs("base", 3, TGrid([t]))[0]
    for which in ("base", "even", "odd"):
        with pytest.raises(ParameterError):
            identity_pairs(which, -1, TGrid([1.0]))
    with pytest.raises(ParameterError):
        identity_pairs("triple", 1, TGrid([1.0]))


def test_identity_pairs_build_exact_constants_once(monkeypatch):
    # one grid costs one exact C_n (base) or one midpoint factor (ratios),
    # however many points it has; the ratio forms never touch C_n
    calls = {"coefficient_C": 0, "f21_eval_exact": 0}
    for name in calls:
        original = getattr(closed_form, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(closed_form, name, counted)
    for which, index, expected_c in (("base", 7, 1), ("even", 3, 0), ("odd", 3, 0)):
        for name in calls:
            calls[name] = 0
        result = check_identity(which, index)
        assert result.passed
        assert calls == {"coefficient_C": expected_c, "f21_eval_exact": 1}


def test_coefficient_closed_form_to_degree_cap():
    # C_n = -3 / (4 (n+1)(n+2)(n+3)), independent of the 2F1 route
    for n in range(MAX_DEGREE + 1):
        assert coefficient_C(n) == Fraction(-3, 4 * (n + 1) * (n + 2) * (n + 3))


def test_ratio_prefactors_follow_from_coefficient():
    # 4 r_n = 4 C_n / D_n, and equals the ratio identities' printed prefactors
    for n in range(MAX_DEGREE + 1):
        r, d = _midpoint_factor(n)
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


def test_identity_sides_margin_guard():
    with pytest.raises(StabilityError):
        identity_sides(2, 1.0, 1e-5)
    with pytest.raises(StabilityError):
        identity_sides(2, 1.0, math.pi / 2 - 1e-5)
    with pytest.raises(ParameterError):
        identity_sides(-1, 1.0, 0.5)
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            identity_sides(2, alpha, 0.5)
    # the guard is closed at the wall margin the suite's interior grid starts at
    identity_sides(2, 1.0, closed_form.WALL_MARGIN / 2.0)


def test_ratio_identity_even_agrees():
    grid = _t_grid(1.0)
    for m in range(0, 6):
        pairs = identity_pairs("even", m, grid)
        scale = max(abs(l) for l, _ in pairs)
        dev = max(abs(l - r) for l, r in pairs) / scale
        assert dev <= 1e-9


def test_ratio_identity_odd_agrees():
    grid = _t_grid(1.0)
    for m in range(0, 6):
        pairs = identity_pairs("odd", m, grid)
        scale = max(abs(l) for l, _ in pairs)
        dev = max(abs(l - r) for l, r in pairs) / scale
        assert dev <= 1e-9


def test_ratio_identities_scale_invariance():
    # alpha only reparametrizes the axis: same deviation behaviour at alpha=2
    pairs = identity_pairs("even", 1, _t_grid(2.0, points=200))
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
