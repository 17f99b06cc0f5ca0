"""Acceptance gate: every headline quantitative claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (bypassing capture, so the lines
appear in any pytest run) and then asserts.
"""
import math
import time
from fractions import Fraction

from oracles import chi, identity_pairs, pt_eigen_hypergeom, x_grid
from ptdarboux.closed_form import (
    TGrid,
    TrigEigenfunction,
    coefficient_C,
    normalization_A,
)
from ptdarboux.hypergeom import midpoint_vanishing
from ptdarboux.models import PTParams, WellConfig
from ptdarboux.verify import (
    check_expectation_x,
    check_first_moment,
    check_hypergeom_norm,
    check_orthonormality,
    check_residual,
    check_trig_norm,
    fd_spectrum,
)

MARGIN = 1e-3
POINTS = 1000


def _verdict(capsys, number, label, ok):
    with capsys.disabled():
        print(f"[criterion {number:2d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def _max_scaled_dev(pairs):
    scale = max(abs(lhs) for lhs, _ in pairs)
    return max(abs(lhs - rhs) for lhs, rhs in pairs) / scale


def test_criterion_01_trig_norm_integrals(capsys):
    start = time.perf_counter()
    ok = True
    for k in range(2, 13):
        result = check_trig_norm(k, tolerance=1e-11)
        ok = ok and result.passed and result.rel_dev <= 1e-11
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    ok = ok and abs(check_trig_norm(2).reference - 4.71238898) <= 1e-8
    _verdict(capsys, 1, "trig norm integrals k=2..12 (rel <= 1e-11, < 1 s)", ok)


def test_criterion_02_exact_midpoint_vanishing(capsys):
    ok = True
    for m in range(26):
        first, second = midpoint_vanishing(m)
        ok = ok and first is True and (second is None if m == 0 else second is True)
    _verdict(capsys, 2, "exact midpoint vanishing m=0..25 (integer zeros)", ok)


def test_criterion_03_even_family_ratio_identity(capsys):
    grid = TGrid([2.0 * x for x in x_grid(1.0, POINTS, MARGIN)])
    ok = True
    for m in range(6):
        dev = _max_scaled_dev(identity_pairs("even", m, grid))
        ok = ok and dev <= 1e-9
    _verdict(capsys, 3, "even-family ratio identity m=0..5 (<= 1e-9)", ok)


def test_criterion_04_odd_family_ratio_identity(capsys):
    grid = TGrid([2.0 * x for x in x_grid(1.0, POINTS, MARGIN)])
    ok = True
    for m in range(6):
        dev = _max_scaled_dev(identity_pairs("odd", m, grid))
        ok = ok and dev <= 1e-9
    _verdict(capsys, 4, "odd-family ratio identity m=0..5 (<= 1e-9)", ok)


def test_criterion_05_base_identity_and_correspondence(capsys):
    xs = x_grid(1.0, POINTS, MARGIN)
    grid = TGrid([2.0 * x for x in xs])
    cfg = WellConfig(1.0)
    p = PTParams(2.0, 2.0)
    ok = True
    for n in range(11):
        dev = _max_scaled_dev(identity_pairs("base", n, grid))
        ok = ok and dev <= 1e-9
        # the correspondence point by point, from the independent scalar forms
        amplitude = normalization_A(n, 1.0)
        f = TrigEigenfunction(n + 2, 1.0)
        pairs = [(pt_eigen_hypergeom(cfg, p, n, amplitude, x), chi(f, x)) for x in xs]
        scale = max(abs(mode) for _, mode in pairs)
        match = max(abs(psi - mode) for psi, mode in pairs) / scale
        ok = ok and match <= 1e-9
    _verdict(capsys, 5, "base identity and bound-state correspondence n=0..10", ok)


def test_criterion_06_hypergeometric_norm_integrals(capsys):
    ok = True
    for n in range(11):
        for form in ("x", "z"):
            result = check_hypergeom_norm(n, form)
            ok = ok and result.passed and result.rel_dev <= 1e-10
    # independent endpoint: the ground-level z-form integral is the Euler
    # beta value B(5/2, 5/2), computed here from gamma functions
    beta = math.gamma(2.5) ** 2 / math.gamma(5.0)
    ground = check_hypergeom_norm(0, "z")
    ok = ok and abs(ground.computed - beta) / beta <= 1e-10
    ok = ok and abs(beta - 3 * math.pi / 128) <= 1e-15
    _verdict(capsys, 6, "hypergeometric norm integrals n=0..10 (<= 1e-10)", ok)


def test_criterion_07_position_expectation(capsys):
    ok = True
    for alpha in (0.5, 1.0, 2.0):
        for k in range(2, 11):
            result = check_expectation_x(k, alpha)
            ok = ok and result.abs_dev <= 1e-10
            ok = ok and abs(result.reference - math.pi / (4 * alpha)) <= 1e-15
    _verdict(capsys, 7, "<x> = pi/(4 alpha) k=2..10, alpha in {0.5,1,2}", ok)


def test_criterion_08_first_moment_integrals(capsys):
    ok = True
    for k in range(2, 11):
        result = check_first_moment(k, "trig")
        ok = ok and result.passed and result.rel_dev <= 1e-10
    for n in range(11):
        result = check_first_moment(n, "hypergeom")
        ok = ok and result.passed and result.rel_dev <= 1e-10
    _verdict(capsys, 8, "x-weighted norm integrals k,n up to 10 (<= 1e-10)", ok)


def test_criterion_09_orthonormality(capsys):
    report = check_orthonormality(10)
    worst = max(c.abs_dev for c in report.checks)
    ok = report.overall and worst <= 1e-10
    _verdict(capsys, 9, "Gram matrix k=2..10 vs identity (<= 1e-10)", ok)


def test_criterion_10_eigen_equation_residual(capsys):
    ok = True
    for k in range(2, 11):
        result = check_residual(k, 1.0)
        ok = ok and result.computed <= 1e-8
    _verdict(capsys, 10, "eigen-equation residual k=2..10 (<= 1e-8)", ok)


def test_criterion_11_finite_difference_spectrum(capsys):
    start = time.perf_counter()
    coarse = fd_spectrum(1.0, 1000, 3)
    fine = fd_spectrum(1.0, 4000, 3)
    elapsed = time.perf_counter() - start
    exact = [16.0, 36.0, 64.0]
    ok = len(fine) == 3
    for c, f, e in zip(coarse, fine, exact):
        ok = ok and abs(f - e) / e <= 1e-2
        ok = ok and abs(f - e) < abs(c - e)  # monotone grid refinement
    ok = ok and elapsed < 10.0
    _verdict(capsys, 11, "finite-difference spectrum {16,36,64} (1%, < 10 s)", ok)


def test_criterion_12_exact_coefficient_table(capsys):
    ok = (
        coefficient_C(0) == Fraction(-1, 8)
        and coefficient_C(1) == Fraction(-1, 32)
        and coefficient_C(2) == Fraction(-1, 80)
    )
    _verdict(capsys, 12, "exact coefficients -1/8, -1/32, -1/80", ok)
