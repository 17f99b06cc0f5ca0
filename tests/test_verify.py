"""Quadrature checks, reports, the finite-difference spectrum, and the suite."""
import inspect
import math
import random
import re
from array import array
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chi, f21_real, integrate, pt_eigen_hypergeom, stable_bracket
from ptdarboux import closed_form, hypergeom, verify
from ptdarboux.closed_form import TrigEigenfunction
from ptdarboux.errors import EvaluationError, ParameterError
from ptdarboux.hypergeom import TerminatingHypergeometric
from ptdarboux.models import PTParams, WellConfig
from ptdarboux.verify import (
    DEFAULT_TOLERANCES,
    CheckResult,
    VerificationReport,
    check_correspondence,
    check_expectation_x,
    check_fd_spectrum,
    check_first_moment,
    check_hypergeom_norm,
    check_identity,
    check_orthonormality,
    check_residual,
    check_trig_norm,
    fd_spectrum,
    resolve_tolerances,
    run_full_suite,
    _suite_specs,
)

# Quadrature settings that a check must reject before it divides by them.
_BAD_RULES = ({"panels": 0}, {"order": 0})


def test_integrate_standard_integrals():
    assert abs(integrate(lambda x: math.sin(x) ** 2, 0.0, math.pi, 32, 8) - math.pi / 2) <= 1e-13
    assert abs(integrate(lambda x: x, 0.0, math.pi, 32, 8) - math.pi**2 / 2) <= 1e-13
    # Beta(5/2, 5/2) through the raw algebraic kernel: endpoint square roots
    # limit plain panel quadrature, but 1e-12 is attainable at (64, 32)
    beta = integrate(lambda z: (z * (1 - z)) ** 1.5, 0.0, 1.0, 64, 32)
    assert abs(beta - 3 * math.pi / 128) <= 1e-12


def test_integrate_validation():
    with pytest.raises(ParameterError):
        integrate(lambda x: x, 1.0, 1.0, 8, 4)
    with pytest.raises(ParameterError):
        integrate(lambda x: x, 0.0, 1.0, 8, 0)
    with pytest.raises(ParameterError):
        integrate(lambda x: x, 1.0, 0.0, 8, 4)
    with pytest.raises(ParameterError):
        integrate(lambda x: x, 0.0, 1.0, 0, 4)


def test_integrate_reports_offending_abscissa():
    def bad(x):
        return math.inf if x > 0.5 else 1.0

    with pytest.raises(EvaluationError) as err:
        integrate(bad, 0.0, 1.0, 8, 4)
    assert "at x=" in str(err.value)


def test_resolve_tolerances():
    tols = resolve_tolerances()
    assert tols == DEFAULT_TOLERANCES
    assert tols is not DEFAULT_TOLERANCES
    tols = resolve_tolerances({"residual": 1e-5})
    assert tols["residual"] == 1e-5
    assert tols["quadrature"] == 1e-10
    with pytest.raises(ParameterError):
        resolve_tolerances({"bogus": 1e-3})
    assert resolve_tolerances({"identity": 0.0})["identity"] == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_resolve_tolerances_rejects_unusable_values(value):
    with pytest.raises(ParameterError):
        resolve_tolerances({"identity": value})


def test_default_tolerances_are_read_only():
    with pytest.raises(TypeError):
        DEFAULT_TOLERANCES["quadrature"] = 1.0
    assert DEFAULT_TOLERANCES["quadrature"] == 1e-10


# One call of every check, all but its tolerance bound, with its family.
_TOLERANCE_FAMILIES = [
    ("quadrature", partial(check_trig_norm, 2)),
    ("quadrature", partial(check_hypergeom_norm, 0)),
    ("quadrature", partial(check_expectation_x, 2)),
    ("quadrature", partial(check_first_moment, 2)),
    ("quadrature", partial(check_orthonormality, 3)),
    ("residual", partial(check_residual, 2)),
    ("identity", partial(check_correspondence, 0)),
    ("identity", partial(check_identity, "base", 0)),
    ("fd_spectrum", partial(check_fd_spectrum, 1.0, 100, 1)),
]


@pytest.mark.parametrize("family, check", _TOLERANCE_FAMILIES)
def test_every_check_tolerance_passes_the_tol_rule(family, check):
    # a check's own tolerance= meets the rule and the message of --tol
    for value in (math.inf, math.nan, -1.0):
        with pytest.raises(ParameterError) as err:
            check(tolerance=value)
        with pytest.raises(ParameterError) as tol_err:
            resolve_tolerances({family: value})
        assert str(err.value) == str(tol_err.value)
    result = check(tolerance=None)
    rows = result.checks if isinstance(result, VerificationReport) else (result,)
    assert rows and {row.tolerance for row in rows} == {DEFAULT_TOLERANCES[family]}


def test_an_empty_fd_report_still_checks_its_tolerance():
    with pytest.raises(ParameterError):
        check_fd_spectrum(1.0, 100, 0, tolerance=math.inf)


def test_check_and_suite_defaults_are_the_default_run():
    for check in (check_trig_norm, check_hypergeom_norm, check_expectation_x,
                  check_first_moment, check_orthonormality):
        params = inspect.signature(check).parameters
        assert (params["order"].default, params["panels"].default) == (
            verify.QUAD_ORDER, verify.PANELS), check.__name__
    params = inspect.signature(run_full_suite).parameters
    assert [params[name].default for name in ("n_max", "quad_order", "panels", "grid_points")] == [
        verify.N_MAX, verify.QUAD_ORDER, verify.PANELS, verify.GRID_POINTS]
    fd_rows = [c for c in run_full_suite(n_max=0).checks if c.name.startswith("fd mode")]
    assert len(fd_rows) == verify.FD_MODES


def test_check_result_invariant_on_zero_reference():
    fine = check_residual(2, 1.0)
    assert fine.reference == 0.0
    assert fine.rel_dev == fine.abs_dev == fine.computed


def test_trig_norm_small_indices():
    r2 = check_trig_norm(2)
    assert math.isclose(r2.reference, 1.5 * math.pi, rel_tol=1e-15)
    assert r2.passed and r2.rel_dev <= 1e-12
    r3 = check_trig_norm(3)
    assert math.isclose(r3.reference, 4 * math.pi, rel_tol=1e-15)
    assert r3.passed
    r10 = check_trig_norm(10)
    assert math.isclose(r10.reference, 0.5 * math.pi * 99, rel_tol=1e-15)
    assert r10.rel_dev <= 1e-12
    with pytest.raises(ParameterError):
        check_trig_norm(1)
    for bad in _BAD_RULES:
        with pytest.raises(ParameterError):
            check_trig_norm(3, **bad)


def test_trig_norm_k2_closed_form_reduction():
    # the k=2 integrand collapses to 4 sin^4, whose integral is 4 * 3 pi / 8
    assert math.isclose(
        check_trig_norm(2).computed, 4 * (3 * math.pi / 8), rel_tol=1e-13
    )


def test_hypergeom_norm_ground_level():
    z_form = check_hypergeom_norm(0, "z")
    assert math.isclose(z_form.reference, 3 * math.pi / 128, rel_tol=1e-15)
    assert z_form.passed and z_form.rel_dev <= 1e-12
    x_form = check_hypergeom_norm(0, "x")
    assert math.isclose(x_form.reference, 3 * math.pi / 256, rel_tol=1e-15)
    assert x_form.passed


def test_hypergeom_norm_first_level():
    r = check_hypergeom_norm(1, "z")
    assert math.isclose(r.reference, math.pi / 256, rel_tol=1e-15)
    assert r.passed and r.rel_dev <= 1e-11


def test_hypergeom_norm_validation():
    with pytest.raises(ParameterError):
        check_hypergeom_norm(-1)
    with pytest.raises(ParameterError):
        check_hypergeom_norm(2, "bogus")


def test_expectation_x():
    r = check_expectation_x(2, 1.0)
    assert math.isclose(r.reference, math.pi / 4, rel_tol=1e-15)
    assert r.passed and r.abs_dev <= 1e-11
    # index independence and scale law
    assert math.isclose(check_expectation_x(7, 1.0).computed, math.pi / 4, rel_tol=1e-11)
    assert math.isclose(check_expectation_x(3, 2.0).computed, math.pi / 8, rel_tol=1e-11)
    for k, alpha in ((1, 1.0), (3, math.inf)):
        with pytest.raises(ParameterError):
            check_expectation_x(k, alpha)
    for bad in _BAD_RULES:
        with pytest.raises(ParameterError):
            check_expectation_x(3, 1.0, **bad)


def test_first_moment_forms():
    trig = check_first_moment(2, "trig")
    assert math.isclose(trig.reference, 3 * math.pi**2 / 4, rel_tol=1e-15)
    assert trig.passed
    assert math.isclose(
        check_first_moment(5, "trig").reference, 6 * math.pi**2, rel_tol=1e-15
    )
    hyp = check_first_moment(0, "hypergeom")
    assert math.isclose(hyp.reference, 3 * math.pi**2 / 1024, rel_tol=1e-15)
    assert hyp.passed and hyp.rel_dev <= 1e-11
    with pytest.raises(ParameterError):
        check_first_moment(1, "trig")
    with pytest.raises(ParameterError):
        check_first_moment(0, "nope")
    for bad in _BAD_RULES:
        with pytest.raises(ParameterError):
            check_first_moment(3, "trig", **bad)


def test_orthonormality_report():
    report = check_orthonormality(6)
    names = [c.name for c in report.checks]
    assert names[0] == "gram (2,2)"
    assert len(names) == 5 * 6 // 2  # upper triangle of a 5x5 Gram matrix
    assert report.overall
    assert max(c.abs_dev for c in report.checks) <= 1e-10
    diag = [c for c in report.checks if c.name == "gram (4,4)"]
    assert diag and math.isclose(diag[0].computed, 1.0, rel_tol=1e-10)
    with pytest.raises(ParameterError):
        check_orthonormality(1)
    for bad in _BAD_RULES:
        with pytest.raises(ParameterError):
            check_orthonormality(4, **bad)


def test_partner_mode_checks_sample_each_bracket_once(monkeypatch):
    # the four partner-mode families read one cached t grid per rule, so
    # together they sample each bracket once per node: the Gram matrix and
    # the trig norm, trig first moment and <x> of modes it already holds
    # add nothing.  No quadrature check evaluates the bracket point by point
    # or goes through the domain-checked chi_eval.
    samples = 0
    original = closed_form._bracket_rows

    def counted(ts):
        nonlocal samples
        for row in original(ts):
            samples += len(row)
            yield row

    def forbidden(*args):
        raise AssertionError("a quadrature check evaluated a bracket point by point")

    monkeypatch.setattr(closed_form, "_bracket_rows", counted)
    monkeypatch.setattr(closed_form, "chi_eval", forbidden)
    verify._quad_grid.cache_clear()
    order, panels = 16, 8
    k_max = 9
    for k in range(2, k_max + 1):
        assert check_trig_norm(k, order=order, panels=panels).passed
        assert check_first_moment(k, "trig", order=order, panels=panels).passed
        assert check_expectation_x(k, 1.37, order=order, panels=panels).passed
    assert check_orthonormality(k_max, 0.6024, order=order, panels=panels).overall
    assert samples == (k_max - 1) * order * panels


def test_partner_mode_sums_match_their_x_space_form():
    # the sums in t against the former integrals over x of partner-mode products:
    # bit for bit at alpha = 1, where x = t / 2 exactly on these nodes, and
    # within rounding at other alpha, where t / (2 alpha) is rounded
    def moment(f, length):
        def profile(x):
            v = chi(f, x)
            return x * v * v

        return integrate(profile, 0.0, length, 64, 32)

    for alpha, rel in ((1.0, 0.0), (0.6024, 2e-15)):
        length = math.pi / (2.0 * alpha)
        modes = {k: TrigEigenfunction(k, alpha) for k in range(2, 9)}
        gram = {c.name: c.computed for c in check_orthonormality(8, alpha).checks}
        for i, j in ((2, 2), (2, 3), (3, 7), (5, 5), (4, 8), (8, 8)):
            fi, fj = modes[i], modes[j]
            reference = integrate(
                lambda x: chi(fi, x) * chi(fj, x), 0.0, length, 64, 32
            )
            assert abs(gram[f"gram ({i},{j})"] - reference) <= rel * max(abs(reference), 1.0)
        for k in (2, 5, 8):
            reference = moment(modes[k], length)
            assert abs(check_expectation_x(k, alpha).computed - reference) <= rel * reference


def _per_point_rows(n_max):
    # the suite's level rows in their former per-point form (tests/oracles.py):
    # one scalar 2F1 call per node through integrate, the bound state and the
    # partner mode per point of the 1000-point interior grid, and the
    # identity sides point by point
    rows = {}
    step = (math.pi - 2e-3) / 999
    t_grid = [1e-3 + i * step for i in range(1000)]
    for n in range(n_max + 1):
        f = partial(f21_real, TerminatingHypergeometric(n, Fraction(n + 4), Fraction(5, 2)))

        def x_form(x, moment=False):
            s, c = math.sin(x), math.cos(x)
            v = f(s * s)
            return (x * (s * c) ** 4 if moment else (s * c) ** 4) * v * v

        def z_form(u):
            v = f(u * u * (3.0 - 2.0 * u))
            w = (u * (1.0 - u)) ** 4 * ((3.0 - 2.0 * u) * (1.0 + 2.0 * u)) ** 1.5
            return 6.0 * w * v * v

        half_pi = 0.5 * math.pi
        rows[f"hypergeom norm (x-form) n={n}"] = integrate(x_form, 0.0, half_pi, 64, 32)
        rows[f"hypergeom norm (z-form) n={n}"] = integrate(z_form, 0.0, 1.0, 64, 32)
        rows[f"first moment (hypergeom) n={n}"] = integrate(
            partial(x_form, moment=True), 0.0, half_pi, 64, 32)
        cfg, mode = WellConfig(1.0), TrigEigenfunction(n + 2, 1.0)
        amplitude = closed_form.normalization_A(n, 1.0)
        pairs = [(pt_eigen_hypergeom(cfg, PTParams(2.0, 2.0), n, amplitude, t / 2.0),
                  chi(mode, t / 2.0)) for t in t_grid]
        rows[f"bound-state correspondence n={n}"] = (
            max(abs(p - c) for p, c in pairs) / max(abs(c) for _, c in pairs))
    identities = [("base", n) for n in range(n_max + 1)] + [
        (which, m) for m in range(n_max // 2 + 1) for which in ("even", "odd")]
    for which, index in identities:
        n = {"base": index, "even": 2 * index, "odd": 2 * index + 1}[which]
        if which == "base":
            den, pref = 1.0, 4.0 * float(closed_form.coefficient_C(n))
        else:
            r, d = closed_form._midpoint_factor(n)
            den, pref = float(d), float(4 * r)
        h = TerminatingHypergeometric(n, Fraction(n + 4), Fraction(5, 2))
        pairs = []
        for t in t_grid:
            s_half, s_t = math.sin(0.5 * t), math.sin(t)
            pairs.append((f21_real(h, s_half * s_half) / den,
                          pref * stable_bracket(n + 2, t) / (s_t * s_t)))
        scale = max(abs(lhs) for lhs, _ in pairs)
        name = {"base": "identity (base) n=", "even": "identity (even ratio) m=",
                "odd": "identity (odd ratio) m="}[which] + str(index)
        rows[name] = max(abs(lhs - rhs) for lhs, rhs in pairs) / scale
    return rows


def test_suite_level_rows_equal_their_per_point_forms():
    # the level and mode tables change no bit of these rows at alpha = 1
    report = run_full_suite(alpha=1.0, n_max=6, grid_points=1000)
    computed = {c.name: c.computed for c in report.checks}
    expected = _per_point_rows(6)
    assert len(expected) == 7 * 5 + 8
    for name, value in expected.items():
        assert computed[name] == value, name


def test_suite_sweeps_instead_of_evaluating_point_by_point(monkeypatch):
    # run_full_suite reads every 2F1 value from a level table: no
    # f21_eval_real call, and no TerminatingHypergeometric per grid point, so
    # the constructions do not depend on the interior grid's size
    import sys

    def forbidden(*args):
        raise AssertionError("the suite called f21_eval_real")

    for name, module in list(sys.modules.items()):
        if name.startswith("ptdarboux") and hasattr(module, "f21_eval_real"):
            monkeypatch.setattr(module, "f21_eval_real", forbidden)
    built = 0
    original = TerminatingHypergeometric.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(TerminatingHypergeometric, "__new__", counted)
    counts = []
    try:
        for points in (200, 500):
            built = 0
            monkeypatch.setattr(verify, "INTERIOR_POINTS", points)
            verify._interior_grid.cache_clear()
            report = run_full_suite(n_max=10, grid_points=1000)
            assert report.overall
            assert len(verify._interior_grid().ts) == points
            counts.append(built)
    finally:
        verify._interior_grid.cache_clear()
    assert counts[0] > 0  # the hook sees the constructions it counts
    assert counts[0] == counts[1]


def test_suite_builds_one_potential_row(monkeypatch):
    # the residual reads one partner-potential row of the interior grid for
    # every k: 1,000 calls at n_max = 30, not 1,000 per residual row
    calls = 0
    original = closed_form.partner_potential

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(closed_form, "partner_potential", counted)
    verify._interior_grid.cache_clear()
    try:
        report = run_full_suite(n_max=30, grid_points=1000)
    finally:
        verify._interior_grid.cache_clear()
    assert report.overall
    assert sum(c.name.startswith("residual") for c in report.checks) == 29
    assert calls == verify.INTERIOR_POINTS == 1000


def test_suite_reads_every_partner_mode_from_its_t_grid(monkeypatch):
    # the residual's derivatives and every bracket come from TGrid sweeps of
    # the suite's own grids: no one-point read of a partner mode
    import sys

    def forbidden(*args):
        raise AssertionError("the suite evaluated a partner mode point by point")

    names = ("chi_derivatives", "chi_eval")
    for name, module in list(sys.modules.items()):
        if name.startswith("ptdarboux"):
            for fn in names:
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, forbidden)
    assert run_full_suite(n_max=10, grid_points=1000).overall


def test_gram_matrix_rejects_a_non_finite_mode_value(monkeypatch):
    # each normalized row is checked once; the error names the abscissa
    original = closed_form._bracket_rows

    def spoiled(ts):
        for k, row in enumerate(original(ts), start=2):
            if k == 3:
                row = array("d", row)
                row[100] = math.inf
            yield row

    monkeypatch.setattr(closed_form, "_bracket_rows", spoiled)
    verify._quad_grid.cache_clear()
    x = verify._nodes(0.0, math.pi, 64, 32)[0][100]
    try:
        with pytest.raises(EvaluationError, match=re.escape(f"returned inf at x={x}")):
            check_orthonormality(4)
    finally:
        verify._quad_grid.cache_clear()


def test_residual_partner_modes():
    for k in (2, 10):
        r = check_residual(k, 1.0)
        assert r.passed and r.computed <= 1e-8
        assert r.name == f"residual (partner) k={k} alpha=1.0"
    with pytest.raises(ParameterError):
        check_residual(1, 1.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_unit_scale_checks_reject_an_alpha_no_well_has(monkeypatch, alpha):
    # the residual and the correspondence run at alpha = 1, so they must
    # validate the caller's alpha before any row is swept or the potential
    # row is built; the cached grid is cleared, since a grid swept earlier
    # would hide a late validation
    def forbidden(*args):
        raise AssertionError("a row was swept before alpha was validated")
        yield

    def forbidden_potential(*args):
        raise AssertionError("the potential row was built before alpha was validated")

    monkeypatch.setattr(closed_form, "_derivative_rows", forbidden)
    monkeypatch.setattr(closed_form, "_bracket_rows", forbidden)
    monkeypatch.setattr(hypergeom, "_jacobi_rows", forbidden)
    monkeypatch.setattr(closed_form, "partner_potential", forbidden_potential)
    verify._interior_grid.cache_clear()
    try:
        with pytest.raises(ParameterError):
            check_residual(3, alpha)
        with pytest.raises(ParameterError):
            check_correspondence(2, alpha)
    finally:
        verify._interior_grid.cache_clear()


@pytest.mark.parametrize("alpha", [1e-320, 1e308])
def test_unit_scale_quadrature_rows_at_extreme_alpha(alpha):
    # the Gram matrix and the residual are dimensionless, so they are their
    # alpha = 1 rows bit for bit even where 2 alpha and the alpha-dependent
    # norms would underflow or overflow; <x> is the unit-scale sum over alpha
    gram = check_orthonormality(4, alpha)
    assert gram.overall
    assert gram.checks == check_orthonormality(4, 1.0).checks
    residual = check_residual(5, alpha)
    assert residual.passed
    assert residual.computed == check_residual(5, 1.0).computed
    mean = check_expectation_x(3, alpha)
    assert mean.reference == math.pi / (4.0 * alpha)
    if math.isinf(mean.reference):
        # below alpha ~ 4e-309 pi/(4 alpha) itself overflows: a failed row
        assert not mean.passed and math.isnan(mean.rel_dev)
    else:
        assert mean.passed, mean


def test_fd_spectrum_converges_to_exact_energies():
    modes = fd_spectrum(1.0, 1000, 3)
    exact = [16.0, 36.0, 64.0]
    assert modes == sorted(modes)
    for computed, target in zip(modes, exact):
        assert abs(computed - target) / target <= 1e-5
    # the discretization approaches each level from below at O(h^2)
    assert all(computed < target for computed, target in zip(modes, exact))


def test_fd_spectrum_grid_refinement_improves():
    coarse = fd_spectrum(1.0, 1000, 3)
    fine = fd_spectrum(1.0, 2000, 3)
    exact = [16.0, 36.0, 64.0]
    for c, f, e in zip(coarse, fine, exact):
        assert abs(f - e) < abs(c - e)


def test_fd_spectrum_scale_law():
    modes = fd_spectrum(2.0, 1000, 2)
    for computed, target in zip(modes, [64.0, 144.0]):
        assert abs(computed - target) / target <= 1e-4


def test_fd_spectrum_no_mode_below_the_ground_level():
    # the annihilated seed level 4 alpha^2 must not reappear: the lowest
    # partner mode sits at 16 alpha^2 (up to discretization defect)
    modes = fd_spectrum(1.0, 2000, 3)
    tol = DEFAULT_TOLERANCES["fd_spectrum"]
    assert all(m >= 16.0 * (1 - tol) for m in modes)


def test_fd_spectrum_validation():
    assert fd_spectrum(1.0, 500, 0) == []
    with pytest.raises(ParameterError):
        fd_spectrum(0.0, 500, 2)
    with pytest.raises(ParameterError):
        fd_spectrum(math.nan, 500, 2)
    with pytest.raises(ParameterError):
        fd_spectrum(1.0, 99, 2)
    with pytest.raises(ParameterError):
        fd_spectrum(1.0, 500, 11)
    with pytest.raises(ParameterError):
        fd_spectrum(1.0, 500, -1)


@pytest.mark.parametrize("alpha", [1e-170, 5e153, math.inf])
def test_fd_rows_reject_an_unusable_energy_scale(alpha):
    # at 1e-170 the scale 4 alpha^2 underflows and every mode and energy
    # would read 0 = 0; at inf every mode would read inf; at 5e153 the scale
    # is a normal float but its product with the bracket top overflows
    with pytest.raises(ParameterError):
        fd_spectrum(alpha, 100, 1)
    with pytest.raises(ParameterError):
        check_fd_spectrum(alpha, 1000, 3)
    report = run_full_suite(alpha=alpha, n_max=0, grid_points=1000)
    (fd_row,) = [c for c in report.checks if c.name.startswith("fd spectrum")]
    assert "ParameterError" in fd_row.name and not fd_row.passed
    assert not report.overall


def _plain_fd_spectrum(alpha, grid_points, count):
    """The reference: bisection with one Sturm sweep at every midpoint."""
    scale = 4.0 * alpha * alpha
    h = math.pi / grid_points
    inv_h2 = 1.0 / (h * h)
    diag = []
    for i in range(grid_points):
        s = math.sin((i + 0.5) * h)
        diag.append(2.0 * inv_h2 + 2.0 / (s * s))
    off_sq = inv_h2 * inv_h2

    def count_below(lam):
        negatives = 0
        q = 1.0
        for i, d in enumerate(diag):
            q = d - lam - (off_sq / q if i else 0.0)
            if q == 0.0:
                q = -1e-300
            if q < 0.0:
                negatives += 1
        return negatives

    hi = 4.0 * (count + 2) ** 2
    while count_below(hi) < count:
        hi *= 2.0
    eigenvalues = []
    for mode in range(1, count + 1):
        lo, up = 0.0, hi
        while up - lo > 1e-10 * up:
            mid = 0.5 * (lo + up)
            if count_below(mid) >= mode:
                up = mid
            else:
                lo = mid
        eigenvalues.append(scale * (0.5 * (lo + up)))
    return eigenvalues


def _fd_cases():
    rng = random.Random(20151)
    cases = [(rng.uniform(0.5, 2.0), rng.randint(100, 6000), rng.randint(1, 10))
             for _ in range(19)]
    return cases + [(1e-6, rng.randint(100, 6000), 10)]


@pytest.mark.parametrize("alpha,grid_points,count", _fd_cases())
def test_fd_spectrum_equals_plain_bisection(alpha, grid_points, count):
    assert fd_spectrum(alpha, grid_points, count) == _plain_fd_spectrum(alpha, grid_points, count)


def test_fd_spectrum_frozen_bits():
    assert [m.hex() for m in fd_spectrum(1.0, 4000, 3)] == [
        "0x1.fffffdb384000p+3", "0x1.1ffffb94c2000p+5", "0x1.ffffeefb8c000p+5"]
    assert [m.hex() for m in fd_spectrum(0.6024, 1000, 10)] == [
        "0x1.7398386d3c9a9p+2", "0x1.a20af6e87caffp+3", "0x1.73978d94f98f0p+4",
        "0x1.224df3b1c191fp+5", "0x1.a20906ddc9561p+5", "0x1.1c7e59dc6c77fp+6",
        "0x1.73944f54d5ae9p+6", "0x1.d6462e895d6c4p+6", "0x1.2249dd54de987p+7",
        "0x1.5f3e57b1ee3e8p+7"]


def test_fd_spectrum_sweeps_few_counts(monkeypatch):
    sweeps = []

    def counted(sweep):
        def wrapper(*args):
            sweeps.append(sweep.__name__)
            return sweep(*args)
        return wrapper

    for name in ("_sturm_count", "_sturm_newton"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    fd_spectrum(1.0, 4000, 3)
    # bisection with a sweep at every midpoint makes 112
    assert 0 < len(sweeps) <= 40


@lru_cache(maxsize=1)
def _fd_matrix_and_modes():
    # at alpha = 1/2 the scale 4 alpha^2 is 1: the modes of the matrix itself
    return verify._fd_matrix(4000), fd_spectrum(0.5, 4000, 10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.lists(st.floats(-1e-7, 1e-7), min_size=2, max_size=12))
def test_sturm_count_is_monotone_near_each_mode(mode, offsets):
    matrix, modes = _fd_matrix_and_modes()
    lams = sorted(modes[mode] * (1.0 + offset) for offset in offsets)
    counts = [verify._sturm_count(*matrix, lam) for lam in lams]
    assert counts == sorted(counts)
    assert {mode, mode + 1} >= set(counts)


def test_run_full_suite_small():
    report = run_full_suite(n_max=4, grid_points=1000)
    assert report.overall
    assert report.parameters["n_max"] == 4
    names = [c.name for c in report.checks]
    assert names[0] == "coefficient C_0"
    assert "trig norm k=2" in names
    assert "identity (odd ratio) m=2" in names
    assert "fd mode 2" in names
    # deterministic ordering
    second = run_full_suite(n_max=4, grid_points=1000)
    assert [c.name for c in second.checks] == names


def test_run_full_suite_check_names_are_pinned():
    # consumers key on these names: the full ordered list at n_max = 2
    names = [c.name for c in run_full_suite(n_max=2, grid_points=1000).checks]
    assert names == [
        "coefficient C_0", "coefficient C_1", "coefficient C_2",
        *(f"midpoint vanishing m={m}" for m in range(26)),
        "trig norm k=2", "trig norm k=3", "trig norm k=4",
        "hypergeom norm (x-form) n=0", "hypergeom norm (z-form) n=0",
        "hypergeom norm (x-form) n=1", "hypergeom norm (z-form) n=1",
        "hypergeom norm (x-form) n=2", "hypergeom norm (z-form) n=2",
        "expectation <x> k=2 alpha=1.0",
        "first moment (trig) k=2",
        "first moment (hypergeom) n=0", "first moment (hypergeom) n=1",
        "first moment (hypergeom) n=2",
        "gram (2,2)",
        "residual (partner) k=2 alpha=1.0",
        "bound-state correspondence n=0", "bound-state correspondence n=1",
        "bound-state correspondence n=2",
        "identity (base) n=0", "identity (base) n=1", "identity (base) n=2",
        "identity (even ratio) m=0", "identity (odd ratio) m=0",
        "identity (even ratio) m=1", "identity (odd ratio) m=1",
        "fd mode 0", "fd mode 1", "fd mode 2",
    ]


def test_suite_spec_names_match_their_rows():
    # a check that raises is recorded under its spec's name, so that name
    # must be the one the check gives its row when it passes
    specs = _suite_specs(1.0, 2, 64, 32, resolve_tolerances(), 1000)
    singles = 0
    for name, _, thunk in specs:
        result = thunk()
        if isinstance(result, CheckResult):
            assert name == result.name
            singles += 1
    assert singles == len(specs) - 2  # all but the Gram matrix and fd spectrum


@pytest.mark.parametrize("alpha", [0.73, 0.783, 0.685, 1.502])
def test_run_full_suite_identity_rows_at_round_trip_alphas(alpha):
    # at these alpha the x -> t round trip of an x grid put the last node
    # one ulp inside the wall margin; the identity grid now lives in t
    report = run_full_suite(alpha=alpha, n_max=2)
    identity_rows = [c for c in report.checks if c.name.startswith("identity")]
    assert len(identity_rows) == 7
    assert all(c.passed and "[error" not in c.name for c in identity_rows)
    assert report.overall


@pytest.fixture(scope="module")
def unit_alpha_suite():
    return run_full_suite(alpha=1.0, n_max=4)


@pytest.mark.parametrize("alpha", [1e-8, 1e-3, 1e3, 1e8])
def test_run_full_suite_does_not_depend_on_alpha(alpha, unit_alpha_suite):
    # every check is dimensionless once alpha is scaled out: energies by
    # 4 alpha^2, lengths by 1/alpha, amplitudes by sqrt(alpha).  The
    # identities, the correspondence, the residuals and the Gram matrix run
    # at unit scale, so their rows are the alpha = 1 rows bit for bit
    report = run_full_suite(alpha=alpha, n_max=4)
    assert report.overall
    assert len(report.checks) == len(unit_alpha_suite.checks)
    unit_scale = ("identity", "bound-state correspondence", "residual", "gram")
    exact = 0
    for row, unit in zip(report.checks, unit_alpha_suite.checks):
        assert row.name.replace(f"alpha={alpha}", "alpha=1.0") == unit.name
        if row.name.startswith(unit_scale):
            exact += 1
            assert row.computed == unit.computed, row.name
            assert row.abs_dev == unit.abs_dev, row.name
            assert row.rel_dev == unit.rel_dev, row.name
        else:
            assert abs(row.rel_dev - unit.rel_dev) <= 1e-11, row.name
    # identities, correspondence, residuals, Gram entries
    assert exact == (5 + 3 + 3) + 5 + 3 + 6


def test_run_full_suite_builds_only_the_t_and_z_node_sets(monkeypatch):
    # every quadrature row sums over the rule on t in (0, pi) or on u in
    # (0, 1); the x form reads the t nodes at x = t / 2
    built = set()
    original = verify._nodes

    def recording(a, b, order, panels):
        built.add((a, b))
        return original(a, b, order, panels)

    monkeypatch.setattr(verify, "_nodes", recording)
    verify._quad_grid.cache_clear()
    verify._level_table.cache_clear()
    assert run_full_suite(n_max=2).overall
    assert built == {(0.0, math.pi), (0.0, 1.0)}


def test_check_identity_is_alpha_free_and_matches_the_suite():
    # base n >= 43, even m >= 22 and odd m >= 21 are where a coarser suite
    # grid's worst deviation differed from the subcommand's
    indices = [("base", 0), ("base", 2), ("even", 1), ("odd", 1),
               ("base", 43), ("even", 22), ("odd", 21)]
    results = {(which, i): check_identity(which, i) for which, i in indices}
    rows = {c.name: c for c in run_full_suite(alpha=0.6024, n_max=44).checks}
    for result in results.values():
        assert result.passed and result.reference == 0.0
        assert rows[result.name] == result
    assert results[("base", 2)].name == "identity (base) n=2"
    assert results[("odd", 1)].name == "identity (odd ratio) m=1"


def test_check_identity_validation():
    with pytest.raises(ParameterError):
        check_identity("bogus", 0)
    with pytest.raises(ParameterError):
        check_identity("base", -1)


def test_check_correspondence():
    r = check_correspondence(3, 0.6024)
    assert r.name == "bound-state correspondence n=3"
    assert r.passed and r.computed <= 1e-10


@pytest.mark.parametrize("alpha", [1.0, 0.6024])
def test_suite_correspondence_rows_equal_check_correspondence(alpha):
    rows = [c for c in run_full_suite(alpha=alpha, n_max=10).checks
            if c.name.startswith("bound-state correspondence")]
    assert rows == [check_correspondence(n, alpha) for n in range(11)]


def test_check_fd_spectrum_rows():
    report = check_fd_spectrum(2.0, 1000, 3)
    assert [c.name for c in report.checks] == ["fd mode 0", "fd mode 1", "fd mode 2"]
    assert [c.computed for c in report.checks] == fd_spectrum(2.0, 1000, 3)
    assert [c.reference for c in report.checks] == [64.0, 144.0, 256.0]
    assert report.overall
    assert report.parameters == {"alpha": 2.0, "grid_points": 1000, "count": 3}
    assert check_fd_spectrum(1.0, 500, 0).checks == ()
    strict = check_fd_spectrum(1.0, 500, 2, tolerance=1e-12)
    assert not strict.overall


def test_run_full_suite_minimal_range():
    report = run_full_suite(n_max=0, grid_points=1000)
    names = [c.name for c in report.checks]
    assert "trig norm k=2" in names
    assert report.overall


def test_run_full_suite_rejects_bad_range():
    with pytest.raises(ParameterError):
        run_full_suite(n_max=-1)


def test_run_full_suite_is_falsifiable(monkeypatch):
    # corrupt the exact coefficient table: every check that leans on it
    # must fail, while coefficient-free checks keep passing
    from fractions import Fraction

    monkeypatch.setattr(closed_form, "coefficient_C", lambda n: Fraction(-1, 7))
    report = run_full_suite(n_max=2, grid_points=1000)
    assert not report.overall
    failed = {c.name for c in report.checks if not c.passed}
    assert "coefficient C_0" in failed
    assert any(name.startswith("hypergeom norm") for name in failed)
    assert any(name.startswith("identity (base)") for name in failed)
    passed = {c.name for c in report.checks if c.passed}
    assert "trig norm k=2" in passed  # independent of the coefficient table
    assert any(name.startswith("identity (even ratio)") for name in passed)


def test_run_full_suite_never_aborts(monkeypatch):
    def boom(n):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(closed_form, "coefficient_C", boom)
    report = run_full_suite(n_max=2, grid_points=1000)
    assert not report.overall
    assert any("error" in c.name and "synthetic failure" in c.name for c in report.checks)
    assert any(c.passed for c in report.checks)  # independent checks still ran


def test_panel_doubling_convergence_sanity():
    # doubling panels must not degrade a check by more than 10x (allowing a
    # rounding floor of 1e-14 relative for checks already at machine noise)
    cases = [
        lambda panels: check_trig_norm(5, panels=panels),
        lambda panels: check_hypergeom_norm(3, "z", panels=panels),
        lambda panels: check_expectation_x(4, 1.0, panels=panels),
    ]
    for make in cases:
        base = make(32)
        doubled = make(64)
        floor = 1e-14
        assert doubled.rel_dev <= max(10 * base.rel_dev, floor)


def test_check_result_serialization():
    r = check_trig_norm(2)
    d = r.to_dict()
    assert isinstance(r, CheckResult)
    assert set(d) == {
        "name", "computed", "reference", "abs_dev", "rel_dev", "tolerance", "passed",
    }
    report = check_orthonormality(3)
    payload = report.to_dict()
    assert set(payload) == {"parameters", "overall", "checks"}
    assert payload["overall"] is True
