"""Quadrature checks, reports, the finite-difference spectrum, and the suite."""
import inspect
import math
import operator
import os
import random
import re
import signal
import subprocess
import sys
from array import array
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fd_certificate
from oracles import (
    ascending_rule,
    chebyshev_u_slope,
    chi,
    f21_real,
    fsum_partials,
    integrate,
    integrate_product,
    jacobi_real,
    mutant,
    pt_eigen_hypergeom,
    sturm_count_decimal,
)
from ptdarboux import closed_form, darboux, hypergeom, verify
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
    # -0.0 passes the >= 0 rule and resolves to 0.0, the value reported
    assert math.copysign(1.0, resolve_tolerances({"fd_spectrum": -0.0})["fd_spectrum"]) == 1.0


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
    # the four partner-mode families of a suite read one table of the t
    # rule's mode rows, so together they sample each bracket once per node:
    # the Gram matrix and the trig norm, trig first moment and <x> of modes
    # the table holds add nothing.  No quadrature check evaluates the
    # bracket point by point or goes through the domain-checked chi_eval.
    samples = 0
    original = closed_form._bracket
    order, panels = 16, 8

    def counted(sin_sq, slope, scale):
        nonlocal samples
        row = original(sin_sq, slope, scale)
        if len(sin_sq) == order * panels:  # the t rule's rows, not the interior grid's
            samples += len(row)
        return row

    def forbidden(*args):
        raise AssertionError("a quadrature check evaluated a bracket point by point")

    monkeypatch.setattr(closed_form, "_bracket", counted)
    monkeypatch.setattr(closed_form, "chi_eval", forbidden)
    n_max = 9
    report = run_full_suite(0.6024, n_max, order, panels, grid_points=1000)
    assert report.overall
    assert samples == (n_max + 1) * order * panels  # k = 2..n_max + 2, the trig norm's


def test_suite_takes_each_t_rule_integral_once(monkeypatch):
    # one sum per distinct integral: the K(K+1)/2 Gram pairs (the diagonal
    # is the trig norm's D), one D and one M per trig-norm mode (the M is the
    # trig first moment's and <x>'s; the two modes above the moment range
    # take theirs with their D, from the one weighted row both sums read)
    # and one D and one M per level (x-form norm and hypergeometric first
    # moment); the z rule's one sum per level runs through the same kernel
    sums = 0
    original = verify._t_sum

    def counted(nodes, weighted, row):
        nonlocal sums
        sums += 1
        return original(nodes, weighted, row)

    monkeypatch.setattr(verify, "_t_sum", counted)
    n_max = 4
    assert run_full_suite(n_max=n_max, grid_points=1000).overall
    partners = n_max - 1  # k = 2..n_max
    assert sums == partners * (partners + 1) // 2 + 2 + (partners + 2) + 3 * (n_max + 1)


@pytest.mark.parametrize("order, panels", [(64, 32), (7, 5), (9, 1), (64, 1), (8, 3), (3, 4)])
def test_the_rule_is_the_ascending_rule_from_its_middle_out(order, panels):
    # the same (abscissa, weight) pairs as the ascending composite rule; the
    # first is the middle panel's node nearest that panel's centre, which is
    # the node nearest the interval's middle when both counts are odd
    for a, b in ((0.0, math.pi), (0.0, 1.0)):
        abscissae, weights, half = verify._nodes(a, b, order, panels)
        ascending = ascending_rule(a, b, order, panels)
        assert sorted(zip(abscissae, weights)) == sorted(zip(*ascending))
        assert half == 0.5 * ((b - a) / panels)
        centre = a + ((panels - 1) // 2 + 0.5) * ((b - a) / panels)
        assert abs(abscissae[0] - centre) <= min(abs(x - centre) for x in abscissae) + 1e-15
        if order % 2 and panels % 2:
            assert abs(abscissae[0] - 0.5 * (a + b)) <= 1e-15


def _rule_sums(n_max):
    # every t-rule sum (each mode's D and M, each Gram pair, each level's D
    # and M) and every z-rule sum of the suite at n_max, built afresh
    nodes = verify._nodes(0.0, math.pi, 64, 32)
    modes = verify._mode_sums(64, 32, range(2, n_max + 3))
    levels = verify._level_sums(64, 32, range(n_max + 1))
    z_levels = verify._z_level_sums(64, 32, range(n_max + 1))
    sums = {(k, kind): modes[k][1][kind]
            for k in range(2, n_max + 3) for kind in ("D", "M")}
    for i in range(2, n_max + 1):
        weighted = verify._weigh(nodes, modes[i][0])
        for j in range(i + 1, n_max + 1):
            sums[i, j] = verify._t_sum(nodes, weighted, modes[j][0])
    for n in range(n_max + 1):
        sums["level", n] = levels[n]
        sums["z", n] = z_levels[n]
    return sums


def test_every_rule_sum_equals_the_ascending_rules_bit_for_bit(monkeypatch):
    # fsum is correctly rounded and each row is computed node by node, so
    # taking the rule from its middle out changes no bit of any sum
    middle_out = _rule_sums(10)
    monkeypatch.setattr(verify, "_nodes", lambda a, b, order, panels: (
        *ascending_rule(a, b, order, panels), 0.5 * ((b - a) / panels)))
    ascending = _rule_sums(10)
    assert len(middle_out) == 11 * 2 + 9 * 8 // 2 + 11 * 2
    assert repr(middle_out) == repr(ascending)


def test_gram_sums_walk_few_fsum_partials():
    # math.fsum adds each term to every partial it holds.  From the middle
    # out the large terms come first and the tiny wall terms (down to 1e-20)
    # last, so the 15 Gram pairs of k = 2..6 at the default rule walk 3.8
    # partials per term; from wall to wall they walked 15.6
    nodes = verify._nodes(0.0, math.pi, 64, 32)
    modes = {k: row for k, (row, _) in verify._mode_sums(64, 32, range(2, 7)).items()}
    work = []
    for i in range(2, 7):
        weighted = verify._weigh(nodes, modes[i])
        work += [fsum_partials(list(map(operator.mul, weighted, modes[j])))
                 for j in range(i, 7)]
    assert len(work) == 15
    assert sum(work) / len(work) <= 4.35


def test_partner_mode_sums_match_their_x_space_form():
    # the sums in t against the integrals over x of partner-mode products,
    # both summed as sum (w a) b: bit for bit at alpha = 1, where x = t / 2
    # exactly on these nodes, and within rounding at other alpha, where
    # t / (2 alpha) is rounded
    for alpha, rel in ((1.0, 0.0), (0.6024, 2e-15)):
        length = math.pi / (2.0 * alpha)
        modes = {k: partial(chi, TrigEigenfunction(k, alpha)) for k in range(2, 9)}
        gram = {c.name: c.computed for c in check_orthonormality(8, alpha).checks}
        for i, j in ((2, 2), (2, 3), (3, 7), (5, 5), (4, 8), (8, 8)):
            reference = integrate_product(modes[i], modes[j], 0.0, length, 64, 32)
            assert abs(gram[f"gram ({i},{j})"] - reference) <= rel * max(abs(reference), 1.0)
        for k in (2, 5, 8):
            mode = modes[k]
            reference = integrate_product(mode, lambda x: x * mode(x), 0.0, length, 64, 32)
            assert abs(check_expectation_x(k, alpha).computed - reference) <= rel * reference


def _per_point_rows(n_max):
    # the suite's level rows in their former per-point form (tests/oracles.py):
    # one scalar 2F1 call per node through integrate or, in the t-rule sums'
    # association, integrate_product, the bound state and the
    # partner mode per point of the 1000-point interior grid, and the
    # identity sides point by point
    rows = {}
    step = (math.pi - 2e-3) / 999
    t_grid = [1e-3 + i * step for i in range(1000)]
    for n in range(n_max + 1):
        h = TerminatingHypergeometric(n, Fraction(n + 4), Fraction(5, 2))

        def level(x):
            s, c = math.sin(x), math.cos(x)
            return (s * s) * (c * c) * jacobi_real(h, math.cos(2.0 * x))

        def z_form(u):
            v = f21_real(h, u * u * (3.0 - 2.0 * u))
            w = (u * (1.0 - u)) ** 4 * ((3.0 - 2.0 * u) * (1.0 + 2.0 * u)) ** 1.5
            return 6.0 * w * v * v

        half_pi = 0.5 * math.pi
        rows[f"hypergeom norm (x-form) n={n}"] = integrate_product(
            level, level, 0.0, half_pi, 64, 32)
        rows[f"hypergeom norm (z-form) n={n}"] = integrate(z_form, 0.0, 1.0, 64, 32)
        rows[f"first moment (hypergeom) n={n}"] = integrate_product(
            level, lambda x: x * level(x), 0.0, half_pi, 64, 32)
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
            r, d = (Fraction(*pair) for pair in closed_form._midpoint_factor(n))
            den, pref = float(d), float(4 * r)
        h = TerminatingHypergeometric(n, Fraction(n + 4), Fraction(5, 2))
        pairs = []
        for t in t_grid:
            c = math.cos(t)
            pairs.append((jacobi_real(h, c) / den, -pref * chebyshev_u_slope(n + 1, c)))
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


@pytest.mark.parametrize("module, name, old, new", [
    (hypergeom, "_jacobi_rows", "slope = (s - 1.0) * (s * (s - 2.0)) / den",
     "slope = (s - 1.0) * (s * (s - 2.0)) / den * (1 + 1e-9)"),
    (closed_form, "_u_rows", "4.0 * c * c - 2.0 for", "(4.0 * c * c - 2.0) * (1 + 1e-9) for"),
    (closed_form, "_u_rows", "2.0 * j", "(2.0 + 1e-7) * j"),
], ids=["level-slope", "u-step-y", "u-derivative-2j"])
def test_identity_rows_catch_a_defect_in_either_recurrence(monkeypatch, module, name, old, new):
    # both sides of an identity read the interior grid's one cos t row, so
    # its rows still set the level recurrence against the U recurrence: a
    # level step's slope 1e-9 off, a U step's y 1e-9 off, or a derivative
    # step's 2j taken as (2 + 1e-7) j, each fails identity rows at the
    # default tolerance 1e-9 (19, 15 and all 23 of them at n_max = 10)
    def failed_identities():
        return [c.name for c in run_full_suite(n_max=10).checks
                if c.name.startswith("identity") and not c.passed]

    assert failed_identities() == []
    monkeypatch.setattr(module, name, mutant(getattr(module, name), old, new))
    assert len(failed_identities()) >= 15


def test_suite_sweeps_instead_of_evaluating_point_by_point(monkeypatch):
    # run_full_suite reads every 2F1 value from a level sweep: no
    # f21_eval_real call, and no exact evaluation (_f21_exact, the integer
    # sweep behind the midpoint rows and C_n) per grid point, so the exact
    # evaluations do not depend on the interior grid's size
    import sys

    def forbidden(*args):
        raise AssertionError("the suite called f21_eval_real")

    evaluated = 0
    original = hypergeom._f21_exact

    def counted(*args):
        nonlocal evaluated
        evaluated += 1
        return original(*args)

    grids = []
    interior_rows = verify._interior_rows

    def recorded(*args):
        grids.append(interior_rows(*args))
        return grids[-1]

    for name, module in list(sys.modules.items()):
        if name.startswith("ptdarboux") and hasattr(module, "f21_eval_real"):
            monkeypatch.setattr(module, "f21_eval_real", forbidden)
        if name.startswith("ptdarboux") and hasattr(module, "_f21_exact"):
            monkeypatch.setattr(module, "_f21_exact", counted)
    monkeypatch.setattr(verify, "_interior_rows", recorded)
    counts = []
    try:
        for points in (200, 500):
            evaluated = 0
            monkeypatch.setattr(verify, "INTERIOR_POINTS", points)
            closed_form._midpoint_factor.cache_clear()
            report = run_full_suite(n_max=10, grid_points=1000)
            assert report.overall
            assert len(grids.pop().ts) == points and not grids
            counts.append(evaluated)
    finally:
        closed_form._midpoint_factor.cache_clear()
    assert counts[0] > 0  # the hook sees the evaluations it counts
    assert counts[0] == counts[1]


def test_suite_builds_one_potential_row(monkeypatch):
    # the residual reads one partner-potential row of the interior grid for
    # every k: one row build of 1,000 points at n_max = 30, not one per
    # residual row, and no scalar partner_potential call
    rows = []
    original = closed_form._partner_potentials

    def counted(cfg, xs):
        rows.append(original(cfg, xs))
        return rows[-1]

    def forbidden(*args):
        raise AssertionError("the suite evaluated the potential point by point")

    monkeypatch.setattr(closed_form, "_partner_potentials", counted)
    monkeypatch.setattr(darboux, "partner_potential", forbidden)
    report = run_full_suite(n_max=30, grid_points=1000)
    assert report.overall
    assert sum(c.name.startswith("residual") for c in report.checks) == 29
    assert [len(row) for row in rows] == [verify.INTERIOR_POINTS] == [1000]


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


def _spoil_t_rule_mode(monkeypatch, k, spoil):
    # spoil(row) stands for the default t rule's normalized mode row of
    # index k, formed as its bracket is (closed_form._bracket at the rule's
    # length and N_k); every interior grid row stays clean
    bracket, norm = closed_form._bracket, TrigEigenfunction(k, 1.0).norm

    def spoiled(sin_sq, slope, scale):
        row = bracket(sin_sq, slope, scale)
        if len(sin_sq) == verify.QUAD_ORDER * verify.PANELS and scale == norm:
            return spoil(row)
        return row

    monkeypatch.setattr(closed_form, "_bracket", spoiled)


def test_gram_matrix_rejects_a_non_finite_mode_value(monkeypatch):
    # each normalized row is checked once; the error names the abscissa.
    # A table whose sweep reaches the spoiled k = 3 row keeps nothing and
    # raises that row's error, so every read that needs k = 3 raises it and
    # none returns the row of another index under k = 3's name; a read of
    # another k alone builds only its own row and passes.  In a suite the
    # table's build keeps nothing, so each row builds its own and gives the
    # row of those standalone calls
    _spoil_t_rule_mode(monkeypatch, 3, lambda row: [*row[:100], math.inf, *row[101:]])
    x = verify._nodes(0.0, math.pi, 64, 32)[0][100]
    error = f"integrand returned inf at x={x}"
    for check in (partial(check_orthonormality, 4), partial(check_trig_norm, 3),
                  partial(check_trig_norm, 3), partial(check_expectation_x, 3)):
        with pytest.raises(EvaluationError, match=re.escape(error)):
            check()
    assert check_trig_norm(2).passed and check_trig_norm(9).passed
    rows = {c.name: c for c in run_full_suite(n_max=3, grid_points=1000).checks}
    for name in ("trig norm k=3", "expectation <x> k=3 alpha=1.0",
                 "first moment (trig) k=3", "gram matrix"):
        assert f"{name} [error: EvaluationError: {error}]" in rows
    assert rows["trig norm k=2"] == check_trig_norm(2)
    assert rows["trig norm k=5"] == check_trig_norm(5)
    assert rows["first moment (trig) k=2"].passed
    assert all(c.passed for name, c in rows.items() if "[error:" not in name)  # the interior k = 3 too


def _spoil(row, spoil):
    # a copy of the row with spoil's last value at node 300, first in the
    # rule's order, and any other at node 700
    row = list(row)
    for node, value in zip((300, 700), reversed(spoil)):
        row[node] = value
    return row


@pytest.mark.parametrize("spoil", [(math.nan,), (math.inf,), (math.inf, -math.inf)],
                         ids=["nan", "inf", "inf-and-minus-inf"])
def test_a_non_finite_row_value_is_found_from_its_sums(monkeypatch, spoil):
    # a mode row, a t-rule level row and a z-rule level are checked from
    # their sums, not scanned first: a NaN or an inf makes a sum non-finite,
    # and +inf with -inf makes fsum raise ValueError; each raises the error
    # a scan first would, naming the first non-finite value in the rule's
    # order (the z rule squares its level, so its -inf sums as +inf).  A
    # finite row whose products overflow keeps its sums or fsum's own error
    first = spoil[-1]
    t_x = verify._nodes(0.0, math.pi, 64, 32)[0][300]
    u_x = verify._nodes(0.0, 1.0, 64, 32)[0][300]
    _spoil_t_rule_mode(monkeypatch, 3, lambda row: _spoil(row, spoil))
    jacobi_rows = hypergeom._jacobi_rows
    # level 2 of every level sweep (closed_form._level_rows): the t rule's,
    # at its cos t row, and the z rule's, at its row 1 - 2z
    monkeypatch.setattr(hypergeom, "_jacobi_rows", lambda a, xs, ns: (
        (n, _spoil(row, spoil) if n == 2 else row) for n, row in jacobi_rows(a, xs, ns)))
    for check, value, x in ((partial(check_trig_norm, 3), first, t_x),
                            (partial(check_hypergeom_norm, 2, "x"), first, t_x),
                            (partial(check_hypergeom_norm, 2, "z"), abs(first), u_x)):
        with pytest.raises(EvaluationError, match=re.escape(
                f"integrand returned {value} at x={x}") + "$"):
            check()
    assert check_trig_norm(4).passed and check_hypergeom_norm(1, "z").passed
    abscissae = verify._nodes(0.0, 1.0, 64, 32)[0]
    spoiled = dict(zip(abscissae, _spoil([1.0] * len(abscissae), spoil)))
    with pytest.raises(EvaluationError, match=re.escape(
            f"integrand returned {first} at x={u_x}") + "$"):
        integrate(spoiled.__getitem__, 0.0, 1.0, 64, 32)
    t_nodes = verify._nodes(0.0, math.pi, 64, 32)
    assert verify._moment_sums(t_nodes, [1e300] * len(t_nodes[0])) == {"D": math.inf,
                                                                       "M": math.inf}
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        integrate(lambda x: 1e308, 0.0, 1.0, 64, 32)


def _clear_node_set_caches():
    for cached in (verify._rule, verify._nodes):
        cached.cache_clear()


def test_suite_sweeps_each_node_sets_levels_once(monkeypatch):
    # one level sweep per node set: the t rule's sums, the z rule's sums and
    # the interior grid each start hypergeom._jacobi_rows once, however often
    # their readers ask for a lower level again; the t rule keeps two
    # scalars per level, never a level row
    starts, tables = 0, []
    original, level_sums = hypergeom._jacobi_rows, verify._level_sums

    def counted(*args):
        nonlocal starts
        starts += 1
        return original(*args)

    def recorded(*args):
        tables.append(level_sums(*args))
        return tables[-1]

    monkeypatch.setattr(hypergeom, "_jacobi_rows", counted)
    monkeypatch.setattr(verify, "_level_sums", recorded)
    _clear_node_set_caches()
    try:
        assert run_full_suite(n_max=30).overall
        assert starts == 3
        (levels,) = tables
        assert sorted(levels) == list(range(31))
        assert all(type(v) is float for level in levels.values() for v in level.values())
    finally:
        _clear_node_set_caches()


def _suite_tables(monkeypatch):
    # the tables of every suite run while the test runs, by builder name,
    # as each build returned them
    tables = {}
    for name in ("_mode_sums", "_level_sums", "_z_level_sums", "_interior_rows"):
        def recorded(*args, build=getattr(verify, name), name=name):
            tables[name] = build(*args)
            return tables[name]
        monkeypatch.setattr(verify, name, recorded)
    return tables


def _held(grid, kind):
    # the indices at which a TGrid holds rows of `kind`
    return sorted(i for held_kind, i in grid._held if held_kind == kind)


def test_suite_keeps_its_rows_in_arrays_and_releases_its_table_sweeps(monkeypatch):
    # the sweeps' working rows are lists, but every row a table keeps is an
    # array('d'): the t rule's mode rows and the interior grid's level,
    # U'_{k-1}, g'' and sampled rows.  Each table is built to exactly the
    # indices its families read, and holds no suspended sweep: every sweep
    # ran to its last index and was dropped
    import types

    tables = _suite_tables(monkeypatch)
    assert run_full_suite(n_max=10).overall
    modes, grid = tables["_mode_sums"], tables["_interior_rows"]
    assert sorted(modes) == list(range(2, 13))
    assert sorted(tables["_level_sums"]) == sorted(tables["_z_level_sums"]) == list(range(11))
    assert _held(grid, "levels") == list(range(12))  # the odd ratio's 2m + 1 = 11
    assert _held(grid, "slopes") == list(range(2, 14)) and _held(grid, "seconds") == list(range(2, 11))
    kept = [*(row for row, _ in modes.values()), *grid._held.values(),
            grid.sin_sq, grid.potential, *grid.bound_factors]
    assert all(type(row) is array and row.typecode == "d" for row in kept)
    held = [*tables.values(), *vars(grid).values(), *(sums for _, sums in modes.values())]
    assert not any(isinstance(value, types.GeneratorType) for value in held)


def test_suite_tables_are_freed_without_a_cycle_collection(monkeypatch):
    # the suite drops its tables when it returns: no row, grid or sum refers
    # back to a holder, so they go at once, with no cycle collection
    import gc
    import weakref

    tables = _suite_tables(monkeypatch)
    gc.disable()
    try:
        assert run_full_suite(n_max=6).overall
        grid = tables.pop("_interior_rows")
        refs = [weakref.ref(grid), *(weakref.ref(row) for row in grid._held.values()),
                *(weakref.ref(row) for row, _ in tables["_mode_sums"].values())]
        tables.clear()
        del grid
        assert verify._suite.get() == {}
        assert not [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()


# Reads past the items the default suite keeps, in a fresh interpreter.
_PAST_THE_SUITE = """
from ptdarboux.verify import check_hypergeom_norm, check_trig_norm
print(repr(check_trig_norm(15)))
print(repr(check_hypergeom_norm(13, "x")))
"""


def test_a_read_past_a_released_table_equals_a_fresh_process(monkeypatch):
    # the suite at n_max = 10 builds modes k = 2..12 and levels 0..10 and
    # drops them when it returns; a later read past them builds its own
    # row, one bracket and one level, and gives the bits of a process that
    # never ran the suite
    import ptdarboux

    assert run_full_suite(n_max=10).overall
    brackets, _ = _count_brackets(monkeypatch)
    weighs, weigh = [], verify._weigh
    monkeypatch.setattr(verify, "_weigh", lambda nodes, row: weighs.append(1) or weigh(nodes, row))
    after = [repr(check_trig_norm(15)), repr(check_hypergeom_norm(13, "x"))]
    assert brackets == [(15, verify.QUAD_ORDER * verify.PANELS)] and len(weighs) == 2
    source = Path(ptdarboux.__file__).resolve().parents[1]
    fresh = subprocess.run([sys.executable, "-c", _PAST_THE_SUITE], capture_output=True,
                           text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(source)})
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.splitlines() == after


def test_a_lone_norm_check_builds_only_its_own_row(monkeypatch):
    # outside a suite, check_hypergeom_norm(60, "x") sweeps the levels to 60
    # and weighs one row, level 60's, and check_trig_norm(15) builds one
    # bracket row, k = 15's, weighed once for its D and M; each gives the
    # bits of the suite's row
    weighs, weigh = [], verify._weigh
    monkeypatch.setattr(verify, "_weigh", lambda nodes, row: weighs.append(1) or weigh(nodes, row))
    level = check_hypergeom_norm(60, "x")
    assert len(weighs) == 1
    brackets, sweeps = _count_brackets(monkeypatch)
    mode = check_trig_norm(15)
    assert brackets == [(15, verify.QUAD_ORDER * verify.PANELS)] and len(sweeps) == 1
    assert len(weighs) == 2
    monkeypatch.undo()
    rows = {c.name: c for c in run_full_suite(n_max=60, grid_points=1000).checks}
    assert repr(rows["hypergeom norm (x-form) n=60"]) == repr(level)
    assert repr(rows["trig norm k=15"]) == repr(mode)


def _count_brackets(monkeypatch):
    # the (k, row length) of every bracket row built and the row length of
    # every U sweep started; a bracket's k is that of the sweep row U'_{k-1}
    # (the first row a sweep yields) it is built from, or of which it reads
    # a kept copy
    brackets, sweeps, swept = [], [], []
    bracket, u_rows = closed_form._bracket, closed_form._u_rows

    def counted_bracket(sin_sq, slope, scale):
        k = next(k for row, k in swept if row is slope or row == list(slope))
        brackets.append((k, len(sin_sq)))
        return bracket(sin_sq, slope, scale)

    def counted_u_rows(cosines, depth, ks):
        cosines = list(cosines)
        sweeps.append(len(cosines))
        for k, rows in u_rows(cosines, depth, ks):
            swept.append((rows[0], k))
            yield k, rows

    monkeypatch.setattr(closed_form, "_bracket", counted_bracket)
    monkeypatch.setattr(closed_form, "_u_rows", counted_u_rows)
    return brackets, sweeps


def test_a_lone_one_shot_read_builds_one_bracket_row(monkeypatch):
    # a one-shot tabulate call reads mode n + 2 of a fresh grid: one U sweep
    # up to U_{n+1} and one bracket row, none of the n below it.  A one-shot
    # identity call reads the row U'_{n+1} of the same sweep, and no bracket
    _clear_node_set_caches()
    try:
        brackets, sweeps = _count_brackets(monkeypatch)
        assert check_identity("base", 10).passed
        assert brackets == []
        assert sweeps == [verify.INTERIOR_POINTS]
        ts = [0.05 + 0.03 * i for i in range(100)]
        del brackets[:], sweeps[:]
        closed_form.TGrid(ts).bound_state_pairs(10, 1.0)
        assert brackets == [(12, len(ts))] and sweeps == [len(ts)]
    finally:
        _clear_node_set_caches()


def test_suite_builds_each_interior_slope_row_once(monkeypatch):
    # the identities, the correspondence and the residual all read the
    # interior grid's rows; its rows U'_{k-1} come from one U sweep, up to
    # k = 33 (the odd ratio's level 2m + 1 = 31), and each is kept once.
    # The correspondence (k = 2..32) and the residual (k = 2..30) each form
    # their bracket -sin^2(t) U'_{k-1} once from it, and the identities
    # read it as it is.  The residual's g'' rows and the brackets share one
    # row sin^2 t: every one reads the grid's one row object
    _clear_node_set_caches()
    try:
        brackets, sweeps = _count_brackets(monkeypatch)
        sin_rows, bracket, g2_factors = [], closed_form._bracket, closed_form._g2_factors

        def read_bracket(sin_sq, slope, scale):
            sin_rows.append(sin_sq)
            return bracket(sin_sq, slope, scale)

        def read_g2_factors(cosines, sin_sq):
            sin_rows.append(sin_sq)
            return g2_factors(cosines, sin_sq)

        monkeypatch.setattr(closed_form, "_bracket", read_bracket)
        monkeypatch.setattr(closed_form, "_g2_factors", read_g2_factors)
        kept, interior_rows = [], verify._interior_rows
        monkeypatch.setattr(verify, "_interior_rows",
                            lambda *args: kept.append(interior_rows(*args)) or kept[-1])
        assert run_full_suite(n_max=30).overall
        interior = sorted(k for k, points in brackets if points == verify.INTERIOR_POINTS)
        assert interior == sorted([*range(2, 33), *range(2, 31)])
        assert sweeps.count(verify.INTERIOR_POINTS) == 1
        (grid,) = kept
        assert _held(grid, "slopes") == list(range(2, 34))
        read = [row for row in sin_rows if len(row) == verify.INTERIOR_POINTS]
        assert len(read) == len(interior) + 1  # the brackets and the g'' factors
        assert all(row is grid.sin_sq for row in read)
    finally:
        _clear_node_set_caches()


def test_suite_weighs_each_row_once(monkeypatch):
    # one weighted row per partner mode for both its D and its M (31 modes,
    # k = 2..32), one per level (31), and one per Gram row i = 2..30 (29)
    weighs = 0
    original = verify._weigh

    def counted(nodes, row):
        nonlocal weighs
        weighs += 1
        return original(nodes, row)

    monkeypatch.setattr(verify, "_weigh", counted)
    _clear_node_set_caches()
    try:
        assert run_full_suite(n_max=30).overall
        assert weighs == 31 + 31 + 29 == 91
    finally:
        _clear_node_set_caches()


def test_each_grid_and_rule_starts_one_u_recurrence(monkeypatch):
    # the t rule's mode sweep and the interior grid each start one U sweep
    # (_u_rows), which yields every derivative its rows read and not U
    # itself: U' for the t rule's brackets, and U' to the third derivative
    # for the grid's g'' rows.  The grid's sweep runs to the last bracket
    # (k = 33), past the last g'' (k = 30).  A chi_derivatives call starts
    # one sweep, to the third derivative, and reads its own k from it
    starts, swept = [], []
    u_rows = closed_form._u_rows

    def counted_u_rows(cosines, depth, ks):
        cosines = list(cosines)
        starts.append((len(cosines), depth))
        for k, rows in u_rows(cosines, depth, ks):
            swept.append(rows)
            yield k, rows

    monkeypatch.setattr(closed_form, "_u_rows", counted_u_rows)
    _clear_node_set_caches()
    try:
        assert run_full_suite(n_max=30).overall
        assert sorted(starts) == [(verify.INTERIOR_POINTS, 3),
                                  (verify.QUAD_ORDER * verify.PANELS, 1)]
        interior = [rows for rows in swept if len(rows[0]) == verify.INTERIOR_POINTS]
        assert len(interior) == 32  # U'_1..U'_32, for k = 2..33
        assert {len(rows) for rows in interior} == {3}
        assert {len(rows) for rows in swept} == {1, 3}
        del starts[:], swept[:]
        closed_form.chi_derivatives(TrigEigenfunction(9, 1.0), 0.7)
        assert starts == [(1, 3)] and [len(rows) for rows in swept] == [3]
    finally:
        _clear_node_set_caches()


def test_suite_evaluates_each_levels_exact_factor_once(monkeypatch):
    # C_n and the midpoint factors share one exact 2F1 value per level: the
    # suite at n_max = 30 reads levels 0..31 (the odd ratio's 2m + 1 = 31)
    # and evaluates each once; the 62 levels of the degree cap (the odd
    # ratio at m = 30 reaches level 61) are all kept
    calls = []
    original = closed_form._f21_exact

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(closed_form, "_f21_exact", counted)
    closed_form._midpoint_factor.cache_clear()
    try:
        assert run_full_suite(n_max=30, grid_points=1000).overall
        assert len(calls) == len(set(calls)) == 32
        for _ in range(2):
            for n in range(62):
                closed_form._coefficient(n)
            assert check_identity("odd", 30).passed
        assert len(calls) == len(set(calls)) == 62
    finally:
        closed_form._midpoint_factor.cache_clear()


def test_an_interrupted_table_sweep_reads_on_as_if_never_interrupted(monkeypatch):
    # a KeyboardInterrupt at k = 4 of the t rule's U sweep leaves no
    # table: the next read builds its own with the same bits, and a suite
    # interrupted there leaves no table behind, so the next one in the same
    # process passes with the same bits.  One at k = 6 of a grid's U sweep,
    # raised while the grid is built, leaves no grid, and the next grid
    # built with the same rows holds the bits of one that was never
    # interrupted
    expected = check_trig_norm(4)
    report = run_full_suite(n_max=3)
    original, interrupted = closed_form._u_rows, []

    def interrupting(cosines, depth, ks):
        for k, rows in original(cosines, depth, ks):
            if (k == 4 and len(cosines) == verify.QUAD_ORDER * verify.PANELS
                    and len(interrupted) < 2):
                interrupted.append(k)
                raise KeyboardInterrupt
            yield k, rows

    monkeypatch.setattr(closed_form, "_u_rows", interrupting)
    with pytest.raises(KeyboardInterrupt):
        check_trig_norm(4)
    with pytest.raises(KeyboardInterrupt):
        run_full_suite(n_max=3)
    assert interrupted == [4, 4] and verify._suite.get() == {}
    again = check_trig_norm(4)
    assert again == expected and again.computed.hex() == expected.computed.hex()
    assert repr(run_full_suite(n_max=3)) == repr(report)
    assert expected in report.checks
    monkeypatch.undo()

    ts = verify._interior_grid().ts
    fresh = closed_form.TGrid(ts)
    expected_rows = [(fresh.second_derivative(k), fresh.mode(k)) for k in range(2, 12)]
    original, interrupted = closed_form._u_rows, []

    def interrupting_u(cosines, depth, ks):
        for k, rows in original(cosines, depth, ks):
            if k == 6 and not interrupted:
                interrupted.append(k)
                raise KeyboardInterrupt
            yield k, rows

    monkeypatch.setattr(closed_form, "_u_rows", interrupting_u)
    with pytest.raises(KeyboardInterrupt):
        closed_form.TGrid(ts, range(4), range(2, 12), range(2, 12))
    assert interrupted == [6]
    grid = closed_form.TGrid(ts, range(4), range(2, 12), range(2, 12))
    assert [(list(grid.second_derivative(k)), grid.mode(k))
            for k in range(2, 12)] == expected_rows


def test_suite_builds_one_reference_rule_per_order(monkeypatch):
    # the (0, pi) and (0, 1) node sets map one Gauss-Legendre rule
    calls = []
    original = verify.gauss_legendre

    def counted(order):
        calls.append(order)
        return original(order)

    monkeypatch.setattr(verify, "gauss_legendre", counted)
    _clear_node_set_caches()
    try:
        assert run_full_suite(n_max=2).overall
        assert calls == [verify.QUAD_ORDER]
    finally:
        _clear_node_set_caches()


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
    # row is built
    def forbidden(*args):
        raise AssertionError("a row was swept before alpha was validated")
        yield

    def forbidden_potential(*args):
        raise AssertionError("the potential row was built before alpha was validated")

    monkeypatch.setattr(closed_form, "_u_rows", forbidden)  # every bracket and g'' row
    monkeypatch.setattr(hypergeom, "_jacobi_rows", forbidden)
    monkeypatch.setattr(closed_form, "_partner_potentials", forbidden_potential)
    with pytest.raises(ParameterError):
        check_residual(3, alpha)
    with pytest.raises(ParameterError):
        check_correspondence(2, alpha)


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
    if alpha == math.inf:  # no row can use it, so the suite rejects it up front
        with pytest.raises(ParameterError, match="alpha must be positive and finite"):
            run_full_suite(alpha=alpha, n_max=0, grid_points=1000)
        return
    report = run_full_suite(alpha=alpha, n_max=0, grid_points=1000)
    (fd_row,) = [c for c in report.checks if c.name.startswith("fd spectrum")]
    assert "ParameterError" in fd_row.name and not fd_row.passed
    assert not report.overall


def _full_weights(grid_points):
    """h^2 and w_i = 2 h^2 / sin^2(t_i) of the whole alpha-free matrix,
    scaled by h^2: tridiag(-1, 2 + w_i, -1) on t_i = (i + 1/2) h."""
    h = math.pi / grid_points
    h2 = h * h
    return h2, [2.0 * h2 / (s * s) for s in map(math.sin, [(i + 0.5) * h for i in range(grid_points)])]


def _full_count(weights, mu):
    """Eigenvalues of the whole scaled matrix below mu: one Sturm sweep over
    every row from the wall at t_0, each pivot written 1 + u, u_0 = 1 + w_0 -
    mu and u_i = w_i - mu + u_{i-1} / (1 + u_{i-1})."""
    negatives, u = 0, 1.0 + weights[0] - mu
    for w in weights[1:]:
        if u <= -1.0:
            negatives += 1
            u = u if u < -1.0 else -1.0 - 2.0 ** -52
        u = w - mu + u / (1.0 + u)
    return negatives + (u <= -1.0)


def _plain_fd_spectrum(alpha, grid_points, count):
    """The reference: bisection of the whole matrix from [0, 4 (count + 2)^2]
    with one Sturm sweep (_full_count) at every midpoint, to a width of 1e-13
    of the upper end."""
    h2, weights = _full_weights(grid_points)
    eigenvalues = []
    for mode in range(1, count + 1):
        lo, up = 0.0, 4.0 * (count + 2) ** 2 * h2
        while up - lo > 1e-13 * up:
            mid = 0.5 * (lo + up)
            if _full_count(weights, mid) >= mode:
                up = mid
            else:
                lo = mid
        eigenvalues.append(4.0 * alpha * alpha * (0.5 * (lo + up) / h2))
    return eigenvalues


def _fd_cases():
    rng = random.Random(20151)
    cases = [(rng.uniform(0.5, 2.0), rng.randint(100, 6000), rng.randint(1, 10))
             for _ in range(19)]
    # then three grids where an earlier engine started elsewhere: 1,599
    # points bisected for its starts, 1,600 started from a grid 16 times
    # coarser (1600 // 16 = 100) and 25,600 from two; their values moved
    # with the start, so they stay as reference cases
    return cases + [(1e-6, rng.randint(100, 6000), 10),
                    (0.6024, 1599, 10), (0.6024, 1600, 10), (1.0, 25600, 3)]


@pytest.mark.parametrize("alpha,grid_points,count", _fd_cases())
def test_fd_spectrum_equals_plain_bisection(alpha, grid_points, count):
    # each value is the centre of a bracket of width 1e-13 (relative) that
    # holds its mode, so it lies within that width of the plain bisection's
    modes, plain = fd_spectrum(alpha, grid_points, count), _plain_fd_spectrum(alpha, grid_points, count)
    assert all(abs(m - p) <= 1.01e-13 * p for m, p in zip(modes, plain)), (modes, plain)


@pytest.mark.parametrize("grid_points", [1599, 4001, 40000, 100000])
def test_fd_brackets_hold_their_modes(grid_points):
    # every value lies in its bracket, no wider than 1e-13 of its upper end,
    # and counts of the whole matrix, swept without the mirror split, prove
    # that the bracket holds exactly that mode
    h2, brackets = verify._sturm_grid(grid_points, 10, 144.0)
    _, weights = _full_weights(grid_points)
    values = fd_spectrum(0.5, grid_points, 10)  # 4 alpha^2 = 1
    for mode, ((lo, up), value) in enumerate(zip(brackets, values), 1):
        assert lo / h2 <= value <= up / h2 and value == 0.5 * (lo + up) / h2
        assert up - lo <= 1e-13 * up
        assert _full_count(weights, lo) < mode <= _full_count(weights, up)


@pytest.mark.parametrize("grid_points, modes", [(100, 10), (999, 10), (4000, 3)])
def test_sturm_counts_agree_with_a_60_digit_sweep(monkeypatch, grid_points, modes):
    # every count the grid's Sturm work takes (each start's pair and the
    # bisections) equals the same 1 + u sweep on the same float entries at 60
    # digits, so each certificate holds in exact arithmetic too: the 60-digit
    # counts put exactly `place` eigenvalues of the mode's block at or below
    # its upper end and fewer below its lower end, and the bracket's centre
    # lies within _HALF_WIDTH / 2 of the bracket bisected by 60-digit counts
    # to fd_certificate.REFERENCE_WIDTH of its upper end
    counts = []
    sturm_count = verify._sturm_count

    def recorded(*args):
        counts.append((args, sturm_count(*args)))
        return counts[-1][1]

    monkeypatch.setattr(verify, "_sturm_count", recorded)
    _, brackets = verify._sturm_grid(grid_points, modes, float((modes + 2) ** 2))
    assert len(counts) >= 2 * modes
    assert [count for _, count in counts] == [sturm_count_decimal(*args) for args, _ in counts]
    blocks = verify._fd_matrix(grid_points)
    monkeypatch.setattr(verify, "_sturm_count", sturm_count_decimal)
    for mode, (lo, up) in enumerate(brackets, 1):
        block, place = verify._block_mode(mode)
        mu = 0.5 * (lo + up)
        assert lo < mu < up
        assert sturm_count_decimal(*blocks[block], lo) < place <= sturm_count_decimal(
            *blocks[block], up)
        reference = fd_certificate.refine(blocks[block], place, lo, up)
        assert abs(mu - reference) <= verify._HALF_WIDTH / 2 * reference, (mode, mu, reference)


def test_fd_ground_mode_error_falls_fourfold_per_doubling():
    # the pivots 1 + u keep the O(h^2) discretization error visible up to the
    # grid cap: the error ratio of each doubling is 4 within 1%, and at
    # 100,000 points the ground mode is -1.10e-10 off, within 1%
    errors = [fd_spectrum(1.0, 1000 * 2 ** j, 1)[0] / 16.0 - 1.0 for j in range(7)]
    assert all(abs(coarse / fine - 4.0) <= 0.04 for coarse, fine in zip(errors, errors[1:])), errors
    assert fd_spectrum(1.0, 100000, 1)[0] / 16.0 - 1.0 == pytest.approx(-1.10e-10, rel=0.01)


@pytest.mark.parametrize("grid_points", [4000, 40000, 100000])
def test_sturm_count_flips_once_near_the_lowest_modes(grid_points):
    # within 64 ulps either side of each of the three lowest flips the count
    # is non-decreasing and changes once, from place - 1 to place
    blocks = verify._fd_matrix(grid_points)
    for mode, (lo, up) in enumerate(verify._sturm_grid(grid_points, 3, 25.0)[1], 1):
        block, place = verify._block_mode(mode)
        while math.nextafter(lo, up) < up:  # the flip: the lowest float counting place
            mid = 0.5 * (lo + up)
            if verify._sturm_count(*blocks[block], mid) < place:
                lo = mid
            else:
                up = mid
        mus = [up]
        for _ in range(64):
            mus = [math.nextafter(mus[0], 0.0), *mus, math.nextafter(mus[-1], math.inf)]
        counts = [verify._sturm_count(*blocks[block], mu) for mu in mus]
        assert counts == [place - 1] * 64 + [place] * 65


def test_fd_spectrum_frozen_bits():
    assert [m.hex() for m in fd_spectrum(1.0, 4000, 3)] == [
        "0x1.fffffdb35aa4dp+3", "0x1.1ffffb94a785cp+5", "0x1.ffffeefbc88f7p+5"]
    assert [m.hex() for m in fd_spectrum(0.6024, 1000, 10)] == [
        "0x1.7398386d6d19dp+2", "0x1.a20af6e8756b9p+3", "0x1.73978d95093e4p+4",
        "0x1.224df3b18ff67p+5", "0x1.a20906dda405cp+5", "0x1.1c7e59dc817c6p+6",
        "0x1.73944f54fd529p+6", "0x1.d6462e898ef08p+6", "0x1.2249dd54e17bbp+7",
        "0x1.5f3e57b1c79a5p+7"]


def test_fd_spectrum_rejects_an_overflowing_top_before_any_sweep(monkeypatch):
    # 4 alpha^2 = 1e308 times the top (count + 2)^2 = 144 overflows: no grid
    # is swept
    def refuse(*args):
        raise AssertionError("a Sturm sweep ran")

    monkeypatch.setattr(verify, "_sturm_count", refuse)
    with pytest.raises(ParameterError, match=r"= 1e\+308 times the bracket top 144.0 overflows"):
        fd_spectrum(5e153, 100000, 10)


def test_fd_spectrum_rejects_a_top_below_its_modes(monkeypatch):
    # a block that holds fewer of its modes below the top than it needs
    # raises instead of bracketing a mode with the top
    monkeypatch.setattr(verify, "_sturm_count", lambda *args: 0)
    with pytest.raises(EvaluationError, match="block 0 of the 100-point grid holds 0 of its 2 "
                                              "modes below the top 25.0"):
        fd_spectrum(1.0, 100, 3)


def _sweeps(monkeypatch, grid_points, count):
    # the row count of each Sturm count the spectrum takes
    sweeps = []
    monkeypatch.setattr(verify, "_sturm_count", lambda *args, sweep=verify._sturm_count:
                        sweeps.append(1 + len(args[1])) or sweep(*args))
    fd_spectrum(1.0, grid_points, count)
    return sweeps


def test_fd_spectrum_sweeps_few_counts(monkeypatch):
    # bisection with a sweep at every midpoint makes 112 at (4000, 3); there
    # the 2,000-row blocks take 10 counts: 2 for mode 0, whose start bracket,
    # (k h)^4 / 360 = 1.7e-14 < _HALF_WIDTH, already meets its stop, and 3
    # and 5 for modes 1 and 2, whose one-sided brackets are 1.7 and 5.5 times
    # _HALF_WIDTH wide.  At (40000, 10) every mode's start meets the stop and
    # is certified by its 2 counts: 20 counts of 20,000 rows.  At 3,066
    # points the ground mode's (k h)^4 / 360, 4.8992e-14, is a rounding under
    # _HALF_WIDTH, and its start meets the stop too: 2 counts of 1,533 rows
    assert _sweeps(monkeypatch, 4000, 3) == [2000] * 10
    assert _sweeps(monkeypatch, 40000, 10) == [20000] * 20
    assert _sweeps(monkeypatch, 3066, 1) == [1533] * 2


@pytest.mark.parametrize("grid_points", [28000, 40000, 40017, 65536, 100000])
def test_fd_spectrum_takes_one_newton_sweep_per_fine_grid_mode(monkeypatch, grid_points):
    # on these grids (k h)^4 / 360 is under _HALF_WIDTH for every mode, so
    # each start bracket already meets _settle's stop: 2 counts certify it,
    # and the value is its centre.  (The name is kept from the Newton
    # engine, which took one sweep per mode here, so that the test's id
    # stays comparable.)
    assert len(_sweeps(monkeypatch, grid_points, 10)) == 20
    starts, settle = [], verify._settle
    monkeypatch.setattr(verify, "_settle", lambda block, place, lo, up, top:
                        starts.append((lo, up)) or settle(block, place, lo, up, top))
    h2 = (math.pi / grid_points) ** 2
    assert fd_spectrum(1.0, grid_points, 10) == [4.0 * (0.5 * (lo + up) / h2) for lo, up in starts]


def test_fd_values_lie_deep_inside_their_certificates():
    # on 40 seeded grids (100-6,000 points, 1-10 modes, alpha log-uniform in
    # 1e-6-1e6) no start bracket falls back, and no mode whose start bracket
    # already meets _settle's stop takes more than its 2 counts.  Each value
    # lies within _HALF_WIDTH / 2 of the reference, its certified bracket
    # bisected by counts to 5e-16 of its upper end: measured at most 2.25e-14
    # (by construction).  The 40 grids take 4,221 count sweeps in all
    results = {grid: fd_certificate.check(*grid)
               for grid in fd_certificate.grids(40, 20151, max_points=6000)}
    assert all(fell_back == slow == 0 and move <= verify._HALF_WIDTH / 2
               for fell_back, slow, _, move in results.values()), results
    assert sum(sweeps for _, _, sweeps, _ in results.values()) == 4221


def _sweep_units(monkeypatch, grid_points, count):
    # the Sturm counts' work in rows of the grid
    return sum(_sweeps(monkeypatch, grid_points, count)) / grid_points


@pytest.mark.parametrize("grid_points,count,units", [
    (4000, 3, 6.05), (40000, 10, 10.0), (40017, 10, 10.0), (100000, 10, 10.0),
    (999, 10, 82.5), (100, 10, 156.2), (3000, 10, 44.0), (8000, 10, 19.5),
    (23846, 10, 10.0), (4335, 3, 4.501), (4336, 3, 5.0)])
def test_fd_spectrum_starts_each_mode_at_its_asymptotic_eigenvalue(monkeypatch, grid_points, count,
                                                                   units):
    # measured: 5.0, 10.0, 10.0, 10.0, 75.0, 142.0, 44.0, 19.5, 10.0, 4.5003
    # and 4.5 units; the last five bounds hold the work at or below that of
    # an engine that certified some modes by a second, centred bracket.  On
    # the three fine grids and at 23,846 points every mode's start meets
    # _settle's stop and takes 2 counts; elsewhere a mode whose (k h)^4 / 360
    # exceeds _HALF_WIDTH bisects from the one-sided bracket above its
    # asymptotic value, that wide: 150 counts for the 10 modes at 999 points
    # and 284 at 100
    assert 0 < _sweep_units(monkeypatch, grid_points, count) <= units


def _cosine_coefficients(k):
    # g_k = k cos(kt) - cos(t) U_{k-1}(cos t) as {m: c_m} of cos(mt), with
    # U_{k-1}(cos t) = sum_j cos((k - 1 - 2 j) t) and cos t cos(mt) =
    # (cos((m + 1) t) + cos((m - 1) t)) / 2: integers and halves
    coefficients = {k: Fraction(k)}
    for j in range(k):
        m = k - 1 - 2 * j
        for n in (abs(m + 1), abs(m - 1)):
            coefficients[n] = coefficients.get(n, 0) - Fraction(1, 2)
    return coefficients


@pytest.mark.parametrize("k", range(2, 12))
def test_asymptotic_h2_coefficient_is_the_perturbation_ratio(k):
    # int (g_k'')^2 / int g_k^2 over (0, pi), by Parseval on g_k's cosine
    # coefficients (int cos^2(mt) = pi / 2, and pi for m = 0), equals
    # _asymptotic's k (15 k^3 - 24 k^2 + 16) / 15; int g_k^2 = (pi / 2)(k^2 - 1)
    coefficients = _cosine_coefficients(k)
    assert all(2 * c == int(2 * c) for c in coefficients.values())
    weight = {m: (2 if m == 0 else 1) * c * c for m, c in coefficients.items()}
    assert sum(weight.values()) == k * k - 1
    ratio = sum(m ** 4 * w for m, w in weight.items()) / sum(weight.values())
    assert ratio == Fraction(k * (15 * k ** 3 - 24 * k * k + 16), 15)


def test_wall_beta_is_the_backward_recurrences():
    # s decays like 1/x: from 1/x - 1/(5 x^3) at x = 1000.5 and 1001.5 (the
    # 1/x^5 residual of 1/x fixes the -1/5), the backward recurrence
    # s_{i-1} = 2 s_i + 2 s_i / x_i^2 - s_{i+1} on x_i = i + 1/2 runs to the
    # ghost node x_{-1}, where v = x^2 + beta s vanishes: beta = -1/4 / s_{-1}
    s_next, s = (1.0 / x - 0.2 / x ** 3 for x in (1001.5, 1000.5))
    for i in range(1000, -1, -1):
        x = i + 0.5
        s_next, s = s, 2.0 * s + 2.0 * s / (x * x) - s_next
    beta = -0.25 / s
    assert abs(beta - verify._WALL_BETA) <= 1e-8 * abs(verify._WALL_BETA)
    assert verify._WALL_GAMMA == 4.0 * abs(verify._WALL_BETA) / (3.0 * math.pi)


def _certified_modes(grid_points, count=10):
    # each mode's h, continuum k and eigenvalue: its certified bracket
    # bisected by counts to 5e-16 of its upper end (fd_certificate.refine),
    # which the counts alone pin, whatever the start
    h2, brackets = verify._sturm_grid(grid_points, count, float((count + 2) ** 2))
    blocks = verify._fd_matrix(grid_points)
    for mode, (lo, up) in enumerate(brackets, 1):
        block, place = verify._block_mode(mode)
        yield math.pi / grid_points, mode + 1, fd_certificate.refine(blocks[block], place, lo, up)


@pytest.mark.parametrize("grid_points", [25600, 28000, 40000, 40017, 65536, 100000])
def test_asymptotic_values_lie_within_a_quarter_bracket_of_newtons(grid_points):
    # (k h)^4 / 360 is at most _HALF_WIDTH / 4 for all 10 modes here, and
    # each _asymptotic value lies within _HALF_WIDTH / 4 of the eigenvalue
    # that counts pin to 5e-16: measured at most 7e-15 relative.  (The name
    # is kept from the Newton engine's reference, so that the test's ids
    # stay comparable.)
    for h, k, mu in _certified_modes(grid_points):
        assert (k * h) ** 4 / 360.0 <= verify._HALF_WIDTH / 4
        assert abs(verify._asymptotic(k, h) - mu) <= verify._HALF_WIDTH / 4 * mu, (k, mu)


def test_asymptotic_remainder_is_fourth_order():
    # after the h^3 term the remainder falls 16-fold per grid doubling, from
    # 4,000 to 8,000 points, for modes 2-9 (k = 4..11): measured 15.7-16.0.
    # Without the h^3 term it would fall 8-fold, and with a wrong h^2 term
    # 4-fold.  The reference brackets are 5e-16 wide, far narrower than the
    # 7e-15 the remainder is at 8,000 points
    coarse, fine = ([verify._asymptotic(k, h) / mu - 1.0 for h, k, mu in _certified_modes(n)]
                    for n in (4000, 8000))
    ratios = [c / f for c, f in zip(coarse[2:], fine[2:])]
    assert all(abs(ratio - 16.0) <= 1.0 for ratio in ratios), ratios


@pytest.mark.parametrize("garbage", ["nan", "zero", "hi", "next mode", "lower mode"])
def test_no_coarse_estimate_enters_a_result(monkeypatch, garbage):
    # the start only sets the cost: from a spoiled one every mode of
    # (0.6024, 3000, 10) settles within _HALF_WIDTH of its unspoiled value
    # (each is within _HALF_WIDTH / 2 of the eigenvalue), in a bracket that
    # counts of the whole matrix prove.  A NaN, zero or top start leaves
    # nothing inside [0, top], and a start at the next mode, or at the
    # block's lower mode (its certified lower end), fails a count; each
    # bisects from (0, top] and takes more than 2 counts
    grid_points, count, top = 3000, 10, 144.0
    h2, expected = verify._sturm_grid(grid_points, count, top)
    _, weights = _full_weights(grid_points)
    blocks = verify._fd_matrix(grid_points)
    spoil = {
        "nan": lambda mode: math.nan,
        "zero": lambda mode: 0.0,
        "hi": lambda mode: top * h2,
        "next mode": lambda mode: (mode + 2) ** 2 * h2,
        "lower mode": lambda mode: expected[mode - 3][0] if mode > 2 else math.nan,
    }[garbage]
    counts = []
    monkeypatch.setattr(verify, "_sturm_count",
                        lambda *args, sweep=verify._sturm_count: counts.append(1) or sweep(*args))
    for mode, (low, high) in enumerate(expected, 1):
        block, place = verify._block_mode(mode)
        unspoiled, start = 0.5 * (low + high), spoil(mode)
        counts.clear()
        lo, up = verify._settle(blocks[block], place, start, start * (1.0 + 1e-10), top * h2)
        mu = 0.5 * (lo + up)
        assert abs(mu - unspoiled) <= verify._HALF_WIDTH * unspoiled, (mode, mu, unspoiled)
        assert _full_count(weights, lo) < mode <= _full_count(weights, up)
        assert len(counts) > 2, (mode, len(counts))


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_settle_counts_the_top_only_when_its_fallback_bracket_ends_there(monkeypatch, side):
    # a start 1e-6 below each of a 3,000-point grid's 10 lowest modes fails
    # its upper count, and one 1e-6 above fails its lower count: each falls
    # back once to (0, top], whose top is counted exactly once, settles
    # within _HALF_WIDTH of its unspoiled value, and returns a bracket that
    # holds its mode by counts of the whole matrix.  A top 1e-7 under the
    # mode holds only place - 1 of the block's eigenvalues: EvaluationError
    grid_points, count, top = 3000, 10, 144.0
    h2, expected = verify._sturm_grid(grid_points, count, top)
    _, weights = _full_weights(grid_points)
    blocks = verify._fd_matrix(grid_points)
    points = []
    monkeypatch.setattr(verify, "_sturm_count", lambda *args, sweep=verify._sturm_count:
                        points.append(args[-1]) or sweep(*args))
    for mode, (low, high) in enumerate(expected, 1):
        block, place = verify._block_mode(mode)
        unspoiled = 0.5 * (low + high)
        start = unspoiled * (1.0 + side * 1e-6)
        points.clear()
        lo, up = verify._settle(blocks[block], place, start, start * (1.0 + 1e-10), top * h2)
        mu = 0.5 * (lo + up)
        assert points.count(top * h2) == 1, (mode, points)
        assert abs(mu - unspoiled) <= verify._HALF_WIDTH * unspoiled, (mode, mu, unspoiled)
        assert _full_count(weights, lo) < mode <= _full_count(weights, up)
        low_top = unspoiled * (1.0 - 1e-7)
        points.clear()
        with pytest.raises(EvaluationError) as short:
            verify._settle(blocks[block], place, start, start * (1.0 + 1e-10), low_top)
        assert short.value.args == (place - 1,) and points.count(low_top) == 1, mode


class _Alarm(BaseException):
    """Not an Exception, so that the suite, which records any Exception as a
    failed row and runs on, cannot swallow it."""


def test_a_bisection_that_does_not_narrow_stops_at_its_step_cap(monkeypatch):
    # a midpoint of 0.5005 (lo + up) lies above up once the bracket is
    # narrow, so it grows instead of shrinking; uncapped, the suite ran for
    # minutes.  _settle stops after _MAX_STEPS and raises ConvergenceError,
    # which the suite records in the fd spectrum row, well within the alarm
    monkeypatch.setattr(verify, "_settle", mutant(verify._settle, "0.5 * (lo + up)",
                                                  "0.5005 * (lo + up)"))

    def alarm(*args):
        raise _Alarm

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(10)
    try:
        report = run_full_suite(1.0, 10)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    fd_rows = [c.name for c in report.checks if c.name.startswith("fd")]
    assert len(fd_rows) == 1 and "[error: ConvergenceError:" in fd_rows[0], fd_rows
    assert not report.overall


@lru_cache(maxsize=1)
def _fd_matrix_and_modes():
    # at alpha = 1/2 the scale 4 alpha^2 is 1: the modes of the matrix itself,
    # here times h^2 as the blocks are
    h2 = (math.pi / 4000) ** 2
    return verify._fd_matrix(4000), [m * h2 for m in fd_spectrum(0.5, 4000, 10)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.lists(st.floats(-1e-7, 1e-7), min_size=2, max_size=12))
def test_sturm_count_is_monotone_near_each_mode(mode, offsets):
    blocks, modes = _fd_matrix_and_modes()
    mus = sorted(modes[mode] * (1.0 + offset) for offset in offsets)
    # mode + 1 (from 1) is the j-th of the even block when odd, of the odd
    # block when even; the other block holds no flip nearby
    j = mode // 2 + 1
    own, other = blocks if mode % 2 == 0 else blocks[::-1]
    counts = [verify._sturm_count(*own, mu) for mu in mus]
    assert counts == sorted(counts)
    assert {j - 1, j} >= set(counts)
    assert {verify._sturm_count(*other, mu) for mu in mus} == {j - 1 + mode % 2}


@pytest.mark.parametrize("grid_points", [100, 101, 1599, 1600, 4000, 4001])
def test_mirror_blocks_split_the_full_count(grid_points):
    # away from every flip the two blocks' counts add up to the full
    # matrix's, and the even block's lead the odd block's by 0 or 1: the
    # interlacing that maps mode i to one block (verify._block_mode)
    even, odd = verify._fd_matrix(grid_points)
    h2, weights = _full_weights(grid_points)
    modes = [m * h2 for m in fd_spectrum(0.5, grid_points, 10)]
    rng = random.Random(grid_points)
    mus = [rng.uniform(0.0, modes[-1]) for _ in range(40)]
    mus = [mu for mu in mus if all(abs(mu - m) > 1e-6 * m for m in modes)]
    # close either side of each mode, where a wrong first pivot moves it, and
    # below and above the whole spectrum
    mus += [m * (1.0 + d) for m in modes for d in (-1e-5, 1e-5)] + [0.0, 100.0]
    for mu in mus:
        counts = verify._sturm_count(*even, mu), verify._sturm_count(*odd, mu)
        assert sum(counts) == _full_count(weights, mu)
        assert counts[0] - counts[1] in (0, 1)
    assert verify._sturm_count(*even, 100.0) == (grid_points + 1) // 2


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


def _suite_specs(n_max, alpha=1.0, grid_points=1000):
    """(family, name, tolerance, thunk) of every row the suite runs, in its
    order: the name and default tolerance it records if the thunk raises."""
    run = SimpleNamespace(alpha=alpha, n_max=n_max, grid_points=grid_points)
    tols = resolve_tolerances()
    for key, family in verify._FAMILIES.items():
        tol = 0.0 if family.tolerance is None else tols[family.tolerance]
        for args in family.indices(run):
            yield (key, family.row.format(*args), tol,
                   partial(family.check, {"order": verify.QUAD_ORDER, "panels": verify.PANELS},
                           tol, *args))


def test_suite_spec_names_match_their_rows():
    # a check that raises is recorded under its spec's name, so that name
    # must be the one the check gives its row when it passes
    specs = list(_suite_specs(2))
    singles = 0
    for _, name, _, thunk in specs:
        result = thunk()
        if isinstance(result, CheckResult):
            assert name == result.name
            singles += 1
    assert singles == len(specs) - 2  # all but the Gram matrix and fd spectrum


def test_suite_families_are_one_ordered_table():
    assert list(verify._FAMILIES) == [
        "coefficient", "midpoint", "trig norm", "hypergeom norm", "expectation",
        "trig moment", "hypergeom moment", "gram", "residual", "correspondence",
        "identity", "fd"]
    # each spec's name, an errored row's, matches its own family's name
    # format and no other's
    patterns = {key: re.compile(re.sub(r"\\\{[^}]*\\\}", "(.+)", re.escape(family.row)))
                for key, family in verify._FAMILIES.items()}
    specs = list(_suite_specs(10))
    for key, name, _, _ in specs:
        assert [k for k, pattern in patterns.items() if pattern.fullmatch(name)] == [key], name
    # the default report is the families' rows, family after family, each
    # at its family's default tolerance
    rows = []
    for key, _, tol, thunk in _suite_specs(verify.N_MAX, grid_points=verify.GRID_POINTS):
        result = thunk()
        family_rows = result.checks if isinstance(result, VerificationReport) else (result,)
        assert family_rows and {row.tolerance for row in family_rows} == {tol}, key
        rows.extend(family_rows)
    assert tuple(rows) == run_full_suite().checks


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
    return run_full_suite(alpha=1.0, n_max=10)


@pytest.mark.parametrize("alpha", [1e-8, 1e-3, 1e3, 1e8] + [2.0 ** j for j in range(-60, 61)])
def test_run_full_suite_does_not_depend_on_alpha(alpha, unit_alpha_suite):
    # every check is dimensionless once alpha is scaled out: energies by
    # 4 alpha^2, lengths by 1/alpha, amplitudes by sqrt(alpha).  The
    # identities, the correspondence, the residuals and the Gram matrix run
    # at unit scale, so their rows are the alpha = 1 rows bit for bit.  At a
    # power of two every scaling is exact, so every row's rel_dev is too
    report = run_full_suite(alpha=alpha, n_max=10)
    assert report.overall
    assert len(report.checks) == len(unit_alpha_suite.checks) == 182
    unit_scale = ("identity", "bound-state correspondence", "residual", "gram")
    power_of_two = math.frexp(alpha)[0] == 0.5
    exact = 0
    for row, unit in zip(report.checks, unit_alpha_suite.checks):
        assert row.name.replace(f"alpha={alpha}", "alpha=1.0") == unit.name
        if row.name.startswith(unit_scale):
            exact += 1
            assert row.computed == unit.computed, row.name
            assert row.abs_dev == unit.abs_dev, row.name
            assert row.rel_dev == unit.rel_dev, row.name
        elif power_of_two:
            assert (row.rel_dev, row.passed) == (unit.rel_dev, unit.passed), row.name
        else:
            assert abs(row.rel_dev - unit.rel_dev) <= 1e-11, row.name
    # identities, correspondence, residuals, Gram entries
    assert exact == (11 + 6 + 6) + 11 + 9 + 9 * 10 // 2


def test_run_full_suite_builds_only_the_t_and_z_node_sets(monkeypatch):
    # every quadrature row sums over the rule on t in (0, pi) or on u in
    # (0, 1); the x form reads the t nodes at x = t / 2
    built = set()
    original = verify._nodes

    def recording(a, b, order, panels):
        built.add((a, b))
        return original(a, b, order, panels)

    monkeypatch.setattr(verify, "_nodes", recording)
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


def test_run_full_suite_rejects_unusable_run_parameters_before_any_row(monkeypatch):
    # each is rejected with the message of the rule a row would have broken
    ran = []
    monkeypatch.setattr(verify, "_check_coefficient", ran.append)
    for parameters, rule in (({"alpha": -1.0}, partial(WellConfig, -1.0)),
                             ({"alpha": math.nan}, partial(check_expectation_x, 2, math.nan)),
                             ({"quad_order": 0}, partial(check_trig_norm, 2, order=0)),
                             ({"panels": 0}, partial(check_hypergeom_norm, 2, "x", panels=0)),
                             ({"grid_points": 50}, partial(fd_spectrum, 1.0, 50, 3))):
        with pytest.raises(ParameterError) as suite_error:
            run_full_suite(n_max=1, **parameters)
        with pytest.raises(ParameterError) as rule_error:
            rule()
        assert str(suite_error.value) == str(rule_error.value)
    assert ran == []


def test_run_full_suite_is_falsifiable(monkeypatch):
    # corrupt the exact coefficient table (C_n = -1/7 as the pair every
    # reader takes): every check that leans on it must fail, while
    # coefficient-free checks keep passing
    monkeypatch.setattr(closed_form, "_coefficient", lambda n: (-1, 7))
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

    monkeypatch.setattr(closed_form, "_coefficient", boom)
    report = run_full_suite(n_max=2, grid_points=1000)
    assert not report.overall
    assert any("error" in c.name and "synthetic failure" in c.name for c in report.checks)
    assert any(c.passed for c in report.checks)  # independent checks still ran


# Each suite family at n_max = 2: the check that computes its rows (and the
# form it is called with, where two families share one check), the prefix
# of its rows' names, its errored rows' names and its default tolerance key
# (None: exact, at 0).
_SUITE_FAMILIES = [
    ("_check_coefficient", None, "coefficient C_", [f"coefficient C_{n}" for n in range(3)],
     None),
    ("_check_midpoint_vanishing", None, "midpoint vanishing",
     [f"midpoint vanishing m={m}" for m in range(26)], None),
    ("check_trig_norm", None, "trig norm", [f"trig norm k={k}" for k in (2, 3, 4)],
     "quadrature"),
    ("check_hypergeom_norm", None, "hypergeom norm",
     [f"hypergeom norm ({form}-form) n={n}" for n in range(3) for form in "xz"], "quadrature"),
    ("check_expectation_x", None, "expectation", ["expectation <x> k=2 alpha=1.0"],
     "quadrature"),
    ("check_first_moment", "trig", "first moment (trig)", ["first moment (trig) k=2"],
     "quadrature"),
    ("check_first_moment", "hypergeom", "first moment (hypergeom)",
     [f"first moment (hypergeom) n={n}" for n in range(3)], "quadrature"),
    ("check_orthonormality", None, "gram", ["gram matrix"], "quadrature"),
    ("check_residual", None, "residual", ["residual (partner) k=2 alpha=1.0"], "residual"),
    ("check_correspondence", None, "bound-state",
     [f"bound-state correspondence n={n}" for n in range(3)], "identity"),
    ("check_identity", None, "identity",
     ["identity (base) n=0", "identity (base) n=1", "identity (base) n=2",
      "identity (even ratio) m=0", "identity (odd ratio) m=0",
      "identity (even ratio) m=1", "identity (odd ratio) m=1"], "identity"),
    ("check_fd_spectrum", None, "fd ", ["fd spectrum"], "fd_spectrum"),
]


@pytest.mark.parametrize("check, form, prefix, names, tolerance", _SUITE_FAMILIES,
                         ids=[family[2].strip() for family in _SUITE_FAMILIES])
def test_a_family_whose_check_raises_gives_its_errored_rows(monkeypatch, check, form,
                                                            prefix, names, tolerance):
    # each of the family's rows becomes one errored row, at its default
    # tolerance; every other family's rows are those of an unbroken run
    original = getattr(verify, check)

    def broken(*args, **kwargs):
        if form is None or args[1] == form:
            raise RuntimeError("synthetic failure")
        return original(*args, **kwargs)

    unbroken = run_full_suite(n_max=2, grid_points=1000).checks
    monkeypatch.setattr(verify, check, broken)
    rows = run_full_suite(n_max=2, grid_points=1000).checks
    start = next(i for i, row in enumerate(unbroken) if row.name.startswith(prefix))
    stop = start + sum(row.name.startswith(prefix) for row in unbroken)
    tol = 0.0 if tolerance is None else DEFAULT_TOLERANCES[tolerance]
    errored = [CheckResult(f"{name} [error: RuntimeError: synthetic failure]",
                           math.nan, math.nan, math.inf, math.inf, tol, False) for name in names]
    assert repr(rows) == repr((*unbroken[:start], *errored, *unbroken[stop:]))


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
