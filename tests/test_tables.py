"""The row tables and the t-grid rows against their one-point forms."""
import math
from fractions import Fraction
from array import array
from functools import partial

import pytest

from oracles import (bracket_decimal, chi, f21_real, identity_pairs, pt_eigen_hypergeom,
                     stable_bracket)
from ptdarboux import closed_form, hypergeom, verify
from ptdarboux.cli import MAX_DEGREE
from ptdarboux.closed_form import TGrid, TrigEigenfunction, chi_derivatives
from ptdarboux.errors import ParameterError
from ptdarboux.hypergeom import TerminatingHypergeometric
from ptdarboux.models import PTParams, WellConfig


def _factor(n):
    return TerminatingHypergeometric(n, Fraction(n + 4), Fraction(5, 2))


def _half_angle_sq(ts):
    # z = sin^2(t/2), formed as the level rows form it
    return [s * s for s in (math.sin(0.5 * t) for t in ts)]


def _held_grid(ts, levels=(), modes=(), seconds=()):
    # a TGrid holding these rows, built up front, as the suite's interior grid
    grid = TGrid(ts)
    grid._hold(levels, modes, seconds)
    return grid


def _suite_level_rows():
    # the z rows the suite sweeps, each with its level-row table: sin^2(t/2)
    # at the t quadrature nodes (the x form) and on the interior grid in t,
    # each read through a TGrid holding every level, and the z-form nodes at
    # the default rule, read from the ladder the z rule sweeps
    levels = range(MAX_DEGREE + 1)
    t_nodes, t_grid = verify._nodes(0.0, math.pi, 64, 32)[0], verify._interior_grid().ts
    z_nodes = [u * u * (3.0 - 2.0 * u) for u in verify._nodes(0.0, 1.0, 64, 32)[0]]
    z_rows = dict(closed_form._picked(hypergeom._jacobi_rows(1.5, 1.5, z_nodes), levels))
    return {
        "x nodes": (_half_angle_sq(t_nodes), _held_grid(t_nodes, levels).level),
        "z nodes": (z_nodes, z_rows.__getitem__),
        "t grid": (_half_angle_sq(t_grid), _held_grid(t_grid, levels).level),
    }


def test_level_rows_equal_f21_eval_real_bitwise_to_the_degree_cap():
    # every level to MAX_DEGREE; the 2,048-node quadrature rows are checked
    # at every fourth node to keep the scalar reference affordable
    for name, (zs, level) in _suite_level_rows().items():
        stride = 1 if name == "t grid" else 4
        for n in range(MAX_DEGREE + 1):
            row = level(n)
            h = _factor(n)
            mismatches = [z for z, f in zip(zs[::stride], row[::stride])
                          if f != f21_real(h, z)]
            assert not mismatches, (name, n, mismatches[:3])


def test_level_table_out_of_order_access_gives_the_same_bits():
    # a grid holding levels returns its kept rows in any order; a lone read
    # of a fresh grid sweeps to its own level and gives the same bits
    ts = verify._nodes(0.0, math.pi, 64, 32)[0]
    grid = _held_grid(ts, levels=[30, 5])
    first = list(grid.level(30))
    low = list(grid.level(5))
    assert grid.level(30) is grid.level(30)
    assert first == list(TGrid(ts).level(30))
    assert low == list(TGrid(ts).level(5))
    assert low == [f21_real(_factor(5), z) for z in _half_angle_sq(ts)]
    for bad in (grid, TGrid(ts)):
        with pytest.raises(ParameterError, match="got -1"):  # never Python's negative indexing
            bad.level(-1)


def test_mode_rows_equal_stable_bracket_bitwise():
    # every bracket a grid forms from the rows it holds, and a lone read's
    # at a few k
    ts_rows = {
        "t nodes": verify._nodes(0.0, math.pi, 64, 32)[0],
        "t grid": verify._interior_grid().ts,
    }
    for name, ts in ts_rows.items():
        grid = _held_grid(ts, modes=range(2, MAX_DEGREE + 3))
        for k in range(2, MAX_DEGREE + 3):
            row = grid.mode(k)
            mismatches = [t for t, g in zip(ts, row) if g != stable_bracket(k, t)]
            assert not mismatches, (name, k, mismatches[:3])
        for k in (2, 17, MAX_DEGREE + 2):
            assert TGrid(ts).mode(k) == grid.mode(k)


def test_t_grid_keeps_its_mode_rows_and_rejects_the_seed_index():
    # a grid keeps the rows it holds, the row U'_{k-1} of each mode k, and
    # no row a lone read builds; a mode is formed from its row on each read
    ts = verify._interior_grid().ts
    grid = _held_grid(ts, modes=[5, 30], seconds=[7])
    high = grid.slope(30)
    assert grid.mode(5) == TGrid(ts).mode(5) and grid.mode(30) == TGrid(ts).mode(30)
    assert grid.slope(30) is high and grid.second_derivative(7) is grid.second_derivative(7)
    assert grid.slope(9) is not grid.slope(9) and grid.slope(9) == TGrid(ts).slope(9)
    assert type(grid.slope(9)) is list and type(high) is array  # a lone read keeps no copy
    assert sorted(grid._slopes) == [5, 30] and sorted(grid._second) == [7]
    for bad in (grid, TGrid(ts)):
        with pytest.raises(ParameterError):
            bad.mode(1)
        with pytest.raises(ParameterError):
            bad.slope(1)
        with pytest.raises(ParameterError):
            bad.second_derivative(1)


def test_derivative_rows_match_the_cotangent_form():
    # g = k cos(kt) - cot(t) sin(kt) differentiated by hand, where sin t >= 0.1
    # keeps the cotangent form accurate, against the g'' rows a grid holds,
    # from one differentiated U sweep, and against g' as chi_derivatives
    # forms it at every 20th point (at alpha = 1, where x = t/2 gives back t
    # exactly).  A lone read of a fresh grid differentiates its own U sweep
    # to k and gives the same bits
    ts = [t for t in verify._interior_grid().ts if math.sin(t) >= 0.1]
    ks = range(2, MAX_DEGREE + 4)
    grid = _held_grid(ts, seconds=ks)
    for k in ks:
        second = grid.second_derivative(k)
        if k % 10 == 2:
            assert TGrid(ts).second_derivative(k) == list(second)
        f = TrigEigenfunction(k, 1.0)
        first = [chi_derivatives(f, 0.5 * t)[1] / (2.0 * f.norm) for t in ts[::20]]
        exact_first, exact_second = [], []
        for t in ts:
            sk, ck = math.sin(k * t), math.cos(k * t)
            cot, csc_sq = math.cos(t) / math.sin(t), 1.0 / math.sin(t) ** 2
            exact_first.append(-k * k * sk + csc_sq * sk - k * cot * ck)
            exact_second.append(-k ** 3 * ck - 2.0 * csc_sq * cot * sk
                                + 2.0 * k * csc_sq * ck + k * k * cot * sk)
        for row, exact in ((first, exact_first[::20]), (second, exact_second)):
            scale = max(map(abs, row))
            worst = max(abs(a - b) for a, b in zip(row, exact))
            assert worst <= 1e-12 * scale, (k, worst / scale)


def test_bracket_and_second_derivative_rows_keep_their_relative_accuracy_to_the_walls():
    # against the cotangent form at 60 digits (oracles.bracket_decimal): at
    # every k to the degree cap's k = 62, both rows keep their relative
    # accuracy at t from 1e-3 (the interior grid's margin) to 1/k, where
    # the mode has no zero yet, and at pi - t, and on every 25th point of the
    # interior grid relative to the row's largest value (measured: 3.8e-14
    # and 7.3e-14 at worst, both at k = 62).  The difference k cos(kt) -
    # cos(t) U_{k-1}(cos t) loses about 3u / (k t)^2 near the walls: 7.3e-11
    # at k = 2, t = 1e-3
    ks = range(2, MAX_DEGREE + 3)
    interior = verify._interior_grid().ts[::25]
    for k in ks:
        near = [1e-3 * 2.0 ** i for i in range(12) if 1e-3 * 2.0 ** i <= 1.0 / k]
        ts = near + [math.pi - t for t in near] + interior
        grid = _held_grid(ts, modes=[k], seconds=[k])
        exact = [tuple(map(float, bracket_decimal(k, t))) for t in ts]
        for row, column in ((grid.mode(k), 0), (grid.second_derivative(k), 1)):
            errors = [abs(v - e[column]) for v, e in zip(row, exact)]
            worst_near = max(err / abs(e[column])
                             for err, e in zip(errors, exact[:2 * len(near)]))
            scale = max(abs(e[column]) for e in exact)
            worst_interior = max(errors[2 * len(near):]) / scale
            assert worst_near <= 1e-13 and worst_interior <= 2e-13, (k, column, worst_near,
                                                                    worst_interior)


def test_bound_state_pairs_equal_their_pointwise_forms():
    # the sampler that tabulate and the correspondence share, on the grid
    # t = 2 alpha x, against the point-wise bound state and partner mode
    p = PTParams(2.0, 2.0)
    for alpha in (1.0, 0.6024):
        cfg = WellConfig(alpha)
        xs = [cfg.length * (i / 200) for i in range(201)]
        grid = TGrid([2.0 * alpha * x for x in xs])
        for n in (7, 0, 12):
            amplitude = closed_form.normalization_A(n, alpha)
            f = closed_form.TrigEigenfunction(n + 2, alpha)
            psi, modes = grid.bound_state_pairs(n, alpha)
            assert psi == [pt_eigen_hypergeom(cfg, p, n, amplitude, x) for x in xs]
            assert modes == [chi(f, x) for x in xs]


def test_t_grid_pairs_equal_fresh_one_point_grids():
    grid = TGrid(verify._interior_grid().ts[::20])
    for which, index in (("odd", 4), ("base", 3), ("even", 0), ("base", 9)):
        shared = identity_pairs(which, index, grid)
        single = [identity_pairs(which, index, TGrid([t]))[0] for t in grid.ts]
        assert shared == single


def test_quadrature_grid_builds_no_identity_or_bound_state_rows():
    # the t rule's tables build no TGrid, so no identity row (sin_sq), no
    # potential and no bracket or g'' row of a TGrid: they keep the
    # normalized mode rows asked for with their two sums, and two scalars
    # per level asked for, never a level row
    modes = verify._mode_sums(64, 32, range(2, 6))
    levels = verify._level_sums(64, 32, range(4))
    assert sorted(modes) == [2, 3, 4, 5] and sorted(levels) == [0, 1, 2, 3]
    for row, sums in modes.values():
        assert type(row) is array and row.typecode == "d" and len(row) == 64 * 32
        assert sorted(sums) == ["D", "M"] and all(type(v) is float for v in sums.values())
    assert all(sorted(level) == ["D", "M"] and all(type(v) is float for v in level.values())
               for level in levels.values())
    assert sorted(verify._level_sums(64, 32, [7, 3])) == [3, 7]  # only the levels asked for


def test_a_t_grid_is_freed_without_a_cycle_collection():
    # its rows refer to no grid, so a one-shot grid (tabulate's) and a grid
    # holding rows (the suite's) free their rows at once
    import gc
    import weakref

    gc.disable()
    try:
        for held in (False, True):
            grid = TGrid(verify._interior_grid().ts)
            if held:
                grid._hold(range(6), range(2, 10), range(2, 10))
            grid.bound_state_pairs(5, 1.0), grid.second_derivative(9), grid.mode(9), grid.potential
            ref, row = weakref.ref(grid), weakref.ref(grid.sin_sq)
            del grid
            assert ref() is None and row() is None
    finally:
        gc.enable()


def _forbidden_sweep(*args):
    raise AssertionError("a table was swept before its inputs were validated")
    yield  # a generator function, like the sweeps it stands in for


def _forbidden_potential(*args):
    raise AssertionError("a potential row was built before its inputs were validated")


@pytest.mark.parametrize("call", [
    partial(verify.check_trig_norm, 1),
    partial(verify.check_trig_norm, 3, panels=0),
    partial(verify.check_trig_norm, 3, order=0),
    partial(verify.check_hypergeom_norm, -1),
    partial(verify.check_hypergeom_norm, 2, "bogus"),
    partial(verify.check_hypergeom_norm, 2, "x", panels=0),
    partial(verify.check_expectation_x, 1, 1.0),
    partial(verify.check_expectation_x, 3, math.inf),
    partial(verify.check_expectation_x, 3, math.nan),
    partial(verify.check_first_moment, 1, "trig"),
    partial(verify.check_first_moment, -1, "hypergeom"),
    partial(verify.check_first_moment, 0, "nope"),
    partial(verify.check_first_moment, 3, "hypergeom", order=0),
    partial(verify.check_orthonormality, 1),
    partial(verify.check_orthonormality, 4, math.nan),
    partial(verify.check_orthonormality, 4, panels=0),
    partial(verify.check_correspondence, 0, math.nan),
    partial(verify.check_correspondence, 0, 0.0),
    partial(verify.check_correspondence, -1, 1.0),
    partial(verify.check_residual, 3, math.inf),
    partial(verify.check_identity, "bogus", 0),
    partial(verify.check_identity, "base", -1),
    partial(verify.check_residual, 3, -1.0),
    partial(verify.check_correspondence, 0, -1.0),
    partial(verify.check_correspondence, 0, math.inf),
    partial(verify.check_correspondence, 0, -math.inf),
    partial(verify.check_residual, 1),
    partial(verify.check_residual, 3, 0.0),
    partial(verify.check_residual, 3, math.nan),
    partial(verify.check_residual, 3, -math.inf),
])
def test_validation_errors_come_before_any_table_is_swept(monkeypatch, call):
    monkeypatch.setattr(hypergeom, "_jacobi_rows", _forbidden_sweep)
    monkeypatch.setattr(closed_form, "_bracket_rows", _forbidden_sweep)
    monkeypatch.setattr(closed_form, "_u_rows", _forbidden_sweep)  # a TGrid's bracket and g'' rows
    monkeypatch.setattr(closed_form, "_partner_potentials", _forbidden_potential)
    with pytest.raises(ParameterError):
        call()
