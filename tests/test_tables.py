"""The row tables and the t-grid rows against their one-point forms."""
import math
from fractions import Fraction
from array import array
from functools import partial

import pytest

from oracles import (bracket_decimal, chi, forbid, held, identity_pairs, jacobi_real,
                     pt_eigen_hypergeom, spy, stable_bracket)
from ptdarboux import closed_form, verify
from ptdarboux.cli import MAX_DEGREE
from ptdarboux.closed_form import TGrid, TrigEigenfunction, chi_derivatives
from ptdarboux.errors import ParameterError
from ptdarboux.hypergeom import TerminatingHypergeometric
from ptdarboux.models import PTParams, WellConfig


def _factor(n):
    return TerminatingHypergeometric(n, Fraction(n + 4), Fraction(5, 2))


def _cosines(ts):
    # x = 1 - 2 sin^2(t/2) = cos t, the row a TGrid's level rows read
    return [math.cos(t) for t in ts]


def _suite_level_rows():
    # the x = 1 - 2z rows the suite sweeps, each with its level-row table:
    # cos t at the t quadrature nodes (the x form) and on the interior grid
    # in t, each read through a TGrid holding every level, and 1 - 2z at the
    # z-form nodes of the default rule, read from the ladder the z rule sweeps
    levels = range(MAX_DEGREE + 1)
    t_nodes, t_grid = verify._nodes(0.0, math.pi, 64, 32)[0], verify._interior_grid().ts
    z_nodes = [1.0 - 2.0 * (u * u * (3.0 - 2.0 * u)) for u in verify._nodes(0.0, 1.0, 64, 32)[0]]
    z_rows = dict(closed_form._level_rows(z_nodes, levels))
    return {
        "x nodes": (_cosines(t_nodes), TGrid(t_nodes, levels).level),
        "z nodes": (z_nodes, z_rows.__getitem__),
        "t grid": (_cosines(t_grid), TGrid(t_grid, levels).level),
    }


def test_level_rows_equal_f21_eval_real_bitwise_to_the_degree_cap():
    # every level to MAX_DEGREE against the scalar Jacobi loop at the row's
    # own x (at the z nodes, f21_eval_real's bits); the 2,048-node
    # quadrature rows are checked at every fourth node to keep the scalar
    # reference affordable
    for name, (xs, level) in _suite_level_rows().items():
        stride = 1 if name == "t grid" else 4
        for n in range(MAX_DEGREE + 1):
            row = level(n)
            h = _factor(n)
            mismatches = [x for x, f in zip(xs[::stride], row[::stride])
                          if f != jacobi_real(h, x)]
            assert not mismatches, (name, n, mismatches[:3])


def test_level_table_out_of_order_access_gives_the_same_bits():
    # a grid holding levels returns its kept rows in any order; a lone read
    # of a fresh grid sweeps to its own level and gives the same bits
    ts = verify._nodes(0.0, math.pi, 64, 32)[0]
    grid = TGrid(ts, levels=[30, 5])
    first = list(grid.level(30))
    low = list(grid.level(5))
    assert grid.level(30) is grid.level(30)
    assert first == list(TGrid(ts).level(30))
    assert low == list(TGrid(ts).level(5))
    assert low == [jacobi_real(_factor(5), x) for x in _cosines(ts)]
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
        grid = TGrid(ts, slopes=range(2, MAX_DEGREE + 3))
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
    grid = TGrid(ts, slopes=[5, 30], seconds=[7])
    high = grid.slope(30)
    assert grid.mode(5) == TGrid(ts).mode(5) and grid.mode(30) == TGrid(ts).mode(30)
    assert grid.slope(30) is high and grid.second_derivative(7) is grid.second_derivative(7)
    assert grid.slope(9) is not grid.slope(9) and grid.slope(9) == TGrid(ts).slope(9)
    assert type(grid.slope(9)) is list and type(high) is array  # a lone read keeps no copy
    assert held(grid, "slopes") == [5, 30] and held(grid, "seconds") == [7]
    for bad in (grid, TGrid(ts)):
        with pytest.raises(ParameterError):
            bad.mode(1)
        with pytest.raises(ParameterError):
            bad.slope(1)
        with pytest.raises(ParameterError):
            bad.second_derivative(1)


def test_a_grid_holds_arrays_at_exactly_its_indices_and_reads_others_as_lists():
    # the rows a grid is built with are array('d') rows with the bits of a lone
    # read; a read at any other index is the list of its own sweep, and
    # leaves what the grid holds as it was
    ts = verify._interior_grid().ts[::50]
    grid, fresh = TGrid(ts, levels=[3, 0], slopes=[4], seconds=[6, 2]), TGrid(ts)
    kept = dict(grid._held)
    assert sorted(kept) == [("levels", 0), ("levels", 3), ("seconds", 2), ("seconds", 6),
                            ("slopes", 4)]
    for (kind, index), row in kept.items():
        read = {"levels": "level", "slopes": "slope", "seconds": "second_derivative"}[kind]
        assert type(row) is array and row.typecode == "d"
        assert getattr(grid, read)(index) is row and list(row) == getattr(fresh, read)(index)
    for read, index in (("level", 1), ("level", 4), ("slope", 2), ("slope", 6),
                        ("second_derivative", 4), ("second_derivative", 3)):
        row = getattr(grid, read)(index)
        assert type(row) is list and row == getattr(fresh, read)(index)
    assert grid._held.keys() == kept.keys()
    assert all(grid._held[key] is row for key, row in kept.items())


@pytest.mark.parametrize("indices, starts", [
    ((), []),
    ((range(11),), ["level sweep"]),
    ((range(11), range(2, 13), range(2, 10)), ["level sweep", "u sweep"]),
], ids=["none", "levels", "levels-slopes-seconds"])
def test_a_grid_starts_one_sweep_per_recurrence_it_holds_rows_of(monkeypatch, indices, starts):
    # built with no index a grid starts neither sweep; with levels 0..n, and
    # U'_{k-1} and g'' rows at k <= m, one level sweep and one U sweep
    ts, started = verify._interior_grid().ts[::50], []
    for kind in ("level sweep", "u sweep"):
        spy(monkeypatch, kind, lambda *call, kind=kind: started.append(kind))
    grid = TGrid(ts, *indices)
    assert started == starts
    assert len(grid._held) == sum(map(len, indices))


def test_derivative_rows_match_the_cotangent_form():
    # g = k cos(kt) - cot(t) sin(kt) differentiated by hand, where sin t >= 0.1
    # keeps the cotangent form accurate, against the g'' rows a grid holds,
    # from one differentiated U sweep, and against g' as chi_derivatives
    # forms it at every 20th point (at alpha = 1, where x = t/2 gives back t
    # exactly).  A lone read of a fresh grid differentiates its own U sweep
    # to k and gives the same bits
    ts = [t for t in verify._interior_grid().ts if math.sin(t) >= 0.1]
    ks = range(2, MAX_DEGREE + 4)
    grid = TGrid(ts, seconds=ks)
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
    # interior grid relative to the row's largest value (measured: 4.7e-14
    # at k = 61 and 1.2e-13 at k = 62 at worst).  The difference k cos(kt) -
    # cos(t) U_{k-1}(cos t) loses about 3u / (k t)^2 near the walls: 7.3e-11
    # at k = 2, t = 1e-3
    ks = range(2, MAX_DEGREE + 3)
    interior = verify._interior_grid().ts[::25]
    for k in ks:
        near = [1e-3 * 2.0 ** i for i in range(12) if 1e-3 * 2.0 ** i <= 1.0 / k]
        ts = near + [math.pi - t for t in near] + interior
        grid = TGrid(ts, slopes=[k], seconds=[k])
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
    # the t rule's tables stream their rows from a TGrid that holds none
    # and build no identity, potential or g'' row: they keep the
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


@pytest.mark.parametrize("build, indices, bound, less_kept", [
    (verify._level_sums, range(31), 9, False),
    (verify._z_level_sums, range(31), 9, False),
    (verify._mode_sums, range(2, 33), 13, True),
], ids=["t-levels", "z-levels", "t-modes"])
def test_t_and_z_rule_tables_hold_few_rows_at_once(build, indices, bound, less_kept):
    # a table's build streams its rows: its traced peak (for the mode table,
    # less the arrays and sums it keeps) stays under `bound` rows, a row
    # being a list of a new float per node of the default rule (an 8-byte
    # slot and a 24-byte float each).  A level build that held its level
    # rows would hold 31 arrays more, near 8 rows
    import tracemalloc

    for a, b in ((0.0, math.pi), (0.0, 1.0)):
        verify._nodes(a, b, verify.QUAD_ORDER, verify.PANELS)  # cached, not traced
    row = verify.QUAD_ORDER * verify.PANELS * (8 + 24)
    tracemalloc.start()
    try:
        table = build(verify.QUAD_ORDER, verify.PANELS, indices)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(table) == list(indices)
    assert (peak - kept if less_kept else peak) / row < bound


def test_a_t_grid_is_freed_without_a_cycle_collection():
    # its rows refer to no grid, so a one-shot grid (tabulate's) and a grid
    # holding rows (the suite's) free their rows at once
    import gc
    import weakref

    gc.disable()
    try:
        for indices in ((), (range(6), range(2, 10), range(2, 10))):
            grid = TGrid(verify._interior_grid().ts, *indices)
            grid.bound_state_pairs(5, 1.0), grid.second_derivative(9), grid.mode(9), grid.potential
            ref, row = weakref.ref(grid), weakref.ref(grid.sin_sq)
            del grid
            assert ref() is None and row() is None
    finally:
        gc.enable()


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
    forbid(monkeypatch, "level sweep", "u sweep", "potential rows")  # U: every bracket, every g''
    with pytest.raises(ParameterError):
        call()
