"""The swept row tables and the t-grid rows against their one-point forms."""
import math
from fractions import Fraction
from functools import partial

import pytest

from oracles import chi, f21_real, pt_eigen_hypergeom, stable_bracket
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


def _suite_level_rows():
    # the z rows the suite sweeps, each with its level-row table: sin^2(t/2)
    # at the t quadrature nodes (the x form) and on the interior grid in t,
    # each read through a TGrid, and the z-form nodes at the default rule,
    # read from the ladder the z rule sweeps
    t_nodes, t_grid = verify._quad_grid(64, 32).nodes[0], verify._interior_grid().ts
    z_nodes = verify._z_sums(64, 32)[0]
    z_rows = closed_form._Swept(partial(hypergeom._jacobi_rows, 1.5, 1.5, z_nodes))
    return {
        "x nodes": (_half_angle_sq(t_nodes), TGrid(t_nodes).level),
        "z nodes": (z_nodes, z_rows.__getitem__),
        "t grid": (_half_angle_sq(t_grid), TGrid(t_grid).level),
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
    # TGrid.level reads one kept sweep: a lower level is not swept again
    ts = verify._quad_grid(64, 32).nodes[0]
    grid = TGrid(ts)
    first = list(grid.level(30))
    low = list(grid.level(5))
    assert grid.level(30) is grid.level(30)
    assert first == list(grid.level(30)) == list(TGrid(ts).level(30))
    assert low == list(TGrid(ts).level(5))
    assert low == [f21_real(_factor(5), z) for z in _half_angle_sq(ts)]
    with pytest.raises(ParameterError):
        grid.level(-1)


def test_swept_items_are_read_once_and_kept():
    started = []

    def sweep():
        for i in range(10):
            started.append(i)
            yield [i]

    items = closed_form._Swept(sweep)
    assert items[0] == [0] and started == [0]
    assert items[3] == [3] and started == [0, 1, 2, 3]
    assert items[1] is items[1] and started == [0, 1, 2, 3]
    for bad in (-1, -4):  # never Python's negative indexing
        with pytest.raises(ParameterError, match=f"got {bad}"):
            items[bad]
    assert started == [0, 1, 2, 3]


def test_swept_error_is_raised_again_at_and_above_its_index():
    def sweep():
        yield "a"
        yield "b"
        raise ValueError("item 2 failed")

    def depth(tb):
        return 0 if tb is None else 1 + depth(tb.tb_next)

    items = closed_form._Swept(sweep)
    with pytest.raises(ValueError) as first:
        items[4]
    depths = set()
    for i in (2, 3, 2, 7):  # the same error, never StopIteration or another item
        with pytest.raises(ValueError) as again:
            items[i]
        assert again.value is first.value
        depths.add(depth(again.value.__traceback__))
    assert len(depths) == 1  # a re-raise does not grow the traceback it carries
    assert (items[0], items[1]) == ("a", "b")


def test_swept_restarts_past_its_items_after_an_interruption():
    starts, interrupted = [], []

    def sweep():
        starts.append(len(starts))
        for i in range(5):
            if i == 2 and not interrupted:
                interrupted.append(i)
                raise KeyboardInterrupt
            yield [i]

    items = closed_form._Swept(sweep)
    kept = items[1]
    with pytest.raises(KeyboardInterrupt):
        items[3]
    # never StopIteration: the items a never-interrupted sweep gives
    assert (items[3], items[2], items[4]) == ([3], [2], [4])
    assert items[1] is kept and starts == [0, 1]


def test_swept_release_keeps_its_items_and_restarts_past_them():
    starts = []

    def sweep():
        starts.append(len(starts))
        for i in range(5):
            yield [i]

    items = closed_form._Swept(sweep)
    kept = items[1]
    items.release()
    assert items[1] is kept and starts == [0]  # a kept item starts no sweep
    assert (items[3], items[2]) == ([3], [2]) and starts == [0, 1]
    assert items[1] is kept


def test_mode_rows_equal_stable_bracket_bitwise():
    ts_rows = {
        "t nodes": verify._quad_grid(64, 32).nodes[0],
        "t grid": verify._interior_grid().ts,
    }
    for name, ts in ts_rows.items():
        grid = TGrid(ts)
        for k in range(2, MAX_DEGREE + 3):
            row = grid.mode(k)
            mismatches = [t for t, g in zip(ts, row) if g != stable_bracket(k, t)]
            assert not mismatches, (name, k, mismatches[:3])


def test_t_grid_keeps_its_mode_rows_and_rejects_the_seed_index():
    ts = verify._interior_grid().ts
    grid = TGrid(ts)
    high = grid.mode(30)
    assert grid.mode(5) == TGrid(ts).mode(5)
    assert grid.mode(30) is high
    with pytest.raises(ParameterError):
        grid.mode(1)


def test_derivative_rows_match_the_cotangent_form():
    # g = k cos(kt) - cot(t) sin(kt) differentiated by hand, where sin t >= 0.1
    # keeps the cotangent form accurate, against the swept g'' rows, which the
    # grid keeps, and against g' as chi_derivatives forms it at every 20th
    # point (at alpha = 1, where x = t/2 gives back t exactly).  The grid
    # differentiates its own kept U rows, the sweep here a fresh U sweep of
    # the cosines, and both read the grid's cos t and sin^2 t rows
    ts = [t for t in verify._interior_grid().ts if math.sin(t) >= 0.1]
    grid = TGrid(ts)
    seconds = closed_form._derivative_rows(partial(closed_form._cos_row, ts), grid._cosines,
                                           grid._sin_sq, closed_form._u_rows(grid._cosines))
    for k, second in zip(range(2, MAX_DEGREE + 4), seconds):
        assert grid.second_derivative(k) == second
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
        shared = closed_form.identity_pairs(which, index, grid)
        single = [closed_form.identity_pairs(which, index, TGrid([t]))[0] for t in grid.ts]
        assert shared == single


def test_quadrature_grid_builds_no_identity_or_bound_state_rows():
    # the t rule's sums build no TGrid, so no identity row (sin_sq), no
    # potential and no bracket or g'' row of a TGrid: they keep the
    # normalized mode rows read so far and two scalars per level swept,
    # never a level row
    verify._quad_grid.cache_clear()
    for n in range(4):
        verify.check_hypergeom_norm(n, "x")
        verify.check_first_moment(n, "hypergeom")
        verify.check_trig_norm(n + 2)
    sums = verify._quad_grid(64, 32)
    assert set(vars(sums)) == {"nodes", "modes", "levels", "_mode_sums"}
    assert not any(isinstance(value, TGrid) for value in vars(sums).values())
    assert len(sums.modes._items) == 4
    levels = sums.levels._items
    assert len(levels) == 4
    assert all(sorted(level) == ["D", "M"] and all(type(v) is float for v in level.values())
               for level in levels)


def test_a_t_grid_is_freed_without_a_cycle_collection():
    # its sweeps and the g'' sweep's hand-off of cos(kt) to the bracket refer
    # to its rows, never to the TGrid, so a one-shot grid (tabulate's) frees
    # its rows, and the working rows its sweeps hold, at once
    import gc
    import weakref

    gc.disable()
    try:
        grid = TGrid(verify._interior_grid().ts)
        grid.bound_state_pairs(5, 1.0), grid.second_derivative(9), grid.mode(9), grid.potential
        ref = weakref.ref(grid)
        del grid
        assert ref() is None
    finally:
        gc.enable()


def test_an_evicted_quadrature_grid_is_freed_without_a_cycle_collection():
    # the sweeps the t rule's holders advance refer to its nodes, not to the
    # _TSums, so dropping it from the cache frees its rows at once
    import gc
    import weakref

    verify._quad_grid.cache_clear()
    gc.disable()
    try:
        sums = verify._quad_grid(8, 4)
        sums.modes[3], sums.mode_sum(3, "M"), sums.levels[4]
        ref = weakref.ref(sums)
        del sums
        verify._quad_grid(8, 5)
        assert ref() is None
    finally:
        gc.enable()
        verify._quad_grid.cache_clear()


def _forbidden_sweep(*args):
    raise AssertionError("a table was swept before its inputs were validated")
    yield  # a generator function, like the sweeps it stands in for


def _forbidden_potential(*args):
    raise AssertionError("a potential row was built before its inputs were validated")


@pytest.fixture
def fresh_tables():
    # no cached table may outlive the test that patched its sweep
    cached = (verify._z_sums, verify._quad_grid, verify._interior_grid)
    for builder in cached:
        builder.cache_clear()
    yield
    for builder in cached:
        builder.cache_clear()


@pytest.mark.usefixtures("fresh_tables")
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
    monkeypatch.setattr(closed_form, "_u_rows", _forbidden_sweep)  # a TGrid's bracket rows
    monkeypatch.setattr(closed_form, "_derivative_rows", _forbidden_sweep)
    monkeypatch.setattr(closed_form, "_partner_potentials", _forbidden_potential)
    with pytest.raises(ParameterError):
        call()
