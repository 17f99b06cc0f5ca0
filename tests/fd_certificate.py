"""fd_spectrum's certificate on seeded random grids.

Each mode of verify.fd_spectrum starts at its asymptotic grid eigenvalue
(verify._asymptotic) and is certified by two counts that prove a bracket of
half-width verify._HALF_WIDTH around its value.  A mode whose k h the gate
admits (verify._admits) is certified at that start with no Newton sweep;
every other mode, and an admitted one whose counts disagree, takes Newton
from it first.  Only a mode whose certificate still fails falls back to
bisection, which counts the top of its bracket once when no count has yet
moved it, and then bisects.  On every grid drawn here no admitted mode may
fail its certificate, and no mode may fall back: the grid's count sweeps
are exactly 2 per mode, none of them at the top.  And each value must lie
within _HALF_WIDTH / 2 (relative) of the reference, which closes the gate
and runs Newton from the same start for every mode with a stop of 1e-8.

    PYTHONPATH=src python tests/fd_certificate.py [GRIDS [SEED]]

draws GRIDS grids (default 200, seed 1): points log-uniform in 100-100,000,
1-10 modes and alpha log-uniform in 1e-6-1e6.  It prints how many modes took
each path, the Newton sweeps and counts of the top over all grids, the worst
move and the grids at fault, and exits 1 when an admitted mode fails its
certificate, a grid makes a count sweep beyond 2 per mode, or a value moves
further than _HALF_WIDTH / 2.
"""
import math
import random
import sys

from ptdarboux import verify


def grids(count: int, seed: int, max_points: int = 100_000) -> list[tuple[float, int, int]]:
    """`count` seeded (alpha, grid_points, modes): grid_points log-uniform in
    [100, max_points], modes uniform in 1-10, alpha log-uniform in [1e-6, 1e6]."""
    rng = random.Random(seed)
    return [(math.exp(rng.uniform(math.log(1e-6), math.log(1e6))),
             round(math.exp(rng.uniform(math.log(100), math.log(max_points)))),
             rng.randint(1, 10)) for _ in range(count)]


def _spectrum(alpha: float, grid_points: int, modes: int, reference: bool) -> tuple[list, dict]:
    """fd_spectrum and the calls of _sturm_count, _sturm_newton and _settle,
    each as the list of its calls' last arguments (a count's point); the
    reference closes the gate and stops Newton at 1e-8."""
    names = ("_sturm_count", "_sturm_newton", "_settle", "_admits", "_NEWTON_STOP")
    saved = {name: getattr(verify, name) for name in names}
    calls = {name: [] for name in names[:3]}
    for name, seen in calls.items():
        def called(*args, kernel=saved[name], seen=seen):
            seen.append(args[-1])
            return kernel(*args)
        setattr(verify, name, called)
    if reference:
        verify._admits, verify._NEWTON_STOP = lambda k, h: False, 1e-8
    try:
        return verify.fd_spectrum(alpha, grid_points, modes), calls
    finally:
        for name, value in saved.items():
            setattr(verify, name, value)


def check(alpha: float, grid_points: int, modes: int) -> tuple[int, int, int, int, int, float]:
    """A grid's modes that the gate admits, the admitted ones whose
    certificate failed (they ran Newton), its count sweeps beyond the
    certificate's 2 per mode, those of them at the top, its Newton sweeps
    and its largest relative move from the reference."""
    h = math.pi / grid_points
    admitted = sum(verify._admits(k, h) for k in range(2, modes + 2))
    values, calls = _spectrum(alpha, grid_points, modes, reference=False)
    reference, _ = _spectrum(alpha, grid_points, modes, reference=True)
    move = max(abs(value - ref) / ref for value, ref in zip(values, reference))
    counts, top = calls["_sturm_count"], (modes + 2) ** 2 * h ** 2
    return (admitted, len(calls["_settle"]) - (modes - admitted), len(counts) - 2 * modes,
            counts.count(top), len(calls["_sturm_newton"]), move)


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 200
    seed = int(argv[1]) if len(argv) > 1 else 1
    results = [(grid, *check(*grid)) for grid in grids(count, seed)]
    modes = sum(grid[2] for grid, *_ in results)
    asymptotic = sum(admitted - failed for _, admitted, failed, *_ in results)
    tops, newton = (sum(result[i] for result in results) for i in (4, 5))
    (alpha, grid_points, worst_modes), *_, worst = max(results, key=lambda result: result[-1])
    print(f"{count} grids (seed {seed}), {modes} modes: {asymptotic} certified at their "
          f"asymptotic value, {modes - asymptotic} by Newton, in {newton} Newton sweeps; "
          f"{tops} counts of the top; worst move against the reference: {worst:.3g} "
          f"(alpha={alpha!r} grid_points={grid_points} modes={worst_modes}); "
          f"bound {verify._HALF_WIDTH / 2:.3g}")
    faults = [(grid, failed, extra) for grid, _, failed, extra, *_ in results if failed or extra]
    for (alpha, grid_points, grid_modes), failed, extra in faults:
        print(f"alpha={alpha!r} grid_points={grid_points} modes={grid_modes}: {failed} admitted "
              f"modes failed their certificate, {extra} count sweeps beyond it")
    return 1 if faults or worst > verify._HALF_WIDTH / 2 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
