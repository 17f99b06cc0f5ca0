"""fd_spectrum's certificate on seeded random grids.

Each mode of verify.fd_spectrum is Newton, then two counts that prove a
bracket of half-width verify._HALF_WIDTH around it; bisection on counts
finishes a mode whose counts disagree.  On every grid drawn here no mode may
need that fallback: the grid's count sweeps are exactly 2 per mode plus one
count of the top per block that holds a mode.  And each value must lie within
_HALF_WIDTH / 2 (relative) of the value a Newton stop of 1e-8 gives.

    PYTHONPATH=src python tests/fd_certificate.py [GRIDS [SEED]]

draws GRIDS grids (default 200, seed 1): points log-uniform in 100-100,000,
1-10 modes and alpha log-uniform in 1e-6-1e6.  It prints the worst move and
the grids that fell back, and exits 1 when any grid falls back or moves
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


def _spectrum(alpha: float, grid_points: int, modes: int, stop: float) -> tuple[list, int]:
    """fd_spectrum with Newton's stop set to `stop`, and its count sweeps."""
    sturm_count, newton_stop = verify._sturm_count, verify._NEWTON_STOP
    counts = []

    def counted(*args):
        counts.append(1)
        return sturm_count(*args)

    verify._sturm_count, verify._NEWTON_STOP = counted, stop
    try:
        return verify.fd_spectrum(alpha, grid_points, modes), len(counts)
    finally:
        verify._sturm_count, verify._NEWTON_STOP = sturm_count, newton_stop


def check(alpha: float, grid_points: int, modes: int) -> tuple[int, float]:
    """A grid's count sweeps beyond the certificate's (2 per mode, and one
    count of the top per block that holds a mode), and its largest relative
    move from the values a Newton stop of 1e-8 gives."""
    values, counts = _spectrum(alpha, grid_points, modes, verify._NEWTON_STOP)
    reference, _ = _spectrum(alpha, grid_points, modes, 1e-8)
    move = max(abs(value - ref) / ref for value, ref in zip(values, reference))
    return counts - 2 * modes - min(modes, 2), move


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 200
    seed = int(argv[1]) if len(argv) > 1 else 1
    results = [(grid, *check(*grid)) for grid in grids(count, seed)]
    (alpha, grid_points, modes), _, worst = max(results, key=lambda result: result[2])
    print(f"{count} grids (seed {seed}); worst move against a 1e-8 stop: {worst:.3g} "
          f"(alpha={alpha!r} grid_points={grid_points} modes={modes}); "
          f"bound {verify._HALF_WIDTH / 2:.3g}")
    failed = [grid for grid, extra, _ in results if extra]
    for alpha, grid_points, modes in failed:
        print(f"fallback bisection: alpha={alpha!r} grid_points={grid_points} modes={modes}")
    return 1 if failed or worst > verify._HALF_WIDTH / 2 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
