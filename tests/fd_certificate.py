"""fd_spectrum's certificates on seeded random grids.

Each mode of verify.fd_spectrum is settled by Sturm counts alone
(verify._settle) from one start bracket about its asymptotic grid eigenvalue
mu (verify._asymptotic): centred on mu (1 + r / 2), r = (k h)^4 / 360, and
max(_HALF_WIDTH, r) / 2 - 2^-51 wide on each side.  It is bisected by counts
to a width of _HALF_WIDTH of its upper end, and its value is the centre.  A
start bracket whose counts fail falls back once to (0, top].  On every
grid drawn here no start bracket may fall back, no mode at the narrowest
start (r <= _HALF_WIDTH, where the start bracket already meets _settle's
stop) may take more than its 2 counts, and each value must lie within _HALF_WIDTH / 2
(relative) of the reference: its certified bracket bisected further by
counts to a width of REFERENCE_WIDTH of its upper end (refine).

    PYTHONPATH=src python tests/fd_certificate.py [GRIDS [SEED]]

draws GRIDS grids (default 200, seed 1): points log-uniform in 100-100,000,
1-10 modes and alpha log-uniform in 1e-6-1e6.  It prints the start brackets
that fell back, the narrowest starts past their 2 counts, the count sweeps
and the worst move over all grids, and the grids at fault, and exits 1 when a
start bracket falls back, a mode at the narrowest start takes more than its 2
counts, or a value moves further than _HALF_WIDTH / 2 from the reference.
"""
import math
import random
import sys

import pytest

from oracles import spy
from ptdarboux import verify

# The reference brackets' width, relative to their upper end: 2.25 to 4.5
# ulps, since a width under one ulp is never reached.
REFERENCE_WIDTH = 5e-16


def grids(count: int, seed: int, max_points: int = 100_000) -> list[tuple[float, int, int]]:
    """`count` seeded (alpha, grid_points, modes): grid_points log-uniform in
    [100, max_points], modes uniform in 1-10, alpha log-uniform in [1e-6, 1e6]."""
    rng = random.Random(seed)
    return [(math.exp(rng.uniform(math.log(1e-6), math.log(1e6))),
             round(math.exp(rng.uniform(math.log(100), math.log(max_points)))),
             rng.randint(1, 10)) for _ in range(count)]


def refine(block: tuple, place: int, lo: float, up: float) -> float:
    """The block's place-th eigenvalue from a bracket (lo, up] that holds it,
    bisected by counts to REFERENCE_WIDTH of its upper end: its centre."""
    while up - lo > REFERENCE_WIDTH * up:
        mid = 0.5 * (lo + up)
        if verify._sturm_count(*block, mid) < place:
            lo = mid
        else:
            up = mid
    return 0.5 * (lo + up)


def check(alpha: float, grid_points: int, modes: int) -> tuple[int, int, int, float]:
    """A grid's start brackets that fell back (a result outside its start,
    which the counts of a start that holds its mode rule out), its modes at
    the narrowest start that took more than 2 counts, its count sweeps and
    its largest relative move from the reference."""
    with pytest.MonkeyPatch.context() as patch:
        counts = spy(patch, "sturm count", lambda *call: None)
        ks = spy(patch, "asymptotic", lambda mu, k, h: k)
        settled = spy(patch, "settle", lambda out, block, place, lo, up, top:
                      (block, place, lo, up, *out, len(counts)))
        values = verify.fd_spectrum(alpha, grid_points, modes)
    h = math.pi / grid_points
    h2, scale = h ** 2, 4.0 * alpha * alpha
    fell_back = slow = before = 0
    move = 0.0
    for k, (block, place, start_lo, start_up, lo, up, after), value in zip(ks, settled, values):
        fell_back += lo < start_lo or up > start_up
        slow += (k * h) ** 4 / 360.0 <= verify._HALF_WIDTH and after - before > 2
        before = after
        reference = scale * (refine(block, place, lo, up) / h2)
        move = max(move, abs(value - reference) / reference)
    return fell_back, slow, len(counts), move


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 200
    seed = int(argv[1]) if len(argv) > 1 else 1
    results = [(grid, *check(*grid)) for grid in grids(count, seed)]
    modes = sum(grid[2] for grid, *_ in results)
    fell_back, slow, sweeps = (sum(result[i] for result in results) for i in (1, 2, 3))
    (alpha, grid_points, worst_modes), *_, worst = max(results, key=lambda result: result[-1])
    print(f"{count} grids (seed {seed}), {modes} modes: {fell_back} start brackets fell back and "
          f"{slow} narrowest starts took more than 2 counts; {sweeps} count sweeps; worst move "
          f"against the reference: {worst:.3g} (alpha={alpha!r} grid_points={grid_points} "
          f"modes={worst_modes}); bound {verify._HALF_WIDTH / 2:.3g}")
    faults = [(grid, fell_back, slow) for grid, fell_back, slow, *_ in results
              if fell_back or slow]
    for (alpha, grid_points, grid_modes), fell_back, slow in faults:
        print(f"alpha={alpha!r} grid_points={grid_points} modes={grid_modes}: {fell_back} start "
              f"brackets fell back, {slow} narrowest starts past their 2 counts")
    return 1 if faults or worst > verify._HALF_WIDTH / 2 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
