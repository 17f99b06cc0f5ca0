"""ptdarboux benchmark: real CLI calls, each in a fresh interpreter.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed draws the well scale alpha log-uniformly from [0.5, 2] and the
order of the cli_oneshot calls; the program receives only the generated
argv.  One client runs one child at a time (closed loop).  Each call runs
``ptdarboux.cli.main(argv)`` in a new interpreter, so every call pays the
cold-cache cost a user invocation pays, and every output is checked.  A run
makes a fixed number of units, sized from --seconds, so the same workload,
seed and --seconds always attempt the same checks.

With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json,
whose times are scaled to a reference machine speed (speed.py), and the
unscaled wall times beside them;
with --trace 1 it alternates untraced and traced calls of one unit and
prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
repeat every metric by name and unit, with a header.  The exit code is 0
when a result is printed and the run is correct, 1 when a result is printed
but some output is wrong while the program claimed success, and 2 when no
result can be produced (for example, no ``src/ptdarboux`` next to the
benchmark).  See NOTES.md for the workloads, the metrics and a known defect.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

RUN_LIMIT_S = 170.0  # start no new unit beyond this; a run must end within 180 s
SETUP_PROBES = 16  # import-only children before the work, and again after it
# Wall time of one unit, its children's starts included, and of both probe
# blocks together, at the reference speed.  A run makes a fixed number of
# units sized from --seconds with these, so that a workload, seed and
# --seconds always attempt the same checks, however fast the machine is.
UNIT_WALL_S = {"suite_n10": 3.0, "suite_n30": 17.0, "spectrum_fine": 2.0, "cli_oneshot": 7.5}
PROBES_WALL_S = 5.0
TRACED_PAIR_FACTOR = 2.4  # an untraced and a traced unit, over one untraced unit
# Times are scaled to a machine on which one pass of speed.py's loop takes
# this long.
REFERENCE_PASS_S = 0.003
ALPHA_RANGE = (0.5, 2.0)


@dataclass(frozen=True)
class Call:
    argv: tuple
    check: object  # (child result) -> checks.Outcome


def _verify(alpha: float, n_max: int) -> Call:
    argv = ("verify", "--n-max", str(n_max), "--format", "json", "--alpha", repr(alpha))
    return Call(argv, lambda r: checks.check_verify(r, alpha, n_max))


def _spectrum(alpha: float, count: int, grid_points: int | None = None) -> Call:
    argv = ("spectrum", "--count", str(count), "--format", "json", "--alpha", repr(alpha))
    if grid_points is not None:
        argv += ("--grid-points", str(grid_points))
    return Call(argv, lambda r: checks.check_spectrum(r, alpha, count))


def _tabulate(alpha: float, n: int, points: int = 201) -> Call:
    argv = ("tabulate", "--n", str(n), "--points", str(points), "--format", "json",
            "--alpha", repr(alpha))
    return Call(argv, lambda r: checks.check_tabulate(r, alpha, n, points))


def _identity(alpha: float, which: str, index: int) -> Call:
    flag = "--n" if which == "base" else "--m"
    argv = ("identity", "--which", which, flag, str(index), "--format", "json",
            "--alpha", repr(alpha))
    return Call(argv, lambda r: checks.check_identity(r, alpha, which, index))


def oneshot_batches(alpha: float, rng: random.Random):
    """Batches of short calls.  Every batch makes each call of the suite's
    n_max=10 ranges once (tabulate and base identity for n in 0..10, even
    and odd identities for m in 0..5, one spectrum), so batches cost the
    same whatever the seed; the seed decides their order."""
    calls = ([_tabulate(alpha, n) for n in range(11)]
             + [_identity(alpha, "base", n) for n in range(11)]
             + [_identity(alpha, which, m) for which in ("even", "odd") for m in range(6)]
             + [_spectrum(alpha, 3)])
    while True:
        yield rng.sample(calls, len(calls))


def units(workload: str, alpha: float, rng: random.Random):
    """Endless stream of units (lists of calls); one unit is one sample."""
    if workload == "cli_oneshot":
        return oneshot_batches(alpha, rng)
    make = {
        "suite_n10": lambda: [_verify(alpha, 10)],
        "suite_n30": lambda: [_verify(alpha, 30)],
        "spectrum_fine": lambda: [_spectrum(alpha, 10, 40000)],
    }[workload]
    return iter(make, None)


class ChildError(RuntimeError):
    """A child printed no result: the benchmark itself cannot go on."""


class Run:
    """Children started one at a time, and everything measured from them."""

    def __init__(self, started: float):
        self.started = started
        self.gauges = []  # the final speed gauge of every child, in run order
        self.speeds = []  # the speed each child ran at, in run order
        # Wall times as (child index, seconds): one per import, a list per unit.
        self.import_s = []
        self.main_s = {False: [], True: []}  # keyed by traced
        self.peak_rss_kb = []
        self.rows = 0
        self.failed = 0
        self.silent = False
        self.headroom = []
        self.notes = []
        self.output_sha = []
        self.traces = []
        self.cut = False  # fewer units than planned: the machine was too slow

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def child(self, traced: bool, argv=()) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, str(CHILD), "1" if traced else "0", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, self.remaining() + 8.0),
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise ChildError(f"child {' '.join(argv) or '(import only)'} exited "
                             f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["stderr"] = proc.stderr
        result["argv"] = list(argv)
        # The child ran at the mean of the gauges around and during it: the
        # one the previous child ended with, the samples taken while main()
        # ran, and its own final one.  A long call is sampled all along.
        result["index"] = len(self.speeds)
        self.speeds.append(statistics.fmean(
            self.gauges[-1:] + result["speed_samples"] + [result["speed_s"]]))
        self.gauges.append(result["speed_s"])
        return result

    def ref_s(self, samples) -> float:
        """Sum of (child index, wall seconds) samples, scaled to the
        reference speed."""
        return sum(seconds * REFERENCE_PASS_S / self.speeds[index] for index, seconds in samples)

    def probe(self, count: int) -> None:
        for _ in range(count):
            result = self.child(False)
            self.import_s.append((result["index"], result["import_s"]))

    def unit(self, calls, traced: bool) -> None:
        main_s = []
        trace = {}
        for call in calls:
            result = self.child(traced, call.argv)
            main_s.append((result["index"], result["main_s"]))
            outcome = call.check(result)
            self.rows += outcome.rows
            self.failed += outcome.failed
            self.silent |= outcome.silent
            self.headroom.extend(outcome.headroom)
            self.notes.extend(outcome.notes)
            if traced:
                _merge_trace(trace, result["trace"])
            else:
                self.import_s.append((result["index"], result["import_s"]))
                self.peak_rss_kb.append(result["peak_rss_kb"])
                self.output_sha.append(hashlib.sha256(result["out"].encode()).hexdigest())
        self.main_s[traced].append(main_s)
        if traced:
            self.traces.append(trace)


def _merge_trace(total: dict, trace: dict) -> None:
    for section, values in trace.items():
        into = total.setdefault(section, {})
        for key, value in values.items():
            into[key] = into.get(key, 0) + value


def unit_count(workload: str, seconds: float, trace: bool) -> int:
    """Units (untraced) or untraced-and-traced pairs (traced) of a run: as
    many as fit in --seconds at the reference speed, at least one."""
    unit_s = UNIT_WALL_S[workload] * (TRACED_PAIR_FACTOR if trace else 1.0)
    return max(1, int((seconds - PROBES_WALL_S) / unit_s))


def measure(workload: str, alpha: float, rng: random.Random, seconds: float, trace: bool) -> Run:
    """Set-up probes before and after the work, so that the setup_s median
    spans the whole run rather than the machine's speed at its start."""
    run = Run(time.monotonic())
    run.child(False)  # compile the package's bytecode once; only its gauge is kept
    run.probe(SETUP_PROBES)
    stream = units(workload, alpha, rng)
    # Traced runs repeat the seed's first unit, alternating untraced and
    # traced, so the overhead compares like with like and the counts of
    # every traced repetition must agree exactly.
    first = next(stream) if trace else None
    unit_s = 0.0
    for _ in range(unit_count(workload, seconds, trace)):
        if run.remaining() < unit_s:
            run.cut = True  # the next unit could end beyond the time limit
            break
        started = time.monotonic()
        if trace:
            run.unit(first, traced=False)
            run.unit(first, traced=True)
        else:
            run.unit(next(stream), traced=False)
        unit_s = time.monotonic() - started
    run.probe(SETUP_PROBES)
    return run


def _layer_value(name: str, traces: list, overhead_s: float) -> float:
    """Resolve a per-layer metric name against the merged traces.

    Names: LAYER.self_s, LAYER.FUNCTION.{calls,s,self_s,useful_ratio},
    closed_form.identity.* (the base, even and odd identities together)
    and trace.overhead_s.  Counts come from the first traced repetition;
    times are medians over the repetitions.
    """
    if name == "trace.overhead_s":
        return overhead_s
    parts = name.split(".")
    if len(parts) == 2 and parts[1] == "self_s":
        return statistics.median(t["layer_self_s"].get(parts[0], 0.0) for t in traces)
    layer, function, stat = parts
    if (layer, function) == ("closed_form", "identity"):
        keys = [f"closed_form.{f}" for f in
                ("identity_sides", "ratio_identity_even", "ratio_identity_odd")]
    else:
        keys = [f"{layer}.{function}"]

    def total(trace: dict, section: str) -> float:
        return sum(trace.get(section, {}).get(key, 0) for key in keys)

    if stat == "calls":
        return total(traces[0], "calls")
    if stat == "useful_ratio":
        calls = total(traces[0], "calls")
        return total(traces[0], "distinct") / calls if calls else 0.0
    return statistics.median(total(t, stat) for t in traces)


def _commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout, or packed refs)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite_n10", "suite_n30", "spectrum_fine", "cli_oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ptdarboux" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no ptdarboux sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    rng = random.Random(args.seed)
    alpha = math.exp(rng.uniform(*map(math.log, ALPHA_RANGE)))
    load_before = os.getloadavg()
    try:
        run = measure(args.workload, alpha, rng, args.seconds, bool(args.trace))
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    load_after = os.getloadavg()

    units_run = len(run.main_s[False])
    run_s = {"wall": statistics.median(sum(s for _, s in unit) for unit in run.main_s[False]),
             "ref": statistics.median(run.ref_s(unit) for unit in run.main_s[False])}
    setup_s = {"wall": statistics.median(s for _, s in run.import_s),
               "ref": statistics.median(run.ref_s([sample]) for sample in run.import_s)}
    correct = not run.silent
    if args.trace:
        # Span times are wall times, and so is the overhead.
        overhead_s = statistics.median(
            sum(s for _, s in unit) for unit in run.main_s[True]) - run_s["wall"]
        counts = [(t["calls"], t["distinct"]) for t in run.traces]
        if any(c != counts[0] for c in counts):
            correct = False
            run.notes.append("call counts differ between traced repetitions")
        wanted = spec["per_layer"]
        values = {m["name"]: _layer_value(m["name"], run.traces, overhead_s) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {
            "run_ref_s": run_s["ref"],
            "rows_per_ref_s": run.rows / units_run / run_s["ref"],
            "setup_s": setup_s["ref"],
            "peak_rss_mb": max(run.peak_rss_kb) / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} alpha={alpha!r}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} commit={_commit()}")
    print("# loadavg before={:.2f},{:.2f},{:.2f} after={:.2f},{:.2f},{:.2f}".format(
        *load_before, *load_after))
    shas = sorted(set(run.output_sha))
    print(f"# output sha256 (provenance, first call): {run.output_sha[0]} "
          f"({len(shas)} distinct over {len(run.output_sha)} calls)")
    # A tail percentile needs ten samples beyond it, so p90 needs 100
    # units; no run of at most 60 s gets that many.
    if run.cut:
        print(f"# stopped after {units_run} units: the next could end beyond {RUN_LIMIT_S:g} s")
    print(f"# run times: median of {units_run} units, no tail percentile; "
          f"setup_s: median of {len(run.import_s)} imports; speed gauge: median "
          f"{statistics.median(run.gauges):.5f} s a pass, {len(run.gauges)} children")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    # Printed but not in BENCHMARK.json: the unscaled wall times move with
    # the shared machine's speed by more than any bound (NOTES.md).
    if not args.trace:
        print(f"run_s {run_s['wall']:.6g} s (wall)")
        print(f"rows_per_s {run.rows / units_run / run_s['wall']:.6g} rows/s (wall)")
        print(f"setup_wall_s {setup_s['wall']:.6g} s (wall)")
    # Printed but not in BENCHMARK.json: fail_ratio is 0 on a healthy run,
    # and both it and worst_headroom jump on the alpha values of the known
    # defect (NOTES.md), so a bound relative to their median would judge
    # the seed, not the change.  fail_ratio is the JSON's failed/attempted.
    print(f"fail_ratio {run.failed / run.rows:.6g} ratio ({run.failed} failed / {run.rows} checks)")
    if not args.trace:
        print(f"worst_headroom {max(run.headroom, default=math.inf):.6g} ratio")
    for note in run.notes[:20]:
        print(f"FAIL {note}")
    if len(run.notes) > 20:
        print(f"FAIL ... {len(run.notes) - 20} more")
    print(json.dumps({"correct": correct, "attempted": run.rows, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
