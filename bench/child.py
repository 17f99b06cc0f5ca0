"""One CLI call in a fresh interpreter: the process that run.py starts.

Usage: python3 bench/child.py TRACE [ARG ...]

TRACE is 0 or 1.  With no ARG the child only imports ``ptdarboux.cli`` (a
set-up probe).  Otherwise it calls ``ptdarboux.cli.main(ARG ...)`` with
stdout captured and prints one JSON object: the import time, the wall time
of main(), the exit code, the captured output, its own peak RSS and, with
TRACE=1, the per-layer trace.  An untraced child also gauges the machine's
speed while main() runs (speed.Sampler, whose time is taken out of main()'s),
and every child gauges it once more after all it measures.

Only ``sys`` and ``time`` (both built in) are loaded before the timed
import, so the import time includes every module ptdarboux.cli pulls in.
"""
import sys
import time

_t0 = time.perf_counter()
import ptdarboux.cli  # noqa: E402  (sys.path is set by run.py via PYTHONPATH)
IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

import speed  # noqa: E402  (bench/speed.py, next to this file)

GAUGE_PASSES = 15  # passes of speed.py's loop after the measured work

LAYERS = ("cli", "verify", "closed_form", "hypergeom", "models", "darboux", "numerics")

# Leaves called well over 100k times per suite: count them only and let
# their time fall into the caller's span, so wrapper cost does not swamp
# the callers' self time.
COUNT_ONLY = {("closed_form", "chi_eval"), ("numerics", "chebyshev_u")}

# Functions whose distinct-argument count gives a useful_ratio.
DISTINCT = {
    ("hypergeom", "f21_eval_exact"),
    ("closed_form", "coefficient_C"),
    ("closed_form", "chi_eval"),
}


def peak_rss_kb() -> int:
    """This process's own peak resident set since it started, in KiB.

    ru_maxrss is not used: Linux carries the parent's peak over exec into
    it, so it would report run.py's memory whenever that is the larger."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Tracer:
    """Wraps the public functions of every layer from outside the package.

    Each wrapper replaces the function's name in every ptdarboux module that
    holds it, so calls made inside the defining module and calls made from
    modules that imported the name are both seen.  A span wrapper records
    calls, inclusive time and self time (inclusive minus the time covered by
    nested spans); a counter wrapper records calls only.
    """

    def __init__(self):
        self.calls = {}
        self.inclusive = {}
        self.own = {}
        self.distinct = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self._nested = [0.0]

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "ptdarboux" or name.startswith("ptdarboux.")]
        for layer in LAYERS:
            module = sys.modules["ptdarboux." + layer]
            for name in module.__all__:
                original = getattr(module, name)
                if not isinstance(original, types.FunctionType):
                    continue
                key = f"{layer}.{name}"
                self.calls[key] = 0
                seen = set() if (layer, name) in DISTINCT else None
                if seen is not None:
                    self.distinct[key] = seen
                if (layer, name) in COUNT_ONLY:
                    wrapper = self._counter(original, key, seen)
                else:
                    self.inclusive[key] = 0.0
                    self.own[key] = 0.0
                    wrapper = self._span(original, key, layer, seen)
                for holder in modules:
                    if getattr(holder, name, None) is original:
                        setattr(holder, name, wrapper)

    def _counter(self, fn, key, seen):
        calls = self.calls

        if seen is None:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                seen.add((args, tuple(sorted(kwargs.items()))) if kwargs else args)
                return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, key, layer, seen):
        calls, inclusive, own = self.calls, self.inclusive, self.own
        layer_self, nested = self.layer_self, self._nested
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))) if kwargs else args)
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                exclusive = elapsed - nested.pop()
                nested[-1] += elapsed
                inclusive[key] += elapsed
                own[key] += exclusive
                layer_self[layer] += exclusive
        return wrapper

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "s": self.inclusive,
            "self_s": self.own,
            "distinct": {key: len(seen) for key, seen in self.distinct.items()},
            "layer_self_s": self.layer_self,
        }


def main() -> int:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    if not argv:
        print(json.dumps({"import_s": IMPORT_S, "speed_samples": [],
                          "speed_s": speed.gauge(GAUGE_PASSES)}))
        return 0
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = captured
    error = None
    sampler = speed.Sampler()
    start = time.perf_counter()
    try:
        # Traced times are reported unscaled, so they are not sampled.
        with contextlib.nullcontext() if trace else sampler:
            code = ptdarboux.cli.main(argv)
    except Exception:  # noqa: BLE001 - a crash is reported to the parent as a failure
        code = None
        error = traceback.format_exc()
    main_s = time.perf_counter() - start - sampler.spent
    sys.stdout = real_stdout
    result = {
        "import_s": IMPORT_S,
        "main_s": main_s,
        "exit": code,
        "error": error,
        "out": captured.getvalue(),
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    result["speed_samples"] = sampler.samples
    result["speed_s"] = speed.gauge(GAUGE_PASSES)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
