"""Command-line front end: verification suites, eigenfunction tables,
identity checks, and the finite-difference spectrum, as CSV or JSON.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
configuration error.  Output is fully deterministic: JSON uses sorted keys
and shortest-round-trip floats (re-serializing a parsed report reproduces
it byte for byte); CSV uses 17 significant digits.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from collections import namedtuple

from . import closed_form, verify
from .closed_form import IDENTITY_FAMILIES
from .errors import ConvergenceError, DomainError, EvaluationError, ParameterError, StabilityError
from .models import WellConfig
from .verify import check_fd_spectrum, check_identity, resolve_tolerances, run_full_suite

__all__ = [
    "RunConfig", "cmd_verify", "cmd_tabulate", "cmd_identity", "cmd_spectrum", "main", "entry",
    "MIN_ALPHA", "MAX_ALPHA", "MAX_DEGREE", "MAX_QUAD_ORDER", "MAX_PANELS", "MAX_QUAD_NODES",
    "MAX_GRID_POINTS", "MAX_POINTS",
]

# The suite passes at both ends of this --alpha range; at 1e300 fd_spectrum
# raises ParameterError (4 alpha^2 overflows) and at 1e-150 the energies
# underflow.
MIN_ALPHA = 1e-100
MAX_ALPHA = 1e100
# The caps below bound the work each flag can ask for.  Times are on one
# Intel Xeon core under CPython 3.11.  MAX_DEGREE caps --n-max, tabulate --n
# and identity --n, and identity --m at MAX_DEGREE // 2 (the suite's indices
# at n_max = MAX_DEGREE): verify --n-max 60 takes 1.1 s, identity --n 60 0.03 s
# (one bracket row, from the U rows below it).
MAX_DEGREE = 60
# A Gauss-Legendre rule is built in O(order^2): 0.52 s at 1024 points.
MAX_QUAD_ORDER = 1024
# One x-form hypergeometric norm check at n = 60, default order (all levels' sums): 3.8 s.
MAX_PANELS = 1024
# The work of a quadrature check grows with panels times order, so their
# product is capped too: verify --n-max 60 --panels 1024 takes 25 s and peaks
# at 67 MB resident (VmHWM), 32 MB of it the 61 normalized partner-mode rows
# the quadrature's sums keep (verify._TSums).
MAX_QUAD_NODES = MAX_PANELS * verify.QUAD_ORDER
# spectrum --count 10 (about 13 Sturm sweeps per mode over one 50,000-row
# mirror block of the matrix, 3 of them Newton sweeps, plus the coarse grids'
# 3,125- and 195-row block sweeps, where a sweep of all rows at every
# bisection midpoint would take 40): 0.56-0.63 s.
MAX_GRID_POINTS = 100_000
# tabulate --n 60: 0.4 s, peaking at 27 MB resident (VmHWM): it keeps 61 level
# rows and 61 U rows, and builds one bracket row.
MAX_POINTS = 10_001

_REPORT_HEADER = ["name", "computed", "reference", "abs_dev", "rel_dev", "tolerance", "passed"]
_MATH_ERRORS = (ZeroDivisionError, DomainError, StabilityError, EvaluationError, ConvergenceError)


class RunConfig(namedtuple("RunConfig", "alpha n_max quad_order panels grid_points "
                                        "tolerances fmt output")):
    """Validated run parameters shared by every subcommand; `tolerances` takes
    overrides (None for none) and holds the resolved registry."""

    __slots__ = ()

    def __new__(cls, alpha: float = 1.0, n_max: int = verify.N_MAX,
                quad_order: int = verify.QUAD_ORDER, panels: int = verify.PANELS,
                grid_points: int = verify.GRID_POINTS, tolerances: dict | None = None,
                fmt: str = "csv", output: str | None = None):
        _require_range("--alpha", alpha, MIN_ALPHA, MAX_ALPHA)
        _require_range("--n-max", n_max, 0, MAX_DEGREE)
        _require_range("--quad-order", quad_order, 2, MAX_QUAD_ORDER)
        _require_range("--panels", panels, 1, MAX_PANELS)
        _require_range("--panels * --quad-order", panels * quad_order, 2, MAX_QUAD_NODES)
        _require_range("--grid-points", grid_points, verify.MIN_GRID_POINTS, MAX_GRID_POINTS)
        if fmt not in ("csv", "json"):
            raise ParameterError(f"--format must be csv or json, got {fmt!r}")
        return super().__new__(cls, alpha, n_max, quad_order, panels, grid_points,
                               resolve_tolerances(tolerances), fmt, output)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace validates too


def _require_range(flag: str, value: float, low: float, high: float) -> None:
    if not (low <= value <= high):  # also rejects NaN
        raise ParameterError(f"{flag} must be between {low} and {high}, got {value}")


def _parse_tolerance_flags(pairs: list[str] | None) -> dict:
    overrides = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ParameterError(f"--tol expects NAME=VALUE, got {pair!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ParameterError(f"--tol {name!r}: {value!r} is not a number") from None
    return overrides


def _cell(value) -> str:
    """CSV cell: floats to 17 significant digits, booleans as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buffer.getvalue()


def _json_safe(obj):
    if isinstance(obj, dict):
        return {key: _json_safe(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit(config: RunConfig, payload: dict, header: list[str], rows: list[list],
          passed: bool = True) -> int:
    """Write the JSON payload or the CSV table, as --format asks.  Exit code
    2 if the output cannot be written, else 0 or 1 as the checks passed."""
    text = (json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"
            if config.fmt == "json" else _csv_text(header, rows))
    if config.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return 2
    return 0 if passed else 1


def cmd_verify(config: RunConfig) -> int:
    """Run the full verification suite and emit the report."""
    report = run_full_suite(config.alpha, config.n_max, config.quad_order, config.panels,
                            config.tolerances, grid_points=config.grid_points)
    rows = [[getattr(c, key) for key in _REPORT_HEADER] for c in report.checks]
    return _emit(config, report.to_dict(), _REPORT_HEADER, rows, report.overall)


def cmd_tabulate(config: RunConfig, n: int, points: int) -> int:
    """Tabulate the level-n bound state next to the index n+2 partner mode."""
    _require_range("--n", n, 0, MAX_DEGREE)
    _require_range("--points", points, 2, MAX_POINTS)
    alpha = config.alpha
    length = WellConfig(alpha).length
    xs = [length * (i / (points - 1)) for i in range(points)]
    psi, chi = closed_form.TGrid([2.0 * alpha * x for x in xs]).bound_state_pairs(n, alpha)
    rows = [[x, c, p, p - c] for x, c, p in zip(xs, chi, psi)]
    header = ["x", "chi", "psi", "difference"]
    payload = {"parameters": {"alpha": config.alpha, "n": n, "points": points},
               "rows": [dict(zip(header, row)) for row in rows]}
    return _emit(config, payload, header, rows)


def cmd_identity(config: RunConfig, which: str, m_or_n: int) -> int:
    """Check one identity family on the interior t grid; report the
    worst deviation between the two sides, scaled by the largest left-side
    value.  The identities are dimensionless: --alpha does not change it."""
    result = check_identity(which, m_or_n, tolerance=config.tolerances["identity"])
    row = {"which": which, "index": m_or_n, "max_scaled_deviation": result.computed,
           "tolerance": result.tolerance, "passed": result.passed}
    payload = {**row, "alpha": config.alpha, "points": verify.INTERIOR_POINTS}
    return _emit(config, payload, list(row), [list(row.values())], result.passed)


def cmd_spectrum(config: RunConfig, count: int) -> int:
    """Compare the finite-difference spectrum with 4 alpha^2 (n+2)^2."""
    tolerance = config.tolerances["fd_spectrum"]
    report = check_fd_spectrum(config.alpha, config.grid_points, count, tolerance=tolerance)
    header = ["mode", "computed", "exact", "rel_err"]
    rows = [[i, c.computed, c.reference, c.rel_dev] for i, c in enumerate(report.checks)]
    payload = {"parameters": report.parameters, "tolerance": tolerance, "overall": report.overall,
               "rows": [dict(zip(header, row)) for row in rows]}
    return _emit(config, payload, header, rows, report.overall)


def _identity(config: RunConfig, which: str | None, n: int | None, m: int | None) -> int:
    """identity reads the index flag of the family, 0 if unset; the other one is rejected."""
    if which is None:
        raise ParameterError(f"identity needs --which: {', '.join(IDENTITY_FAMILIES)}")
    family, index = IDENTITY_FAMILIES[which], {"--n": n, "--m": m}
    flag, other = ("--n", "--m") if family.letter == "n" else ("--m", "--n")
    if index[other] is not None:
        raise ParameterError(f"the {which} identity is indexed by {flag}, not {other}")
    _require_range(flag, index[flag] or 0, 0, family.top(MAX_DEGREE))
    return cmd_identity(config, which, index[flag] or 0)


# A flag maps to (dest, converter or choices, help), and an own flag also to its
# default; a common flag not given is left out, so RunConfig's defaults are the
# CLI's.  A command maps to (help, own flags, handler(config, **own values)).
_COMMON = {
    "--alpha": ("alpha", float, f"well scale, {MIN_ALPHA:g}..{MAX_ALPHA:g}; x in (0, pi/2/alpha)"),
    "--n-max": ("n_max", int, f"largest level index exercised by the suite, 0..{MAX_DEGREE}"),
    "--quad-order": ("quad_order", int, f"Gauss-Legendre points per panel, 2..{MAX_QUAD_ORDER}"),
    "--panels": ("panels", int, f"panels, 1..{MAX_PANELS}; times --quad-order <= {MAX_QUAD_NODES}"),
    "--grid-points": ("grid_points", int, f"FD grid, {verify.MIN_GRID_POINTS}..{MAX_GRID_POINTS}"),
    "--tol": ("tol", str, f"NAME=VALUE, repeatable, for {', '.join(verify.DEFAULT_TOLERANCES)}"),
    "--format": ("fmt", ("csv", "json"), "output format, csv or json"),
    "--output": ("output", str, "write output to this path instead of stdout"),
}
_HELP = dict.fromkeys(("-h", "--help"), (None, ()))  # no choices: a value joined is an error
_COMMANDS = {
    "verify": ("run the full verification suite", {}, cmd_verify),
    "tabulate": ("tabulate a bound state against its partner mode", {
        "--n": ("n", int, f"level index, 0..{MAX_DEGREE}", 0),
        "--points": ("points", int, f"samples on the closed interval, 2..{MAX_POINTS}", 101),
    }, cmd_tabulate),
    "identity": ("check one hypergeometric-trigonometric identity", {
        "--which": ("which", tuple(IDENTITY_FAMILIES), "identity family, required; " + ", ".join(
            f"{name} reads --{family.letter}" for name, family in IDENTITY_FAMILIES.items()), None),
        "--n": ("n", int, f"level index, 0..{MAX_DEGREE}", None),
        "--m": ("m", int, f"family index, 0..{MAX_DEGREE // 2}", None),
    }, _identity),
    "spectrum": ("finite-difference spectrum vs exact energies", {
        "--count": ("count", int, f"low modes, 0..{verify.MAX_MODES}", verify.FD_MODES),
    }, cmd_spectrum),
}
_ABOUT = "Darboux partners of the trigonometric Poschl-Teller well; COMMAND -h lists its flags"
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _flag(token: str, flags: dict) -> tuple[str, str | None] | None:
    """argparse's reading of a token: None for a value, else the flag it names ("" if
    none) and the value joined to it, a long flag's after "=" or all after -h."""
    if token[:1] != "-" or token == "-" or _NEGATIVE_NUMBER(token):
        return None
    name, sep, value = (token.partition("=") if token[1] == "-"
                        else (token[:2], token[2:], token[2:]))
    matches = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
    if len(matches) > 1:
        raise ParameterError(f"ambiguous flag {name!r} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if sep else None
    return None if " " in token else ("", None)


def _parse(argv: list[str]) -> tuple[str | None, dict | None]:
    """The command and its flags' values, own flags' defaults filled in; values None
    if -h or --help asked for help (command None: the package's).  Raises ParameterError."""
    command, flags, values, stray = None, _HELP, {}, []
    end = argv.index("--") if "--" in argv else len(argv)  # all from "--" on is stray
    tokens = iter(argv[:end])
    for token in tokens:
        flag, value = _flag(token, flags) or (None, token)
        if flag in _HELP and value is None:
            return command, None
        if flag is None and command is None:
            if token not in _COMMANDS:
                raise ParameterError(f"unknown command {token!r}; use {', '.join(_COMMANDS)}")
            command, own = token, _COMMANDS[token][1]
            flags, values = {**_COMMON, **own, **_HELP}, {d: v for d, _, _, v in own.values()}
            for later in argv[argv.index(token) + 1:end]:  # ambiguity is reported first
                _flag(later, flags)
        elif not flag:
            stray.append(token)
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or _flag(value, flags) is not None:
                    raise ParameterError(f"{flag} expects a value")
            dest, convert = flags[flag][:2]
            try:  # index raises ValueError for a value not among the choices
                value = convert(value) if callable(convert) else convert[convert.index(value)]
            except ValueError:
                raise ParameterError(f"{flag} cannot take {value!r}") from None
            values[dest] = values.get(dest, []) + [value] if flag == "--tol" else value
    if command is None:
        raise ParameterError(f"a command is required: {', '.join(_COMMANDS)}")
    if stray or end < len(argv):
        raise ParameterError(f"unrecognized arguments: {' '.join(map(repr, stray + argv[end:]))}")
    return command, values


def _help(command: str | None) -> str:
    """The help text of a command, or of the package for None."""
    text, own, _ = _COMMANDS[command] if command else (_ABOUT, None, None)
    rows = {name: entry[0] if own is None else entry[2]
            for name, entry in (_COMMANDS if own is None else {**_COMMON, **own}).items()}
    return f"usage: ptdarboux {command or 'COMMAND'} [FLAGS]\n\n{text}\n\n" + "".join(
        f"  {name:<15}{line}\n" for name, line in {**rows, "-h, --help": "show this help"}.items())


def main(argv: list[str] | None = None) -> int:
    try:
        command, values = _parse(list(sys.argv[1:] if argv is None else argv))
        if values is None:
            sys.stdout.write(_help(command))
            return 0
        # the table's destinations are RunConfig's field names, but for --tol
        config = RunConfig(tolerances=_parse_tolerance_flags(values.pop("tol", None)),
                           **{key: values.pop(key) for key in RunConfig._fields if key in values})
        return _COMMANDS[command][2](config, **values)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _MATH_ERRORS as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
