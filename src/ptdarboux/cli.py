"""Command-line front end: verification suites, eigenfunction tables,
identity checks, and the finite-difference spectrum, as CSV or JSON.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
configuration error.  Output is fully deterministic: JSON uses sorted keys
and shortest-round-trip floats (re-serializing a parsed report reproduces
it byte for byte); CSV uses 17 significant digits.  The JSON writer forms its
tokens itself but for a string needing an escape, which only an errored row's
message can hold and json.dumps writes; only a CSV call loads csv.
"""
from __future__ import annotations

import io
import re
import sys
from collections import namedtuple
from itertools import chain

from . import closed_form, verify
from .closed_form import IDENTITY_FAMILIES
from .errors import ConvergenceError, DomainError, EvaluationError, ParameterError
from .models import WellConfig
from .verify import check_fd_spectrum, check_identity, resolve_tolerances, run_full_suite

__all__ = [
    "RunConfig", "cmd_verify", "cmd_tabulate", "cmd_identity", "cmd_spectrum", "main",
    "MIN_ALPHA", "MAX_ALPHA", "MAX_DEGREE", "MAX_QUAD_ORDER", "MAX_PANELS", "MAX_QUAD_NODES",
    "MAX_GRID_POINTS", "MAX_POINTS",
]

# The suite passes at both ends of this --alpha range; at 1e300 fd_spectrum
# raises ParameterError (4 alpha^2 overflows) and at 1e-150 the energies
# underflow.
MIN_ALPHA = 1e-100
MAX_ALPHA = 1e100
# The caps below bound the work each flag can ask for; README's list of caps
# states each one's time and peak memory, with the machine they were measured on.
# MAX_DEGREE caps --n-max, tabulate --n and identity --n, and identity --m at
# the suite's largest family index at n_max = MAX_DEGREE.
MAX_DEGREE = 60
# Bounds the O(order^2) build of one Gauss-Legendre rule.
MAX_QUAD_ORDER = 1024
# Bounds one quadrature check's node count at the default order.
MAX_PANELS = 1024
# The work and the table memory of a quadrature check grow with panels times
# order, so their product is capped too: the suite keeps its normalized
# partner-mode rows on every node (verify._mode_sums).
MAX_QUAD_NODES = MAX_PANELS * verify.QUAD_ORDER
# Bounds the Sturm counts of spectrum's modes over one mirror block of the
# finite-difference matrix.
MAX_GRID_POINTS = 100_000
# Bounds tabulate's rows: one level row and one bracket row, and the output.
MAX_POINTS = 10_001

_REPORT_HEADER = list(verify.CheckResult._fields)
_MATH_ERRORS = (ZeroDivisionError, DomainError, EvaluationError, ConvergenceError)


class RunConfig(namedtuple("RunConfig", "alpha n_max quad_order panels grid_points "
                                        "tolerances fmt output")):
    """The library's validated run parameters; a subcommand sets the fields its flags
    name.  `tolerances` takes overrides (None for none), holds the resolved registry."""

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


def _parse_tolerance_flags(pairs: list[str] | None, known: tuple) -> dict:
    """The overrides of --tol's NAME=VALUE pairs, each NAME one of `known`."""
    overrides = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ParameterError(f"--tol expects NAME=VALUE, got {pair!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ParameterError(f"--tol {name!r}: {value!r} is not a number") from None
        if name not in known:
            raise ParameterError(f"unknown tolerance {name!r}; known: {sorted(known)}")
    return overrides


def _cell(value) -> str:
    """CSV cell: floats to 17 significant digits, booleans as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv  # here, not at the top, so that no JSON call loads it

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buffer.getvalue()


# A scalar's repr that is not its JSON token: a non-finite float is its repr string
_WORDS = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"',
          "True": "true", "False": "false", "None": "null"}


def _string(text: str) -> str:
    """json.dumps(text): printable ASCII without a quote or backslash, as every key
    and row name is, is its own token; json escapes the rest, an errored row's message."""
    if not (text.isascii() and text.isprintable()) or '"' in text or "\\" in text:
        import json  # here, not at the top, so that no report without such a string loads it

        return json.dumps(text)
    return f'"{text}"'


def _scalar(value) -> str:
    """json.dumps(value) of a str, float, int, bool or None, each non-finite float
    as its repr string."""
    if isinstance(value, str):
        return _string(value)
    token = repr(value)
    return _WORDS.get(token, token)


def _column(values: tuple) -> list[str]:
    """The tokens of a table column: one repr pass, or _scalar's if it holds a string."""
    if str in set(map(type, values)):
        return list(map(_scalar, values))
    tokens = list(map(repr, values))
    return list(map(_WORDS.get, tokens, tokens))


def _json_text(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True) of str-keyed obj, each non-finite
    float as its repr string and each (header, rows) tuple, a table, as the list of
    dict(zip(header, row)).  The tokens are formed here, a table's a column at a time
    (_column), any other scalar's by _scalar; json writes a string needing an escape.
    A table's rows fill its row template, the sorted keys with a %s each, per row."""
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{_string(key)}: {_json_text(obj[key], inner)}" for key in sorted(obj)]
    elif isinstance(obj, list):
        items = [_json_text(value, inner) for value in obj]
    elif isinstance(obj, tuple):
        header, rows = obj
        order = sorted(range(len(header)), key=header.__getitem__)
        template = "{" + ",".join(f"{inner}  {_string(header[i]).replace('%', '%%')}: %s"
                                  for i in order) + inner + "}"
        items = []
        if rows:  # one % for the whole table: a string per row raises the peak memory
            columns = list(zip(*rows))
            tokens = chain.from_iterable(zip(*[_column(columns[i]) for i in order]))
            items.append(f",{inner}".join([template] * len(rows)) % tuple(tokens))
    else:
        return _scalar(obj)
    ends = "{}" if isinstance(obj, dict) else "[]"
    return ends[0] + inner + f",{inner}".join(items) + indent + ends[1] if items else ends


def _emit(config: RunConfig, payload: dict, header: list[str], rows: list[list],
          passed: bool = True) -> int:
    """Write the JSON payload or the CSV table, as --format asks.  Exit code
    2 if the output cannot be written, else 0 or 1 as the checks passed."""
    text = _json_text(payload) + "\n" if config.fmt == "json" else _csv_text(header, rows)
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
    payload = {**report._asdict(), "checks": (_REPORT_HEADER, report.checks)}
    return _emit(config, payload, _REPORT_HEADER, report.checks, report.overall)


def cmd_tabulate(config: RunConfig, n: int = 0, points: int = 101) -> int:
    """Tabulate the level-n bound state next to the index n+2 partner mode."""
    _require_range("--n", n, 0, MAX_DEGREE)
    _require_range("--points", points, 2, MAX_POINTS)
    alpha = config.alpha
    length = WellConfig(alpha).length
    xs = [length * (i / (points - 1)) for i in range(points)]
    psi, chi = closed_form.TGrid([2.0 * alpha * x for x in xs]).bound_state_pairs(n, alpha)
    rows = [[x, c, p, p - c] for x, c, p in zip(xs, chi, psi)]
    header = ["x", "chi", "psi", "difference"]
    payload = {"parameters": {"alpha": alpha, "n": n, "points": points}, "rows": (header, rows)}
    return _emit(config, payload, header, rows)


def cmd_identity(config: RunConfig, which: str | None = None, n: int | None = None,
                 m: int | None = None) -> int:
    """Check one identity family at its index, --n or --m (0 if unset; the other is
    rejected), on the interior t grid: the worst deviation between the two sides,
    scaled by the largest left-side value.  --alpha does not change it."""
    if which not in IDENTITY_FAMILIES:
        raise ParameterError(f"identity needs --which: {', '.join(IDENTITY_FAMILIES)}")
    family, index = IDENTITY_FAMILIES[which], {"--n": n, "--m": m}
    flag, other = ("--n", "--m") if family.letter == "n" else ("--m", "--n")
    if index[other] is not None:
        raise ParameterError(f"the {which} identity is indexed by {flag}, not {other}")
    m_or_n = index[flag] or 0
    _require_range(flag, m_or_n, 0, family.top(MAX_DEGREE))
    tolerance = config.tolerances[verify._FAMILIES["identity"].tolerance]
    result = check_identity(which, m_or_n, tolerance=tolerance)
    row = {"which": which, "index": m_or_n, "max_scaled_deviation": result.computed,
           "tolerance": result.tolerance, "passed": result.passed}
    payload = {**row, "alpha": config.alpha, "points": verify.INTERIOR_POINTS}
    return _emit(config, payload, list(row), [list(row.values())], result.passed)


def cmd_spectrum(config: RunConfig, count: int = verify.FD_MODES) -> int:
    """Compare the finite-difference spectrum with 4 alpha^2 (n+2)^2."""
    tolerance = config.tolerances[verify._FAMILIES["fd"].tolerance]
    report = check_fd_spectrum(config.alpha, config.grid_points, count, tolerance=tolerance)
    header = ["mode", "computed", "exact", "rel_err"]
    rows = [[i, c.computed, c.reference, c.rel_dev] for i, c in enumerate(report.checks)]
    payload = {"parameters": report.parameters, "tolerance": tolerance, "overall": report.overall,
               "rows": (header, rows)}
    return _emit(config, payload, header, rows, report.overall)


# Every flag, once: (dest, converter or choices, help).  A command maps to (help,
# handler(config, **values), the flags it reads, the tolerances its --tol sets);
# a flag not given is left out, so the handlers' defaults are the CLI's.
_FLAGS = {
    "--alpha": ("alpha", float, f"well scale, {MIN_ALPHA:g}..{MAX_ALPHA:g}; x in (0, pi/2/alpha)"),
    "--n-max": ("n_max", int, f"largest level index exercised by the suite, 0..{MAX_DEGREE}"),
    "--quad-order": ("quad_order", int, f"Gauss-Legendre points per panel, 2..{MAX_QUAD_ORDER}"),
    "--panels": ("panels", int, f"panels, 1..{MAX_PANELS}; times --quad-order <= {MAX_QUAD_NODES}"),
    "--grid-points": ("grid_points", int, f"FD grid, {verify.MIN_GRID_POINTS}..{MAX_GRID_POINTS}"),
    "--tol": ("tol", str, "NAME=VALUE, repeatable, for "),  # and the command's tolerances
    "--format": ("fmt", ("csv", "json"), "output format, csv or json"),
    "--output": ("output", str, "write output to this path instead of stdout"),
    "--n": ("n", int, f"level index, 0..{MAX_DEGREE}"),
    "--points": ("points", int, f"samples on the closed interval, 2..{MAX_POINTS}"),
    "--which": ("which", tuple(IDENTITY_FAMILIES), "identity family, required; " + ", ".join(
        f"{name} reads --{family.letter}" for name, family in IDENTITY_FAMILIES.items())),
    "--m": ("m", int, f"family index, 0..{IDENTITY_FAMILIES['even'].top(MAX_DEGREE)}"),
    "--count": ("count", int, f"low modes, 0..{verify.MAX_MODES}"),
}
_HELP = dict.fromkeys(("-h", "--help"), (None, ()))  # no choices: a value joined is an error
_COMMANDS = {
    "verify": ("run the full verification suite", cmd_verify, "--alpha --n-max --quad-order "
               "--panels --grid-points --tol --format --output", tuple(verify.DEFAULT_TOLERANCES)),
    "tabulate": ("tabulate a bound state against its partner mode", cmd_tabulate,
                 "--alpha --n --points --format --output", ()),
    "identity": ("check one hypergeometric-trigonometric identity", cmd_identity,
                 "--alpha --which --n --m --tol --format --output",
                 (verify._FAMILIES["identity"].tolerance,)),
    "spectrum": ("finite-difference spectrum vs exact energies", cmd_spectrum,
                 "--alpha --grid-points --count --tol --format --output",
                 (verify._FAMILIES["fd"].tolerance,)),
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
    """The command and the values of the flags given; values None if -h or --help
    asked for help (command None: the package's).  Raises ParameterError."""
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
            command, flags = token, {**{f: _FLAGS[f] for f in _COMMANDS[token][2].split()}, **_HELP}
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
    text, _, own, known = _COMMANDS[command] if command else (_ABOUT, None, None, None)
    rows = ({name: entry[0] for name, entry in _COMMANDS.items()} if own is None else
            {name: _FLAGS[name][2] + ", ".join(known) * (name == "--tol") for name in own.split()})
    return f"usage: ptdarboux {command or 'COMMAND'} [FLAGS]\n\n{text}\n\n" + "".join(
        f"  {name:<15}{line}\n" for name, line in {**rows, "-h, --help": "show this help"}.items())


def main(argv: list[str] | None = None) -> int:
    try:
        command, values = _parse(list(sys.argv[1:] if argv is None else argv))
        if values is None:
            sys.stdout.write(_help(command))
            return 0
        known = _COMMANDS[command][3]
        # the table's destinations are RunConfig's field names, but for --tol
        config = RunConfig(tolerances=_parse_tolerance_flags(values.pop("tol", None), known),
                           **{key: values.pop(key) for key in RunConfig._fields if key in values})
        return _COMMANDS[command][1](config, **values)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _MATH_ERRORS as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
