"""CLI: flags, exit codes, CSV/JSON report formats, determinism."""
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from oracles import identity_pairs, json_safe
from ptdarboux import cli, closed_form, verify
from ptdarboux.cli import (
    MAX_ALPHA,
    MAX_DEGREE,
    MAX_GRID_POINTS,
    MAX_PANELS,
    MAX_POINTS,
    MAX_QUAD_NODES,
    MAX_QUAD_ORDER,
    MIN_ALPHA,
    _COMMANDS,
    _FLAGS,
    RunConfig,
    _parse,
    main,
)
from ptdarboux.closed_form import TrigEigenfunction
from ptdarboux.errors import EvaluationError, ParameterError
from ptdarboux.verify import check_fd_spectrum, check_identity, resolve_tolerances

FAST = ["--n-max", "2", "--grid-points", "500"]


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_run_config_validation():
    RunConfig()
    with pytest.raises(ParameterError):
        RunConfig(alpha=-1.0)
    with pytest.raises(ParameterError):
        RunConfig(n_max=-3)
    with pytest.raises(ParameterError):
        RunConfig(grid_points=10)
    with pytest.raises(ParameterError):
        RunConfig(fmt="xml")
    with pytest.raises(ParameterError):
        RunConfig(tolerances={"bogus": 1.0})
    for alpha in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            RunConfig(alpha=alpha)
    RunConfig(quad_order=MAX_QUAD_ORDER)
    with pytest.raises(ParameterError):
        RunConfig(quad_order=MAX_QUAD_ORDER + 1)
    with pytest.raises(ParameterError):
        RunConfig(tolerances={"identity": -1.0})
    RunConfig(alpha=MIN_ALPHA, n_max=MAX_DEGREE, panels=MAX_PANELS,
              grid_points=MAX_GRID_POINTS)
    RunConfig(alpha=MAX_ALPHA)
    # panels and order multiply: each cap holds at the other's default
    RunConfig(panels=MAX_PANELS, quad_order=MAX_QUAD_NODES // MAX_PANELS)
    RunConfig(panels=MAX_QUAD_NODES // MAX_QUAD_ORDER, quad_order=MAX_QUAD_ORDER)
    with pytest.raises(ParameterError):
        RunConfig(panels=MAX_PANELS, quad_order=MAX_QUAD_ORDER)
    with pytest.raises(ParameterError):
        RunConfig(panels=512, quad_order=MAX_QUAD_NODES // 512 + 1)
    for bad in ({"alpha": MIN_ALPHA / 10}, {"alpha": MAX_ALPHA * 10},
                {"n_max": MAX_DEGREE + 1}, {"panels": MAX_PANELS + 1},
                {"grid_points": MAX_GRID_POINTS + 1}):
        with pytest.raises(ParameterError):
            RunConfig(**bad)


def test_run_defaults_are_stated_once():
    # the flag table supplies no value for a flag not given, so the handlers'
    # defaults are the CLI's: RunConfig's, which are the verify constants,
    # for the shared flags
    for command in _COMMANDS:
        assert _parse([command]) == (command, {})
    config = RunConfig()
    assert (config.alpha, config.n_max, config.quad_order, config.panels, config.grid_points) == (
        1.0, verify.N_MAX, verify.QUAD_ORDER, verify.PANELS, verify.GRID_POINTS)
    assert (config.fmt, config.output) == ("csv", None)


def test_run_config_holds_the_resolved_tolerances():
    assert RunConfig().tolerances == verify.DEFAULT_TOLERANCES
    config = RunConfig(tolerances={"identity": 1e-12})
    assert config.tolerances == resolve_tolerances({"identity": 1e-12})


GOLDEN = Path(__file__).with_name("verify_default.json")


def test_default_verify_json_is_the_golden_report(capsys):
    # a pure refactor leaves the default report byte-identical; a change
    # that moves a number rewrites verify_default.json and says so
    assert main(["verify", "--format", "json"]) == 0
    out = capsys.readouterr().out
    golden = GOLDEN.read_bytes().decode("utf-8")
    if out != golden:
        got, want = json.loads(out), json.loads(golden)
        differing = [w["name"] for g, w in zip(got["checks"], want["checks"]) if g != w]
        where = (f"first differing row {differing[0]!r}" if differing else
                 f"{len(got['checks'])} rows against {len(want['checks'])}, "
                 "or the parameters, the overall flag or the layout")
        pytest.fail(f"verify --format json differs from {GOLDEN.name}: {where}")


def test_every_golden_command_gives_its_recorded_output():
    # golden.py's commands against golden.json: a pure refactor leaves every
    # entry, a change that moves an output rewrites the file and says so
    recorded = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    assert list(recorded) == golden.COMMANDS
    # CI times only commands that this test pins and that exit 0
    assert [command for command in golden.TIMED if recorded.get(command, {}).get("exit") != 0] == []
    for command in golden.COMMANDS:
        out, errors, code = golden.capture(command)
        entry = golden.entry(out, errors, code)
        if entry != recorded[command]:
            differs = [key for key in entry if entry[key] != recorded[command][key]]
            pytest.fail(f"ptdarboux {command}: {', '.join(differs)} differ from "
                        f"{golden.MANIFEST.name}")
        if code != 2 and ("--format json" in command or "--format=json" in command):
            # every JSON report is json.dumps(indent=2, sort_keys=True) of itself
            assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out, command


def test_json_reports_bypass_the_pure_python_encoder(monkeypatch):
    # json.dumps with an indent runs CPython's pure-Python encoder, about twice
    # the cost of the whole computation of a short tabulate call; the writer
    # forms its own tokens and calls json.dumps only for a string needing an
    # escape, which no key or row name of these reports is
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps ran")

    monkeypatch.setattr(json, "dumps", refuse)
    recorded = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    for command in ("verify --format=json --n-max=2", "tabulate --n 7 --alpha 0.6024 --format json",
                    "identity --which even --m 3 --format json",
                    "spectrum --count 3 --grid 4000 --format json"):
        assert golden.run(command) == recorded[command], command


def test_golden_diff_names_what_moved():
    # golden.py --against's account of one command: exit codes, rows added
    # and removed, the largest change of computed relative to the reference
    # and of the deviation column, flipped passed bits; CSV as JSON
    def report(*rows):
        keys = ("name", "computed", "reference", "rel_dev", "passed")
        return json.dumps({"checks": [dict(zip(keys, row)) for row in rows]})

    old = report(("fd mode 0", 15.9, 16.0, 0.00625, True), ("gram (2,2)", 1.0, 1.0, 0.0, True))
    new = report(("fd mode 0", 15.8, 16.0, 0.0125, False), ("gram (2,3)", 0.0, 0.0, 0.0, True))
    assert golden.describe("verify", [old, "", 0], [new, "", 1]) == [
        "verify: exit 0 -> 1", "  rows added: gram (2,3)", "  rows removed: gram (2,2)",
        "  largest change in computed / reference: 0.00625 (fd mode 0)",
        "  largest change in rel_dev: 0.00625 (fd mode 0)", "  passed flipped: fd mode 0"]
    old, new = ("mode,computed,exact,rel_err\n0,15.5,16,0.03125\n1,36,36,0\n",
                "mode,computed,exact,rel_err\n0,15.75,16,0.015625\n1,36,36,0\n")
    assert golden.describe("spectrum", [old, "", 0], [new, "", 0])[1:] == [
        "  largest change in computed / reference: 0.0156 (mode 0)",
        "  largest change in rel_dev: 0.0156 (mode 0)"]
    # tabulate's psi against chi and their difference; an identity report's
    # one deviation as both its computed value and its deviation
    old, new = ("x,chi,psi,difference\n0,0,0,0\n0.5,0.5,0.25,-0.25\n",
                "x,chi,psi,difference\n0,0,0,0\n0.5,0.5,0.375,-0.125\n")
    assert golden.describe("tabulate", [old, "", 0], [new, "", 0])[1:] == [
        "  largest change in computed / reference: 0.25 (x 0.5)",
        "  largest change in rel_dev: 0.125 (x 0.5)"]
    old, new = ("which,index,max_scaled_deviation,tolerance,passed\nbase,5,5e-12,1e-09,true\n",
                "which,index,max_scaled_deviation,tolerance,passed\nbase,5,7e-12,1e-09,true\n")
    assert golden.describe("identity", [old, "", 0], [new, "", 0])[1:] == [
        "  largest change in computed / reference: 2e-12 (which base)",
        "  largest change in rel_dev: 2e-12 (which base)"]
    assert golden.describe("--help", ["usage: a\n", "", 0], ["usage: b\n", "", 0]) == [
        "--help: exit 0 -> 0", "  stdout differs (not a report)"]


@pytest.mark.parametrize(
    "flags",
    [
        ["verify", "--alpha", "inf"],
        ["verify", "--alpha", "nan"],
        ["verify", "--tol", "identity=nan"],
        ["verify", "--tol", "identity=-1"],
        ["verify", "--tol", "quadrature=inf"],
        ["verify", "--quad-order", "1025"],
        ["verify", "--quad-order", "1000000"],
        ["verify", "--alpha", "1e300"],
        ["verify", "--alpha", "1e-150"],
        ["spectrum", "--alpha", "1e300", "--count", "1", "--grid-points", "100"],
        ["tabulate", "--alpha", "1e300", "--n", "0", "--points", "3"],
        ["verify", "--n-max", str(MAX_DEGREE + 1)],
        ["verify", "--n-max", "1000000"],
        ["verify", "--panels", str(MAX_PANELS + 1)],
        ["spectrum", "--grid-points", str(MAX_GRID_POINTS + 1)],
        ["spectrum", "--grid-points", "1000000000"],
        ["tabulate", "--n", str(MAX_DEGREE + 1)],
        ["tabulate", "--points", str(MAX_POINTS + 1)],
        ["tabulate", "--points", "1000000000"],
        ["identity", "--which", "base", "--n", str(MAX_DEGREE + 1)],
        ["identity", "--which", "even", "--m", str(MAX_DEGREE // 2 + 1)],
        ["identity", "--which", "odd", "--m", "1000000"],
        ["verify", "--panels", str(MAX_PANELS), "--quad-order", str(MAX_QUAD_ORDER)],
    ],
)
def test_unusable_inputs_exit_2_promptly(flags):
    # each of these once ran (or hung, or printed garbage) and failed as
    # mathematics or not at all; a subprocess with a timeout keeps a
    # regression from hanging the suite
    result = subprocess.run(
        [sys.executable, "-m", "ptdarboux", *flags],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")


# argv and what the flag table reads from it: (command, values), values None
# for help, or 2 for a usage error.  Each row was checked against the
# argparse parsers the table replaced; those rejected a missing --which
# while parsing, the table leaves it to the identity handler.
PARSES = [
    (["verify", "--alpha", "2"], ("verify", {"alpha": 2.0})),
    (["verify", "--alpha=2"], ("verify", {"alpha": 2.0})),
    (["verify", "--format=json", "--n-max=2"], ("verify", {"fmt": "json", "n_max": 2})),
    (["verify", "--tol=identity=0"], ("verify", {"tol": ["identity=0"]})),
    (["verify", "--output=--x"], ("verify", {"output": "--x"})),
    (["spectrum", "--grid", "4000"], ("spectrum", {"grid_points": 4000})),
    (["verify", "--n", "3"], ("verify", {"n_max": 3})),
    (["tabulate", "--n", "3"], ("tabulate", {"n": 3})),
    (["tabulate", "--n=3"], ("tabulate", {"n": 3})),
    (["tabulate", "--p", "5"], ("tabulate", {"points": 5})),
    (["verify", "--alpha", "1", "--alpha", "2"], ("verify", {"alpha": 2.0})),
    (["verify", "--tol", "a=1", "--tol=b=2"], ("verify", {"tol": ["a=1", "b=2"]})),
    (["verify", "--alpha", "-.5"], ("verify", {"alpha": -0.5})),
    (["verify", "--n-max", "-3"], ("verify", {"n_max": -3})),
    (["verify", "--n-max", "1_0"], ("verify", {"n_max": 10})),
    (["verify", "--output", "-"], ("verify", {"output": "-"})),
    (["verify", "--output", "-x y"], ("verify", {"output": "-x y"})),
    (["identity", "--which", "odd", "--m", "2"], ("identity", {"which": "odd", "m": 2})),
    (["identity"], ("identity", {})),
    (["-h"], (None, None)),
    (["--he"], (None, None)),
    (["--bogus", "-h"], (None, None)),
    (["verify", "--help"], ("verify", None)),
    (["verify", "--h"], ("verify", None)),
    (["verify", "--bogus", "-h"], ("verify", None)),
    (["verify", "stray", "-h"], ("verify", None)),
    (["verify", "--alpha", "1", "-h", "--alpha", "x"], ("verify", None)),
    ([], 2),
    (["nonsense"], 2),
    (["--alpha", "1", "verify"], 2),
    (["--", "verify"], 2),
    (["identity"], 2),
    (["identity", "--which", "nope"], 2),
    pytest.param(["verify", "--bogus", "1"], 2, id="usage:verify,--bogus,1"),
    (["verify", "-a", "1"], 2),
    (["verify", "stray"], 2),
    (["tabulate", "--n-", "3"], 2),
    (["verify", "-h", "--=x"], 2),
    (["verify", "--alpha", "x"], 2),
    (["verify", "--alpha", ""], 2),
    (["verify", "--n-max", "1.5"], 2),
    (["verify", "--alpha"], 2),
    (["verify", "--alpha", "-1e5"], 2),
    (["verify", "--alpha", "-5."], 2),
    (["verify", "--alpha", "--n-max", "2"], 2),
    (["verify", "--format", "xml"], 2),
    (["verify", "--format", "-h"], 2),
    (["verify", "--help=1"], 2),
    (["verify", "-hx"], 2),
    (["verify", "--"], 2),
    (["verify", "--", "-h"], 2),
    (["verify", "--alpha", "--", "5"], 2),
    pytest.param(["tabulate", "--quad-order", "8"], 2, id="usage:tabulate,--quad-order,8"),
    pytest.param(["spectrum", "--n", "5"], 2, id="usage:spectrum,--n,5"),
    pytest.param(["identity", "--which", "base", "--tol", "quadrature=0"], 2,
                 id="usage:identity,--which,base,--tol,quadrature=0"),
    pytest.param(["tabulate", "-h", "--p", "5"], ("tabulate", None), id="help:tabulate,-h,--p,5"),
]


@pytest.mark.parametrize("argv, expected", PARSES)
def test_the_flag_table_reads_argv_as_argparse_did(argv, expected, capsys):
    if expected != 2:
        assert _parse(argv) == expected
        return
    # every usage error is one `error:` line on stderr, nothing on stdout;
    # main stops before any computation
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _own(command):
    """The flags `command` takes, in its help's order."""
    return _COMMANDS[command][2].split()


def _foreign(command):
    """The flags only other commands take, but for a prefix of one of its own,
    which stands for that one (verify --n is --n-max)."""
    return [flag for flag in _FLAGS if not any(own.startswith(flag) for own in _own(command))]


def _parse_argv(command):
    """`command`, then tokens from its own flags and those only other commands
    take, any flag's prefixes, the = form and malformed or missing values."""
    own = _own(command)
    tokens = st.one_of(
        st.sampled_from([*_COMMANDS, *own, "-h", "--help", "--", "-", "-x", "--bogus"]),
        st.sampled_from(_foreign(command)),
        st.sampled_from(sorted(_FLAGS)).flatmap(lambda flag: st.integers(2, len(flag)).map(
            lambda size: flag[:size])),
        st.tuples(st.sampled_from(own), st.text(max_size=5)).map("=".join),
        st.sampled_from(["1", "-1", "-.5", "1e5", "-1e5", "x", "", " ", "nan", "1_0", "csv",
                         "json", "base", "odd", "a=1", "identity=0", "-5."]),
        st.text(max_size=5),
    )
    return st.lists(tokens, max_size=8).map(lambda rest: [command, *rest])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(list(_COMMANDS)).flatmap(_parse_argv))
def test_parse_returns_converted_table_values_or_raises_parameter_error(argv):
    # any such argv gives dests of the command's own flags, of the table's
    # types, or ParameterError; a flag only other commands take is never read
    try:
        command, values = _parse(argv)
    except ParameterError as exc:
        assert "\n" not in str(exc)
        return
    if values is None:
        assert command is None or command in _COMMANDS
        return
    assert command == argv[0] and not set(argv) & set(_foreign(command))
    entries = {_FLAGS[flag][0]: _FLAGS[flag] for flag in _own(command)}
    assert set(values) <= set(entries)
    for dest, value in values.items():
        _, convert, _ = entries[dest]
        if dest == "tol":
            assert value and all(type(pair) is str for pair in value)
        elif callable(convert):
            assert type(value) is convert
        else:
            assert value in convert


# Values for every flag of the table but --output, inside a small work budget
# (n_max <= 6, nodes <= 4,096, grid <= 2,000, points <= 101), and values past
# each flag's cap or malformed, which the CLI must reject.  --n-max and
# --grid-points are always given, since their defaults exceed the budget, and
# so are --format, to read both writers, and --which, which identity needs.
# A command's own --tol sets only the tolerances it reads.
_GIVEN = ("--n-max", "--grid-points", "--format", "--which")
_INSIDE = {
    "--alpha": st.sampled_from([MIN_ALPHA, MAX_ALPHA, 0.6024]) | st.floats(MIN_ALPHA, MAX_ALPHA),
    "--n-max": st.integers(0, 6),
    "--quad-order": st.integers(2, 64),
    "--panels": st.integers(1, 64),
    "--grid-points": st.integers(verify.MIN_GRID_POINTS, 2000),
    "--tol": st.sampled_from(["identity=0", "quadrature=1e-3"]),
    "--format": st.sampled_from(["csv", "json"]),
    "--n": st.integers(0, 6),
    "--points": st.integers(2, 101),
    "--which": st.sampled_from(["base", "even", "odd"]),
    "--m": st.integers(0, 3),
    "--count": st.integers(0, verify.MAX_MODES),
}
_PAST = {
    "--alpha": [math.nextafter(MIN_ALPHA, 0.0), math.nextafter(MAX_ALPHA, math.inf),
                5e-324, 1e308, 0.0, -1.0, math.inf, math.nan],
    "--n-max": [-1, MAX_DEGREE + 1],
    "--quad-order": [1, MAX_QUAD_ORDER + 1],
    "--panels": [0, MAX_PANELS + 1],
    "--grid-points": [verify.MIN_GRID_POINTS - 1, MAX_GRID_POINTS + 1],
    "--format": ["xml"],
    "--n": [-1, MAX_DEGREE + 1],
    "--points": [1, MAX_POINTS + 1],
    "--which": ["bogus"],
    "--m": [-1, MAX_DEGREE // 2 + 1],
    "--count": [-1, verify.MAX_MODES + 1],
}


def _gate_argv(command):
    """(argv, whether it holds a usage error) for `command`: its own flags but
    --output, inside the budget, and at most one of a value past its cap, a
    flag only other commands take and a --tol name the command does not read."""
    flags = [flag for flag in _own(command) if flag != "--output"]
    known = _COMMANDS[command][3]
    tol = [f"{name}={value}" for name in known for value in ("0", "5e-324", "1e-12", "1e-3", "1")]
    inside = {flag: st.sampled_from(tol) if flag == "--tol" else _INSIDE[flag] for flag in flags}
    past = {**_PAST, "--tol": [f"{name}={value}" for name in known[:1]
                               for value in ("inf", "nan", "-1", "x", "")] + ["bogus=1", "x"]}
    errors = [st.sampled_from(flags).flatmap(
                  lambda flag: st.sampled_from(past[flag]).map(lambda value: {flag: value})),
              st.sampled_from(_foreign(command)).flatmap(
                  lambda flag: _INSIDE[flag].map(lambda value: {flag: value}))]
    if "--tol" in flags and set(known) != set(verify.DEFAULT_TOLERANCES):
        unread = [name for name in verify.DEFAULT_TOLERANCES if name not in known]
        errors.append(st.sampled_from(unread).map(lambda name: {"--tol": f"{name}=1"}))
    error = st.booleans().flatmap(lambda ok: st.none() if ok else st.one_of(errors))
    drawn = st.fixed_dictionaries({flag: inside[flag] for flag in flags if flag in _GIVEN},
                                  optional={flag: inside[flag] for flag in flags
                                            if flag not in _GIVEN})
    return st.tuples(drawn, error).map(lambda pair: ([command, *(
        token for flag, value in {**pair[0], **(pair[1] or {})}.items()
        for token in (flag, repr(value) if isinstance(value, float) else str(value)))],
        pair[1] is not None))


def _gate_value(value):
    """A written cell as a number or bool where it is one: CSV writes every
    cell as text, and JSON writes a non-finite float as its repr string."""
    if value in ("true", "false"):
        return value == "true"
    try:
        return float(value) if isinstance(value, str) else value
    except ValueError:
        return value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(list(_COMMANDS)).flatmap(_gate_argv))
def test_every_accepted_input_gives_a_trustworthy_report_or_exit_2(drawn):
    # no exception escapes main; a value past a cap, a flag the command does
    # not take and a tolerance it does not read are usage errors; a usage
    # error is one `error:` line and exit 2, and any other output parses:
    # exit 0 exactly when every check passes, and no number of a passed row
    # is NaN or infinite
    argv, wrong = drawn
    stdout, errors, code = golden.capture(" ".join(argv))
    assert code in (0, 1, 2)
    assert code == 2 or not wrong
    if code == 2:
        assert stdout == "" and errors.startswith("error: ") and errors.count("\n") == 1
        return
    if argv[argv.index("--format") + 1] == "csv":
        header, *cells = csv.reader(io.StringIO(stdout))
        assert all(len(row) == len(header) for row in cells)
        rows, overall = [dict(zip(header, row)) for row in cells], None
    else:
        data = json.loads(stdout)
        if argv[0] == "identity":  # its one row is the whole report
            rows = [data]
        else:
            rows = data["checks" if argv[0] == "verify" else "rows"]
        overall = data.get("overall", data.get("passed"))
    rows = [{key: _gate_value(value) for key, value in row.items()} for row in rows]
    passed = [row.pop("passed") for row in rows if "passed" in row]
    if passed:
        assert overall in (None, all(passed))
        overall = all(passed)
    elif overall is None:  # spectrum's and tabulate's CSV write no verdict
        overall = code == 0
    assert code == (0 if overall else 1)
    for row, ok in zip(rows, passed or [overall] * len(rows)):
        assert not ok or all(math.isfinite(value) for value in row.values()
                             if type(value) in (int, float)), row


# The (command, flag) pairs and --tol names that no handler reads; each was
# accepted and ignored, or rejected only for a value it would have ignored.
_UNREAD = [
    *(["tabulate", flag, "8"] for flag in ("--n-max", "--quad-order", "--panels", "--grid-points")),
    ["tabulate", "--tol", "identity=0"],
    *(["identity", "--which", "base", flag, "100"]
      for flag in ("--n-max", "--quad-order", "--panels", "--grid-points")),
    *(["spectrum", flag, "5"] for flag in ("--n-max", "--quad-order", "--panels")),
    *(["identity", "--which", "base", "--tol", f"{name}=0"]
      for name in ("quadrature", "residual", "fd_spectrum")),
    *(["spectrum", "--tol", f"{name}=1e-30"] for name in ("quadrature", "residual", "identity")),
]


@pytest.mark.parametrize("argv", _UNREAD, ids=" ".join)
def test_a_flag_or_tolerance_the_command_does_not_read_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_help_lists_exactly_the_flags_its_command_accepts(command, capsys):
    assert main([command, "--help"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")]
    assert listed == _own(command)
    known = _COMMANDS[command][3]
    assert set(known) <= set(verify.DEFAULT_TOLERANCES)
    assert ("--tol" in listed) == bool(known)


# A small JSON run of each command, and another value of each flag it takes
_SMALL = {"verify": ["--n-max", "0", "--grid-points", "200"], "tabulate": ["--points", "5"],
          "identity": ["--which", "odd"], "spectrum": ["--count", "1", "--grid-points", "200"]}
_OTHER = {"--alpha": "2", "--n-max": "1", "--quad-order": "8", "--panels": "2",
          "--grid-points": "300", "--format": "csv", "--n": "1", "--points": "6",
          "--which": "even", "--m": "1", "--count": "2"}


@pytest.mark.parametrize("command, flag", [(c, f) for c in _COMMANDS for f in _own(c)])
def test_every_flag_a_command_takes_changes_its_output(command, flag, tmp_path, capsys):
    # a flag accepted and then ignored would read as a setting the run used
    argv = [command, *_SMALL[command], "--format", "json"]
    base = main(argv), capsys.readouterr().out
    other = {**_OTHER, "--output": str(tmp_path / "report")}
    value = other[flag] if flag != "--tol" else f"{_COMMANDS[command][3][0]}=0"
    assert (main([*argv, flag, value]), capsys.readouterr().out) != base


# Every Gauss-Legendre rule of at most 8 nodes, order q >= 2 on p panels.  A
# rule of 15 nodes rightly passes every row at n_max = 0, so the bound stops here.
_SMALL_RULES = [(q, p) for q in range(2, 9) for p in range(1, 5) if q * p <= 8]


@pytest.mark.parametrize("order, panels", _SMALL_RULES)
def test_every_rule_of_at_most_8_nodes_fails_verify(order, panels, capsys):
    # the suite's headroom: a rule this coarse cannot pass its quadrature rows
    for n_max in range(7):
        assert main(["verify", "--quad-order", str(order), "--panels", str(panels),
                     "--n-max", str(n_max), "--grid-points", "200", "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["overall"] is False


def test_verify_passes_and_emits_csv(capsys):
    assert main(["verify", *FAST]) == 0
    out = capsys.readouterr().out
    rows = _rows(out)
    assert out.startswith("name,computed,reference,abs_dev,rel_dev,tolerance,passed")
    assert all(row["passed"] == "true" for row in rows)
    assert any(row["name"] == "trig norm k=2" for row in rows)


def test_verify_json_round_trips_byte_identical(capsys):
    assert main(["verify", *FAST, "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["overall"] is True
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 10**30, "NaN", "Infinity",
                     "-Infinity", "nan", "a\nb", "\u00b1\u00e9\U0001d49c", '"', "%s", "%", ""]),
)
_KEYS = st.text(max_size=4) | st.sampled_from(["%", "%s", "%%", '"', "\u00e9", "a\nb", "\\"])
_TABLES = st.lists(_KEYS, min_size=1, max_size=4, unique=True).flatmap(
    lambda header: st.tuples(st.just(header), st.lists(
        st.lists(_SCALARS, min_size=len(header), max_size=len(header)), max_size=4)))
_PAYLOADS = st.recursive(_SCALARS | _TABLES, lambda children: st.lists(children, max_size=3)
                         | st.dictionaries(_KEYS, children, max_size=3), max_leaves=12)
_EDGE_PAYLOADS = [
    {}, [], {"rows": (["x"], [])}, {"rows": (["x"], [[1.5], [math.nan]])},
    {"t": (["100%", 'say "hi"', "\u00e9t\u00e9", "%s"], [[1, -0.0, math.inf, "%s"]])},
    {"a": {}, "b": [], "c": [{}, []], "d": {"e": -math.inf, "f": None, "g": True}},
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 7, False, None],
    ["a\nb", "NaN", "Infinity", "-Infinity", "\u00b1\u00e9"],
    # json's escapes: control characters, DEL, a line separator, a lone
    # surrogate, a code point above U+FFFF and an escaped quote
    {"\x00": 0, "\x1f": 1, "\x7f": 2, "\u2028": 3, "\ud800": 4, "\U0001f600": 5, '\\"': 6},
    {"t": (["\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\U0001f600", '\\"'],
           [["\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\U0001f600", '\\"'],
            [0.5, "\U0001f600", None, "\ud800", True, 7, '\\"']])},
    # every code point below U+0800 and those at the surrogates' and the
    # planes' ends, a cell each: the writer's own tokens against json's at
    # every boundary of the printable ASCII it writes itself
    {"t": (["c"], [[chr(code)] for code in (*range(0x800), 0xD7FF, 0xD800, 0xDFFF,
                                             0xE000, 0xFFFF, 0x10000, 0x10FFFF)])},
]


def _oracle_text(payload) -> str:
    return json.dumps(json_safe(payload), indent=2, sort_keys=True)


@pytest.mark.parametrize("payload", _EDGE_PAYLOADS)
def test_json_writer_matches_json_dumps_on_edge_payloads(payload):
    assert cli._json_text(payload) == _oracle_text(payload)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_json_writer_matches_json_dumps(payload):
    # the writer against json.dumps(indent=2, sort_keys=True) of the payload
    # the old path built: nested dicts and lists, (header, rows) tables and
    # every kind of scalar a report holds, non-finite floats included
    assert cli._json_text(payload) == _oracle_text(payload)


def test_a_check_that_raises_is_written_with_non_finite_values(monkeypatch, capsys):
    # the suite records a check that raises as failed, computed and reference
    # nan, deviations inf: JSON writes each as its repr string, CSV as %.17g
    # does; both digests were recorded from json.dumps(indent=2, sort_keys=True)
    def fail(*args, **kwargs):
        raise RuntimeError('injected "fault" at 100% \u00b1')

    monkeypatch.setattr(verify, "check_residual", fail)
    outputs = {}
    for fmt in ("json", "csv"):
        assert main(["verify", "--n-max", "2", "--format", fmt]) == 1
        outputs[fmt] = capsys.readouterr().out
    assert '"computed": "nan"' in outputs["json"] and '"abs_dev": "inf"' in outputs["json"]
    assert ",nan,nan,inf,inf,1e-08,false\n" in outputs["csv"]
    digests = {fmt: hashlib.sha256(out.encode("utf-8")).hexdigest() for fmt, out in outputs.items()}
    assert digests == {
        "json": "827758482e585e1655d500736fa7e3acaf1c68fc72bd6510a13f6cb9bdad7146",
        "csv": "7b1a59e1662587fe3bdc934572fe940db130a5a58210d7967d37997207f068a5",
    }


@pytest.mark.parametrize("module, name, argv", [
    (verify, "_fd_matrix", ["spectrum"]),
    (closed_form, "_coefficient", ["identity", "--which", "base", "--n", "2"]),
], ids=["spectrum", "identity"])
def test_a_computation_error_exits_1_with_one_line_and_no_output(monkeypatch, capsys,
                                                                 module, name, argv):
    # a math error that no check records as a row (cli._MATH_ERRORS) ends
    # the command: exit 1, one "computation failed: " line on stderr and
    # nothing on stdout
    def fail(*args):
        raise EvaluationError("injected fault")

    monkeypatch.setattr(module, name, fail)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["computation failed: injected fault"]


def test_verify_unattainable_tolerance_fails(capsys):
    assert main(["verify", *FAST, "--tol", "residual=1e-20"]) == 1
    rows = _rows(capsys.readouterr().out)
    failing = [r for r in rows if r["passed"] == "false"]
    assert failing
    assert all(r["name"].startswith("residual") for r in failing)


def test_verify_usage_errors():
    assert main(["verify", "--n-max", "-3"]) == 2
    assert main(["verify", "--alpha", "0"]) == 2
    assert main(["verify", "--tol", "bogus=1"]) == 2
    assert main(["verify", "--tol", "residual"]) == 2
    assert main(["verify", "--tol", "residual=abc"]) == 2
    assert main(["verify", "--format", "xml"]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    assert main(["verify", *FAST, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    rows = _rows(target.read_text())
    assert rows and all(row["passed"] == "true" for row in rows)


def test_unwritable_output_is_usage_error(capsys):
    code = main(["verify", *FAST, "--output", "/nonexistent-dir/report.csv"])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_tabulate_correspondence_columns(capsys):
    assert main(["tabulate", "--n", "0", "--points", "5"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [row["x"] for row in rows][0] == "0"
    assert len(rows) == 5
    for row in rows:
        assert abs(float(row["difference"])) <= 1e-10
    # wall rows vanish for both forms: chi = -N_2 sin^2(t) U'_1(cos t) is 0
    # at x = 0 and, at x = L, where t rounds to pi_f = fl(pi) and sin^2 t
    # is 1.5e-32, it is -2 N_2 sin^2(pi_f)
    s = math.sin(math.pi)
    assert float(rows[0]["chi"]) == 0.0
    assert float(rows[-1]["chi"]) == TrigEigenfunction(2, 1.0).norm * (-(s * s) * 2.0) < 0.0
    for row in (rows[0], rows[-1]):
        assert abs(float(row["psi"])) <= 1e-15


def test_tabulate_odd_level_midpoint_node(capsys):
    assert main(["tabulate", "--n", "1", "--points", "5"]) == 0
    rows = _rows(capsys.readouterr().out)
    midpoint = rows[2]
    assert abs(float(midpoint["chi"])) <= 1e-15
    assert abs(float(midpoint["psi"])) <= 1e-15


def test_tabulate_json(capsys):
    assert main(["tabulate", "--n", "2", "--points", "9", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameters"]["n"] == 2
    assert len(payload["rows"]) == 9
    assert set(payload["rows"][0]) == {"x", "chi", "psi", "difference"}


def test_tabulate_high_degree_tracks_partner(capsys):
    # degree 60: the power series' terms near z = 1 reach 2e42
    assert main(["tabulate", "--n", "60", "--points", "1001", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    scale = max(abs(row["chi"]) for row in rows)
    assert max(abs(row["psi"] - row["chi"]) for row in rows) <= 1e-9 * scale


def test_tabulate_validation():
    assert main(["tabulate", "--n", "-1"]) == 2
    assert main(["tabulate", "--points", "1"]) == 2


def test_identity_base(capsys):
    assert main(["identity", "--which", "base", "--n", "0"]) == 0
    row = _rows(capsys.readouterr().out)[0]
    assert float(row["max_scaled_deviation"]) <= 1e-9
    assert row["passed"] == "true"


def test_identity_base_beyond_degree_30():
    assert main(["identity", "--which", "base", "--n", "40"]) == 0


def test_identity_even(capsys):
    assert main(["identity", "--which", "even", "--m", "2"]) == 0
    row = _rows(capsys.readouterr().out)[0]
    assert float(row["max_scaled_deviation"]) <= 1e-9


def test_identity_odd_tight(capsys):
    assert main(["identity", "--which", "odd", "--m", "0"]) == 0
    row = _rows(capsys.readouterr().out)[0]
    assert float(row["max_scaled_deviation"]) <= 1e-10


def test_identity_json_payload(capsys):
    assert main(["identity", "--which", "even", "--m", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["which"] == "even"
    assert payload["index"] == 1
    assert payload["passed"] is True


@pytest.mark.parametrize("alpha", ["0.73", "0.783", "0.685", "1.502"])
def test_identity_at_round_trip_alphas(alpha):
    # the x grid's t -> x -> t round trip used to land inside the wall
    # margin at these alpha and the command failed with StabilityError
    assert main(["identity", "--which", "base", "--n", "3", "--alpha", alpha]) == 0


def test_identity_does_not_depend_on_alpha(capsys):
    expected = check_identity("odd", 2).computed
    for alpha in ("0.73", "1", "1.502", "1e-3", "1e3"):
        assert main(["identity", "--which", "odd", "--m", "2", "--alpha", alpha,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == float(alpha)
        assert payload["points"] == 1000
        assert payload["max_scaled_deviation"] == expected


def test_identity_flag_mismatch():
    assert main(["identity", "--which", "base", "--m", "3"]) == 2
    assert main(["identity", "--which", "even", "--n", "3"]) == 2
    assert main(["identity", "--which", "nope", "--n", "3"]) == 2
    assert main(["identity", "--which", "even", "--m", "-1"]) == 2


def test_identity_rejects_the_flag_its_family_does_not_read(capsys):
    # the other index flag is an error also next to the family's own flag,
    # and the message names the flag that is rejected
    for argv, rejected in ((["--which", "even", "--m", "3", "--n", "5"], "--n"),
                           (["--which", "base", "--n", "2", "--m", "7"], "--m")):
        assert main(["identity", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and rejected in captured.err


def test_identity_families_are_one_table():
    # the --which choices, the suite's identity rows and the families
    # _identity_rows accepts are exactly the keys of IDENTITY_FAMILIES
    from ptdarboux import closed_form
    from ptdarboux.closed_form import IDENTITY_FAMILIES
    from ptdarboux.verify import _FAMILIES, _interior_grid

    dest, choices, _ = _FLAGS["--which"]
    assert dest == "which"
    assert list(choices) == list(IDENTITY_FAMILIES) == ["base", "even", "odd"]
    run = SimpleNamespace(alpha=1.0, n_max=4, grid_points=1000)
    names = [family.row.format(*args) for family in _FAMILIES.values()
             for args in family.indices(run)]
    labels = {name.split(")")[0] + ")" for name in names if name.startswith("identity")}
    assert labels == {f"identity ({f.label})" for f in IDENTITY_FAMILIES.values()}
    grid = _interior_grid()
    for family in IDENTITY_FAMILIES:
        assert len(identity_pairs(family, 0, grid)) == len(grid.ts)
    with pytest.raises(ParameterError, match="identity family must be one of"):
        closed_form._identity_rows("ratio", 0, grid)


def test_identity_default_indices(capsys):
    assert main(["identity", "--which", "base"]) == 0
    row = _rows(capsys.readouterr().out)[0]
    assert row["index"] == "0"


def test_identity_strict_tolerance_fails(capsys):
    assert main(["identity", "--which", "base", "--n", "5", "--tol",
                 "identity=1e-16"]) == 1


def test_spectrum_default_grid(capsys):
    assert main(["spectrum", "--count", "3", "--grid-points", "1000"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [row["mode"] for row in rows] == ["0", "1", "2"]
    exact = [float(row["exact"]) for row in rows]
    assert exact == [16.0, 36.0, 64.0]
    assert all(float(row["rel_err"]) <= 1e-2 for row in rows)


def test_spectrum_count_defaults_to_the_suite_modes(capsys):
    assert main(["spectrum", "--grid-points", "1000"]) == 0
    assert len(_rows(capsys.readouterr().out)) == verify.FD_MODES


def test_spectrum_alpha_scaling(capsys):
    assert main(["spectrum", "--alpha", "2", "--count", "3",
                 "--grid-points", "1000"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [float(row["exact"]) for row in rows] == [64.0, 144.0, 256.0]


def test_spectrum_small_alpha_matches_unit_alpha(capsys):
    # the relative error of each mode does not depend on alpha; the energies
    # here are ~1e-11, below what an absolute bisection floor resolves
    argv = ["spectrum", "--count", "3", "--grid-points", "1000", "--format", "json"]
    assert main(argv) == 0
    unit = json.loads(capsys.readouterr().out)["rows"]
    assert main([*argv, "--alpha", "1e-6"]) == 0
    small = json.loads(capsys.readouterr().out)["rows"]
    for a, b in zip(unit, small):
        assert abs(a["rel_err"] - b["rel_err"]) <= 1e-12


def test_spectrum_empty(capsys):
    assert main(["spectrum", "--count", "0"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "mode,computed,exact,rel_err"


def test_spectrum_validation():
    assert main(["spectrum", "--count", "11"]) == 2
    assert main(["spectrum", "--count", "-1"]) == 2
    assert main(["spectrum", "--grid-points", "99"]) == 2


def test_spectrum_json(capsys):
    assert main(["spectrum", "--count", "2", "--grid-points", "1000",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] is True
    assert [row["mode"] for row in payload["rows"]] == [0, 1]


def test_a_negative_zero_tolerance_is_reported_as_zero(capsys):
    # --tol NAME=-0 passes the >= 0 rule and judges like 0; the reports write
    # 0.0 in JSON and 0 in CSV, not -0.0 and -0
    assert main(["spectrum", "--count", "1", "--grid-points", "100", "--format", "json",
                 "--tol", "fd_spectrum=-0"]) == 1
    assert '"tolerance": 0.0\n' in capsys.readouterr().out
    assert main(["identity", "--which", "base", "--n", "2", "--tol", "identity=-0"]) == 1
    assert [row["tolerance"] for row in _rows(capsys.readouterr().out)] == ["0"]


def test_spectrum_rows_are_the_check_rows(capsys):
    assert main(["spectrum", "--alpha", "0.6024", "--count", "4",
                 "--grid-points", "1000", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    report = check_fd_spectrum(0.6024, 1000, 4)
    assert [(r["mode"], r["computed"], r["exact"], r["rel_err"]) for r in rows] == [
        (i, c.computed, c.reference, c.rel_dev) for i, c in enumerate(report.checks)
    ]


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "ptdarboux", "spectrum", "--count", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "mode,computed,exact,rel_err"


def test_the_console_script_runs_main():
    # pip's generated script passes its target's return value to sys.exit, as
    # __main__ does; read as text, since tomllib is new in Python 3.11
    lines = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text().splitlines()
    scripts = lines[lines.index("[project.scripts]") + 1:]
    assert scripts[0] == 'ptdarboux = "ptdarboux.cli:main"'


@pytest.mark.parametrize("argv, code", [(["verify", "--n-max", "0"], 0),
                                        (["verify", "--bogus", "1"], 2)], ids=["ok", "usage"])
def test_peak_rss_script_exits_with_mains_code_and_prints_one_peak_line(argv, code):
    # the CI steps that print a run's peak memory run tests/peak_rss.py
    import ptdarboux

    source = Path(ptdarboux.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("peak_rss.py")), *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(source)},
    )
    assert result.returncode == code, result.stderr
    assert len([line for line in result.stderr.splitlines() if line.startswith("VmHWM")]) == 1


_GUARD = """
import contextlib, io, sys
import ptdarboux.cli
def loaded(step):
    heavy = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    print(step, sorted(heavy & set(sys.modules)))
loaded("import")
for argv in (["verify", "--n-max", "2"], ["tabulate"], ["identity", "--which", "odd", "--m", "2"],
             ["spectrum", "--count", "1"], ["verify", "--help"], ["verify", "--bogus", "1"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        ptdarboux.cli.main(argv)
    loaded(" ".join(argv))
"""


def test_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses, which loads inspect, was about 30% of the CLI's import
    # time, and argparse's parsers with the locale tables its first gettext
    # lookup imports about 40% of a one-shot call's; -S keeps the imports of
    # site .pth files out of the fresh interpreter
    import ptdarboux

    source = Path(ptdarboux.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-S", "-c", _GUARD],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(source)},
    )
    assert result.returncode == 0, result.stderr
    steps = result.stdout.splitlines()
    assert len(steps) == 7
    assert all(step.endswith(" []") for step in steps), steps


_EXACT_GUARD = """
import contextlib, io, sys
import ptdarboux.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ptdarboux.cli.main(sys.argv[1:])
print(code, sorted({"fractions", "decimal", "numbers", "json", "csv"} & set(sys.modules)))
"""


def test_cli_computes_its_exact_constants_without_fractions():
    # C_n, the ratio identities' factors and the midpoint zeros are integer
    # (numerator, denominator) pairs inside the package, so no subcommand, in
    # either format, loads fractions with the decimal and numbers it imports;
    # the public exact API still returns Fractions.  The JSON writer leaves to
    # json.dumps only a string needing an escape, which only an errored row's
    # message can hold, so none of these calls loads json; only CSV loads csv
    import ptdarboux
    from ptdarboux import (TerminatingHypergeometric, coefficient_C, f21_derivative,
                           f21_eval_exact)

    source = Path(ptdarboux.__file__).resolve().parents[1]
    for argv in (["verify", "--n-max", "2"], ["tabulate"],
                 ["identity", "--which", "base"], ["identity", "--which", "even"],
                 ["identity", "--which", "odd"], ["spectrum"]):
        for fmt in ("json", "csv"):
            result = subprocess.run(
                [sys.executable, "-S", "-c", _EXACT_GUARD, *argv, "--format", fmt],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": str(source)},
            )
            assert result.returncode == 0, result.stderr
            loaded = "['csv']" if fmt == "csv" else "[]"
            assert result.stdout == f"0 {loaded}\n", (argv, fmt, result.stdout)
    c_2 = coefficient_C(2)
    assert type(c_2) is Fraction and c_2 == Fraction(-1, 80)
    h = TerminatingHypergeometric(2, 6, Fraction(5, 2))  # D_2 of the midpoint split
    value = f21_eval_exact(h, Fraction(1, 2))
    assert type(value) is Fraction and value == Fraction(-1, 5)
    factor, shifted = f21_derivative(h)
    assert type(factor) is Fraction and factor == Fraction(-24, 5)
    assert shifted == TerminatingHypergeometric(1, 7, Fraction(7, 2))


def test_csv_floats_are_17_significant_digits(capsys):
    assert main(["tabulate", "--n", "0", "--points", "3"]) == 0
    rows = _rows(capsys.readouterr().out)
    # interior sample of the ground level: full-precision decimal expansion
    assert rows[1]["x"].startswith("0.78539816339744828")
