"""CLI: flags, exit codes, CSV/JSON report formats, determinism."""
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from ptdarboux import verify
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
    _COMMON,
    RunConfig,
    _parse,
    main,
)
from ptdarboux.errors import ParameterError
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
    # the flag table supplies no value for a common flag not given, so
    # RunConfig's defaults are the CLI's, and those are the verify constants
    assert _parse(["verify"]) == ("verify", {})
    for command in ("tabulate", "identity", "spectrum"):
        assert not set(_parse([command])[1]) & set(RunConfig._fields)
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
    for command in golden.COMMANDS:
        entry = golden.run(command)
        if entry != recorded[command]:
            differs = [key for key in entry if entry[key] != recorded[command][key]]
            pytest.fail(f"ptdarboux {command}: {', '.join(differs)} differ from "
                        f"{golden.MANIFEST.name}")


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
    (["spectrum", "--grid", "4000"], ("spectrum", {"count": 3, "grid_points": 4000})),
    (["verify", "--n", "3"], ("verify", {"n_max": 3})),
    (["tabulate", "--n", "3"], ("tabulate", {"n": 3, "points": 101})),
    (["tabulate", "--n=3"], ("tabulate", {"n": 3, "points": 101})),
    (["tabulate", "--n-", "3"], ("tabulate", {"n": 0, "points": 101, "n_max": 3})),
    (["verify", "--alpha", "1", "--alpha", "2"], ("verify", {"alpha": 2.0})),
    (["verify", "--tol", "a=1", "--tol=b=2"], ("verify", {"tol": ["a=1", "b=2"]})),
    (["verify", "--alpha", "-.5"], ("verify", {"alpha": -0.5})),
    (["verify", "--n-max", "-3"], ("verify", {"n_max": -3})),
    (["verify", "--n-max", "1_0"], ("verify", {"n_max": 10})),
    (["verify", "--output", "-"], ("verify", {"output": "-"})),
    (["verify", "--output", "-x y"], ("verify", {"output": "-x y"})),
    (["identity", "--which", "odd", "--m", "2"], ("identity", {"which": "odd", "n": None, "m": 2})),
    (["identity"], ("identity", {"which": None, "n": None, "m": None})),
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
    (["verify", "--bogus", "1"], 2),
    (["verify", "-a", "1"], 2),
    (["verify", "stray"], 2),
    (["tabulate", "--p", "5"], 2),
    (["tabulate", "-h", "--p", "5"], 2),
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


_FLAGS = sorted({flag for _, own, _ in _COMMANDS.values() for flag in {**_COMMON, **own}})
_TOKENS = st.one_of(
    st.sampled_from([*_COMMANDS, *_FLAGS, "-h", "--help", "--", "-", "-x", "--bogus"]),
    st.sampled_from(_FLAGS).flatmap(lambda flag: st.integers(2, len(flag)).map(
        lambda size: flag[:size])),
    st.tuples(st.sampled_from(_FLAGS), st.text(max_size=5)).map("=".join),
    st.sampled_from(["1", "-1", "-.5", "1e5", "-1e5", "x", "", " ", "nan", "1_0", "csv", "json",
                     "base", "odd", "a=1", "identity=0", "-5."]),
    st.text(max_size=5),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_TOKENS, max_size=8))
def test_parse_returns_converted_table_values_or_raises_parameter_error(argv):
    # a first step of property tests over the CLI's inputs: any argv built
    # from the table's flags, their prefixes, the = form and malformed or
    # missing values gives known dests of the table's types, or ParameterError
    try:
        command, values = _parse(argv)
    except ParameterError as exc:
        assert "\n" not in str(exc)
        return
    if values is None:
        assert command is None or command in _COMMANDS
        return
    own = _COMMANDS[command][1]
    entries = {entry[0]: entry for entry in {**_COMMON, **own}.values()}
    assert set(values) <= set(entries)
    assert {entry[0] for entry in own.values()} <= set(values)
    for dest, value in values.items():
        _, convert, _, *default = entries[dest]
        if dest == "tol":
            assert value and all(type(pair) is str for pair in value)
        elif default and value == default[0]:
            continue
        elif callable(convert):
            assert type(value) is convert
        else:
            assert value in convert


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
    # wall rows vanish for both forms
    for row in (rows[0], rows[-1]):
        assert float(row["chi"]) == 0.0
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
    # identity_pairs accepts are exactly the keys of IDENTITY_FAMILIES
    from ptdarboux import closed_form
    from ptdarboux.closed_form import IDENTITY_FAMILIES
    from ptdarboux.verify import _interior_grid, _suite_specs, resolve_tolerances

    dest, choices, *_ = _COMMANDS["identity"][1]["--which"]
    assert dest == "which"
    assert list(choices) == list(IDENTITY_FAMILIES) == ["base", "even", "odd"]
    specs = _suite_specs(1.0, 4, 64, 32, resolve_tolerances(), 1000)
    labels = {name.split(")")[0] + ")" for name, _, _ in specs if name.startswith("identity")}
    assert labels == {f"identity ({f.label})" for f in IDENTITY_FAMILIES.values()}
    grid = _interior_grid()
    for family in IDENTITY_FAMILIES:
        assert len(closed_form.identity_pairs(family, 0, grid)) == len(grid.ts)
    with pytest.raises(ParameterError, match="identity family must be one of"):
        closed_form.identity_pairs("ratio", 0, grid)


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


def test_csv_floats_are_17_significant_digits(capsys):
    assert main(["tabulate", "--n", "0", "--points", "3"]) == 0
    rows = _rows(capsys.readouterr().out)
    # interior sample of the ground level: full-precision decimal expansion
    assert rows[1]["x"].startswith("0.78539816339744828")
