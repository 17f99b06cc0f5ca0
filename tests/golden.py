"""The golden CLI outputs: one fixed list of commands, each run through
ptdarboux.cli.main in process, recorded as the sha256 of its stdout, the
sha256 of the package's own `error:` lines on stderr and its exit code.

The --help texts are the package's own, the same on every Python version,
so they are pinned like any other stdout.  A change that moves an output
rewrites golden.json with

    PYTHONPATH=src python tests/golden.py

and lists every entry that changed; test_cli.py compares against it.

    python tests/golden.py --against REV

runs every command with the package of git revision REV (its src/, taken
with git archive into a temporary directory) and with the current tree's,
each in a fresh process, and prints, for each command whose entry differs,
the exit codes, the rows added or removed and, over the rows in both, the
largest change in `computed` relative to the reference, the largest change
in the deviation column and every `passed` flag that flipped.  A tabulate
row's computed value is psi, its reference chi and its deviation their
difference; an identity report's one row has max_scaled_deviation for both.
It reads JSON through json.loads and CSV through csv, not through the
package.
"""
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("golden.json")

COMMANDS = [
    "verify --format json",
    "verify --format json --alpha 0.6024",
    "verify --format json --n-max 30",
    "verify --format json --n-max 30 --alpha 0.6024",
    "verify --format json --alpha 1e-8",
    "verify --format json --alpha 1e8",
    "verify --format json --n-max 60 --alpha 1e8",
    "verify --format json --quad-order 33 --panels 15",
    "verify --format json --quad-order 65 --panels 1",
    "verify --format json --n-max 60",
    "verify",
    "tabulate",
    "tabulate --n 7 --alpha 0.6024 --format json",
    "tabulate --n 60 --points 1001",
    "identity --which base --n 5",
    "identity --which even --m 3 --format json",
    "identity --which odd --m 2 --alpha 0.6024",
    "identity --which odd --m 30 --format json",
    "identity --which base --n 3 --tol identity=0",
    "spectrum",
    "spectrum --count 0 --format json",
    "spectrum --count 10 --grid-points 40000 --format json",
    "spectrum --count 10 --grid-points 100000 --format json",
    "spectrum --count 10 --grid-points 4001 --format json",
    "spectrum --count 10 --grid-points 40017 --format json",
    "spectrum --count 10 --grid-points 1600 --format json",
    "spectrum --count 10 --grid-points 100 --format json",
    "spectrum --count 10 --grid-points 999 --format json",
    "spectrum --count 3 --grid-points 25600 --format json",
    "verify --tol bogus=1",
    "verify --tol quadrature=inf",
    "verify --tol x",
    "verify --n-max 61",
    "verify --format xml",
    "spectrum --count 11",
    "identity --which odd --n 2",
    "identity",
    "verify --format=json --n-max=2",
    "spectrum --count 3 --grid 4000 --format json",
    "verify --alpha",
    "verify --bogus 1",
    "tabulate --p 5",
    "verify --alpha -1e5",
    "tabulate --quad-order 8",
    "spectrum --n-max 5",
    "identity --which base --n 2 --grid-points 100",
    "identity --which base --n 2 --tol quadrature=0",
    "tabulate --tol identity=0",
    "--help",
    "verify --help",
    "tabulate --help",
    "identity --help",
    "spectrum --help",
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def capture(command: str) -> tuple[str, str, int]:
    """One command's stdout, the package's `error:` lines and its exit code."""
    from ptdarboux.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    errors = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if line.startswith("error: "))
    return out.getvalue(), errors, code


def entry(stdout: str, errors: str, code: int) -> dict:
    """A captured command's manifest entry: stdout's and the `error:` lines'
    hashes and the exit code."""
    return {"stdout": _sha(stdout), "errors": _sha(errors), "exit": code}


def run(command: str) -> dict:
    """One command's manifest entry."""
    return entry(*capture(command))


def outputs() -> dict:
    return {command: run(command) for command in COMMANDS}


def _rows(stdout: str) -> dict | None:
    """A report's rows by key (a check's name, a mode, an abscissa, or the
    one row of an identity report), or None for text that is not a report."""
    try:
        payload = json.loads(stdout)
        if isinstance(payload, dict):
            rows = payload.get("checks", payload.get("rows", [payload]))
        else:
            return None
    except ValueError:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if not rows or None in rows[0]:
            return None
    key = next((k for k in ("name", "mode", "x", "which") if k in rows[0]), None)
    if key is None:
        return None
    return {str(row[key]) if key == "name" else f"{key} {row[key]}": row for row in rows}


def _float(row: dict, *names: str) -> float:
    value = next((row[name] for name in names if name in row), None)
    return float("nan") if value is None else float(value)


# Each report's computed value, its reference and its deviation column: a
# check's or a mode's, tabulate's psi against chi and their difference, and
# an identity report's one deviation for both.
_COMPUTED = ("computed", "psi", "max_scaled_deviation")
_DEVIATION = ("rel_dev", "rel_err", "difference", "max_scaled_deviation")


def describe(command: str, old: list, new: list) -> list[str]:
    """What moved in one command's (stdout, errors, exit code) from old to new."""
    lines = [f"{command}: exit {old[2]} -> {new[2]}"]
    if old[1] != new[1]:
        lines.append(f"  error lines: {old[1]!r} -> {new[1]!r}")
    if old[0] == new[0]:
        return lines
    before, after = _rows(old[0]), _rows(new[0])
    if before is None or after is None:
        lines.append("  stdout differs (not a report)")
        return lines
    for word, keys in (("added", after.keys() - before.keys()),
                       ("removed", before.keys() - after.keys())):
        if keys:
            lines.append(f"  rows {word}: {', '.join(sorted(keys))}")
    computed, deviation, flipped = (0.0, ""), (0.0, ""), []
    for key in before.keys() & after.keys():
        a, b = before[key], after[key]
        change = abs(_float(b, *_COMPUTED) - _float(a, *_COMPUTED))
        reference = abs(_float(a, "reference", "exact", "chi"))
        change = change / reference if reference > 0.0 else change  # as rel_dev is taken
        if change > computed[0] or change != change:
            computed = (change, key)
        change = abs(_float(b, *_DEVIATION) - _float(a, *_DEVIATION))
        if change > deviation[0] or change != change:
            deviation = (change, key)
        if str(a.get("passed")).lower() != str(b.get("passed")).lower():
            flipped.append(key)
    lines.append(f"  largest change in computed / reference: {computed[0]:.3g} ({computed[1]})")
    lines.append(f"  largest change in rel_dev: {deviation[0]:.3g} ({deviation[1]})")
    if flipped:
        lines.append(f"  passed flipped: {', '.join(sorted(flipped))}")
    return lines


def _captures(src: Path) -> dict:
    """Every command's capture with the package under src, in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__, "--capture"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def against(rev: str) -> list[str]:
    """describe() of every command whose entry differs between rev and the tree."""
    root = Path(__file__).resolve().parent.parent
    archive = subprocess.run(["git", "-C", str(root), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as scratch:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(scratch, filter="data")
        old = _captures(Path(scratch) / "src")
    new = _captures(root / "src")
    return [line for command in COMMANDS if old[command] != new[command]
            for line in describe(command, old[command], new[command])]


if __name__ == "__main__":
    if sys.argv[1:] == ["--capture"]:
        print(json.dumps({command: capture(command) for command in COMMANDS}))
    elif sys.argv[1:2] == ["--against"] and len(sys.argv) == 3:
        print("\n".join(against(sys.argv[2])) or f"no command's output differs from {sys.argv[2]}")
    else:
        MANIFEST.write_text(json.dumps(outputs(), indent=2) + "\n", encoding="utf-8")
