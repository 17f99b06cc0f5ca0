"""The golden CLI outputs: one fixed list of commands, each run through
ptdarboux.cli.main in process, recorded as the sha256 of its stdout, the
sha256 of the package's own `error:` lines on stderr and its exit code.

The --help texts are the package's own, the same on every Python version,
so they are pinned like any other stdout.  A change that moves an output
rewrites golden.json with

    PYTHONPATH=src python tests/golden.py

and lists every entry that changed; test_cli.py compares against it.
"""
import contextlib
import hashlib
import io
import json
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
    "verify",
    "tabulate",
    "tabulate --n 7 --alpha 0.6024 --format json",
    "tabulate --n 60 --points 1001",
    "identity --which base --n 5",
    "identity --which even --m 3 --format json",
    "identity --which odd --m 2 --alpha 0.6024",
    "identity --which base --n 3 --tol identity=0",
    "spectrum",
    "spectrum --count 0 --format json",
    "spectrum --count 10 --grid-points 40000 --format json",
    "spectrum --count 10 --grid-points 100000 --format json",
    "spectrum --count 10 --grid-points 4001 --format json",
    "spectrum --count 10 --grid-points 40017 --format json",
    "spectrum --count 10 --grid-points 1600 --format json",
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


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(outputs(), indent=2) + "\n", encoding="utf-8")
