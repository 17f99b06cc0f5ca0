"""Checks of each CLI output against references the benchmark computes itself.

Every check returns an Outcome: how many rows it checked, how many failed,
whether the program claimed success for output that is wrong (a silent
error, which makes the whole run incorrect), the headroom of each row
(deviation over tolerance) and a note for each failure.  A failure the
program reports itself, by a failed check or a non-zero exit, is counted
but is not silent.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

# The package's default tolerances.  The benchmark passes no --tol flag, so
# a report that states another value has loosened or tightened a gate.
QUADRATURE_TOL = 1e-10
RESIDUAL_TOL = 1e-8
IDENTITY_TOL = 1e-9
FD_TOL = 1e-2

VERIFY_CHECK_COUNT = {10: 182, 30: 772}
IDENTITY_POINTS = 1000


@dataclass
class Outcome:
    rows: int
    failed: int = 0
    silent: bool = False
    headroom: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, note: str, rows: int = 1) -> None:
        self.failed += rows
        self.notes.append(note)


def _parse(result: dict, outcome: Outcome):
    """The JSON the call printed, or None after recording why it is missing."""
    if result["exit"] != 0:
        detail = result["error"] or result["stderr"].strip()
        outcome.fail(f"{' '.join(result['argv'][:5])}: exit code {result['exit']}: "
                     f"{detail[-300:]}", outcome.rows)
        return None
    try:
        return json.loads(result["out"])
    except ValueError:
        outcome.silent = True
        outcome.fail("exit code 0 but the output is not JSON", outcome.rows)
        return None


def _f21_half(a: int, b: int, c: Fraction) -> Fraction:
    """Exact terminating 2F1(-a, b; c; 1/2) for an integer a >= 0."""
    term = total = Fraction(1)
    for j in range(a):
        term *= Fraction(j - a) * (b + j) / ((c + j) * (j + 1) * 2)
        total += term
    return total


def coefficient_c(n: int) -> Fraction:
    """The paper's closed form of the proportionality constant C_n."""
    m, odd = divmod(n, 2)
    sign = (-1) ** (m + 1)
    if not odd:
        return Fraction(sign, 8 * (m + 1)) * _f21_half(2 * m, 2 * m + 4, Fraction(5, 2))
    scale = Fraction(sign * (2 * m + 1) * (2 * m + 5), 20 * 4 * (m + 1) * (m + 2))
    return scale * _f21_half(2 * m, 2 * m + 6, Fraction(7, 2))


def _norm_ref(factor: float):
    """Reference of a hypergeometric norm row: factor ((n+2)^2 - 1) C_n^2."""
    return lambda alpha, n: factor * ((n + 2) ** 2 - 1) * float(coefficient_c(n)) ** 2


# Every verify row by name: its default tolerance and the reference the
# benchmark computes for it (alpha and the integers in the name in, float
# out).  A row that errored carries the name without the trailing part the
# reference needs ("gram matrix", "fd spectrum", no alpha) and NaN values.
VERIFY_ROWS = (
    (r"coefficient C_(\d+)", 0.0, lambda a, n: float(coefficient_c(n))),
    (r"midpoint vanishing m=(\d+)", 0.0, lambda a, m: 0.0),
    (r"trig norm k=(\d+)", QUADRATURE_TOL, lambda a, k: 0.5 * math.pi * (k * k - 1)),
    (r"hypergeom norm \(x-form\) n=(\d+)", QUADRATURE_TOL, _norm_ref(0.25 * math.pi)),
    (r"hypergeom norm \(z-form\) n=(\d+)", QUADRATURE_TOL, _norm_ref(0.5 * math.pi)),
    (r"expectation <x> k=(\d+)", QUADRATURE_TOL, lambda a, k: math.pi / (4.0 * a)),
    (r"first moment \(trig\) k=(\d+)", QUADRATURE_TOL,
     lambda a, k: 0.25 * math.pi * math.pi * (k * k - 1)),
    (r"first moment \(hypergeom\) n=(\d+)", QUADRATURE_TOL, _norm_ref(math.pi ** 2 / 16.0)),
    (r"gram \((\d+),(\d+)\)", QUADRATURE_TOL, lambda a, i, j: float(i == j)),
    (r"gram matrix", QUADRATURE_TOL, None),
    (r"residual \(partner\) k=(\d+)", RESIDUAL_TOL, lambda a, k: 0.0),
    (r"bound-state correspondence n=(\d+)", IDENTITY_TOL, lambda a, n: 0.0),
    (r"identity \((base|even ratio|odd ratio)\) [nm]=(\d+)", IDENTITY_TOL,
     lambda a, which, i: 0.0),
    (r"fd mode (\d+)", FD_TOL, lambda a, i: 4.0 * a * a * (i + 2) ** 2),
    (r"fd spectrum", FD_TOL, None),
)


def _verify_row(name: str, alpha: float):
    """(default tolerance, reference function) of a row, or None if unknown."""
    for pattern, tolerance, reference in VERIFY_ROWS:
        match = re.match(pattern, name)
        if match:
            args = [int(g) if g.isdigit() else g for g in match.groups()]
            return tolerance, (lambda: reference(alpha, *args)) if reference else None
    return None


def check_verify(result: dict, alpha: float, n_max: int) -> Outcome:
    """Exit 0, overall true, the expected check count, and every row within
    the package's default tolerance of the benchmark's own reference.

    Each row's stated tolerance must be the default for its name and its
    stated reference must match the one computed here; the deviation is
    recomputed from the row's computed value.  Exit code 1 with a failing
    report is a reported failure: each failed row counts."""
    expected = VERIFY_CHECK_COUNT[n_max]
    outcome = Outcome(rows=expected)
    try:
        report = json.loads(result["out"])
    except ValueError:
        report = None
    if report is None or result["exit"] not in (0, 1):
        outcome.silent = result["exit"] == 0
        detail = result["error"] or result["stderr"].strip()
        outcome.fail(f"exit code {result['exit']} without a report: {detail[-300:]}", expected)
        return outcome
    parameters = report["parameters"]
    if (parameters["alpha"], parameters["n_max"]) != (alpha, n_max):
        outcome.silent = True
        outcome.notes.append(f"report parameters {parameters} do not match the call")
    rows = report["checks"]
    if len(rows) != expected:
        outcome.silent = True
        outcome.fail(f"{len(rows)} checks, expected {expected}", abs(len(rows) - expected))
    all_passed = True
    for row in rows:
        name = row["name"]
        known = _verify_row(name, alpha)
        if known is None:
            outcome.silent = True
            outcome.fail(f"{name}: not a row the suite makes")
            all_passed = False
            continue
        tolerance, reference = known
        if float(row["tolerance"]) != tolerance:
            outcome.silent = True
            outcome.notes.append(f"{name}: tolerance {row['tolerance']} is not {tolerance}")
        computed = float(row["computed"])  # non-finite values arrive as strings
        if reference is None or not math.isfinite(computed):
            rel_dev = math.inf  # an errored row
        else:
            ref = reference()
            if not abs(float(row["reference"]) - ref) <= 1e-12 * abs(ref):
                outcome.silent = True
                outcome.notes.append(f"{name}: reference {row['reference']} is not {ref!r}")
            rel_dev = abs(computed - ref) / abs(ref) if ref != 0.0 else abs(computed - ref)
        within = rel_dev <= tolerance
        if row["passed"] and not within:
            outcome.silent = True
        if tolerance > 0 and math.isfinite(rel_dev):
            outcome.headroom.append(rel_dev / tolerance)
        if not (within and row["passed"]):
            all_passed = False
            outcome.fail(f"{name}: rel_dev {rel_dev!r} > tolerance {tolerance}")
    if report["overall"] != all_passed or (result["exit"] == 0) != all_passed:
        outcome.silent = True
        outcome.notes.append("overall flag or exit code disagrees with the rows")
    return outcome


def check_spectrum(result: dict, alpha: float, count: int) -> Outcome:
    """Each mode within the fd_spectrum tolerance of 4 alpha^2 (n+2)^2."""
    outcome = Outcome(rows=count)
    report = _parse(result, outcome)
    if report is None:
        return outcome
    if report["tolerance"] != FD_TOL:
        outcome.silent = True
        outcome.notes.append(f"reported tolerance {report['tolerance']} is not {FD_TOL}")
    rows = report["rows"]
    if len(rows) != count:
        outcome.silent = True
        outcome.fail(f"{len(rows)} modes, expected {count}", abs(len(rows) - count))
    for i, row in enumerate(rows[:count]):
        exact = 4.0 * alpha * alpha * (i + 2) ** 2
        rel_err = abs(row["computed"] - exact) / exact
        outcome.headroom.append(rel_err / FD_TOL)
        if not rel_err <= FD_TOL:
            outcome.silent = True
            outcome.fail(f"fd mode {i}: {row['computed']} vs {exact}")
    return outcome


def _partner_mode(alpha: float, k: int, x: float) -> float:
    """Normalized partner mode in its cotangent form (valid off the walls)."""
    t = 2.0 * alpha * x
    bracket = k * math.cos(k * t) - math.cos(t) / math.sin(t) * math.sin(k * t)
    return math.sqrt(4.0 * alpha / math.pi) / math.sqrt(k * k - 1.0) * bracket


def check_tabulate(result: dict, alpha: float, n: int, points: int) -> Outcome:
    """max |psi - chi| <= identity tolerance * max |chi|, and chi equal to the
    cotangent closed form wherever sin(2 alpha x) >= 0.1."""
    outcome = Outcome(rows=points)
    report = _parse(result, outcome)
    if report is None:
        return outcome
    rows = report["rows"]
    if len(rows) != points:
        outcome.silent = True
        outcome.fail(f"{len(rows)} rows, expected {points}", abs(len(rows) - points))
        return outcome
    length = math.pi / (2.0 * alpha)
    scale = max(abs(row["chi"]) for row in rows)
    reference = {}
    for i, row in enumerate(rows):
        x = length * (i / (points - 1))
        if math.sin(2.0 * alpha * x) >= 0.1:
            reference[i] = _partner_mode(alpha, n + 2, x)
    ref_scale = max(abs(v) for v in reference.values())
    worst = 0.0
    for i, row in enumerate(rows):
        dev = abs(row["psi"] - row["chi"])
        worst = max(worst, dev)
        chi_dev = abs(row["chi"] - reference[i]) if i in reference else 0.0
        if not (dev <= IDENTITY_TOL * scale and chi_dev <= IDENTITY_TOL * ref_scale):
            outcome.silent = True
            outcome.fail(f"tabulate n={n} row {i}: psi-chi {dev}, chi vs closed form {chi_dev}")
    outcome.headroom.append(worst / (IDENTITY_TOL * scale))
    return outcome


def check_identity(result: dict, alpha: float, which: str, index: int) -> Outcome:
    """The identity holds: max scaled deviation within the identity tolerance
    over the full grid."""
    outcome = Outcome(rows=1)
    report = _parse(result, outcome)
    if report is None:
        return outcome
    echo = (report["which"], report["index"], report["alpha"], report["points"])
    if echo != (which, index, alpha, IDENTITY_POINTS) or report["tolerance"] != IDENTITY_TOL:
        outcome.silent = True
        outcome.notes.append(f"identity report {echo} tolerance {report['tolerance']} "
                             "does not match the call")
    deviation = float(report["max_scaled_deviation"])
    if math.isfinite(deviation):
        outcome.headroom.append(deviation / IDENTITY_TOL)
    if not (deviation <= IDENTITY_TOL and report["passed"]):
        outcome.silent = True
        outcome.fail(f"identity {which} {index}: deviation {deviation} with exit code 0")
    return outcome
