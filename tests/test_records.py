"""The package's records are immutable named tuples whose values are checked
on every construction path: positional, keyword, _make and _replace."""
from fractions import Fraction

import pytest

from ptdarboux import cli
from ptdarboux.cli import RunConfig
from ptdarboux.closed_form import TrigEigenfunction
from ptdarboux.errors import ParameterError
from ptdarboux.hypergeom import TerminatingHypergeometric
from ptdarboux.models import PTParams, WellConfig
from ptdarboux.numerics import gauss_legendre
from ptdarboux.verify import CheckResult, check_trig_norm, run_full_suite

# (record, valid fields in field order, a field and a value it rejects); the
# WellConfig and TrigEigenfunction rows are the README's examples
VALIDATED = [
    (WellConfig, {"alpha": 1.0}, "alpha", -1.0),
    (PTParams, {"kappa": 2.0, "lam": 3.0}, "lam", 1.0),
    (TerminatingHypergeometric, {"n": 3, "b": Fraction(7), "c": Fraction(5, 2)}, "c", -4),
    (TerminatingHypergeometric, {"n": 3, "b": Fraction(7), "c": Fraction(5, 2)}, "n", -1),
    (TrigEigenfunction, {"k": 4, "alpha": 1.0}, "k", 1),
    (TrigEigenfunction, {"k": 4, "alpha": 1.0}, "alpha", float("nan")),
    (RunConfig, {"alpha": 0.5, "n_max": 3}, "n_max", 61),
]
IDS = [f"{record.__name__}.{field}" for record, _, field, _ in VALIDATED]


@pytest.mark.parametrize("record, fields, field, bad", VALIDATED, ids=IDS)
def test_construction_checks_positional_and_keyword_values(record, fields, field, bad):
    by_keyword = record(**fields)
    assert record(*fields.values()) == by_keyword
    assert {name: getattr(by_keyword, name) for name in fields} == fields
    broken = {**fields, field: bad}
    with pytest.raises(ParameterError):
        record(**broken)
    with pytest.raises(ParameterError):
        record(*broken.values())


@pytest.mark.parametrize("record, fields, field, bad", VALIDATED, ids=IDS)
def test_replace_and_make_check_values_too(record, fields, field, bad):
    good = record(**fields)
    assert record._make(good) == good
    assert good._replace() == good
    with pytest.raises(ParameterError):
        good._replace(**{field: bad})
    values = list(good)
    values[record._fields.index(field)] = bad
    with pytest.raises(ParameterError):
        record._make(values)


RECORDS = {
    "WellConfig": lambda: WellConfig(1.0),
    "PTParams": lambda: PTParams(2.0, 2.0),
    "TerminatingHypergeometric": lambda: TerminatingHypergeometric(2, 6, Fraction(5, 2)),
    "TrigEigenfunction": lambda: TrigEigenfunction(3, 1.0),
    "RunConfig": RunConfig,
    "QuadratureRule": lambda: gauss_legendre(4),
    "CheckResult": lambda: check_trig_norm(2, order=8, panels=2),
    "VerificationReport": lambda: run_full_suite(n_max=0, grid_points=100),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_check_result_fields_are_the_report_header():
    assert list(CheckResult._fields) == cli._REPORT_HEADER


def test_equal_runs_give_equal_checks():
    assert run_full_suite(n_max=2).checks == run_full_suite(n_max=2).checks
