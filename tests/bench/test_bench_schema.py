"""Every committed benchmark report validates against the shared schema.

Readers of the reports key on a small envelope — ``benchmark``,
``graph``/``graphs`` shape, ``speedup``, ``results_agree`` — that
``benchmarks/bench_report.schema.json`` pins.  This test walks every
committed ``BENCH_*.json``, so an emitter drifting away from the
envelope breaks here.
"""

import json
import pathlib

import pytest

jsonschema = pytest.importorskip("jsonschema")

REPO = pathlib.Path(__file__).resolve().parents[2]
SCHEMA_PATH = REPO / "benchmarks" / "bench_report.schema.json"
REPORTS = sorted(REPO.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def validator():
    schema = json.loads(SCHEMA_PATH.read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def test_reports_exist():
    assert REPORTS, "no committed BENCH_*.json reports found"


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.name)
def test_report_validates(path, validator):
    report = json.loads(path.read_text())
    errors = sorted(validator.iter_errors(report), key=str)
    assert not errors, "\n".join(
        f"{path.name}: {e.json_path}: {e.message}" for e in errors
    )


def test_waiver_file_parses():
    from repro.bench.compare import load_waivers

    waivers = load_waivers(REPO / "benchmarks" / "waivers.json")
    assert isinstance(waivers, tuple)


def test_schema_is_itself_valid_json_schema():
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validators.validator_for(schema).check_schema(schema)
