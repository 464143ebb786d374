import importlib.util
import json
import math
from pathlib import Path

from homsol.io import document_from_dict, validate

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def test_ladder_documents_are_valid():
    docs = compare_reports.ladder_documents()
    assert len(docs) == 8 + 7 + 11 + 7
    for raw in docs:
        dec, violations = validate(document_from_dict(raw))
        assert dec is not None and not violations, raw["name"]


def report(c=-1.5, passed=True, checks=1):
    return {"c": c, "checks": [{"name": "a", "passed": passed}] * checks}


def test_differences_tolerate_roundoff_only():
    diff = compare_reports.differences
    base = {"exit": 0, "report": report()}
    assert diff(base, {"exit": 0, "report": report(c=-1.5 * (1 + 1e-13))}) == []
    assert diff({"x": math.nan}, {"x": math.nan}) == []
    assert diff(base, {"exit": 1, "report": report()})
    assert diff(base, {"exit": 0, "report": report(c=-1.5 * (1 + 1e-9))})
    assert diff(base, {"exit": 0, "report": report(passed=False)})
    assert diff(base, {"exit": 0, "report": report(checks=0)})
    assert diff({"tag": "Einstein"}, {"tag": "AlgebraicSoliton"})
    assert diff({"a": 1}, {"b": 1})


def test_construction_documents_build(tmp_path, capsys):
    from homsol.cli import main

    for doc in compare_reports.construction_documents():
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        assert main(["build", str(path), "--json"]) == 0, doc["name"]
    capsys.readouterr()
