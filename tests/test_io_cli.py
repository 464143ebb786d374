import json
import os
import subprocess
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsol import catalog
from homsol.cli import main
from homsol.io import DocumentError, document_from_catalog, document_from_dict, load, validate


def doc_dict(**overrides):
    base = {
        "name": "heis3",
        "dim": 3,
        "dim_k": 0,
        "dim_h": 0,
        "dim_n": 3,
        "bracket": [{"i": 0, "j": 1, "k": 2, "c": 1.0}],
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def test_load_catalog_name():
    doc = load("heis3.json")
    assert (doc.dim_k, doc.dim_h, doc.dim_n) == (0, 0, 3)
    assert load("heis3").content_hash() == doc.content_hash()


def test_load_from_file(tmp_path):
    f = tmp_path / "algebra.json"
    f.write_text(json.dumps(doc_dict()))
    doc = load(str(f))
    assert doc.name == "heis3"
    dec, violations = validate(doc)
    assert dec is not None and not violations


def test_unknown_name_rejected():
    with pytest.raises(DocumentError, match="not-found"):
        load("no-such-algebra")


def test_unknown_keys_rejected():
    with pytest.raises(DocumentError, match="unknown-keys"):
        document_from_dict(doc_dict(extra=1))


def test_missing_keys_rejected():
    raw = doc_dict()
    del raw["bracket"]
    with pytest.raises(DocumentError, match="missing-keys"):
        document_from_dict(raw)


def test_dimension_sum_enforced():
    with pytest.raises(DocumentError, match="dimension-sum"):
        document_from_dict(doc_dict(dim=4))


def test_bracket_entry_keys_exact():
    with pytest.raises(DocumentError, match="bad-bracket-entry"):
        document_from_dict(doc_dict(bracket=[{"i": 0, "j": 1, "k": 2}]))


def test_bracket_requires_i_less_j():
    with pytest.raises(DocumentError, match="i < j"):
        document_from_dict(doc_dict(bracket=[{"i": 1, "j": 0, "k": 2, "c": 1.0}]))


def test_index_range_checked():
    with pytest.raises(DocumentError, match="index-out-of-range"):
        document_from_dict(doc_dict(bracket=[{"i": 0, "j": 5, "k": 2, "c": 1.0}]))


def test_ip_shape_checked():
    with pytest.raises(DocumentError, match="bad-ip"):
        document_from_dict(doc_dict(ip=[[1.0, 0.0], [0.0, 1.0]]))


def test_ip_not_pd_reported():
    raw = doc_dict(ip=[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    doc = document_from_dict(raw)
    dec, violations = validate(doc)
    assert dec is None
    assert any(v.code == "ip-not-pd" for v in violations)


def test_n_not_ideal_reported():
    raw = {
        "name": "bad",
        "dim": 3,
        "dim_k": 0,
        "dim_h": 2,
        "dim_n": 1,
        # [e0, e2] = e1 throws n into h
        "bracket": [{"i": 0, "j": 2, "k": 1, "c": 1.0}],
    }
    dec, violations = validate(document_from_dict(raw))
    assert dec is None
    assert any(v.code == "n-not-ideal" for v in violations)


def test_document_roundtrip_hash_stable():
    doc = load("fil4")
    again = document_from_dict(json.loads(doc.dumps()))
    assert again.content_hash() == doc.content_hash()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_fit_heis3(capsys):
    code, out = run_cli(capsys, "fit", "heis3.json", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"] == "AlgebraicSoliton"
    assert rep["results"]["c"] == pytest.approx(-1.5, abs=1e-9)
    d1 = np.array(rep["results"]["nilpotent_part"]["d1"])
    assert np.allclose(d1, np.diag([1.0, 1.0, 2.0]), atol=1e-9)


def test_cli_ricci_solv12(capsys):
    code, out = run_cli(capsys, "ricci", "solv12", "--json")
    assert code == 0
    rep = json.loads(out)
    assert np.allclose(np.array(rep["results"]["ricci"]), np.diag([-5.0, -3.0, -6.0]))


def test_cli_stratify_fil4(capsys):
    code, out = run_cli(capsys, "stratify", "fil4", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["nice_position"] is True
    assert np.allclose(rep["results"]["beta"], [-1.0, -0.5, 0.0, 0.5], atol=1e-9)
    assert rep["passed"]


def test_cli_battery_solv12(capsys):
    code, out = run_cli(capsys, "battery", "solv12", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"]
    names = {c["name"] for c in rep["checks"]}
    assert "hh-inside-u" in names
    assert "ricci-reassembly" in names


def test_cli_fit_nil7_fails_detection(capsys):
    code, out = run_cli(capsys, "fit", "nil7", "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["classification"] == "NotDetected"


def test_cli_input_error_exit_2(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code = main(["ricci", str(f)])
    assert code == 2


# [e0,e1] = e1, [e0,e2] = e2, [e1,e2] = e0 on h: the Jacobiator is -2 e0, of degree 2,
# so at scale 1e-5 it is 2e-10 and must be held to tol |mu|^2, not to an absolute tol
NON_JACOBI_H = doc_dict(
    name="non-jacobi-h",
    dim_h=3,
    dim_n=0,
    bracket=[
        {"i": i, "j": j, "k": k, "c": 1e-5} for i, j, k in ((0, 1, 1), (0, 2, 2), (1, 2, 0))
    ],
)


def test_cli_invalid_document_exit_2(capsys, tmp_path):
    bad_ip = doc_dict(ip=[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    f = tmp_path / "bad.json"
    commands = [[c] for c in ("ricci", "fit", "battery", "stratify")]
    commands += [["extend", "--variant", v] for v in ("nonunimodular", "restrict", "unimodular")]
    for raw, error in ((bad_ip, "ip-not-pd"), (NON_JACOBI_H, "jacobi")):
        f.write_text(json.dumps(raw))
        for command in commands:
            code, out = run_cli(capsys, *command, str(f), "--json")
            assert code == 2, (raw["name"], command)
            rep = json.loads(out)
            assert any(e["code"] == error for e in rep["errors"]), (raw["name"], command)


def test_cli_extend_unimodular_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "ext.json"
    code, out = run_cli(
        capsys, "extend", "heis3", "--variant", "unimodular", "--out", str(out_file), "--json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["document"]["dim"] == 4
    # feed the emitted document back through ricci
    code2, out2 = run_cli(capsys, "ricci", str(out_file), "--json")
    assert code2 == 0
    rep2 = json.loads(out2)
    assert np.allclose(np.array(rep2["results"]["ricci"]), -1.5 * np.eye(4), atol=1e-9)


def test_cli_extend_restrict(capsys):
    code, out = run_cli(capsys, "extend", "solv12", "--variant", "restrict", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["document"]["dim"] == 2
    assert rep["results"]["c"] == pytest.approx(-5.0)


def test_cli_extend_refuses_wrong_variant(capsys):
    code, out = run_cli(capsys, "extend", "heis3", "--variant", "nonunimodular", "--json")
    assert code == 2
    rep = json.loads(out)
    assert any(e["code"] == "extend-failed" for e in rep["errors"])


def test_cli_build(capsys, tmp_path):
    data = {
        "name": "solv12-like",
        "c": -5.0,
        "nil": {"dim": 2, "bracket": [], "d1": [[5.0, 0.0], [0.0, 5.0]]},
        "reductive": {"dim": 1, "dim_k": 0, "bracket": []},
        "theta": [[[1.0, 0.0], [0.0, 2.0]]],
    }
    f = tmp_path / "cons.json"
    f.write_text(json.dumps(data))
    code, out = run_cli(capsys, "build", str(f), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"] == "AlgebraicSoliton"
    assert rep["results"]["document"]["dim"] == 3


def test_cli_build_rejects_bad_data(capsys, tmp_path):
    data = {
        "name": "broken",
        "c": -1.0,
        "nil": {"dim": 3, "bracket": [{"i": 0, "j": 1, "k": 2, "c": 1.0}], "d1": np.eye(3).tolist()},
        "reductive": {"dim": 1, "dim_k": 0, "bracket": []},
        "theta": [np.eye(3).tolist()],
    }
    f = tmp_path / "cons.json"
    f.write_text(json.dumps(data))
    code, out = run_cli(capsys, "build", str(f), "--json")
    assert code == 1
    rep = json.loads(out)
    assert not rep["passed"]


def refused_constructions():
    """Build documents that each fail one condition (the name), with the set of failing records.

    aff(1) acting trivially on R: every condition holds but u reductive.  R acting on
    R^2 by a Jordan block: theta(Y) is not normal, so (c2) fails, and (c3) with it.
    nil7 with u = 0 and D1 = Ric_n - c I: the certificate holds, D1 is no derivation.
    """
    nil7 = catalog.get("nil7")
    d1 = nil7.decomposition().ricci().matrix + 0.5 * np.eye(7)
    aff = [{"i": 0, "j": 1, "k": 1, "c": 1.0}]
    return {
        "u-not-reductive": (
            {
                "c": -1.0,
                "nil": {"dim": 1, "bracket": [], "d1": [[1.0]]},
                "reductive": {"dim": 2, "dim_k": 0, "bracket": aff},
                "theta": [[[0.0]], [[0.0]]],
            },
            {"u-not-reductive"},
        ),
        "c2-commutator-sum": (
            {
                "c": -1.0,
                "nil": {"dim": 2, "bracket": [], "d1": np.eye(2).tolist()},
                "reductive": {"dim": 1, "dim_k": 0, "bracket": []},
                "theta": [[[1.0, 1.0], [0.0, 1.0]]],
            },
            {"c2-commutator-sum", "c3-reductive-ricci"},
        ),
        "d1-not-derivation": (
            {
                "c": -0.5,
                "nil": {
                    "dim": 7,
                    "bracket": document_from_catalog(nil7).to_json_dict()["bracket"],
                    "d1": d1.tolist(),
                },
                "reductive": {"dim": 0, "dim_k": 0, "bracket": []},
                "theta": [],
            },
            {"d1-not-derivation"},
        ),
    }


@pytest.mark.parametrize("name", ["u-not-reductive", "c2-commutator-sum", "d1-not-derivation"])
def test_cli_build_refuses_data_that_fails_one_condition(capsys, tmp_path, name):
    data, failing = refused_constructions()[name]
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(dict(data, name=name)))
    code, out = run_cli(capsys, "build", str(f), "--json")
    rep = json.loads(out)
    assert code == 1 and not rep["errors"] and "document" not in rep["results"]
    assert {c["name"] for c in rep["checks"] if not c["passed"]} == failing


def test_cli_catalog_lists(capsys):
    code, out = run_cli(capsys, "catalog", "--json")
    assert code == 0
    rep = json.loads(out)
    names = set(rep["results"]["catalog"])
    assert {"heis3", "fil4", "solv12", "cplxhyp2", "nil7", "hyp4"} <= names


def test_cli_catalog_dump_and_reload(capsys, tmp_path):
    code, _ = run_cli(capsys, "catalog", "--dump", str(tmp_path), "--json")
    assert code == 0
    doc = load(str(tmp_path / "cplxhyp2.json"))
    assert doc.dim == 4


def test_cli_catalog_dump_below_a_file_exit_2(capsys, tmp_path):
    # mkdir fails: the dump directory would sit inside a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["catalog", "--dump", str(blocker / "sub"), "--json"]) == 2
    captured = capsys.readouterr()
    assert "error [out-not-writable]" in captured.err and not captured.out


def test_cli_catalog_dump_over_a_directory_exit_2(capsys, tmp_path):
    # a write fails: a catalog document's file name is taken by a directory
    (tmp_path / "heis3.json").mkdir()
    assert main(["catalog", "--dump", str(tmp_path), "--json"]) == 2
    assert "error [out-not-writable]" in capsys.readouterr().err


def test_cli_reports_deterministic(capsys):
    _, out1 = run_cli(capsys, "battery", "cplxhyp2", "--json")
    _, out2 = run_cli(capsys, "battery", "cplxhyp2", "--json")
    assert out1 == out2


def test_cli_tolerance_env(capsys, monkeypatch):
    monkeypatch.setenv("HOMSOL_TOL", "1e-5")
    code, out = run_cli(capsys, "fit", "heis3", "--json")
    assert code == 0
    assert json.loads(out)["config"]["tolerance"] == 1e-5


def test_cli_verify_all(capsys):
    code, out = run_cli(capsys, "verify-all", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"]
    assert len(rep["checks"]) > 60


def assert_refused_in_the_report(capsys, argv, code):
    """argv exits 2, without a RuntimeWarning, with the one error code in its --json report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exit_code, out = run_cli(capsys, *argv, "--json")
    assert exit_code == 2
    assert [e["code"] for e in json.loads(out)["errors"]] == [code]


def test_cli_overflowing_bracket_exit_2(capsys, tmp_path):
    # |mu|^2 = 2e600 overflows; the bracket is refused instead of fitted
    f = tmp_path / "huge.json"
    f.write_text(json.dumps(doc_dict(bracket=[{"i": 0, "j": 1, "k": 2, "c": 1e300}])))
    assert_refused_in_the_report(capsys, ["fit", str(f)], "bracket-norm-overflow")


# not nilpotent: [e0,e1] = e2, [e1,e2] = e0 spans a copy of the Euclidean algebra
NOT_NILPOTENT = [{"i": 0, "j": 1, "k": 2, "c": 1.0}, {"i": 1, "j": 2, "k": 0, "c": 1.0}]


def test_cli_not_nilpotent_fails_at_default_tolerance(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("HOMSOL_TOL", raising=False)
    f = tmp_path / "e2.json"
    f.write_text(json.dumps(doc_dict(bracket=NOT_NILPOTENT)))
    code, out = run_cli(capsys, "fit", str(f), "--json")
    assert code == 2
    assert [e["code"] for e in json.loads(out)["errors"]] == ["n-not-nilpotent"]


@pytest.mark.parametrize(
    "flag, env",
    [("nan", None), ("inf", None), ("-1", None), ("0", None), (None, "abc"), ("1", None), (None, "2")],
)
def test_cli_bad_tolerance_exit_2(capsys, tmp_path, monkeypatch, flag, env):
    # a NaN, infinite or non-positive tolerance would disable every check; at 1 or above
    # every part counts as small beside the whole (n as abelian whatever its bracket)
    monkeypatch.delenv("HOMSOL_TOL", raising=False)
    if env is not None:
        monkeypatch.setenv("HOMSOL_TOL", env)
    f = tmp_path / "e2.json"
    f.write_text(json.dumps(doc_dict(bracket=NOT_NILPOTENT)))
    argv = ["fit", str(f), "--json"] + (["--tol", flag] if flag is not None else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error [bad-tolerance]" in captured.err


@pytest.mark.parametrize("tol", ["1e-9", "0.1", "0.5"])
def test_cli_a_coarse_tolerance_does_not_turn_a_soliton_einstein(capsys, tol):
    # solv12 has Ric = diag(-5, -3, -6), c = -5: |Ric - c I| = 2.24 is inside 0.5 max(|Ric|, |c|)
    code, out = run_cli(capsys, "fit", "solv12", "--tol", tol, "--json")
    assert code == 0
    assert json.loads(out)["classification"] == "AlgebraicSoliton"


@pytest.mark.parametrize("c", [1e77, 1e100])
@pytest.mark.parametrize("command", ["fit", "battery"])
def test_cli_degree_four_overflow_exit_2(capsys, tmp_path, command, c):
    # |mu|^2 is finite, but c ~ |mu|^2 squared is not
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc_dict(bracket=[{"i": 0, "j": 1, "k": 2, "c": c}])))
    assert_refused_in_the_report(capsys, [command, str(f)], "bracket-norm-overflow")


@pytest.mark.parametrize("c", [1e-100, 1e-170])
@pytest.mark.parametrize("command", ["fit", "battery", "stratify"])
def test_cli_degree_four_underflow_exit_2(capsys, tmp_path, command, c):
    # (|mu|^2)^2 below the normal range: quantities of degree 4 round to 0,
    # and the nonzero bracket would pass as Einstein or as abelian
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps(doc_dict(bracket=[{"i": 0, "j": 1, "k": 2, "c": c}])))
    assert_refused_in_the_report(capsys, [command, str(f)], "bracket-norm-underflow")


@pytest.mark.parametrize("command", ["fit", "battery"])
def test_cli_smallest_accepted_scale_keeps_the_tag(capsys, tmp_path, command):
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps(doc_dict(bracket=[{"i": 0, "j": 1, "k": 2, "c": 1e-75}])))
    code, out = run_cli(capsys, command, str(f), "--json")
    assert code == 0
    assert json.loads(out)["classification"] == "AlgebraicSoliton"


def range_documents() -> dict:
    """name: document of tools/compare_reports.py's range documents."""
    from test_compare_reports import compare_reports

    return {raw["name"]: raw for raw in compare_reports.range_documents()}


RANGE_ARGV = [["ricci"], ["fit"], ["battery"], ["stratify"], ["extend", "--variant", "unimodular"]]


@pytest.mark.parametrize("argv", RANGE_ARGV, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "name, fault",
    [
        ("heis3-frame-overflow", "bracket-norm-overflow"),
        ("heis3-frame-underflow", "bracket-norm-underflow"),
        ("cplxhyp2-n-underflow", "bracket-norm-underflow"),
    ],
)
def test_cli_out_of_range_in_the_frame_or_the_nilpotent_part_exit_2(capsys, tmp_path, argv, name, fault):
    # in range in the user basis, so the document is read; but the library computes in the
    # orthonormal frame of ip and in the nilpotent part, and there (|mu|^2)^2 leaves the range
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(range_documents()[name]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(capsys, argv[0], str(f), *argv[1:], "--json")
    assert code == 2
    assert [e["code"] for e in json.loads(out)["errors"]] == [fault]


@pytest.mark.parametrize("argv", RANGE_ARGV, ids=lambda argv: argv[0])
def test_cli_out_of_range_as_listed_in_range_in_the_frame_is_computed(capsys, tmp_path, argv):
    # heis3 at c = 1e77 with ip = diag(1e8, 1, 1): (|mu|^2)^2 is 4e308, beyond the float range,
    # as listed, but [f0, f1] = 1e73 f2 in the orthonormal frame, the one bracket computed in
    f = tmp_path / "heis3-frame-listed-overflow.json"
    f.write_text(json.dumps(range_documents()["heis3-frame-listed-overflow"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(capsys, argv[0], str(f), *argv[1:], "--json")
    assert code == 0, out
    assert json.loads(out)["classification"] in ("", "AlgebraicSoliton", "Einstein")  # ricci: none


def test_an_ip_document_and_its_printed_orthonormal_twin_share_one_decomposition(capsys, tmp_path):
    # decompose keys its memo on the bracket in the orthonormal frame: cplxhyp2 listed with an
    # inner product that is not diagonal on n, and the document of its frame bracket, with no
    # ip, are one entry whichever is read first
    from homsol import decomposition
    from homsol.io import document_from_decomposition

    raw = document_from_catalog(catalog.get("cplxhyp2")).to_json_dict()
    ip = [[4.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 2.0]]
    raw.update(name="cplxhyp2-ip", ip=ip, meta={})
    doc = document_from_dict(raw)
    dec = validate(doc)[0]
    twin = document_from_decomposition(dec, "cplxhyp2-orthonormal")
    assert twin.ip is None and twin.bracket != doc.bracket
    assert validate(twin)[0] is dec
    decomposition._validated.cache_clear()
    assert validate(twin)[0] is validate(doc)[0] is not dec

    # ricci: one operator in the frame, and each listing's own basis in ricci_user_basis
    results = []
    for listing in (doc, twin):
        path = tmp_path / f"{listing.name}.json"
        path.write_text(listing.dumps())
        code, out = run_cli(capsys, "ricci", str(path), "--json")
        assert code == 0
        results.append(json.loads(out)["results"])
    assert results[0]["ricci"] == results[1]["ricci"] == results[1]["ricci_user_basis"]
    frame = decomposition.orthonormal_frame(np.array(ip))
    ric = np.array(results[0]["ricci"])
    assert np.allclose(results[0]["ricci_user_basis"], frame @ ric @ np.linalg.inv(frame), atol=1e-12)
    assert not np.allclose(results[0]["ricci_user_basis"], ric)


@pytest.mark.parametrize("argv", RANGE_ARGV, ids=lambda argv: argv[0])
def test_cli_in_range_in_both_bases_keeps_the_unit_scale_verdicts(capsys, tmp_path, argv):
    # heis3 at c = 1e72 with ip = diag(1e-8, 1, 1): (|mu|^2)^2 is 4e304 in the orthonormal frame
    f = tmp_path / "heis3-frame-in-range.json"
    f.write_text(json.dumps(range_documents()["heis3-frame-in-range"]))
    verdicts = []
    for target in (str(f), "heis3"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(capsys, argv[0], target, *argv[1:], "--json")
        rep = json.loads(out)
        nil_tag = rep["results"].get("nilpotent_part", {}).get("tag")
        checks = [(c["name"], c["passed"]) for c in rep["checks"]]
        verdicts.append((code, rep["classification"], nil_tag, checks))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["fit", "battery", "stratify"])
def test_cli_non_finite_ip_exit_2(capsys, tmp_path, command, bad):
    # json reads NaN and Infinity, and no eigensolver accepts them
    f = tmp_path / "ip.json"
    f.write_text(json.dumps(doc_dict(ip=[[1.0, 0.0, 0.0], [0.0, bad, 0.0], [0.0, 0.0, 1.0]])))
    assert main([command, str(f)]) == 2
    assert "error [bad-ip]" in capsys.readouterr().err


def test_cli_extend_out_to_a_missing_directory_exit_2(capsys, tmp_path):
    out_file = tmp_path / "missing" / "x.json"
    argv = ["extend", "--variant=unimodular", "heis3", "--out", str(out_file)]
    assert main(argv) == 2
    assert "error [out-not-writable]" in capsys.readouterr().err
    assert not out_file.parent.exists()


@pytest.mark.parametrize("command", ["fit", "battery"])
def test_cli_largest_accepted_scale_reports(capsys, tmp_path, command):
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc_dict(bracket=[{"i": 0, "j": 1, "k": 2, "c": 1e76}])))
    code, out = run_cli(capsys, command, str(f), "--json")
    assert code in (0, 1)
    rep = json.loads(out)
    assert rep["command"] == command and not rep["errors"]


def build_doc(**overrides):
    data = {
        "name": "cplxhyp2-parts",
        "c": -1.5,
        "nil": {
            "dim": 3,
            "bracket": [{"i": 0, "j": 1, "k": 2, "c": 1.0}],
            "d1": np.diag([1.0, 1.0, 2.0]).tolist(),
        },
        "reductive": {"dim": 1, "dim_k": 0, "bracket": []},
        "theta": [np.diag([0.5, 0.5, 1.0]).tolist()],
    }
    data.update(overrides)
    return data


def run_build(capsys, tmp_path, data):
    f = tmp_path / "cons.json"
    f.write_text(json.dumps(data))
    code, out = run_cli(capsys, "build", str(f), "--json")
    return code, json.loads(out)


def test_cli_build_parts_of_cplxhyp2(capsys, tmp_path):
    code, rep = run_build(capsys, tmp_path, build_doc())
    assert code == 0
    assert rep["classification"] == "Einstein"


def test_cli_build_null_ip_means_identity(capsys, tmp_path):
    # the construction example in README.md writes "ip": null
    nil = dict(build_doc()["nil"], ip=None)
    red = dict(build_doc()["reductive"], ip=None)
    code, rep = run_build(capsys, tmp_path, build_doc(nil=nil, reductive=red))
    assert code == 0
    assert rep["classification"] == "Einstein"


def test_cli_build_index_out_of_range_exit_2(capsys, tmp_path):
    nil = dict(build_doc()["nil"], bracket=[{"i": 0, "j": 1, "k": 7, "c": 1.0}])
    code, rep = run_build(capsys, tmp_path, build_doc(nil=nil))
    assert code == 2
    assert [e["code"] for e in rep["errors"]] == ["bad-construction"]


def test_cli_build_ragged_d1_exit_2(capsys, tmp_path):
    nil = dict(build_doc()["nil"], d1=[[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 2.0]])
    code, rep = run_build(capsys, tmp_path, build_doc(nil=nil))
    assert code == 2
    assert [e["code"] for e in rep["errors"]] == ["bad-construction"]


def test_cli_build_nan_constant_exit_2(capsys, tmp_path):
    code, rep = run_build(capsys, tmp_path, build_doc(c=float("nan")))
    assert code == 2
    assert [e["code"] for e in rep["errors"]] == ["bad-construction"]
    assert rep["classification"] == ""


def test_cli_build_bracket_norm_out_of_range_exit_2(capsys, tmp_path):
    # the assembled bracket falls under the documents' rule on (|mu|^2)^2, without an
    # overflow warning on the way
    s = 1e-100  # cplxhyp2's parts at scale s: brackets and theta by s, c and D1 by s^2
    tiny_nil = {
        "dim": 3,
        "bracket": [{"i": 0, "j": 1, "k": 2, "c": s}],
        "d1": (s * s * np.diag([1.0, 1.0, 2.0])).tolist(),
    }
    tiny = build_doc(c=-1.5 * s * s, nil=tiny_nil, theta=[(s * np.diag([0.5, 0.5, 1.0])).tolist()])
    big = build_doc(nil=dict(build_doc()["nil"], bracket=[{"i": 0, "j": 1, "k": 2, "c": 1e200}]))
    for data, fault in ((big, "bracket-norm-overflow"), (tiny, "bracket-norm-underflow")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_build(capsys, tmp_path, data)
        assert code == 2, fault
        assert [e["code"] for e in rep["errors"]] == ["bad-construction"], fault
        assert fault in rep["errors"][0]["detail"]


def test_cli_build_nilpotent_part_out_of_range_exit_2(capsys, tmp_path):
    # g is in range, but its n-block [e1, e2] = 1e-120 e3 has (|mu|^2)^2 below the normal range
    nil = dict(build_doc()["nil"], bracket=[{"i": 0, "j": 1, "k": 2, "c": 1e-120}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_build(capsys, tmp_path, build_doc(nil=nil))
    assert code == 2
    assert [e["code"] for e in rep["errors"]] == ["bad-construction"]
    assert "bracket-norm-underflow" in rep["errors"][0]["detail"]


def test_cli_build_non_symmetric_ip_exit_2(capsys, tmp_path):
    # the Cholesky factor reads one triangle, so a non-symmetric ip would build another metric
    nil = dict(build_doc()["nil"], ip=[[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    red = {"dim": 2, "dim_k": 0, "bracket": [], "ip": [[1.0, 1.0], [0.0, 1.0]]}
    two_h = build_doc(reductive=red, theta=2 * build_doc()["theta"])
    for data, what in ((build_doc(nil=nil), "ip_n"), (two_h, "ip_h")):
        code, rep = run_build(capsys, tmp_path, data)
        assert code == 2, what
        assert [e["code"] for e in rep["errors"]] == ["bad-construction"], what
        assert f"{what} must be symmetric" in rep["errors"][0]["detail"]


# the default tol and one far above it: the inner-product rules read neither
TOL_ARGS = ([], ["--tol", "0.5"])


def test_cli_inner_product_faults_exit_2_at_every_tol(capsys, tmp_path):
    # heis3 with a non-symmetric ip, whose Cholesky factor would read one triangle, and
    # solv12 with an ip that couples h and n
    non_symmetric = doc_dict(ip=[[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    coupled = document_from_catalog(catalog.get("solv12")).to_json_dict()
    coupled["ip"] = [[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]]
    f = tmp_path / "doc.json"
    for raw, error in ((non_symmetric, "ip-not-symmetric"), (coupled, "h-n-not-orthogonal")):
        f.write_text(json.dumps(raw))
        for tol in TOL_ARGS:
            code, out = run_cli(capsys, "fit", str(f), "--json", *tol)
            assert code == 2, (error, tol)
            assert [e["code"] for e in json.loads(out)["errors"]] == [error], (error, tol)


def test_cli_build_ip_not_positive_definite_exit_2_as_a_document_does(capsys, tmp_path):
    # an ip_n of condition number 1e12, past the RANK_TOL cut, and an indefinite one
    f = tmp_path / "ip.json"
    for ip in (np.diag([1e-12, 1.0, 1.0]).tolist(), np.diag([1.0, -1.0, 1.0]).tolist()):
        for tol in TOL_ARGS:
            f.write_text(json.dumps(build_doc(nil=dict(build_doc()["nil"], ip=ip))))
            code, out = run_cli(capsys, "build", str(f), "--json", *tol)
            assert code == 2, (ip, tol)
            errors = json.loads(out)["errors"]
            assert errors == [{"code": "bad-construction", "detail": "ip_n not positive definite"}], (ip, tol)
            f.write_text(json.dumps(doc_dict(ip=ip)))  # the same metric on heis3's document
            code, out = run_cli(capsys, "fit", str(f), "--json", *tol)
            assert code == 2, (ip, tol)
            assert [e["code"] for e in json.loads(out)["errors"]] == ["ip-not-pd"], (ip, tol)


def test_cli_unreadable_file_exit_2(capsys, tmp_path):
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for path, error in ((tmp_path, "not-readable"), (latin, "parse-error"), (deep, "parse-error")):
        assert main(["fit", str(path)]) == 2, path
        assert f"error [{error}]" in capsys.readouterr().err, path
        code, out = run_cli(capsys, "build", str(path), "--json")
        assert code == 2, path
        errors = json.loads(out)["errors"]
        assert [e["code"] for e in errors] == ["bad-construction"], path
        assert errors[0]["detail"].startswith(error), path


# a construction document is read by the rules of algebra documents: each refusal
# below is bad-construction (exit 2), and its detail starts with the rule's code

def assert_build_refused(capsys, tmp_path, data, rule):
    code, rep = run_build(capsys, tmp_path, data)
    assert code == 2, rule
    assert [e["code"] for e in rep["errors"]] == ["bad-construction"], rule
    assert rep["errors"][0]["detail"].startswith(f"{rule}: "), rep["errors"][0]["detail"]


def nil_with_entry(**entry):
    return dict(build_doc()["nil"], bracket=[dict({"i": 0, "j": 1, "k": 2, "c": 1.0}, **entry)])


def test_cli_build_refuses_a_fractional_bracket_index(capsys, tmp_path):
    # truncating j = 1.5 to 1 would build an algebra the document does not describe
    data = build_doc(nil=nil_with_entry(j=1.5))
    assert_build_refused(capsys, tmp_path, data, "bad-bracket-entry")


def test_cli_build_refuses_bool_string_constants_and_extra_entry_keys(capsys, tmp_path):
    for entry in ({"i": False}, {"c": "1.0"}, {"c": True}, {"extra": 0}):
        data = build_doc(nil=nil_with_entry(**entry))
        assert_build_refused(capsys, tmp_path, data, "bad-bracket-entry")
    assert_build_refused(capsys, tmp_path, build_doc(c=True), "bad-constant")
    assert_build_refused(capsys, tmp_path, build_doc(c="-1.5"), "bad-constant")


def test_cli_build_refuses_a_fractional_dim_k(capsys, tmp_path):
    red = dict(build_doc()["reductive"], dim_k=0.7)
    assert_build_refused(capsys, tmp_path, build_doc(reductive=red), "bad-dimension")


def test_cli_build_refuses_dim_k_above_the_reductive_dim(capsys, tmp_path):
    # dim_k = 3 of 1 would leave dim_h = -2: the input is malformed, not a failed check
    red = dict(build_doc()["reductive"], dim_k=3)
    assert_build_refused(capsys, tmp_path, build_doc(reductive=red), "bad-dimension")


def test_cli_build_refuses_a_negative_dim_k(capsys, tmp_path):
    red = dict(build_doc()["reductive"], dim_k=-1)
    assert_build_refused(capsys, tmp_path, build_doc(reductive=red), "bad-dimension")


def test_cli_build_refuses_a_name_that_is_not_a_string(capsys, tmp_path):
    assert_build_refused(capsys, tmp_path, build_doc(name=5), "bad-name")


def test_cli_build_refuses_unknown_keys(capsys, tmp_path):
    # a misspelt "ip" must not fall back to the identity metric
    nil = dict(build_doc()["nil"], ipp=np.eye(3).tolist())
    red = dict(build_doc()["reductive"], extra=0)
    for data in (build_doc(nil=nil), build_doc(reductive=red), build_doc(extra=0)):
        assert_build_refused(capsys, tmp_path, data, "unknown-keys")
    data = build_doc()
    del data["nil"]["d1"]
    assert_build_refused(capsys, tmp_path, data, "missing-keys")


def test_cli_build_refuses_arrays_of_the_wrong_shape(capsys, tmp_path):
    # d1, theta and both ips are refused by one rule, before anything is assembled
    theta = [np.diag([0.5, 0.5]).tolist()]
    assert_build_refused(capsys, tmp_path, build_doc(theta=theta), "bad-array")
    nil = dict(build_doc()["nil"], d1=np.eye(2).tolist())
    assert_build_refused(capsys, tmp_path, build_doc(nil=nil), "bad-array")
    nil = dict(build_doc()["nil"], ip=np.eye(2).tolist())
    assert_build_refused(capsys, tmp_path, build_doc(nil=nil), "bad-ip")
    red = dict(build_doc()["reductive"], ip=np.eye(2).tolist())
    assert_build_refused(capsys, tmp_path, build_doc(reductive=red), "bad-ip")
    nil = dict(build_doc()["nil"], d1=[["1", 0, 0], [0, 1, 0], [0, 0, 2]])
    assert_build_refused(capsys, tmp_path, build_doc(nil=nil), "bad-array")


def test_cli_refuses_a_bool_inside_a_numeric_array(capsys, tmp_path):
    # numpy reads true among numbers as 1 ([[true, 0], [0, 1]] is an integer array,
    # [1.5, true] a float one), so either would pass as the identity's entry
    identity_with_true = [[True, 0, 0], [0, 1, 0], [0, 0, 1]]
    with_true_and_floats = [[1.5, True, 0.0], [1.0, 1.5, 0.0], [0.0, 0.0, 1.0]]
    for ip in (identity_with_true, with_true_and_floats):
        f = tmp_path / "ip.json"
        f.write_text(json.dumps(doc_dict(ip=ip)))
        assert main(["fit", str(f)]) == 2
        assert "error [bad-ip] ip entries must be numbers" in capsys.readouterr().err
    d1 = [[1.0, 0.0, 0.0], [0.0, True, 0.0], [0.0, 0.0, 2.0]]
    assert_build_refused(capsys, tmp_path, build_doc(nil=dict(build_doc()["nil"], d1=d1)), "bad-array")
    theta = [[[0.5, 0, 0], [0, 0.5, 0], [0, 0, True]]]
    assert_build_refused(capsys, tmp_path, build_doc(theta=theta), "bad-array")
    nil = dict(build_doc()["nil"], ip=identity_with_true)
    assert_build_refused(capsys, tmp_path, build_doc(nil=nil), "bad-ip")


def test_document_numbers_out_of_float_range_or_not_numbers_are_refused():
    # an integer beyond int64 is a number; one beyond the float range is not finite
    assert document_from_dict(doc_dict(bracket=[{"i": 0, "j": 1, "k": 2, "c": 10**30}]))
    with pytest.raises(DocumentError, match="bad-bracket-entry"):
        document_from_dict(doc_dict(bracket=[{"i": 0, "j": 1, "k": 2, "c": 10**400}]))
    with pytest.raises(DocumentError, match="bad-ip"):
        document_from_dict(doc_dict(ip=[["1", 0, 0], [0, 1, 0], [0, 0, 1]]))


# verify-all summary -> the battery/stratify records it summarises
STRUCTURE_CONDITIONS = {
    "hh-inside-u",
    "reductive-part-ricci",
    "nilpotent-part-soliton",
    "adjoint-commutator-sum",
    "transposed-adjoints-derive",
    "ricci-reassembly",
    "reassembled-derivation",
}


def summary_group(command, record):
    if command == "stratify":
        return "bracket-pairing" if record == "bracket-pairing-nonnegative" else "stratum-properties"
    if record in STRUCTURE_CONDITIONS:
        return "battery"
    if record in ("f-operator-shape", "f-trace-identity"):
        return "f-operator"
    if record == "algebraic-equivalences-agree":
        return "equivalences-agree"
    return "stratum-compatibility"


def test_cli_verify_all_summaries_match_battery_and_stratify(capsys):
    _, out = run_cli(capsys, "verify-all", "--json")
    summaries = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    groups = {"battery", "f-operator", "equivalences-agree", "stratum-compatibility",
              "stratum-properties", "bracket-pairing"}
    compared = 0
    for name in sorted(catalog.names()):
        verdicts = defaultdict(list)
        for command in ("battery", "stratify"):
            _, out = run_cli(capsys, command, name, "--json")
            for record in json.loads(out)["checks"]:
                verdicts[summary_group(command, record["name"])].append(record["passed"])
        for group in groups:
            key = f"{name}:{group}"
            if key in summaries:
                assert verdicts[group], key
                assert summaries[key] == all(verdicts[group]), key
                compared += 1
    assert compared >= 40


# ---------------------------------------------------------------------------
# text output, the default of every command
# ---------------------------------------------------------------------------

def run_text(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_text_output_prints_a_pass_line_and_the_results(capsys):
    code, out, err = run_text(capsys, "fit", "heis3")
    assert code == 0 and not err
    passed, tag, c, residual = out.splitlines()
    assert passed.startswith("[pass] soliton-detected value=")
    assert (tag, c) == ("classification: AlgebraicSoliton", "c: -1.5")
    assert residual.startswith("residual: ")


def test_text_output_prints_a_fail_line(capsys):
    code, out, _ = run_text(capsys, "fit", "nil7")
    assert code == 1
    assert out.splitlines()[0].startswith("[FAIL] soliton-detected value=")
    assert "classification: NotDetected" in out.splitlines()


def test_text_output_prints_a_skipped_check(capsys):
    code, out, _ = run_text(capsys, "battery", "hyp3")
    assert code == 0
    assert "[skip] stratum-compatibility (nilpotent part is abelian or empty)" in out.splitlines()


def test_text_output_prints_an_error_line(capsys):
    code, out, err = run_text(capsys, "stratify", "abelian3")
    assert code == 2 and not err
    assert out == "error [no-stratum] nilpotent part is abelian or empty; no label\n"


def test_text_output_prints_the_extended_document(capsys):
    code, out, _ = run_text(capsys, "extend", "--variant", "unimodular", "heis3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:3] == ["classification: Einstein", "c: -1.5"]
    doc = json.loads("\n".join(lines[lines.index("{"):]))
    assert (doc["name"], doc["dim"]) == ("heis3-unimodular", 4)


def test_text_output_prints_the_catalog_table(capsys):
    code, out, _ = run_text(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == catalog.names()
    assert lines[catalog.names().index("cplxhyp2")] == (
        "cplxhyp2     dim  4 (0,1,3)    Einstein extension of heis3 (complex hyperbolic plane)"
    )


def test_text_output_prints_the_ricci_eigenvalues(capsys):
    code, out, _ = run_text(capsys, "ricci", "solv12")
    assert code == 0
    assert out.splitlines() == ["[pass] ricci-symmetric value=0.000e+00", "eigenvalues: [-6. -5. -3.]"]


def test_quiet_prints_failures_only_on_stderr(capsys):
    assert run_text(capsys, "fit", "heis3", "--quiet") == (0, "", "")
    assert run_text(capsys, "fit", "nil7", "--quiet") == (1, "", "FAIL soliton-detected\n")
    code, out, err = run_text(capsys, "stratify", "abelian3", "--quiet")
    assert (code, out) == (2, "")
    assert err == "error [no-stratum] nilpotent part is abelian or empty; no label\n"


# ---------------------------------------------------------------------------
# verdicts that must not depend on the bracket's scale or on the command
# ---------------------------------------------------------------------------

def scaled_catalog_document(name, scale):
    raw = document_from_catalog(catalog.get(name)).to_json_dict()
    for entry in raw["bracket"]:
        entry["c"] *= scale
    return raw


@pytest.mark.parametrize(
    "name", ["nil7", "heis3", "fil4", "solv12", "cplxhyp2", "hyp3", "so3", "abelian3"]
)
def test_cli_fit_tag_and_exit_code_are_scale_invariant(capsys, tmp_path, name):
    code, out = run_cli(capsys, "fit", name, "--json")
    want = (json.loads(out)["classification"], code)
    path = tmp_path / f"{name}.json"
    for scale in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
        path.write_text(json.dumps(scaled_catalog_document(name, scale)))
        code, out = run_cli(capsys, "fit", str(path), "--json")
        assert (json.loads(out)["classification"], code) == want, scale
    # a rescaled inner product describes the same geometry up to scale, and gets the same tag
    for s in (1e-10, 1e10):
        raw = document_from_catalog(catalog.get(name)).to_json_dict()
        raw["ip"] = (s * np.eye(raw["dim"] - raw["dim_k"])).tolist()
        path.write_text(json.dumps(raw))
        code, out = run_cli(capsys, "fit", str(path), "--json")
        assert (json.loads(out)["classification"], code) == want, ("ip", s)


# 2-step nilpotent algebra whose label misses nice position by a relative
# gap of 7e-3: nice at --tol 1e-2, not nice at 1e-3 or the default.  Not a
# nilsoliton, so stratify exits 1 at each of them
NEAR_NICE = doc_dict(
    name="near-nice",
    dim=9,
    dim_n=9,
    bracket=[
        {"i": i, "j": j, "k": k, "c": 1.0}
        for i, j, k in (
            (0, 1, 8), (0, 2, 8), (0, 3, 6), (0, 4, 6), (0, 4, 8), (1, 2, 5),
            (1, 4, 7), (1, 4, 8), (2, 3, 6), (2, 3, 8), (2, 4, 7),
        )
    ],
)


@pytest.mark.parametrize("tol", [None, "1e-3", "1e-2"])
def test_cli_label_checks_run_whether_or_not_the_basis_is_nice(capsys, tmp_path, tol):
    # nice position only reports: NEAR_NICE (nice at 1e-2 alone) and heis3 with its centre
    # first (never nice) get the label comparison and every label check at each tol
    path = tmp_path / "near-nice.json"
    path.write_text(json.dumps(NEAR_NICE))
    centre_first = tmp_path / "heis3-centre-first.json"
    centre_first.write_text(json.dumps(doc_dict(bracket=[{"i": 1, "j": 2, "k": 0, "c": 1.0}])))
    argv = ["--json"] + (["--tol", tol] if tol else [])
    for target in (path, centre_first):
        code, out = run_cli(capsys, "stratify", str(target), *argv)
        if target == path:
            assert code == 1
        records = json.loads(out)["checks"]
        _, out = run_cli(capsys, "battery", str(target), *argv)
        records += json.loads(out)["checks"]
        shape = next(r for r in records if r["name"] == "f-operator-shape")
        assert shape["info"]["branch"] == "nilpotent-part", target
        assert not any("nice" in r.get("info", {}).get("skipped", "") for r in records), target


def _permuted_twin_verdicts(capsys, path: Path) -> tuple[list, dict]:
    """Exit code, tag and (name, verdict) of each record of fit, battery and stratify, plus the numbers."""
    verdicts, numbers = [], {}
    for command in ("fit", "battery", "stratify"):
        code, out = run_cli(capsys, command, str(path), "--json")
        rep = json.loads(out)
        verdicts.append((command, code, rep["classification"], [(r["name"], r["passed"]) for r in rep["checks"]]))
        for key in ("c", "beta_norm_sq", "beta"):  # beta is the sorted label
            if key in rep["results"]:
                numbers[command, key] = np.asarray(rep["results"][key], dtype=float)
    return verdicts, numbers


def test_cli_reports_do_not_depend_on_the_order_of_the_n_basis(capsys, tmp_path):
    # every catalog and ladder document with dim n >= 2, against a twin whose n-block is
    # relabelled by a random permutation: same exit codes, tags, checks and verdicts
    from test_compare_reports import compare_reports

    rng = np.random.default_rng(5)
    docs = [document_from_catalog(catalog.get(name)).to_json_dict() for name in sorted(catalog.names())]
    docs += compare_reports.ladder_documents()
    docs = [raw for raw in docs if raw["dim_n"] >= 2]
    assert len(docs) == 48
    for raw in docs:
        perm = rng.permutation(raw["dim_n"])
        while (perm == np.arange(raw["dim_n"])).all():
            perm = rng.permutation(raw["dim_n"])
        twin = compare_reports.permuted_n_document(raw, perm, f"{raw['name']}-twin")
        results = []
        for doc in (raw, twin):
            path = tmp_path / f"{doc['name']}.json"
            path.write_text(json.dumps(doc))
            results.append(_permuted_twin_verdicts(capsys, path))
        (want, want_numbers), (got, got_numbers) = results
        assert got == want, (raw["name"], perm)
        assert got_numbers.keys() == want_numbers.keys(), raw["name"]
        for key, value in want_numbers.items():
            gap = np.max(np.abs(got_numbers[key] - value))
            assert gap <= 1e-12 * max(1.0, np.max(np.abs(value))), (raw["name"], key)


def test_cli_soliton_detected_record_prints_the_applied_bound(capsys, tmp_path):
    path = tmp_path / "scaled.json"
    for name in sorted(catalog.names()):
        for scale in (1e-4, 1.0, 1e4):
            path.write_text(json.dumps(scaled_catalog_document(name, scale)))
            _, out = run_cli(capsys, "fit", str(path), "--json")
            rec = next(r for r in json.loads(out)["checks"] if r["name"] == "soliton-detected")
            if rec["passed"]:
                assert rec["value"] <= rec["tolerance"], (name, scale)
            if (name, scale) == ("nil7", 1e-4):
                assert not rec["passed"] and rec["value"] > rec["tolerance"]


def verdicts(capsys, command, target):
    """Exit code, tag and (name, passed) of every record of one --json run."""
    code, out = run_cli(capsys, command, target, "--json")
    rep = json.loads(out)
    return code, rep["classification"], [(r["name"], r["passed"]) for r in rep["checks"]]


def extend_verdicts(capsys, variant, target):
    """Exit code, tag, failing records and error codes of one ``extend --variant --json`` run."""
    code, out = run_cli(capsys, "extend", target, "--variant", variant, "--json")
    rep = json.loads(out)
    failing = sorted(r["name"] for r in rep["checks"] if not r["passed"])
    return code, rep["classification"], failing, [e["code"] for e in rep["errors"]]


@pytest.mark.parametrize("name", sorted(catalog.names()))
def test_cli_verdicts_are_scale_invariant(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    for command in ("fit", "battery", "stratify"):
        want = verdicts(capsys, command, name)
        for scale in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e4, 1e6, 1e10, 1e20):
            path.write_text(json.dumps(scaled_catalog_document(name, scale)))
            assert verdicts(capsys, command, str(path)) == want, (command, scale)
    for variant in ("nonunimodular", "restrict", "unimodular"):
        want = extend_verdicts(capsys, variant, name)
        for scale in (1e-14, 1e-10, 1e-8, 1e-6, 1e-4, 1e4, 1e8, 1e12):
            path.write_text(json.dumps(scaled_catalog_document(name, scale)))
            assert extend_verdicts(capsys, variant, str(path)) == want, (variant, scale)


def test_cli_heis3_near_the_input_bound_without_overflow(capsys, tmp_path):
    # degree-3 and degree-4 residuals square past the float range from c = 1e60
    path = tmp_path / "heis3.json"
    want = {command: verdicts(capsys, command, "heis3")[:2] for command in ("fit", "battery", "stratify")}
    for c in (1e45, 1e50, 1e52, 1e55, 1e60, 1e65, 1e70, 1e76):
        path.write_text(json.dumps(doc_dict(bracket=[{"i": 0, "j": 1, "k": 2, "c": c}])))
        for command, expected in want.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert verdicts(capsys, command, str(path))[:2] == expected, (command, c)


def test_cli_stratify_fil4_at_large_scales_exits_as_at_unit_scale(capsys, tmp_path):
    # the pairing with the shifted label once went through a skew-symmetry test that failed here
    path = tmp_path / "fil4.json"
    want = run_cli(capsys, "stratify", "fil4", "--json")[0]
    for scale in (1e20, 1e45, 1e76):
        path.write_text(json.dumps(scaled_catalog_document("fil4", scale)))
        assert run_cli(capsys, "stratify", str(path), "--json")[0] == want, scale


def test_cli_fit_exits_1_exactly_when_no_soliton_is_detected(capsys, tmp_path):
    # at 1e-10 the fitted D of nil7 is no derivation while its residual is within bound
    path = tmp_path / "scaled.json"
    for name in ("heis3", "fil4", "nil7"):
        for scale in (1e-10, 1e-8, 1.0):
            path.write_text(json.dumps(scaled_catalog_document(name, scale)))
            code, out = run_cli(capsys, "fit", str(path), "--json")
            assert code == (json.loads(out)["classification"] == "NotDetected"), (name, scale)


def test_cli_every_record_passes_exactly_when_its_value_is_within_its_tolerance(capsys, tmp_path):
    commands = [["fit"], ["battery"], ["stratify"], ["ricci"]]
    commands += [["extend", "--variant", v] for v in ("nonunimodular", "restrict", "unimodular")]
    reports = [json.loads(run_cli(capsys, "verify-all", "--json")[1])]
    path = tmp_path / "scaled.json"
    for name in sorted(catalog.names()):
        for scale in (1e-6, 1.0, 1e6):
            path.write_text(json.dumps(scaled_catalog_document(name, scale)))
            for command in commands:
                reports.append(json.loads(run_cli(capsys, command[0], str(path), *command[1:], "--json")[1]))
    bounded = 0
    for rep in reports:
        for rec in rep["checks"]:
            if "value" in rec and "tolerance" in rec:
                assert rec["passed"] == (rec["value"] <= rec["tolerance"]), (rep["input"], rec)
                bounded += 1
    assert bounded >= 800


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_cli_reused_parser_prints_what_a_fresh_parser_prints(capsys, tmp_path, monkeypatch):
    import argparse

    from homsol import cli

    monkeypatch.delenv("HOMSOL_TOL", raising=False)
    out_file = tmp_path / "restricted.json"
    calls = [
        ["extend", "solv12", "--variant=restrict", "--json", "--out", str(out_file)],
        ["fit", "solv12", "--json"],
        ["extend", "solv12", "--variant=restrict", "--json"],
        ["fit", "heis3", "--json", "--tol", "1e-3"],
        ["fit", "heis3", "--json"],
        ["extend", "heis3", "--json"],  # --variant is required
        ["stratify", "fil4", "--json"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        written = out_file.read_text() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))

    constructed = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        constructed.append(self)
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    run(["catalog", "--json"])
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    reused = [run(argv) for argv in calls]
    assert constructed == []
    assert reused == fresh
    assert fresh[0][3] is not None and fresh[1][3] is None and fresh[2][3] is None
    assert json.loads(fresh[3][1])["config"]["tolerance"] == 1e-3
    assert json.loads(fresh[4][1])["config"]["tolerance"] == 1e-9
    assert fresh[5][0] == ("exit", 2)
    assert fresh[6][0] == 0


def test_cli_runs_the_command_body_the_module_holds_when_called(capsys, monkeypatch):
    # a wrapper put on homsol.cli.run_<command> after import is the body main runs,
    # and the report it prints is the unwrapped one's
    from homsol import cli

    main(["fit", "heis3", "--json"])
    plain = capsys.readouterr().out
    seen = []
    body = cli.run_fit

    def wrapped(report, dec, *args):
        seen.append(report.input_name)
        return body(report, dec, *args)

    monkeypatch.setattr(cli, "run_fit", wrapped)
    assert main(["fit", "heis3", "--json"]) == 0
    assert seen == ["heis3"]
    assert capsys.readouterr().out == plain


def test_cli_fit_and_battery_pass_when_the_nilpotent_part_is_abelian_up_to_tol(capsys, tmp_path):
    # cplxhyp2 with [e1, e2] = 1e-12 e3: fit and battery treat n alike, as abelian
    raw = document_from_catalog(catalog.get("cplxhyp2")).to_json_dict()
    for e in raw["bracket"]:
        if (e["i"], e["j"]) == (1, 2):
            e["c"] = 1e-12
    path = tmp_path / "cplxhyp2-tiny.json"
    path.write_text(json.dumps(raw))
    code, out = run_cli(capsys, "fit", str(path), "--json")
    assert code == 0
    assert json.loads(out)["classification"] == "AlgebraicSoliton"
    code, out = run_cli(capsys, "battery", str(path), "--json")
    assert code == 0, [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]


_NO_MASKED_ARRAYS = """
import contextlib, io, json, sys
from homsol.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for target in sys.argv[1:] + ["heis3", "cplxhyp2", "solv12"]:
        for command in ("fit", "battery", "stratify"):
            main([command, target, "--json"])
    main(["verify-all", "--json"])
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"])))
"""


def test_document_commands_do_not_import_numpy_ma(tmp_path):
    # numpy.ma loads on the first np.unique (and some other set routines) and costs set-up
    # time in every process: fit, battery, stratify and verify-all run without it, also on
    # brackets large enough for the block solvers
    paths = []
    for entry in (catalog.heis(5), catalog.ext(5), catalog.heis(8), catalog.ext(8)):
        path = tmp_path / f"{entry.name}.json"
        path.write_text(document_from_catalog(entry).dumps())
        paths.append(str(path))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS, *paths],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []


# ---------------------------------------------------------------------------
# the largest dimension, empty blocks, and one reading of every listing of a bracket
# ---------------------------------------------------------------------------

@pytest.fixture
def max_dim_4(monkeypatch):
    """tensor.MAX_DIM lowered to 4, so a refusal is tested without allocating a large array."""
    from homsol import tensor

    assert tensor.MAX_DIM == 48
    monkeypatch.setattr(tensor, "MAX_DIM", 4)


@pytest.mark.usefixtures("max_dim_4")
def test_cli_refuses_a_document_above_max_dim(capsys, tmp_path):
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc_dict(dim=5, dim_n=5, bracket=[])))
    assert main(["fit", str(f)]) == 2
    assert "error [bad-dimension] dim must be at most 4" in capsys.readouterr().err
    f.write_text(json.dumps(doc_dict(dim=4, dim_n=4, bracket=[])))
    assert main(["fit", str(f), "--json"]) == 0
    capsys.readouterr()


@pytest.mark.usefixtures("max_dim_4")
def test_cli_build_refuses_a_construction_above_max_dim(capsys, tmp_path):
    # heis3 with a 2-dimensional u assembles in dimension 5
    red = {"dim": 2, "dim_k": 0, "bracket": []}
    theta = [np.diag([0.5, 0.5, 1.0]).tolist()] * 2
    assert_build_refused(capsys, tmp_path, build_doc(reductive=red, theta=theta), "bad-dimension")
    code, rep = run_build(capsys, tmp_path, build_doc())  # dimension 4 builds
    assert code == 0 and rep["classification"] == "Einstein"


@pytest.mark.usefixtures("max_dim_4")
def test_tensors_above_max_dim_are_refused():
    from homsol.tensor import AlgebraTensor

    with pytest.raises(ValueError, match="MAX_DIM"):
        AlgebraTensor(5)
    with pytest.raises(ValueError, match="MAX_DIM"):
        AlgebraTensor.from_dense(np.zeros((5, 5, 5)))
    assert AlgebraTensor.from_dense(np.zeros((4, 4, 4))) == AlgebraTensor(4)


def test_cli_extend_past_max_dim_exits_2(capsys, monkeypatch):
    # the unimodular extension of heis3 has dimension 4: with MAX_DIM = 3 it is refused,
    # where it would otherwise print a document no command can read
    from homsol import tensor

    monkeypatch.setattr(tensor, "MAX_DIM", 3)
    code, out = run_cli(capsys, "extend", "heis3", "--variant", "unimodular", "--json")
    assert code == 2
    errors = json.loads(out)["errors"]
    assert [e["code"] for e in errors] == ["extend-failed"]
    assert "MAX_DIM" in errors[0]["detail"]


# u = R with n = 0, and u = 0 with n = heis3: the arrays of a zero-extent shape are empty
EMPTY_N = {
    "name": "line",
    "c": 0.0,
    "nil": {"dim": 0, "d1": []},
    "reductive": {"dim": 1, "dim_k": 0, "bracket": []},
    "theta": [[]],
}
EMPTY_U = {
    "name": "heis3-alone",
    "c": -1.5,
    "nil": {
        "dim": 3,
        "bracket": [{"i": 0, "j": 1, "k": 2, "c": 1.0}],
        "d1": np.diag([1.0, 1.0, 2.0]).tolist(),
    },
    "reductive": {"dim": 0},
    "theta": [],
}


def test_cli_builds_a_construction_with_an_empty_block(capsys, tmp_path):
    cases = ((EMPTY_N, "Einstein", 0.0, (1, 1, 0)), (EMPTY_U, "AlgebraicSoliton", -1.5, (3, 0, 3)))
    for data, tag, c, dims in cases:
        code, rep = run_build(capsys, tmp_path, data)
        assert code == 0, data["name"]
        assert rep["classification"] == tag, data["name"]
        assert rep["results"]["c"] == pytest.approx(c, abs=1e-12), data["name"]
        doc = rep["results"]["document"]
        assert (doc["dim"], doc["dim_h"], doc["dim_n"]) == dims, data["name"]
        # the printed document is read back and fitted with the same tag
        f = tmp_path / "built.json"
        f.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "fit", str(f), "--json")
        assert code == 0 and json.loads(out)["classification"] == tag, data["name"]
    # no p at all: u = k alone, and g = 0; the built document has no ip to print
    for red in ({"dim": 1, "dim_k": 1}, {"dim": 0}):
        data = dict(EMPTY_N, reductive=red, theta=[[]] * red["dim"])
        code, rep = run_build(capsys, tmp_path, data)
        assert code == 0 and rep["classification"] == "Einstein", red
        assert "ip" not in rep["results"]["document"], red


def test_cli_build_refuses_a_non_empty_array_for_an_empty_block(capsys, tmp_path):
    nil = {"dim": 0, "d1": [[1.0]]}
    assert_build_refused(capsys, tmp_path, dict(EMPTY_N, nil=nil), "bad-array")
    assert_build_refused(capsys, tmp_path, dict(EMPTY_N, theta=[[1.0]]), "bad-array")
    assert_build_refused(capsys, tmp_path, dict(EMPTY_U, theta=[[[0.5, 0.0, 0.0]]]), "bad-array")


def _listings():
    """(catalog name, another listing of its bracket): shuffled, a constant split, zeros inserted."""

    @st.composite
    def listing(draw):
        name = draw(st.sampled_from(sorted(catalog.names())))
        raw = document_from_catalog(catalog.get(name)).to_json_dict()
        entries = [dict(e) for e in raw["bracket"]]
        if entries:
            pos = draw(st.integers(0, len(entries) - 1))
            part = entries[pos]["c"] * draw(st.sampled_from([0.5, 0.25, 0.125]))
            rest = dict(entries[pos], c=entries[pos]["c"] - part)
            assert part + rest["c"] == entries[pos]["c"]  # dyadic parts of a catalog constant
            entries[pos]["c"] = part
            entries.append(rest)
        dim = raw["dim"]
        for _ in range(draw(st.integers(0 if entries else 1, 3))):
            i = draw(st.integers(0, dim - 2))
            j = draw(st.integers(i + 1, dim - 1))
            entries.append({"i": i, "j": j, "k": draw(st.integers(0, dim - 1)), "c": 0.0})
        order = draw(st.permutations(range(len(entries))))
        return name, dict(raw, bracket=[entries[p] for p in order])

    return listing()


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_listings())
def test_every_listing_of_a_bracket_reads_as_one_document(case):
    import contextlib
    import io
    import tempfile

    name, raw = case
    canonical = document_from_catalog(catalog.get(name))
    doc = document_from_dict(raw)
    assert doc.bracket == canonical.bracket
    assert doc.bracket.entries == canonical.bracket.entries
    assert doc.content_hash() == canonical.content_hash()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "canonical.json", Path(tmp) / "listing.json"]
        paths[0].write_text(json.dumps(canonical.to_json_dict()))
        paths[1].write_text(json.dumps(raw))
        for command in ("fit", "battery", "stratify"):
            texts = []
            for path in paths:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main([command, str(path), "--json"])
                texts.append((code, out.getvalue()))
            assert texts[0] == texts[1], (name, command)


# ---------------------------------------------------------------------------
# the document memo: each text is parsed, read and hashed once per process
# ---------------------------------------------------------------------------

IP_DIAG = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def test_one_text_at_two_paths_is_read_once(capsys, tmp_path, monkeypatch):
    from homsol import io as hio

    reads = []
    read = hio.document_from_dict

    def counted(raw):
        reads.append(raw["name"])
        return read(raw)

    monkeypatch.setattr(hio, "document_from_dict", counted)
    text = json.dumps(doc_dict(ip=IP_DIAG))
    paths = [tmp_path / "one.json", tmp_path / "copy" / "two.json"]
    paths[1].parent.mkdir()
    for path in paths:
        path.write_text(text)
    for command in ("fit", "battery", "stratify"):
        outs = [run_cli(capsys, command, str(path), "--json") for path in paths]
        assert outs[0] == outs[1], command
        assert outs[0][0] == 0, command
    assert reads == ["heis3"]


def test_a_rewritten_file_is_read_again(capsys, tmp_path):
    from homsol import io as hio

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc_dict()))
    code, out = run_cli(capsys, "fit", str(path), "--json")
    assert (code, json.loads(out)["input"]["name"]) == (0, "heis3")
    argv = ["extend", "heis3", "--variant", "unimodular", "--out", str(path), "--json"]
    assert run_cli(capsys, *argv)[0] == 0
    served = run_cli(capsys, "fit", str(path), "--json")
    assert json.loads(served[1])["input"]["name"] == "heis3-unimodular"
    hio._document.cache_clear()
    assert run_cli(capsys, "fit", str(path), "--json") == served


def test_a_malformed_text_names_each_path_it_is_read_from(capsys, tmp_path):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        path.write_text('{"name": ')
    for path in paths + paths:
        assert main(["fit", str(path)]) == 2, path
        assert f"error [parse-error] {path}: " in capsys.readouterr().err, path


def test_a_loaded_document_is_frozen_with_a_read_only_ip(tmp_path):
    import dataclasses

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc_dict(ip=IP_DIAG)))
    doc = load(str(path))
    assert load(str(path)) is doc
    assert not doc.ip.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        doc.ip[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.name = "other"
    assert doc.content_hash() == document_from_dict(doc_dict(ip=IP_DIAG)).content_hash()


# ---------------------------------------------------------------------------
# a reader that closes standard output early
# ---------------------------------------------------------------------------

def test_a_closed_pipe_ends_without_a_traceback(tmp_path):
    root = Path(__file__).resolve().parents[1]
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({f"r{i}": {"exit": 0, "report": {"x": 1.0}} for i in range(50)}))
    new.write_text(json.dumps({f"r{i}": {"exit": 0, "report": {"x": 2.0}} for i in range(50)}))
    env = dict(os.environ, PYTHONPATH=str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv in (
        ["-m", "homsol.cli", "verify-all", "--json"],
        [str(root / "tools" / "compare_reports.py"), "compare", str(old), str(new)],
    ):
        proc = subprocess.Popen(
            [sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        proc.stdout.close()  # before the command writes anything
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 141, argv
        assert "Traceback" not in err and not err, (argv, err)
