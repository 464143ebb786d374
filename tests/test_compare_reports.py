import importlib.util
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from homsol import catalog
from homsol.io import document_from_catalog, document_from_dict, validate

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


def test_ladder_agrees_with_the_benchmarks_copy(monkeypatch):
    # bench/workloads.py writes the ladder out without homsol, on purpose; the two agree
    # entry for entry, in one order.  It is imported for reading: no bytecode is written.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(_PATH.parents[1] / "bench"))  # for its `from oracle import`
    workloads = importlib.import_module("workloads")
    got = [(e.dim_k, e.dim_h, e.dim_n, list(e.entries)) for e in catalog.ladder()]
    assert len(got) == 33
    assert got == [workloads.ladder_shape(f, s) for f, s in workloads.LADDER]


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


def scaled_construction(doc: dict, s: float) -> dict:
    """The construction of a bracket rescaled by s: brackets and theta by s, c and D1 by s^2."""
    out = json.loads(json.dumps(doc))
    for part in (out["nil"], out["reductive"]):
        for entry in part["bracket"]:
            entry["c"] *= s
    out["theta"] = (s * np.array(out["theta"])).tolist()
    out["nil"]["d1"] = (s * s * np.array(out["nil"]["d1"])).tolist()
    out["c"] *= s * s
    return out


def test_construction_documents_build(tmp_path, capsys):
    from homsol.cli import main

    for doc in compare_reports.construction_documents():
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        assert main(["build", str(path), "--json"]) == 0, doc["name"]
        want = json.loads(capsys.readouterr().out)["classification"]
        # the same geometry at another scale builds with the same tag
        for s in (1e-10, 1e-4, 1e4, 1e12, 1e20):
            path.write_text(json.dumps(scaled_construction(doc, s)))
            assert main(["build", str(path), "--json"]) == 0, (doc["name"], s)
            assert json.loads(capsys.readouterr().out)["classification"] == want, (doc["name"], s)


def test_refused_construction_document_exits_1_at_every_scale(tmp_path, capsys):
    from homsol.cli import main

    doc = compare_reports.refused_construction_document()
    path = tmp_path / "refused.json"
    for s in (1.0, 1e-10, 1e-4, 1e4, 1e12, 1e20):
        path.write_text(json.dumps(scaled_construction(doc, s)))
        assert main(["build", str(path), "--json"]) == 1, s
        report = json.loads(capsys.readouterr().out)
        assert not report["errors"], s
        checks = [(c["name"], c["passed"]) for c in report["checks"]]
        assert checks == [("c3-reductive-ricci", False)], s


def test_empty_block_construction_documents_build(tmp_path, capsys):
    from homsol.cli import main

    tags = {}
    for doc in compare_reports.empty_block_construction_documents():
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        assert main(["build", str(path), "--json"]) == 0, doc["name"]
        tags[doc["name"]] = json.loads(capsys.readouterr().out)["classification"]
    assert tags == {"line-parts": "Einstein", "heis3-parts": "AlgebraicSoliton"}


def test_twin_document_is_its_catalog_entry_listed_otherwise():
    twin = compare_reports.twin_document()
    doc = document_from_catalog(catalog.get("cplxhyp2"))
    assert twin["bracket"] != doc.to_json_dict()["bracket"]
    read = document_from_dict(twin)
    assert read.bracket == doc.bracket
    listed_canonically = {**twin, "bracket": doc.to_json_dict()["bracket"]}
    assert read.content_hash() == document_from_dict(listed_canonically).content_hash()


def test_permuted_n_document_relabels_bracket_and_metric_together(tmp_path, capsys):
    from homsol.cli import main

    raw = document_from_catalog(catalog.get("cplxhyp2")).to_json_dict()
    raw.pop("meta")
    # a metric that couples two n vectors, so a wrongly permuted ip shows up
    raw["ip"] = [[4.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 2.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    twin = compare_reports.permuted_n_document(raw, (2, 0, 1), "twin")  # p-vectors 1, 2, 3 -> 3, 1, 2
    assert twin["ip"][1][1] == 2.0 and twin["ip"][1][3] == twin["ip"][3][1] == 1.0
    assert compare_reports.permuted_n_document(twin, (1, 2, 0), raw["name"]) == raw
    reports = []
    for doc in (raw, twin):
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        main(["fit", str(path), "--json"])
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[1]["classification"] == reports[0]["classification"]
    assert reports[1]["results"]["c"] == pytest.approx(reports[0]["results"]["c"], rel=1e-12)


def test_identity_ip_documents_report_what_their_catalog_entries_report(tmp_path, capsys):
    from homsol.cli import main

    docs = compare_reports.identity_ip_documents()
    assert [doc["name"] for doc in docs] == ["solv12-identity-ip", "cplxhyp2-identity-ip"]
    for doc in docs:
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        base = doc["name"].removesuffix("-identity-ip")
        for command in compare_reports.COMMANDS:
            reports = []
            for target in (str(path), base):
                code = main([command, target, "--json"])
                report = json.loads(capsys.readouterr().out)
                reports.append((code, {k: v for k, v in report.items() if k != "input"}))
            assert reports[0] == reports[1], (doc["name"], command)


def test_scaled_catalog_documents_are_valid():
    docs = compare_reports.scaled_catalog_documents()
    assert len(docs) == len(compare_reports.SCALES) * len(catalog.names())
    for raw in docs:
        dec, violations = validate(document_from_dict(raw))
        assert dec is not None and not violations, raw["name"]


def test_each_command_computes_der_n_and_the_label_at_most_once(tmp_path, capsys, monkeypatch):
    import sys

    from homsol import strata, tensor
    from homsol.cli import main

    calls = Counter()
    for key, fn in (("der", tensor.derivation_algebra), ("label", strata.stratum_label)):

        def counted(*args, _key=key, _fn=fn, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "homsol" or name.startswith("homsol."):
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    monkeypatch.setattr(mod, attr, counted)

    targets = sorted(catalog.names())
    families = set()
    for doc in compare_reports.ladder_documents():
        family = doc["name"].split("-")[0]
        if family not in families:
            families.add(family)
            path = tmp_path / f"{doc['name']}.json"
            path.write_text(json.dumps(doc))
            targets.append(str(path))
    assert families == {"heis", "ext", "fil", "unit"}
    seen = Counter()
    for target in targets:
        for command in ("fit", "battery", "stratify"):
            calls.clear()
            main([command, target, "--json"])
            assert calls["der"] <= 1, (command, target)
            if command == "battery":
                assert calls["label"] <= 1, target
            seen.update(calls)
    assert seen["der"] and seen["label"]  # the counters saw the calls

    # verify-all: the battery and the label checks of one entry share its label and Der(n)
    from homsol import cli, decomposition

    verify_one = cli._verify_one
    per_entry = {}

    def counted_entry(name, tol):
        # entries share n-parts through the memo; each entry is counted as if it ran first
        decomposition._validated.cache_clear()
        calls.clear()
        out = verify_one(name, tol)
        per_entry[name] = dict(calls)
        return out

    monkeypatch.setattr(cli, "_verify_one", counted_entry)
    main(["verify-all", "--json"])
    assert sorted(per_entry) == sorted(catalog.names())
    for name, counts in per_entry.items():
        assert counts.get("der", 0) <= 1 and counts.get("label", 0) <= 1, (name, counts)
    assert sum(c.get("label", 0) for c in per_entry.values()) >= 5
    capsys.readouterr()


@pytest.mark.usefixtures("cold_commands")
def test_each_command_builds_the_n_block_tensor_at_most_once(tmp_path, capsys, monkeypatch):
    from homsol.cli import main
    from homsol.tensor import AlgebraTensor

    targets = [(name, document_from_catalog(catalog.get(name))) for name in sorted(catalog.names())]
    families = set()
    for raw in compare_reports.ladder_documents():
        family = raw["name"].split("-")[0]
        if family not in families:
            families.add(family)
            path = tmp_path / f"{raw['name']}.json"
            path.write_text(json.dumps(raw))
            targets.append((str(path), document_from_dict(raw)))
    assert families == {"heis", "ext", "fil", "unit"}

    n_block = np.zeros(0)
    builds = Counter()
    from_dense = AlgebraTensor.from_dense.__func__
    block = AlgebraTensor.block

    def count(out):
        # a zero n-block cannot be told from other zero tensors, so only nonzero ones count
        if np.any(n_block) and out.dense.shape == n_block.shape and np.array_equal(out.dense, n_block):
            builds["n"] += 1
        return out

    # a tensor is built from a dense array, or as a block of another from its entries
    monkeypatch.setattr(
        AlgebraTensor, "from_dense", classmethod(lambda cls, *a, **k: count(from_dense(cls, *a, **k)))
    )
    monkeypatch.setattr(AlgebraTensor, "block", lambda self, s: count(block(self, s)))
    seen = Counter()
    for target, doc in targets:
        dec, _ = validate(doc)
        mu = dec.n_bracket
        assert dec.n_bracket is mu, target
        n_block = dec.bracket_on.dense[dec.sn, dec.sn, dec.sn]
        for command in ("fit", "battery", "stratify"):
            builds.clear()
            main([command, target, "--json"])
            assert builds["n"] <= 1, (command, target)
            seen.update(builds)
    assert seen["n"]  # the counter saw the builds
    capsys.readouterr()


def test_a_round_trip_runs_the_n_block_series_once_per_distinct_n_block(tmp_path, capsys, monkeypatch):
    # build, the three extend variants and the refit of each document they print make
    # several algebras with one n-block: its lower central series is computed once
    from homsol import decomposition, tensor
    from homsol.cli import main

    memo = tensor._lower_central_length
    asked = []

    def spy(mu, tol):
        asked.append((mu, tol))
        return memo(mu, tol)

    monkeypatch.setattr(decomposition, "_lower_central_length", spy)
    for raw in compare_reports.construction_documents():
        name = raw["name"]
        parts = tmp_path / f"{name}.json"
        parts.write_text(json.dumps(raw))
        built = tmp_path / f"{name}-built.json"
        capsys.readouterr()
        assert main(["build", str(parts), "--json"]) == 0, name
        built.write_text(json.dumps(json.loads(capsys.readouterr().out)["results"]["document"]))
        main(["fit", str(built), "--json"])
        targets = [("nonunimodular", built), ("restrict", built)]
        if raw["nil"]["bracket"]:  # a flat n has D = 0: nothing to extend by
            nil, dim_n = tmp_path / f"{name}-nil.json", raw["nil"]["dim"]
            dims = {"dim": dim_n, "dim_k": 0, "dim_h": 0, "dim_n": dim_n}
            nil.write_text(json.dumps({"name": nil.stem, **dims, "bracket": raw["nil"]["bracket"]}))
            targets.append(("unimodular", nil))
        for variant, target in targets:
            out = tmp_path / f"{name}-{variant}.json"
            assert main(["extend", f"--variant={variant}", str(target), "--out", str(out), "--json"]) == 0
            main(["fit", str(out), "--json"])
    assert memo.cache_info().misses == len(set(asked))
    assert len(asked) >= 2 * len(set(asked)), (len(asked), len(set(asked)))


def count_calls(monkeypatch, fns) -> Counter:
    """Counter of calls to each of ``fns`` (name -> function), wherever a homsol module binds it."""
    import sys

    calls = Counter()
    for key, fn in fns.items():

        def counted(*args, _key=key, _fn=fn, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "homsol" or name.startswith("homsol."):
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_a_build_with_inner_products_factorizes_the_metric_on_p_once(tmp_path, capsys, monkeypatch):
    # decompose writes g in the frame of diag(ip_h, ip_n), once; the builder moves only D1
    # into the frame of ip_n, once for validate_construction and build_semidirect together
    from homsol import decomposition
    from homsol.cli import main

    calls = count_calls(monkeypatch, {"frame": decomposition.orthonormal_frame})
    raw = compare_reports.construction_documents()[3]
    assert raw["nil"].get("ip") and raw["reductive"].get("ip"), raw["name"]
    path = tmp_path / f"{raw['name']}.json"
    path.write_text(json.dumps(raw))
    assert main(["build", str(path), "--json"]) == 0
    capsys.readouterr()
    assert calls["frame"] == 2


def one_document_per_ladder_family(tmp_path) -> list[str]:
    paths, families = [], set()
    for raw in compare_reports.ladder_documents():
        family = raw["name"].split("-")[0]
        if family not in families:
            families.add(family)
            path = tmp_path / f"{raw['name']}.json"
            path.write_text(json.dumps(raw))
            paths.append(str(path))
    assert families == {"heis", "ext", "fil", "unit"}
    return paths


@pytest.mark.usefixtures("cold_commands")
def test_stratify_computes_the_label_once(tmp_path, capsys, monkeypatch):
    from homsol import strata
    from homsol.cli import main

    calls = count_calls(monkeypatch, {"label": strata.stratum_label})
    targets = [
        name
        for name in sorted(catalog.names())
        if validate(document_from_catalog(catalog.get(name)))[0].n_bracket.norm > 0
    ]
    targets += one_document_per_ladder_family(tmp_path)
    for target in targets:
        calls.clear()
        main(["stratify", target, "--json"])
        assert calls["label"] == 1, target
    capsys.readouterr()


@pytest.mark.usefixtures("cold_commands")
def test_each_decomposition_runs_the_jacobi_test_once(tmp_path, capsys, monkeypatch):
    from homsol import decomposition, tensor
    from homsol.cli import main

    calls = count_calls(monkeypatch, {"jacobi": tensor.jacobi_residual})
    init = decomposition.MetricDecomposition.__init__

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(decomposition.MetricDecomposition, "__init__", counted_init)
    targets = sorted(catalog.names()) + one_document_per_ladder_family(tmp_path)
    for target in targets:
        for command in ("fit", "battery", "stratify"):
            calls.clear()
            main([command, target, "--json"])
            assert calls["init"] >= 1 and calls["jacobi"] == calls["init"], (command, target)
    capsys.readouterr()


DOCUMENT_COMMAND_ARGV = [
    ["ricci"],
    ["fit"],
    ["battery"],
    ["stratify"],
    ["extend", "--variant=nonunimodular"],
    ["extend", "--variant=restrict"],
    ["extend", "--variant=unimodular"],
]


def test_commands_served_from_the_validation_memo_print_what_cold_runs_print(tmp_path, capsys):
    # validate hands one decomposition to every command on the same algebra;
    # in any order of commands, each prints byte for byte its cold output
    from homsol import decomposition
    from homsol.cli import main

    def run(command, target):
        code = main([*command, target, "--json"])
        return code, capsys.readouterr()

    targets = sorted(catalog.names()) + one_document_per_ladder_family(tmp_path)
    cold = {}
    for target in targets:
        for pos, command in enumerate(DOCUMENT_COMMAND_ARGV):
            decomposition._validated.cache_clear()
            cold[pos, target] = run(command, target)
    orders = [range(7), range(6, -1, -1), (3, 0, 5, 2, 6, 1, 4)]
    for order in orders:
        for target in targets:
            for pos in order:
                assert run(DOCUMENT_COMMAND_ARGV[pos], target) == cold[pos, target], (order, pos, target)
    assert decomposition._validated.cache_info().hits >= len(orders) * len(targets) * 6


def test_validation_memo_keys_on_the_metric_lie_algebra_alone():
    raw = document_from_catalog(catalog.get("fil4")).to_json_dict()
    dec, _ = validate(document_from_dict(raw))
    # another name and meta, and the bracket's entries in another order: the same algebra
    other = {**raw, "name": "other", "meta": {"note": 1}, "bracket": raw["bracket"][::-1]}
    assert validate(document_from_dict(other))[0] is dec
    assert validate(document_from_dict(raw), tol=1e-8)[0] is not dec
    ip = np.diag([1.0, 1.0, 1.0, 2.0]).tolist()
    assert validate(document_from_dict({**raw, "ip": ip}))[0] is not dec


def test_arrays_cached_on_a_decomposition_are_read_only():
    dec, _ = validate(document_from_catalog(catalog.get("cplxhyp2")))
    blocks, ricci, stratum = dec.blocks(), dec.ricci(), dec.n_stratum()
    cached = [dec.derivations_n(), dec.killing(), dec.mean_curvature(), dec.ad_mean_curvature()]
    cached += [blocks.lam0, blocks.lam1, blocks.eta, blocks.mu, ricci.matrix]
    cached += [stratum.beta_raw, stratum.beta]
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    # cplxhyp2 has no k-block: these are empty, and read-only too
    assert not blocks.lam2.flags.writeable and not blocks.nu2.flags.writeable


def test_compare_prints_one_summary_per_report_that_differs(tmp_path, capsys):
    old = {
        "fit a": {"exit": 0, "report": {"c": -2.0e8, "d": [1.0, 2.0, 3.0], "tag": "Einstein"}},
        "fit b": {"exit": 0, "report": {"c": -1.5}},
        "fit c": {"exit": 0, "report": {"tag": "Einstein", "r": [0.5]}},
    }
    new = json.loads(json.dumps(old))
    new["fit a"]["report"]["d"] = [1.0 + 1e-7, 2.0, 3.0 - 3e-7]
    new["fit c"]["report"]["tag"] = "NotDetected"
    paths = []
    for name, dump in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(dump))

    assert compare_reports.main(["compare", *map(str, paths)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == compare_reports.differences(old, new)
    assert lines[3] == "3 vs 3 reports, 3 differences (1 verdict-level, 2 floats, 0 other)"
    assert lines[4:] == [
        "summary fit a: floats moved 2, max |delta| 3e-07, max |value| 2e+08",
        "summary fit c: floats moved 0, max |delta| 0, max |value| 0.5, other differences 1",
    ]
    # equal dumps: no difference, no summary, exit 0
    assert compare_reports.main(["compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines() == ["3 vs 3 reports, 0 differences"]


@pytest.mark.usefixtures("cold_commands")
def test_a_certified_fit_or_battery_solves_no_least_squares(tmp_path, capsys, monkeypatch):
    # a soliton is certified in closed form: neither Der(n) nor the canonical fit is
    # computed; a document it does not certify is fitted once, battery included
    from homsol import cli, soliton, tensor
    from homsol.cli import main

    calls = count_calls(monkeypatch, {"fit": soliton._canonical_fit, "der": tensor.derivation_algebra})
    targets = sorted(catalog.names()) + one_document_per_ladder_family(tmp_path)
    fitted = []
    for target in targets:
        for command in ("fit", "battery"):
            calls.clear()
            code = main([command, target, "--json"])
            if code == 0:
                assert calls["fit"] == calls["der"] == 0, (command, target)
            else:
                assert calls["fit"] == calls["der"] == 1, (command, target)
                fitted.append(target)
    assert [Path(t).stem for t in fitted] == ["nil7", "nil7", "unit-n5", "unit-n5"]

    verify_one = cli._verify_one
    per_entry = {}

    def counted_entry(name, tol):
        calls.clear()
        out = verify_one(name, tol)
        per_entry[name] = calls["fit"]
        return out

    monkeypatch.setattr(cli, "_verify_one", counted_entry)
    main(["verify-all", "--json"])
    assert per_entry.pop("nil7") == 1  # nilsoliton-negative reuses soliton_fit's canonical fit
    assert set(per_entry.values()) == {0}
    capsys.readouterr()


def test_build_validates_each_construction_once(tmp_path, capsys, monkeypatch):
    # one assembly per build, and at most its decomposition and its n-part
    from homsol import constructions
    from homsol.cli import main
    from homsol.decomposition import MetricDecomposition

    calls = count_calls(
        monkeypatch,
        {
            "validate": constructions.validate_construction,
            "assemble": constructions.assemble_semidirect,
        },
    )
    init = MetricDecomposition.__init__

    def counted_init(self, *args, **kwargs):
        calls["decomposition"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MetricDecomposition, "__init__", counted_init)
    exits = {}
    refused = compare_reports.refused_construction_document()
    for doc in compare_reports.construction_documents() + [refused]:
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        calls.clear()
        exits[doc["name"]] = main(["build", str(path), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert calls["validate"] == 1, doc["name"]
        assert calls["assemble"] == 1, doc["name"]
        assert 1 <= calls["decomposition"] <= 2, doc["name"]
        assert not report["errors"], doc["name"]
    assert exits == {
        "cplxhyp2-parts": 0,
        "cplxhyp2-c3-violated": 1,
        "solv12-parts": 0,
        "so3-isotropy-parts": 0,
        "cplxhyp2-ip-parts": 0,
    }


def test_a_refit_served_from_the_memo_prints_what_a_cold_refit_prints(tmp_path, capsys, monkeypatch):
    # fit and battery on the document build or extend --out printed are served the very
    # decomposition the command built, and print byte for byte what they print cold
    from homsol import constructions, decomposition
    from homsol.cli import main

    built = []
    for name in ("assemble_semidirect", "_transformed"):
        fn = getattr(constructions, name)

        def spy(*args, _fn=fn, **kwargs):
            built.append(_fn(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(constructions, name, spy)

    def run(argv, out):
        """build or extend --out from an empty memo; the decomposition it built, None if it exits 2."""
        decomposition._validated.cache_clear()
        built.clear()
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        if argv[0] == "build":
            out.write_text(json.dumps(report["results"]["document"]))
        return built[-1] if code == 0 else None

    def refit(out, cold):
        runs = []
        for command in ("fit", "battery"):
            if cold:
                decomposition._validated.cache_clear()
            runs.append((main([command, str(out), "--json"]), capsys.readouterr()))
        return runs

    cases = []
    for doc in compare_reports.construction_documents():
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        cases.append((["build", str(path), "--json"], tmp_path / f"{doc['name']}-built.json"))
    for name in sorted(catalog.names()):
        for variant in compare_reports.VARIANTS:
            out = tmp_path / f"{name}-{variant}.json"
            cases.append((["extend", name, "--variant", variant, "--json", "--out", str(out)], out))
    served = Counter()
    for argv, out in cases:
        if run(argv, out) is None:
            continue  # an extend that does not apply to this entry
        cold = refit(out, cold=True)
        dec = run(argv, out)
        assert validate(document_from_dict(json.loads(out.read_text())))[0] is dec, argv
        if argv[0] == "extend":
            # the extension keeps the n-block: one n-part serves it and its source
            source = validate(document_from_catalog(catalog.get(argv[1])))[0]
            assert dec.n_decomposition() is source.n_decomposition(), argv
        assert refit(out, cold=False) == cold, argv
        served[argv[0] if argv[0] == "build" else argv[3]] += 1
    assert sorted(served) == ["build", *compare_reports.VARIANTS], served


def test_compare_counts_verdict_level_differences_apart_from_floats(tmp_path, capsys):
    old = {
        "fit a": {"exit": 0, "report": {"c": -1.5, "passed": True, "checks": [{"name": "x", "value": 0.1}]}},
        "fit b": {"exit": 1, "report": {"errors": [{"code": "jacobi"}], "n": 3}},
        "fit c": {"exit": 0, "report": {"c": -1.5}},
    }
    new = json.loads(json.dumps(old))
    new["fit a"]["report"]["checks"][0]["value"] = 0.1 + 1e-9  # roundoff beyond 1e-12
    new["fit c"]["report"]["residual"] = 0.0  # a key in one dump only
    old["fit c"]["report"]["input"] = {"sha256": "1"}
    new["fit c"]["report"]["input"] = {"sha256": "2"}  # a printed document read back
    paths = [tmp_path / "old.json", tmp_path / "new.json"]

    def totals():
        for path, dump in zip(paths, (old, new)):
            path.write_text(json.dumps(dump))
        assert compare_reports.main(["compare", *map(str, paths)]) == 1
        return [line for line in capsys.readouterr().out.splitlines() if line.startswith("3 vs 3 reports")]

    assert totals() == ["3 vs 3 reports, 3 differences (0 verdict-level, 1 floats, 2 other)"]
    # an exit code, a tag or an error code, a verdict: each is verdict-level; an integer is not
    new["fit a"]["report"]["passed"] = False
    new["fit b"] = {"exit": 2, "report": {"errors": [{"code": "n-not-ideal"}], "n": 4}}
    new["fit c"]["report"]["tag"] = "Einstein"
    old["fit c"]["report"]["tag"] = "NotDetected"
    assert totals() == ["3 vs 3 reports, 8 differences (4 verdict-level, 1 floats, 3 other)"]


def test_compare_flags_a_text_that_differs_where_the_values_do_not(tmp_path, capsys):
    old = {
        "fit a": {"exit": 0, "report": {"c": -1.5}, "sha256": "1"},
        "fit b": {"exit": 0, "report": {"c": -1.5}, "sha256": "2"},
        "extend c": {"exit": 0, "report": {"x": math.nan}, "sha256": "3", "out_sha256": "4"},
        "fit d": {"exit": 0, "report": {"c": -1.5}, "sha256": "5"},
    }
    new = json.loads(json.dumps(old))
    new["fit a"]["sha256"] = "1'"  # the same values, another text
    new["extend c"]["out_sha256"] = "4'"  # the same report, another --out file
    new["fit d"]["report"]["c"] = -1.5 * (1 + 1e-13)  # roundoff moves the text too
    new["fit d"]["sha256"] = "5'"
    paths = []
    for name, dump in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(dump))

    assert compare_reports.main(["compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "extend c: text differs (out_sha256)",
        "fit a: text differs (sha256)",
        "4 vs 4 reports, 0 differences, 2 text differs",
    ]
    assert compare_reports.main(["compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines() == ["4 vs 4 reports, 0 differences, 0 text differs"]
    # a dump without hashes is compared on its values alone
    paths[1].write_text(json.dumps({name: compare_reports._values(run) for name, run in old.items()}))
    assert compare_reports.main(["compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out.splitlines() == ["4 vs 4 reports, 0 differences"]


def test_dump_hashes_the_text_a_command_printed():
    from homsol.cli import main

    run = compare_reports._run(main, ["fit", "heis3", "--json"])
    text = json.dumps(run["report"], sort_keys=True, indent=2) + "\n"
    assert run["sha256"] == compare_reports._sha256(text)


def test_dump_records_a_usage_error_and_hashes_the_standard_error():
    from homsol.cli import main

    run = compare_reports._run(main, ["fit", "heis3", "--tol", "x"])
    assert run["exit"] == 2 and run["report"] == ""
    assert run["stderr_sha256"] != compare_reports._sha256("")
    run = compare_reports._run(main, ["fit", "-h"])
    assert run["exit"] == 0 and run["report"].startswith("usage: homsol fit")
    assert run["stderr_sha256"] == compare_reports._sha256("")


def test_front_end_runs_print_what_argparse_alone_prints(monkeypatch):
    # the option table reads the well-formed argv of FRONT_END_ARGV; argparse reading every one
    # gives the same exit codes, standard output and standard error
    from homsol import cli

    monkeypatch.delenv("HOMSOL_TOL", raising=False)
    table = compare_reports.front_end_runs(cli.main)
    read = [argv for argv in compare_reports.FRONT_END_ARGV if cli._read_argv(argv) is not None]
    assert len(read) == 8  # the first seven, and --tol=nan, a float that main refuses
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert compare_reports.front_end_runs(cli.main) == table
    assert {run["exit"] for run in table.values()} == {0, 2}


def test_compare_reads_a_dump_without_standard_error_hashes_as_it_reads_one_without_any(tmp_path, capsys):
    new = {"fit a": {"exit": 0, "report": {"c": -1.5}, "sha256": "1", "stderr_sha256": "2"}}
    old = {"fit a": {"exit": 0, "report": {"c": -1.5}, "sha256": "1"}}
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, dump in zip(paths, (old, new)):
        path.write_text(json.dumps(dump))
    assert compare_reports.main(["compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 vs 1 reports, 0 differences, 0 text differs"]
