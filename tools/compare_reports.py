"""Dump homsol's JSON reports for a source tree, and compare two dumps.

A refactor that claims unchanged behaviour is checked in two steps:

    python tools/compare_reports.py dump --src path/to/old/src --out old.json
    python tools/compare_reports.py dump --src src --out new.json
    python tools/compare_reports.py compare old.json new.json

``dump`` runs ``fit``, ``battery`` and ``stratify --json`` on every catalog
entry and on the generated ladder (Heisenberg ``h_{2m+1}``, m = 1..8; their
rank-one Einstein extensions, m = 1..7; filiform ``L_n`` with nilsoliton
constants, n = 4..14; unit-constant ``L_n``, n = 5..11), which it reads,
like the catalog's names, from the dumped tree's ``homsol.catalog``, so
the tree must have ``catalog.ladder()``; and on ``cplxhyp2-twin``,
``cplxhyp2`` listed out of canonical order, so that a document is shown to
be read as its canonical bracket;
``fit``, ``battery`` and ``stratify`` on three twins whose n-block is
permuted (``heis3`` with its centre first, ``fil4`` reversed, and
``cplxhyp2`` with its centre in the middle of n), so that a change to how
a verdict depends on the order of the basis shows up;
``fit`` and ``battery`` on ``heis3`` and ``hyp3`` declared with
``dim_h = 2, dim_n = 1``, splits whose n is not the nilradical, so that a
change to how such a split is refused shows up; ``fit``, ``battery`` and
``stratify`` on the five range documents (``heis3`` at ``c = 1e75`` and
``1e-75`` with an ``ip`` that moves it out of range in the orthonormal
frame, ``cplxhyp2`` with an n-block of size 1e-120, ``heis3`` at
``c = 1e72``, in range in both bases, and ``heis3`` at ``c = 1e77``, out of
range as listed and in range in its frame), so that a change to the range
rule shows up; ``fit``, ``battery`` and ``stratify`` on ``solv12`` and
``cplxhyp2`` listed with an identity ``ip``, so that a change to how the
identity metric is told from no metric shows up; ``ricci`` on each of
these documents listed with an ``ip``, so that a change to the basis
``ricci_user_basis`` is written in shows up;
``ricci`` and the three ``extend --variant`` transformations on every
catalog entry; ``fit``, ``battery``, ``stratify`` and the three
``extend`` variants on every catalog entry at ``--tol 1e-6``, so that a
change to how the tolerance reaches a check shows up; ``fit``,
``battery``, ``stratify`` and the three
``extend`` variants on every catalog entry with the bracket scaled by
1e-10, 1e-4, 1e4 and 1e10, so that a tag or a verdict that depends on
scale shows up; ``build`` on the construction documents written here
(``cplxhyp2`` and ``solv12`` assembled from their parts; real hyperbolic
4-space as k = so(3) rotating R^3 with h = R acting by I, the isotropy
path; ``cplxhyp2``'s parts with non-identity ``ip`` on n and on h, which
``decompose`` writes in the orthonormal frame; and ``cplxhyp2``'s parts
with theta doubled, which violate (c3), so that ``build`` exits 1; and
two constructions with an empty block, u = R with n = 0 and u = 0 with
n = heis3, whose arrays of a zero extent are empty);
``fit`` and ``battery`` on every document that ``build`` and the three
``extend`` variants print, read back from a file (``extend`` writes it with
``--out``) right after the command, at that command's ``--tol``, so that
they are served the decomposition the command built; and
``verify-all --json``.  ``build`` and ``verify-all`` also run at
``--tol 1e-6``.  Everything runs
in-process through ``homsol.cli.main``, and every exit code and report
goes to one JSON file, with the sha256 of the command's standard output
and, for ``extend``, of the file ``--out`` wrote; a command that raises
is recorded with the exception's type and message as its exit code.
The BLAS and OpenMP thread counts are pinned to 1 before numpy loads, so
one tree dumped twice gives the same numbers.

``compare`` requires identical exit codes, strings (tags, check names,
hashes) and booleans (verdicts), identical integers and list lengths, and
floats equal to 1e-12 absolute or relative.  It prints each difference,
then the totals, then one summary line per report that differs (the
number of floats that moved, the largest |delta| and the largest |value|
in that report, so roundoff can be told from a change of scale), and
exits 1 if there is any difference, 0 otherwise.  A report whose values
are exactly equal in both dumps but whose text hashes differ is printed
as ``text differs`` and counts as a difference too, so a change that
claims byte-identical reports can show it; a dump without hashes is
compared on its values alone.  Either command exits 141 (the shell's code
for SIGPIPE), without a traceback, when the reader of its standard output
closes it early (``compare A B | head``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

COMMANDS = ("fit", "battery", "stratify")
REFIT_COMMANDS = ("fit", "battery")  # run on each document a build or an extend prints
VARIANTS = ("nonunimodular", "restrict", "unimodular")
SCALES = (1e-10, 1e-4, 1e4, 1e10)
OTHER_TOL = "1e-6"  # a --tol away from the default, so a change to tol plumbing shows up
TOL = 1e-12
HASHES = ("sha256", "out_sha256")  # of the standard output, of the file extend --out wrote


def _document(name: str, dim_h: int, dim_n: int, entries) -> dict:
    return {
        "name": name,
        "dim": dim_h + dim_n,
        "dim_k": 0,
        "dim_h": dim_h,
        "dim_n": dim_n,
        "bracket": [{"i": i, "j": j, "k": k, "c": c} for i, j, k, c in entries],
    }


def ladder_documents() -> list[dict]:
    """One document per entry of the dumped tree's ``catalog.ladder()``, its bracket as listed there."""
    from homsol import catalog

    return [_document(e.name, e.dim_h, e.dim_n, e.entries) for e in catalog.ladder()]


def construction_documents() -> list[dict]:
    """Semidirect builds u (+) n from their parts: one with isotropy, one with inner products."""
    return [
        {
            # u = R acting on heis3 by diag(1/2, 1/2, 1): cplxhyp2
            "name": "cplxhyp2-parts",
            "c": -1.5,
            "nil": {
                "dim": 3,
                "bracket": [{"i": 0, "j": 1, "k": 2, "c": 1.0}],
                "d1": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            },
            "reductive": {"dim": 1, "dim_k": 0, "bracket": []},
            "theta": [[[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]]],
        },
        {
            # u = R acting on R^2 by diag(1, 2): solv12
            "name": "solv12-parts",
            "c": -5.0,
            "nil": {"dim": 2, "bracket": [], "d1": [[5.0, 0.0], [0.0, 5.0]]},
            "reductive": {"dim": 1, "dim_k": 0, "bracket": []},
            "theta": [[[1.0, 0.0], [0.0, 2.0]]],
        },
        {
            # k = so(3) rotating R^3 and h = R acting by I: real hyperbolic 4-space, the
            # one construction here with isotropy, so (c1) is checked
            "name": "so3-isotropy-parts",
            "c": -3.0,
            "nil": {"dim": 3, "bracket": [], "d1": [[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0]]},
            "reductive": {
                "dim": 4,
                "dim_k": 3,
                "bracket": [
                    {"i": 0, "j": 1, "k": 2, "c": 1.0},
                    {"i": 1, "j": 2, "k": 0, "c": 1.0},
                    {"i": 0, "j": 2, "k": 1, "c": -1.0},
                ],
            },
            "theta": [
                [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            ],
        },
        {
            # cplxhyp2's parts in non-orthonormal bases: ip_n = A^t A for the automorphism
            # A = [[1, 1, 0], [0, 1, 0], [0, 0, 1]] of heis3, which commutes with D1 and
            # theta, and |Y|^2 = 4 on h, so theta(Y) doubles
            "name": "cplxhyp2-ip-parts",
            "c": -1.5,
            "nil": {
                "dim": 3,
                "bracket": [{"i": 0, "j": 1, "k": 2, "c": 1.0}],
                "d1": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
                "ip": [[1.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
            },
            "reductive": {"dim": 1, "dim_k": 0, "bracket": [], "ip": [[4.0]]},
            "theta": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]],
        },
    ]


def refused_construction_document() -> dict:
    """cplxhyp2's parts with theta doubled: still derivations, but (c3) fails, so build exits 1."""
    doc = construction_documents()[0]
    doc["name"] = "cplxhyp2-c3-violated"
    doc["theta"] = [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]]  # tr S(theta)^2 = 6 != -c
    return doc


def empty_block_construction_documents() -> list[dict]:
    """Builds with an empty block: u = R with n = 0 (flat, Einstein), u = 0 with n = heis3."""
    return [
        {
            "name": "line-parts",
            "c": 0.0,
            "nil": {"dim": 0, "d1": []},
            "reductive": {"dim": 1, "dim_k": 0, "bracket": []},
            "theta": [[]],
        },
        {
            "name": "heis3-parts",
            "c": -1.5,
            "nil": {
                "dim": 3,
                "bracket": [{"i": 0, "j": 1, "k": 2, "c": 1.0}],
                "d1": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
            },
            "reductive": {"dim": 0},
            "theta": [],
        },
    ]


def misplit_documents() -> list[dict]:
    """heis3 and hyp3 declared with h = span(e0, e1), n = span(e2): n is not the nilradical."""
    from homsol import catalog
    from homsol.io import document_from_catalog

    docs = []
    for name in ("heis3", "hyp3"):
        raw = document_from_catalog(catalog.get(name)).to_json_dict()
        raw.update(name=f"{name}-misplit", dim_h=2, dim_n=1)
        for key in ("ip", "meta"):  # the catalog's metric and expectations are for its own split
            raw.pop(key, None)
        docs.append(raw)
    return docs


def twin_document() -> dict:
    """cplxhyp2 listed out of canonical order: reversed, a constant split, a zero entry."""
    from homsol import catalog
    from homsol.io import document_from_catalog

    raw = document_from_catalog(catalog.get("cplxhyp2")).to_json_dict()
    raw["name"] = "cplxhyp2-twin"
    first, *rest = raw["bracket"]
    half = dict(first, c=first["c"] / 2)
    raw["bracket"] = [half, *rest[::-1], {"i": 0, "j": 1, "k": 0, "c": 0.0}, half]
    return raw


def permuted_n_document(raw: dict, perm, name: str) -> dict:
    """``raw`` with its n-block relabelled: n's basis vector a becomes n's vector perm[a].

    Each bracket entry is written with i < j again, its constant negated
    where the pair was swapped, and ``ip`` (on p = h + n) is permuted to
    match, so the twin describes the same metric Lie algebra.  ``meta``,
    which may describe the old basis, is dropped.
    """
    offset = raw["dim_k"] + raw["dim_h"]
    index = list(range(offset)) + [offset + int(a) for a in perm]
    twin = {key: value for key, value in raw.items() if key not in ("bracket", "ip", "meta")}
    twin["name"] = name
    twin["bracket"] = []
    for entry in raw["bracket"]:
        i, j, c = index[entry["i"]], index[entry["j"]], entry["c"]
        if i > j:
            i, j, c = j, i, -c
        twin["bracket"].append({"i": i, "j": j, "k": index[entry["k"]], "c": c})
    if "ip" in raw:
        p_index = [a - raw["dim_k"] for a in index[raw["dim_k"]:]]
        old = sorted(range(len(p_index)), key=p_index.__getitem__)  # the inverse relabelling
        twin["ip"] = [[raw["ip"][a][b] for b in old] for a in old]
    return twin


def permuted_twin_documents() -> list[dict]:
    """heis3 with its centre first, fil4 reversed and cplxhyp2 with its centre in the middle of n."""
    from homsol import catalog
    from homsol.io import document_from_catalog

    twins = (
        ("heis3", (1, 2, 0), "heis3-centre-first"),
        ("fil4", (3, 2, 1, 0), "fil4-reversed"),
        ("cplxhyp2", (0, 2, 1), "cplxhyp2-n-permuted"),
    )
    return [
        permuted_n_document(document_from_catalog(catalog.get(base)).to_json_dict(), perm, name)
        for base, perm, name in twins
    ]


def range_documents() -> list[dict]:
    """Brackets whose range differs between the listed basis and the frame, and one in range in both.

    heis3 at c = 1e75 with ip = diag(1e-8, 1, 1): (|mu|^2)^2 is 4e300 in the
    user basis and 4e316 in the orthonormal frame; at c = 1e-75 with
    ip = diag(1e8, 1, 1) it underflows in the frame; heis3 at c = 1e72
    with ip = diag(1e-8, 1, 1), in range in both bases; heis3 at c = 1e77
    with ip = diag(1e8, 1, 1), 4e308 as listed, out of range, and 4e292 in
    the frame, the one bracket judged; and cplxhyp2 with [e1, e2] = 1e-120 e3,
    whose n-block underflows.
    """
    from homsol import catalog
    from homsol.io import document_from_catalog

    docs = []
    cases = (("overflow", 1e75, 1e-8), ("underflow", 1e-75, 1e8), ("in-range", 1e72, 1e-8))
    for name, c, ip_00 in cases + (("listed-overflow", 1e77, 1e8),):
        raw = _document(f"heis3-frame-{name}", 0, 3, [(0, 1, 2, c)])
        raw["ip"] = [[ip_00, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        docs.append(raw)
    raw = document_from_catalog(catalog.get("cplxhyp2")).to_json_dict()
    raw.update(name="cplxhyp2-n-underflow", meta={})
    for entry in raw["bracket"]:
        if (entry["i"], entry["j"]) == (1, 2):
            entry["c"] = 1e-120
    return docs + [raw]


def identity_ip_documents() -> list[dict]:
    """solv12 and cplxhyp2 listed with the identity ip on p, the metric they carry without one."""
    from homsol import catalog
    from homsol.io import document_from_catalog

    docs = []
    for name in ("solv12", "cplxhyp2"):
        raw = document_from_catalog(catalog.get(name)).to_json_dict()
        dim_p = raw["dim_h"] + raw["dim_n"]
        identity = [[float(a == b) for b in range(dim_p)] for a in range(dim_p)]
        raw.update(name=f"{name}-identity-ip", ip=identity)
        docs.append(raw)
    return docs


def scaled_catalog_documents() -> list[dict]:
    """Every catalog entry with each bracket constant multiplied by each of SCALES."""
    from homsol import catalog
    from homsol.io import document_from_catalog

    docs = []
    for name in sorted(catalog.names()):
        for scale in SCALES:
            raw = document_from_catalog(catalog.get(name)).to_json_dict()
            raw["name"] = f"{name}-x{scale:g}"
            for entry in raw["bracket"]:
                entry["c"] *= scale
            docs.append(raw)
    return docs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(main, argv: list[str]) -> dict:
    """The exit code, report and output hash of one command; an exception's text for its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except Exception as err:  # a tree that crashes on a document is compared, not aborted
            code = f"{type(err).__name__}: {err}"
    text = out.getvalue()
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        report = text
    return {"exit": code, "report": report, "sha256": _sha256(text)}


def dump(src: str) -> dict:
    sys.path.insert(0, str(Path(src).resolve()))
    from homsol import catalog
    from homsol.cli import main

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:

        def refit(label: str, document: Path, argv: list[str]):
            """fit and battery on the document a build or an extend printed, read back from a file."""
            if document.exists():
                for command in REFIT_COMMANDS:
                    runs[f"{command} of {label}"] = _run(main, [command, str(document), *argv])

        def extend(label: str, target: str, variant: str, argv: list[str]):
            """extend with --out, then the refits of the document it wrote."""
            out = Path(tmp) / f"{label} printed.json"
            runs[label] = _run(main, ["extend", target, "--variant", variant, *argv, "--out", str(out)])
            if out.exists():
                runs[label]["out_sha256"] = _sha256(out.read_text())
            refit(label, out, argv)

        targets = sorted(catalog.names())
        docs = ladder_documents() + [twin_document()] + range_documents() + permuted_twin_documents()
        docs += identity_ip_documents()
        for doc in docs:
            path = Path(tmp) / f"{doc['name']}.json"
            path.write_text(json.dumps(doc, sort_keys=True))
            targets.append(str(path))
        for target in targets:
            label = Path(target).stem
            for command in COMMANDS:
                runs[f"{command} {label}"] = _run(main, [command, target, "--json"])
        for doc in docs:  # ricci_user_basis: the operator in the basis a document lists with its ip
            if "ip" in doc:
                path = Path(tmp) / f"{doc['name']}.json"
                runs[f"ricci {doc['name']}"] = _run(main, ["ricci", str(path), "--json"])
        for doc in misplit_documents():
            path = Path(tmp) / f"{doc['name']}.json"
            path.write_text(json.dumps(doc, sort_keys=True))
            for command in REFIT_COMMANDS:
                runs[f"{command} {doc['name']}"] = _run(main, [command, str(path), "--json"])
        for name in sorted(catalog.names()):
            runs[f"ricci {name}"] = _run(main, ["ricci", name, "--json"])
            for variant in VARIANTS:
                extend(f"extend-{variant} {name}", name, variant, ["--json"])
                argv = ["--json", "--tol", OTHER_TOL]
                extend(f"extend-{variant} {name} --tol {OTHER_TOL}", name, variant, argv)
            for command in COMMANDS:
                argv = [command, name, "--json", "--tol", OTHER_TOL]
                runs[f"{command} {name} --tol {OTHER_TOL}"] = _run(main, argv)
        for doc in scaled_catalog_documents():
            path = Path(tmp) / f"{doc['name']}.json"
            path.write_text(json.dumps(doc, sort_keys=True))
            for command in COMMANDS:
                runs[f"{command} {doc['name']}"] = _run(main, [command, str(path), "--json"])
            for variant in VARIANTS:
                extend(f"extend-{variant} {doc['name']}", str(path), variant, ["--json"])
        constructions = construction_documents() + [refused_construction_document()]
        for doc in constructions + empty_block_construction_documents():
            path = Path(tmp) / f"{doc['name']}.json"
            path.write_text(json.dumps(doc, sort_keys=True))
            for suffix, argv in (("", ["--json"]), (f" --tol {OTHER_TOL}", ["--json", "--tol", OTHER_TOL])):
                label = f"build {doc['name']}{suffix}"
                runs[label] = _run(main, ["build", str(path), *argv])
                built = Path(tmp) / f"{label} printed.json"
                results = runs[label]["report"]["results"]
                if "document" in results:  # build prints no document for data it refuses
                    built.write_text(json.dumps(results["document"], sort_keys=True))
                refit(label, built, argv)
    runs["verify-all"] = _run(main, ["verify-all", "--json"])
    runs[f"verify-all --tol {OTHER_TOL}"] = _run(main, ["verify-all", "--json", "--tol", OTHER_TOL])
    return runs


def differences(a, b, path: str = "") -> list[str]:
    return [text for text, _ in _walk(a, b, path)]


def _values(run: dict) -> dict:
    """A run of a dump without its text hashes."""
    return {k: v for k, v in run.items() if k not in HASHES}


def text_differences(old: dict, new: dict) -> list[str]:
    """One line per report whose values are exactly equal in both dumps but whose text hashes differ."""
    out = []
    for name in sorted(set(old) & set(new)):
        a, b = old[name], new[name]
        moved = [k for k in HASHES if k in a and k in b and a[k] != b[k]]
        if moved and not any(_walk(_values(a), _values(b), "", tol=0.0)):
            out.append(f"{name}: text differs ({', '.join(moved)})")
    return out


def _walk(a, b, path: str, tol: float = TOL):
    """(text, |a - b|) of each difference beyond tol; the second item is None unless two floats moved."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) ^ set(b)):
            yield f"{path}/{k}: only in one dump", None
        for k in sorted(set(a) & set(b)):
            yield from _walk(a[k], b[k], f"{path}/{k}", tol)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}: length {len(a)} != {len(b)}", None
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from _walk(x, y, f"{path}[{i}]", tol)
    elif isinstance(a, float) and isinstance(b, float):
        gap = abs(a - b)
        if a == b or gap <= tol or gap <= tol * max(abs(a), abs(b)):
            return
        if math.isnan(a) and math.isnan(b):
            return
        yield f"{path}: {a!r} != {b!r}", gap
    elif type(a) is not type(b) or a != b:
        yield f"{path}: {a!r} != {b!r}", None


def _max_abs(x) -> float:
    """Largest |value| over the floats inside x (NaN skipped), 0 if there are none."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return max((_max_abs(v) for v in x), default=0.0)
    return abs(x) if isinstance(x, float) and not math.isnan(x) else 0.0


def summaries(old: dict, new: dict) -> list[str]:
    """One line per report present in both dumps that differs: moved floats, largest |delta|, largest |value|."""
    out = []
    for name in sorted(set(old) & set(new)):
        found = list(_walk(old[name], new[name], ""))
        if not found:
            continue
        gaps = [gap for _, gap in found if gap is not None]
        line = (
            f"summary {name}: floats moved {len(gaps)}, max |delta| {max(gaps, default=0.0):.3g}, "
            f"max |value| {max(_max_abs(old[name]), _max_abs(new[name])):.3g}"
        )
        if len(found) > len(gaps):
            line += f", other differences {len(found) - len(gaps)}"
        out.append(line)
    return out


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def main(argv=None) -> int:
    try:
        code = _command(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left unwritten goes nowhere, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _command(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write every report of one source tree to a file")
    p.add_argument("--src", required=True, help="directory that contains the homsol package")
    p.add_argument("--out", required=True, help="output JSON file")
    p = sub.add_parser("compare", help="compare two dumps")
    p.add_argument("old")
    p.add_argument("new")
    args = ap.parse_args(argv)

    if args.command == "dump":
        # a threaded BLAS may sum in another order from run to run; numpy is not loaded yet
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        runs = dump(args.src)
        Path(args.out).write_text(json.dumps(runs, sort_keys=True, indent=1))
        print(f"{len(runs)} reports written to {args.out}")
        return 0
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    texts = text_differences(old, new)
    hashed = all(any("sha256" in run for run in dump.values()) for dump in (old, new))
    old = {name: _values(run) for name, run in old.items()}
    new = {name: _values(run) for name, run in new.items()}
    diffs = differences(old, new)
    for line in diffs + texts:
        print(line)
    totals = f"{len(old)} vs {len(new)} reports, {len(diffs)} differences"
    print(totals + (f", {len(texts)} text differs" if hashed else ""))
    for line in summaries(old, new):
        print(line)
    return 1 if diffs or texts else 0


if __name__ == "__main__":
    sys.exit(main())
