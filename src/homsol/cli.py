"""Command-line interface.

Subcommands: ricci, fit, battery, stratify, build, extend, catalog,
verify-all.  Exit codes: 0 all checks pass, 1 check failures, 2 input or
usage errors, 141 (the shell's code for SIGPIPE) when the reader of
standard output closes it before the report is written.  Reports are
deterministic; --json prints one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import catalog as cat
from .constructions import (
    ConstructionError,
    build_semidirect,
    einstein_extension_unimodular,
    einstein_from_nonunimodular,
    restrict_to_unimodular_kernel,
)
from .decomposition import DecompositionError, frob, orthonormal_frame
from .io import (
    AlgebraDocument,
    DocumentError,
    Report,
    _json_text,
    construction_from_dict,
    document_from_catalog,
    document_from_decomposition,
    load,
    read_json,
    validate,
)
from .soliton import (
    _residual_bound,
    algebraic_soliton_equivalences,
    certificate_flags,
    f_operator_check,
    soliton_fit,
    stratum_compatibility_check,
    structure_battery,
)
from .strata import _properties, e_beta_pairing
from .tensor import DEFAULT_TOL, Check


def _tolerance(flag: float | None) -> float:
    """--tol, else HOMSOL_TOL, else the default, strictly between 0 and 1: at 1 or above
    every rule that bounds a part by the whole passes (n counts as abelian whatever it is)."""
    raw = flag if flag is not None else os.environ.get("HOMSOL_TOL") or DEFAULT_TOL
    try:
        tol = float(raw)
        if 0.0 < tol < 1.0:
            return tol
    except ValueError:
        pass
    raise DocumentError("bad-tolerance", f"tolerance {raw!r} is not a number between 0 and 1")


def run_document(command: str, doc: AlgebraDocument, tol: float, *args) -> Report:
    """The report of a document command: doc validated, then the command's body run on it."""
    report = Report(command, doc.name, doc.content_hash(), tol)
    dec, violations = validate(doc, tol)
    if dec is not None:
        try:
            # the body is looked up by name when called, so a wrapper put on the module's
            # run_<command> after import (a tracer's, a test's) is the one that runs
            globals()[DOCUMENT_COMMANDS[command][1].__name__](report, dec, *args)
        except DecompositionError as err:  # soliton_fit's n-not-nilradical
            violations = err.violations
    for v in violations:
        report.errors.append({"code": v.code, "detail": v.detail, "value": str(v.value)})
    return report


def run_ricci(report: Report, dec, ip):
    """Ric in dec's orthonormal frame, and in the basis the document lists, whose metric is ip."""
    ric = dec.ricci()
    report.results["ricci"] = ric.matrix
    # dec may be shared with another listing of its algebra: the listed basis is the document's
    frame = np.eye(dec.dim_p) if ip is None else orthonormal_frame(ip)
    report.results["ricci_user_basis"] = frame @ ric.matrix @ np.linalg.inv(frame)
    report.results["eigenvalues"] = np.linalg.eigvalsh(ric.matrix)
    report.add(dec.check("ricci-symmetric", "Ric = Ric^t", ric.symmetry_defect(), 2))


def run_fit(report: Report, dec):
    cert = soliton_fit(dec)
    report.classification = cert.tag
    report.results["c"] = cert.c
    report.results["residual"] = cert.residual
    report.results["derivation"] = cert.d_full
    report.results["flags"] = certificate_flags(dec, cert)
    if dec.dim_n:
        ncert = soliton_fit(dec.n_decomposition())
        report.results["nilpotent_part"] = {
            "c": ncert.c,
            "residual": ncert.residual,
            "tag": ncert.tag,
            "d1": ncert.d1,
        }
    bound = _residual_bound(dec.ricci().matrix, cert.c, dec.bracket_on.norm)
    # NotDetected with the residual in bound: D is no derivation, so there is no certificate
    value = cert.residual if cert.is_soliton or not cert.residual <= bound else np.inf
    report.add(
        Check(
            "soliton-detected",
            "Ric = c I + S(D_p) for some D in Der(g), D k = 0",
            value,
            bound,
            {"tag": cert.tag, "c": cert.c, "family": "canonical"},
        )
    )


Groups = dict[str, list[Check]]

# verify-all summarises each group of battery and stratify records in one
# check named after the group, with this anchor
_GROUP_ANCHORS = {
    "battery": "structural conditions (i)-(v)",
    "f-operator": "S(ad_p H + D_p) = t E_beta",
    "equivalences-agree": "seven algebraic-soliton conditions agree",
    "stratum-compatibility": "m(mu) = beta and friends",
    "stratum-properties": "label inequalities",
    "bracket-pairing": "<pi(E_beta) [.,.]_p, [.,.]_p> >= 0 summand by summand",
}


def _battery(dec, cert) -> tuple[Groups, dict]:
    """Records of the structure battery and its follow-up checks, plus their results."""
    bat = structure_battery(dec, cert)
    comp = stratum_compatibility_check(dec, cert)
    groups: Groups = {
        "battery": bat.checks,
        "f-operator": f_operator_check(dec, cert).checks,
        "equivalences-agree": algebraic_soliton_equivalences(dec, cert).checks,
        "stratum-compatibility": comp.checks,
    }
    results = {"forward_direction_applicable": bat.applicable}
    if not comp.skipped:
        results["mu_scalar_variant_residual"] = comp.mu_scalar_variant_residual
    return groups, results


def _stratify(dec) -> tuple[Groups, dict]:
    """Records of the label checks on dec's nonzero nilpotent part, plus their results.

    The label and Der(n) are the decomposition's own, so a battery run on
    the same decomposition does not compute them again.
    """
    # the label is the n bracket's own, so its checks take Der of that bracket, never gl(n)
    ders = dec.n_decomposition().derivations_n()
    rep = _properties(dec.n_bracket, dec.n_stratum(), ders, dec.tol)
    data = rep.stratum
    pairing = e_beta_pairing(dec)
    results = {
        "beta": data.beta,
        "beta_raw": data.beta_raw,
        "beta_norm_sq": data.beta_norm_sq,
        "support": [list(s) for s in data.support],
        "nice_position": data.nice_position,  # reported only: no check depends on it
        "pairing_terms": {
            "lam0": pairing.lam0_term,
            "lam1": pairing.lam1_term,
            "eta": pairing.eta_term,
            "mu": pairing.mu_term,
            "total": pairing.total,
        },
    }
    groups: Groups = {"stratum-properties": rep.checks, "bracket-pairing": pairing.checks}
    return groups, results


def run_battery(report: Report, dec):
    cert = soliton_fit(dec)
    report.classification = cert.tag
    report.results["c"] = cert.c
    groups, results = _battery(dec, cert)
    report.results.update(results)
    report.checks.extend(r for records in groups.values() for r in records)


def run_stratify(report: Report, dec):
    if dec.n_bracket.norm == 0.0:
        report.errors.append(
            {"code": "no-stratum", "detail": "nilpotent part is abelian or empty; no label"}
        )
        return
    groups, results = _stratify(dec)
    report.results.update(results)
    report.checks.extend(r for records in groups.values() for r in records)


def run_build(path: str, tol: float) -> Report:
    report = Report(command="build", input_name=path, input_hash="", tolerance=tol)
    try:
        name, data = construction_from_dict(read_json(Path(path)))
        res, violations = build_semidirect(data, tol), []
    except ConstructionError as err:
        # a ValueError too, but data that fails (c1)-(c3) or (d1)-(d3) fails checks: exit 1
        violations = err.violations
    except ValueError as err:
        # a file read_json refuses, a document construction_from_dict refuses
        # (DocumentError), an inner product that metric_faults refuses and a bracket
        # whose norm leaves the range computed in
        report.errors.append({"code": "bad-construction", "detail": str(err)})
        return report
    report.input_name = name
    for v in violations:
        report.add(
            Check(
                v.code,
                "construction conditions (c1)-(c3) and data (d1)-(d3)",
                float(v.value) if isinstance(v.value, (int, float)) else None,
                info={"detail": v.detail},
                verdict=False,
            )
        )
    if violations:
        return report
    out_doc = document_from_decomposition(
        res.decomposition, f"{name}-built", meta={"built-from": name}
    )
    report.classification = res.certificate.tag
    report.results["document"] = out_doc.to_json_dict()
    report.results["c"] = res.certificate.c
    report.results["predicted_ricci"] = res.predicted_ricci
    report.add(
        res.decomposition.check(
            "predicted-ricci-matches",
            "Ric = c I + diag(-S(ad_u H|_h), -S(theta(H)) + D1)",
            res.prediction_residual,
            2,
        )
    )
    return report


def run_extend(report: Report, dec, variant: str):
    cert = soliton_fit(dec)
    ops = {
        "nonunimodular": einstein_from_nonunimodular,
        "restrict": restrict_to_unimodular_kernel,
        "unimodular": einstein_extension_unimodular,
    }
    try:
        out, out_cert = ops[variant](dec, cert)
    except (ValueError, KeyError) as err:
        report.errors.append({"code": "extend-failed", "detail": str(err)})
        return
    name = report.input_name
    out_doc = document_from_decomposition(
        out, f"{name}-{variant}", meta={"derived-from": name, "variant": variant}
    )
    report.classification = out_cert.tag
    report.results["document"] = out_doc.to_json_dict()
    report.results["c"] = out_cert.c
    report.results["residual"] = out_cert.residual
    # both residuals are of degree 2 in the input bracket, which fixes c and D
    if variant in ("nonunimodular", "unimodular"):
        gap = frob(out.ricci().matrix - cert.c * np.eye(out.dim_p))
        anchor = "Ric_out = c I with the input certificate's c"
        report.add(dec.check("einstein-with-same-constant", anchor, gap, 2))
    else:
        report.add(
            dec.check(
                "restricted-certificate",
                "Ric_0 = c I + D'|_p0 with D' = (D + S(ad H))|_g0",
                out_cert.residual,
                2,
            )
        )


# name: (help, body(report, dec, *extra) run by run_document, by name, on a valid document,
#        extra(doc, parsed command line): the arguments the body takes after dec)
DOCUMENT_COMMANDS = {
    "ricci": ("Ricci operator of a decomposition", run_ricci, lambda doc, args: (doc.ip,)),
    "fit": ("soliton certificate by least squares", run_fit, lambda doc, args: ()),
    "battery": ("full structural condition battery", run_battery, lambda doc, args: ()),
    "stratify": ("stratum label and its property checks", run_stratify, lambda doc, args: ()),
    "extend": ("Einstein/soliton metric transformations", run_extend, lambda doc, args: (args.variant,)),
}


def run_catalog(dump_dir: str | None) -> Report:
    report = Report(command="catalog", input_name="", input_hash="", tolerance=0.0)
    listing = {}
    for name in cat.names():
        entry = cat.get(name)
        listing[name] = {
            "dim": entry.dim,
            "dim_k": entry.dim_k,
            "dim_h": entry.dim_h,
            "dim_n": entry.dim_n,
            "description": entry.meta.get("description", ""),
        }
    report.results["catalog"] = listing
    if dump_dir:
        out = Path(dump_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name in cat.names():
                text = document_from_catalog(cat.get(name)).dumps() + "\n"
                (out / f"{name}.json").write_text(text)
        except OSError as err:
            raise DocumentError("out-not-writable", f"{dump_dir}: {err.strerror}") from None
        report.results["dumped_to"] = str(out)
    return report


def _verify_one(name: str, tol: float) -> list[Check]:
    entry = cat.get(name)
    doc = document_from_catalog(entry)
    checks: list[Check] = []

    def rec(check: str, anchor: str, passed: bool, **info):
        checks.append(Check(f"{name}:{check}", anchor, info=info, verdict=passed))

    dec, violations = validate(doc, tol)
    rec("valid", "decomposition invariants", dec is not None)
    if dec is None:
        return checks

    expected = entry.meta.get("expected", {})
    cert = soliton_fit(dec)
    if "tag" in expected:
        rec(
            "tag",
            "classification matches the catalog expectation",
            cert.tag == expected["tag"],
            got=cert.tag,
            want=expected["tag"],
        )
    if "c" in expected:
        rec(
            "constant",
            "fitted c matches the catalog expectation",
            abs(cert.c - expected["c"]) <= 1e-9 * dec.bracket_on.norm**2,
            got=cert.c,
        )
    if expected.get("nilsoliton_negative"):
        ncert = soliton_fit(dec.n_decomposition())
        rec(
            "nilsoliton-negative",
            "min over {c I + S(D)} of |Ric - c I - S(D)| > 1e-3",
            ncert.residual > 1e-3,
            residual=ncert.residual,
        )

    groups: Groups = {}
    if cert.is_soliton and cert.expanding:
        groups.update(_battery(dec, cert)[0])
    if dec.n_bracket.norm > 0:
        groups.update(_stratify(dec)[0])
    for group, records in groups.items():
        rec(
            group,
            _GROUP_ANCHORS[group],
            all(r.passed for r in records),
            **{r.name: r.value for r in records if not r.passed},
        )
    return checks


def run_verify_all(tol: float) -> Report:
    report = Report(command="verify-all", input_name="catalog", input_hash="", tolerance=tol)
    for name in sorted(cat.names()):
        report.checks.extend(_verify_one(name, tol))
    return report


def _emit(report: Report, args) -> int:
    if args.json:
        print(report.dumps())
        return report.exit_code
    if not args.quiet:
        for err in report.errors:
            print(f"error [{err['code']}] {err['detail']}")
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            extra = ""
            if check.value is not None:
                extra = f" value={check.value:.3e}"
            skipped = check.info.get("skipped")
            if skipped:
                status, extra = "skip", f" ({skipped})"
            print(f"[{status}] {check.name}{extra}")
        if report.classification:
            print(f"classification: {report.classification}")
        for key in ("c", "residual", "beta", "eigenvalues"):
            if key in report.results:
                print(f"{key}: {_fmt(report.results[key])}")
        if "document" in report.results:
            print(_json_text(report.results["document"]))
        if "catalog" in report.results:
            for name, row in report.results["catalog"].items():
                dims = f"({row['dim_k']},{row['dim_h']},{row['dim_n']})"
                print(f"{name:12s} dim {row['dim']:2d} {dims:10s} {row['description']}")
    elif not report.passed:
        for err in report.errors:
            print(f"error [{err['code']}] {err['detail']}", file=sys.stderr)
        for check in report.checks:
            if not check.passed:
                print(f"FAIL {check.name}", file=sys.stderr)
    return report.exit_code


def _fmt(v):
    if isinstance(v, np.ndarray):
        return np.array2string(v, precision=9, suppress_small=True)
    return f"{v:.9g}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later ``main`` call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=None, help="residual tolerance (env HOMSOL_TOL)"
    )
    common.add_argument("--json", action="store_true", help="emit the report as one JSON object")
    common.add_argument("--quiet", action="store_true", help="print failures only")

    ap = argparse.ArgumentParser(
        prog="homsol",
        description="Curvature and soliton structure of metric Lie algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, (help_, *_) in DOCUMENT_COMMANDS.items():
        if name == "extend":  # the listing has build before extend
            p = sub.add_parser("build", help="semidirect construction from parts", parents=[common])
            p.add_argument("document", help="construction JSON file")
        p = sub.add_parser(name, help=help_, parents=[common])
        p.add_argument("document", help="JSON file or catalog name")
    p = sub.choices["extend"]
    p.add_argument("--variant", required=True, choices=["nonunimodular", "restrict", "unimodular"])
    p.add_argument("--out", default=None, help="write the produced document here")

    p = sub.add_parser("catalog", help="list bundled algebras", parents=[common])
    p.add_argument("--dump", default=None, help="write all catalog documents to a directory")

    sub.add_parser("verify-all", help="run every check over the bundled catalog", parents=[common])
    return ap


# the exit code of a command whose reader closed standard output early: 128 + SIGPIPE
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    """Run one command; its exit code, EXIT_BROKEN_PIPE without a traceback when stdout's reader is gone."""
    args = build_parser().parse_args(argv)
    try:
        tol = _tolerance(args.tol)
        if args.command == "catalog":
            report = run_catalog(args.dump)
        elif args.command == "verify-all":
            report = run_verify_all(tol)
        elif args.command == "build":
            report = run_build(args.document, tol)
        else:
            doc = load(args.document)
            extra = DOCUMENT_COMMANDS[args.command][2](doc, args)
            report = run_document(args.command, doc, tol, *extra)
            if args.command == "extend" and args.out and "document" in report.results:
                try:
                    Path(args.out).write_text(_json_text(report.results["document"]) + "\n")
                except OSError as err:
                    raise DocumentError("out-not-writable", f"{args.out}: {err.strerror}") from None
    except DocumentError as err:
        print(f"error [{err.code}] {err.detail}", file=sys.stderr)
        return 2
    try:
        code = _emit(report, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left unwritten goes nowhere, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
