"""Operations carried through the CLI, and their checks against the oracle.

An operation is one document (fit, battery and stratify --json) or one
construction (build, read back and fit; three extends, each read back and
fitted), run in-process through `homsol.cli.main([...])` on files the
benchmark wrote.  Only the CLI calls are timed; every JSON output is then
parsed and checked outside the timed interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

import oracle as orc
import workloads as wl


class Checker:
    """Collects oracle disagreements; the run is correct when there are none."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str):
        if not ok and len(self.problems) < 20:
            self.problems.append(what)
        elif not ok:
            self.problems.append("")

    def close(self, a: float, b: float, rel: float, what: str):
        self.expect(abs(a - b) <= rel * max(1.0, abs(b)), f"{what}: {a!r} vs {b!r}")


class OpFailed(Exception):
    """The CLI raised or exited through argparse; the operation did not complete."""


class Runner:
    """Runs CLI calls in this process and adds their wall time to op_time."""

    def __init__(self, cli, workdir: str):
        self.cli = cli
        self.workdir = workdir
        self.op_time = 0.0
        self.io_time = 0.0  # the benchmark's own file writes and reads

    def call(self, argv: list[str]) -> tuple[int, dict]:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as err:  # an operation that fails is counted, not fatal
            raise OpFailed(f"{argv[0]}: {type(err).__name__}: {err}") from None
        finally:
            self.op_time += time.perf_counter() - start
        text = buf.getvalue()
        return rc, (json.loads(text) if text.strip() else {})

    def write(self, name: str, payload: dict) -> str:
        start = time.perf_counter()
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        self.io_time += time.perf_counter() - start
        return path

    def read(self, path: str) -> dict:
        start = time.perf_counter()
        with open(path) as fh:
            doc = json.load(fh)
        self.io_time += time.perf_counter() - start
        return doc


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

def doc_expectation(case: wl.DocCase):
    if case.size == 0:
        return orc.catalog_expectation(case.family)
    return orc.ladder_expectation(case.family, case.size)


def check_certificate(chk: Checker, what: str, doc: dict, fit: dict, tag: str, c_want):
    """Recompute Ric - c I - S(D_p) and pi(D) mu from a `fit` report."""
    t = orc.doc_tensor(doc)
    dk = doc["dim_k"]
    ric = orc.reductive_ricci(t, dk)
    res = fit["results"]
    c = float(res["c"])
    d_full = np.asarray(res["derivation"], dtype=float)
    chk.expect(fit["classification"] == tag, f"{what} tag {fit['classification']} != {tag}")
    if c_want is not None:
        chk.close(c, c_want, orc.IDENTITY_TOL, f"{what} c")
    scale = max(1.0, orc.frob(ric))
    resid = orc.certificate_residual(ric, c, d_full, dk)
    bscale = max(1.0, orc.frob(t))
    der = orc.pi_defect(d_full, t)
    if tag in orc.SOLITON_TAGS:
        chk.expect(resid <= orc.SOLITON_TOL * scale, f"{what} residual {resid:.3e}")
        chk.expect(der <= orc.SOLITON_TOL * bscale, f"{what} derivation defect {der:.3e}")
        chk.close(float(res["residual"]), resid, 1e-7, f"{what} reported residual")
    else:
        chk.expect(
            resid > orc.SOLITON_TOL * scale or der > orc.SOLITON_TOL * bscale,
            f"{what} NotDetected but the certificate holds",
        )
    if tag == orc.EINSTEIN:
        gap = orc.frob(ric - c * np.eye(ric.shape[0]))
        chk.expect(gap <= orc.SOLITON_TOL * scale, f"{what} not Einstein ({gap:.3e})")
    if tag == orc.ALGEBRAIC:
        sd = orc.pi_defect(orc.sym(d_full), t)
        chk.expect(sd <= orc.SOLITON_TOL * bscale, f"{what} S(D) not a derivation ({sd:.3e})")
    return c, ric


def n_block(doc: dict):
    """(dim_n, entries) of the bracket's n x n -> n part, re-indexed from 0."""
    off = doc["dim_k"] + doc["dim_h"]
    entries = [
        (e["i"] - off, e["j"] - off, e["k"] - off, e["c"])
        for e in doc["bracket"]
        if min(e["i"], e["j"], e["k"]) >= off
    ]
    return doc["dim_n"], entries


def check_stratify(chk: Checker, what: str, doc: dict, rc: int, rep: dict, nilsoliton: bool):
    dim_n, entries = n_block(doc)
    if not entries:
        codes = [e["code"] for e in rep.get("errors", [])]
        chk.expect(rc == 2 and codes == ["no-stratum"], f"{what} stratify rc {rc} {codes}")
        return
    chk.expect(rc == 0 and rep["passed"], f"{what} stratify rc {rc}")
    res = rep["results"]
    beta_raw = np.asarray(res["beta_raw"], dtype=float)
    chk.expect(abs(float(np.sum(beta_raw)) + 1.0) <= 1e-9, f"{what} tr beta != -1")
    defect = orc.label_certificate_defect(entries, dim_n, beta_raw)
    chk.expect(defect <= 1e-8, f"{what} beta is not the min-norm point ({defect:.3e})")
    chk.expect(
        np.allclose(np.sort(beta_raw), np.asarray(res["beta"]), atol=1e-12),
        f"{what} beta is not sorted beta_raw",
    )
    chk.close(float(res["beta_norm_sq"]), float(beta_raw @ beta_raw), 1e-9, f"{what} |beta|^2")
    if nilsoliton:
        spec = orc.moment_spectrum(orc.dense(dim_n, entries))
        chk.expect(
            np.allclose(np.sort(beta_raw), spec, atol=1e-8),
            f"{what} beta differs from the spectrum of m(mu)",
        )
        chk.expect(res["nice_position"] is True, f"{what} not in nice position")


def doc_op(run: Runner, chk: Checker, case: wl.DocCase):
    """fit, battery and stratify --json on one document."""
    path = run.write(case.doc["name"], case.doc)
    rc_fit, fit = run.call(["fit", path, "--json"])
    rc_bat, bat = run.call(["battery", path, "--json"])
    rc_str, strat = run.call(["stratify", path, "--json"])

    what = case.doc["name"]
    tag, c_unit = doc_expectation(case)
    want_rc = 0 if tag != orc.NONE else 1
    chk.expect(rc_fit == want_rc, f"{what} fit rc {rc_fit}")
    c_want = None if c_unit is None else c_unit * case.scale**2
    c, _ = check_certificate(chk, what, case.doc, fit, tag, c_want)
    chk.expect(rc_bat == want_rc and bat["passed"] == (want_rc == 0), f"{what} battery rc {rc_bat}")
    chk.expect(bat["classification"] == tag, f"{what} battery tag {bat['classification']}")
    chk.close(float(bat["results"]["c"]), c, 1e-12, f"{what} battery c")
    check_stratify(chk, what, case.doc, rc_str, strat, nilsoliton=tag != orc.NONE)


def predicted_ricci(case: wl.ConstructionCase) -> np.ndarray:
    """Ric = c I + diag(-S(ad_u H|_h), -S(theta(H)) + D1), <H, Y> = tr theta(Y)."""
    dk, dh, dn = case.dim_k, case.dim_h, case.dim_n
    du = dk + dh
    h = np.array([np.trace(case.theta[dk + a]) for a in range(dh)])
    tu = orc.dense(du, case.u_entries)
    ad_u_h = np.einsum("a,ajk->kj", h, tu[dk:])  # ad H on u, column j = [H, e_j]
    theta_h = np.einsum("a,aij->ij", h, case.theta[dk:])
    out = case.c * np.eye(dh + dn)
    out[:dh, :dh] -= orc.sym(ad_u_h[dk:, dk:])
    out[dh:, dh:] += -orc.sym(theta_h) + case.d1
    return out


def check_written_doc(chk: Checker, what: str, run: Runner, path: str, c_in: float, tags: tuple):
    """Read back a document the program produced, fit it, and check the fit."""
    doc = run.read(path)
    rc, fit = run.call(["fit", path, "--json"])
    chk.expect(rc == 0, f"{what} refit rc {rc}")
    ric = orc.reductive_ricci(orc.doc_tensor(doc), doc["dim_k"])
    flat = orc.frob(ric) == 0.0  # every c fits a flat metric; only the tag is fixed
    if tags == (orc.EINSTEIN,) and not flat:
        gap = orc.frob(ric - c_in * np.eye(ric.shape[0]))
        chk.expect(gap <= orc.IDENTITY_TOL * max(1.0, orc.frob(ric)), f"{what} Ric != c I ({gap:.3e})")
    tag = fit["classification"]
    chk.expect(tag in tags, f"{what} refit tag {tag}")
    check_certificate(chk, what + " refit", doc, fit, tag, None if flat else c_in)
    return doc


def construction_op(run: Runner, chk: Checker, case: wl.ConstructionCase):
    """build, read back and fit; extend (nonunimodular, restrict, unimodular) and fit."""
    name = case.raw["name"]
    rc, built = run.call(["build", run.write(name, case.raw), "--json"])
    chk.expect(rc == 0, f"{name} build rc {rc}")
    pred = predicted_ricci(case)
    scale = max(1.0, orc.frob(pred))
    res = built["results"]
    chk.close(float(res["c"]), case.c, 1e-12, f"{name} build c")
    gap = orc.frob(np.asarray(res["predicted_ricci"]) - pred)
    chk.expect(gap <= orc.IDENTITY_TOL * scale, f"{name} predicted Ricci differs ({gap:.3e})")
    einstein = orc.frob(pred - case.c * np.eye(pred.shape[0])) <= orc.IDENTITY_TOL * scale
    want = orc.EINSTEIN if einstein else orc.ALGEBRAIC
    chk.expect(built["classification"] == want, f"{name} build tag {built['classification']}")
    built_path = run.write(name + "-built", res["document"])
    doc = check_written_doc(chk, f"{name} built", run, built_path, case.c, (want,))
    gap = orc.frob(orc.reductive_ricci(orc.doc_tensor(doc), doc["dim_k"]) - pred)
    chk.expect(gap <= orc.IDENTITY_TOL * scale, f"{name} built Ricci != prediction ({gap:.3e})")

    targets = [("nonunimodular", built_path), ("restrict", built_path)]
    if case.n_entries:
        nil = wl.document(name + "-nil", 0, 0, case.dim_n, case.n_entries)
        targets.append(("unimodular", run.write(name + "-nil", nil)))
    for variant, src in targets:
        out_path = os.path.join(run.workdir, f"{name}-{variant}.json")
        rc, ext = run.call(["extend", f"--variant={variant}", src, "--out", out_path, "--json"])
        what = f"{name} extend {variant}"
        chk.expect(rc == 0, f"{what} rc {rc}")
        tags = (orc.EINSTEIN, orc.ALGEBRAIC) if variant == "restrict" else (orc.EINSTEIN,)
        chk.expect(ext["classification"] in tags, f"{what} tag {ext['classification']}")
        out_doc = check_written_doc(chk, what, run, out_path, case.c, tags)
        chk.expect(out_doc == ext["results"]["document"], f"{what} --out differs from the report")


# ---------------------------------------------------------------------------
# checks after the timed region
# ---------------------------------------------------------------------------

def exact_checks(workload: str, chk: Checker, first_round):
    """Exact (sympy) and nullspace-dimension checks, run once per run."""
    from homsol.tensor import AlgebraTensor, derivation_algebra

    if workload == "catalog-sweep":
        _, _, dn, entries = wl.catalog_shape("nil7")
        basis = orc.exact_derivations(dn, entries)
        chk.expect(orc.all_strictly_triangular(basis), "nil7 has a derivation that is not nilpotent")
    elif workload == "derivation-ladder":
        for n in wl.UNIT_N:
            chk.expect(
                orc.no_diagonal_soliton(n, wl.fil_entries(n, unit=True)),
                f"unit L_{n}: a diagonal c I + D fits",
            )
        for family, size in [("heis", m) for m in range(1, 5)] + [("unit", n) for n in range(5, 10)]:
            _, _, dn, entries = wl.ladder_shape(family, size)
            got = len(orc.exact_derivations(dn, [(i, j, k, int(c)) for i, j, k, c in entries]))
            chk.expect(got == orc.der_dim_closed_form(family, size), f"exact dim Der {family}{size} = {got}")
        for case in first_round:
            want = orc.der_dim_closed_form(case.family, case.size)
            if want is None:
                continue
            d = case.doc
            mu = AlgebraTensor(d["dim"], tuple((e["i"], e["j"], e["k"], e["c"]) for e in d["bracket"]))
            got = derivation_algebra(mu).shape[0]
            chk.expect(got == want, f"derivation_algebra dim {d['name']} = {got}, want {want}")
