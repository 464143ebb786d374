import json
from dataclasses import replace

import numpy as np
import pytest

from homsol import soliton
from homsol.catalog import ext, fil, get, heis
from homsol.constructions import assemble_semidirect, build_semidirect
from homsol.decomposition import MetricDecomposition, decompose, sym
from homsol.soliton import (
    TAG_ALGEBRAIC,
    TAG_EINSTEIN,
    TAG_NONE,
    TAG_SEMI_ALGEBRAIC,
    SolitonCertificate,
    _canonical_derivation,
    _certificate,
    _classify,
    algebraic_soliton_equivalences,
    certificate_flags,
    f_operator_check,
    nilsoliton_fit,
    soliton_fit,
    stratum_compatibility_check,
    structure_battery,
)
from homsol import tensor
from homsol.tensor import (
    FIT_BLOCK_MIN_COLS,
    AlgebraTensor,
    _least_squares,
    derivation_algebra,
    pi_matrix,
)

from conftest import random_construction


def fit_oracle(ric, ders, c_fixed=None):
    """Dense least squares over {c I + S(D)} with an explicit design matrix."""
    n = ric.shape[0]
    cols = []
    if c_fixed is None:
        cols.append(np.eye(n).reshape(-1))
    for d in ders:
        cols.append((0.5 * (d + d.T)).reshape(-1))
    a = np.array(cols).T
    b = ric.reshape(-1) if c_fixed is None else (ric - c_fixed * np.eye(n)).reshape(-1)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(np.linalg.norm(a @ x - b))


# ---------------------------------------------------------------------------
# nilsoliton fits
# ---------------------------------------------------------------------------

def test_heis3_nilsoliton():
    cert = nilsoliton_fit(get("heis3").tensor())
    assert cert.c == pytest.approx(-1.5, abs=1e-9)
    assert np.allclose(cert.d1, np.diag([1.0, 1.0, 2.0]), atol=1e-9)
    assert cert.residual <= 1e-12
    assert cert.tag == "AlgebraicSoliton"


def test_fil4_nilsoliton():
    cert = nilsoliton_fit(get("fil4").tensor())
    assert cert.c == pytest.approx(-1.5, abs=1e-9)
    assert np.allclose(cert.d1, np.diag([0.5, 1.0, 1.5, 2.0]), atol=1e-9)
    assert cert.residual <= 1e-12


def test_heis3_r_nilsoliton():
    # central line ordered third: eigenvalue -c + 0 = 3/2 sits there
    cert = nilsoliton_fit(get("heis3_r").tensor())
    assert cert.c == pytest.approx(-1.5, abs=1e-9)
    assert np.allclose(cert.d1, np.diag([1.0, 1.0, 1.5, 2.0]), atol=1e-9)


def test_abelian_fit_is_flat():
    cert = nilsoliton_fit(AlgebraTensor(4))
    assert cert.c == 0.0
    assert np.allclose(cert.d1, 0.0)
    assert cert.tag == "Einstein"


def test_abelian_fit_with_imposed_constant():
    cert = nilsoliton_fit(AlgebraTensor(3), c_fixed=-2.0)
    assert np.allclose(cert.d1, 2.0 * np.eye(3))
    assert cert.residual <= 1e-12


def test_nilsoliton_rejects_non_nilpotent():
    with pytest.raises(Exception):
        nilsoliton_fit(get("so3").tensor())


def test_fit_matches_dense_oracle():
    for name in ("heis3", "fil4", "heis3_r", "nil7"):
        mu = get(name).tensor()
        cert = nilsoliton_fit(mu)
        from homsol.decomposition import MetricDecomposition

        ric = MetricDecomposition(mu, 0, 0, mu.dim).ricci().matrix
        want = fit_oracle(ric, derivation_algebra(mu))
        assert cert.residual == pytest.approx(want, abs=1e-9)


def test_nil7_is_not_a_nilsoliton():
    cert = nilsoliton_fit(get("nil7").tensor())
    assert cert.residual > 1e-3
    assert cert.tag == "NotDetected"


def test_fit_scaling_covariance():
    # ip -> s ip rescales c by 1/s and keeps the tag
    base = get("heis3").tensor()
    for s in (0.25, 2.0, 9.0):
        cert = nilsoliton_fit(base, ip=s * np.eye(3))
        assert cert.c == pytest.approx(-1.5 / s, rel=1e-9)
        assert cert.tag == "AlgebraicSoliton"


# ---------------------------------------------------------------------------
# full decomposition fits
# ---------------------------------------------------------------------------

def test_solv12_fit():
    dec = get("solv12").decomposition()
    cert = soliton_fit(dec)
    assert cert.c == pytest.approx(-5.0, abs=1e-9)
    assert np.allclose(sym(cert.d_p), np.diag([0.0, 2.0, -1.0]), atol=1e-9)
    assert cert.residual <= 1e-12
    assert cert.tag == "AlgebraicSoliton"
    assert certificate_flags(dec, cert)["solvsoliton-isometric"]


def test_hyp_fit_einstein():
    for n in (2, 5):
        cert = soliton_fit(get(f"hyp{n}").decomposition())
        assert cert.tag == "Einstein"
        assert cert.c == pytest.approx(-(n - 1.0), abs=1e-9)
        assert np.linalg.norm(sym(cert.d_p)) <= 1e-9


def test_so3_fit_einstein_positive():
    dec = get("so3").decomposition()
    cert = soliton_fit(dec)
    assert cert.tag == "Einstein"
    assert cert.c == pytest.approx(0.5, abs=1e-12)
    assert certificate_flags(dec, cert)["semisimple-Einstein"]


def test_cplxhyp2_fit():
    cert = soliton_fit(get("cplxhyp2").decomposition())
    assert cert.tag == "Einstein"
    assert cert.c == pytest.approx(-1.5, abs=1e-9)


def test_full_fit_scaling_covariance():
    dec = get("solv12").decomposition()
    for s in (0.5, 3.0):
        scaled = decompose(dec.bracket_on, dec.dim_k, dec.dim_h, dec.dim_n, ip=s * np.eye(dec.dim_p))
        cert = soliton_fit(scaled)
        assert cert.c == pytest.approx(-5.0 / s, rel=1e-9)
        assert cert.tag == "AlgebraicSoliton"


# ---------------------------------------------------------------------------
# structure battery
# ---------------------------------------------------------------------------

def test_battery_solv12():
    dec = get("solv12").decomposition()
    rep = structure_battery(dec, soliton_fit(dec))
    assert rep.applicable
    assert rep.all_pass
    for cond in rep.checks:
        assert cond.residual <= 1e-9


def test_battery_cplxhyp2():
    dec = get("cplxhyp2").decomposition()
    cert = soliton_fit(dec)
    rep = structure_battery(dec, cert)
    assert rep.all_pass
    # condition (iii)'s D1: the nilpotent part fitted at the certificate's constant
    d1 = nilsoliton_fit(dec.n_bracket, c_fixed=cert.c).d1
    assert np.allclose(d1, np.diag([1.0, 1.0, 2.0]), atol=1e-9)


def test_battery_lambda1_negative_control():
    # heis3 with h = span(e0, e1), n = span(e2): [h,h] lands in n
    dec = MetricDecomposition(get("heis3").tensor(), 0, 2, 1)
    cert = SolitonCertificate(
        c=-1.0,
        d_full=np.zeros((3, 3)),
        d1=np.zeros((1, 1)),
        residual=0.0,
        tag="SemiAlgebraicSoliton",
        derivation_defect=0.0,
        sym_derivation_defect=0.0,
        dim_h=2,
    )
    rep = structure_battery(dec, cert)
    assert not rep.condition("hh-inside-u").passed
    assert rep.condition("hh-inside-u").residual > 1e-6


def test_battery_not_applicable_for_nonexpanding():
    dec = get("so3").decomposition()
    rep = structure_battery(dec, soliton_fit(dec))
    assert not rep.applicable  # c > 0; computations still reported
    assert rep.condition("hh-inside-u").passed


# ---------------------------------------------------------------------------
# F-operator shape
# ---------------------------------------------------------------------------

def f_operator(dec, cert):
    """F = S(ad_p H + D_p), orthonormal frame."""
    return sym(dec.ad_mean_curvature()[dec.sp, dec.sp] + cert.d_p)


def test_f_check_cplxhyp2():
    dec = get("cplxhyp2").decomposition()
    cert = soliton_fit(dec)
    rep = f_operator_check(dec, cert)
    shape = rep.condition("f-operator-shape")
    assert not rep.skipped
    assert shape.info["branch"] == "nilpotent-part"
    assert shape.info["t"] == pytest.approx(0.5, abs=1e-12)
    # the two scalar formulas must agree: t = (|H|^2 + tr D_n) / (-1 + |beta|^2 dim n)
    h = dec.mean_curvature()
    nsq = dec.n_stratum().beta_norm_sq
    t_ratio = (h @ h + np.trace(cert.d_full[dec.sn, dec.sn])) / (-1.0 + nsq * dec.dim_n)
    assert t_ratio == pytest.approx(shape.info["t"], abs=1e-9)
    assert np.allclose(np.diag(f_operator(dec, cert)), [0.0, 1.0, 1.0, 2.0], atol=1e-9)
    assert rep.all_pass


def test_f_check_solv12_abelian_branch():
    dec = get("solv12").decomposition()
    rep = f_operator_check(dec, soliton_fit(dec))
    shape = rep.condition("f-operator-shape")
    assert shape.info["branch"] == "abelian-part"
    assert shape.info["t"] == pytest.approx(5.0, abs=1e-9)
    assert rep.condition("f-trace-identity").value <= 1e-9
    assert rep.all_pass


def test_f_trace_identity_values():
    # c tr F + tr F^2 on solv12: -5 * 10 + 50 = 0
    dec = get("solv12").decomposition()
    f = f_operator(dec, soliton_fit(dec))
    assert float(np.trace(f)) == pytest.approx(10.0, abs=1e-9)
    assert float(np.trace(f @ f)) == pytest.approx(50.0, abs=1e-9)


def test_f_check_empty_n():
    dec = get("so3").decomposition()
    rep = f_operator_check(dec, soliton_fit(dec))
    assert rep.condition("f-operator-shape").info["branch"] == "empty-n"
    assert rep.all_pass


def test_battery_fails_f_shape_when_f_is_off_the_label():
    # F = -(c/|beta|^2) E_beta is printed once, as f-operator-shape; a certificate
    # whose F is off the label still fails it among the battery's records
    from homsol.cli import _battery

    dec = get("cplxhyp2").decomposition()
    cert = soliton_fit(dec)
    d1 = cert.d1 + 1e-3 * np.diag([1.0, -1.0, 0.0])  # still a derivation of heis3
    off = replace(cert, d1=d1, d_full=_canonical_derivation(dec, d1))
    groups, _ = _battery(dec, off)
    failing = {r.name for records in groups.values() for r in records if not r.passed}
    assert "f-operator-shape" in failing
    assert f_operator_check(dec, cert).all_pass


def test_compatibility_refuses_a_certificate_without_d1():
    dec = get("cplxhyp2").decomposition()
    with pytest.raises(ValueError, match="carries no D1"):
        stratum_compatibility_check(dec, replace(soliton_fit(dec), d1=None))


# ---------------------------------------------------------------------------
# the seven equivalences
# ---------------------------------------------------------------------------

def test_equivalences_solv12_all_true():
    dec = get("solv12").decomposition()
    rep = algebraic_soliton_equivalences(dec, soliton_fit(dec))
    assert rep.all_agree
    assert rep.checks[0].info["verdict"]


def test_equivalences_on_catalog_expanding():
    for name in ("hyp3", "cplxhyp2", "heis3", "solv12"):
        dec = get(name).decomposition()
        cert = soliton_fit(dec)
        rep = algebraic_soliton_equivalences(dec, cert)
        assert rep.all_agree, (name, rep.checks[0].info["residuals"])


def test_equivalences_on_builder_instances(rng):
    for _ in range(25):
        data = random_construction(rng)
        res = build_semidirect(data)
        rep = algebraic_soliton_equivalences(res.decomposition, res.certificate)
        assert rep.all_agree, rep.checks[0].info["residuals"]


# ---------------------------------------------------------------------------
# compatibility checks
# ---------------------------------------------------------------------------

def test_compat_heis3():
    dec = get("heis3").decomposition()
    rep = stratum_compatibility_check(dec, soliton_fit(dec))
    assert rep.all_pass
    assert rep.condition("constant-from-label").passed  # c = -(1/4) * 2 * 3


def test_compat_cplxhyp2():
    dec = get("cplxhyp2").decomposition()
    rep = stratum_compatibility_check(dec, soliton_fit(dec))
    assert rep.all_pass
    # the |mu|^2-scalar variant fails here since |mu|^2 = 2 != 3 = |beta|^2
    assert rep.mu_scalar_variant_residual > 1e-3


def test_compat_skips_abelian_part():
    dec = get("solv12").decomposition()
    rep = stratum_compatibility_check(dec, soliton_fit(dec))
    assert rep.skipped


def test_a_nilpotent_part_below_tol_counts_as_abelian_everywhere():
    # cplxhyp2 with [e1, e2] = 1e-12 e3: |mu_n| <= tol |mu|, so n counts as abelian in the fit,
    # the battery's fit of n (over gl(n)), the F shape and the compatibility checks alike
    entry = get("cplxhyp2")
    entries = tuple((i, j, k, 1e-12 if (i, j) == (1, 2) else c) for i, j, k, c in entry.entries)
    dec = MetricDecomposition(AlgebraTensor(4, entries), 0, 1, 3)
    assert dec.n_abelian and dec.n_bracket.norm > 0.0
    assert len(dec.derivations_n()) == 9 and len(dec.n_decomposition().derivations_n()) == 6
    cert = soliton_fit(dec)
    assert cert.is_soliton
    assert structure_battery(dec, cert).all_pass
    f_check = f_operator_check(dec, cert)
    assert f_check.all_pass
    assert f_check.condition("f-operator-shape").info["branch"] == "abelian-part"
    assert stratum_compatibility_check(dec, cert).skipped


# ---------------------------------------------------------------------------
# the canonical fit's least squares, block by block
# ---------------------------------------------------------------------------

def fit_decompositions():
    """(label, decomposition) whose canonical fit has a design that splits into blocks."""
    # rank-deficient designs at h_7..h_17: Der(h_{2m+1}) meets so in u(m)
    generated = [heis(m) for m in range(3, 9)] + [fil(n) for n in (6, 10, 14)]
    for e in generated + [ext(m) for m in (3, 5, 7)]:
        yield e.name, MetricDecomposition(e.tensor(), e.dim_k, e.dim_h, e.dim_n)
    # an abelian n, whose family gl(n) holds I, the direction of c
    yield "abelian8", MetricDecomposition(AlgebraTensor(8), 0, 0, 8)
    hyp = tuple((0, j, j, 1.0) for j in range(1, 9))
    yield "hyp9", MetricDecomposition(AlgebraTensor(9, hyp), 0, 1, 8)


def test_block_least_squares_matches_lstsq(monkeypatch):
    designs = []

    def lstsq(a, b):
        designs.append((a, b))
        return np.linalg.lstsq(a, b, rcond=None)[0]

    blocked = 0
    for label, dec in fit_decompositions():
        cert = soliton._canonical_fit(dec)
        with monkeypatch.context() as patch:
            patch.setattr(soliton, "_least_squares", lstsq)
            want = soliton._canonical_fit(dec)
        a, b = designs[-1]
        blocked += a.shape[1] >= FIT_BLOCK_MIN_COLS
        # every sparse design, also those below FIT_BLOCK_MIN_COLS columns, through the block solver
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        with monkeypatch.context() as patch:
            patch.setattr(tensor, "FIT_BLOCK_MIN_COLS", 0)
            x = _least_squares(a, b)
        assert np.max(np.abs(x - x_ref)) <= 1e-12, label
        assert abs(cert.c - want.c) <= 1e-12, label
        assert np.max(np.abs(cert.d_full - want.d_full)) <= 1e-12, label
        assert np.max(np.abs(cert.d1 - want.d1)) <= 1e-12, label
        assert cert.tag == want.tag, label
    assert blocked >= 4


# ---------------------------------------------------------------------------
# fit optimality against the dense oracle on small instances
# ---------------------------------------------------------------------------

def test_full_fit_optimality_small():
    # the canonical fit is no worse than the fit over every derivation vanishing on k
    decs = [get(name).decomposition() for name in ("solv12", "heis3", "hyp3", "cplxhyp2")]
    for dec in decs + decompositions_with_isotropy():
        assert soliton_fit(dec).residual <= penalty_fit(dec).residual + 1e-9


def test_heis3_plus_line_central_last_ordering():
    # same algebra with the central line ordered last: fit is ordering-blind
    mu = AlgebraTensor(4, ((0, 1, 2, 1.0),))
    cert = nilsoliton_fit(mu)
    assert cert.c == pytest.approx(-1.5, abs=1e-9)
    assert np.allclose(cert.d1, np.diag([1.0, 1.0, 2.0, 1.5]), atol=1e-9)


def test_a_declared_n_that_is_not_the_nilradical_is_refused(tmp_path, capsys):
    # heis3 with n = span(e2) only: the canonical family pins D to the 1-dim
    # n-block and cannot reach a certificate, and n is not the nilradical, so
    # the split is refused where a soliton verdict is asked for
    from homsol.cli import main
    from homsol.decomposition import DecompositionError

    dec = MetricDecomposition(get("heis3").tensor(), 0, 2, 1)
    with pytest.raises(DecompositionError, match="n-not-nilradical"):
        soliton_fit(dec)
    doc = {"name": "heis3-misplit", "dim": 3, "dim_k": 0, "dim_h": 2, "dim_n": 1}
    doc["bracket"] = [{"i": 0, "j": 1, "k": 2, "c": 1.0}]
    path = tmp_path / "heis3-misplit.json"
    path.write_text(json.dumps(doc))
    for command in ("fit", "battery"):
        assert main([command, str(path), "--json"]) == 2, command
        report = json.loads(capsys.readouterr().out)
        assert [e["code"] for e in report["errors"]] == ["n-not-nilradical"], command
        assert not report["checks"] and not report["results"], command
    assert main(["ricci", str(path), "--json"]) == 0
    capsys.readouterr()
    # stratify asks for no certificate: as before, n = R carries no label
    assert main(["stratify", str(path), "--json"]) == 2
    assert [e["code"] for e in json.loads(capsys.readouterr().out)["errors"]] == ["no-stratum"]


def test_a_refused_split_runs_the_canonical_fit_once(tmp_path, capsys, monkeypatch):
    # the refusal is cached with the decomposition, so fit, battery and extend of one
    # document in one process fit the canonical family once between them
    from homsol import soliton
    from homsol.cli import main

    calls = []
    fit = soliton._canonical_fit

    def counted(dec, *args, **kwargs):
        calls.append(dec)
        return fit(dec, *args, **kwargs)

    monkeypatch.setattr(soliton, "_canonical_fit", counted)
    doc = {"name": "heis3-misplit", "dim": 3, "dim_k": 0, "dim_h": 2, "dim_n": 1}
    doc["bracket"] = [{"i": 0, "j": 1, "k": 2, "c": 1.0}]
    path = tmp_path / "heis3-misplit.json"
    path.write_text(json.dumps(doc))
    for argv in (["fit"], ["battery"], ["extend", "--variant", "unimodular"]):
        assert main([*argv, str(path), "--json"]) == 2, argv
        report = json.loads(capsys.readouterr().out)
        assert [e["code"] for e in report["errors"]] == ["n-not-nilradical"], argv
    assert len(calls) == 1


def test_sphere_fit_einstein_with_isotropy():
    mu = AlgebraTensor(3, ((0, 1, 2, 1.0), (0, 2, 1, -1.0), (1, 2, 0, 1.0)))
    dec = MetricDecomposition(mu, 1, 2, 0)
    cert = soliton_fit(dec)
    assert cert.tag == "Einstein"
    assert cert.c == pytest.approx(1.0, abs=1e-9)
    assert certificate_flags(dec, cert)["semisimple-Einstein"]
    rep = structure_battery(dec, cert)
    assert not rep.applicable  # c > 0
    assert all(c.passed for c in rep.checks)


def test_classify_nan_residual_is_not_detected():
    ric = -1.5 * np.eye(3)
    assert _classify(ric, -1.5, np.nan, 0.0, 0.0, 1.0, 1e-9) == TAG_NONE
    assert _classify(ric, -1.5, 0.0, np.nan, 0.0, 1.0, 1e-9) == TAG_NONE


def test_classify_a_non_symmetric_derivation_is_semi_algebraic():
    # residual and |pi(D) mu| in bound, Ric - c I away from 0, |pi(S(D)) mu| = 1 out of bound
    ric = np.diag([-1.0, -2.0])
    assert _classify(ric, -1.0, 0.0, 0.0, 1.0, 1.0, 1e-9) == TAG_SEMI_ALGEBRAIC
    assert _classify(ric, -1.0, 0.0, 0.0, 0.0, 1.0, 1e-9) == TAG_ALGEBRAIC


def test_the_einstein_tag_is_held_to_tol_and_never_looser_than_the_residual_bound():
    # |Ric - c I| <= min(tol, SOLITON_RESIDUAL_TOL) max(|Ric|, |c|, |mu|^2): a gap of 5e-8
    # relative is Einstein only at a tol above it, and a gap of 5e-6 at no tol
    einstein = {5e-8: {1e-7, 1e-5, 0.5}, 5e-6: set()}
    for gap, tols in einstein.items():
        ric = -1.5 * np.eye(3)
        ric[0, 0] += 1.5 * gap
        for tol in (1e-9, 1e-7, 1e-5, 0.5):
            expected = TAG_EINSTEIN if tol in tols else TAG_ALGEBRAIC
            assert _classify(ric, -1.5, 0.0, 0.0, 0.0, 1.0, tol) == expected, (gap, tol)


# ---------------------------------------------------------------------------
# the fit over every derivation vanishing on k, spanned independently
# ---------------------------------------------------------------------------

def constrained_derivations_by_penalty(dec, rank_tol=1e-9):
    """Kernel of pi stacked with weighted rows forcing D = 0 on the k row and column."""
    n = dec.dim
    rows = [pi_matrix(dec.bracket_on)]
    w = max(1.0, dec.bracket_on.norm)
    for z in range(dec.dim_k):
        for a in range(n):
            for idx in (a * n + z, z * n + a):
                r = np.zeros((1, n * n))
                r[0, idx] = w
                rows.append(r)
    _, s, vh = np.linalg.svd(np.vstack(rows))
    cut = rank_tol * max(1.0, s[0] if len(s) else 0.0)
    return vh[np.concatenate([s, np.zeros(vh.shape[0] - len(s))]) <= cut]


def penalty_fit(dec):
    """Dense least squares of Ric over {c I + S(D_p)}, D in the penalty-spanned family, tagged."""
    basis = constrained_derivations_by_penalty(dec).reshape(-1, dec.dim, dec.dim)
    cols = [np.eye(dec.dim_p).reshape(-1)] + [sym(b[dec.sp, dec.sp]).reshape(-1) for b in basis]
    x, *_ = np.linalg.lstsq(np.array(cols).T, dec.ricci().matrix.reshape(-1), rcond=None)
    d = np.tensordot(x[1:], basis, axes=1)
    return _certificate(dec, float(x[0]), d, sym(d[dec.sn, dec.sn]))


def decompositions_with_isotropy():
    sphere = AlgebraTensor(3, ((0, 1, 2, 1.0), (0, 2, 1, -1.0), (1, 2, 0, 1.0)))
    decs = [MetricDecomposition(sphere, 1, 2, 0)]
    rng = np.random.default_rng(2024)
    while len(decs) < 6:
        data = random_construction(rng)
        if data.dim_k:
            decs.append(assemble_semidirect(data))
    return decs


# n, its diagonal derivations (rows) and a skew derivation commuting with
# those whose first two entries agree
SOLVABLE_MENU = (
    (AlgebraTensor(2), np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])),
    (AlgebraTensor(3), np.eye(3), np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
    (
        AlgebraTensor(3, ((0, 1, 2, 1.0),)),
        np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ),
    (
        AlgebraTensor(4, ((0, 1, 2, 1.0), (0, 2, 3, 1.0))),
        np.array([[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 1.0]]),
        np.zeros((4, 4)),
    ),
)


def random_solvable_decomposition(rng):
    """h = R or R^2 acting on n by torus derivations plus a skew part; half with a random ip.

    Y_0 acts by A_0 = T_0 + t K, T_0 a random torus derivation and K the
    skew one (zero on fil4); Y_1 by a torus derivation T_1 whose first two
    entries agree where K is not zero, so that it commutes with A_0 and h is
    abelian.
    """
    nil, torus, skew = SOLVABLE_MENU[rng.integers(0, len(SOLVABLE_MENU))]
    dim_h, dim_n = int(rng.integers(1, 3)), nil.dim
    ops = [np.diag(rng.standard_normal(len(torus)) @ torus) + rng.standard_normal() * skew]
    if dim_h == 2:
        diag = rng.standard_normal(len(torus)) @ torus
        if skew.any():
            diag[:2] = diag[:2].mean()
        ops.append(np.diag(diag))
    dim = dim_h + dim_n
    dense = np.zeros((dim, dim, dim))
    dense[dim_h:, dim_h:, dim_h:] = nil.dense
    for a, op in enumerate(ops):
        dense[a, dim_h:, dim_h:] = op.T  # [Y_a, X_x] = sum_y op[y, x] X_y
        dense[dim_h:, a, dim_h:] = -op.T
    ip = None
    if rng.random() < 0.5:
        ip = np.zeros((dim, dim))
        for block in (slice(0, dim_h), slice(dim_h, dim)):
            m = rng.standard_normal((block.stop - block.start,) * 2)
            ip[block, block] = m @ m.T + np.eye(len(m))
    return decompose(AlgebraTensor.from_dense(dense), 0, dim_h, dim_n, ip=ip)


def test_the_canonical_family_certifies_what_the_full_family_certifies():
    # wherever n is the nilradical and the canonical fit finds no soliton, the
    # fit over every derivation does not find one either: the refusal of other
    # splits loses no certificate
    rng = np.random.default_rng(2112)
    failures = 0
    for _ in range(200):
        dec = random_solvable_decomposition(rng)
        if not dec.n_is_nilradical:
            continue
        if soliton_fit(dec).is_soliton:
            continue
        failures += 1
        assert not penalty_fit(dec).is_soliton
    assert failures >= 150


def test_each_decomposition_holds_one_certificate():
    # soliton_fit is made once per decomposition; the shared certificate's
    # matrices are read-only, and it and its flags equal a cold computation's
    from homsol import decomposition

    for name in ("so3", "solv12", "cplxhyp2", "heis3", "nil7"):
        dec = get(name).decomposition()
        cert = soliton_fit(dec)
        assert soliton_fit(dec) is cert, name
        for matrix in (cert.d_full, cert.d1):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0
        decomposition._validated.cache_clear()
        cold_dec = get(name).decomposition()
        assert cold_dec is not dec, name
        cold = soliton_fit(cold_dec)
        assert cold is not cert, name
        assert certificate_flags(cold_dec, cold) == certificate_flags(dec, cert), name
        assert (cold.tag, cold.c) == (cert.tag, cert.c), name
        assert np.array_equal(cold.d_full, cert.d_full) and np.array_equal(cold.d1, cert.d1), name
    # a nilpotent decomposition is its own nilpotent part: one certificate serves both
    dec = get("heis3").decomposition()
    assert soliton_fit(dec.n_decomposition()) is soliton_fit(dec)


# the battery's records that its fit of the nilpotent part, condition (iii), feeds
NILPOTENT_PART_RECORDS = {"nilpotent-part-soliton": 2, "ricci-reassembly": 2, "reassembled-derivation": 3}


def nilpotent_decompositions():
    """(name, dec) for every catalog entry and ladder document without a k or h block."""
    from homsol.catalog import names
    from homsol.io import document_from_dict, validate
    from test_compare_reports import compare_reports

    decs = [(name, get(name).decomposition()) for name in sorted(names())]
    decs += [(raw["name"], validate(document_from_dict(raw))[0]) for raw in compare_reports.ladder_documents()]
    return [(name, dec) for name, dec in decs if dec.dim_k + dec.dim_h == 0]


def forced_nilpotent_part_records(dec, c):
    """The values of NILPOTENT_PART_RECORDS from a refit of the nilpotent part at c."""
    nfit = soliton._canonical_fit(dec, c, dec.derivations_n())
    d_full = _canonical_derivation(dec, nfit.d1)
    return {
        "nilpotent-part-soliton": nfit.residual,
        "ricci-reassembly": soliton._certificate_residual(dec, c, d_full),
        "reassembled-derivation": dec.derivation_residual_on(d_full),
    }


def test_the_battery_of_a_nilpotent_algebra_reads_its_certificate(monkeypatch):
    # on g = n at the certificate's own c, condition (iii) is the canonical fit:
    # the battery reads the cached certificate, and its records equal a refit's
    fits = []
    canonical_fit = soliton._canonical_fit

    def counted(*args, **kwargs):
        fits.append(args[0])
        return canonical_fit(*args, **kwargs)

    cases = nilpotent_decompositions()
    assert len(cases) >= 25
    for name, dec in cases:
        cert = soliton_fit(dec)
        monkeypatch.setattr(soliton, "_canonical_fit", counted)
        records = {r.name: r for r in structure_battery(dec, cert).checks}
        monkeypatch.setattr(soliton, "_canonical_fit", canonical_fit)
        assert not fits, name
        for record, value in forced_nilpotent_part_records(dec, cert.c).items():
            degree = NILPOTENT_PART_RECORDS[record]
            assert abs(records[record].value - value) <= 1e-12 * dec.bracket_on.norm**degree, (name, record)
            assert records[record].passed == dec.check(record, "", value, degree).passed, (name, record)


def test_a_certificate_at_another_constant_is_refitted():
    dec = get("heis3").decomposition()
    cert = soliton_fit(dec)
    shifted = replace(cert, c=cert.c * (1.0 + 1e-3))
    reused = {r.name: r.value for r in structure_battery(dec, cert).checks}
    refit = {r.name: r.value for r in structure_battery(dec, shifted).checks}
    assert refit["nilpotent-part-soliton"] != reused["nilpotent-part-soliton"]
    forced = forced_nilpotent_part_records(dec, shifted.c)
    assert {name: refit[name] for name in NILPOTENT_PART_RECORDS} == forced


# ---------------------------------------------------------------------------
# the closed form D1 = Ric_n - c I against the least-squares fit over Der(n)
# ---------------------------------------------------------------------------

def test_the_closed_form_agrees_with_the_canonical_fit():
    # it certifies exactly where the fit does, with its tag and c, at three bracket scales
    from homsol import catalog

    entries = [catalog.get(name) for name in catalog.names()] + catalog.ladder()
    assert len(entries) == 17 + 33
    routes = set()
    for entry in entries:
        for s in (1e-4, 1.0, 1e4):
            dec = decompose(entry.tensor().scale(s), entry.dim_k, entry.dim_h, entry.dim_n)
            closed, fitted = soliton._closed_form(dec), soliton._canonical_fit(dec)
            assert (closed is not None) == fitted.is_soliton, (entry.name, s)
            if closed is not None:
                assert closed.tag == fitted.tag, (entry.name, s)
                scale = max(abs(fitted.c), dec.bracket_on.norm**2)
                assert abs(closed.c - fitted.c) <= 1e-12 * scale, (entry.name, s)
            routes.add(closed and closed.c_from)
    assert routes == {"h-block", "trace", None}


def perturbed_decomposition(entry, eps: float, tol: float = soliton.DEFAULT_TOL):
    """entry's decomposition with the metric on n moved by eps: ip = I + eps S, |S| = 1 symmetric.

    A near-soliton: the bracket stays a Lie bracket, and the metric is about
    eps from the soliton one.
    """
    s = sym(np.random.default_rng(7).standard_normal((entry.dim_n, entry.dim_n)))
    ip = np.eye(entry.dim_h + entry.dim_n)
    ip[entry.dim_h :, entry.dim_h :] += eps * s / np.linalg.norm(s)
    return decompose(entry.tensor(), entry.dim_k, entry.dim_h, entry.dim_n, ip=ip, tol=tol)


def test_a_near_soliton_gets_the_canonical_fits_tag():
    # the closed form certifies only what the least squares over Der(n) certifies too
    routes = set()
    for entry in (heis(4), ext(3), ext(7), fil(6), fil(10), fil(14)):
        for eps in (1e-10, 1e-8, 1e-6, 1e-4):
            dec = perturbed_decomposition(entry, eps)
            cert, fitted = soliton._certify(dec), soliton._canonical_fit(dec)
            assert cert.tag == fitted.tag, (entry.name, eps)
            routes.add((cert.family, cert.is_soliton))
    assert routes == {("closed-form", True), ("canonical", True), ("canonical", False)}


def test_the_nilpotent_part_check_holds_a_near_soliton_to_tol():
    # condition (iii) is the fit at the certificate's c, held to tol |mu|^2, whenever
    # D1 = Ric_n - c I is a derivation only to within the perturbation
    for entry in (fil(8), ext(3)):
        for eps, tol in ((0.0, 1e-9), (1e-7, 1e-9), (1e-11, 1e-13)):
            dec = perturbed_decomposition(entry, eps, tol)
            cert = soliton_fit(dec)
            record = structure_battery(dec, cert).condition("nilpotent-part-soliton")
            if not eps:
                assert record.passed and record.info["family"] == "closed-form", entry.name
                continue
            # on g = n the battery reads soliton_fit's certificate, the fit at its own c
            ndec = dec.n_decomposition()
            fitted = soliton._canonical_fit(ndec, None if ndec is dec else cert.c, dec.derivations_n())
            assert not record.passed, (entry.name, eps)
            assert record.info["family"] == "canonical", (entry.name, eps)
            assert record.value == fitted.residual, (entry.name, eps)


def rotated_n_document(entry, seed: int) -> dict:
    """entry's document with n written in a random orthonormal basis, the QR factor of a Gaussian."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((entry.dim_n, entry.dim_n)))
    frame = np.eye(entry.dim)
    frame[entry.dim - entry.dim_n :, entry.dim - entry.dim_n :] = q
    mu = entry.tensor().map_basis(frame)
    dims = {"dim": entry.dim, "dim_k": entry.dim_k, "dim_h": entry.dim_h, "dim_n": entry.dim_n}
    bracket = [{"i": i, "j": j, "k": k, "c": c} for i, j, k, c in mu.entries]
    return {"name": f"{entry.name}-rotated-{seed}", **dims, "bracket": bracket}


@pytest.mark.usefixtures("cold_commands")
def test_fit_in_a_generic_basis_needs_no_derivation_algebra(tmp_path, capsys, monkeypatch):
    # a nilsoliton, or an extension of one, listed in a rotated basis of n or with an inner
    # product is certified in closed form, with the adapted basis's tag and c
    from homsol import cli
    from homsol.decomposition import orthonormal_frame

    from test_compare_reports import count_calls

    cases = []  # (document, tag and c of the canonical fit in an adapted basis)
    for entry in (heis(8), fil(14), ext(7)):
        adapted = soliton._canonical_fit(entry.decomposition())
        cases += [(rotated_n_document(entry, seed), adapted) for seed in range(5)]
    lower = np.array([[1.0, 0.0, 0.0], [0.7, 1.3, 0.0], [0.2, -0.4, 0.9]])
    heis3 = get("heis3")
    listed = {"name": "heis3-ip", "dim": 3, "dim_k": 0, "dim_h": 0, "dim_n": 3}
    listed["bracket"] = [{"i": i, "j": j, "k": k, "c": c} for i, j, k, c in heis3.entries]
    listed["ip"] = (lower @ lower.T).tolist()
    frame = orthonormal_frame(lower @ lower.T)
    cases.append((listed, soliton._canonical_fit(decompose(heis3.tensor().map_basis(frame), 0, 0, 3))))

    calls = count_calls(monkeypatch, {"der": tensor.derivation_algebra})
    for doc, adapted in cases:
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["fit", str(path), "--json"]) == 0, doc["name"]
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == adapted.tag, doc["name"]
        assert report["results"]["c"] == pytest.approx(adapted.c, rel=1e-12), doc["name"]
        route = report["checks"][0]["info"]
        assert route["family"] == "closed-form", doc["name"]
        assert route["derivation_defect"] <= 1e-9 * route["derivation_bound"], doc["name"]
    assert calls["der"] == 0
