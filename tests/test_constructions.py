from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from homsol.catalog import get
from homsol.constructions import (
    ConstructionData,
    ConstructionError,
    _is_reductive,
    assemble_semidirect,
    build_semidirect,
    einstein_extension_unimodular,
    einstein_from_nonunimodular,
    restrict_to_unimodular_kernel,
    validate_construction,
)
from homsol.decomposition import MetricDecomposition
from homsol.soliton import SolitonCertificate, soliton_fit, structure_battery
from homsol.tensor import DEFAULT_TOL, AlgebraTensor, jacobi_residual

from conftest import random_construction, random_lambda1zero


def solv12_data(c=-5.0):
    return ConstructionData(
        n_bracket=AlgebraTensor(2),
        c=c,
        d1=-c * np.eye(2),
        u_bracket=AlgebraTensor(1),
        dim_k=0,
        theta=np.array([np.diag([1.0, 2.0])]),
    )


def heis3_extension_data():
    return ConstructionData(
        n_bracket=AlgebraTensor(3, ((0, 1, 2, 1.0),)),
        c=-1.5,
        d1=np.diag([1.0, 1.0, 2.0]),
        u_bracket=AlgebraTensor(1),
        dim_k=0,
        theta=np.array([0.5 * np.diag([1.0, 1.0, 2.0])]),
    )


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------

def test_build_solv12():
    res = build_semidirect(solv12_data())
    assert res.prediction_residual <= 1e-9
    assert np.allclose(res.decomposition.ricci().matrix, np.diag([-5.0, -3.0, -6.0]), atol=1e-9)
    assert res.certificate.tag == "AlgebraicSoliton"


def test_build_heis3_extension_is_einstein():
    res = build_semidirect(heis3_extension_data())
    assert res.certificate.tag == "Einstein"
    assert np.allclose(res.decomposition.ricci().matrix, -1.5 * np.eye(4), atol=1e-9)
    assert res.prediction_residual <= 1e-9


def test_build_refuses_so3_with_negative_constant():
    # Ric_u = I/2 on so(3) cannot equal c I with c < 0 when theta = 0
    data = ConstructionData(
        n_bracket=AlgebraTensor(2),
        c=-1.0,
        d1=np.eye(2),
        u_bracket=get("so3").tensor(),
        dim_k=0,
        theta=np.zeros((3, 2, 2)),
    )
    with pytest.raises(ConstructionError) as err:
        build_semidirect(data)
    assert any(v.code == "c3-reductive-ricci" for v in err.value.violations)


def test_build_refuses_non_derivation_theta():
    data = ConstructionData(
        n_bracket=AlgebraTensor(3, ((0, 1, 2, 1.0),)),
        c=-1.5,
        d1=np.diag([1.0, 1.0, 2.0]),
        u_bracket=AlgebraTensor(1),
        dim_k=0,
        theta=np.array([np.eye(3)]),  # identity is not a derivation of heis3
    )
    dec, violations = validate_construction(data)
    assert dec is None
    assert [v.code for v in violations] == ["jacobi"]


def test_build_refuses_non_homomorphism_theta():
    # so(3) acting on R^3 by twice its rotations: derivations of abelian n, but
    # [2A, 2B] = 4 [A, B] != 2 [A, B], so the assembled bracket breaks Jacobi
    rotations = np.zeros((3, 3, 3))
    for a, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        rotations[a, j, i], rotations[a, i, j] = 1.0, -1.0
    data = ConstructionData(
        n_bracket=AlgebraTensor(3),
        c=-1.0,
        d1=np.eye(3),
        u_bracket=get("so3").tensor(),
        dim_k=0,
        theta=2.0 * rotations,
    )
    dec, violations = validate_construction(data)
    assert dec is None
    assert [v.code for v in violations] == ["jacobi"]


def test_build_refuses_non_skew_isotropy():
    # k = R acting on abelian R^2 by a symmetric matrix: a Lie algebra, but (c1) fails
    data = ConstructionData(
        n_bracket=AlgebraTensor(2),
        c=-1.0,
        d1=np.eye(2),
        u_bracket=AlgebraTensor(1),
        dim_k=1,
        theta=np.array([np.diag([1.0, 2.0])]),
    )
    dec, violations = validate_construction(data)
    assert dec is None
    assert [v.code for v in violations] == ["isotropy-not-skew"]


def test_build_refuses_broken_nil_certificate():
    data = solv12_data()
    data = ConstructionData(
        n_bracket=data.n_bracket,
        c=data.c,
        d1=np.diag([5.0, 4.0]),  # wrong derivation
        u_bracket=data.u_bracket,
        dim_k=0,
        theta=data.theta,
    )
    dec, violations = validate_construction(data)
    assert dec is None
    assert any(v.code == "nil-certificate" for v in violations)


def test_random_constructions_build_clean(rng):
    for _ in range(50):
        res = build_semidirect(random_construction(rng))
        assert res.prediction_residual <= 1e-9
        assert res.certificate.residual <= 1e-9
        assert jacobi_residual(res.decomposition.bracket_on) <= 1e-10


def test_round_trip_battery(rng):
    for _ in range(25):
        res = build_semidirect(random_construction(rng))
        rep = structure_battery(res.decomposition, res.certificate)
        assert rep.all_pass, [(c.name, c.residual) for c in rep.checks if not c.passed]


def test_builder_with_isotropy(rng):
    # force the so(3)-isotropy branch a few times
    seen = False
    for _ in range(40):
        data = random_construction(rng)
        if data.dim_k:
            seen = True
            res = build_semidirect(data)
            assert res.certificate.residual <= 1e-9
            assert res.decomposition.dim_k == 3
    assert seen


def test_an_abelian_u_is_reductive_as_the_svd_path_finds():
    # a zero bracket returns before the SVDs; a stand-in with the same dense array and a
    # nonempty entry list runs them, and they agree: u = z(u), [u,u] = 0
    for n in range(1, 5):
        zero = AlgebraTensor(n)
        stand_in = SimpleNamespace(dim=n, dense=zero.dense, entries=(None,))
        assert _is_reductive(zero, DEFAULT_TOL) is _is_reductive(stand_in, DEFAULT_TOL) is True, n


@pytest.mark.parametrize(
    "label, dim, entries",
    [
        # aff(1), [a, b] = b: [u, u] + z(u) is too small to span u
        ("aff(1)", 2, ((0, 1, 1, 1.0),)),
        # R a + heis3 with ad a = diag(1, -1, 0): [u, u] and z(u) overlap in the centre
        ("R + heis3", 4, ((0, 1, 1, 1.0), (0, 2, 2, -1.0), (1, 2, 3, 1.0))),
        # sl(2, R) + R^2: perfect, but the Killing form vanishes on the radical R^2
        (
            "sl(2) + R^2",
            5,
            ((0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0), (0, 3, 3, 1.0), (0, 4, 4, -1.0),
             (1, 4, 3, 1.0), (2, 3, 4, 1.0)),
        ),
    ],
)
def test_non_reductive_u_is_told(label, dim, entries):
    u = AlgebraTensor(dim, entries)
    assert jacobi_residual(u) == 0.0, label
    assert _is_reductive(u, DEFAULT_TOL) is False, label


def test_metric_data_normalization():
    # same algebra handed in with a non-identity metric on n
    raw = heis3_extension_data()
    s = 4.0
    # under ip_n = s I the bracket constants shrink by sqrt(s) after
    # orthonormalization, so feed the pre-scaled data and compare
    data = ConstructionData(
        n_bracket=raw.n_bracket.scale(np.sqrt(s)),
        c=-1.5 * s / s,  # c is metric-dependent; sqrt(s)-scaled bracket at ip = s I
        d1=raw.d1,
        u_bracket=raw.u_bracket,
        dim_k=0,
        theta=raw.theta,
        ip_n=s * np.eye(3),
    )
    dec = assemble_semidirect(data)
    assert np.allclose(dec.n_bracket.dense, raw.n_bracket.dense, atol=1e-12)
    res = build_semidirect(data)
    assert res.certificate.tag == "Einstein"


def test_every_entry_point_refuses_a_metric_before_factorizing_it():
    # the raw assembly too: the rule's own text, not the factorization's LinAlgError
    cases = (
        (np.diag([1.0, -1.0, 1.0]), "ip_n not positive definite"),
        (np.triu(np.ones((3, 3))), "ip_n must be symmetric"),
    )
    for ip_n, detail in cases:
        data = replace(heis3_extension_data(), ip_n=ip_n)
        for entry in (assemble_semidirect, validate_construction, build_semidirect):
            with pytest.raises(ValueError) as err:
                entry(data)
            assert str(err.value) == detail, entry.__name__


def test_the_metric_on_p_is_judged_as_a_document_metric_is():
    # ip_h and ip_n each pass metric_faults, but diag(ip_h, ip_n), the metric g is decomposed
    # in, has condition number 1e10, past the RANK_TOL cut that refuses it in a document
    data = replace(heis3_extension_data(), ip_h=np.array([[1e-6]]), ip_n=1e4 * np.eye(3))
    for entry in (assemble_semidirect, validate_construction, build_semidirect):
        with pytest.raises(ValueError) as err:
            entry(data)
        assert str(err.value) == "ip-not-pd: inner product not positive definite", entry.__name__


# ---------------------------------------------------------------------------
# lambda1 = 0 assemblies for the blockwise moment operator
# ---------------------------------------------------------------------------

def test_random_assemblies_mm_blocks(rng):
    for _ in range(50):
        dec = random_lambda1zero(rng)
        direct = dec.moment().matrix
        blockwise = dec.mm_from_blocks().matrix
        assert np.max(np.abs(direct - blockwise)) <= 1e-9


# ---------------------------------------------------------------------------
# Einstein transformations
# ---------------------------------------------------------------------------

def test_einstein_from_solv12():
    dec = get("solv12").decomposition()
    out, cert = einstein_from_nonunimodular(dec, soliton_fit(dec))
    assert cert.tag == "Einstein"
    assert cert.c == pytest.approx(-5.0, abs=1e-9)
    assert np.allclose(out.ricci().matrix, -5.0 * np.eye(3), atol=1e-9)
    assert jacobi_residual(out.bracket_on) <= 1e-10
    # new action of the unit direction along H is sqrt(5/2) I on n
    ad_unit = out.ad_matrix(np.eye(3)[0])[1:, 1:]
    assert np.allclose(ad_unit, np.sqrt(2.5) * np.eye(2), atol=1e-9)


def test_transformations_refuse_a_certificate_without_d1():
    # D1 = S((D + ad H)|n) is the certificate's own; S(D|n) differs from it when H != 0
    for name, op in (
        ("solv12", einstein_from_nonunimodular),
        ("solv12", restrict_to_unimodular_kernel),
        ("heis3", einstein_extension_unimodular),
    ):
        dec = get(name).decomposition()
        with pytest.raises(ValueError, match="carries no D1"):
            op(dec, replace(soliton_fit(dec), d1=None))


def test_einstein_from_hyp_is_fixed_point():
    dec = get("hyp4").decomposition()
    out, cert = einstein_from_nonunimodular(dec, soliton_fit(dec))
    assert cert.tag == "Einstein"
    assert np.allclose(out.ricci().matrix, dec.ricci().matrix, atol=1e-9)


def test_einstein_from_unimodular_rejected():
    dec = get("heis3").decomposition()
    with pytest.raises(ValueError, match="unimodular"):
        einstein_from_nonunimodular(dec, soliton_fit(dec))


def test_restrict_solv12():
    dec = get("solv12").decomposition()
    out, cert = restrict_to_unimodular_kernel(dec, soliton_fit(dec))
    assert (out.dim_k, out.dim_h, out.dim_n) == (0, 0, 2)
    assert cert.c == pytest.approx(-5.0)
    assert np.allclose(cert.d1, 5.0 * np.eye(2), atol=1e-9)
    assert cert.residual <= 1e-9
    assert cert.tag in ("AlgebraicSoliton", "Einstein")


def test_restrict_hyp():
    dec = get("hyp5").decomposition()
    out, cert = restrict_to_unimodular_kernel(dec, soliton_fit(dec))
    assert np.allclose(out.ricci().matrix, 0.0, atol=1e-12)
    assert np.allclose(cert.d1, 4.0 * np.eye(4), atol=1e-9)


def test_extension_heis3():
    dec = get("heis3").decomposition()
    out, cert = einstein_extension_unimodular(dec, soliton_fit(dec))
    assert (out.dim_k, out.dim_h, out.dim_n) == (0, 1, 3)
    assert cert.tag == "Einstein"
    assert cert.c == pytest.approx(-1.5, abs=1e-9)
    assert np.allclose(out.ricci().matrix, -1.5 * np.eye(4), atol=1e-9)
    # ad A = (1/2) diag(1,1,2) reproduces the bundled cplxhyp2
    ad_a = out.ad_matrix(np.eye(4)[0])[1:, 1:]
    assert np.allclose(ad_a, 0.5 * np.diag([1.0, 1.0, 2.0]), atol=1e-9)


def test_extension_fil4():
    dec = get("fil4").decomposition()
    out, cert = einstein_extension_unimodular(dec, soliton_fit(dec))
    assert cert.tag == "Einstein"
    assert cert.c == pytest.approx(-1.5, abs=1e-9)
    assert np.allclose(out.ricci().matrix, -1.5 * np.eye(5), atol=1e-9)


def test_extension_abelian_gives_hyperbolic():
    dec = get("abelian3").decomposition()
    cert = SolitonCertificate(
        c=-1.0,
        d_full=np.eye(3),
        d1=np.eye(3),
        residual=0.0,
        tag="AlgebraicSoliton",
        derivation_defect=0.0,
        sym_derivation_defect=0.0,
    )
    out, cert_out = einstein_extension_unimodular(dec, cert)
    assert cert_out.tag == "Einstein"
    assert np.allclose(out.ricci().matrix, -np.eye(4), atol=1e-9)


def test_extension_rejects_nonunimodular():
    dec = get("solv12").decomposition()
    with pytest.raises(ValueError, match="unimodular"):
        einstein_extension_unimodular(dec, soliton_fit(dec))


def test_extension_rejects_degenerate_scale():
    dec = get("abelian3").decomposition()
    cert = soliton_fit(dec)  # Einstein with D = 0, tr D1 = 0
    with pytest.raises(ValueError, match="tr D1"):
        einstein_extension_unimodular(dec, cert)


def test_restrict_of_extension_recovers_certificate():
    dec = get("heis3").decomposition()
    base = soliton_fit(dec)
    ext, cert_ext = einstein_extension_unimodular(dec, base)
    back, cert_back = restrict_to_unimodular_kernel(ext, cert_ext)
    assert cert_back.c == pytest.approx(base.c, abs=1e-9)
    assert np.allclose(np.sort(np.linalg.eigvalsh(cert_back.d1)), [1.0, 1.0, 2.0], atol=1e-9)


def test_restrict_cplxhyp2_recovers_heis3_nilsoliton():
    dec = get("cplxhyp2").decomposition()
    out, cert = restrict_to_unimodular_kernel(dec, soliton_fit(dec))
    assert (out.dim_k, out.dim_h, out.dim_n) == (0, 0, 3)
    assert cert.c == pytest.approx(-1.5, abs=1e-9)
    assert np.allclose(cert.d1, np.diag([1.0, 1.0, 2.0]), atol=1e-9)


def test_all_transformations_produce_lie_algebras(rng):
    for _ in range(10):
        data = random_construction(rng)
        res = build_semidirect(data)
        dec, cert = res.decomposition, res.certificate
        if cert.tag not in ("AlgebraicSoliton", "Einstein"):
            continue
        h = dec.mean_curvature()
        if np.linalg.norm(h) > 1e-9:
            out, _ = einstein_from_nonunimodular(dec, cert)
            assert jacobi_residual(out.bracket_on) <= 1e-10
            out2, _ = restrict_to_unimodular_kernel(dec, cert)
            assert jacobi_residual(out2.bracket_on) <= 1e-10
        elif cert.d1 is not None and np.trace(cert.d1) > 1e-9:
            out, _ = einstein_extension_unimodular(dec, cert)
            assert jacobi_residual(out.bracket_on) <= 1e-10


def test_build_refuses_so3_on_empty_n():
    # Ric_u = I/2 on so(3) with no nilpotent part cannot match c I, c < 0
    data = ConstructionData(
        n_bracket=AlgebraTensor(0),
        c=-1.0,
        d1=np.zeros((0, 0)),
        u_bracket=get("so3").tensor(),
        dim_k=0,
        theta=np.zeros((3, 0, 0)),
    )
    with pytest.raises(ConstructionError) as err:
        build_semidirect(data)
    assert any(v.code == "c3-reductive-ricci" for v in err.value.violations)


def test_isotropy_instances_respect_invariants(rng):
    # [ad Z|_p, Ric] = 0 and [Z, H] = 0 on builds with so(3) isotropy
    checked = 0
    for _ in range(40):
        data = random_construction(rng)
        if not data.dim_k:
            continue
        res = build_semidirect(data)
        dec = res.decomposition
        ric = dec.ricci().matrix
        for z in range(dec.dim_k):
            adz = dec.ad_matrix(np.eye(dec.dim)[z])[dec.sp, dec.sp]
            assert np.max(np.abs(adz @ ric - ric @ adz)) <= 1e-9
        # [Z, H] = ad H (Z) = 0 for each k-basis vector Z
        assert np.max(np.linalg.norm(dec.ad_mean_curvature()[:, dec.sk], axis=0)) <= 1e-9
        # the Killing form is negative definite on k and B(k, p) = 0
        kill = dec.killing()
        bound = 1e-9 * dec.bracket_on.norm_sq
        assert np.all(np.linalg.eigvalsh(kill[dec.sk, dec.sk]) < -bound)
        assert np.max(np.abs(kill[dec.sk, dec.sp])) <= bound
        checked += 1
    assert checked
