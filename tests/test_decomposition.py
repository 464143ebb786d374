import gc
import weakref

import numpy as np
import pytest

from homsol import constructions, decomposition
from homsol.catalog import ext, get, names
from homsol.decomposition import DecompositionError, MetricDecomposition, decompose, orthonormal_frame, sym
from homsol.soliton import soliton_fit
from homsol.tensor import AlgebraTensor, moment_operator, tensor_inner, pi_action

from conftest import random_construction


def d(name):
    return get(name).decomposition()


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_catalog_decompositions_are_valid():
    for name in ("abelian3", "heis3", "heis3_r", "fil4", "so3", "solv12", "cplxhyp2", "hyp4", "nil7"):
        assert isinstance(d(name), MetricDecomposition)  # a violation raises DecompositionError


def test_dim_mismatch_rejected():
    with pytest.raises(DecompositionError):
        MetricDecomposition(AlgebraTensor(3), 1, 1, 2)


def assert_same_ricci_and_fit(default, explicit, label):
    assert np.array_equal(default.ricci().matrix, explicit.ricci().matrix), label
    want = vars(soliton_fit(explicit))
    for field, value in vars(soliton_fit(default)).items():
        same = np.array_equal if isinstance(value, np.ndarray) else lambda a, b: a == b
        assert same(value, want[field]), (label, field)


def cold_decompose(*args, **kwargs):
    """decompose with its memo emptied first, so the decomposition is made afresh."""
    decomposition._validated.cache_clear()
    return decompose(*args, **kwargs)


def test_no_inner_product_is_the_identity_inner_product():
    # ip=None takes the listed bracket as it is; an explicit identity is checked, factorized
    # and the bracket mapped: both give the same bracket, Ricci operator and certificate
    for name in names():
        e = get(name)
        dims = (e.dim_k, e.dim_h, e.dim_n)
        default = cold_decompose(e.tensor(), *dims)
        explicit = cold_decompose(e.tensor(), *dims, ip=np.eye(e.dim_h + e.dim_n))
        assert default is not explicit, name
        assert default.bracket_on == explicit.bracket_on, name
        assert default.bracket_on.dense.tobytes() == explicit.bracket_on.dense.tobytes(), name
        assert_same_ricci_and_fit(default, explicit, name)
    # the metric rules do not read tol: at tol >= 1 the identity is a metric all the same,
    # refused as ip-not-pd by neither listing
    for tol in (1.0, 2.0):
        default, explicit = (
            cold_decompose(get("heis3").tensor(), 0, 0, 3, ip=ip, tol=tol) for ip in (None, np.eye(3))
        )
        assert_same_ricci_and_fit(default, explicit, tol)


def test_an_identity_inner_product_is_no_inner_product():
    # decompose keys an ip equal to the identity as none: both listings share one entry
    for name in names():
        e = get(name)
        dims = (e.dim_k, e.dim_h, e.dim_n)
        identity = np.eye(e.dim_h + e.dim_n)
        assert decompose(e.tensor(), *dims, ip=identity) is decompose(e.tensor(), *dims), name


def test_ip_not_pd_rejected():
    ip = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(DecompositionError) as err:
        decompose(AlgebraTensor(3), 0, 0, 3, ip=ip)
    assert any(v.code == "ip-not-pd" for v in err.value.violations)


def test_h_n_orthogonality_required():
    ip = np.eye(3)
    ip[0, 1] = ip[1, 0] = 0.5  # couples the h and n blocks of solv-like dims
    with pytest.raises(DecompositionError) as err:
        decompose(AlgebraTensor(3), 0, 1, 2, ip=ip)
    assert any(v.code == "h-n-not-orthogonal" for v in err.value.violations)


def test_n_must_be_ideal():
    # [h, n] escaping n: declare so3 with one 'nilpotent' direction
    with pytest.raises(DecompositionError) as err:
        MetricDecomposition(get("so3").tensor(), 0, 2, 1)
    assert any(v.code == "n-not-ideal" for v in err.value.violations)


def test_n_must_be_nilpotent():
    # solvable non-nilpotent n: declare solv12 entirely as n
    with pytest.raises(DecompositionError) as err:
        MetricDecomposition(get("solv12").tensor(), 0, 0, 3)
    assert any(v.code == "n-not-nilpotent" for v in err.value.violations)


def test_nilpotency_is_tested_when_the_n_block_fails_jacobi():
    # [e0,e1] = e2, [e1,e2] = e1 fails Jacobi, and its lower central series stalls at span(e1, e2)
    mu = AlgebraTensor(3, ((0, 1, 2, 1.0), (1, 2, 1, 1.0)))
    with pytest.raises(DecompositionError) as err:
        MetricDecomposition(mu, 0, 0, 3)
    assert [v.code for v in err.value.violations] == ["jacobi", "n-not-nilpotent"]


def test_isotropy_must_act_skewly():
    # [Z, e1] = e1 on a 2-dim p is symmetric, not skew
    mu = AlgebraTensor(3, ((0, 1, 1, 1.0),))
    with pytest.raises(DecompositionError) as err:
        MetricDecomposition(mu, 1, 0, 2)
    assert any(v.code == "isotropy-not-skew" for v in err.value.violations)


def test_jacobi_violation_rejected():
    mu = AlgebraTensor(3, ((0, 1, 2, 1.0), (1, 2, 1, 1.0)))
    with pytest.raises(DecompositionError) as err:
        MetricDecomposition(mu, 0, 0, 3)
    assert any(v.code == "jacobi" for v in err.value.violations)


# ---------------------------------------------------------------------------
# killing operator
# ---------------------------------------------------------------------------

def test_killing_abelian_zero():
    assert np.allclose(d("abelian4").killing(), 0.0)


def test_killing_so3():
    assert np.allclose(d("so3").killing(), -2.0 * np.eye(3), atol=1e-12)


def test_killing_heis3_zero():
    assert np.allclose(d("heis3").killing(), 0.0, atol=1e-12)


def test_killing_vanishes_on_n():
    for name in ("solv12", "cplxhyp2", "hyp3"):
        dec = d(name)
        b = dec.killing()
        n_block = b[dec.sn, :]
        assert np.max(np.abs(n_block)) <= 1e-12


# ---------------------------------------------------------------------------
# mean curvature
# ---------------------------------------------------------------------------

def test_mean_curvature_unimodular_zero():
    for name in ("heis3", "so3", "abelian3", "nil7"):
        assert np.allclose(d(name).mean_curvature(), 0.0, atol=1e-12)


def test_mean_curvature_hyp():
    for n in (2, 4, 6):
        h = d(f"hyp{n}").mean_curvature()
        want = np.zeros(n)
        want[0] = n - 1.0
        assert np.allclose(h, want, atol=1e-12)


def test_mean_curvature_solv12():
    assert np.allclose(d("solv12").mean_curvature(), [3.0, 0.0, 0.0], atol=1e-12)


def test_mean_curvature_lands_in_h():
    for name in ("solv12", "cplxhyp2", "hyp5"):
        dec = d(name)
        h = dec.mean_curvature()
        # H has no n-component
        assert np.linalg.norm(h[dec.sn_p]) <= 1e-12
        # <H, Y> = tr(ad Y restricted to n) for each h-basis vector Y
        a_eta = dec.blocks().ad_eta()
        trace_defect = max((abs(h[a] - np.trace(a_eta[a])) for a in range(dec.dim_h)), default=0.0)
        assert trace_defect <= 1e-12
        # [Z, H] = ad H (Z) = 0 for each k-basis vector Z
        cols = np.linalg.norm(dec.ad_mean_curvature()[:, dec.sk], axis=0)
        assert np.max(cols, initial=0.0) <= 1e-12


# ---------------------------------------------------------------------------
# ricci operator
# ---------------------------------------------------------------------------

def test_ricci_heis3():
    assert np.allclose(d("heis3").ricci().matrix, np.diag([-0.5, -0.5, 0.5]), atol=1e-12)


def test_ricci_hyp():
    for n in (2, 3, 6):
        ric = d(f"hyp{n}").ricci().matrix
        assert np.allclose(ric, -(n - 1.0) * np.eye(n), atol=1e-12)


def test_ricci_solv12():
    assert np.allclose(d("solv12").ricci().matrix, np.diag([-5.0, -3.0, -6.0]), atol=1e-12)


def test_ricci_so3():
    assert np.allclose(d("so3").ricci().matrix, 0.5 * np.eye(3), atol=1e-12)


def test_ricci_symmetric():
    for name in ("solv12", "cplxhyp2", "nil7", "fil4"):
        assert d(name).ricci().symmetry_defect() <= 1e-12


def test_ricci_scaling_covariance():
    # ip -> s ip rescales the Ricci operator by 1/s
    for name in ("heis3", "solv12", "cplxhyp2"):
        dec = d(name)
        for s in (0.5, 2.0, 7.0):
            scaled = decompose(dec.bracket_on, dec.dim_k, dec.dim_h, dec.dim_n, ip=s * np.eye(dec.dim_p))
            assert np.allclose(scaled.ricci().matrix, dec.ricci().matrix / s, atol=1e-10)


def test_ricci_with_nonidentity_metric_heis3():
    # metric diag(a, b, c) on heis3: known closed form via renormalized bracket
    a, b, c = 2.0, 3.0, 5.0
    dec = decompose(get("heis3").tensor(), 0, 0, 3, ip=np.diag([a, b, c]))
    # orthonormal frame scales mu(e1,e2)=e3 by sqrt(c/(a*b))
    lam = np.sqrt(c / (a * b))
    want = lam**2 * np.diag([-0.5, -0.5, 0.5])
    assert np.allclose(dec.ricci().matrix, want, atol=1e-12)


def test_ricci_commutes_with_isotropy():
    # k = so(2) acting on p = R^2 inside e(2)-like algebra with nil p
    # use u = so(3) with k = one rotation axis: [Z, e1] = e2, [Z, e2] = -e1
    mu = AlgebraTensor(3, ((0, 1, 2, 1.0), (0, 2, 1, -1.0)))
    dec = MetricDecomposition(mu, 1, 0, 2)
    ric = dec.ricci().matrix
    adz = dec.ad_matrix(np.eye(3)[0])[dec.sp, dec.sp]
    assert np.max(np.abs(adz @ ric - ric @ adz)) <= 1e-12


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def test_blocks_heis3_only_mu():
    bb = d("heis3").blocks()
    assert np.max(np.abs(bb.mu)) == 1.0
    for name in ("lam0", "lam1", "lam2", "eta", "nu2"):
        assert getattr(bb, name).size == 0 or np.max(np.abs(getattr(bb, name))) == 0.0


def test_blocks_solv12_eta_only():
    bb = d("solv12").blocks()
    assert np.allclose(bb.ad_eta()[0], np.diag([1.0, 2.0]))
    assert np.max(np.abs(bb.mu)) == 0.0
    assert bb.lam0.size == 1 and bb.lam0[0, 0, 0] == 0.0


def test_blocks_hyp_identity_eta():
    bb = d("hyp4").blocks()
    assert np.allclose(bb.ad_eta()[0], np.eye(3))


def test_blocks_skew_components():
    for name in ("so3", "cplxhyp2", "nil7"):
        bb = d(name).blocks()
        for comp in (bb.lam0, bb.lam1, bb.lam2, bb.mu):
            if comp.size:
                assert np.max(np.abs(comp + np.swapaxes(comp, 0, 1))) == 0.0


# ---------------------------------------------------------------------------
# blockwise moment operator
# ---------------------------------------------------------------------------

def test_mm_blocks_heis3():
    dec = d("heis3")
    assert np.allclose(dec.mm_from_blocks().matrix, dec.moment().matrix, atol=1e-12)


def test_mm_blocks_solv12():
    dec = d("solv12")
    m = dec.mm_from_blocks().matrix
    assert m[0, 0] == pytest.approx(-2.5, abs=1e-12)
    assert np.allclose(m[1:, 1:], 0.0, atol=1e-12)
    assert np.allclose(m, dec.moment().matrix, atol=1e-12)


def test_mm_blocks_matches_direct_on_catalog():
    for name in ("cplxhyp2", "hyp5", "so3", "fil4"):
        dec = d(name)
        assert np.allclose(dec.mm_from_blocks().matrix, dec.moment().matrix, atol=1e-10)


def test_mm_blocks_requires_lam1_zero():
    # heis3 declared with h = span(e0, e1), n = span(e2) has lam1 != 0
    dec = MetricDecomposition(get("heis3").tensor(), 0, 2, 1)
    with pytest.raises(DecompositionError):
        dec.mm_from_blocks()


# ---------------------------------------------------------------------------
# n against the nilradical
# ---------------------------------------------------------------------------

def block_rotations(dec, rng):
    """dec in 10 random rotations within its k, h and n blocks at each bracket scale 1e-10, 1, 1e10."""
    for scale in (1e-10, 1.0, 1e10):
        for _ in range(10):
            q = np.zeros((dec.dim, dec.dim))
            for block in (dec.sk, dec.sh, dec.sn):
                m = block.stop - block.start
                if m:
                    q[block, block] = np.linalg.qr(rng.standard_normal((m, m)))[0]
            mu = dec.bracket_on.map_basis(q).scale(scale)
            yield MetricDecomposition(mu, dec.dim_k, dec.dim_h, dec.dim_n)


def assert_nilradical(dec, want, rng, label):
    assert dec.n_is_nilradical is want, label
    for copy in block_rotations(dec, rng):
        assert copy.n_is_nilradical is want, label


def test_n_short_of_the_nilradical_is_told(rng):
    heis3, hyp3 = get("heis3").tensor(), get("hyp3").tensor()
    cases = {
        "heis3 with n = span(e2)": MetricDecomposition(heis3, 0, 2, 1),
        "hyp3 with n = span(e2)": MetricDecomposition(hyp3, 0, 2, 1),
        # heis3 as R x R^2 with ad e0 nilpotent: the whole algebra is nilpotent
        "heis3 with n = span(e1, e2)": MetricDecomposition(heis3, 0, 1, 2),
        # a zero bracket is its own nilradical: no NaN from dividing by |mu| = 0
        "abelian3 with h = span(e0)": MetricDecomposition(AlgebraTensor(3), 0, 1, 2),
        "abelian3 with k = span(e0)": MetricDecomposition(AlgebraTensor(3), 1, 1, 1),
    }
    for label, dec in cases.items():
        assert_nilradical(dec, False, rng, label)


def test_n_that_is_the_nilradical_is_told(rng):
    # R x R^2 with ad e0 = [[1, -1], [1, 1]]: the Killing form vanishes on e0
    # as on n (tr (ad e0)^2 = 0), and still n is the nilradical
    rot = AlgebraTensor(3, ((0, 1, 1, 1.0), (0, 1, 2, 1.0), (0, 2, 1, -1.0), (0, 2, 2, 1.0)))
    assert_nilradical(MetricDecomposition(rot, 0, 1, 2), True, rng, "rotation-dilation")
    for name in sorted(names()):
        assert_nilradical(get(name).decomposition(), True, rng, name)
    for m in range(1, 8):
        assert_nilradical(ext(m).decomposition(), True, rng, f"ext{m}")


def test_n_of_built_and_extended_algebras_is_the_nilradical(rng):
    transforms = (
        constructions.einstein_from_nonunimodular,
        constructions.restrict_to_unimodular_kernel,
        constructions.einstein_extension_unimodular,
    )
    extended = 0
    for i in range(6):
        dec = constructions.build_semidirect(random_construction(rng)).decomposition
        assert_nilradical(dec, True, rng, f"build {i}")
        for transform in transforms:
            try:
                out, _ = transform(dec, soliton_fit(dec))
            except ValueError:  # not applicable to this algebra
                continue
            extended += 1
            assert_nilradical(out, True, rng, f"{transform.__name__} of build {i}")
    assert extended >= 6


# ---------------------------------------------------------------------------
# derivation block lemma
# ---------------------------------------------------------------------------

def assert_derivation_block_lemma(dec, d_user, ip=None, tol=1e-9):
    """Assert the block lemma for a derivation D of g with D k inside k; return tr D|_p, tr D|_n.

    D is given in the listed basis, whose metric on p is ip (None: the
    identity), and moved into dec's orthonormal frame here.  Hypotheses: D
    is a derivation and B(k, p) = 0.  Conclusions: D p in p, D n in n,
    tr D|_p = tr D|_n and tr(B_p D_p) = 0.  Each is held to tol |D| |mu|^degree,
    |mu| in the orthonormal frame.
    """
    g = np.eye(dec.dim)
    if ip is not None:
        g[dec.sp, dec.sp] = orthonormal_frame(ip)
    dd = np.linalg.inv(g) @ d_user @ g
    scale = np.linalg.norm(dd)
    norm = dec.bracket_on.norm
    kill = dec.killing()
    assert dec.derivation_residual_on(dd) <= tol * scale * norm
    assert np.max(np.abs(kill[dec.sk, dec.sp]), initial=0.0) <= tol * norm**2
    assert np.linalg.norm(dd[dec.sp, dec.sk]) <= tol * scale
    assert np.linalg.norm(dd[dec.sk, dec.sp]) <= tol * scale
    assert np.linalg.norm(dd[: dec.dim_k + dec.dim_h, dec.sn]) <= tol * scale
    trace_p = float(np.trace(dd[dec.sp, dec.sp]))
    trace_n = float(np.trace(dd[dec.sn, dec.sn]))
    assert abs(trace_p - trace_n) <= tol * scale
    assert abs(np.trace(kill[dec.sp, dec.sp] @ dd[dec.sp, dec.sp])) <= tol * scale * norm**2
    return trace_p, trace_n


def test_derivation_blocks_zero():
    assert_derivation_block_lemma(d("solv12"), np.zeros((3, 3)))


def test_derivation_blocks_diagonal_derivation():
    # D = diag(0; 1, 2) is a derivation of solv12 (commutes with ad a, kills a)
    trace_p, trace_n = assert_derivation_block_lemma(d("solv12"), np.diag([0.0, 1.0, 2.0]))
    assert trace_p == pytest.approx(3.0)
    assert trace_n == pytest.approx(3.0)
    # the same D in a metric that is not diagonal on n: its matrix in the frame is not
    # diagonal, its traces are the same
    ip = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 3.0]])
    dec = decompose(get("solv12").tensor(), 0, 1, 2, ip=ip)
    trace_p, trace_n = assert_derivation_block_lemma(dec, np.diag([0.0, 1.0, 2.0]), ip)
    assert trace_p == pytest.approx(3.0)
    assert trace_n == pytest.approx(3.0)


def test_derivation_blocks_inner():
    dec = d("cplxhyp2")
    assert_derivation_block_lemma(dec, dec.bracket_on.ad(np.eye(4)[0]))


# ---------------------------------------------------------------------------
# moment operator invariants on the p-bracket
# ---------------------------------------------------------------------------

def test_moment_dual_identity_on_catalog():
    rng = np.random.default_rng(2)
    for name in ("solv12", "cplxhyp2", "so3"):
        dec = d(name)
        mu = dec.p_bracket
        m = moment_operator(mu)
        for _ in range(20):
            e = rng.standard_normal((dec.dim_p, dec.dim_p))
            lhs = float(np.trace(m @ e))
            rhs = 0.25 * tensor_inner(pi_action(e, mu), mu)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_u_subalgebra_of_cplxhyp2():
    dec = d("cplxhyp2")
    assert np.max(np.abs(dec.blocks().lam1)) == 0.0  # [h,h] has no n-component
    assert dec.u_bracket.dim == 1
    assert dec.u_bracket.norm == 0.0  # u = R a is abelian
    assert np.allclose(dec.u_ricci(), 0.0)


def test_derivation_blocks_cplxhyp2_diagonal():
    # diag(0; 1, 1, 2) is a derivation with equal traces 4 on p and on n
    trace_p, trace_n = assert_derivation_block_lemma(d("cplxhyp2"), np.diag([0.0, 1.0, 1.0, 2.0]))
    assert trace_p == pytest.approx(4.0)
    assert trace_n == pytest.approx(4.0)


def test_sphere_presentation_with_isotropy():
    # so(3) split as k = span(e_z), h = span(e_x, e_y): the unit round
    # 2-sphere; exercises a nonzero isotropy block and lam2 = [h,h] -> k
    mu = AlgebraTensor(3, ((0, 1, 2, 1.0), (0, 2, 1, -1.0), (1, 2, 0, 1.0)))
    dec = MetricDecomposition(mu, 1, 2, 0)
    assert np.allclose(dec.ricci().matrix, np.eye(2), atol=1e-12)
    kill = dec.killing()
    assert np.all(np.linalg.eigvalsh(kill[dec.sk, dec.sk]) < -1e-9 * dec.bracket_on.norm_sq)
    assert np.max(np.abs(kill[dec.sk, dec.sp])) <= 1e-9 * dec.bracket_on.norm_sq
    assert np.allclose(kill[dec.sk, dec.sk], [[-2.0]])
    assert np.max(np.abs(dec.blocks().lam2)) == 1.0
    # Ricci commutes with the isotropy action
    adz = dec.ad_matrix(np.eye(3)[0])[dec.sp, dec.sp]
    ric = dec.ricci().matrix
    assert np.max(np.abs(adz @ ric - ric @ adz)) <= 1e-12


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

def test_cached_parts_hold_no_reference_cycle():
    # with the cycle collector off, a decomposition reachable from its own
    # cache (say a nilpotent one caching itself as its n-part) stays alive;
    # one that the memo of decompose keeps must be freed once later
    # validations evict it
    from homsol import decomposition
    from homsol.io import document_from_catalog, validate
    from homsol.soliton import soliton_fit, structure_battery

    held = decomposition._validated.cache_info().maxsize
    gc.disable()
    try:
        for name in ("heis3", "fil4", "cplxhyp2", "solv12", "nil7"):
            for memoized in (False, True):
                if memoized:
                    dec = validate(document_from_catalog(get(name)))[0]
                else:
                    e = get(name)
                    dec = MetricDecomposition(e.tensor(), e.dim_k, e.dim_h, e.dim_n)
                structure_battery(dec, soliton_fit(dec))
                dec.derivations_n()
                dec.n_decomposition()
                if dec.n_bracket.norm > 0:
                    dec.n_stratum()
                ref = weakref.ref(dec)
                del dec
                if memoized:
                    # as many other algebras as the memo holds evict this one
                    for n in range(2, 2 + held):
                        decomposition.decompose(AlgebraTensor(n), 0, 0, n)
                assert ref() is None, (name, memoized)
    finally:
        gc.enable()
