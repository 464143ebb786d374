import itertools

import numpy as np
import pytest

from homsol.strata import (
    _label_gram,
    _properties,
    e_beta_pairing,
    min_norm_point,
    pair_weight,
    strata_properties,
    stratum_label,
)
from homsol.tensor import AlgebraTensor, _pi_diagonal, derivation_algebra
from test_tensor import assert_matches, contraction_brackets, pi_action_einsum, read_only

HEIS3 = AlgebraTensor(3, ((0, 1, 2, 1.0),))
FIL4 = AlgebraTensor(4, ((0, 1, 2, 1.0), (0, 2, 3, 1.0)))


# ---------------------------------------------------------------------------
# oracle: Caratheodory enumeration of candidate faces
# ---------------------------------------------------------------------------

def min_norm_oracle(points):
    """Exact min-norm point by enumerating all subsets of <= dim+1 points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = pts.shape
    best = None
    best_norm = np.inf
    for size in range(1, min(m, d + 1) + 1):
        for subset in itertools.combinations(range(m), size):
            sub = pts[list(subset)]
            k = sub.shape[0]
            gram = sub @ sub.T
            lhs = np.zeros((k + 1, k + 1))
            lhs[:k, :k] = gram
            lhs[:k, k] = 1.0
            lhs[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                sol = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError:
                continue
            lam = sol[:k]
            if np.any(lam < -1e-10):
                continue
            cand = sub.T @ lam
            n = float(cand @ cand)
            if n < best_norm - 1e-15:
                best_norm = n
                best = cand
    return best


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_basic():
    assert np.allclose(pair_weight(0, 1, 2, 3), [-1.0, -1.0, 1.0])


def test_weight_trace_minus_one():
    for i, j, k in itertools.product(range(4), range(4), range(4)):
        if i < j:
            assert np.sum(pair_weight(i, j, k, 4)) == pytest.approx(-1.0)


def test_weight_repeated_index():
    # k = i collapses E_kk - E_ii: (0,1) with k=0 gives -E_11
    assert np.allclose(pair_weight(0, 1, 0, 3), [0.0, -1.0, 0.0])


def test_weight_pairing():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(5)
    for i, j, k in ((0, 1, 2), (1, 4, 4), (2, 3, 0)):
        assert pair_weight(i, j, k, 5) @ a == pytest.approx(a[k] - a[i] - a[j])


def test_weight_rejects_bad_indices():
    with pytest.raises(ValueError):
        pair_weight(1, 0, 2, 3)
    with pytest.raises(ValueError):
        pair_weight(0, 3, 2, 3)


# ---------------------------------------------------------------------------
# min-norm point
# ---------------------------------------------------------------------------

def test_single_point():
    v = np.array([1.0, -2.0, 0.5])
    res = min_norm_point(v[None, :])
    assert np.allclose(res.point, v)
    assert np.allclose(res.coefficients, [1.0])


def test_two_orthogonal_points_midpoint():
    pts = np.array([[-1.0, -1.0, 1.0, 0.0], [-1.0, 0.0, -1.0, 1.0]])
    res = min_norm_point(pts)
    assert np.allclose(res.point, [-1.0, -0.5, 0.0, 0.5], atol=1e-12)


def test_hull_containing_origin():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    res = min_norm_point(pts)
    assert np.linalg.norm(res.point) <= 1e-10


def test_coefficients_reconstruct_point():
    rng = np.random.default_rng(12)
    for _ in range(50):
        pts = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
        res = min_norm_point(pts)
        assert np.all(res.coefficients >= 0.0)
        assert np.sum(res.coefficients) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pts.T @ res.coefficients, res.point, atol=1e-10)


def test_against_caratheodory_oracle():
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        pts = rng.standard_normal((m, d)) + rng.standard_normal(d)
        got = min_norm_point(pts).point
        want = min_norm_oracle(pts)
        assert np.linalg.norm(got - want) <= 1e-9


def test_oracle_on_integer_weight_sets():
    # exact ties, the common case for weight supports
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(3, 8))
        triples = set()
        while len(triples) < rng.integers(1, 7):
            i, j = sorted(rng.choice(d, size=2, replace=False))
            triples.add((int(i), int(j), int(rng.integers(0, d))))
        pts = np.array([pair_weight(i, j, k, d) for i, j, k in triples])
        got = min_norm_point(pts).point
        want = min_norm_oracle(pts)
        assert np.linalg.norm(got - want) <= 1e-9


# ---------------------------------------------------------------------------
# stratum labels
# ---------------------------------------------------------------------------

def test_heis3_label():
    data = stratum_label(HEIS3)
    assert np.allclose(data.beta_raw, [-1.0, -1.0, 1.0], atol=1e-12)
    assert data.beta_norm_sq == pytest.approx(3.0, abs=1e-12)
    assert data.nice_position


def test_fil4_label():
    data = stratum_label(FIL4)
    assert np.allclose(data.beta_raw, [-1.0, -0.5, 0.0, 0.5], atol=1e-10)
    assert data.beta_norm_sq == pytest.approx(1.5, abs=1e-10)
    assert data.nice_position


def test_label_scale_invariant():
    a = stratum_label(HEIS3)
    b = stratum_label(HEIS3.scale(-17.0))
    assert a.support == b.support
    assert np.allclose(a.beta_raw, b.beta_raw)
    assert a.nice_position == b.nice_position


def test_label_trace_is_minus_one():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        raw = rng.standard_normal((d, d, d))
        mu = AlgebraTensor.from_dense(raw - np.swapaxes(raw, 0, 1))
        data = stratum_label(mu)
        assert data.trace == pytest.approx(-1.0, abs=1e-9)


def test_label_zero_rejected():
    with pytest.raises(ValueError):
        stratum_label(AlgebraTensor(3))


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = 5
        raw = rng.standard_normal((d, d, d))
        mu = AlgebraTensor.from_dense(raw - np.swapaxes(raw, 0, 1))
        perm = rng.permutation(d)
        entries = tuple((perm[i], perm[j], perm[k], c) for i, j, k, c in mu.entries)
        mu_p = AlgebraTensor(d, entries)
        b = stratum_label(mu).beta_raw
        b_p = stratum_label(mu_p).beta_raw
        assert np.allclose(b_p[perm], b, atol=1e-9)


def test_permuted_heis3_is_not_nice():
    # mu(e2,e3) = e1 carries the same algebra out of the chamber
    mu = AlgebraTensor(3, ((1, 2, 0, 1.0),))
    data = stratum_label(mu)
    assert not data.nice_position
    assert np.allclose(data.beta, [-1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# property battery
# ---------------------------------------------------------------------------

def test_heis3_properties():
    rep = strata_properties(HEIS3)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    # beta + |beta|^2 I = diag(2,2,4) is a derivation: pairing zero with equality
    assert by_name["shifted-label-pairing-nonnegative"].value == pytest.approx(0.0, abs=1e-9)
    assert by_name["pairing-equality-clause"].passed
    # m(mu) equals beta here, so the norm equality clause is tight
    assert by_name["label-below-moment-norm"].value == pytest.approx(0.0, abs=1e-9)


def test_fil4_properties():
    rep = strata_properties(FIL4)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["shifted-label-pairing-nonnegative"].value == pytest.approx(0.0, abs=1e-9)
    assert by_name["label-trace-orthogonal-to-derivations"].value <= 1e-9


def test_properties_on_non_nilsoliton_direction():
    # a nilpotent bracket that is not a nilsoliton still satisfies every label check
    mu = AlgebraTensor(4, ((0, 1, 2, 1.0), (0, 1, 3, 0.5), (0, 2, 3, 1.0)))
    rep = strata_properties(mu)
    assert rep.passed


# ---------------------------------------------------------------------------
# Gram matrix of <[beta, D], D'> against its loop version
# ---------------------------------------------------------------------------

def label_gram_loop(beta, der_basis):
    nder = der_basis.shape[0]
    gram = np.zeros((nder, nder))
    for a in range(nder):
        ba = beta @ der_basis[a] - der_basis[a] @ beta
        for b in range(nder):
            gram[a, b] = float(np.sum(ba * der_basis[b]))
    return 0.5 * (gram + gram.T)


def test_label_gram_matches_loop():
    rng = np.random.default_rng(13)
    heis7 = AlgebraTensor(7, tuple((i, 3 + i, 6, 1.0) for i in range(3)))
    cases = [
        (np.diag(stratum_label(mu).beta_raw), derivation_algebra(mu))
        for mu in (HEIS3, FIL4, heis7)
    ]
    for n in range(1, 8):
        cases.append((np.diag(rng.standard_normal(n)), rng.standard_normal((2 * n, n, n))))
    for beta, ders in cases:
        got, want = _label_gram(beta, ders), label_gram_loop(beta, ders)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want), initial=0.0))


def test_stratify_values_do_not_depend_on_the_derivation_basis():
    # in a random orthonormal basis the label leaves nice position and tr(beta D) != 0 on Der
    rng = np.random.default_rng(17)
    heis7 = AlgebraTensor(7, tuple((i, 3 + i, 6, 1.0) for i in range(3)))
    for mu in (HEIS3, FIL4, heis7):
        for basis in (np.eye(mu.dim), np.linalg.qr(rng.standard_normal((mu.dim, mu.dim)))[0]):
            nu = mu.map_basis(basis)
            data, ders = stratum_label(nu), derivation_algebra(nu)
            q = np.linalg.qr(rng.standard_normal((len(ders), len(ders))))[0]
            mixed = np.einsum("ab,bij->aij", q, ders)
            want, got = _properties(nu, data, ders, 1e-9), _properties(nu, data, mixed, 1e-9)
            assert [c.name for c in got.checks] == [c.name for c in want.checks]
            for a, b in zip(got.checks, want.checks):
                assert a.passed == b.passed, a.name
                assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(b.value)), a.name


# ---------------------------------------------------------------------------
# the label kernels against their einsum formulas
# ---------------------------------------------------------------------------
# As in test_tensor.py: each kernel against the einsum it replaced, to 1e-12
# relative to the size of its operands.

def label_gram_einsum(beta, der_basis):
    gram = np.einsum("aij,bij->ab", beta @ der_basis - der_basis @ beta, der_basis)
    return 0.5 * (gram + gram.T)


def label_brackets():
    """The nonzero brackets of test_tensor.contraction_brackets with their labels and Der."""
    for label, mu in contraction_brackets():
        if mu.entries:
            yield label, mu, stratum_label(mu), derivation_algebra(mu)


def test_label_gram_matches_its_einsum_formula():
    seen = 0
    for label, mu, data, ders in label_brackets():
        beta = np.diag(data.beta_raw)
        cases = {
            "plain": (beta, ders),
            "read-only": (read_only(beta), read_only(ders)),
            "transposed": (beta, np.transpose(ders, (0, 2, 1))),
        }
        for kind, (b, stack) in cases.items():
            scale = np.linalg.norm(b) * np.linalg.norm(stack) ** 2
            assert_matches(_label_gram(b, stack), label_gram_einsum(b, stack), scale, (label, kind))
        seen += 1
    assert seen >= 18 + 2 * 33


def test_diagonal_action_matches_the_einsum_pi_action():
    rng = np.random.default_rng(47)
    for label, mu in contraction_brackets():
        e = rng.standard_normal(mu.dim)
        for kind, v in {"plain": e, "read-only": read_only(e), "strided": np.repeat(e, 2)[::2]}.items():
            want = pi_action_einsum(np.diag(v), mu.dense)
            assert_matches(_pi_diagonal(v, mu.dense), want, np.linalg.norm(v) * mu.norm, (label, kind))


def test_label_checks_match_their_einsum_formulas():
    # the label's projection to Der and its E_beta pairing, as _properties reports them
    for label, mu, data, ders in label_brackets():
        checks = {c.name: c.value for c in _properties(mu, data, ders, 1e-9).checks}
        proj = np.linalg.norm(np.einsum("k,akk->a", data.beta_raw, ders))
        scale = np.linalg.norm(data.beta_raw) * np.linalg.norm(ders)
        assert abs(checks["label-trace-orthogonal-to-derivations"] - proj) <= 1e-12 * scale, label
        moved = pi_action_einsum(data.e_beta, mu.dense)
        scale = np.linalg.norm(data.e_beta) * mu.norm_sq
        assert abs(checks["shifted-label-pairing-nonnegative"] + np.sum(moved * mu.dense)) <= 1e-12 * scale, label
        scale = np.linalg.norm(data.e_beta) * mu.norm
        assert abs(checks["pairing-equality-clause"] - np.linalg.norm(moved)) <= 1e-12 * scale, label


def e_beta_pairing_einsum(dec):
    """The four summands and the direct pairing of e_beta_pairing, each pi(E_beta) an einsum."""
    sh, sn = dec.sh_p, dec.sn_p
    e_b = np.zeros((dec.dim_p, dec.dim_p))
    e_b[sn, sn] = dec.n_stratum().e_beta
    t_p = dec.p_bracket.dense

    def component(si, sj, sk):
        comp = np.zeros_like(t_p)
        comp[si, sj, sk] = t_p[si, sj, sk]
        if si != sj:
            comp[sj, si, sk] = t_p[sj, si, sk]
        return comp

    blocks = {"lam0": (sh, sh, sh), "lam1": (sh, sh, sn), "eta": (sh, sn, sn), "mu": (sn, sn, sn)}
    terms = {}
    for name, cells in blocks.items():
        comp = component(*cells)
        terms[name] = float(np.sum(pi_action_einsum(e_b, comp) * comp))
    return terms, float(np.sum(pi_action_einsum(e_b, t_p) * t_p)), np.linalg.norm(e_b)


def test_e_beta_pairing_matches_its_einsum_formula():
    # every catalog, ladder and permuted-twin document whose nilpotent part is nonzero,
    # and the ladder with each n-block reversed
    from homsol import catalog
    from homsol.io import document_from_catalog, document_from_dict, validate
    from test_compare_reports import compare_reports

    raws = compare_reports.ladder_documents()
    raws += [
        compare_reports.permuted_n_document(raw, range(raw["dim_n"])[::-1], f"{raw['name']}-reversed")
        for raw in raws
    ]
    docs = [document_from_dict(raw) for raw in raws + compare_reports.permuted_twin_documents()]
    docs += [document_from_catalog(catalog.get(name)) for name in sorted(catalog.names())]
    seen = 0
    for doc in docs:
        dec, _ = validate(doc)
        try:
            rep = e_beta_pairing(dec)
        except ValueError:  # a zero nilpotent part
            continue
        terms, direct, e_norm = e_beta_pairing_einsum(dec)
        scale = e_norm * dec.p_bracket.norm_sq
        got = {"lam0": rep.lam0_term, "lam1": rep.lam1_term, "eta": rep.eta_term, "mu": rep.mu_term}
        for name, want in terms.items():
            assert abs(got[name] - want) <= 1e-12 * scale, (doc.name, name)
        assert abs(rep.direct - direct) <= 1e-12 * scale, doc.name
        seen += 1
    assert seen >= 70
