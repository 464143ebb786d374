import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsol import tensor
from homsol.catalog import fil, get, heis
from homsol.decomposition import MetricDecomposition, _killing, _mean_curvature
from homsol.soliton import _action_ricci_term
from homsol.tensor import (
    RANK_TOL,
    AlgebraTensor,
    _block_kernel,
    _block_svds,
    _gram_pair,
    _increasing_triples,
    _least_squares,
    _lower_central_length,
    _pair_index,
    _pi_entries,
    _row_space_and_kernel,
    derivation_algebra,
    derivation_residual,
    jacobi_residual,
    moment_map,
    moment_operator,
    nilpotency_class,
    pi_action,
    pi_action_dense,
    pi_matrix,
    tensor_inner,
)

HEIS3 = AlgebraTensor(3, ((0, 1, 2, 1.0),))
FIL4 = AlgebraTensor(4, ((0, 1, 2, 1.0), (0, 2, 3, 1.0)))
SO3 = AlgebraTensor(3, ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)))
ABELIAN4 = AlgebraTensor(4)


# ---------------------------------------------------------------------------
# oracles: naive loop evaluations of the defining formulas
# ---------------------------------------------------------------------------

def inner_oracle(mu, lam):
    n = mu.dim
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += float(mu.dense[i, j] @ lam.dense[i, j])
    return total


def pi_oracle(alpha, mu):
    n = mu.dim
    out = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = alpha @ mu.dense[i, j]
            for p in range(n):
                out[i, j] -= alpha[p, i] * mu.dense[p, j]
                out[i, j] -= alpha[p, j] * mu.dense[i, p]
    return out


def moment_map_oracle(mu):
    # quadratic form on basis vectors plus polarization
    n = mu.dim
    nrm2 = inner_oracle(mu, mu)
    q = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            s = 0.0
            for i in range(n):
                for j in range(n):
                    s += -2.0 * mu.dense[x, i, j] * mu.dense[y, i, j]
                    s += mu.dense[i, j, x] * mu.dense[i, j, y]
            q[x, y] = s / nrm2
    return q


def random_tensor(rng, n):
    raw = rng.standard_normal((n, n, n))
    return AlgebraTensor.from_dense(raw - np.swapaxes(raw, 0, 1))


# ---------------------------------------------------------------------------
# tensor_inner
# ---------------------------------------------------------------------------

def test_inner_zero():
    assert tensor_inner(AlgebraTensor(3), HEIS3) == 0.0


def test_inner_heis3_norm():
    assert tensor_inner(HEIS3, HEIS3) == pytest.approx(2.0, abs=1e-12)


def test_inner_fil4_norm():
    assert tensor_inner(FIL4, FIL4) == pytest.approx(4.0, abs=1e-12)


def test_inner_matches_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        mu, lam = random_tensor(rng, n), random_tensor(rng, n)
        assert tensor_inner(mu, lam) == pytest.approx(inner_oracle(mu, lam), rel=1e-12)


def test_inner_dim_mismatch():
    with pytest.raises(ValueError):
        tensor_inner(HEIS3, FIL4)


# ---------------------------------------------------------------------------
# pi_action
# ---------------------------------------------------------------------------

def test_pi_identity_gives_minus_mu():
    out = pi_action(np.eye(3), HEIS3)
    assert np.allclose(out.dense, -HEIS3.dense)


def test_pi_derivation_of_heis3():
    out = pi_action(np.diag([1.0, 1.0, 2.0]), HEIS3)
    assert out.norm == 0.0


def test_pi_diagonal_weights():
    # diagonal alpha scales the basis tensor v_ijk by a_k - a_i - a_j
    rng = np.random.default_rng(3)
    a = rng.standard_normal(4)
    v = AlgebraTensor(4, ((1, 2, 0, 1.0),))
    out = pi_action(np.diag(a), v)
    assert np.allclose(out.dense, (a[0] - a[1] - a[2]) * v.dense)


def test_pi_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mu = random_tensor(rng, 4)
        alpha = rng.standard_normal((4, 4))
        assert np.allclose(pi_action(alpha, mu).dense, pi_oracle(alpha, mu), atol=1e-12)


def test_pi_adjointness():
    # <pi(a) mu, lam> = <mu, pi(a^t) lam>
    rng = np.random.default_rng(23)
    for _ in range(10):
        mu, lam = random_tensor(rng, 4), random_tensor(rng, 4)
        alpha = rng.standard_normal((4, 4))
        lhs = tensor_inner(pi_action(alpha, mu), lam)
        rhs = tensor_inner(mu, pi_action(alpha.T, lam))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# jacobi / nilpotency
# ---------------------------------------------------------------------------

def test_jacobi_abelian_and_heis3():
    assert jacobi_residual(ABELIAN4) == 0.0
    assert jacobi_residual(HEIS3) == 0.0
    assert jacobi_residual(SO3) == 0.0
    assert jacobi_residual(FIL4) == 0.0


def test_jacobi_positive_for_non_lie():
    # mu(e1,e2)=e3, mu(e2,e3)=e2: Jacobiator on (e1,e2,e3) equals e3
    mu = AlgebraTensor(3, ((0, 1, 2, 1.0), (1, 2, 1, 1.0)))
    assert jacobi_residual(mu) == pytest.approx(1.0, abs=1e-12)


def test_nilpotency_classes():
    assert nilpotency_class(ABELIAN4) == 1
    assert nilpotency_class(HEIS3) == 2
    assert nilpotency_class(FIL4) == 3
    assert nilpotency_class(SO3) is None
    # the series' rank cut is relative, so a rescaled bracket keeps its class
    nil7 = get("nil7").tensor()
    for scale in (1e-10, 1e10):
        assert nilpotency_class(HEIS3.scale(scale)) == 2
        assert nilpotency_class(FIL4.scale(scale)) == 3
        assert nilpotency_class(nil7.scale(scale)) == nilpotency_class(nil7) == 6


def test_nilpotency_rejects_non_lie():
    mu = AlgebraTensor(3, ((0, 1, 2, 1.0), (1, 2, 1, 1.0)))
    with pytest.raises(ValueError):
        nilpotency_class(mu)


# ---------------------------------------------------------------------------
# moment map and M operator
# ---------------------------------------------------------------------------

def test_moment_map_heis3():
    assert np.allclose(moment_map(HEIS3), np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_moment_map_fil4():
    assert np.allclose(moment_map(FIL4), np.diag([-1.0, -0.5, 0.0, 0.5]), atol=1e-12)


def test_moment_map_scale_invariant():
    for c in (0.5, -3.0, 7.25):
        assert np.allclose(moment_map(HEIS3.scale(c)), moment_map(HEIS3), atol=1e-12)


def test_moment_map_zero_rejected():
    with pytest.raises(ValueError):
        moment_map(AlgebraTensor(3))


def test_moment_map_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mu = random_tensor(rng, 4)
        assert np.allclose(moment_map(mu), moment_map_oracle(mu), atol=1e-10)


def test_moment_map_pairing_identity():
    # <m(mu), a> = |mu|^-2 <pi(a) mu, mu>
    rng = np.random.default_rng(17)
    mu = random_tensor(rng, 5)
    for _ in range(20):
        alpha = rng.standard_normal((5, 5))
        lhs = float(np.sum(moment_map(mu) * alpha))
        rhs = tensor_inner(pi_action(alpha, mu), mu) / tensor_inner(mu, mu)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_moment_operator_values():
    assert np.allclose(moment_operator(AlgebraTensor(3)), np.zeros((3, 3)))
    assert np.allclose(moment_operator(HEIS3), np.diag([-0.5, -0.5, 0.5]), atol=1e-12)
    assert np.allclose(moment_operator(FIL4), np.diag([-1.0, -0.5, 0.0, 0.5]), atol=1e-12)


def test_moment_operator_dual_identity():
    # tr(M E) = (1/4) <pi(E) mu, mu> for random symmetric and skew E
    rng = np.random.default_rng(29)
    for _ in range(20):
        mu = random_tensor(rng, 4)
        m = moment_operator(mu)
        for _ in range(5):
            e = rng.standard_normal((4, 4))
            for probe in (e + e.T, e - e.T):
                lhs = float(np.trace(m @ probe))
                rhs = 0.25 * tensor_inner(pi_action(probe, mu), mu)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_moment_operator_consistent_with_moment_map():
    rng = np.random.default_rng(31)
    mu = random_tensor(rng, 5)
    assert np.allclose(moment_operator(mu), 0.25 * mu.norm_sq * moment_map(mu), atol=1e-10)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def derivations_oracle(mu, tol=1e-8):
    # brute-force nullspace via dense solve on random right-hand sides is
    # fragile; instead assemble the linear map column by column
    n = mu.dim
    cols = []
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n))
            e[a, b] = 1.0
            cols.append(pi_action(e, mu).dense.reshape(-1))
    m = np.array(cols).T
    _, s, vh = np.linalg.svd(m)
    cut = tol * max(1.0, s[0] if len(s) else 0.0)
    null = vh[np.concatenate([s, np.zeros(vh.shape[0] - len(s))]) <= cut]
    return null


def test_derivation_dims():
    assert derivation_algebra(ABELIAN4).shape[0] == 16
    assert derivation_algebra(HEIS3).shape[0] == 6
    assert derivation_algebra(SO3).shape[0] == 3
    assert derivation_algebra(FIL4).shape[0] == 7
    # Der(mu) has no absolute rank floor: its dimension does not change with the scale of mu
    nil7 = get("nil7").tensor()
    for scale in (1e-10, 1e10):
        assert derivation_algebra(HEIS3.scale(scale)).shape[0] == 6
        assert derivation_algebra(FIL4.scale(scale)).shape[0] == 7
        assert derivation_algebra(nil7.scale(scale)).shape[0] == derivation_algebra(nil7).shape[0] == 11


def test_derivation_dims_match_oracle():
    for mu in (HEIS3, SO3, FIL4):
        assert derivation_algebra(mu).shape[0] == derivations_oracle(mu).shape[0]


def test_derivations_are_derivations_and_orthonormal():
    for mu in (HEIS3, SO3, FIL4):
        ders = derivation_algebra(mu)
        for d in ders:
            assert derivation_residual(mu, d) <= 1e-9
        gram = np.einsum("aij,bij->ab", ders, ders)
        assert np.allclose(gram, np.eye(len(ders)), atol=1e-9)


def test_moment_operator_orthogonal_to_derivations():
    for mu in (HEIS3, SO3, FIL4):
        m = moment_operator(mu)
        for d in derivation_algebra(mu):
            assert abs(np.trace(m @ d.T)) <= 1e-9


def test_moment_operator_commutes_with_normal_derivations():
    # [M, E] = 0 whenever E and E^t are both derivations
    for mu in (HEIS3, SO3, FIL4):
        m = moment_operator(mu)
        for d in derivation_algebra(mu):
            if derivation_residual(mu, d.T) <= 1e-9:
                assert np.max(np.abs(m @ d - d @ m)) <= 1e-9


def test_transpose_of_normal_derivation_is_derivation():
    for mu in (HEIS3, SO3, FIL4):
        for d in derivation_algebra(mu):
            if np.max(np.abs(d @ d.T - d.T @ d)) <= 1e-12:
                assert derivation_residual(mu, d.T) <= 1e-8


# ---------------------------------------------------------------------------
# kernel layer: pi_matrix and the shared nullspace
# ---------------------------------------------------------------------------

def pi_matrix_loop(mu):
    """Column-by-column construction of the pi matrix, one (a, b) at a time."""
    n = mu.dim
    t = mu.dense
    rows_idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = np.zeros((len(rows_idx) * n, n * n))
    for a in range(n):
        for b in range(n):
            col = np.zeros((n, n, n))
            col[:, :, a] += t[:, :, b]
            col[b, :, :] -= t[a, :, :]
            col[:, b, :] -= t[:, a, :]
            rows = np.array([col[i, j] for (i, j) in rows_idx]).reshape(-1)
            m[:, a * n + b] = rows
    return m


def random_skew_bracket(rng, n):
    t = rng.standard_normal((n, n, n))
    return AlgebraTensor.from_dense(t - np.swapaxes(t, 0, 1))


def test_pi_matrix_equals_loop_bitwise():
    rng = np.random.default_rng(7)
    for n in range(2, 10):
        for mu in (AlgebraTensor(n), random_skew_bracket(rng, n), random_skew_bracket(rng, n)):
            assert np.array_equal(pi_matrix(mu), pi_matrix_loop(mu))


def test_pi_matrix_applies_pi():
    rng = np.random.default_rng(8)
    mu = random_skew_bracket(rng, 5)
    alpha = rng.standard_normal((5, 5))
    iu, ju = np.triu_indices(5, 1)
    want = pi_action(alpha, mu).dense[iu, ju].reshape(-1)
    assert np.allclose(pi_matrix(mu) @ alpha.reshape(-1), want, atol=1e-12)


def assert_kernel(m, null, dim):
    assert null.shape == (dim, m.shape[1])
    assert np.allclose(null @ null.T, np.eye(dim), atol=1e-12)
    assert np.linalg.norm(m @ null.T) <= 1e-12 * np.linalg.norm(m)


def test_nullspace_wide_matrix():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 7))
    assert_kernel(m, _row_space_and_kernel(m, 1e-9)[1], 4)


def test_nullspace_zero_matrix():
    for shape in ((6, 4), (2, 5)):
        null = _row_space_and_kernel(np.zeros(shape), 1e-9)[1]
        assert null.shape == (shape[1], shape[1])
        assert np.allclose(null @ null.T, np.eye(shape[1]), atol=1e-12)


def test_nullspace_tall_rank_deficient():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 12))
    assert_kernel(m, _row_space_and_kernel(m, 1e-9)[1], 7)


@pytest.mark.parametrize("m", range(1, 9))
def test_heisenberg_derivation_dims(m):
    assert derivation_algebra(heis(m).tensor()).shape[0] == 2 * m * m + 3 * m + 1


@pytest.mark.parametrize("n", range(4, 15))
def test_filiform_derivation_dims(n):
    for unit in (False, True):
        assert derivation_algebra(fil(n, unit).tensor()).shape[0] == 2 * n - 1


def nullspace_full_rows(m, rank_tol):
    """Reference kernel over every row of m, zero rows included: economy QR, then the SVD."""
    cols = m.shape[1]
    if m.shape[0] > cols:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m)
    cut = rank_tol * max(1.0, s[0] if len(s) else 0.0)
    return vh[np.concatenate([s, np.zeros(cols - len(s))]) <= cut]


def projector(null):
    return null.T @ null


def with_zero_rows(rng, m, extra):
    """m with `extra` zero rows interleaved at random positions."""
    out = np.zeros((m.shape[0] + extra, m.shape[1]))
    keep = np.sort(rng.choice(len(out), m.shape[0], replace=False))
    out[keep] = m
    return out


def test_nullspace_ignores_interleaved_zero_rows():
    rng = np.random.default_rng(14)
    # a wide (3 x 9) and a tall rank-deficient (30 x 9) nonzero part, padded past square
    wide = rng.standard_normal((3, 9))
    tall = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 9))
    for m, rank in ((wide, 3), (tall, 4)):
        for extra in (1, 20, 200):
            padded = with_zero_rows(rng, m, extra)
            got = _row_space_and_kernel(padded, 1e-9)[1]
            want = _row_space_and_kernel(m, 1e-9)[1]
            assert got.shape == want.shape == (9 - rank, 9)
            assert np.max(np.abs(projector(got) - projector(want))) <= 1e-12
            ref = nullspace_full_rows(padded, 1e-9)
            assert np.max(np.abs(projector(got) - projector(ref))) <= 1e-12


def derivation_brackets():
    """(label, bracket) for every ladder document and every catalog entry, whole and n-block."""
    from homsol import catalog
    from homsol.io import document_from_catalog, document_from_dict, validate
    from test_compare_reports import compare_reports

    docs = [(raw["name"], document_from_dict(raw)) for raw in compare_reports.ladder_documents()]
    docs += [(name, document_from_catalog(catalog.get(name))) for name in sorted(catalog.names())]
    for label, doc in docs:
        dec, _ = validate(doc)
        yield label, dec.bracket_on
        if dec.dim_n and dec.dim_n < dec.dim:
            yield f"{label} n-block", dec.n_bracket


def test_a_block_from_entries_is_from_dense_of_its_slice():
    # the decomposition's sub-brackets (k, h, n, p and u = k + h) are built from the bracket's
    # entries; each is the tensor from_dense makes of the dense slice, bit for bit
    from homsol import catalog
    from homsol.io import document_from_catalog, document_from_dict, validate
    from test_compare_reports import compare_reports

    def assert_same_block(mu, s, label):
        got, want = mu.block(s), AlgebraTensor.from_dense(mu.dense[s, s, s])
        assert got.dim == want.dim and got.entries == want.entries, label
        assert got.dense.tobytes() == want.dense.tobytes(), label
        assert got.norm_sq == want.norm_sq, label
        assert not got.dense.flags.writeable and not np.shares_memory(got.dense, mu.dense), label
        return bool(got.entries) and got.dim < mu.dim

    docs = [document_from_dict(raw) for raw in compare_reports.ladder_documents()]
    docs += [document_from_catalog(catalog.get(name)) for name in sorted(catalog.names())]
    nonzero = 0
    for doc in docs:
        dec, _ = validate(doc)
        for s in (dec.sk, dec.sh, dec.sn, dec.sp, slice(0, dec.dim_k + dec.dim_h)):
            nonzero += assert_same_block(dec.bracket_on, s, (doc.name, s))
    assert nonzero  # proper blocks with entries, not only empty or whole ones
    # every slice of sparse random skew maps, whose entries leave and enter each block
    rng = np.random.default_rng(26)
    for n in range(7):
        t = rng.standard_normal((n, n, n)) * (rng.random((n, n, n)) < 0.4)
        mu = AlgebraTensor.from_dense(t - t.swapaxes(0, 1))
        for a in range(n + 1):
            for b in range(a, n + 1):
                assert_same_block(mu, slice(a, b), (n, a, b))


def test_derivation_algebra_matches_the_full_row_kernel():
    seen = 0
    for label, mu in derivation_brackets():
        got = derivation_algebra(mu).reshape(-1, mu.dim**2)
        want = nullspace_full_rows(pi_matrix(mu), 1e-9)
        assert got.shape == want.shape, label
        assert np.max(np.abs(projector(got) - projector(want)), initial=0.0) <= 1e-12, label
        seen += 1
    assert seen >= 33 + 17


def test_derivation_algebra_of_a_rotated_heisenberg_algebra():
    # a random orthonormal basis makes pi_matrix dense: there are no zero rows to drop
    rng = np.random.default_rng(15)
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    mu = heis(4).tensor().map_basis(q)
    assert np.all(np.any(pi_matrix(mu) != 0.0, axis=1))
    assert derivation_algebra(mu).shape[0] == 45


def random_orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def assert_same_kernel(got, want, label=None):
    assert got.shape == want.shape, label
    assert np.max(np.abs(got @ got.T - np.eye(len(got))), initial=0.0) <= 1e-12, label
    assert np.max(np.abs(projector(got) - projector(want)), initial=0.0) <= 1e-12, label


@st.composite
def sparse_brackets(draw):
    """A skew bracket on R^n with a few structure constants, in a random orthonormal basis or not."""
    n = draw(st.integers(2, 7))
    triples = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    picked = draw(st.lists(st.sampled_from(triples), min_size=1, max_size=2 * n, unique=True))
    coeffs = st.sampled_from((1.0, -1.0, 2.0, -0.5, 3.0))
    mu = AlgebraTensor(n, tuple((i, j, k, draw(coeffs)) for i, j, k in picked))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        mu = mu.map_basis(random_orthogonal(rng, n))
    return mu


def block_kernel(m):
    """_block_kernel of the dense matrix m, handed over as its nonzero entries in row-major order."""
    rows, cols = np.nonzero(m)
    return _block_kernel(rows, cols, m[rows, cols], m.shape[1])


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(sparse_brackets())
def test_block_kernel_matches_the_whole_system(mu):
    m = pi_matrix(mu)
    assert_same_kernel(block_kernel(m), _row_space_and_kernel(m, RANK_TOL)[1])


def test_block_kernel_matches_the_whole_system_on_catalog_and_ladder_brackets():
    rng = np.random.default_rng(16)
    seen = 0
    for label, mu in derivation_brackets():
        # a random orthonormal basis makes the system one block
        for q in (np.eye(mu.dim), random_orthogonal(rng, mu.dim)):
            m = pi_matrix(mu.map_basis(q))
            assert_same_kernel(block_kernel(m), _row_space_and_kernel(m, RANK_TOL)[1], label)
        seen += 1
    assert seen >= 33 + 17


def test_block_kernel_cuts_every_block_by_the_largest_singular_value_of_the_system():
    # heis3 (+) 1e-10 heis3: the small copy's values fall under RANK_TOL s_max of the whole
    # system, though a cut relative to its own blocks would resolve them
    m = pi_matrix(AlgebraTensor(6, ((0, 1, 2, 1.0), (3, 4, 5, 1e-10))))
    got = block_kernel(m)
    assert_same_kernel(got, _row_space_and_kernel(m, RANK_TOL)[1])
    both_resolved = derivation_algebra(AlgebraTensor(6, ((0, 1, 2, 1.0), (3, 4, 5, 1.0))))
    assert len(got) > len(both_resolved)


def test_pi_entries_are_the_nonzeros_of_the_dense_matrix_bit_for_bit():
    # catalog and ladder brackets, each also in a random orthonormal basis
    # (T'_abc = sum Q_ia Q_jb Q_kc T_ijk), and random tensors that are no Lie brackets
    rng = np.random.default_rng(17)
    brackets = []
    for label, mu in derivation_brackets():
        brackets += [(label, mu), (f"{label} rotated", mu.map_basis(random_orthogonal(rng, mu.dim)))]
    for n in range(1, 10):
        brackets += [(f"random dim {n}", random_skew_bracket(rng, n))]
        brackets += [(f"sparse dim {n}", AlgebraTensor.from_dense(sparse_skew_dense(rng, n)))]
    for label, mu in brackets:
        m = pi_matrix(mu)
        rows, cols = np.nonzero(m)
        got_rows, got_cols, got_vals = _pi_entries(mu)
        assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols), label
        assert got_vals.tobytes() == m[rows, cols].tobytes(), label
    assert len(brackets) >= 2 * (33 + 17) + 18


def test_derivation_dims_do_not_change_under_rotation():
    rng = np.random.default_rng(19)
    for mu, want in ((heis(3).tensor(), 28), (fil(8).tensor(), 15)):
        assert derivation_algebra(mu).shape[0] == want
        for _ in range(3):
            assert derivation_algebra(mu.map_basis(random_orthogonal(rng, mu.dim))).shape[0] == want


def test_derivation_dims_do_not_depend_on_the_bracket_scale():
    for label, mu in derivation_brackets():
        want = derivation_algebra(mu).shape[0]
        for s in (1e-12, 1e-4, 1e4, 1e20):
            assert derivation_algebra(mu.scale(s)).shape[0] == want, (label, s)


_RSS_SCRIPT = """
import json, resource, sys
from homsol.catalog import heis
from homsol.tensor import derivation_algebra
dim = derivation_algebra(heis(int(sys.argv[1])).tensor()).shape[0]
print(json.dumps({"dim": dim, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


@pytest.mark.parametrize("m, dim, limit_mb", [(11, 276, 150), (15, 496, 500)])
def test_derivation_algebra_peak_memory(m, dim, limit_mb):
    # h_23 and h_31 in a fresh process: peak RSS, not wall time, is bounded
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT, str(m)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["dim"] == dim
    assert got["rss_mb"] <= limit_mb


# ---------------------------------------------------------------------------
# storage invariants
# ---------------------------------------------------------------------------

def test_entries_canonicalized():
    mu = AlgebraTensor(3, ((1, 0, 2, 1.0), (0, 1, 2, 0.5)))
    assert mu.entries == ((0, 1, 2, -0.5),)


def test_entry_validation():
    with pytest.raises(ValueError):
        AlgebraTensor(3, ((0, 3, 1, 1.0),))
    with pytest.raises(ValueError):
        AlgebraTensor(3, ((1, 1, 0, 1.0),))


def test_map_basis_roundtrip():
    rng = np.random.default_rng(41)
    f = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    back = FIL4.map_basis(f).map_basis(np.linalg.inv(f))
    assert np.allclose(back.dense, FIL4.dense, atol=1e-10)


# ---------------------------------------------------------------------------
# vectorised canonicalisation and Jacobi residual against their loop versions
# ---------------------------------------------------------------------------

def from_dense_loop(dense, zero_tol=0.0):
    """Entry-by-entry canonicalisation over i < j, every k."""
    n = dense.shape[0]
    cut = max(zero_tol, 0.0)
    entries = [
        (i, j, k, dense[i, j, k])
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(n)
        if abs(dense[i, j, k]) > cut
    ]
    return AlgebraTensor(n, tuple(entries))


def jacobi_residual_loop(mu):
    """Norm of the Jacobiator summed over the i < j < l triples only."""
    t = mu.dense
    c = np.einsum("ijk,klm->ijlm", t, t)
    jac = c + np.transpose(c, (1, 2, 0, 3)) + np.transpose(c, (2, 0, 1, 3))
    n = mu.dim
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                total += float(np.sum(jac[i, j, l] ** 2))
    return float(np.sqrt(total))


def sparse_skew_dense(rng, n):
    """Skew tensor with exact zeros and magnitudes spread over 1e-16..1."""
    t = rng.standard_normal((n, n, n)) * 10.0 ** rng.uniform(-16, 0, (n, n, n))
    t[rng.random((n, n, n)) < 0.3] = 0.0
    return t - np.swapaxes(t, 0, 1)


def test_from_dense_entries_equal_loop_exactly():
    rng = np.random.default_rng(11)
    for n in range(1, 10):
        for _ in range(3):
            dense = sparse_skew_dense(rng, n)
            for zero_tol in (0.0, 1e-8, 1e-3):
                got = AlgebraTensor.from_dense(dense, zero_tol=zero_tol)
                want = from_dense_loop(dense, zero_tol)
                assert got.entries == want.entries
                assert np.array_equal(got.dense, want.dense)


def test_jacobi_residual_matches_loop():
    rng = np.random.default_rng(12)
    brackets = [HEIS3, FIL4, SO3, ABELIAN4, heis(4).tensor(), fil(9).tensor()]
    for n in range(1, 10):
        brackets += [random_skew_bracket(rng, n) for _ in range(3)]
    for mu in brackets:
        want = jacobi_residual_loop(mu)
        assert jacobi_residual(mu) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_jacobi_residual_agrees_with_the_einsum_formula_on_sparse_and_larger_tensors():
    rng = np.random.default_rng(18)
    for n in range(0, 13):
        for mu in (random_skew_bracket(rng, n), AlgebraTensor.from_dense(sparse_skew_dense(rng, n))):
            assert abs(jacobi_residual(mu) - jacobi_residual_loop(mu)) <= 1e-12 * mu.norm_sq


def test_jacobi_residual_is_exactly_zero_on_the_catalog_and_ladder_brackets():
    seen = 0
    for label, mu in derivation_brackets():
        assert jacobi_residual(mu) == 0.0, label
        seen += 1
    assert seen >= 33 + 17


def test_cached_index_arrays_are_read_only():
    # every caller of one n shares them: a write would corrupt all later Jacobi tests and pi builds
    for n in (3, 9):
        for a in (*_increasing_triples(n), _pair_index(n)):
            with pytest.raises(ValueError):
                a[0] = 1


def from_dense_via_entries(dense, zero_tol=0.0):
    """The kept strict upper triangle handed to the canonicalizing constructor."""
    n = dense.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]
    i, j, k = np.nonzero(upper & (np.abs(dense) > max(zero_tol, 0.0)))
    return AlgebraTensor(n, tuple(zip(i.tolist(), j.tolist(), k.tolist(), dense[i, j, k].tolist())))


def bits(mu):
    """Entries with their values as exact hex strings, and the dense array's bytes."""
    return [(i, j, k, float(c).hex()) for i, j, k, c in mu.entries], mu.dense.tobytes()


def test_from_dense_is_bitwise_the_constructor_path():
    rng = np.random.default_rng(13)
    for n in range(0, 10):
        for _ in range(3):
            skew = sparse_skew_dense(rng, n)
            lower = np.tril(np.ones((n, n), dtype=bool), -1)[:, :, None] & (skew != 0.0)
            perturbed = skew.copy()
            perturbed[lower] *= 1.0 + rng.uniform(-1e-13, 1e-13, np.count_nonzero(lower))
            signed_zeros = skew.copy()
            pairs = rng.random(skew.shape) < 0.2
            signed_zeros[pairs | np.swapaxes(pairs, 0, 1)] = -0.0
            for dense in (skew, perturbed, signed_zeros):
                for zero_tol in (0.0, 1e-8, 1e-3):
                    got = AlgebraTensor.from_dense(dense, zero_tol=zero_tol)
                    want = from_dense_via_entries(dense, zero_tol)
                    assert bits(got) == bits(want) and got.dim == n
                    assert not got.dense.flags.writeable
                    with pytest.raises(ValueError):
                        got.dense[...] = 0.0


def test_norm_sq_is_the_sum_of_the_dense_squares_bit_for_bit():
    # |mu|^2 is summed once, when a tensor is made, on every path that makes one
    rng = np.random.default_rng(23)
    seen = 0
    for label, mu in contraction_brackets():
        frame = random_orthogonal(rng, mu.dim) * rng.uniform(0.5, 2.0, mu.dim)
        made = {
            "given": mu,
            "constructor": AlgebraTensor(mu.dim, mu.entries),
            "from_dense": AlgebraTensor.from_dense(mu.dense),
            "map_basis": mu.map_basis(frame),
            "scale": mu.scale(-3.7e4),
        }
        for how, out in made.items():
            want = float(np.sum(out.dense**2))
            assert out.norm_sq.hex() == want.hex(), (label, how)
            assert out.norm.hex() == float(np.sqrt(want)).hex(), (label, how)
        # the stored |mu|^2 is no part of equality or hash, the decomposition memo's key
        assert made["constructor"] == mu and hash(made["constructor"]) == hash(mu), label
        seen += 1
    assert seen >= 20 + 2 * (33 + 17)


def test_range_fault_of_a_bracket_out_of_range_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, fault in (
            (1e300, "bracket-norm-overflow"),
            (1e77, "bracket-norm-overflow"),
            (1e76, None),
            (1e-77, None),
            (1e-78, "bracket-norm-underflow"),
            (1e-100, "bracket-norm-underflow"),
        ):
            mu = AlgebraTensor(3, ((0, 1, 2, c),))
            for out in (mu, AlgebraTensor.from_dense(mu.dense)):
                got = out.range_fault()
                assert (got and got[0]) == fault, c
        assert AlgebraTensor(3).range_fault() is None
        assert AlgebraTensor(0).range_fault() is None


def test_from_dense_keeps_a_non_finite_entry_for_range_fault_to_refuse():
    # a NaN or infinite entry is no zero: from_dense keeps it, without a warning, so the
    # tensor is refused rather than read as a finite bracket with that entry dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            t = np.zeros((3, 3, 3))
            t[0, 1, 2], t[1, 0, 2] = 1.0, -1.0
            t[0, 2, 1], t[2, 0, 1] = bad, -bad
            for zero_tol in (0.0, 1e-8):
                mu = AlgebraTensor.from_dense(t, zero_tol=zero_tol)
                assert [e[:3] for e in mu.entries] == [(0, 1, 2), (0, 2, 1)], bad
                assert mu.range_fault()[0] == "bracket-not-finite", bad


# ---------------------------------------------------------------------------
# the matrix-product kernels against their einsum formulas
# ---------------------------------------------------------------------------
# Each kernel is compared with the einsum it replaced to 1e-12 relative to the
# size of its operands (|alpha| |T| for pi(alpha) mu, |T|^2 for a Gram matrix),
# since a contraction that cancels, such as pi(D) mu for a derivation D, has no
# size of its own.

def pi_action_einsum(alpha, t):
    return (
        np.einsum("kl,ijl->ijk", alpha, t)
        - np.einsum("pi,pjk->ijk", alpha, t)
        - np.einsum("pj,ipk->ijk", alpha, t)
    )


def ad_einsum(t, x):
    return np.einsum("ijk,i->kj", t, x)


def map_basis_einsum(t, frame):
    t = np.einsum("ia,ijk->ajk", frame, t)
    t = np.einsum("jb,ajk->abk", frame, t)
    return np.einsum("ck,abk->abc", np.linalg.inv(frame), t)


def gram_pair_einsum(t):
    return np.einsum("ijp,ijq->pq", t, t), np.einsum("pjk,qjk->pq", t, t)


def killing_einsum(t):
    b = np.einsum("ilk,jkl->ij", t, t)
    return 0.5 * (b + b.T)


def lower_central_length_einsum(mu, tol):
    n, t = mu.dim, mu.dense
    if n == 0:
        return 1
    basis = np.eye(n)
    for step in range(1, n + 2):
        img = np.einsum("ijk,ja->iak", t, basis).reshape(-1, n)
        row, _ = _row_space_and_kernel(img, tol, floor=tol * mu.norm)
        if len(row) == 0:
            return step
        if len(row) >= basis.shape[1]:
            return None
        basis = row.T
    return None


def action_ricci_term_einsum(ops):
    s = 0.5 * (ops + np.transpose(ops, (0, 2, 1)))
    return np.einsum("aij,bij->ab", s, s)


def block_least_squares_einsum(a, b):
    """tensor._least_squares's block solve of a sparse design, with its two batched einsums."""
    _, solved = _block_svds(a, *np.nonzero(a))
    cut = np.finfo(float).eps * max(a.shape) * max(float(s.max()) for *_, s, _ in solved)
    x = np.zeros(a.shape[1])
    for block_cols, block_rows, u, s, vh in solved:
        rhs = np.where(block_rows >= 0, b[block_rows], 0.0)
        inv = np.zeros_like(s)
        np.divide(1.0, s, out=inv, where=s > cut)
        coef = np.einsum("brk,br->bk", u, rhs) * inv
        x[block_cols] = np.einsum("bk,bkw->bw", coef, vh[:, : s.shape[1]])
    return x


def assert_matches(got, want, scale, label):
    assert got.shape == want.shape, label
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale, label


def read_only(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def contraction_brackets():
    """(label, bracket): seeded random skew tensors of dimension 0-9, and every catalog and
    ladder bracket (whole and n-block) in its own basis and in a random orthonormal one.

    Each bracket's dense array is its cached, read-only one.
    """
    rng = np.random.default_rng(41)
    for n in range(10):
        for r in range(2):
            yield f"random dim {n} #{r}", random_skew_bracket(rng, n)
    for label, mu in derivation_brackets():
        yield label, mu
        yield f"{label} rotated", mu.map_basis(random_orthogonal(rng, mu.dim))


def operators(rng, n):
    """A random operator as given, read-only, transposed (a strided view) and read-only transposed."""
    a = rng.standard_normal((n, n))
    return {"plain": a, "read-only": read_only(a), "transposed": a.T, "read-only transposed": read_only(a).T}


def test_pi_action_dense_matches_its_einsum_formula():
    rng = np.random.default_rng(42)
    seen = 0
    for label, mu in contraction_brackets():
        t = mu.dense
        assert not t.flags.writeable
        ops = operators(rng, mu.dim)
        if mu.dim and not label.startswith("random"):
            # ad e_0 read off the cached tensor: a derivation of a Lie bracket, so pi(ad e_0) mu
            # cancels to roundoff
            ops["inner derivation"] = t[0].T
        for kind, alpha in ops.items():
            got = pi_action_dense(alpha, t)
            assert_matches(got, pi_action_einsum(alpha, t), np.linalg.norm(alpha) * mu.norm, (label, kind))
        seen += 1
    assert seen >= 20 + 2 * (33 + 17)


def test_ad_matches_its_einsum_formula():
    rng = np.random.default_rng(43)
    for label, mu in contraction_brackets():
        n = mu.dim
        x = rng.standard_normal(n)
        vectors = {"plain": x, "read-only": read_only(x), "strided": np.repeat(x, 2)[::2]}
        vectors.update((f"basis {i}", row) for i, row in enumerate(np.eye(n)))
        for kind, v in vectors.items():
            assert_matches(mu.ad(v), ad_einsum(mu.dense, v), np.linalg.norm(v) * mu.norm, (label, kind))


def test_ad_of_the_basis_vectors_of_a_decomposition_match_their_einsum_formula():
    # MetricDecomposition._ad_on(i) reads ad e_i off the dense tensor, on each Lie bracket
    # taken as g = h (no k, no n), in its own basis and rotated
    for label, mu in contraction_brackets():
        if label.startswith("random"):
            continue
        dec = MetricDecomposition(mu, 0, mu.dim, 0)
        for i, e in enumerate(np.eye(mu.dim)):
            assert_matches(dec._ad_on(i), ad_einsum(dec.bracket_on.dense, e), mu.norm, (label, i))


def test_map_basis_matches_its_einsum_formula():
    rng = np.random.default_rng(44)
    for label, mu in contraction_brackets():
        n = mu.dim
        q = random_orthogonal(rng, n)
        general = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        frames = {"orthogonal": q, "read-only": read_only(q), "transposed": q.T, "general": general}
        for kind, frame in frames.items():
            got = mu.map_basis(frame).dense
            want = map_basis_einsum(mu.dense, frame)
            scale = np.linalg.norm(frame) ** 2 * np.linalg.norm(np.linalg.inv(frame)) * mu.norm
            assert_matches(got, want, scale, (label, kind))


def test_gram_pair_and_moment_operator_match_their_einsum_formulas():
    for label, mu in contraction_brackets():
        out, inn = _gram_pair(mu.dense)
        want_out, want_inn = gram_pair_einsum(mu.dense)
        assert_matches(out, want_out, mu.norm_sq, label)
        assert_matches(inn, want_inn, mu.norm_sq, label)
        assert_matches(moment_operator(mu), 0.25 * want_out - 0.5 * want_inn, mu.norm_sq, label)


def test_killing_form_and_mean_curvature_match_their_einsum_formulas():
    for label, mu in contraction_brackets():
        assert_matches(_killing(mu), killing_einsum(mu.dense), mu.norm_sq, label)
        traces = np.array([np.trace(ad_einsum(mu.dense, e)) for e in np.eye(mu.dim)])
        for dim_k in {0, mu.dim // 2, mu.dim}:
            assert_matches(_mean_curvature(mu, dim_k), traces[dim_k:], mu.norm, (label, dim_k))


def test_lower_central_length_matches_its_einsum_formula():
    nilpotent = 0
    for label, mu in contraction_brackets():
        got = _lower_central_length(mu, 1e-9)
        assert got == lower_central_length_einsum(mu, 1e-9), label
        nilpotent += got is not None
    assert nilpotent >= 2 * 33


def test_action_ricci_term_matches_its_einsum_formula():
    rng = np.random.default_rng(45)
    for n in range(10):
        for m in range(4):
            ops = rng.standard_normal((m, n, n))
            stacks = {
                "plain": ops,
                "read-only": read_only(ops),
                "transposed": np.transpose(ops, (0, 2, 1)),  # as BracketBlocks.ad_eta stacks them
            }
            for kind, stack in stacks.items():
                want = action_ricci_term_einsum(stack)
                assert_matches(_action_ricci_term(stack), want, np.linalg.norm(stack) ** 2, (n, m, kind))


def test_block_least_squares_matches_its_einsum_formula(monkeypatch):
    # designs of 8-16 blocks, so sparse enough to be solved block by block: random blocks of
    # 1-6 columns on their own rows, permuted, some rank-deficient, some columns no entry holds
    monkeypatch.setattr(tensor, "FIT_BLOCK_MIN_COLS", 0)
    rng = np.random.default_rng(46)
    for trial in range(40):
        widths = rng.integers(1, 7, size=rng.integers(8, 17))
        depths = rng.integers(1, 8, size=len(widths))
        a = np.zeros((depths.sum(), widths.sum() + trial % 3))
        r = c = 0
        for w, d in zip(widths, depths):
            block = rng.standard_normal((d, w))
            if rng.random() < 0.3:
                block[:, -1] = block[:, 0]
            a[r : r + d, c : c + w] = block
            r, c = r + d, c + w
        a = a[rng.permutation(len(a))][:, rng.permutation(a.shape[1])]
        assert 4 * np.count_nonzero(a) <= a.size, trial
        b = rng.standard_normal(len(a))
        s = np.linalg.svd(a, compute_uv=False)
        scale = np.linalg.norm(b) / np.min(s[s > 1e-8 * s[0]])  # |x| is at most this
        assert_matches(_least_squares(a, b), block_least_squares_einsum(a, b), scale, trial)
