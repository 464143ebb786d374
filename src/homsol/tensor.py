"""Skew-symmetric bracket tensors on an inner-product space.

A bracket mu in Lambda^2(R^n)* (x) R^n is stored sparsely as structure
constants mu(e_i, e_j) = sum_k c * e_k with canonical keys i < j; the
value at (j, i) is implied by skew-symmetry.  All numerics run on a dense
(n, n, n) array T with T[i, j, k] = <mu(e_i, e_j), e_k>, which is skew in
its first two slots.

Conventions fixed here and used by every downstream module:

* the inner product on tensors sums over ALL ordered index pairs,
      <mu, lam> = sum_{i,j} <mu(e_i, e_j), lam(e_i, e_j)>,
  so each unordered pair is counted twice;
* gl(n) acts through the derived action
      pi(a) mu = a mu(.,.) - mu(a ., .) - mu(., a .),
  whose kernel is the derivation algebra of mu;
* the moment map m(mu) and the quarter-scaled operator M(mu) are tied by
      M = (|mu|^2 / 4) m(mu),   tr(M E) = (1/4) <pi(E) mu, mu>.

Under this ordered-pair convention the Heisenberg bracket mu(e1,e2) = e3
has |mu|^2 = 2 and m(mu) = diag(-1, -1, 1).

The one record type of every report, ``Check``, lives here too, since
every other module imports this one: a condition homogeneous of degree d
in mu passes when its residual is at most tol |mu|^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_TOL = 1e-9

# singular values s <= RANK_TOL * s_max of a derivation system count as zero (no absolute floor)
RANK_TOL = 1e-9
# from this many unknowns on, a derivation system is solved block by block (_derivation_kernel)
BLOCK_MIN_COLS = 64

Entry = tuple[int, int, int, float]


@dataclass(frozen=True)
class Check:
    """One verdict: ``value <= bound``, or an explicit ``verdict`` where no bound applies.

    A NaN value or bound fails.  Records without a bound are the iff
    clauses, skipped checks and summaries; they carry their verdict.
    """

    name: str
    anchor: str  # the identity or inequality being checked, as a formula
    value: float | None = None
    bound: float | None = None
    info: dict = field(default_factory=dict)
    verdict: bool | None = None

    @classmethod
    def of_degree(
        cls, name: str, anchor: str, value: float, tol: float, norm: float, degree: int, **info
    ) -> "Check":
        """``value <= tol * norm**degree`` for a value homogeneous of ``degree`` in the bracket.

        ``norm`` is |mu| in an orthonormal frame, so the verdict does not
        change when the bracket is rescaled.
        """
        return cls(name, anchor, float(value), tol * norm**degree, info)

    def skipped(self, reason: str) -> "Check":
        """This check reported, not asserted, because its hypothesis is absent: it passes."""
        return replace(self, bound=None, info={"skipped": reason}, verdict=True)

    @property
    def passed(self) -> bool:
        if self.bound is None:
            return bool(self.verdict)
        return bool(self.value <= self.bound)

    @property
    def residual(self) -> float | None:
        return self.value


@dataclass(kw_only=True)
class CheckedReport:
    """A report whose verdicts are its list of checks; ``skipped`` when its hypothesis is absent."""

    checks: list[Check]
    skipped: bool = False

    def condition(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        return not self.skipped and all(c.passed for c in self.checks)


def frob(x) -> float:
    """Euclidean (Frobenius) norm of the entries of x, equal to ``np.linalg.norm(x)``.

    The sum of squares of a quantity of degree 3 or 4 in a large bracket
    can overflow; only then is x rescaled by max|x|, so other calls cost
    one dot product.
    """
    r = np.ravel(x, order="K")
    out = math.sqrt(np.vdot(r, r))  # vdot, unlike dot, raises no overflow warning
    if out == math.inf:
        top = float(np.max(np.abs(r)))
        if top < math.inf:
            r = r / top
            out = top * math.sqrt(np.vdot(r, r))
    return out


def _canonical_entries(dim: int, entries) -> tuple[Entry, ...]:
    acc: dict[tuple[int, int, int], float] = {}
    for i, j, k, c in entries:
        i, j, k = int(i), int(j), int(k)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError(f"index out of range in entry ({i},{j},{k}) for dim {dim}")
        if i == j:
            raise ValueError(f"diagonal entry ({i},{i},{k}) is not allowed")
        if i > j:
            i, j, c = j, i, -c
        key = (i, j, k)
        acc[key] = acc.get(key, 0.0) + float(c)
    return tuple(
        (i, j, k, c) for (i, j, k), c in sorted(acc.items()) if c != 0.0
    )


@dataclass(frozen=True)
class AlgebraTensor:
    """Sparse skew-symmetric bilinear map mu: R^dim x R^dim -> R^dim."""

    dim: int
    entries: tuple[Entry, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "entries", _canonical_entries(self.dim, self.entries))
        dense = np.zeros((self.dim, self.dim, self.dim))
        for i, j, k, c in self.entries:
            dense[i, j, k] = c
            dense[j, i, k] = -c
        dense.setflags(write=False)
        object.__setattr__(self, "_dense", dense)

    @classmethod
    def from_dense(cls, dense: np.ndarray, zero_tol: float = 0.0) -> "AlgebraTensor":
        dense = np.asarray(dense, dtype=float)
        n = dense.shape[0]
        if dense.shape != (n, n, n):
            raise ValueError(f"dense tensor must be cubic, got {dense.shape}")
        if n == 0:
            return cls(0)
        skew_defect = np.max(np.abs(dense + np.swapaxes(dense, 0, 1)))
        if skew_defect > max(zero_tol, 1e-12 * np.max(np.abs(dense))):
            raise ValueError(f"tensor is not skew-symmetric (defect {skew_defect:.3e})")
        # the kept strict upper triangle, in C order, is already the canonical entry list
        upper = np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]
        keep = upper & (np.abs(dense) > max(zero_tol, 0.0))
        i, j, k = np.nonzero(keep)
        entries = tuple(zip(i.tolist(), j.tolist(), k.tolist(), dense[i, j, k].tolist()))
        u = np.where(keep, dense, 0.0)
        skew_dense = u - u.swapaxes(0, 1)
        skew_dense.setflags(write=False)
        out = object.__new__(cls)  # no __post_init__: nothing to canonicalize
        for name, value in (("dim", n), ("entries", entries), ("_dense", skew_dense)):
            object.__setattr__(out, name, value)
        return out

    @property
    def dense(self) -> np.ndarray:
        return self._dense  # type: ignore[attr-defined]

    @property
    def norm_sq(self) -> float:
        return float(np.sum(self.dense**2))

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq))

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of mu(x, .)."""
        return np.einsum("ijk,i->kj", self.dense, x)

    def map_basis(self, frame: np.ndarray) -> "AlgebraTensor":
        """Structure constants in the basis given by the columns of ``frame``."""
        finv = np.linalg.inv(frame)
        t = np.einsum("ia,ijk->ajk", frame, self.dense)
        t = np.einsum("jb,ajk->abk", frame, t)
        t = np.einsum("ck,abk->abc", finv, t)
        return AlgebraTensor.from_dense(t, zero_tol=0.0)

    def scale(self, c: float) -> "AlgebraTensor":
        return AlgebraTensor(self.dim, tuple((i, j, k, c * v) for i, j, k, v in self.entries))


def tensor_inner(mu: AlgebraTensor, lam: AlgebraTensor) -> float:
    """<mu, lam> summed over all ordered basis pairs (twice each i < j term)."""
    if mu.dim != lam.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {lam.dim}")
    return float(np.sum(mu.dense * lam.dense))


def pi_action(alpha: np.ndarray, mu: AlgebraTensor) -> AlgebraTensor:
    """Derived gl-action pi(alpha) mu = alpha mu(.,.) - mu(alpha ., .) - mu(., alpha .)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (mu.dim, mu.dim):
        raise ValueError(f"operator shape {alpha.shape} does not match dim {mu.dim}")
    return AlgebraTensor.from_dense(pi_action_dense(alpha, mu.dense))


def pi_action_dense(alpha: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The dense array of pi(alpha) mu for the dense tensor t of mu (no canonicalization)."""
    out = np.einsum("kl,ijl->ijk", alpha, t)
    out -= np.einsum("pi,pjk->ijk", alpha, t)
    out -= np.einsum("pj,ipk->ijk", alpha, t)
    return out


def jacobi_residual(mu: AlgebraTensor) -> float:
    """Euclidean norm of the Jacobiator over all i < j < l basis triples.

    Zero (up to roundoff) exactly when mu satisfies the Jacobi identity.
    """
    t = mu.dense
    c = np.einsum("ijk,klm->ijlm", t, t)
    jac = c + np.transpose(c, (1, 2, 0, 3)) + np.transpose(c, (2, 0, 1, 3))
    # the Jacobiator is alternating in (i, j, l): each i < j < l triple occurs 6 times
    return float(np.sqrt(np.sum(jac**2) / 6.0))


def nilpotency_class(mu: AlgebraTensor, tol: float = DEFAULT_TOL) -> int | None:
    """Length of the lower central series, or None if it stabilizes nonzero.

    Returns 1 for abelian, 2 for Heisenberg, ...; requires mu to satisfy
    Jacobi (raises otherwise), since the series is only meaningful for Lie
    brackets.
    """
    jac = jacobi_residual(mu)
    if not jac <= tol * mu.norm_sq:
        raise ValueError(f"not a Lie bracket (Jacobi residual {jac:.3e})")
    return _lower_central_length(mu, tol)


def _lower_central_length(mu: AlgebraTensor, tol: float) -> int | None:
    """nilpotency_class without its Jacobi test, for callers that have made their own."""
    n = mu.dim
    if n == 0:
        return 1
    t = mu.dense
    basis = np.eye(n)
    for step in range(1, n + 2):
        # span of [g, W] for the current term W; the degree-1 floor recognises a zero map
        img = np.einsum("ijk,ja->iak", t, basis).reshape(-1, n)
        row, _ = _row_space_and_kernel(img, tol, floor=tol * mu.norm)
        if len(row) == 0:
            return step
        if len(row) >= basis.shape[1]:
            return None
        basis = row.T
    return None


def _gram_pair(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # out[p,q] = sum_{ij} T_ijp T_ijq ; inn[p,q] = sum_{jk} T_pjk T_qjk
    out = np.einsum("ijp,ijq->pq", t, t)
    inn = np.einsum("pjk,qjk->pq", t, t)
    return out, inn


def moment_map(mu: AlgebraTensor) -> np.ndarray:
    """Moment map value m(mu) in sym(n), normalized so that m(c mu) = m(mu).

    Satisfies <m(mu), a> = |mu|^{-2} <pi(a) mu, mu> for every a in gl(n).
    """
    nrm2 = mu.norm_sq
    if nrm2 == 0.0:
        raise ValueError("moment map is undefined at the zero tensor")
    out, inn = _gram_pair(mu.dense)
    return (out - 2.0 * inn) / nrm2


def moment_operator(mu: AlgebraTensor) -> np.ndarray:
    """The symmetric operator M with tr(M E) = (1/4) <pi(E) mu, mu>.

    Equals (|mu|^2 / 4) m(mu) for mu != 0 and vanishes at mu = 0.
    """
    out, inn = _gram_pair(mu.dense)
    return 0.25 * out - 0.5 * inn


def pi_matrix(mu: AlgebraTensor) -> np.ndarray:
    """Matrix of a |-> pi(a) mu, rows indexed by (i<j, k), columns by (a, b)."""
    n = mu.dim
    t = mu.dense
    iu, ju = np.triu_indices(n, 1)
    r = np.arange(len(iu))
    d = np.arange(n)
    # d(pi(alpha)mu)[i,j,k] / d alpha[a,b] = delta_{ka} T[i,j,b]
    #                                        - delta_{bi} T[a,j,k] - delta_{bj} T[i,a,k]
    # written into m[row pair, k, a, b]
    m = np.zeros((len(iu), n, n, n))
    m[:, d, d, :] += t[iu, ju][:, None, :]
    m[r, :, :, iu] -= t[:, ju, :].transpose(1, 2, 0)
    m[r, :, :, ju] -= t[iu, :, :].transpose(0, 2, 1)
    return m.reshape(len(iu) * n, n * n)


def _row_space_and_kernel(
    m: np.ndarray, rank_tol: float, floor: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the row space of m and its kernel: the library's one rank cut.

    Singular values s <= max(rank_tol s_max, floor) count as zero, so the
    split does not change when m is rescaled; ``floor``, of the caller's
    degree in the bracket, recognises a map that is zero up to roundoff.
    :func:`_block_kernel` applies the same cut, with no floor, to the
    blocks of a derivation system, taking s_max over all of them.

    Rows of m that are exactly zero constrain nothing and are dropped
    first: the kernel and the nonzero singular values stay the same.  A
    tall remainder is then reduced to the square R factor of its economy
    QR, which has the same singular values and right singular vectors, so
    the SVD never forms the large left factor (Chan, ACM TOMS 1982).
    """
    cols = m.shape[1]
    m = m[np.any(m != 0.0, axis=1)]
    if m.shape[0] > cols:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m)
    cut = max(rank_tol * (s[0] if len(s) else 0.0), floor)
    kept = np.concatenate([s, np.zeros(cols - len(s))]) > cut
    return vh[kept], vh[~kept]


def _column_components(cols: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """A label per column, equal exactly on each connected component of the column graph.

    ``cols`` holds the columns of a matrix's nonzero entries in row order,
    ``starts`` the position in ``cols`` where each nonzero row begins, and
    ``width`` is the number of columns; two columns are linked when a row
    holds both.  Labels start as the column indices and fall, until they
    are stable, to the least label in a shared row, with pointer jumping;
    so each label is a column of its component, and a column that no row
    holds keeps its own index.
    """
    label = np.arange(width)
    lengths = np.diff(starts, append=len(cols))
    while True:
        row_min = np.minimum.reduceat(label[cols], starts)
        new = label.copy()
        np.minimum.at(new, cols, np.repeat(row_min, lengths))
        new = new[new]
        # all in the component of column 0 (a system in a generic basis): no later pass moves
        if np.array_equal(new, label) or not new.any():
            return new
        label = new


def _block_kernel(m: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ker m, solved block by block; the cut of _row_space_and_kernel.

    A connected component of m's column graph (:func:`_column_components`)
    and the nonzero rows that hold it form a block: m is block diagonal up
    to a permutation of its rows and columns, so its singular values are
    the union of its blocks', and the cut s <= RANK_TOL s_max, with s_max
    the largest over all blocks and no floor, gives the rank and the
    kernel of the whole system.  A column that no nonzero row holds is a
    unit kernel vector.  The blocks of one width are stacked, the shorter
    ones padded with zero rows (which change neither singular values nor
    right singular vectors), and solved by one batched SVD, economy-sized
    where they are taller than wide.  A system that is one block is
    solved whole.
    """
    width = m.shape[1]
    # np.flatnonzero of a bool array is several times faster than of a float one
    rows, cols = np.divmod(np.flatnonzero(m != 0.0), width)
    if len(rows) == 0:
        return np.eye(width)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    label = _column_components(cols, starts, width)
    size = np.bincount(label, minlength=width)  # columns per component, at its label
    if size.max() == width:
        return _row_space_and_kernel(m, RANK_TOL)[1]
    row_label = label[cols[starts]]
    depth = np.bincount(row_label, minlength=width)  # rows per component, at its label
    row_order = rows[starts][np.argsort(row_label, kind="stable")]
    row_start = np.cumsum(depth) - depth
    col_order = np.argsort(label, kind="stable")
    col_start = np.cumsum(size) - size

    solved = []
    for w in np.flatnonzero(np.bincount(size[depth > 0])):
        roots = np.flatnonzero((size == w) & (depth > 0))
        block_cols = col_order[col_start[roots, None] + np.arange(w)]
        r = np.arange(depth[roots].max())
        real = r < depth[roots, None]
        block_rows = row_order[np.where(real, row_start[roots, None] + r, 0)]
        stack = np.where(real[:, :, None], m[block_rows[:, :, None], block_cols[:, None, :]], 0.0)
        _, s, vh = np.linalg.svd(stack, full_matrices=len(r) < w)
        solved.append((block_cols, s, vh))

    cut = RANK_TOL * max(float(s.max()) for _, s, _ in solved)
    free = np.flatnonzero(np.bincount(cols, minlength=width) == 0)
    kernel = [(free[:, None] == np.arange(width)).astype(float)]
    for block_cols, s, vh in solved:
        zero = np.ones(vh.shape[:2], dtype=bool)  # past min(rows, width) a singular value is 0
        zero[:, : s.shape[1]] = ~(s > cut)
        b, j = np.nonzero(zero)
        vectors = np.zeros((len(b), width))
        vectors[np.arange(len(b))[:, None], block_cols[b]] = vh[b, j]
        kernel.append(vectors)
    return np.concatenate(kernel)


def _derivation_kernel(m: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ker m of a derivation system, cut at RANK_TOL s_max.

    Below BLOCK_MIN_COLS unknowns the whole system's SVD costs less than
    finding its blocks; from there on it is solved by :func:`_block_kernel`.
    """
    if m.shape[1] < BLOCK_MIN_COLS:
        return _row_space_and_kernel(m, RANK_TOL)[1]
    return _block_kernel(m)


def derivation_algebra(mu: AlgebraTensor) -> np.ndarray:
    """Orthonormal basis of Der(mu) = ker(a -> pi(a) mu), stacked (m, n, n).

    Orthonormal for the Frobenius pairing tr(A B^t).  The kernel comes from
    the nonzero rows of the (n^2(n-1)/2, n^2) matrix of pi.  From n^2 >=
    BLOCK_MIN_COLS unknowns on it is solved block by block (two unknowns
    D_ab share a block when a nonzero row holds both; a nice basis splits
    h_17's 289 unknowns into 129 blocks, the widest 17), with one batched
    SVD per block width; smaller systems, and a system that is one block,
    go through an economy QR when tall, then one SVD.  Either way singular
    values s <= RANK_TOL s_max, with s_max over the whole system and no
    absolute floor, count as zero, so rescaling mu does not change
    dim Der(mu).
    """
    n = mu.dim
    if n == 0:
        return np.zeros((0, 0, 0))
    return _derivation_kernel(pi_matrix(mu)).reshape(-1, n, n)


def derivation_residual(mu: AlgebraTensor, alpha: np.ndarray) -> float:
    """|pi(alpha) mu| as an absolute residual of the derivation property."""
    return frob(pi_action_dense(alpha, mu.dense))
