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
has |mu|^2 = 2 and m(mu) = diag(-1, -1, 1).  A tensor sums its |mu|^2
once, when it is made, and owns the one range rule on it (``range_fault``).

The one record type of every report, ``Check``, lives here too, since
every other module imports this one: a condition homogeneous of degree d
in mu passes when its residual is at most tol |mu|^d.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_TOL = 1e-9

# the largest dimension computed in.  The dense pi system of a bracket in a generic basis
# (pi_matrix, n^4 (n-1)/2 doubles) is 1 GB at n = 48, and its solve peaks near 4x the
# matrix (rotated h_21: 97 MB for a 15 MB matrix, h_29: 342 MB for 79 MB), so n = 48
# needs about 4 GB; a bounded solve is ROADMAP item 12
MAX_DIM = 48

# singular values s <= RANK_TOL * s_max of a derivation system count as zero (no absolute floor)
RANK_TOL = 1e-9
# from this many unknowns on, a derivation system is solved block by block (derivation_algebra)
BLOCK_MIN_COLS = 64
# from this many columns on, a sparse least-squares design is solved block by block (_least_squares)
FIT_BLOCK_MIN_COLS = 72

# The size of each of the library's memos (decomposition.decompose, io._document and the
# lower central series of _lower_central_length).  A build, its three extensions and the
# refits of what they print read the built algebra, its n-part (each extension's too) and
# each extension in turn; with the previous extension not yet evicted that is four, and
# three would drop the n-part before it is read again.
MEMO_SIZE = 4

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


def _store(mu: "AlgebraTensor", dense: np.ndarray):
    """Give mu its read-only dense array and its |mu|^2, which are not part of its equality or hash."""
    dense.setflags(write=False)
    object.__setattr__(mu, "_dense", dense)
    with np.errstate(over="ignore"):  # an out-of-range |mu|^2 is range_fault's to report
        object.__setattr__(mu, "_norm_sq", float(np.sum(dense**2)))


def _made(dim: int, entries: tuple[Entry, ...], dense: np.ndarray) -> "AlgebraTensor":
    """A tensor from entries already canonical and the dense array they give: no __post_init__."""
    out = object.__new__(AlgebraTensor)
    object.__setattr__(out, "dim", dim)
    object.__setattr__(out, "entries", entries)
    _store(out, dense)
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
        if self.dim > MAX_DIM:
            raise ValueError(f"dimension {self.dim} exceeds MAX_DIM = {MAX_DIM}")
        object.__setattr__(self, "entries", _canonical_entries(self.dim, self.entries))
        dense = np.zeros((self.dim, self.dim, self.dim))
        for i, j, k, c in self.entries:
            dense[i, j, k] = c
            dense[j, i, k] = -c
        _store(self, dense)

    @classmethod
    def from_dense(cls, dense: np.ndarray, zero_tol: float = 0.0) -> "AlgebraTensor":
        dense = np.asarray(dense, dtype=float)
        n = dense.shape[0]
        if dense.shape != (n, n, n):
            raise ValueError(f"dense tensor must be cubic, got {dense.shape}")
        if n > MAX_DIM:
            raise ValueError(f"dimension {n} exceeds MAX_DIM = {MAX_DIM}")
        if n == 0:
            return cls(0)
        # a non-finite entry is kept, whatever its defect, for range_fault to refuse
        with np.errstate(over="ignore", invalid="ignore"):
            skew_defect = np.max(np.abs(dense + np.swapaxes(dense, 0, 1)))
        if skew_defect > max(zero_tol, 1e-12 * np.max(np.abs(dense))):
            raise ValueError(f"tensor is not skew-symmetric (defect {skew_defect:.3e})")
        # the kept strict upper triangle, in C order, is already the canonical entry list
        upper = np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]
        keep = upper & ~(np.abs(dense) <= max(zero_tol, 0.0))
        i, j, k = np.nonzero(keep)
        entries = tuple(zip(i.tolist(), j.tolist(), k.tolist(), dense[i, j, k].tolist()))
        u = np.where(keep, dense, 0.0)
        return _made(n, entries, u - u.swapaxes(0, 1))

    def block(self, s: slice) -> "AlgebraTensor":
        """The block s x s -> s of mu, an algebra on the span of the basis vectors in s.

        Equal bit for bit to ``from_dense(self.dense[s, s, s])``, built from
        mu's entries: those with i, j and k in s, shifted, and a copy of the
        dense slice, which is exactly what they give.
        """
        a, b = s.start, s.stop
        lo = bisect.bisect_left(self.entries, (a,))  # the entries are sorted: i in s is one run
        hi = bisect.bisect_left(self.entries, (b,), lo)
        entries = tuple(
            (i - a, j - a, k - a, c) for i, j, k, c in self.entries[lo:hi] if j < b and a <= k < b
        )
        return _made(b - a, entries, self.dense[s, s, s].copy())

    @property
    def dense(self) -> np.ndarray:
        return self._dense  # type: ignore[attr-defined]

    @property
    def norm_sq(self) -> float:
        """|mu|^2 over ordered pairs, summed once when the tensor is made."""
        return self._norm_sq  # type: ignore[attr-defined]

    @property
    def norm(self) -> float:
        return math.sqrt(self._norm_sq)  # type: ignore[attr-defined]

    def range_fault(self) -> tuple[str, str] | None:
        """(code, detail) when (|mu|^2)^2 leaves the float range, else None.

        The library forms quantities of degree 4 in mu (c^2, tr F^2); a nonzero
        bracket whose ones round to 0 would pass as an abelian or Einstein one.
        """
        sq = self._norm_sq * self._norm_sq  # type: ignore[attr-defined]
        if not math.isfinite(sq):
            return "bracket-norm-overflow", "(|mu|^2)^2 of the bracket is not finite"
        if self.entries and sq < sys.float_info.min:
            return "bracket-norm-underflow", "(|mu|^2)^2 of the nonzero bracket is below the normal range"
        return None

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of mu(x, .)."""
        n = self.dim
        return (x @ self.dense.reshape(n, n * n)).reshape(n, n).T  # einsum("ijk,i->kj", T, x)

    def map_basis(self, frame: np.ndarray) -> "AlgebraTensor":
        """Structure constants in the basis given by the columns of ``frame``."""
        n = self.dim
        finv = np.linalg.inv(frame)
        t = (frame.T @ self.dense.reshape(n, n * n)).reshape(n, n, n)  # einsum("ia,ijk->ajk", frame, T)
        t = frame.T @ t  # einsum("jb,ajk->abk", frame, t)
        t = (t.reshape(n * n, n) @ finv.T).reshape(n, n, n)  # einsum("ck,abk->abc", finv, t)
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
    """The dense array of pi(alpha) mu for the dense tensor t of mu (no canonicalization).

    alpha acts on each slot of t by one matrix product over a view of t:
    on the output slot t read as (n^2, n), on the first t read as (n, n^2),
    and on the second each t[i].
    """
    n = t.shape[0]
    out = (t.reshape(n * n, n) @ alpha.T).reshape(n, n, n)  # einsum("kl,ijl->ijk", alpha, t)
    out -= (alpha.T @ t.reshape(n, n * n)).reshape(n, n, n)  # einsum("pi,pjk->ijk", alpha, t)
    out -= alpha.T @ t  # einsum("pj,ipk->ijk", alpha, t)
    return out


def _pi_diagonal(e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """pi(diag e) mu for the dense tensor t of mu: each T_ijk times its weight e_k - e_i - e_j."""
    return (e - e[:, None, None] - e[:, None]) * t


def jacobi_residual(mu: AlgebraTensor) -> float:
    """Euclidean norm of the Jacobiator over the i < j < l basis triples.

    Zero (up to roundoff) exactly when mu satisfies the Jacobi identity.
    One matrix product gives c[i, j, l, m] = sum_k T_ijk T_klm; the
    Jacobiator c[i,j,l] + c[j,l,i] + c[l,i,j] is then summed on the
    i < j < l triples alone, the only ones an alternating map needs.
    """
    n = mu.dim
    t = mu.dense
    c = (t.reshape(n * n, n) @ t.reshape(n, n * n)).reshape(n**3, n)
    ijl, jli, lij = _increasing_triples(n)
    return frob(c[ijl] + c[jli] + c[lij])


@functools.lru_cache(maxsize=32)
def _increasing_triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices (i n + j) n + l of the triples i < j < l of range(n), and of their two rotations.

    Cached per n and shared by every caller, so the arrays are read-only.
    """
    x = np.arange(n)
    i, j, l = np.nonzero((x[:, None, None] < x[:, None]) & (x[:, None] < x))
    out = (i * n + j) * n + l, (j * n + l) * n + i, (l * n + i) * n + j
    for a in out:
        a.flags.writeable = False
    return out


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


@functools.lru_cache(maxsize=MEMO_SIZE)
def _lower_central_length(mu: AlgebraTensor, tol: float) -> int | None:
    """nilpotency_class without its Jacobi test, for callers that have made their own.

    Memoized on the bracket's value and tol: the algebras a construction
    and its extensions produce share one n-block, whose series is run once.
    """
    if not mu.entries:  # abelian, or of dimension 0
        return 1
    n = mu.dim
    t = mu.dense
    basis = np.eye(n)
    for step in range(1, n + 2):
        # span of [g, W] for the current term W; the degree-1 floor recognises a zero map
        img = (basis.T @ t).reshape(-1, n)  # einsum("ijk,ja->iak", t, basis)
        row, _ = _row_space_and_kernel(img, tol, floor=tol * mu.norm)
        if len(row) == 0:
            return step
        if len(row) >= basis.shape[1]:
            return None
        basis = row.T
    return None


def _gram_pair(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """out = r^t r and inn = s s^t, r and s the tensor t read as (n^2, n) and as (n, n^2)."""
    n = t.shape[0]
    r, s = t.reshape(n * n, n), t.reshape(n, n * n)
    return r.T @ r, s @ s.T  # einsum("ijp,ijq->pq", t, t), einsum("pjk,qjk->pq", t, t)


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
    """Matrix of a |-> pi(a) mu, rows indexed by (i<j, k), columns by (a, b).

    Its nonzero entries, in row-major order, are :func:`_pi_entries`'s, bit
    for bit.  The dense build costs less than the entry build below
    BLOCK_MIN_COLS unknowns and for a bracket in a generic basis, which
    fills most of its structure constants.
    """
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


def _pi_entries(mu: AlgebraTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries (rows, cols, values) of pi_matrix(mu) in row-major order, from mu's entries.

    Each structure constant T[p,q,k] = c, p < q, enters the three terms of
    d(pi(alpha)mu)[i,j,k'] / d alpha[a,b] at 3n - 2 cells, so the cost
    follows the number of entries, not the n^2(n-1)/2 x n^2 cells of the
    dense matrix.  No cell receives more than two terms, since delta_{bi}
    and delta_{bj} never both hold for i < j; their sum, in either order,
    has the bits of the dense build's.
    """
    n = mu.dim
    if not mu.entries:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    pair = _pair_index(n)
    e = np.array(mu.entries)
    p, q, k = e[:, :3].astype(np.intp).T[:, :, None]
    c = e[:, 3:]
    x = np.arange(n)
    # delta_{k'a} T[i,j,b] gives row (pq, k' = x), column (x, k), value c, for every x; the
    # other two terms, through T[p,q,k] = -T[q,p,k] = c, give row ({x, q}, k), column (p, x),
    # value -c for x < q and c for x > q, and row ({x, p}, k), column (q, x), value c for
    # x < p and -c for x > p.  At x = q and x = p the value is 0 and the cell is dropped.
    rows = np.concatenate([pair[p, q] * n + x, pair[x, q] * n + k, pair[x, p] * n + k], axis=1)
    cols = np.concatenate([x * n + k, p * n + x, q * n + x], axis=1)
    vals = np.concatenate(
        [np.broadcast_to(c, (len(c), n)), np.sign(x - q) * c, np.sign(p - x) * c], axis=1
    )
    key = (rows * (n * n) + cols).ravel()
    order = np.argsort(key)
    key, vals = key[order], vals.ravel()[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key, vals = key[first], np.add.reduceat(vals, first)
    kept = vals != 0.0
    rows, cols = np.divmod(key[kept], n * n)
    return rows, cols, vals[kept]


@functools.lru_cache(maxsize=32)
def _pair_index(n: int) -> np.ndarray:
    """pair[i, j] = pair[j, i], the row-pair index of {i, j} in pi_matrix (0 on the diagonal).

    Cached per n and shared by every caller, so the array is read-only.
    """
    iu, ju = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(len(iu))
    pair.flags.writeable = False
    return pair


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


def _block_svds(m: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """The blocks of m and their SVDs, one batched SVD per block width; None when m is one block.

    ``rows`` and ``cols`` locate m's nonzero entries in row-major order.  A
    connected component of m's column graph (:func:`_column_components`)
    and the rows that hold it form a block: m is block diagonal up to a
    permutation of its rows and columns, so its singular values are the
    union of its blocks', and a cut relative to the largest of them all
    treats m as one matrix.  The blocks of one width are stacked, the
    shorter ones padded with zero rows (which change neither singular
    values nor right singular vectors), and decomposed by one batched SVD:
    economy-sized where they are taller than wide, with every right
    singular vector where they are wider.

    Returns the columns that no entry holds and, per width, the tuple
    (block_cols, block_rows, u, s, vh), block_rows being rows of m (-1 on
    padding).
    """
    width = m.shape[1]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    label = _column_components(cols, starts, width)
    size = np.bincount(label, minlength=width)  # columns per component, at its label
    if size.max() == width:
        return None
    row_label = label[cols[starts]]
    depth = np.bincount(row_label, minlength=width)  # rows per component, at its label
    # the rows of each component in turn, then -1, the row of padding
    row_order = np.append(rows[starts][np.argsort(row_label, kind="stable")], -1)
    row_start = np.cumsum(depth) - depth
    col_order = np.argsort(label, kind="stable")
    col_start = np.cumsum(size) - size

    solved = []
    for w in np.flatnonzero(np.bincount(size[depth > 0])):
        roots = np.flatnonzero((size == w) & (depth > 0))
        block_cols = col_order[col_start[roots, None] + np.arange(w)]
        r = np.arange(depth[roots].max())
        real = r < depth[roots, None]
        block_rows = row_order[np.where(real, row_start[roots, None] + r, -1)]
        stack = np.where(real[:, :, None], m[block_rows[:, :, None], block_cols[:, None, :]], 0.0)
        u, s, vh = np.linalg.svd(stack, full_matrices=len(r) < w)
        solved.append((block_cols, block_rows, u, s, vh))
    free = np.flatnonzero(np.bincount(cols, minlength=width) == 0)
    return free, solved


def _block_kernel(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, width: int) -> np.ndarray:
    """Orthonormal rows spanning the kernel of a sparse matrix, solved block by block.

    The matrix is given by its nonzero entries in row-major order and its
    number of columns; its nonzero rows are laid out dense.  The cut of
    _row_space_and_kernel, s <= RANK_TOL s_max with s_max the largest over
    all blocks (:func:`_block_svds`) and no floor, gives the rank and the
    kernel of the whole system.  A column that no entry holds is a unit
    kernel vector.  A matrix that is one block is solved whole.
    """
    if len(rows) == 0:
        return np.eye(width)
    place = np.cumsum(np.diff(rows, prepend=-1) != 0) - 1  # of each entry's row, among the nonzero
    m = np.zeros((place[-1] + 1, width))
    m[place, cols] = vals
    split = _block_svds(m, place, cols)
    if split is None:
        return _row_space_and_kernel(m, RANK_TOL)[1]
    free, solved = split
    cut = RANK_TOL * max(float(s.max()) for *_, s, _ in solved)
    kernel = [(free[:, None] == np.arange(width)).astype(float)]
    for block_cols, _, _, s, vh in solved:
        zero = np.ones(vh.shape[:2], dtype=bool)  # past min(rows, width) a singular value is 0
        zero[:, : s.shape[1]] = ~(s > cut)
        b, j = np.nonzero(zero)
        vectors = np.zeros((len(b), width))
        vectors[np.arange(len(b))[:, None], block_cols[b]] = vh[b, j]
        kernel.append(vectors)
    return np.concatenate(kernel)


def _least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The min-norm least-squares solution of a x = b, ``np.linalg.lstsq(a, b, rcond=None)[0]``.

    From FIT_BLOCK_MIN_COLS columns on, a design with nonzeros in at most a
    quarter of its cells is solved block by block (:func:`_block_svds`):
    each block's min-norm solution, with lstsq's cut s <= eps max(a.shape)
    s_max and s_max the largest singular value over all blocks, is the
    restriction of the whole one, and a column that no entry holds gets 0.
    A narrower design, a denser one (b equal blocks fill at most 1/b of the
    cells, so it has too few blocks to pay for finding them; a generic
    basis fills nearly all) and a design that is one block go to lstsq.
    On the canonical fits of nice brackets (one BLAS thread) the blocks
    cost about as much as lstsq or more below 64 columns, 0.5x to 1.7x of
    it at 64-71, and 0.24x to 0.99x from 72 on (h_17's 289 x 154 design:
    0.85 ms against 2.9 ms).
    """
    split = None
    if a.shape[1] >= FIT_BLOCK_MIN_COLS:
        nonzero = a != 0.0  # np.nonzero of a bool array is several times faster than of a float one
        if 4 * np.count_nonzero(nonzero) <= a.size:
            split = _block_svds(a, *np.nonzero(nonzero))
    if split is None:
        return np.linalg.lstsq(a, b, rcond=None)[0]
    _, solved = split
    cut = np.finfo(float).eps * max(a.shape) * max(float(s.max()) for *_, s, _ in solved)
    x = np.zeros(a.shape[1])
    for block_cols, block_rows, u, s, vh in solved:
        rhs = np.where(block_rows >= 0, b[block_rows], 0.0)
        inv = np.zeros_like(s)
        np.divide(1.0, s, out=inv, where=s > cut)
        coef = (rhs[:, None] @ u)[:, 0] * inv  # einsum("brk,br->bk", u, rhs)
        x[block_cols] = (coef[:, None] @ vh[:, : s.shape[1]])[:, 0]  # einsum("bk,bkw->bw", coef, vh)
    return x


def derivation_algebra(mu: AlgebraTensor) -> np.ndarray:
    """Orthonormal basis of Der(mu) = ker(a -> pi(a) mu), stacked (m, n, n).

    Orthonormal for the Frobenius pairing tr(A B^t).  Singular values s <=
    RANK_TOL s_max, s_max over the whole system and no absolute floor, count
    as zero, so rescaling mu does not change dim Der(mu).  Below
    BLOCK_MIN_COLS unknowns, and for a bracket whose entries would give more
    than 1/16 as many nonzeros as the dense (n^2(n-1)/2, n^2) matrix of pi
    has cells (a generic basis: one block), the system is solved whole on
    its nonzero rows.  Otherwise it is built from mu's entries
    (:func:`_pi_entries`) and solved block by block (:func:`_block_kernel`;
    a nice basis splits h_17's 289 unknowns into 129 blocks, the widest 17).
    The 1/16 is measured (one BLAS thread): over 70 brackets h_13, h_17,
    L_10, L_14 and ext_7 rotated on 0..n of their basis vectors it picks the
    faster path 64 times and costs 2.1% over the faster, summed; 1/8 costs
    4.7%, 1/32 4.0%.
    """
    n = mu.dim
    if n == 0:
        return np.zeros((0, 0, 0))
    if n * n < BLOCK_MIN_COLS or 16 * (3 * n - 2) * len(mu.entries) > n**4 * (n - 1) // 2:
        null = _row_space_and_kernel(pi_matrix(mu), RANK_TOL)[1]
    else:
        null = _block_kernel(*_pi_entries(mu), n * n)
    return null.reshape(-1, n, n)


def derivation_residual(mu: AlgebraTensor, alpha: np.ndarray) -> float:
    """|pi(alpha) mu| as an absolute residual of the derivation property."""
    return frob(pi_action_dense(alpha, mu.dense))
