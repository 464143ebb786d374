"""Reference computations for checking homsol's outputs.

Nothing here imports homsol.  Every expected value is either written down
by hand (the constants table and the closed forms of the ladder), computed
from first principles with numpy (the Levi-Civita connection from the
Koszul formula, the Ricci operator of a reductive homogeneous space, the
derived gl-action, a KKT certificate for the minimum-norm label), or
computed exactly over the rationals with sympy.

Conventions match the program's documents: a bracket is a list of
(i, j, k, c) with [e_i, e_j] = c e_k, the basis is ordered k, h, n and the
documents the benchmark reads carry the identity inner product, so the
basis is orthonormal on p.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

SOLITON_TOL = 1e-6  # relative residual that separates "soliton" from "not"
IDENTITY_TOL = 1e-8  # relative tolerance on identities computed twice

EINSTEIN = "Einstein"
ALGEBRAIC = "AlgebraicSoliton"
NONE = "NotDetected"
SOLITON_TAGS = (EINSTEIN, ALGEBRAIC, "SemiAlgebraicSoliton")


def dense(dim: int, entries) -> np.ndarray:
    """T[i, j, k] = <[e_i, e_j], e_k>, skew in the first two slots."""
    t = np.zeros((dim, dim, dim))
    for i, j, k, c in entries:
        t[i, j, k] += c
        t[j, i, k] -= c
    return t


def doc_tensor(doc: dict) -> np.ndarray:
    if "ip" in doc:
        raise ValueError("the oracle reads orthonormal documents only")
    return dense(doc["dim"], [(e["i"], e["j"], e["k"], e["c"]) for e in doc["bracket"]])


def frob(a) -> float:
    return float(np.linalg.norm(a))


def sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def koszul_ricci(t: np.ndarray) -> np.ndarray:
    """Ricci operator of a Lie group with an orthonormal left-invariant frame.

    The Koszul formula gives <nabla_i e_j, e_k> = (t_ijk - t_jki + t_kij) / 2;
    R(X, Y) = [nabla_X, nabla_Y] - nabla_[X,Y] and Ric(Y, Z) = sum_i
    <R(e_i, Y) Z, e_i>.
    """
    g = 0.5 * (t - np.transpose(t, (2, 0, 1)) + np.transpose(t, (1, 2, 0)))
    nab = np.transpose(g, (0, 2, 1))  # nab[i] is the matrix of nabla_{e_i}
    term1 = np.einsum("iim,amb->ab", nab, nab)
    term2 = np.einsum("aim,imb->ab", nab, nab)
    term3 = np.einsum("ial,lib->ab", t, nab)
    return sym(term1 - term2 - term3)


def reductive_ricci(t: np.ndarray, dim_k: int) -> np.ndarray:
    """Ricci operator on p of G/K for a reductive split g = k + p, p orthonormal.

    Besse, Einstein Manifolds, 7.38:
      Ric(X, Y) = -1/2 sum_i <[X, X_i]_p, [Y, X_i]_p> - 1/2 B(X, Y)
                  + 1/4 sum_ij <[X_i, X_j]_p, X> <[X_i, X_j]_p, Y>
                  - <S([Z, .]_p) X, Y>,   <Z, X> = tr ad X.
    """
    if dim_k == 0:
        return koszul_ricci(t)
    p = slice(dim_k, t.shape[0])
    tp = t[p, p, p]
    kill = np.einsum("ilk,jkl->ij", t, t)[p, p]
    z = np.einsum("xkk->x", t)[p]  # tr ad X_x over g
    ad_z = np.einsum("x,xyk->ky", z, tp)
    ric = (
        -0.5 * np.einsum("xik,yik->xy", tp, tp)
        - 0.5 * kill
        + 0.25 * np.einsum("ijx,ijy->xy", tp, tp)
        - sym(ad_z)
    )
    return sym(ric)


def pi_defect(d: np.ndarray, t: np.ndarray) -> float:
    """|pi(D) mu| for pi(D) mu = D mu(.,.) - mu(D ., .) - mu(., D .)."""
    out = np.einsum("kl,ijl->ijk", d, t)
    out -= np.einsum("pi,pjk->ijk", d, t)
    out -= np.einsum("pj,ipk->ijk", d, t)
    return frob(out)


def certificate_residual(ric: np.ndarray, c: float, d_full: np.ndarray, dim_k: int) -> float:
    """|Ric - c I - S(D_p)| from a reported constant and derivation."""
    d_p = np.asarray(d_full, dtype=float)[dim_k:, dim_k:]
    return frob(ric - c * np.eye(ric.shape[0]) - sym(d_p))


# ---------------------------------------------------------------------------
# hand-written constants and closed forms
# ---------------------------------------------------------------------------

CATALOG_NAMES = (
    ["abelian%d" % n for n in range(2, 7)]
    + ["heis3", "heis3_r", "fil4", "so3", "solv12", "cplxhyp2", "nil7"]
    + ["hyp%d" % n for n in range(2, 7)]
)


def catalog_expectation(name: str) -> tuple[str, float | None]:
    """(tag, c at unit bracket scale); c scales as the square of the bracket."""
    if name.startswith("abelian"):
        return EINSTEIN, 0.0
    if name.startswith("hyp"):
        return EINSTEIN, -(int(name[3:]) - 1.0)
    table = {
        "heis3": (ALGEBRAIC, -1.5),
        "heis3_r": (ALGEBRAIC, -1.5),
        "fil4": (ALGEBRAIC, -1.5),
        "cplxhyp2": (EINSTEIN, -1.5),
        "solv12": (ALGEBRAIC, -5.0),
        "so3": (EINSTEIN, 0.5),
        "nil7": (NONE, None),
    }
    return table[name]


def ladder_expectation(family: str, size: int) -> tuple[str, float | None]:
    """Closed forms at unit scale: heis/ext take m, fil/unit take n."""
    if family == "heis":
        return ALGEBRAIC, -(size + 2) / 2.0
    if family == "ext":
        return EINSTEIN, -(size + 2) / 2.0
    if family == "fil":
        n = size
        return ALGEBRAIC, -(n - 2) * (n - 1) * n / 12.0 - 1.0
    if family == "unit":
        return NONE, None
    raise KeyError(family)


def der_dim_closed_form(family: str, size: int) -> int | None:
    if family == "heis":
        return 2 * size * size + 3 * size + 1
    if family in ("fil", "unit"):
        return 2 * size - 1
    return None


# ---------------------------------------------------------------------------
# stratum label certificate
# ---------------------------------------------------------------------------

def label_certificate_defect(entries, dim: int, beta: np.ndarray) -> float:
    """How far beta is from the min-norm point of the support weights' hull.

    The support weights are E_kk - E_ii - E_jj over nonzero constants.
    beta is the min-norm point iff min_a <beta, a> >= |beta|^2 and beta is
    a convex combination of the weights attaining that minimum; returns the
    worst violation of these two conditions.
    """
    weights = []
    for i, j, k, c in entries:
        if c != 0.0:
            w = np.zeros(dim)
            w[k] += 1.0
            w[i] -= 1.0
            w[j] -= 1.0
            weights.append(w)
    w = np.unique(np.array(weights), axis=0)
    nsq = float(beta @ beta)
    pair = w @ beta
    below = max(0.0, nsq - float(np.min(pair)))
    active = w[pair <= nsq + 1e-7 * max(1.0, nsq)]
    lhs = np.vstack([active.T, np.ones(len(active))])
    rhs = np.concatenate([beta, [1.0]])
    lam, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    recon = frob(lhs @ lam - rhs)
    negative = max(0.0, -float(np.min(lam)))
    return max(below, recon, negative)


def moment_spectrum(t: np.ndarray) -> np.ndarray:
    """Sorted spectrum of m(mu) = 4 Ric / |mu|^2 on a nilpotent bracket."""
    return np.sort(np.linalg.eigvalsh(4.0 * koszul_ricci(t) / float(np.sum(t * t))))


# ---------------------------------------------------------------------------
# exact arithmetic over Q
# ---------------------------------------------------------------------------

def _exact_tensor(entries) -> dict:
    """{(i, j, k): <[e_i, e_j], e_k>} over Q, both orders of each pair."""
    t = {}
    for i, j, k, c in entries:
        c = Fraction(c)
        t[(i, j, k)] = t.get((i, j, k), 0) + c
        t[(j, i, k)] = t.get((j, i, k), 0) - c
    return t


def exact_derivations(dim: int, entries):
    """Basis of Der(mu) over Q, as a list of dim x dim Fraction matrices."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    t = _exact_tensor(entries)

    def tv(i, j, k):
        return t.get((i, j, k), 0)

    rows = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                row = [QQ(0)] * (dim * dim)
                for a in range(dim):
                    for b in range(dim):
                        v = 0
                        if k == a:
                            v += tv(i, j, b)
                        if b == i:
                            v -= tv(a, j, k)
                        if b == j:
                            v -= tv(i, a, k)
                        if v:
                            row[a * dim + b] = QQ(v.numerator, v.denominator)
                rows.append(row)
    mat = DomainMatrix(rows, (len(rows), dim * dim), QQ)
    null = mat.nullspace().to_Matrix()
    basis = []
    for r in range(null.rows):
        vec = [Fraction(int(x.p), int(x.q)) for x in null.row(r)]
        basis.append([vec[a * dim : (a + 1) * dim] for a in range(dim)])
    return basis


def all_strictly_triangular(basis) -> bool:
    """True when every basis matrix is strictly lower or every one strictly upper.

    A linear space of strictly triangular matrices consists of nilpotent
    matrices, so this certifies that every derivation is nilpotent.
    """
    def lower(m):
        return all(m[a][b] == 0 for a in range(len(m)) for b in range(a, len(m)))

    def upper(m):
        return all(m[a][b] == 0 for a in range(len(m)) for b in range(0, a + 1))

    return all(lower(m) for m in basis) or all(upper(m) for m in basis)


def exact_nilpotent_ricci(dim: int, entries):
    """Ric of a nilpotent bracket in an orthonormal basis, over Q.

    For nilpotent mu, Ric = M with <M X, Y> = -1/2 sum <[X,e_i],[Y,e_i]>
    + 1/4 sum <[e_i,e_j],X><[e_i,e_j],Y> (ordered pairs).
    """
    t = _exact_tensor(entries)
    ric = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j, k), c in t.items():
        # -1/2 term: X = e_i, partner e_j, image e_k
        for (i2, j2, k2), c2 in t.items():
            if j2 == j and k2 == k:
                ric[i][i2] -= Fraction(1, 2) * c * c2
            if i2 == i and j2 == j:
                ric[k][k2] += Fraction(1, 4) * c * c2
    return ric


def no_diagonal_soliton(dim: int, entries) -> bool:
    """Exactly: Ric is diagonal and Ric - c I is no diagonal derivation for any c.

    A diagonal D = diag(d) derives mu iff d_k = d_i + d_j on every nonzero
    constant; with Ric = diag(r) the unknowns (c, d) satisfy d = r - c 1,
    so the system is r_k - c = r_i - c + r_j - c, i.e. c = r_i + r_j - r_k,
    on every support triple.
    """
    ric = exact_nilpotent_ricci(dim, entries)
    off = any(ric[a][b] != 0 for a in range(dim) for b in range(dim) if a != b)
    if off:
        return False
    r = [ric[a][a] for a in range(dim)]
    needed = {r[i] + r[j] - r[k] for i, j, k, c in entries if c != 0}
    return len(needed) > 1
