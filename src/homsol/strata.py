"""Stratum labels for nonzero brackets via minimum-norm points in convex hulls.

Every nonzero structure-constant triple (i, j, k) of a bracket contributes
the diagonal weight

    alpha_ij^k = E_kk - E_ii - E_jj        (trace -1),

and the label beta of the bracket is the unique minimum-norm point of the
convex hull of its support weights.  The label is reported both raw (the
hull point itself) and chamber-normalized with ascending diagonal.  The
bracket sits in *nice position* when the raw hull point already lies in
the ascending chamber, equivalently when

    min over support of <beta, alpha_ij^k> = |beta|^2.

That flag is reported and gates nothing: every label check is computed
from the raw hull point, which a permutation of the basis permutes, so
each check runs, with the same verdict, in every basis order.

The minimum-norm point itself is computed with Wolfe's active-set method:
exact affine solves on a corral of points, finite termination on the small
weight sets that arise here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DEFAULT_TOL,
    AlgebraTensor,
    Check,
    CheckedReport,
    _pi_diagonal,
    derivation_algebra,
    frob,
    moment_map,
)


# support entries |c| <= SUPPORT_REL_THRESHOLD * max|c| are dropped
SUPPORT_REL_THRESHOLD = 1e-12
# Wolfe's method: optimality slack (relative to the squared point scale) and iteration cap
MIN_NORM_TOL = 1e-12
MIN_NORM_MAX_ITER = 10000


class ConvergenceError(RuntimeError):
    """The active-set iteration hit its cap; input is numerically degenerate."""


def pair_weight(i: int, j: int, k: int, dim: int) -> np.ndarray:
    """Diagonal of the weight E_kk - E_ii - E_jj; requires i < j."""
    if not (0 <= i < j < dim and 0 <= k < dim):
        raise ValueError(f"bad weight indices ({i},{j},{k}) for dim {dim}")
    w = np.zeros(dim)
    w[k] += 1.0
    w[i] -= 1.0
    w[j] -= 1.0
    return w


@dataclass
class MinNormResult:
    point: np.ndarray
    coefficients: np.ndarray  # convex weights over the input points
    iterations: int


def _affine_minimizer(pts: np.ndarray) -> np.ndarray:
    """Coefficients of the min-norm point of the affine hull of ``pts`` rows."""
    k = pts.shape[0]
    gram = pts @ pts.T
    lhs = np.zeros((k + 1, k + 1))
    lhs[:k, :k] = gram
    lhs[:k, k] = 1.0
    lhs[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    return sol[:k]


def min_norm_point(points: np.ndarray) -> MinNormResult:
    """Minimum-norm point of the convex hull of the rows of ``points``.

    Wolfe's method: grow a corral by the most violating vertex, solve the
    affine subproblem exactly, and walk back along the segment when a
    coefficient leaves the simplex.  Returns the optimal point together
    with convex-combination coefficients over the input rows.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    if m == 0:
        raise ValueError("need at least one point")
    scale = max(1.0, float(np.max(np.linalg.norm(pts, axis=1))))
    eps = MIN_NORM_TOL * scale * scale

    start = int(np.argmin(np.einsum("ij,ij->i", pts, pts)))
    corral = [start]
    lam = np.array([1.0])
    x = pts[start].copy()

    for it in range(MIN_NORM_MAX_ITER):
        # optimality: <x, p> >= |x|^2 for every vertex p; among violators,
        # only vertices outside the corral can improve the solution
        scores = pts @ x
        in_corral = np.zeros(m, dtype=bool)
        in_corral[corral] = True
        outside = np.where(~in_corral)[0]
        j = int(outside[np.argmin(scores[outside])]) if outside.size else -1
        if j < 0 or scores[j] >= x @ x - eps:
            return MinNormResult(
                point=x,
                coefficients=_full_coefficients(m, corral, lam),
                iterations=it,
            )
        corral.append(j)
        lam = np.append(lam, 0.0)

        while True:
            sub = pts[corral]
            alpha = _affine_minimizer(sub)
            if np.all(alpha > MIN_NORM_TOL):
                lam = alpha
                x = sub.T @ alpha
                break
            neg = alpha <= MIN_NORM_TOL
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = lam[neg] / (lam[neg] - alpha[neg])
            theta = float(np.min(ratios[np.isfinite(ratios)], initial=1.0))
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * alpha
            keep = lam > MIN_NORM_TOL
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            corral = [c for c, k in zip(corral, keep) if k]
            lam = lam[keep]
            lam = np.clip(lam, 0.0, None)
            lam /= lam.sum()
            x = pts[corral].T @ lam
    raise ConvergenceError(f"min-norm point did not converge in {MIN_NORM_MAX_ITER} iterations")


def _full_coefficients(m: int, corral, lam) -> np.ndarray:
    coeff = np.zeros(m)
    coeff[corral] = np.clip(lam, 0.0, None)
    s = coeff.sum()
    if s > 0:
        coeff /= s
    return coeff


@dataclass
class StratumData:
    """Support, label and chamber data of a nonzero bracket."""

    support: tuple[tuple[int, int, int], ...]
    beta_raw: np.ndarray  # min-norm point of the support hull (diagonal)
    beta: np.ndarray  # chamber representative: ascending diagonal
    beta_norm_sq: float
    nice_position: bool

    @property
    def trace(self) -> float:
        return float(np.sum(self.beta_raw))

    @property
    def e_beta(self) -> np.ndarray:
        """The shifted label E_beta = beta + |beta|^2 I on n."""
        return np.diag(self.beta_raw) + self.beta_norm_sq * np.eye(len(self.beta_raw))


def support_of(mu: AlgebraTensor) -> tuple[tuple[int, int, int], ...]:
    """Structure-constant triples with |c| above ``SUPPORT_REL_THRESHOLD`` * max|c|."""
    if not mu.entries:
        return ()
    cmax = max(abs(c) for _, _, _, c in mu.entries)
    return tuple((i, j, k) for i, j, k, c in mu.entries if abs(c) > SUPPORT_REL_THRESHOLD * cmax)


def stratum_label(mu: AlgebraTensor, tol: float = DEFAULT_TOL) -> StratumData:
    """Label beta of a nonzero bracket plus the nice-position flag, which only reports.

    The support threshold is relative to the largest structure constant;
    the support, hence beta, is discontinuous in mu, so the threshold is
    part of the result's meaning.
    """
    supp = support_of(mu)
    if not supp:
        raise ValueError("stratum label is undefined for the zero bracket")
    weights = np.array([pair_weight(i, j, k, mu.dim) for i, j, k in supp])
    beta_raw = min_norm_point(weights).point
    beta = np.sort(beta_raw)
    nsq = float(beta @ beta)
    # min over support of <beta, alpha_ij^k>
    nice = abs(float(np.min(weights @ beta)) - nsq) <= tol * max(1.0, nsq)
    return StratumData(
        support=supp,
        beta_raw=beta_raw,
        beta=beta,
        beta_norm_sq=nsq,
        nice_position=nice,
    )


@dataclass(kw_only=True)
class StrataReport(CheckedReport):
    stratum: StratumData

    @property
    def passed(self) -> bool:
        return self.all_pass


def _label_gram(beta: np.ndarray, der_basis: np.ndarray) -> np.ndarray:
    """Symmetrised Gram matrix of (D, D') -> <[beta, D], D'> over a stack of derivations.

    One (m, n^2) @ (n^2, m) product of the flattened [beta, D_a] and D_b.
    """
    m, n = len(der_basis), len(beta)
    moved = (beta @ der_basis - der_basis @ beta).reshape(m, n * n)
    gram = moved @ der_basis.reshape(m, n * n).T  # einsum("aij,bij->ab", [beta, D], D)
    return 0.5 * (gram + gram.T)


def strata_properties(mu: AlgebraTensor, tol: float = DEFAULT_TOL) -> StrataReport:
    """Evaluate the label inequalities for a nonzero nilpotent bracket.

    tr beta = -1, PSD of D -> <[beta, D], D> on the derivation algebra,
    positivity of beta + |beta|^2 I, |beta| <= |m(mu)| with its equality
    clause, tr(beta D) = 0 on derivations, reported as the norm
    |proj_Der beta| of the label's projection to Der(mu), and
    <pi(beta + |beta|^2 I) mu, mu> >= 0 with equality exactly for a
    derivation.  Each is evaluated in every basis order; none depends on
    nice position.  A check of the form q >= 0 reports -q.
    """
    return _properties(mu, stratum_label(mu, tol), derivation_algebra(mu), tol)


def _properties(
    mu: AlgebraTensor, data: StratumData, der_basis: np.ndarray, tol: float
) -> StrataReport:
    """strata_properties(mu, tol) for the label ``data`` and the basis ``der_basis`` of Der(mu).

    Both are taken as given, so a caller that has them computes neither again.
    """
    beta = np.diag(data.beta_raw)
    nsq = data.beta_norm_sq
    norm = mu.norm

    def check(name: str, anchor: str, value: float, degree: int = 0, scale: float = tol) -> Check:
        return Check.of_degree(name, anchor, value, scale, norm, degree)

    checks = [check("label-trace", "tr beta = -1", abs(data.trace + 1.0))]

    # <[beta, D], D> >= 0 on Der(mu): PSD of the restricted bilinear form
    gram = _label_gram(beta, der_basis)
    lam_min = float(np.min(np.linalg.eigvalsh(gram))) if len(gram) else 0.0
    checks.append(check("bracket-with-label-psd", "<[beta,D],D> >= 0 for D in Der(mu)", -lam_min))

    # beta + |beta|^2 I positive definite (diagonal): its least entry exceeds tol
    min_entry = float(np.min(data.beta_raw + nsq))
    checks.append(check("shifted-label-positive", "beta + |beta|^2 I > 0", -min_entry, scale=-tol))

    # |beta| <= |m(mu)|, equality iff identical sorted spectra
    m = moment_map(mu)
    gap = float(np.linalg.norm(m)) - float(np.sqrt(nsq))
    checks.append(check("label-below-moment-norm", "|beta| <= |m(mu)|", -gap))
    spec_gap = float(np.max(np.abs(np.linalg.eigvalsh(m) - data.beta)))
    checks.append(
        Check(
            "moment-norm-equality-clause",
            "|beta| = |m(mu)| iff m(mu) conjugate to beta",
            spec_gap,
            verdict=(abs(gap) <= tol) == (spec_gap <= 1e-6),
        )
    )

    # tr(beta D) = 0 on Der(mu): |proj_Der beta| = sqrt(sum_i tr(beta D_i)^2), the same for
    # every orthonormal basis D_i of Der(mu)
    proj = frob(np.diagonal(der_basis, axis1=1, axis2=2) @ data.beta_raw)  # einsum("k,akk->a", ...)
    anchor = "tr(beta D) = 0 for D in Der(mu)"
    checks.append(check("label-trace-orthogonal-to-derivations", anchor, proj))

    # <pi(beta + |beta|^2 I) mu, mu> >= 0, equality iff it is a derivation
    moved = _pi_diagonal(data.beta_raw + nsq, mu.dense)  # E_beta = diag(beta + |beta|^2)
    pairing = float(np.sum(moved * mu.dense))
    anchor = "<pi(beta + |beta|^2 I) mu, mu> >= 0"
    checks.append(check("shifted-label-pairing-nonnegative", anchor, -pairing, 2))
    der_res = frob(moved)
    checks.append(
        Check(
            "pairing-equality-clause",
            "pairing = 0 iff beta + |beta|^2 I in Der(mu)",
            der_res,
            verdict=(abs(pairing) <= tol * norm**2) == (der_res <= 1e-6 * norm),
        )
    )
    return StrataReport(checks=checks, stratum=data)


@dataclass(kw_only=True)
class PairingReport(CheckedReport):
    """Four-way split of <pi(E_beta) [.,.]_p, [.,.]_p> for a decomposition."""

    lam0_term: float
    lam1_term: float
    eta_term: float
    mu_term: float
    total: float
    direct: float  # same pairing evaluated on the whole p-bracket at once

    @property
    def summands_nonnegative(self) -> bool:
        return self.all_pass

    @property
    def split_defect(self) -> float:
        return abs(self.total - self.direct)


def e_beta_pairing(dec) -> PairingReport:
    """Pairing of the p-bracket against its E_beta action, term by term.

    E_beta vanishes on h and equals beta + |beta|^2 I on n.  The pairing
    splits over the four bracket components; the h x h -> h term vanishes
    identically, the remaining three are individually nonnegative.  The
    label is the decomposition's own, ``dec.n_stratum()``, at its
    tolerance, in whatever order the basis lists n.

    Its one check, ``bracket-pairing-nonnegative``, reports the most
    negative summand, negated, or the gap between the summed and the
    direct pairing if that is larger, against 1e-9 |mu|^2.
    """
    if dec.dim_n == 0 or dec.n_bracket.norm == 0.0:
        raise ValueError("pairing needs a nonzero nilpotent part")
    stratum = dec.n_stratum()

    sh, sn = dec.sh_p, dec.sn_p
    e_b = np.zeros(dec.dim_p)  # the diagonal of E_beta
    e_b[sn] = stratum.beta_raw + stratum.beta_norm_sq

    t_p = dec.p_bracket.dense
    # pi(E_beta) acts on each structure constant by its weight, so each component's
    # pairing is the sum of the pairing density over that component's cells
    density = _pi_diagonal(e_b, t_p) * t_p

    def term(si, sj, sk):
        cells = density[si, sj, sk].sum()
        if si != sj:  # and the cells of [sj, si]
            cells += density[sj, si, sk].sum()
        return float(cells)

    terms = {
        "lam0": term(sh, sh, sh),
        "lam1": term(sh, sh, sn),
        "eta": term(sh, sn, sn),
        "mu": term(sn, sn, sn),
    }
    direct = float(density.sum())
    total = sum(terms.values())
    worst = max(-min(terms.values()), abs(total - direct))
    check = Check.of_degree(
        "bracket-pairing-nonnegative",
        "<pi(E_beta) [.,.]_p, [.,.]_p> >= 0, summand by summand",
        worst,
        1e-9,
        dec.bracket_on.norm,
        2,
    )
    return PairingReport(
        checks=[check],
        lam0_term=terms["lam0"],
        lam1_term=terms["lam1"],
        eta_term=terms["eta"],
        mu_term=terms["mu"],
        total=total,
        direct=direct,
    )
