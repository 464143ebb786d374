"""Assembling solitons from parts, and trading solitons for Einstein metrics.

The builder takes

    (d1) a metric nilpotent algebra (n, ip_n) with Ric_n = c I + D1,
    (d2) a metric reductive pair (u = k + h, ip_h),
    (d3) a homomorphism theta: u -> Der(n)

subject to the compatibility conditions

    (c1) theta(Z)^t = -theta(Z) for Z in k,
    (c2) sum_i [theta(Y_i), theta(Y_i)^t] = 0 over an orthonormal h-basis,
    (c3) Ric_u = c I + C_theta with <C_theta Y, Y> = tr S(theta(Y))^2,

and produces the semidirect sum g = u (+) n with h perpendicular to n,
whose Ricci operator is then predicted to be

    Ric = c I + diag(-S(ad_u H|_h), -S(theta(H)) + D1),

with H in h defined by <H, Y> = tr theta(Y).  The prediction is always
cross-checked against the direct Ricci computation.

g is assembled in the bases the parts are listed in, and ``decompose``,
given the metric diag(ip_h, ip_n) on p, writes it in its orthonormal frame,
where every check reads it; the builder moves D1 alone into that frame,
once (``ConstructionData.d1_on``).  The decomposition checks Jacobi, which
on g says that u and n are Lie algebras and theta a homomorphism into
Der(n), and ad k skew on p, which is (c1); the builder checks (d1), u
reductive, (c2), (c3).

Three metric modifications move between solitons and Einstein spaces; all
three return decompositions written in an adapted orthonormal basis, like
every decomposition:

* on a non-unimodular algebraic soliton, replacing the adjoint action of H
  on the unimodular kernel by alpha (S(ad H) + D), alpha = |H|/sqrt(tr D1),
  yields an Einstein metric with the same constant c;
* restricting an algebraic soliton to the unimodular kernel of H yields an
  algebraic soliton with derivation D' = (D + S(ad H)) restricted;
* a unimodular algebraic soliton extends by one dimension, ad A = alpha D
  with alpha = 1/sqrt(tr D1), |A| = 1, A perpendicular to p, to an Einstein
  metric with the same constant c.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .decomposition import (
    DecompositionError,
    MetricDecomposition,
    Violation,
    _killing,
    decompose,
    frob,
    metric_faults,
    orthonormal_frame,
    sym,
)
from .soliton import (
    TAG_ALGEBRAIC,
    TAG_EINSTEIN,
    SolitonCertificate,
    _action_ricci_term,
    _canonical_derivation,
    _certificate,
    _commutator_sum,
    _derivation_bound,
    _residual_bound,
    soliton_fit,
)
from .tensor import DEFAULT_TOL, AlgebraTensor, _row_space_and_kernel


class ConstructionError(DecompositionError):
    """Construction data that violates (d1)-(d3) or (c1)-(c3)."""


@dataclass
class ConstructionData:
    """Input data for the semidirect builder.

    ``theta`` stacks the matrices theta(u-basis vector) on n, shape
    (dim_u, dim_n, dim_n), in the user bases.  ``c`` and ``d1`` are the
    nilpotent part's soliton certificate; optional inner products default
    to identities.
    """

    n_bracket: AlgebraTensor
    c: float
    d1: np.ndarray
    u_bracket: AlgebraTensor
    dim_k: int
    theta: np.ndarray
    ip_n: np.ndarray | None = None
    ip_h: np.ndarray | None = None

    @property
    def dim_u(self) -> int:
        return self.u_bracket.dim

    @property
    def dim_h(self) -> int:
        return self.dim_u - self.dim_k

    @property
    def dim_n(self) -> int:
        return self.n_bracket.dim

    @functools.cached_property
    def d1_on(self) -> np.ndarray:
        """D1 in the orthonormal frame of ip_n that g's decomposition is written in."""
        d1 = np.asarray(self.d1, dtype=float)
        if self.ip_n is None:
            return d1
        f_n = orthonormal_frame(np.asarray(self.ip_n, dtype=float))
        return np.linalg.inv(f_n) @ d1 @ f_n


def validate_construction(
    data: ConstructionData, tol: float = DEFAULT_TOL
) -> tuple[MetricDecomposition | None, list[Violation]]:
    """(decomposition, violations) of the assembled g = u (+) n; None when it is invalid.

    When g, or its n-part, fails the decomposition's own validation, those
    violations are the report: ``jacobi`` for theta, ``isotropy-not-skew``
    for (c1).  Otherwise (d1), u reductive (on ``dec.u_bracket``), (c2) and
    (c3) (on ``dec.u_ricci()``) are checked, a residual of degree d against
    tol |mu|^d, |mu| the norm of g; NaN fails.  Bad data raises ValueError,
    as :func:`assemble_semidirect` says.
    The arrays' shapes are the caller's to check, as ``io.construction_from_dict`` does.
    """
    dn, dh = data.dim_n, data.dim_h
    try:
        dec = assemble_semidirect(data, tol)
        ndec = dec.n_decomposition()
    except DecompositionError as err:
        return None, err.violations
    norm = dec.bracket_on.norm
    out: list[Violation] = []

    # (d1) the nilpotent part carries the declared certificate
    ric_n = ndec.ricci().matrix
    d1 = data.d1_on
    r = frob(ric_n - data.c * np.eye(dn) - d1)
    if not r <= _residual_bound(ric_n, data.c, norm):
        out.append(Violation("nil-certificate", "Ric_n != c I + D1", r))
    r = ndec.derivation_residual_on(d1)
    if not r <= _derivation_bound(norm):
        out.append(Violation("d1-not-derivation", "D1 is not a derivation of n", r))

    # u reductive
    if not _is_reductive(dec.u_bracket, tol):
        out.append(Violation("u-not-reductive", "u is not semisimple plus center"))

    # (c2) commutator sum over the h-block
    theta_h = dec.blocks().ad_eta()
    r = _commutator_sum(theta_h)
    if not r <= tol * norm**2:
        out.append(Violation("c2-commutator-sum", "sum_i [theta(Y_i), theta(Y_i)^t] != 0", r))

    # (c3) reductive-part Ricci
    ric_u = dec.u_ricci()
    r = frob(ric_u - data.c * np.eye(dh) - _action_ricci_term(theta_h))
    if not r <= _residual_bound(ric_u, data.c, norm):
        out.append(Violation("c3-reductive-ricci", "Ric_u != c I + C_theta", r))
    return (None if out else dec), out


def _is_reductive(u_bracket: AlgebraTensor, tol: float) -> bool:
    """u is reductive iff u = [u,u] (+) z(u) with Killing nondegenerate on [u,u]."""
    if not u_bracket.entries:  # abelian, of dimension 0 too: all of u is its center
        return True
    n = u_bracket.dim
    t = u_bracket.dense
    derived = _row_space_and_kernel(t.reshape(-1, n), tol)[0].T
    rank = derived.shape[1]
    # center: nullspace of x -> ad(x), whose matrix is T read as (n, n^2), transposed
    center = _row_space_and_kernel(t.reshape(n, n * n).T, tol)[1].T
    if rank + center.shape[1] != n:
        return False
    # [u,u] and z(u) span u: the square matrix of both bases has no kernel
    if len(_row_space_and_kernel(np.concatenate([derived, center], axis=1), tol)[1]):
        return False
    b = _killing(u_bracket)
    if rank:
        ev = np.abs(np.linalg.eigvalsh(derived.T @ b @ derived))
        if not np.min(ev) > tol * np.max(ev):
            return False
    return True


def assemble_semidirect(data: ConstructionData, tol: float = DEFAULT_TOL) -> MetricDecomposition:
    """Raw semidirect sum g = u (+) n with bracket [Y, X] = theta(Y) X, in the user bases.

    Only the decomposition's own invariants are checked (Jacobi still
    requires theta to be a homomorphism into Der(n)); compatibility with a
    soliton certificate is :func:`validate_construction`'s job.  The metric
    on p is diag(ip_h, ip_n), which ``decompose`` writes g's bracket in the
    orthonormal frame of.  An ``ip_n`` or ``ip_h`` that ``metric_faults``
    refuses, a metric on p that ``decompose`` refuses, and a bracket or an
    n-block whose (|mu|^2)^2 in that frame leaves the normal range raise
    ValueError: bad data, not a failed condition.
    """
    du, dn, dh = data.dim_u, data.dim_n, data.dim_h
    ip = None if data.ip_n is None and data.ip_h is None else np.eye(dh + dn)
    for what, part, s in (("ip_n", data.ip_n, slice(dh, None)), ("ip_h", data.ip_h, slice(0, dh))):
        if part is not None:
            faults = metric_faults(np.asarray(part, dtype=float))
            if faults:
                raise ValueError(f"{what} {faults[0].detail}")  # "ip_n must be symmetric"
            ip[s, s] = part
    dim = du + dn
    t = np.zeros((dim, dim, dim))
    t[:du, :du, :du] = data.u_bracket.dense
    theta = np.asarray(data.theta, dtype=float)
    for a in range(du):
        t[a, du:, du:] = theta[a].T  # row x, col k: <[Y_a, X_x], X_k> = theta[a][k, x]
        t[du:, a, du:] = -theta[a].T
    t[du:, du:, du:] = data.n_bracket.dense
    try:
        return decompose(AlgebraTensor.from_dense(t), data.dim_k, dh, dn, ip=ip, tol=tol)
    except DecompositionError as err:
        bad = [v for v in err.violations if v.code.startswith(("ip-", "bracket-norm-"))]
        if bad:
            raise ValueError("; ".join(f"{v.code}: {v.detail}" for v in bad)) from None
        raise


@dataclass
class BuildResult:
    decomposition: MetricDecomposition
    certificate: SolitonCertificate
    predicted_ricci: np.ndarray
    prediction_residual: float


def build_semidirect(data: ConstructionData, tol: float = DEFAULT_TOL) -> BuildResult:
    """Certified semidirect build: validate, then predict on the validated decomposition.

    Raises :class:`ConstructionError` with the failing residuals when
    :func:`validate_construction` refuses the data; otherwise returns the
    decomposition, the predicted certificate, and the gap between the
    predicted and directly computed Ricci operators.
    """
    dec, violations = validate_construction(data, tol)
    if violations:
        raise ConstructionError(violations)
    # the normal form D = -ad H + diag(0, 0, D1), with -ad H = diag(-ad_u H, -theta(H)) on
    # g = u + n: u is reductive, hence unimodular, so <H, Y> = tr theta(Y)
    d1 = data.d1_on
    d_full = _canonical_derivation(dec, d1)
    predicted = data.c * np.eye(dec.dim_p) + sym(d_full[dec.sp, dec.sp])
    return BuildResult(
        decomposition=dec,
        certificate=_certificate(dec, data.c, d_full, d1),
        predicted_ricci=predicted,
        prediction_residual=frob(dec.ricci().matrix - predicted),
    )


# ---------------------------------------------------------------------------
# Einstein metrics from algebraic solitons
# ---------------------------------------------------------------------------

# The transformations hold D and c (degree 2 in the bracket), H and the bracket
# itself (degree 1) to dec.tol |mu|^degree, |mu| the input's norm in the orthonormal frame.

def _require_algebraic(dec: MetricDecomposition, cert: SolitonCertificate):
    if cert.tag not in (TAG_ALGEBRAIC, TAG_EINSTEIN):
        raise ValueError(f"operation needs an algebraic soliton certificate, got {cert.tag}")
    if cert.d1 is None:
        raise ValueError("the certificate carries no D1")
    if frob(cert.d_full - cert.d_full.T) > 1e-6 * dec.bracket_on.norm_sq:
        raise ValueError("certificate derivation is not symmetric")


def _transformed(dec: MetricDecomposition, t: np.ndarray, dim_h: int) -> MetricDecomposition:
    """The decomposition of the new bracket t, with entries below 1e-14 |mu| dropped as roundoff."""
    bracket = AlgebraTensor.from_dense(t, zero_tol=1e-14 * dec.bracket_on.norm)
    return decompose(bracket, dec.dim_k, dim_h, dec.dim_n, tol=dec.tol)


def _adapted_h_frame(dec: MetricDecomposition) -> tuple[np.ndarray, float]:
    """Orthogonal g-frame rotating H/|H| into the first h-coordinate."""
    h = dec.mean_curvature()
    hnorm = float(np.linalg.norm(h))
    if hnorm <= dec.tol * dec.bracket_on.norm:
        raise ValueError("mean curvature vanishes (unimodular algebra)")
    nh = dec.dim_h
    hh = h[:nh] / hnorm
    q, _ = np.linalg.qr(np.concatenate([hh[:, None], np.eye(nh)], axis=1))
    q = q[:, :nh]
    if q[:, 0] @ hh < 0:
        q[:, 0] = -q[:, 0]
    frame = np.eye(dec.dim)
    frame[dec.sh, dec.sh] = q
    return frame, hnorm


def einstein_from_nonunimodular(
    dec: MetricDecomposition, cert: SolitonCertificate
) -> tuple[MetricDecomposition, SolitonCertificate]:
    """Make a non-unimodular algebraic soliton Einstein by retuning ad H.

    The bracket on the unimodular kernel of H and the inner product stay;
    the adjoint action of H becomes alpha (S(ad H) + D) with alpha equal to
    |H| / sqrt(tr D1).  The result is returned in an adapted orthonormal
    basis whose first h-coordinate is H/|H|, and is verified to be a Lie
    algebra with Ricci operator c I by the returned certificate.
    """
    _require_algebraic(dec, cert)
    tr_d1 = float(np.trace(cert.d1))
    if tr_d1 <= dec.tol * dec.bracket_on.norm_sq:
        raise ValueError("tr D1 <= 0; the rescaling is undefined")

    frame, hnorm = _adapted_h_frame(dec)
    alpha = hnorm / np.sqrt(tr_d1)

    # modified generator action, expressed in the adapted basis
    a_mod = frame.T @ (sym(dec.ad_mean_curvature()) + cert.d_full) @ frame

    t = dec.bracket_on.map_basis(frame).dense.copy()
    ih = dec.dim_k  # H/|H| sits here in the adapted basis
    new_row = (alpha / hnorm) * a_mod  # action of the unit vector along H
    t[ih, :, :] = new_row.T
    t[:, ih, :] = -new_row.T
    t[ih, ih, :] = 0.0
    out = _transformed(dec, t, dec.dim_h)
    return out, soliton_fit(out)


def restrict_to_unimodular_kernel(
    dec: MetricDecomposition, cert: SolitonCertificate
) -> tuple[MetricDecomposition, SolitonCertificate]:
    """Restrict an algebraic soliton to the codimension-one kernel of H.

    Returns the decomposition on g0 = {H orthogonal} (an ideal, since H is
    orthogonal to every bracket) together with the certificate carrying the
    same constant and the derivation D' = (D + S(ad H)) restricted to g0.
    The k-block of D' must vanish; a violation is raised rather than
    silently zeroed.
    """
    _require_algebraic(dec, cert)
    frame, _ = _adapted_h_frame(dec)
    ih = dec.dim_k

    t = dec.bracket_on.map_basis(frame).dense
    keep = [i for i in range(dec.dim) if i != ih]
    sub = t[np.ix_(keep, keep, keep)]
    escaped = frob(t[np.ix_(keep, keep)][:, :, ih])
    norm = dec.bracket_on.norm
    if escaped > dec.tol * norm:
        raise DecompositionError(
            [Violation("kernel-not-ideal", "brackets of the kernel escape along H", escaped)]
        )
    out = _transformed(dec, sub, dec.dim_h - 1)

    d_prime_full = frame.T @ (cert.d_full + sym(dec.ad_mean_curvature())) @ frame
    h_row = max(frob(d_prime_full[ih, :]), frob(d_prime_full[:, ih]))
    if h_row > 1e-8 * norm**2:
        raise DecompositionError(
            [Violation("dprime-moves-h", "D' does not annihilate the H direction", h_row)]
        )
    d_prime = d_prime_full[np.ix_(keep, keep)]
    k_block = frob(d_prime[: dec.dim_k, :]) + frob(d_prime[:, : dec.dim_k])
    if k_block > 1e-8 * norm**2:
        raise DecompositionError(
            [Violation("dprime-k-block", "D' must vanish on the isotropy block", k_block)]
        )
    return out, _certificate(out, cert.c, d_prime, sym(d_prime[out.sn, out.sn]))


def einstein_extension_unimodular(
    dec: MetricDecomposition, cert: SolitonCertificate
) -> tuple[MetricDecomposition, SolitonCertificate]:
    """Extend a unimodular algebraic soliton by R A with ad A = alpha D.

    alpha = 1/sqrt(tr D1); the new unit vector A is orthogonal to p and is
    appended as the first h-coordinate; k carries over unchanged.  Refuses
    non-unimodular input and the degenerate case tr D1 <= 0 (an Einstein
    input with D = 0 has nothing to extend by).
    """
    _require_algebraic(dec, cert)
    h = dec.mean_curvature()
    if float(np.linalg.norm(h)) > dec.tol * dec.bracket_on.norm:
        raise ValueError("algebra is not unimodular (H != 0)")
    tr_d1 = float(np.trace(cert.d1))
    if tr_d1 <= dec.tol * dec.bracket_on.norm_sq:
        raise ValueError("tr D1 <= 0; the extension scale is undefined")
    alpha = 1.0 / np.sqrt(tr_d1)

    ia = dec.dim_k
    new_dim = dec.dim + 1
    old_to_new = np.delete(np.arange(new_dim), ia)
    t = np.zeros((new_dim, new_dim, new_dim))
    t[np.ix_(old_to_new, old_to_new, old_to_new)] = dec.bracket_on.dense
    ad_a = alpha * cert.d_full  # <[A, e_j], e_k> = ad_a[k, j]
    t[ia][np.ix_(old_to_new, old_to_new)] = ad_a.T
    t[:, ia][np.ix_(old_to_new, old_to_new)] = -ad_a.T
    out = _transformed(dec, t, dec.dim_h + 1)
    return out, soliton_fit(out)
