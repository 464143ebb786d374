"""Soliton certificates and the structural condition battery.

A decomposition is a semi-algebraic soliton when its Ricci operator is

    Ric = c I + S(D_p)

for a derivation D of g vanishing on k; algebraic when S(D) is itself a
derivation; Einstein when Ric = c I outright.  Certificates live in one
affine family, the canonical one

    D = -ad H + diag(0, 0, D1),  D1 in Der(n),

which is the normal form the structure theory proves for n the nilradical
(H = 0 on a nilpotent algebra, where this is {c I + S(D) : D in Der(n)}).
The theory also forces D1: the metric on n is a nilsoliton with the
soliton's own constant, Ric_n = c I + D1.  So a certificate is first
written in closed form, D1 = Ric_n - c I with c read off the h block or
the trace of Ric_n, and only when that does not certify, with D a
derivation to min(tol, CLOSED_FORM_TOL) |mu|^3, is it found by least
squares over Der(n) (``_certify``).
A decomposition whose canonical fit fails and whose declared n is not the
nilradical is refused (``n-not-nilradical``) rather than fitted over
another family.  Every certificate is tagged by one classifier.  All
matrices live in the decomposition's orthonormal frame.  The bounds
separating "soliton" from "not" are homogeneous in the bracket mu
(orthonormal frame): a Ricci residual, of degree 2, must be at most 1e-6
max(|Ric|, |c|, |mu|^2), and a derivation defect |pi(D) mu|, of degree 3,
at most 1e-6 |mu|^3.

The battery and its follow-up reports are lists of ``tensor.Check``
records.  Each condition is a homogeneous identity in mu, so its residual
is held to tol |mu|^degree, and a report's ``tolerance`` is that applied
bound.  Every check reads tol from the decomposition it is given
(``dec.tol``, fixed when it was validated, through ``dec.check``); the
seven equivalences use EQUIVALENCE_TOL, and the bracket pairing of
``strata.e_beta_pairing`` keeps its fixed 1e-9.  The degrees:

* degree 0: ``moment-map-equals-label``;
* degree 1: ``hh-inside-u`` (lambda1) and ``shifted-label-derives-g``;
* degree 2: the Ricci residuals, F, M and c (``reductive-part-ricci``,
  ``nilpotent-part-soliton``, ``ricci-reassembly``, ``f-operator-shape``,
  ``constant-from-label``, ``moment-operator-n-invariant``,
  ``d1-from-certificate``),
  ``adjoint-commutator-sum``, ``transposed-adjoints-derive`` and the three
  ``*-on-h`` equivalences;
* degree 3: ``reassembled-derivation``, ``u-commutes-with-d1``,
  ``u-commutes-with-f`` and the three derivation-defect equivalences;
* degree 4: ``f-trace-identity`` (c tr F + tr F^2) and ``ad-h-normal``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .decomposition import DecompositionError, MetricDecomposition, Violation, _once, decompose
from .decomposition import frob, sym
from .tensor import (
    DEFAULT_TOL,
    AlgebraTensor,
    Check,
    CheckedReport,
    _least_squares,
    derivation_residual,
    moment_map,
    moment_operator,
)

SOLITON_RESIDUAL_TOL = 1e-6
EQUIVALENCE_TOL = 1e-8  # the seven equivalences' bound, tol |mu|^degree
# A closed-form D certifies only as a derivation to this |mu|^3 (and to dec.tol |mu|^3),
# three orders under SOLITON_RESIDUAL_TOL: such a D1 is within the fit's residual bound
# wherever D -> pi(D) mu is conditioned better than 1e-3 |mu| off Der(n) (5e-2 |mu| on fil(14)).
CLOSED_FORM_TOL = 1e-9

TAG_EINSTEIN = "Einstein"
TAG_ALGEBRAIC = "AlgebraicSoliton"
TAG_SEMI_ALGEBRAIC = "SemiAlgebraicSoliton"
TAG_NONE = "NotDetected"


@dataclass
class SolitonCertificate:
    c: float
    d_full: np.ndarray  # derivation on g (orthonormal frame), zero on the k block
    d1: np.ndarray | None  # nilpotent-part derivation with Ric_n = c I + D1
    residual: float  # |Ric - c I - S(D_p)|
    tag: str
    derivation_defect: float  # |pi(D) bracket|
    sym_derivation_defect: float  # |pi(S(D)) bracket|
    dim_k: int = 0
    dim_h: int = 0
    # how D1 was found: "closed-form" (Ric_n - c I), "canonical" (least squares) or "given"
    family: str = "given"
    c_from: str = "given"  # "h-block" or "trace" (closed form), "fit" (least squares)

    @property
    def d_p(self) -> np.ndarray:
        nk = self.dim_k
        return self.d_full[nk:, nk:]

    @property
    def expanding(self) -> bool:
        return self.c < 0.0

    @property
    def is_soliton(self) -> bool:
        return self.tag != TAG_NONE


def _residual_bound(ric: np.ndarray, c: float, mu_norm: float) -> float:
    """Bound on the residual |Ric - c I - S(D_p)|, degree 2 in the bracket."""
    return SOLITON_RESIDUAL_TOL * max(frob(ric), abs(c), mu_norm**2)


def _derivation_bound(mu_norm: float) -> float:
    """Bound on a derivation defect |pi(D) mu|, degree 3 in the bracket."""
    return SOLITON_RESIDUAL_TOL * mu_norm**3


def _classify(
    ric: np.ndarray,
    c: float,
    residual: float,
    der_defect: float,
    sym_defect: float,
    mu_norm: float,
    tol: float,
) -> str:
    """Tag of Ric = c I + S(D_p) from its residual and the defects |pi(D) mu|, |pi(S(D)) mu|.

    Bounds scale with the bracket: degree 2 for Ricci residuals, degree 3
    for derivation defects, with |mu| in the orthonormal frame.  Einstein is
    a gap |Ric - c I| within the residual bound at min(tol, SOLITON_RESIDUAL_TOL),
    so a coarse tol cannot turn a soliton Einstein.  NaN gives NotDetected.
    """
    bound = _residual_bound(ric, c, mu_norm)
    der_bound = _derivation_bound(mu_norm)
    if not (residual <= bound and der_defect <= der_bound):
        return TAG_NONE
    gap_bound = min(tol, SOLITON_RESIDUAL_TOL) * max(frob(ric), abs(c), mu_norm**2)
    if frob(ric - c * np.eye(ric.shape[0])) <= gap_bound:
        return TAG_EINSTEIN
    if sym_defect <= der_bound:
        return TAG_ALGEBRAIC
    return TAG_SEMI_ALGEBRAIC


def _canonical_derivation(dec: MetricDecomposition, d1: np.ndarray) -> np.ndarray:
    """The normal form D = -ad H + diag(0, 0, D1) on g, orthonormal frame."""
    d = -dec.ad_mean_curvature()
    d[dec.sn, dec.sn] += d1
    return d


def _certificate_residual(dec: MetricDecomposition, c: float, d: np.ndarray) -> float:
    """|Ric - c I - S(D_p)| for a derivation D on g, orthonormal frame."""
    return frob(dec.ricci().matrix - c * np.eye(dec.dim_p) - sym(d[dec.sp, dec.sp]))


def _certificate(
    dec: MetricDecomposition, c: float, d: np.ndarray, d1: np.ndarray, **route: str
) -> SolitonCertificate:
    """The certificate Ric = c I + S(D_p) for D on g (orthonormal frame), measured and tagged.

    ``route`` names how c and D were found (``family``, ``c_from``).
    """
    resid = _certificate_residual(dec, c, d)
    der_defect = dec.derivation_residual_on(d)
    sym_defect = dec.derivation_residual_on(sym(d))
    return SolitonCertificate(
        c=c,
        d_full=d,
        d1=d1,
        residual=resid,
        tag=_classify(dec.ricci().matrix, c, resid, der_defect, sym_defect, dec.bracket_on.norm, dec.tol),
        derivation_defect=der_defect,
        sym_derivation_defect=sym_defect,
        dim_k=dec.dim_k,
        dim_h=dec.dim_h,
        **route,
    )


def _canonical_fit(
    dec: MetricDecomposition, c: float | None = None, ders: np.ndarray | None = None
) -> SolitonCertificate:
    """Least squares min |Ric - c I - S(D_p)| over D = -ad H + diag(0, 0, S(D1)), D1 in Der(n).

    The route where the closed form does not certify.  On a nilpotent
    algebra H = 0, so this is the nilsoliton fit Ric = c I + S(D1).
    ``ders`` replaces ``dec.derivations_n()`` as the basis of the D1
    family; those with S(D1) = 0 cannot move the fit and are dropped.
    ``c`` is fitted unless given.  The certificate's D1 is the fitted
    S(D1).  The min-norm solution is lstsq's; a wide sparse design (from
    FIT_BLOCK_MIN_COLS columns, a nice basis) is solved per block of its
    column graph (``tensor._least_squares``).
    """
    ders = dec.derivations_n() if ders is None else ders
    basis = np.zeros((len(ders), dec.dim, dec.dim))
    basis[:, dec.sn, dec.sn] = 0.5 * (ders + np.transpose(ders, (0, 2, 1)))
    offset = -dec.ad_mean_curvature()
    eye = np.eye(dec.dim_p)
    target = dec.ricci().matrix - sym(offset[dec.sp, dec.sp])
    b_p = basis[:, dec.sp, dec.sp]
    moves = np.sqrt(np.einsum("aij,aij->a", b_p, b_p)) > 1e-12
    basis = basis[moves]
    cols = b_p[moves].reshape(len(basis), dec.dim_p**2)
    if c is None:
        cols = np.concatenate([eye.reshape(1, -1), cols])
    else:
        target = target - c * eye
    x = np.zeros(0)
    if len(cols):
        x = _least_squares(cols.T, target.reshape(-1))
    c_from = "fit" if c is None else "given"
    if c is None:
        c, x = float(x[0]), x[1:]
    fitted = np.tensordot(x, basis, axes=1)
    d1 = sym(fitted[dec.sn, dec.sn])
    return _certificate(dec, c, offset + fitted, d1, family="canonical", c_from=c_from)


def _closed_form(dec: MetricDecomposition, c: float | None = None) -> SolitonCertificate | None:
    """The structure theorem's certificate D = -ad H + diag(0, 0, Ric_n - c I), or None.

    With an h block the residual is affine in c and vanishes off it, so c
    is tr(Ric - S(-ad_p H))|_h / dim h.  Without one, tr(Ric_n D1) = 0 for
    a derivation D1 gives c = tr Ric_n^2 / tr Ric_n, or 0 when tr Ric_n = 0
    (n abelian).  ``c``, when given, is used instead.  None unless D is a
    derivation to min(dec.tol, CLOSED_FORM_TOL) |mu|^3, which is measured
    first, and the certificate tags a soliton.
    """
    ric_n = dec.n_decomposition().ricci().matrix
    c_from = "given"
    if c is None and dec.dim_h:
        c_from = "h-block"
        ric_h = dec.ricci().matrix[dec.sh_p, dec.sh_p] + dec.ad_mean_curvature()[dec.sh, dec.sh]
        c = float(np.trace(ric_h)) / dec.dim_h
    elif c is None:
        c_from, tr = "trace", float(np.trace(ric_n))
        c = float(np.sum(ric_n * ric_n)) / tr if tr else 0.0
    d1 = ric_n - c * np.eye(dec.dim_n)
    d = _canonical_derivation(dec, d1)
    if not dec.derivation_residual_on(d) <= min(dec.tol, CLOSED_FORM_TOL) * dec.bracket_on.norm**3:
        return None
    cert = _certificate(dec, c, d, d1, family="closed-form", c_from=c_from)
    return cert if cert.is_soliton else None


def _certify(
    dec: MetricDecomposition, c: float | None = None, ders: Callable[[], np.ndarray] | None = None
) -> SolitonCertificate:
    """The closed form when it certifies, else ``_canonical_fit`` with ``ders()`` as its Der(n)."""
    return _closed_form(dec, c) or _canonical_fit(dec, c, ders() if ders else None)


def nilsoliton_fit(
    bracket: AlgebraTensor,
    ip: np.ndarray | None = None,
    c_fixed: float | None = None,
    tol: float = DEFAULT_TOL,
) -> SolitonCertificate:
    """Fit Ric = c I + S(D), D in Der, on a metric nilpotent Lie algebra.

    On the abelian algebra the fit returns (c, D) = (0, 0), or
    (c_fixed, -c_fixed I) when an ambient constant is imposed.
    """
    dec = decompose(bracket, 0, 0, bracket.dim, ip=ip, tol=tol)
    return _canonical_fit(dec, c_fixed)


@_once
def soliton_fit(dec: MetricDecomposition) -> SolitonCertificate:
    """Best certificate Ric = c I + S(D_p) over the canonical family -ad H + diag(0, 0, D1).

    The closed form D1 = Ric_n - c I is the certificate when it certifies,
    and no Der(n) is computed; otherwise the least-squares fit over Der(n)
    is (``_certify``).  The normal form is proved for n the nilradical: when
    the fit fails on a decomposition with a k or h block whose n is not
    the nilradical (``dec.n_is_nilradical``), the split is refused with a
    DecompositionError ``n-not-nilradical`` instead.  Made once per
    decomposition and cached with ``d_full`` and ``d1`` read-only (``_once``).
    """
    cert = _certify(dec)
    # without an h or k block n is all of g, its own nilradical
    if not cert.is_soliton and dec.dim_k + dec.dim_h and not dec.n_is_nilradical:
        detail = "declared n is not the nilradical; the canonical family does not certify the split"
        raise DecompositionError([Violation("n-not-nilradical", detail)])
    return cert


def certificate_flags(dec: MetricDecomposition, cert: SolitonCertificate) -> dict:
    """``fit``'s two flags: an expanding soliton with [h, h] = 0, an Einstein semisimple g."""
    bb = dec.blocks()
    hh_norm = float(np.sqrt(frob(bb.lam0) ** 2 + frob(bb.lam1) ** 2 + frob(bb.lam2) ** 2))
    ev = np.abs(np.linalg.eigvalsh(dec.killing())) if dec.dim else np.zeros(0)
    semisimple = bool(ev.size and np.min(ev) > 1e-8 * np.max(ev))
    return {
        "solvsoliton-isometric": bool(
            cert.is_soliton and cert.expanding and hh_norm <= dec.tol * dec.bracket_on.norm
        ),
        "semisimple-Einstein": bool(cert.tag == TAG_EINSTEIN and semisimple),
    }


# ---------------------------------------------------------------------------
# condition battery of the structure theorem
# ---------------------------------------------------------------------------

# The compatibility identities of an action A: h -> End(n), shared with the builder's (c2), (c3)

def _action_ricci_term(ops: np.ndarray) -> np.ndarray:
    """C with <C Y_a, Y_b> = tr S(A_a) S(A_b), for the stack of operators A_a = A(Y_a)."""
    m, n, _ = ops.shape
    s = (0.5 * (ops + np.transpose(ops, (0, 2, 1)))).reshape(m, n * n)
    return s @ s.T  # einsum("aij,bij->ab", s, s)


def _commutator_sum(ops: np.ndarray) -> float:
    """|sum_a [A_a, A_a^t]| for the stack of operators A_a."""
    return frob(sum(a @ a.T - a.T @ a for a in ops))


@dataclass(kw_only=True)
class StructureBatteryReport(CheckedReport):
    applicable: bool  # the forward direction needs an expanding constant


def structure_battery(
    dec: MetricDecomposition, cert: SolitonCertificate
) -> StructureBatteryReport:
    """Evaluate the five structural conditions at the certificate's constant.

    (i)   [h,h] has no n-component;
    (ii)  Ric_u = c I + C_h with <C_h Y, Y> = tr S(ad Y|_n)^2;
    (iii) the nilpotent part fits Ric_n = c I + D1 at the same c;
    (iv)  sum_i [ad Y_i|_n, (ad Y_i|_n)^t] = 0 over an orthonormal h-basis,
          and each (ad Y|_n)^t is a derivation of n;
    (v)   Ric reassembles as c I + S(D_p) from D = -ad H + diag(0,0,D1).

    The report is purely descriptive for c >= 0 (the forward statement
    assumes an expanding constant; the converse computations still run).

    (iii) is the nilpotent part's closed form D1 = Ric_n - c I at the
    certificate's c when that certifies (``_closed_form``, held to tol),
    else the fit over ``dec.derivations_n()`` with c fixed (``_certify``);
    its check names the ``family`` and D1's ``derivation_defect``.
    A decomposition that is its own nilpotent part (no k, no h) given a
    certificate at ``soliton_fit(dec).c`` reads that cached certificate
    instead: it is the same certificate (H = 0, the same c).
    """
    c = cert.c
    bb = dec.blocks()
    checks = [dec.check("hh-inside-u", "[h,h] in k+h (lambda1 = 0)", frob(bb.lam1), 1)]

    a_eta = bb.ad_eta()
    r2 = frob(dec.u_ricci() - c * np.eye(dec.dim_h) - _action_ricci_term(a_eta))
    checks.append(dec.check("reductive-part-ricci", "Ric_u = c I + C_h", r2, 2))

    mu = dec.n_bracket
    # D1 ranges over the decomposition's Der(n), all of gl(n) where n counts as abelian
    ndec = dec.n_decomposition()
    if ndec is dec and soliton_fit(dec).c == c:
        nfit = soliton_fit(dec)
    else:
        nfit = _certify(ndec, c, dec.derivations_n)
    anchor = "Ric_n = c I + D1, D1 in Der(n)"
    route = {"family": nfit.family, "derivation_defect": nfit.derivation_defect}
    checks.append(dec.check("nilpotent-part-soliton", anchor, nfit.residual, 2, **route))

    r4 = _commutator_sum(a_eta)
    r4b = max((derivation_residual(mu, a.T) for a in a_eta), default=0.0)
    checks += [
        dec.check("adjoint-commutator-sum", "sum_i [ad Y_i|n, (ad Y_i|n)^t] = 0", r4, 2),
        dec.check("transposed-adjoints-derive", "(ad Y|n)^t in Der(n) for Y in h", r4b, 2),
    ]

    d_full = _canonical_derivation(dec, nfit.d1)
    r5 = _certificate_residual(dec, c, d_full)
    checks.append(dec.check("ricci-reassembly", "Ric = c I + S(D_p)", r5, 2))
    r5d = dec.derivation_residual_on(d_full)
    checks.append(dec.check("reassembled-derivation", "-ad H + diag(0,0,D1) in Der(g)", r5d, 3))
    return StructureBatteryReport(checks=checks, applicable=c < 0.0)


# ---------------------------------------------------------------------------
# shape of F = S(ad_p H + D_p)
# ---------------------------------------------------------------------------

def _f_operator(dec: MetricDecomposition, cert: SolitonCertificate) -> np.ndarray:
    """F = S(ad_p H + D_p) on p, orthonormal frame."""
    return sym(dec.ad_mean_curvature()[dec.sp, dec.sp] + cert.d_p)


def f_operator_check(dec: MetricDecomposition, cert: SolitonCertificate) -> CheckedReport:
    """Verify that F = S(ad_p H + D_p) has the forced shape.

    For a nonzero nilpotent part, in any basis order, F must equal
    t E_beta with t = -c/|beta|^2; for a nilpotent part that counts as
    abelian (``dec.n_abelian``) it must equal t (0 (+) I_n) with
    t = (|H|^2 + tr D_n)/dim n; and c tr F + tr F^2 = 0
    in all cases.  The shape presumes [h,h] inside k + h, which is the
    battery's condition (i) and is not tested again here.  The check
    ``f-operator-shape`` names its ``branch`` and ``t`` in its info.
    """
    f = _f_operator(dec, cert)
    c = cert.c

    target = np.zeros_like(f)
    t = 0.0
    if dec.dim_n == 0:
        branch = "empty-n"
    elif dec.n_abelian:
        branch = "abelian-part"
        h = dec.mean_curvature()
        t = (float(h @ h) + float(np.trace(cert.d_full[dec.sn, dec.sn]))) / dec.dim_n
        target[dec.sn_p, dec.sn_p] = t * np.eye(dec.dim_n)
    else:
        stratum = dec.n_stratum()
        branch = "nilpotent-part"
        t = -c / stratum.beta_norm_sq
        target[dec.sn_p, dec.sn_p] = t * stratum.e_beta
    checks = [
        dec.check(
            "f-operator-shape",
            "S(ad_p H + D_p) = t E_beta (t I on an abelian part)",
            frob(f - target),
            2,
            branch=branch,
            t=t,
        ),
        dec.check(
            "f-trace-identity", "c tr F + tr F^2 = 0", abs(c * np.trace(f) + np.trace(f @ f)), 4
        ),
    ]
    return CheckedReport(checks=checks)


# ---------------------------------------------------------------------------
# the seven equivalent descriptions of an algebraic soliton
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class EquivalenceReport(CheckedReport):
    """One check, ``algebraic-equivalences-agree``, whose info holds the seven residuals."""

    @property
    def all_agree(self) -> bool:
        return self.all_pass


def algebraic_soliton_equivalences(
    dec: MetricDecomposition, cert: SolitonCertificate
) -> EquivalenceReport:
    """Evaluate the seven conditions that single out algebraic solitons.

    On an expanding semi-algebraic soliton these agree (all true or all
    false); evaluating them on anything else is descriptive only.  Each
    condition holds when its residual is at most EQUIVALENCE_TOL |mu|^degree.
    """
    p_bracket = dec.p_bracket
    ad_p_h = dec.ad_mean_curvature()[dec.sp, dec.sp]
    d_p = cert.d_p
    ric = dec.ricci().matrix
    nh = dec.dim_h
    norm = dec.bracket_on.norm

    residuals = {  # name: (residual, degree in the bracket)
        "sym-derivation-on-g": (dec.derivation_residual_on(sym(cert.d_full)), 3),
        "sym-derivation-on-p": (derivation_residual(p_bracket, sym(d_p)), 3),
        "sym-ad-h-derivation": (derivation_residual(p_bracket, sym(ad_p_h)), 3),
        "ad-h-normal": (frob(ad_p_h @ ad_p_h.T - ad_p_h.T @ ad_p_h), 4),
        "sym-d-vanishes-on-h": (frob(sym(d_p[:nh, :nh])), 2),
        "sym-ad-h-vanishes-on-h": (frob(sym(ad_p_h[:nh, :nh])), 2),
        "ricci-scalar-on-h": (frob(ric[:nh, :nh] - cert.c * np.eye(nh)), 2),
    }
    conditions = [
        Check.of_degree(k, k, r, EQUIVALENCE_TOL, norm, d) for k, (r, d) in residuals.items()
    ]
    holds = [c.passed for c in conditions]
    agree = Check(
        "algebraic-equivalences-agree",
        "S(D) in Der(g) <=> ... <=> Ric|_h = c I (seven conditions)",
        info={"verdict": all(holds), "residuals": {c.name: c.value for c in conditions}},
        verdict=all(holds) or not any(holds),
    )
    return EquivalenceReport(checks=[agree])


# ---------------------------------------------------------------------------
# compatibilities between the certificate and the stratum label
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class CompatibilityReport(CheckedReport):
    mu_scalar_variant_residual: float = np.nan  # coefficient -c/|mu|^2 instead of -c/|beta|^2


def stratum_compatibility_check(
    dec: MetricDecomposition, cert: SolitonCertificate
) -> CompatibilityReport:
    """Moment-map and label compatibilities of an expanding certificate.

    Requires a nilpotent part that does not count as abelian
    (``dec.n_abelian``; skips otherwise), in any basis order, and a
    certificate that carries its D1 (raises ValueError otherwise).
    The scalar identity F = -(c/|beta|^2) E_beta is ``f_operator_check``'s;
    the variant with |mu|^2 in the denominator is evaluated and reported
    here, as it fails whenever |mu|^2 != |beta|^2.
    """
    if cert.d1 is None:
        raise ValueError("the certificate carries no D1")
    bb = dec.blocks()
    mu = dec.n_bracket
    if dec.n_abelian:  # an empty n counts as abelian too
        reason = "nilpotent part is abelian or empty"
        skip = Check("stratum-compatibility", "m(mu) = beta and friends").skipped(reason)
        return CompatibilityReport(checks=[skip], skipped=True)
    stratum = dec.n_stratum()

    c = cert.c
    r = frob(moment_map(mu) - np.diag(stratum.beta_raw))
    checks = [dec.check("moment-map-equals-label", "m(mu) = beta", r, 0)]

    r = abs(c + 0.25 * mu.norm_sq * stratum.beta_norm_sq)
    checks.append(dec.check("constant-from-label", "c = -(1/4) |mu|^2 |beta|^2", r, 2))

    # u acts on n commuting with D1 and with F
    d1 = cert.d1
    ad_u_n = list(bb.ad_nu2()) + list(bb.ad_eta())
    r = max((frob(a @ d1 - d1 @ a) for a in ad_u_n), default=0.0)
    checks.append(dec.check("u-commutes-with-d1", "[ad u|n, D1] = 0", r, 3))

    f = _f_operator(dec, cert)
    worst = 0.0
    for i in range(dec.dim_k + dec.dim_h):
        ad_i = dec._ad_on(i)[dec.sp, dec.sp]
        worst = max(worst, frob(ad_i @ f - f @ ad_i))
    checks.append(dec.check("u-commutes-with-f", "[ad u|p, F] = 0", worst, 3))

    e_beta_g = np.zeros((dec.dim, dec.dim))
    e_beta_g[dec.sn, dec.sn] = stratum.e_beta
    r = dec.derivation_residual_on(e_beta_g)
    checks.append(dec.check("shifted-label-derives-g", "E_beta in Der(g)", r, 1))

    m_op = dec.moment().matrix
    r = max(frob(m_op[dec.sh_p, dec.sn_p]), frob(m_op[dec.sn_p, dec.sn_p] - moment_operator(mu)))
    checks.append(dec.check("moment-operator-n-invariant", "M n in n and M|n = M_mu", r, 2))

    r = frob(d1 - f[dec.sn_p, dec.sn_p])
    checks.append(dec.check("d1-from-certificate", "D1 = S(ad H|n + D|n)", r, 2))

    mu_variant = frob(f - (-c / mu.norm_sq) * e_beta_g[dec.sp, dec.sp])
    return CompatibilityReport(checks=checks, mu_scalar_variant_residual=mu_variant)
