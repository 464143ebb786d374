"""Metric reductive decompositions g = k + h + n with an inner product on p.

The basis is ordered as k-block, h-block, n-block; the inner product
lives on p = h + n and must make h and n orthogonal.  A decomposition
holds one basis, orthonormal on p: ``decompose`` checks a listed inner
product at ``RANK_TOL`` whatever tol (``metric_faults``, its shape, h
orthogonal to n) and writes the bracket in the frame its Cholesky factor
gives (``orthonormal_frame``, block-diagonal across h/n, so the declared
splitting keeps its index ranges); without one the listed basis is that
frame.  Every operator is computed in that frame, and a caller that wants
another basis (``cli.run_ricci``'s listed one) maps it there itself.
Checked at construction, at tol:

* the bracket in the orthonormal frame and its n-block, the brackets
  computed in, are in range (``AlgebraTensor.range_fault``), checked first;
* the bracket satisfies Jacobi;
* [k,k] in k, [k,h] in h, [g,n] in n (block closure of the splitting);
* n is a nilpotent ideal (whether it is the nilradical is
  ``n_is_nilradical``, asked only where the canonical soliton fit fails);
* ad Z restricted to p is skew for every Z in the k-block.

The Killing-form condition B(k, p) = 0 is neither enforced nor tested:
no computation here reads the mixed block B(k, p).

``decompose`` is the one constructor of validated decompositions, and its
memo ``_validated``, keyed on the bracket in the orthonormal frame, the
only place one is made.  It keeps the most recent ones, so every command,
construction and n-part in a process whose bracket reads the same in that
frame (a listing with an inner product and its orthonormal twin, which
``build`` and ``extend`` print, included) shares one decomposition and
whatever it has cached; u = k + h is read on its block (``u_bracket``,
``u_ricci``), not as one.

The Ricci operator of the decomposition is

    Ric = M - (1/2) B_p - S(ad_p H),

with M the moment operator of the p-restricted bracket, B_p the Killing
operator on p, H the mean-curvature vector (<H, X> = tr ad X) and S the
symmetrization A -> (A + A^t)/2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, is_dataclass

import numpy as np

from .strata import StratumData, stratum_label
from .tensor import (
    DEFAULT_TOL,
    MEMO_SIZE,
    RANK_TOL,
    AlgebraTensor,
    Check,
    _lower_central_length,
    _row_space_and_kernel,
    derivation_algebra,
    derivation_residual,
    frob,
    jacobi_residual,
    moment_operator,
)


def _once(method):
    """A method of no arguments, or a function of one decomposition, cached under its name.

    The result is stored in the decomposition's ``_cache``, an ndarray
    result, and each ndarray field of a dataclass result, read-only:
    ``decompose`` hands one decomposition to every caller on the same
    metric Lie algebra, so a write into a cached array would change a later
    command's report.  A refusal, a DecompositionError,
    is cached too and raised again, as a new error, by every later call.
    """
    name = method.__name__

    @functools.wraps(method)
    def cached(self):
        if name not in self._cache:
            try:
                value = method(self)
            except DecompositionError as err:
                value = err
            for array in (value, *(vars(value).values() if is_dataclass(value) else ())):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
            self._cache[name] = value
        value = self._cache[name]
        if isinstance(value, DecompositionError):
            raise DecompositionError(value.violations)
        return value

    return cached


def sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _killing(mu: AlgebraTensor) -> np.ndarray:
    """The Killing form B(x, y) = tr(ad x ad y) of mu."""
    n, t = mu.dim, mu.dense
    b = t.reshape(n, n * n) @ t.transpose(0, 2, 1).reshape(n, n * n).T  # einsum("ilk,jkl->ij", t, t)
    return 0.5 * (b + b.T)


def _mean_curvature(mu: AlgebraTensor, dim_k: int) -> np.ndarray:
    """H in p, the span of the basis vectors from dim_k on, with <H, X> = tr ad X: H_i = sum_j T_ijj."""
    return np.trace(mu.dense, axis1=1, axis2=2)[dim_k:]


def _ricci(p_bracket: AlgebraTensor, killing: np.ndarray, ad_h: np.ndarray, sp: slice):
    """Ric = M - B_p/2 - S(ad_p H), from the p-block sp of B and of ad H on the whole algebra."""
    return moment_operator(p_bracket) - 0.5 * killing[sp, sp] - sym(ad_h[sp, sp])


@dataclass
class Violation:
    code: str
    detail: str
    value: float | tuple = 0.0


class DecompositionError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        msg = "; ".join(f"{v.code}: {v.detail}" for v in self.violations)
        super().__init__(msg or "invalid decomposition")


def metric_faults(ip: np.ndarray) -> list[Violation]:
    """The fault, if any, that keeps ip from being an inner product, at ``RANK_TOL`` whatever tol.

    Symmetric, |ip - ip^t| <= RANK_TOL |ip|, then positive definite, the least eigenvalue
    above RANK_TOL times the largest; NaN fails.  A detail names no subject: callers add it.
    """
    if not frob(ip - ip.T) <= RANK_TOL * frob(ip):
        return [Violation("ip-not-symmetric", "must be symmetric")]
    evals = np.linalg.eigvalsh(ip)
    if len(evals) and not evals[0] > RANK_TOL * evals[-1]:
        return [Violation("ip-not-pd", "not positive definite", float(evals[0]))]
    return []


def orthonormal_frame(ip: np.ndarray) -> np.ndarray:
    """Columns: a basis orthonormal for ip, from its Cholesky factor; ip passed ``metric_faults``."""
    return np.linalg.inv(np.linalg.cholesky(ip)).T


def _metric_violations(ip: np.ndarray, dim_h: int, dim_n: int) -> list[Violation]:
    """ip's shape on p = h + n, ``metric_faults`` of it, and h orthogonal to n at the same ``RANK_TOL``."""
    dim_p = dim_h + dim_n
    if ip.shape != (dim_p, dim_p):
        return [Violation("ip-shape", f"expected {dim_p}x{dim_p}")]
    out = [Violation(v.code, f"inner product {v.detail}", v.value) for v in metric_faults(ip)]
    hn = np.abs(ip[:dim_h, dim_h:])
    if hn.size and np.max(hn) > RANK_TOL * frob(ip):
        out.append(Violation("h-n-not-orthogonal", "ip must make h and n orthogonal", float(np.max(hn))))
    return out


@dataclass
class SymOperator:
    """Symmetric operator on p (or a sub-block), in the orthonormal frame."""

    matrix: np.ndarray

    def symmetry_defect(self) -> float:
        return frob(self.matrix - self.matrix.T)


@dataclass
class BracketBlocks:
    """The bilinear components of the bracket that the library reads, orthonormal frame.

    Index convention: lam0[a,b,c] = <[Y_a, Y_b], Y_c> on the h-block, and
    likewise per signature; eta[a,x,y] = <[Y_a, X_x], X_y>.
    """

    lam0: np.ndarray  # h x h -> h
    lam1: np.ndarray  # h x h -> n
    lam2: np.ndarray  # h x h -> k
    eta: np.ndarray  # h x n -> n
    mu: np.ndarray  # n x n -> n
    nu2: np.ndarray  # k x n -> n

    def ad_eta(self) -> np.ndarray:
        """Stack of matrices of ad Y_a on n, shape (dim_h, n, n)."""
        return np.transpose(self.eta, (0, 2, 1))

    def ad_nu2(self) -> np.ndarray:
        """Stack of matrices of ad Z on n, shape (dim_k, n, n)."""
        return np.transpose(self.nu2, (0, 2, 1))


class MetricDecomposition:
    """A bracket in a basis orthonormal on p, split as k + h + n; derived operators cached on first use."""

    def __init__(self, bracket: AlgebraTensor, dim_k: int, dim_h: int, dim_n: int, tol: float = DEFAULT_TOL):
        if dim_k + dim_h + dim_n != bracket.dim:
            raise DecompositionError(
                [Violation("dim-mismatch", f"{dim_k}+{dim_h}+{dim_n} != {bracket.dim}")]
            )
        self.bracket_on = bracket
        self.dim_k, self.dim_h, self.dim_n = dim_k, dim_h, dim_n
        self.dim = bracket.dim
        self.dim_p = dim_h + dim_n
        self.tol = tol
        self.sk = slice(0, dim_k)
        self.sh = slice(dim_k, dim_k + dim_h)
        self.sn = slice(dim_k + dim_h, self.dim)
        self.sp = slice(dim_k, self.dim)
        self.sh_p = slice(0, dim_h)  # h inside p
        self.sn_p = slice(dim_h, self.dim_p)

        self._cache: dict = {}
        # the brackets computed in: every quantity here is of degree at most 4 in one of them
        fault = bracket.range_fault() or self.n_bracket.range_fault()
        if fault:
            violations = [Violation(fault[0], f"{fault[1]}, in the orthonormal frame or on n")]
        else:
            violations = self._structure_violations()
        if violations:
            raise DecompositionError(violations)

    # -- validation ---------------------------------------------------------

    def _structure_violations(self) -> list[Violation]:
        # each bound is tol |mu|^degree, |mu| in the orthonormal frame
        out = []
        norm = self.bracket_on.norm
        jac = jacobi_residual(self.bracket_on)
        if jac > self.tol * norm**2:
            out.append(Violation("jacobi", "bracket violates the Jacobi identity", jac))

        out.extend(self._closure_violations(self.bracket_on.dense, self.tol * norm))

        # the Jacobi test above is the only one: the n-block's series is run without repeating it
        if not any(v.code == "n-not-ideal" for v in out):
            if _lower_central_length(self.n_bracket, self.tol) is None:
                out.append(Violation("n-not-nilpotent", "declared n-block is not nilpotent"))

        for z in range(self.dim_k):
            ad_zp = self._ad_on(z)[self.sp, self.sp]
            defect = frob(ad_zp + ad_zp.T)
            if defect > self.tol * norm:
                out.append(Violation("isotropy-not-skew", f"ad(k basis {z}) not skew on p", defect))
        return out

    def _closure_violations(self, t: np.ndarray, cut: float) -> list[Violation]:
        out = []

        def scan(si, sj, allowed, code, msg):
            block = t[si, sj, :]
            mask = np.ones(self.dim, dtype=bool)
            mask[allowed] = False
            offending = np.abs(block[:, :, mask])
            if offending.size and np.max(offending) > cut:
                idx = np.unravel_index(np.argmax(offending), offending.shape)
                out.append(Violation(code, msg, (int(idx[0]), int(idx[1]), float(np.max(offending)))))

        scan(self.sk, self.sk, self.sk, "k-not-closed", "[k,k] not inside k")
        scan(self.sk, self.sh, self.sh, "kh-not-in-h", "[k,h] not inside h")
        scan(slice(0, self.dim), self.sn, self.sn, "n-not-ideal", "[g,n] not inside n")
        return out

    # -- frame bookkeeping ----------------------------------------------------

    def _ad_on(self, i: int) -> np.ndarray:
        """Matrix of ad(basis vector i) on g, orthonormal frame; a read-only view."""
        return self.bracket_on.dense[i].T

    def ad_matrix(self, x: np.ndarray) -> np.ndarray:
        """ad of a coordinate vector (orthonormal frame) on g."""
        return self.bracket_on.ad(x)

    # -- core operators -------------------------------------------------------

    @property
    @_once
    def p_bracket(self) -> AlgebraTensor:
        """p-component of the bracket restricted to p x p, orthonormal frame."""
        return self._sub_bracket(self.sp)

    @property
    @_once
    def n_bracket(self) -> AlgebraTensor:
        """The n-block of the bracket as an algebra on n, orthonormal frame; built once."""
        return self._sub_bracket(self.sn)

    def _sub_bracket(self, s: slice) -> AlgebraTensor:
        """The bracket's block s x s -> s; the bracket itself when s spans g."""
        if s.stop - s.start == self.dim:
            return self.bracket_on
        return self.bracket_on.block(s)

    @_once
    def killing(self) -> np.ndarray:
        """The Killing form B(x, y) = tr(ad x ad y) on g, mixed (k | orthonormal p) frame."""
        return _killing(self.bracket_on)

    @_once
    def mean_curvature(self) -> np.ndarray:
        """H in p (orthonormal-frame coordinates) with <H, X> = tr ad X."""
        return _mean_curvature(self.bracket_on, self.dim_k)

    @_once
    def ad_mean_curvature(self) -> np.ndarray:
        """Matrix of ad H on g, orthonormal frame."""
        full = np.zeros(self.dim)
        full[self.sp] = self.mean_curvature()
        return self.ad_matrix(full)

    @_once
    def ricci(self) -> SymOperator:
        return SymOperator(_ricci(self.p_bracket, self.killing(), self.ad_mean_curvature(), self.sp))

    @property
    @_once
    def u_bracket(self) -> AlgebraTensor:
        """The bracket's u-block, that of g/n, as an algebra on u = k + h; built once."""
        return self._sub_bracket(slice(0, self.dim_k + self.dim_h))

    def u_ricci(self) -> np.ndarray:
        """Ric = M - B/2 - S(ad H) of u = k + h with the metric on h, by ``ricci``'s helpers."""
        u = self.u_bracket
        h = np.zeros(u.dim)
        h[self.sh] = _mean_curvature(u, self.dim_k)
        return _ricci(self._sub_bracket(self.sh), _killing(u), u.ad(h), self.sh)

    def moment(self) -> SymOperator:
        return SymOperator(moment_operator(self.p_bracket))

    @_once
    def blocks(self) -> BracketBlocks:
        """The components, as views of the read-only ``bracket_on.dense``."""
        t = self.bracket_on.dense
        return BracketBlocks(
            lam0=t[self.sh, self.sh, self.sh],
            lam1=t[self.sh, self.sh, self.sn],
            lam2=t[self.sh, self.sh, self.sk],
            eta=t[self.sh, self.sn, self.sn],
            mu=t[self.sn, self.sn, self.sn],
            nu2=t[self.sk, self.sn, self.sn],
        )

    def mm_from_blocks(self) -> SymOperator:
        """Moment operator assembled blockwise; requires lam1 = 0.

        On h:    M_lam0 - (1/2) tr(ad Y (ad Y')^t),
        on n:    M_mu + (1/2) sum_i [ad Y_i, (ad Y_i)^t],
        cross:   -(1/2) tr(ad Y (ad_mu X)^t).
        """
        bb = self.blocks()
        if frob(bb.lam1) > self.tol * self.bracket_on.norm:
            raise DecompositionError(
                [Violation("lam1-nonzero", "blockwise moment operator needs [h,h]_p inside h", frob(bb.lam1))]
            )
        nh, nn = self.dim_h, self.dim_n
        a_eta = bb.ad_eta()  # a view of eta: (ad Y_a)^t = eta[a]
        # a_eta and a_mu pair as eta and mu do, flattened
        eta, mu = bb.eta.reshape(nh, nn * nn), bb.mu.reshape(nn, nn * nn)
        # einsum("aij,bij->ab", a_eta, a_eta)
        m_h = moment_operator(AlgebraTensor.from_dense(bb.lam0)) - 0.5 * (eta @ eta.T)
        # einsum("aij,akj->aik", a_eta, a_eta) - einsum("aji,ajk->aik", a_eta, a_eta)
        comm = a_eta @ bb.eta - bb.eta @ a_eta
        m_n = moment_operator(self.n_bracket) + 0.5 * np.sum(comm, axis=0)
        cross = -0.5 * (eta @ mu.T)  # einsum("aij,xij->ax", a_eta, a_mu)
        m = np.zeros((self.dim_p, self.dim_p))
        m[:nh, :nh] = m_h
        m[nh:, nh:] = m_n
        m[:nh, nh:] = cross
        m[nh:, :nh] = cross.T
        return SymOperator(m)

    # -- sub-decompositions ---------------------------------------------------

    def n_decomposition(self) -> "MetricDecomposition":
        """The nilpotent part (n, ip restricted to n) as a standalone algebra; built once."""
        # not cached when it is self: a decomposition holding itself is a reference cycle
        return self._n_part() if self.dim_k + self.dim_h else self

    @_once
    def _n_part(self) -> "MetricDecomposition":
        # through the memo: every algebra with this n-block at this tol shares one n-part
        return decompose(self.n_bracket, 0, 0, self.dim_n, tol=self.tol)

    @property
    def n_abelian(self) -> bool:
        """Whether n counts as abelian: |mu_n| <= tol |mu|, the one rule of every n-part branch."""
        return self.n_bracket.norm <= self.tol * self.bracket_on.norm

    @property
    @_once
    def n_is_nilradical(self) -> bool:
        """Whether n is the nilradical of g, by Dickson's trace criterion; computed once.

        The nilradical is {x : ad x in Rad(A_g)}, A_g the associative algebra
        ad g generates, in which ad n generates a nilpotent ideal.  So n is the
        nilradical iff no y != 0 in k + h has ad y in Rad(A), A the algebra ad
        of the k + h block generates; in characteristic 0 Rad(A) is the kernel
        of the trace form tr(a b) on A (Dickson; de Graaf, Lie Algebras: Theory
        and Algorithms, 2000).  The test: tr(ad y_i w_j), over a basis w_j of A,
        has a trivial left kernel.  The bracket is divided by |mu|, so the floor
        ``tol`` of each rank cut, which the traces of nilpotent products stay
        under, does not depend on scale.
        """
        nu, d = self.dim_k + self.dim_h, self.dim
        if nu == 0:
            return True
        if self.bracket_on.norm == 0.0:  # g abelian: its own nilradical
            return False
        flat = self.bracket_on.dense[:nu].reshape(nu, d * d) / self.bracket_on.norm
        gens = flat.reshape(nu, d, d).transpose(0, 2, 1)  # ad of the k + h basis vectors

        def cut(m):
            return _row_space_and_kernel(m, self.tol, self.tol)

        span, size = cut(gens.reshape(nu, -1))[0], -1
        while len(span) > size:  # close the span under right multiplication by each generator
            size = len(span)
            for g in gens:
                products = (span.reshape(-1, d, d) @ g).reshape(-1, d * d)
                span = cut(np.concatenate([span, products]))[0]
        traces = flat @ span.T  # einsum("aij,bji->ab", gens, span.reshape(-1, d, d))
        return not len(cut(traces.T)[1])

    @_once
    def derivations_n(self) -> np.ndarray:
        """Orthonormal basis of Der(n), orthonormal frame, stacked (m, n, n); computed once.

        All of gl(n) when n counts as abelian (``n_abelian``): the family of
        the canonical fit and of the battery's fit of the nilpotent part.
        """
        if self.n_abelian:
            return np.eye(self.dim_n**2).reshape(self.dim_n**2, self.dim_n, self.dim_n)
        if self.dim_k + self.dim_h:
            return self.n_decomposition().derivations_n()
        return derivation_algebra(self.bracket_on)

    @_once
    def n_stratum(self) -> StratumData:
        """Stratum label of the nonzero nilpotent part at ``self.tol``; computed once, on the n-part."""
        if self.dim_k + self.dim_h:
            return self.n_decomposition().n_stratum()
        return stratum_label(self.n_bracket, self.tol)

    # -- misc -----------------------------------------------------------------

    def derivation_residual_on(self, d_on: np.ndarray) -> float:
        """Derivation defect of a matrix given in the orthonormal frame."""
        return derivation_residual(self.bracket_on, d_on)

    def check(self, name: str, anchor: str, value: float, degree: int, **info) -> Check:
        """``value <= tol |mu|^degree`` at this decomposition's tol and orthonormal-frame |mu|."""
        return Check.of_degree(name, anchor, value, self.tol, self.bracket_on.norm, degree, **info)


def decompose(
    bracket: AlgebraTensor,
    dim_k: int,
    dim_h: int,
    dim_n: int,
    ip: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> MetricDecomposition:
    """The validated decomposition of these inputs; raises DecompositionError when invalid.

    An inner product ip on p is checked (``_metric_violations``) and the
    bracket written in the frame ``orthonormal_frame(ip)`` spans; no ip is
    the identity, whose frame is the listed basis.  Memoized on what a
    decomposition is a function of: the bracket in that frame, the block
    dimensions and ``tol``.  So a listing with an inner product and its
    orthonormal twin get the same ``MetricDecomposition``, and so do an
    identity ``ip`` and none, which maps the bracket to itself bit for bit.
    The ``MEMO_SIZE`` most recent are kept, refusals included.
    """
    if ip is not None and dim_k + dim_h + dim_n == bracket.dim:  # else MetricDecomposition refuses
        ip = np.asarray(ip, dtype=float)
        violations = _metric_violations(ip, dim_h, dim_n)
        if violations:
            raise DecompositionError(violations)
        frame = np.eye(bracket.dim)
        frame[dim_k:, dim_k:] = orthonormal_frame(ip)
        with np.errstate(over="ignore", invalid="ignore"):  # out of range in the frame: range_fault's
            bracket = bracket.map_basis(frame)
    dec, violations = _validated(bracket, dim_k, dim_h, dim_n, tol)
    if violations:
        raise DecompositionError(violations)
    return dec


@functools.lru_cache(maxsize=MEMO_SIZE)
def _validated(bracket: AlgebraTensor, dim_k: int, dim_h: int, dim_n: int, tol: float):
    try:
        return MetricDecomposition(bracket, dim_k, dim_h, dim_n, tol), ()
    except DecompositionError as err:
        return None, tuple(err.violations)
