"""Shared builders for randomized decomposition tests.

Random semidirect data comes in two strengths: fully compatible data
(satisfying the builder's conditions (c1)-(c3), used by the round-trip and
equivalence suites) and merely assemblable data (a homomorphism into the
derivation algebra, enough for a valid decomposition with [h,h] inside u,
used by the blockwise-moment suite).

``decomposition.decompose`` keeps the decompositions it validated (for
``io.validate``, the builds, the extensions and the n-parts) for later
callers in the process, ``io.load`` the documents it read, by their
text, and ``tensor._lower_central_length`` the nilpotency tests of the
n-blocks; each test starts with the three memos empty, and a test that
counts the work of single commands asks for ``cold_commands``.
"""

import numpy as np
import pytest

from homsol import cli, decomposition, io, tensor
from homsol.constructions import ConstructionData, assemble_semidirect
from homsol.tensor import AlgebraTensor, derivation_algebra

ABELIAN2 = AlgebraTensor(2)
ABELIAN3 = AlgebraTensor(3)
HEIS3 = AlgebraTensor(3, ((0, 1, 2, 1.0),))
FIL4 = AlgebraTensor(4, ((0, 1, 2, 1.0), (0, 2, 3, 1.0)))
HEIS3_R = AlgebraTensor(4, ((0, 1, 3, 1.0),))
SO3 = AlgebraTensor(3, ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)))

# (bracket, c at unit scale, diagonal-derivation parametrization)
# each row of the parametrization matrix gives the diagonal of one generator
_NIL_MENU = [
    (ABELIAN2, None, np.eye(2)),
    (ABELIAN3, None, np.eye(3)),
    (HEIS3, -1.5, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])),
    (FIL4, -1.5, np.array([[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 1.0]])),
    (HEIS3_R, -1.5, np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])),
]


def nil_part(rng, allow_nonabelian=True):
    """Random scaled nilpotent part with its soliton certificate (c, D1)."""
    while True:
        bracket, c_unit, param = _NIL_MENU[rng.integers(0, len(_NIL_MENU))]
        if allow_nonabelian or c_unit is None:
            break
    scale = float(rng.uniform(0.5, 2.0))
    scaled = bracket.scale(scale)
    if c_unit is None:
        c = -float(rng.uniform(0.5, 4.0))
        d1 = -c * np.eye(bracket.dim)
    else:
        c = c_unit * scale**2
        from homsol.soliton import nilsoliton_fit

        d1 = nilsoliton_fit(scaled).d1
    return scaled, c, d1, param


def _diagonal_theta(rng, param, dim_h, c):
    """dim_h commuting normal derivations with tr(S_i S_j) = -c delta_ij."""
    k, n = param.shape
    for _ in range(50):
        coeffs = rng.standard_normal((dim_h, k))
        mats = coeffs @ param  # rows: diagonals
        q, r = np.linalg.qr(mats.T)
        if np.min(np.abs(np.diag(r))) < 1e-6:
            continue
        diags = q[:, :dim_h].T * np.sqrt(-c)
        return np.stack([np.diag(d) for d in diags])
    raise RuntimeError("could not draw independent diagonal derivations")


def random_construction(rng) -> ConstructionData:
    """Compatible data: u abelian or so(3) + R, theta diagonal or rotational."""
    if rng.random() < 0.25:
        # k = so(3) acting by rotations on an abelian R^3, h = R a by s I
        c = -float(rng.uniform(1.0, 5.0))
        s = np.sqrt(-c / 3.0)
        theta = np.zeros((4, 3, 3))
        e = np.eye(3)
        theta[0] = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        theta[1] = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=float)
        theta[2] = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        theta[3] = s * e
        u = AlgebraTensor(
            4,
            (
                (0, 1, 2, 1.0),
                (1, 2, 0, 1.0),
                (0, 2, 1, -1.0),
            ),
        )
        return ConstructionData(
            n_bracket=ABELIAN3, c=c, d1=-c * np.eye(3), u_bracket=u, dim_k=3, theta=theta
        )
    nil, c, d1, param = nil_part(rng)
    dim_h = int(rng.integers(1, min(3, param.shape[0]) + 1))
    theta = _diagonal_theta(rng, param, dim_h, c)
    return ConstructionData(
        n_bracket=nil,
        c=c,
        d1=d1,
        u_bracket=AlgebraTensor(dim_h),
        dim_k=0,
        theta=theta,
    )


def random_lambda1zero(rng):
    """Valid decomposition with [h,h]_p inside h; no soliton conditions."""
    choice = rng.random()
    if choice < 0.3:
        # so(3) as h acting on an abelian R^3 through rotations; scaling the
        # representation would break the homomorphism, so randomness enters
        # through the metric on h instead
        theta = np.zeros((3, 3, 3))
        theta[0] = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        theta[1] = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=float)
        theta[2] = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        data = ConstructionData(
            n_bracket=ABELIAN3,
            c=0.0,
            d1=np.zeros((3, 3)),
            u_bracket=SO3,
            dim_k=0,
            theta=theta,
            ip_h=float(rng.uniform(0.5, 2.0)) * np.eye(3),
        )
        return assemble_semidirect(data)
    nil = [ABELIAN3, HEIS3, FIL4][rng.integers(0, 3)].scale(float(rng.uniform(0.5, 2.0)))
    ders = derivation_algebra(nil)
    theta = np.einsum("a,aij->ij", rng.standard_normal(len(ders)), ders)[None, :, :]
    ip = None
    if rng.random() < 0.5:
        # random SPD metric, block diagonal across h/n
        a = rng.standard_normal((1, 1))
        b = rng.standard_normal((nil.dim, nil.dim))
        ip = np.zeros((1 + nil.dim, 1 + nil.dim))
        ip[:1, :1] = a @ a.T + np.eye(1)
        ip[1:, 1:] = b @ b.T + nil.dim * np.eye(nil.dim)
    data = ConstructionData(
        n_bracket=nil,
        c=0.0,
        d1=np.zeros((nil.dim, nil.dim)),
        u_bracket=AlgebraTensor(1),
        dim_k=0,
        theta=theta,
    )
    dec = assemble_semidirect(data)
    if ip is None:
        return dec
    return decomposition.decompose(dec.bracket_on, dec.dim_k, dec.dim_h, dec.dim_n, ip=ip)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _empty_memos():
    decomposition._validated.cache_clear()
    io._document.cache_clear()
    tensor._lower_central_length.cache_clear()


@pytest.fixture(autouse=True)
def _empty_validation_memo():
    """No test is served a decomposition, a document or a nilpotency test that an earlier test made."""
    _empty_memos()


@pytest.fixture
def cold_commands(monkeypatch):
    """``homsol.cli.main`` with every memo emptied before each call.

    Every command then reads and validates its document afresh, as the first
    command on a document in a new process does.
    """
    main = cli.main

    def cold_main(argv=None):
        _empty_memos()
        return main(argv)

    monkeypatch.setattr(cli, "main", cold_main)
