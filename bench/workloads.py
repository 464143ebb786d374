"""Seeded inputs for the three workloads.

Each workload is a sequence of rounds.  A round always holds the same
operations in the same order (so every run attempts whole rounds of one
fixed mix); the seed and the round index only choose the continuous
parameters: bracket scales, constants and derivation coefficients.  Every
round draws fresh values, so no two rounds of a run share a document and
no cache keyed on a document's content can serve a later round.

Nothing here imports homsol; the constructions' nilsoliton derivations
come from the oracle's Ricci operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oracle import CATALOG_NAMES, dense, koszul_ricci

# bracket entries of the bundled catalog, written out independently
_FIXED = {
    "heis3": (0, 0, 3, [(0, 1, 2, 1.0)]),
    "heis3_r": (0, 0, 4, [(0, 1, 3, 1.0)]),
    "fil4": (0, 0, 4, [(0, 1, 2, 1.0), (0, 2, 3, 1.0)]),
    "so3": (0, 3, 0, [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)]),
    "solv12": (0, 1, 2, [(0, 1, 1, 1.0), (0, 2, 2, 2.0)]),
    "cplxhyp2": (0, 1, 3, [(0, 1, 1, 0.5), (0, 2, 2, 0.5), (0, 3, 3, 1.0), (1, 2, 3, 1.0)]),
    "nil7": (
        0,
        0,
        7,
        [
            (0, 1, 2, 1.0),
            (0, 2, 3, 1.0),
            (0, 3, 4, 1.0),
            (0, 4, 5, 1.0),
            (0, 5, 6, 1.0),
            (1, 2, 5, 1.0),
            (1, 2, 6, 1.0),
            (1, 3, 6, 1.0),
        ],
    ),
}


def catalog_shape(name: str):
    """(dim_k, dim_h, dim_n, entries) of a catalog algebra at unit scale."""
    if name.startswith("abelian"):
        return 0, 0, int(name[7:]), []
    if name.startswith("hyp"):
        n = int(name[3:])
        return 0, 1, n - 1, [(0, j, j, 1.0) for j in range(1, n)]
    return _FIXED[name]


def document(name: str, dim_k: int, dim_h: int, dim_n: int, entries, scale: float = 1.0) -> dict:
    return {
        "name": name,
        "dim": dim_k + dim_h + dim_n,
        "dim_k": dim_k,
        "dim_h": dim_h,
        "dim_n": dim_n,
        "bracket": [
            {"i": i, "j": j, "k": k, "c": scale * c} for i, j, k, c in entries
        ],
    }


@dataclass
class DocCase:
    """One document and what the oracle expects of it."""

    doc: dict
    family: str  # catalog name or ladder family
    size: int  # ladder size parameter (m or n), 0 for the catalog
    scale: float

    @property
    def name(self) -> str:
        return self.doc["name"]


# ---------------------------------------------------------------------------
# catalog-sweep
# ---------------------------------------------------------------------------

COPIES_PER_ENTRY = 3


def catalog_unit_cases() -> list[DocCase]:
    """Every catalog entry at unit scale."""
    return [
        DocCase(document(name, *catalog_shape(name)), name, 0, 1.0) for name in CATALOG_NAMES
    ]


def catalog_round(rng: np.random.Generator, r: int) -> list[DocCase]:
    """COPIES_PER_ENTRY copies of every catalog entry, the bracket rescaled by U[0.5, 2]."""
    cases = []
    for name in CATALOG_NAMES:
        for copy in range(COPIES_PER_ENTRY):
            s = float(rng.uniform(0.5, 2.0))
            doc = document(f"{name}-r{r}c{copy}", *catalog_shape(name), scale=s)
            cases.append(DocCase(doc, name, 0, s))
    return cases


# ---------------------------------------------------------------------------
# derivation-ladder
# ---------------------------------------------------------------------------

HEIS_M = range(1, 9)  # h_3 .. h_17
EXT_M = range(1, 8)  # extensions of h_3 .. h_15
FIL_N = range(4, 15)  # nilsoliton L_4 .. L_14
UNIT_N = range(5, 12)  # unit-constant L_5 .. L_11


def heis_entries(m: int):
    """h_{2m+1}: [x_i, y_i] = z, basis x_0..x_{m-1}, y_0..y_{m-1}, z."""
    return [(i, m + i, 2 * m, 1.0) for i in range(m)]


def ext_entries(m: int):
    """R A + h_{2m+1} with ad A = diag(1/2, ..., 1/2, 1); A is basis vector 0."""
    n = 2 * m + 1
    ad = [(0, 1 + j, 1 + j, 0.5) for j in range(2 * m)] + [(0, n, n, 1.0)]
    return ad + [(1 + i, 1 + j, 1 + k, c) for i, j, k, c in heis_entries(m)]


def fil_entries(n: int, unit: bool):
    """Filiform L_n: [e0, e_j] = a_j e_{j+1}, a_j = 1 or sqrt(j (n-1-j))."""
    return [
        (0, j, j + 1, 1.0 if unit else math.sqrt(j * (n - 1 - j))) for j in range(1, n - 1)
    ]


def ladder_shape(family: str, size: int):
    if family == "heis":
        return 0, 0, 2 * size + 1, heis_entries(size)
    if family == "ext":
        return 0, 1, 2 * size + 1, ext_entries(size)
    if family == "fil":
        return 0, 0, size, fil_entries(size, unit=False)
    if family == "unit":
        return 0, 0, size, fil_entries(size, unit=True)
    raise KeyError(family)


LADDER = (
    [("heis", m) for m in HEIS_M]
    + [("ext", m) for m in EXT_M]
    + [("fil", n) for n in FIL_N]
    + [("unit", n) for n in UNIT_N]
)


def ladder_round(rng: np.random.Generator, r: int) -> list[DocCase]:
    cases = []
    for family, size in LADDER:
        s = float(rng.uniform(0.5, 2.0))
        dk, dh, dn, entries = ladder_shape(family, size)
        doc = document(f"{family}{size}-r{r}", dk, dh, dn, entries, s)
        cases.append(DocCase(doc, family, size, s))
    return cases


# ---------------------------------------------------------------------------
# construction-roundtrip
# ---------------------------------------------------------------------------

# (name, dim, entries, c at unit scale, diagonal-derivation parametrization)
NIL_MENU = {
    "abelian2": (2, [], None, np.eye(2)),
    "abelian3": (3, [], None, np.eye(3)),
    "heis3": (3, [(0, 1, 2, 1.0)], -1.5, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])),
    "fil4": (
        4,
        [(0, 1, 2, 1.0), (0, 2, 3, 1.0)],
        -1.5,
        np.array([[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 1.0]]),
    ),
    "heis3_r": (
        4,
        [(0, 1, 3, 1.0)],
        -1.5,
        np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]),
    ),
}

# every (nilpotent part, dim h) pair the random builders can draw, plus so(3)
CONSTRUCTION_KINDS = [
    (name, dim_h)
    for name, (_, _, _, param) in NIL_MENU.items()
    for dim_h in range(1, min(3, param.shape[0]) + 1)
] + [("so3", 1)]
COPIES_PER_KIND = 4

SO3_U = [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)]


@dataclass
class ConstructionCase:
    """A construction document and the data the oracle predicts from."""

    raw: dict  # the construction JSON handed to `homsol build`
    family: str
    dim_h: int
    c: float
    theta: np.ndarray  # (dim_u, dim_n, dim_n)
    d1: np.ndarray
    u_entries: list
    dim_k: int
    n_entries: list  # scaled nilpotent bracket
    dim_n: int

    @property
    def name(self) -> str:
        return self.raw["name"]


def _matrix(a: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(a)]


def _bracket_json(entries) -> list:
    return [{"i": i, "j": j, "k": k, "c": float(c)} for i, j, k, c in entries]


def _diagonal_theta(rng, param: np.ndarray, dim_h: int, c: float) -> np.ndarray:
    """dim_h commuting diagonal derivations with tr(S_a S_b) = -c delta_ab."""
    k = param.shape[0]
    for _ in range(50):
        mats = rng.standard_normal((dim_h, k)) @ param
        q, r = np.linalg.qr(mats.T)
        if np.min(np.abs(np.diag(r))) < 1e-6:
            continue
        diags = q[:, :dim_h].T * math.sqrt(-c)
        return np.stack([np.diag(d) for d in diags])
    raise RuntimeError("could not draw independent diagonal derivations")


def construction_case(rng: np.random.Generator, family: str, dim_h: int, tag: str) -> ConstructionCase:
    if family == "so3":
        # k = so(3) rotating an abelian R^3, h = R a acting by s I
        c = -float(rng.uniform(1.0, 5.0))
        s = math.sqrt(-c / 3.0)
        theta = np.zeros((4, 3, 3))
        theta[0] = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
        theta[1] = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
        theta[2] = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
        theta[3] = s * np.eye(3)
        d1 = -c * np.eye(3)
        n_entries, dim_n, dim_k, u_entries = [], 3, 3, SO3_U
    else:
        dim_n, entries, c_unit, param = NIL_MENU[family]
        scale = float(rng.uniform(0.5, 2.0))
        n_entries = [(i, j, k, scale * v) for i, j, k, v in entries]
        if c_unit is None:
            c = -float(rng.uniform(0.5, 4.0))
            d1 = -c * np.eye(dim_n)
        else:
            c = c_unit * scale**2
            d1 = koszul_ricci(dense(dim_n, n_entries)) - c * np.eye(dim_n)
        theta = _diagonal_theta(rng, param, dim_h, c)
        dim_k, u_entries = 0, []
    dim_u = dim_k + dim_h
    raw = {
        "name": f"{family}-h{dim_h}-{tag}",
        "c": c,
        "nil": {"dim": dim_n, "bracket": _bracket_json(n_entries), "d1": _matrix(d1)},
        "reductive": {"dim": dim_u, "dim_k": dim_k, "bracket": _bracket_json(u_entries)},
        "theta": [_matrix(t) for t in theta],
    }
    return ConstructionCase(
        raw=raw,
        family=family,
        dim_h=dim_h,
        c=c,
        theta=theta,
        d1=d1,
        u_entries=u_entries,
        dim_k=dim_k,
        n_entries=n_entries,
        dim_n=dim_n,
    )


def construction_round(rng: np.random.Generator, r: int) -> list[ConstructionCase]:
    return [
        construction_case(rng, family, dim_h, f"r{r}c{copy}")
        for family, dim_h in CONSTRUCTION_KINDS
        for copy in range(COPIES_PER_KIND)
    ]


WORKLOADS = {
    "catalog-sweep": catalog_round,
    "derivation-ladder": ladder_round,
    "construction-roundtrip": construction_round,
}


# The benchmark's own work per round, file I/O excluded (each position's
# fastest, summed; worker.host_slowdown), on the reference host at a fast
# moment: Intel Xeon (family 6, model 207), 2 vCPUs, Python 3.11.7,
# numpy 2.4.6.  The timing metrics are scaled to this speed.
OWN_WORK_REF_S = {
    "catalog-sweep": 0.0167,
    "derivation-ladder": 0.0350,
    "construction-roundtrip": 0.0550,
}
