"""Bundled example algebras with their known curvature data.

Every entry records the basis-ordered bracket (k-block, h-block, n-block),
the declared splitting, and the expected classification used by the
`verify-all` command.  The 7-dimensional entry `nil7` is characteristically
nilpotent (every derivation is nilpotent, checked by an Engel chain on its
derivation algebra), so no metric on it is a nilsoliton; it is bundled as
the documented negative control for the nilsoliton fit.

Four generated families stand beside ``abelian(n)`` and ``hyp(n)``:
``heis(m)``, ``ext(m)`` and ``fil(n, unit)``, listed in ``ladder()``.  They
carry no ``meta`` and are not in ``CATALOG``; ``heis3``, ``fil4`` and
``cplxhyp2`` are members of them, renamed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .decomposition import MetricDecomposition, decompose
from .tensor import DEFAULT_TOL, AlgebraTensor


@dataclass
class CatalogEntry:
    name: str
    dim_k: int
    dim_h: int
    dim_n: int
    entries: tuple
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.dim_k + self.dim_h + self.dim_n

    def tensor(self) -> AlgebraTensor:
        return AlgebraTensor(self.dim, tuple(self.entries))

    def decomposition(self, tol: float = DEFAULT_TOL) -> MetricDecomposition:
        return decompose(self.tensor(), self.dim_k, self.dim_h, self.dim_n, tol=tol)


def abelian(n: int) -> CatalogEntry:
    return CatalogEntry(
        name=f"abelian{n}",
        dim_k=0,
        dim_h=0,
        dim_n=n,
        entries=(),
        meta={
            "description": f"abelian R^{n}, flat",
            "expected": {"tag": "Einstein", "c": 0.0},
        },
    )


def hyp(n: int) -> CatalogEntry:
    """R a + R^{n-1} with ad a = identity: real hyperbolic space H^n."""
    entries = tuple((0, j, j, 1.0) for j in range(1, n))
    return CatalogEntry(
        name=f"hyp{n}",
        dim_k=0,
        dim_h=1,
        dim_n=n - 1,
        entries=entries,
        meta={
            "description": f"real hyperbolic space of dimension {n}",
            "expected": {"tag": "Einstein", "c": -(n - 1.0)},
        },
    )


def heis(m: int) -> CatalogEntry:
    """Heisenberg h_{2m+1}: [x_i, y_i] = z, basis x_0..x_{m-1}, y_0..y_{m-1}, z."""
    entries = tuple((i, m + i, 2 * m, 1.0) for i in range(m))
    return CatalogEntry(f"heis-m{m}", 0, 0, 2 * m + 1, entries)


def ext(m: int) -> CatalogEntry:
    """R A + h_{2m+1} with ad A = diag(1/2, ..., 1/2, 1), A basis vector 0: Einstein."""
    n = 2 * m + 1
    ad = tuple((0, 1 + j, 1 + j, 0.5) for j in range(2 * m)) + ((0, n, n, 1.0),)
    shifted = tuple((1 + i, 1 + j, 1 + k, c) for i, j, k, c in heis(m).entries)
    return CatalogEntry(f"ext-m{m}", 0, 1, n, ad + shifted)


def fil(n: int, unit: bool = False) -> CatalogEntry:
    """Filiform L_n: [e0, e_j] = a_j e_{j+1}, a_j = sqrt(j (n-1-j)) (a nilsoliton) or 1."""
    entries = tuple(
        (0, j, j + 1, 1.0 if unit else math.sqrt(j * (n - 1 - j))) for j in range(1, n - 1)
    )
    return CatalogEntry(f"{'unit' if unit else 'fil'}-n{n}", 0, 0, n, entries)


def ladder() -> list[CatalogEntry]:
    """h_3..h_17, their extensions for m = 1..7, L_4..L_14 and unit-constant L_5..L_11."""
    return (
        [heis(m) for m in range(1, 9)]
        + [ext(m) for m in range(1, 8)]
        + [fil(n) for n in range(4, 15)]
        + [fil(n, unit=True) for n in range(5, 12)]
    )


def _fixed_entries() -> list[CatalogEntry]:
    heis3 = replace(
        heis(1),
        name="heis3",
        meta={
            "description": "Heisenberg algebra, the canonical nilsoliton",
            "expected": {"tag": "AlgebraicSoliton", "c": -1.5},
        },
    )
    heis3_r = CatalogEntry(
        name="heis3_r",
        dim_k=0,
        dim_h=0,
        dim_n=4,
        # central summand ordered before the bracket image, so the label diagonal
        # comes out ascending (nice position); the checks do not depend on the order
        entries=((0, 1, 3, 1.0),),
        meta={
            "description": "Heisenberg algebra plus a central line",
            "expected": {"tag": "AlgebraicSoliton", "c": -1.5},
            "basis": "e2 spans the extra center, [e0,e1] = e3",
        },
    )
    fil4 = replace(
        fil(4, unit=True),
        name="fil4",
        meta={
            "description": "4-dimensional filiform nilsoliton",
            "expected": {"tag": "AlgebraicSoliton", "c": -1.5},
        },
    )
    so3 = CatalogEntry(
        name="so3",
        dim_k=0,
        dim_h=3,
        dim_n=0,
        entries=((0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)),
        meta={
            "description": "so(3) with the bi-invariant metric (round sphere)",
            "expected": {"tag": "Einstein", "c": 0.5},
        },
    )
    solv12 = CatalogEntry(
        name="solv12",
        dim_k=0,
        dim_h=1,
        dim_n=2,
        entries=((0, 1, 1, 1.0), (0, 2, 2, 2.0)),
        meta={
            "description": "solvable R a + R^2 with ad a = diag(1, 2)",
            "expected": {"tag": "AlgebraicSoliton", "c": -5.0},
        },
    )
    cplxhyp2 = replace(
        ext(1),
        name="cplxhyp2",
        meta={
            "description": "Einstein extension of heis3 (complex hyperbolic plane)",
            "expected": {"tag": "Einstein", "c": -1.5},
        },
    )
    nil7 = CatalogEntry(
        name="nil7",
        dim_k=0,
        dim_h=0,
        dim_n=7,
        entries=(
            (0, 1, 2, 1.0),
            (0, 2, 3, 1.0),
            (0, 3, 4, 1.0),
            (0, 4, 5, 1.0),
            (0, 5, 6, 1.0),
            (1, 2, 5, 1.0),
            (1, 2, 6, 1.0),
            (1, 3, 6, 1.0),
        ),
        meta={
            "description": (
                "characteristically nilpotent deformation of the 7-dim filiform "
                "algebra; admits no nilsoliton metric"
            ),
            "expected": {"tag": "NotDetected", "nilsoliton_negative": True},
        },
    )
    return [heis3, heis3_r, fil4, so3, solv12, cplxhyp2, nil7]


def catalog() -> dict[str, CatalogEntry]:
    entries = {}
    for n in range(2, 7):
        e = abelian(n)
        entries[e.name] = e
    for e in _fixed_entries():
        entries[e.name] = e
    for n in range(2, 7):
        e = hyp(n)
        entries[e.name] = e
    return entries


CATALOG = catalog()


def get(name: str) -> CatalogEntry:
    key = name[:-5] if name.endswith(".json") else name
    if key not in CATALOG:
        raise KeyError(f"unknown catalog algebra {name!r}")
    return CATALOG[key]


def names() -> list[str]:
    return list(CATALOG)
