"""First-order sensitivity of the largest singular value to cell perturbations.

For a simple largest singular value sigma_1 with singular vectors u_1, v_1,
the derivative of sigma_1(A + eps B) at eps = 0 is u_1^T B v_1.  Perturbing
one cell (i, j) in proportion to its own magnitude (B = A[i,j] e_i e_j^T)
gives the ordering score

    Ord[i, j] = |A[i, j]| |u_1[i]| |v_1[j]|,

all cells ranked from one SVD of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSV, DimensionMismatch
from .intervals import IntervalMatrix

__all__ = [
    "OrdMatrix",
    "sv_change",
    "order_cells",
    "max_sv_radius",
]


# sigma_1 counts as simple when sigma_1 - sigma_2 >= _GAP_RTOL sigma_1.
_GAP_RTOL = 1e-10


def _top_svd(a: np.ndarray):
    """Largest singular triple of a, guarding simplicity of sigma_1."""
    u, s, vt = np.linalg.svd(a)
    sigma1 = float(s[0])
    if s.shape[0] > 1:
        tol = _GAP_RTOL * sigma1
        gap = sigma1 - float(s[1])
        if gap < tol:
            raise DegenerateSV(
                f"largest singular value gap {gap:.3g} below tolerance {tol:.3g}"
            )
    return u[:, 0], sigma1, vt[0, :]


def sv_change(a, b) -> float:
    """First-order change |u_1^T B v_1| of sigma_1(A) in direction B.

    Requires the largest singular value of A to be simple: the gap
    sigma_1 - sigma_2 must be at least _GAP_RTOL sigma_1, else
    DegenerateSV is raised.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionMismatch("matrices must share a 2-d shape")
    u1, _, v1 = _top_svd(a)
    return float(abs(u1 @ b @ v1))


@dataclass(frozen=True, eq=False)
class OrdMatrix:
    """Cell scores and the induced ranking (descending, row-major ties)."""

    scores: np.ndarray
    ranking: tuple[tuple[int, int], ...]

    def top(self, k: int) -> tuple[tuple[int, int], ...]:
        return self.ranking[:k]

    def bottom(self, k: int) -> tuple[tuple[int, int], ...]:
        return self.ranking[max(len(self.ranking) - k, 0):]


def order_cells(a) -> OrdMatrix:
    """Rank all cells of a square matrix by first-order sigma_1 sensitivity.

    One SVD gives every score Ord[i,j] = |A[i,j]| |u_1[i]| |v_1[j]|; the
    ranking sorts scores descending and breaks ties row-major.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("ordering is defined for square matrices")
    u1, _, v1 = _top_svd(a)
    scores = np.abs(a) * np.abs(u1)[:, None] * np.abs(v1)[None, :]
    n = a.shape[0]
    cells = [(i, j) for i in range(n) for j in range(n)]
    cells.sort(key=lambda ij: (-scores[ij[0], ij[1]], ij[0], ij[1]))
    return OrdMatrix(scores=scores, ranking=tuple(cells))


def max_sv_radius(lam: IntervalMatrix) -> float:
    """Largest singular value over the interval family, sup_E sigma_1(E).

    This is exactly the interval 2-norm sup, so ||E x||_2 <= radius for
    every member E and unit x.
    """
    return lam.two_norm_sup()
