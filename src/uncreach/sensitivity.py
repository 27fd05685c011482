"""First-order sensitivity of the largest singular value to cell perturbations.

Let U_1 and V_1 (n x k) hold the paired singular vectors of the k singular
values within _GAP_RTOL sigma_1 of sigma_1.  For sigma_1 > 0 the one-sided
derivative of sigma_1(A + eps B) at eps = 0+ is lambda_max(sym(U_1^T B V_1)),
sym(M) = (M + M^T) / 2 (Lewis & Sendov, Set-Valued Analysis 13, 2005); at
k = 1 it is u_1^T B v_1.  Perturbing one cell both ways in proportion to
its own magnitude (B = +-|A[i,j]| e_i e_j^T), the larger of the two
derivatives is the ordering score

    Ord[i, j] = |A[i, j]| ||u|| ||v|| (1 + |cos(u, v)|) / 2,

u = U_1[i, :] and v = V_1[j, :], which at k = 1 is |A[i, j]| |u_1[i]| |v_1[j]|;
all cells are ranked from one SVD of A.  No matrix is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _finite_square
from .errors import DimensionMismatch
from .intervals import _frobenius

__all__ = [
    "OrdMatrix",
    "sv_change",
    "order_cells",
]


# sigma_i counts as sigma_1 when sigma_1 - sigma_i <= _GAP_RTOL sigma_1.
_GAP_RTOL = 1e-10


def _top_svd(a: np.ndarray):
    """U_1, sigma_1 and V_1 of a finite square matrix a, k >= 1 columns each."""
    u, s, vt = np.linalg.svd(a)
    k = int(np.count_nonzero(s[0] - s <= _GAP_RTOL * s[0]))
    return u[:, :k], float(s[0]), vt[:k].T


def sv_change(a, b) -> float:
    """First-order change ||sym(U_1^T B V_1)||_2 of sigma_1(A) in direction
    B: the larger rise of sigma_1 under +B and under -B.  At sigma_1 = 0
    every pair of unit vectors is a singular pair, and sigma_1(eps B) =
    eps ||B||_2.  A and B are finite square matrices of one shape."""
    a, b = _finite_square(a), _finite_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch("matrices must share a shape")
    u1, sigma1, v1 = _top_svd(a)
    if sigma1 == 0.0:
        return float(np.linalg.norm(b, 2))
    m = u1.T @ b @ v1
    return float(np.abs(np.linalg.eigvalsh(0.5 * (m + m.T))).max())


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
    """Rank all cells of a finite square matrix by first-order sigma_1
    sensitivity.

    One SVD gives every score Ord[i,j] = |A[i,j]| ||u|| ||v|| (1 + |cos|) / 2
    (module docstring); the ranking sorts scores descending and breaks
    ties row-major.
    """
    a = _finite_square(a)
    u1, _, v1 = _top_svd(a)
    nu, nv = _frobenius(u1, axis=1), _frobenius(v1, axis=1)
    norms = nu[:, None] * nv[None, :]
    # |cos| is 1 at k = 1, and wherever u or v is 0, whose score is 0
    cos = np.divide(np.abs(u1 @ v1.T), norms, out=np.ones(a.shape),
                    where=norms > 0)
    # in the order of |A[i,j]| |u_1[i]| |v_1[j]|: at k = 1 the factor is 1
    # and the product is that form's, bit for bit
    scores = np.abs(a) * nu[:, None] * nv[None, :] * ((1.0 + cos) / 2)
    n = a.shape[0]
    cells = [(i, j) for i in range(n) for j in range(n)]
    cells.sort(key=lambda ij: (-scores[ij[0], ij[1]], ij[0], ij[1]))
    return OrdMatrix(scores=scores, ranking=tuple(cells))
