"""Interval scalars, interval matrices, their norms and exponential.

An interval matrix L = [lo, hi] stands for the set of real matrices
{ M : lo <= M <= hi entrywise }.  Arithmetic is outward in exact real
arithmetic (floating-point rounding is not directed; consumers that need
slack add it explicitly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DimensionTooLarge, RemainderDiverges

__all__ = [
    "Interval",
    "IntervalMatrix",
    "interval_expm",
]

# Largest order whose interval 2-norm sup is enumerated: 2^(2n-1) SVDs.
MAX_DIM = 8

# Terms of the Taylor series interval_expm sums, after the identity.
_TAYLOR_ORDER = 20


@dataclass(frozen=True)
class Interval:
    """A closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError("lower endpoint has to be smaller or equal to upper")

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def radius(self) -> float:
        return 0.5 * (self.hi - self.lo)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __add__(self, other: "Interval | float") -> "Interval":
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval | float") -> "Interval":
        return self + (-_as_interval(other))

    def __mul__(self, other: "Interval | float") -> "Interval":
        other = _as_interval(other)
        p = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return Interval(min(p), max(p))

    __rmul__ = __mul__

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(float(x), float(x))


def _frobenius(m: np.ndarray) -> float:
    """||m||_F, m scaled by a power of two first, exactly, so that the sum
    of squares overflows only when the norm itself does (then inf)."""
    e = np.frexp(np.abs(m).max())[1]
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(m, -e), "fro"), e))


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True, eq=False)
class IntervalMatrix:
    """Entrywise interval matrix given by lower and upper bound arrays.

    The arrays are float64, shape (rows, cols), and are treated as
    immutable after construction.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.ascontiguousarray(np.asarray(self.lo, dtype=np.float64))
        hi = np.ascontiguousarray(np.asarray(self.hi, dtype=np.float64))
        if lo.ndim != 2 or lo.shape != hi.shape:
            raise DimensionMismatch(
                f"bound arrays must be matching 2-d arrays, got {lo.shape} and {hi.shape}"
            )
        _check_finite(lo, "interval matrix bounds")
        _check_finite(hi, "interval matrix bounds")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound in some entry")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_point(cls, m: np.ndarray) -> "IntervalMatrix":
        m = np.asarray(m, dtype=np.float64)
        return cls(m.copy(), m.copy())

    @classmethod
    def from_center_radius(cls, center: np.ndarray, radius: np.ndarray) -> "IntervalMatrix":
        center = np.asarray(center, dtype=np.float64)
        radius = np.asarray(radius, dtype=np.float64)
        if np.any(radius < 0):
            raise ValueError("radius must be nonnegative")
        return cls(center - radius, center + radius)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntervalMatrix":
        return cls(np.zeros((rows, cols)), np.zeros((rows, cols)))

    # -- basic queries ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.lo.shape

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def radius(self) -> np.ndarray:
        return 0.5 * (self.hi - self.lo)

    def is_point(self) -> bool:
        return bool(np.all(self.lo == self.hi))

    def contains(self, m: np.ndarray, tol: float = 0.0) -> bool:
        m = np.asarray(m, dtype=np.float64)
        return bool(np.all(m >= self.lo - tol) and np.all(m <= self.hi + tol))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly drawn member matrix."""
        u = rng.random(self.shape)
        return self.lo + u * (self.hi - self.lo)

    def __getitem__(self, idx) -> Interval:
        i, j = idx
        return Interval(float(self.lo[i, j]), float(self.hi[i, j]))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        other = _as_im(other)
        if other.shape != self.shape:
            raise DimensionMismatch("shape mismatch in interval addition")
        return IntervalMatrix(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        other = _as_im(other)
        if other.shape != self.shape:
            raise DimensionMismatch("shape mismatch in interval subtraction")
        return IntervalMatrix(self.lo - other.hi, self.hi - other.lo)

    def sub_point(self, m: np.ndarray) -> "IntervalMatrix":
        """Entrywise translate by a point matrix: [lo - m, hi - m]."""
        m = np.asarray(m, dtype=np.float64)
        if m.shape != self.shape:
            raise DimensionMismatch("shape mismatch in point subtraction")
        return IntervalMatrix(self.lo - m, self.hi - m)

    def scale(self, c: float) -> "IntervalMatrix":
        """Multiply by a real scalar."""
        if c >= 0:
            return IntervalMatrix(self.lo * c, self.hi * c)
        return IntervalMatrix(self.hi * c, self.lo * c)

    def __matmul__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        """Exact interval matrix product (see _endpoint_product)."""
        other = _as_im(other)
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch("inner dimensions do not match")
        return IntervalMatrix(*_endpoint_product(self.lo, self.hi,
                                                 other.lo, other.hi))

    # -- norms --------------------------------------------------------------

    def frobenius_sup(self) -> float:
        """sup of the Frobenius norm over the matrix family.

        Equals || max(|lo|, |hi|) ||_F: the entrywise largest magnitudes
        are attained independently (_frobenius).
        """
        return _frobenius(np.maximum(np.abs(self.lo), np.abs(self.hi)))

    def two_norm_sup(self) -> float:
        """sup of the spectral norm over the matrix family.

        The supremum is attained on a vertex matrix of the form
        C + (y z^T) o Delta with sign vectors y, z, so it is computed by
        enumerating sign patterns (2^(2n-1) after symmetry), one batched
        SVD per stack of vertices.  Refuses with DimensionTooLarge when the
        matrix order exceeds MAX_DIM.
        """
        batches = self._vertex_batches()
        if not np.any(self.radius):
            return float(np.linalg.norm(self.center, 2))
        return max(float(np.linalg.svd(batch, compute_uv=False)[:, 0].max())
                   for batch in batches)

    def two_norm_vertices(self):
        """Yield the sign-vertex candidates C + (y z^T) o Delta.

        (y, z) and (-y, -z) give the same matrix, so y[0] is fixed at +1
        and 2^(2n-1) matrices are produced.
        """
        for batch in self._vertex_batches():
            yield from batch

    def _vertex_batches(self):
        """Stacks of sign vertices, for a square matrix of order <= MAX_DIM."""
        n, m = self.shape
        if n != m:
            raise DimensionMismatch("interval 2-norm sup requires a square matrix")
        if n > MAX_DIM:
            raise DimensionTooLarge(
                f"sign enumeration needs 2^(2n-1) spectral norms; n={n} exceeds max_dim={MAX_DIM}"
            )
        return _sign_vertex_batches(self.center, self.radius)


def _sign_patterns(k: int) -> np.ndarray:
    """(2^k, k) +/-1 rows; row b has -1 where bit i of b is set."""
    return 1.0 - 2.0 * ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1)


def _sign_vertex_batches(c: np.ndarray, r: np.ndarray):
    """Stacks of at most 512 vertices c + (y r) o z, y outer, z inner.

    y runs over the sign rows with y[0] = +1 and z over all sign rows, so
    vertex y_i, z_j is number i 2^n + j.  The stacks stay at 256 KB for
    n = 8, where all 2^15 vertices would take 16 MB.
    """
    n = c.shape[0]
    z = _sign_patterns(n)
    y = np.hstack((np.ones((2 ** (n - 1), 1)), _sign_patterns(n - 1)))
    total = 2 ** (2 * n - 1)
    for start in range(0, total, 512):
        idx = np.arange(start, min(start + 512, total))
        yield c + (y[idx >> n, :, None] * r) * z[idx & (2 ** n - 1), None, :]


def _as_im(x) -> IntervalMatrix:
    if isinstance(x, IntervalMatrix):
        return x
    return IntervalMatrix.from_point(np.asarray(x, dtype=np.float64))


def _endpoint_product(alo: np.ndarray, ahi: np.ndarray, blo: np.ndarray,
                      bhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the interval matrix product [alo, ahi] @ [blo, bhi].

    Each scalar product [a,b]*[c,d] is the tight hull of the four
    endpoint products; entries are summed exactly (up to rounding).
    """
    # (rows, inner, cols) tensors of all endpoint products
    a = alo[:, :, None]
    b = ahi[:, :, None]
    c = blo[None, :, :]
    d = bhi[None, :, :]
    pr = np.stack((a * c, a * d, b * c, b * d))
    return pr.min(axis=0).sum(axis=1), pr.max(axis=0).sum(axis=1)


def interval_expm(lam: IntervalMatrix, t: float) -> IntervalMatrix:
    """Interval matrix containing { expm(M t) : M in lam }.

    Sums the Taylor series through order N = _TAYLOR_ORDER with interval
    arithmetic and widens every entry by the rigorous tail bound

        r = theta^(N+1) / ((N+1)! (1 - theta/(N+2))),

    theta = frobenius_sup(lam) * t, valid while theta < N + 2
    (RemainderDiverges otherwise).  Each scalar |R_ij| <= ||R||_2 <= r.
    A point family (lo == hi) runs each round as one point product: its
    four endpoint products are equal, so the single product summed in the
    same order gives bitwise the result of _endpoint_product.  t must be
    finite and nonnegative.
    """
    n, m = lam.shape
    if n != m:
        raise DimensionMismatch("matrix exponential requires a square matrix")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if t < 0:
        raise ValueError("time must be nonnegative")
    theta = lam.frobenius_sup() * t
    if theta >= _TAYLOR_ORDER + 2:
        raise RemainderDiverges(
            f"theta={theta:.3g} >= order+2={_TAYLOR_ORDER + 2}; shrink t")
    # the series runs on bare bound arrays; t >= 0 and 1/k > 0 scale
    # them without swapping, and the result is validated once
    if lam.is_point():
        lt = lam.lo * t
        acc, term = np.eye(n), np.eye(n)
        for k in range(1, _TAYLOR_ORDER + 1):
            term = (term[:, :, None] * lt[None]).sum(axis=1)
            term *= 1.0 / k
            acc += term
        acc_lo = acc_hi = acc
    else:
        lt_lo, lt_hi = lam.lo * t, lam.hi * t
        acc_lo, acc_hi = np.eye(n), np.eye(n)
        term_lo, term_hi = np.eye(n), np.eye(n)
        for k in range(1, _TAYLOR_ORDER + 1):
            term_lo, term_hi = _endpoint_product(term_lo, term_hi, lt_lo, lt_hi)
            term_lo *= 1.0 / k
            term_hi *= 1.0 / k
            acc_lo += term_lo
            acc_hi += term_hi
    tail = theta ** (_TAYLOR_ORDER + 1) / (
        math.factorial(_TAYLOR_ORDER + 1) * (1.0 - theta / (_TAYLOR_ORDER + 2)))
    return IntervalMatrix(acc_lo - tail, acc_hi + tail)
