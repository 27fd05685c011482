"""Interval scalars, interval matrices, their norms and exponential.

An interval matrix L = [lo, hi] stands for the set of real matrices
{ M : lo <= M <= hi entrywise }.  Arithmetic is outward in exact real
arithmetic; rounding is not directed, so consumers that need slack add
it, but _centre_radius and _sigma_max_bound cover their own rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RemainderDiverges

__all__ = [
    "Interval",
    "IntervalMatrix",
    "interval_expm",
]

# Terms of the Taylor series interval_expm sums, after the identity.
_TAYLOR_ORDER = 20

# Entries per chunk of a stack in _sigma_max_bound and engine._image_bounds:
# bounds their temporaries whatever the stack length.
_CHUNK_ENTRIES = 4096


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


def _centre_radius(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and radius whose c - r and c + r round to at most lo, at least hi.

    The centre is 0.5 lo + 0.5 hi, which cannot overflow, and a point
    entry's own value.  The radius rounded to nearest can fall short of
    the true distance by half an ulp, so every nonzero radius is pushed
    one ulp outward: then c - r < lo and c + r > hi hold exactly, and
    rounding keeps them as <= and >=.  Point entries keep radius zero.
    """
    mid = np.where(lo == hi, lo, 0.5 * lo + 0.5 * hi)
    rad = np.maximum(hi - mid, mid - lo)
    return mid, np.where(rad > 0.0, np.nextafter(rad, np.inf), 0.0)


_UNIT = 2.0 ** -53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _UNIT / (1.0 - k * _UNIT)


# LAPACK bounds the error of each eigenvalue eigvalsh computes for a
# symmetric A by p(n) u ||A||_2, with p(n) "a modestly growing function
# of n" and no constant given (LAPACK Users' Guide, 3rd ed., 4.7).  We
# take p(n) = _EIG_C n, at least 48 for the orders n >= 3 that use it:
# on 18000 random, orthogonal, rank-one, badly scaled and nearly
# singular Gram matrices of order 3 to 8, and 280 of order 9 to 64, the
# largest eigenvalue was never more than 19 u ||A||_2 from its 30-digit
# value (numpy 2.4 with OpenBLAS).
_EIG_C = 16
# Covers the roundings of each sigma_max evaluation (see _sigma_max_bound).
_SIGMA_SLACK = 1.0 + 2.0 * _gamma(5)


def _sigma_max_bound(stack: np.ndarray) -> np.ndarray:
    """An upper bound on sigma_max of each matrix of a (K, n, n) stack.

    n = 1 gives |f| exactly.  Otherwise each matrix is scaled by the power
    of two 2^-e that puts its largest entry magnitude in [1/2, 1), so that
    nothing below overflows and sigma_max(F_s) >= 1/2; the scaling is
    exact but for entries it takes below the normal range, whose error of
    at most 2^-1075 each is far below u sigma_max(F_s).  Then
      n = 2: the cancellation-free closed form
             sigma_1 = (sqrt((a+d)^2 + (c-b)^2) + sqrt((a-d)^2 + (c+b)^2)) / 2
             of F_s = [[a, b], [c, d]]: every operation adds or takes the
             root of nonnegative terms, so the computed value is within
             a factor 1 - gamma_5 of sigma_1(F_s);
      n > 2: sigma_1(F_s)^2 = lambda_max(F_s^T F_s).  The computed Gram G
             is within gamma_n |F_s|^T |F_s| of it (Higham, Accuracy and
             Stability of Numerical Algorithms, 3.5), so within
             gamma_n ||F_s||_F^2 in the 2-norm.  That is far below 1/4,
             so ||G||_2 = lambda_max(G), and eigvalsh's largest
             eigenvalue l is within _EIG_C n u lambda_max(G) of
             lambda_max(G) (_EIG_C); so sigma_1(F_s)^2 <=
             l / (1 - _EIG_C n u) + gamma_n ||F_s||_F^2.  That sum and its
             root are evaluated within a factor 1 - 3u.
    The result times _SIGMA_SLACK = 1 + 2 gamma_5, rounded, covers either
    evaluation; times 2^e it is the bound, pushed one ulp up where it
    falls below the normal range.  A matrix with a non-finite entry
    gives inf, and so does a bound beyond float range.  The stack goes
    in chunks of about _CHUNK_ENTRIES entries, as in engine._image_bounds.
    """
    n = stack.shape[-1]
    if n == 1:
        f = stack[:, 0, 0]
        return np.where(np.isfinite(f), np.abs(f), np.inf)
    out = np.empty(len(stack))
    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    with np.errstate(over="ignore"):
        for i in range(0, len(stack), chunk):
            big = np.abs(stack[i:i + chunk]).max(axis=(1, 2))
            finite = np.isfinite(big)
            e = np.frexp(big)[1]  # 0 where big is 0, inf or NaN
            fs = np.ldexp(stack[i:i + chunk], -e[:, None, None])
            fs[~finite] = 0.0
            if n == 2:
                a, b, c, d = fs.reshape(-1, 4).T
                s = np.sqrt(np.square(a + d) + np.square(c - b))
                s += np.sqrt(np.square(a - d) + np.square(c + b))
                s *= 0.5 * _SIGMA_SLACK
            else:
                lam = np.linalg.eigvalsh(fs.transpose(0, 2, 1) @ fs)[:, -1]
                s = lam / (1.0 - _EIG_C * n * _UNIT)
                s += np.square(fs).sum(axis=(1, 2)) * _gamma(n)
                np.sqrt(s, out=s)
                s *= _SIGMA_SLACK
            s[~finite] = np.inf
            np.ldexp(s, e, out=out[i:i + chunk])
    low = (out > 0.0) & (out < np.finfo(np.float64).tiny)
    out[low] = np.nextafter(out[low], np.inf)
    return out


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
        return _centre_radius(self.lo, self.hi)[0]

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
        """An upper bound on sup ||E||_2 over the matrix family, at any order.

        min(sigma(U), sigma(C) + sigma(R)), sigma the rounding-covered
        _sigma_max_bound, U = max(|lo|, |hi|) and C +- R the family's
        centre and radius (_centre_radius), the sum pushed one ulp up.
        Every member E has |E| <= U and E = C + D with |D| <= R, so
        ||E||_2 <= ||U||_2 (Perron-Frobenius) and ||E||_2 <= ||C||_2 +
        ||R||_2.  Exact up to sigma's cover on zero-centred families (U is
        a member), point families (R = 0) and families with one nonzero
        cell (a member is +-U); on others an upper bound, as the exact sup
        is NP-hard (Rohn, Linear and Multilinear Algebra 47, 2000).
        """
        n, m = self.shape
        if n != m:
            raise DimensionMismatch("interval 2-norm sup requires a square matrix")
        c, r = _centre_radius(self.lo, self.hi)
        u = np.maximum(np.abs(self.lo), np.abs(self.hi))
        s_u, s_c, s_r = _sigma_max_bound(np.stack((u, c, r)))
        with np.errstate(over="ignore"):
            return float(min(s_u, np.nextafter(s_c + s_r, np.inf)))


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
