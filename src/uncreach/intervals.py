"""Boxes and interval matrices, their norms and exponential.

A box or interval matrix [lo, hi] stands for the set of real vectors or
matrices { M : lo <= M <= hi entrywise }, with at least one entry; a bound
may be -inf or inf (an entry an exponential took out of float range), never
NaN.  The classes hold bounds and answer queries; the interval arithmetic,
defined here, is one product, _endpoint_product (interval_expm's series,
engine's symbolic images), outward in exact arithmetic, and one sum,
_add_outward (engine's A (+) Lambda and Lambda's interval cells),
outward in floating point.  The product's rounding is not directed, so
consumers that need slack add it, but _centre_radius, _sigma_max_bound,
_product_error, IntervalMatrix.log_norm_sup and interval_expm's
squarings cover their own.
interval_expm scales and squares, so it is inclusion-isotone only between
families with the same number of squarings; each of its results is an
enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "Box",
    "IntervalMatrix",
    "interval_expm",
]

# Terms of the Taylor series interval_expm sums, after the identity.
_TAYLOR_ORDER = 20

# Entries per chunk of a stack in _sigma_max_bound, of the endpoint
# products in _endpoint_product (so interval_expm and
# engine._padded_image) and of engine's symbolic readers: bounds their
# temporaries whatever the stack length or matrix order.
_CHUNK_ENTRIES = 4096


def _row_chunks(rows: int, per_row: int):
    """Slices of about _CHUNK_ENTRIES // per_row rows each, covering rows.

    A map over ranges rather than a generator: a generator's frame and
    objects (0.5 KB) live as long as the loop, which lifted twocell's
    chunked symbolic support above its whole-grid peak.
    """
    step = max(1, _CHUNK_ENTRIES // max(1, per_row))
    return map(slice, range(0, rows, step), range(step, rows + step, step))


def _frobenius(m: np.ndarray, axis: int | None = None):
    """Root of the sum of squares of m, or of each slice along axis, scaled
    exactly by a power of two (inf only past float range); np.linalg.norm
    sums the squares, so in the normal range the bits are its own."""
    e = np.frexp(np.abs(m).max(axis=axis, keepdims=True))[1]
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(m, -e), axis=axis),
                        e.squeeze(axis))


def _centre_radius(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and radius whose c - r and c + r round to at most lo, at least hi.

    The centre is 0.5 lo + 0.5 hi, which cannot overflow, and a point
    entry's own value.  The radius rounded to nearest can fall short of
    the true distance by half an ulp, so every nonzero radius is pushed
    one ulp outward: then c - r < lo and c + r > hi hold exactly, and
    rounding keeps them as <= and >=.  Point entries keep radius zero,
    and entries with an infinite bound get centre 0 and radius inf, as
    a radius of the float maximum steps to inf, without a warning.
    """
    unbounded = np.isinf(lo) | np.isinf(hi)
    if unbounded.any():
        lo, hi = np.where(unbounded, 0.0, lo), np.where(unbounded, 0.0, hi)
    mid = np.where(lo == hi, lo, 0.5 * lo + 0.5 * hi)
    rad = np.maximum(hi - mid, mid - lo)
    with np.errstate(over="ignore"):
        rad = np.where(rad > 0.0, np.nextafter(rad, np.inf), 0.0)
    rad[unbounded] = np.inf
    return mid, rad


_UNIT = 2.0 ** -53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _product_error(f: np.ndarray, f_err: np.ndarray, x: np.ndarray,
                   x_err: np.ndarray, out: np.ndarray, v_sum: float = 1.0) -> None:
    """Write into out a bound on |F Y - fl(f y)| V for |F - f| <= f_err,
    |y| V <= |x|, |Y - y| V <= x_err and V >= 0 whose columns each sum to
    at most v_sum: for the default, V = I and y = x, a bound on
    |F X - fl(f x)| for |X - x| <= x_err.

    F Y - fl(f y) = (F - f) Y + f (Y - y) + (f y - fl(f y)), and the last
    term is at most gamma_n |f| |y| for inner dimension n (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.5), so the bound is
    |f| (x_err + gamma_n |x|) + f_err (|x| + x_err), Rump's midpoint-radius
    product (BIT 39, 1999), each term of the matrix bound times V.  Its
    own evaluation rounds each entry by at most a factor 1 - gamma_(n+3),
    which the final scaling by 1 + 2 gamma_(n+3) covers.

    That covers rounding but not underflow.  With gradual underflow a
    product is fl(a b) = a b (1 + delta) + eta with |eta| <= 2^-1075, and
    a sum has no eta (Higham, 2.1).  Entry (i, j) misses up to n etas of
    each entry of fl(f y), weighted by V's column j (n v_sum), n of each
    of the bound's two inner products, and |f_ik| eta for each
    gamma_n |x_kj| the bound rounds: 2n + n v_sum + sum_k |f_ik| etas in
    all, grown by at most 1 + gamma_n through the sums.  The term
    (2n + n v_sum + sum_k |f_ik|) 2^-1074 added to row i, 3n + sum_k
    |f_ik| for V = I, is twice that, which covers the growth and the
    term's own rounding.

    Each inner product is one matmul over all columns of x.  A BLAS may
    round a column differently in a product of a chunk of columns
    (OpenBLAS does in a chunk's last tile), so chunks would move the
    bits; the products' operands and results are whole, in out's memory
    order, so that no ufunc buffers a strided operand: the temporaries
    are two out-sized arrays, freed before the underflow term.
    """
    n = f.shape[1]
    af = np.abs(f)
    t = np.abs(x)
    t *= _gamma(n)
    t += x_err
    np.matmul(af, t, out=out)
    np.abs(x, out=t)
    t += x_err
    prod = np.matmul(f_err, t, out=np.empty_like(out))
    del t
    out += prod
    del prod
    out *= 1.0 + 2.0 * _gamma(n + 3)
    out += (af.sum(axis=1, keepdims=True) + (2 * n + n * v_sum)) * 2.0 ** -1074


def _square(a: np.ndarray, a_err: np.ndarray | None):
    """a @ a, and given a_err >= |A - a| a bound on |A A - a @ a|, else None."""
    err = None
    if a_err is not None:
        err = np.empty_like(a_err)
        _product_error(a, a_err, a, a_err, err)
    return a @ a, err


# LAPACK bounds the error of each eigenvalue eigvalsh computes for a
# symmetric A by p(n) u ||A||_2, with p(n) "a modestly growing function
# of n" and no constant given (LAPACK Users' Guide, 3rd ed., 4.7).  We
# take p(n) = _EIG_C n: on 18000 random, orthogonal, rank-one, badly
# scaled and nearly singular Gram matrices of order 3 to 8, and 280 of
# order 9 to 64, the largest eigenvalue was never more than 19 u ||A||_2
# from its 30-digit value, and on 3000 indefinite ones of order 2 to 8
# (random, badly scaled, spread spectra, near -I) never more than 14
# u ||A||_2, 3.2 u ||A||_2 at order 2 (numpy 2.4 with OpenBLAS).
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
    gives inf, and so does a bound beyond float range.  The matrices are
    read in chunks of about _CHUNK_ENTRIES entries (_row_chunks), each
    copied contiguous from the stack, which may be a strided view (as
    engine's flows are); every bound is its own matrix's, whatever the
    chunk.
    """
    n = stack.shape[-1]
    if n == 1:
        f = stack[:, 0, 0]
        return np.where(np.isfinite(f), np.abs(f), np.inf)
    out = np.empty(len(stack))
    with np.errstate(over="ignore"):
        for i in _row_chunks(len(stack), n * n):
            chunk = np.ascontiguousarray(stack[i])
            big = np.abs(chunk).max(axis=(1, 2))
            finite = np.isfinite(big)
            e = np.frexp(big)[1]  # 0 where big is 0, inf or NaN
            fs = np.ldexp(chunk, -e[:, None, None])
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
            np.ldexp(s, e, out=out[i])
    low = (out > 0.0) & (out < np.finfo(np.float64).tiny)
    out[low] = np.nextafter(out[low], np.inf)
    return out


def _check_bounds(obj, what: str, ndim: int) -> None:
    """The bounds rule of Box and IntervalMatrix: store obj.lo and obj.hi as
    contiguous float64 arrays of one nonempty ndim-d shape, else
    DimensionMismatch; a bound may be -inf or inf, and NaN or lo > hi is a
    ValueError."""
    lo = np.ascontiguousarray(np.asarray(obj.lo, dtype=np.float64))
    hi = np.ascontiguousarray(np.asarray(obj.hi, dtype=np.float64))
    if lo.ndim != ndim or lo.shape != hi.shape:
        raise DimensionMismatch(f"{what} bounds must be matching {ndim}-d "
                                f"arrays, got {lo.shape} and {hi.shape}")
    if lo.size == 0:
        raise DimensionMismatch(f"{what} bounds must not be empty, got {lo.shape}")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise ValueError(f"{what} bounds must not be NaN")
    if np.any(lo > hi):
        raise ValueError(f"{what} lower bound exceeds upper bound")
    object.__setattr__(obj, "lo", lo)
    object.__setattr__(obj, "hi", hi)


def _require_finite(obj, message: str) -> None:
    """ValueError(message) unless every bound of a Box or IntervalMatrix is finite."""
    if not (np.all(np.isfinite(obj.lo)) and np.all(np.isfinite(obj.hi))):
        raise ValueError(message)


def _sample(lo, hi, what: str, rng: np.random.Generator, shape) -> np.ndarray:
    """An array of shape of uniform draws from finite bounds [lo, hi]: centre
    + (2u - 1) radius, which cannot overflow, clipped to the bounds."""
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(f"cannot sample an unbounded {what}")
    c, r = _centre_radius(lo, hi)
    return np.clip(c + (2.0 * rng.random(shape) - 1.0) * r, lo, hi)


def _add_outward(a, pert: "IntervalMatrix") -> "IntervalMatrix":
    """A (+) Lambda, the package's one interval sum: [A + lo, A + hi] rounded
    to nearest, each bound that rounded inward (TwoSum's exact error, Knuth,
    TAOCP 2, 4.2.2) or overflowed (a NaN error) pushed one ulp outward, so
    that it contains A + Lambda exactly."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != pert.shape:
        raise DimensionMismatch("matrix and perturbation shapes differ")
    bounds = []
    with np.errstate(over="ignore", invalid="ignore"):
        for b, sign in ((pert.lo, -1.0), (pert.hi, 1.0)):
            s = a + b
            back = s - a
            err = (a - (s - back)) + (b - back)  # a + b = s + err exactly
            bounds.append(np.where(~(sign * err <= 0.0),
                                   np.nextafter(s, sign * np.inf), s))
    return IntervalMatrix(*bounds)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box given by per-axis lower/upper bounds.

    Bounds may be -inf/inf (an unbounded flowpipe step) but not NaN;
    center and radius are _centre_radius's, so center -+ radius covers
    [lo, hi] (centre 0 and radius inf along an axis with an infinite
    bound), and sample refuses a box with any infinite bound.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        _check_bounds(self, "box", 1)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return _centre_radius(self.lo, self.hi)[0]

    @property
    def radius(self) -> np.ndarray:
        return _centre_radius(self.lo, self.hi)[1]

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """(count, dim) array of uniform member points of a bounded box (_sample)."""
        return _sample(self.lo, self.hi, "box", rng, (count, self.dim))

    def max_norm(self) -> float:
        """max ||x||_2 over the box, at a vertex (_frobenius, scaled)."""
        return float(_frobenius(np.maximum(np.abs(self.lo), np.abs(self.hi)), axis=0))


@dataclass(frozen=True, eq=False)
class IntervalMatrix:
    """Entrywise interval matrix given by lower and upper bound arrays.

    The arrays are float64, shape (rows, cols), and are treated as
    immutable after construction.  Bounds follow Box's rule (_check_bounds).
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        _check_bounds(self, "interval matrix", 2)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_point(cls, m: np.ndarray) -> "IntervalMatrix":
        m = np.asarray(m, dtype=np.float64)
        return cls(m.copy(), m.copy())

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntervalMatrix":
        return cls(np.zeros((rows, cols)), np.zeros((rows, cols)))

    # -- basic queries ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.lo.shape

    center = Box.center
    radius = Box.radius
    contains = Box.contains

    def is_point(self) -> bool:
        return bool(np.all(self.lo == self.hi))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly drawn member matrix (_sample)."""
        return _sample(self.lo, self.hi, "interval matrix", rng, self.shape)

    # -- norms --------------------------------------------------------------

    def frobenius_sup(self) -> float:
        """sup of the Frobenius norm over the matrix family, || max(|lo|,
        |hi|) ||_F: the entrywise largest magnitudes are attained
        independently (_frobenius, scaled)."""
        return float(_frobenius(np.maximum(np.abs(self.lo), np.abs(self.hi))))

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

    def log_norm_sup(self) -> float:
        """An upper bound on sup mu(E) = lambda_max((E + E^T) / 2) over the
        family, the logarithmic 2-norm (Soderlind, BIT 46, 2006).

        Rohn's bound (SIAM J. Matrix Anal. Appl. 15, 1994): a member is
        E = C + D, C +- R the family's centre and radius (_centre_radius)
        and |D| <= R, so |sym D| <= sym R and mu(E) <= lambda_max(sym C)
        + ||sym R||_2 (Weyl, then Perron-Frobenius).  It is attained at
        the vertex C + R when sym C is a multiple of I.  In floating
        point, with C scaled by 2^-e to a largest entry magnitude in
        [1/2, 1) (exact but for entries it takes below the normal range,
        each off by at most 2^-1075), T = fl(C_s + C_s^T) is within
        gamma_1 |T| of its exact sum (a sum has no underflow error), so within
        gamma_1 sigma(|T|) + n 2^-1074 of 2^-e (C + C^T) in the 2-norm,
        sigma the rounding-covered _sigma_max_bound; and eigvalsh's largest
        eigenvalue is within _EIG_C n u ||T||_2 <= _EIG_C n u sigma(|T|)
        of lambda_max(T) (_EIG_C).  sym R is formed as 0.5 R + 0.5 R^T
        pushed one ulp up where R or R^T is nonzero, at least sym R.
        Every operation that combines these is pushed one ulp up, so the
        result covers its own rounding; a family with an infinite bound
        gives inf, as its radius does.
        """
        n, m = self.shape
        if n != m:
            raise DimensionMismatch("logarithmic norm requires a square matrix")
        c, r = _centre_radius(self.lo, self.hi)
        e = np.frexp(np.abs(c).max())[1]
        t = np.ldexp(c, -e)
        t = t + t.T
        with np.errstate(over="ignore"):
            sym_r = np.where(np.maximum(r, r.T) > 0.0,
                             np.nextafter(0.5 * r + 0.5 * r.T, np.inf), 0.0)
            s_t, s_r = _sigma_max_bound(np.stack((np.abs(t), sym_r)))
            slack = np.nextafter((_EIG_C * n + 2) * _UNIT * s_t, np.inf)
            lam = np.nextafter(np.linalg.eigvalsh(t)[-1] + slack, np.inf)
            lam = np.nextafter(lam + n * 2.0 ** -1074, np.inf)
            # lam bounds lambda_max(2^-e (C + C^T)); halving it and undoing
            # the scaling is one ldexp, exact but below the normal range
            mu = np.nextafter(np.ldexp(lam, e - 1), np.inf)
            return float(np.nextafter(mu + s_r, np.inf))


def _endpoint_product(alo: np.ndarray, ahi: np.ndarray, blo: np.ndarray,
                      bhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the interval matrix product [alo, ahi] @ [blo, bhi].

    Each scalar product [a,b]*[c,d] is the tight hull of the endpoint
    products ac, ad, bc, bd, in that order; entries are summed exactly
    (up to rounding).  A factor whose bounds are one array (alo is ahi) is
    a point, whose equal products are formed once: a point and an interval
    take two, and two points one, returning one array as both bounds.  A
    repeated product does not change a hull, so the bounds are bitwise
    those of four products on copies.  The rows of a go in chunks of about
    _CHUNK_ENTRIES endpoint products (_row_chunks), each chunk's tensors
    freed before the next; every entry is summed as a whole, so the
    bounds do not depend on the chunking.
    """
    lo = np.empty((alo.shape[0], blo.shape[1]))
    hi = lo if alo is ahi and blo is bhi else np.empty_like(lo)
    for rows in _row_chunks(lo.shape[0], blo.size):
        # (rows, inner, cols) tensors of the endpoint products
        a, b = alo[rows, :, None], ahi[rows, :, None]
        plo = a * blo
        if hi is not lo:
            prods = ((b * blo,) if bhi is blo else (a * bhi,) if ahi is alo
                     else (a * bhi, b * blo, b * bhi))
            phi = plo.copy()
            for pr in prods:
                np.minimum(plo, pr, out=plo)
                np.maximum(phi, pr, out=phi)
            phi.sum(axis=1, out=hi[rows])
            del prods, pr, phi
        plo.sum(axis=1, out=lo[rows])
        del plo
    return lo, hi


# Scaling target of interval_expm: theta = ||M||_F t / 2^s <= 1, where the
# Taylor tail theta^21 / (21! (1 - theta/22)) is below 2.1e-20, so a step's
# error stays at rounding level (unscaled at theta = 8.75, girad1 with
# h = 1.5, it is about 2 per entry, while exp(A h) has none above 0.23).
_SCALED_THETA = 1.0


def interval_expm(lam: IntervalMatrix, t: float) -> IntervalMatrix:
    """Interval matrix containing { expm(M t) : M in lam }.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005):
    theta = frobenius_sup(lam) * t, and s >= 0 the least with
    theta / 2^s <= _SCALED_THETA.  The Taylor series of exp(M t / 2^s)
    through order N = _TAYLOR_ORDER is summed with interval arithmetic,
    and every entry widened by the rigorous tail bound

        r = theta_s^(N+1) / ((N+1)! (1 - theta_s/(N+2))),

    theta_s = theta / 2^s.  Each scalar |R_ij| <= ||R||_2 <= r.  Each
    term is one _endpoint_product, a point family (lo == hi) passing one
    array as both bounds, and its row chunks keep the (rows, n, n)
    temporaries near _CHUNK_ENTRIES entries whatever n.  For s > 0 the
    sum's centre and radius (_centre_radius) are squared s times, the
    rounding of each product covered (_square), and the bounds c -+ r
    pushed one ulp outward where r > 0; s = 0 returns the sum itself.
    The sum's own rounding is not covered, and s squarings amplify it
    up to 2^s times, as they do the radius.  An entry that leaves float
    range is (-inf, inf), and a non-finite theta gives (-inf, inf)
    everywhere; underflow is not covered.  Since s depends on lam, the
    result is inclusion-isotone only between families with the same s.
    t must be finite and nonnegative.  In real arithmetic the result also
    holds the transition matrix over [0, t] of x' = M(s) x for measurable
    M(s) in lam: its Peano-Baker terms lie in the interval powers
    (Althoff, Le Guernic & Krogh, HSCC 2011).
    """
    n, m = lam.shape
    if n != m:
        raise DimensionMismatch("matrix exponential requires a square matrix")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if t < 0:
        raise ValueError("time must be nonnegative")
    theta = lam.frobenius_sup() * t
    if not math.isfinite(theta):
        return IntervalMatrix(np.full((n, n), -np.inf), np.full((n, n), np.inf))
    frac, e = math.frexp(theta / _SCALED_THETA)
    s = max(0, e - (frac == 0.5))  # least s with 2^s >= frac 2^e
    theta = math.ldexp(theta, -s)
    # the series runs on bare bound arrays; t >= 0, 2^-s and 1/k > 0 scale
    # them without swapping, and the result is validated once
    lt_lo = np.ldexp(lam.lo * t, -s)
    lt_hi = lt_lo if lam.is_point() else np.ldexp(lam.hi * t, -s)
    acc_lo = np.eye(n)
    acc_hi = acc_lo if lt_hi is lt_lo else np.eye(n)
    term_lo = term_hi = np.eye(n)
    for k in range(1, _TAYLOR_ORDER + 1):
        term_lo, term_hi = _endpoint_product(term_lo, term_hi, lt_lo, lt_hi)
        term_lo *= 1.0 / k
        acc_lo += term_lo
        if term_hi is not term_lo:
            term_hi *= 1.0 / k
            acc_hi += term_hi
    tail = theta ** (_TAYLOR_ORDER + 1) / (
        math.factorial(_TAYLOR_ORDER + 1) * (1.0 - theta / (_TAYLOR_ORDER + 2)))
    lo, hi = acc_lo - tail, acc_hi + tail
    if s:
        with np.errstate(over="ignore", invalid="ignore"):
            c, r = _centre_radius(lo, hi)
            for _ in range(s):
                c, r = _square(c, r)
            wide = r > 0.0
            lo = np.where(wide, np.nextafter(c - r, -np.inf), c)
            hi = np.where(wide, np.nextafter(c + r, np.inf), c)
        out = ~(np.isfinite(c) & np.isfinite(r))
        lo[out], hi[out] = -np.inf, np.inf
    return IntervalMatrix(lo, hi)
