"""Closed-form bounds on the deviation of a perturbed exponential.

For dynamics matrix A and interval perturbation family Lambda, two kinds
of bound are implemented.  kagstrom1 and kagstrom2 bound the relative
deviation, the bloating factor

    phi(t) = sup_{E in Lambda} ||exp((A+E)t) - exp(At)|| / ||exp(At)||;

loan bounds the absolute deviation

    psi(t) = sup_{E in Lambda} ||exp((A+E)t) - exp(At)||,

which needs no bound on ||exp(At)|| from below (BloatSeries.relative
tells the two apart).  Each dominates its deviation whenever the norm
argument dominates sup ||E||_2 over Lambda, and bloat_series fills them
with the interval 2-norm sup, IntervalMatrix.two_norm_sup.  Each bound is
nondecreasing in that argument and two_norm_sup <= frobenius_sup, so the
Frobenius sup, though also valid, never gives a smaller bound.  Each
bound takes t as a float or as a time array; a value beyond float range
saturates to inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .intervals import _UNIT, IntervalMatrix, _frobenius, _sigma_max_bound

__all__ = [
    "p_poly",
    "kagstrom1",
    "kagstrom2",
    "loan",
    "BloatSeries",
    "bloat_series",
    "BLOAT_METHODS",
]

# Largest eigenvector condition number kagstrom2 takes as finite.
_COND_MAX = 1e8


def _finite_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    return a


def p_poly(n: int, x):
    """Truncated exponential sum p_{n-1}(x) = sum_{k=0}^{n-1} x^k / k!.

    x may be a float or an array, evaluated elementwise.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    acc = 1.0
    term = 1.0
    for k in range(1, n):
        term = term * (x / k)
        acc = acc + term
    return acc


def _check_args(lambda_norm: float, t) -> np.ndarray:
    if lambda_norm < 0:
        raise ValueError("perturbation norm must be nonnegative")
    t = np.asarray(t, dtype=np.float64)
    if not np.all(t >= 0):
        raise ValueError("time must be nonnegative")
    return t


def _evaluate(formula, lambda_norm: float, t: np.ndarray):
    """formula(t) elementwise, zero where lambda_norm or t is zero.

    The closed forms are upper bounds, so a value beyond float range
    saturates to inf and stays sound; no overflow warning is raised.  A
    0-d t gives a float, any other t an array.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phi = formula(t)
    phi = np.where((t == 0) | (lambda_norm == 0), 0.0, phi)
    return float(phi) if phi.ndim == 0 else phi


def kagstrom1(a, lambda_norm: float, t):
    """Power-series bound p(x)(exp(p(x) ||Lambda|| t) - 1), x = ||A||_F t.

    The bound is stated for x = ||N||_2 t, N the nilpotent part of the
    Schur form A = Q (D + N) Q*.  ||A||_F >= ||N||_F >= ||N||_2 (Q is
    unitary and N the strict upper triangle of D + N), so the Frobenius
    norm of A dominates it without a Schur form; ||A||_2 does not.
    ||A||_F is evaluated scaled (_frobenius), so it overflows only when
    it exceeds float range.
    """
    a = _finite_square(a)
    t = _check_args(lambda_norm, t)
    norm_a = float(_frobenius(a))
    n = a.shape[0]

    def formula(t):
        p = p_poly(n, norm_a * t)
        return p * np.expm1(p * lambda_norm * t)

    return _evaluate(formula, lambda_norm, t)


def kagstrom2(a, lambda_norm: float, t):
    """Eigenbasis bound K e^(eps t)(e^(K ||Lambda|| t) - 1).

    K is the condition number of the eigenvector matrix and eps the
    largest eigenvalue modulus.  A defective matrix has no eigenbasis, so
    K is infinite; a singular computed eigenbasis, or one whose condition
    exceeds _COND_MAX, is taken as defective.  The bound is then inf for
    t > 0 (not proven safe), and 0 at t = 0 or for a zero perturbation.
    """
    t = _check_args(lambda_norm, t)
    eigvals, eigvecs = np.linalg.eig(_finite_square(a))
    eps = float(np.max(np.abs(eigvals)))
    sv = np.linalg.svd(eigvecs, compute_uv=False)
    k = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if not k <= _COND_MAX:
        k = math.inf
    return _evaluate(
        lambda t: k * np.exp(eps * t) * np.expm1(k * lambda_norm * t),
        lambda_norm, t)


def loan(a, lambda_norm: float, t):
    """Van Loan's absolute bound t ||Lambda|| exp((||A||_2 + ||Lambda||) t).

    It bounds ||exp((A+E)t) - exp(At)||_2 for ||E||_2 <= ||Lambda|| = L
    (Van Loan, SIAM J. Numer. Anal. 14, 1977; Higham, Functions of
    Matrices, SIAM 2008, ch. 10), so no eigenvalue of A enters; ||A||_2 is
    _sigma_max_bound's, rounding-covered.  The evaluation
    psi = fl(fl(L E) t), E = np.exp(x), x = fl(fl(||A||_2 + L) t), is
    covered by one factor 1 + (2 x + 8) u and one term (t + 2) 2^-1074:
      - the rate and x lose at most a factor (1 + u)^2, so the exact
        exponent exceeds x by at most (2u + u^2) x, a factor below
        1 + 2 x u (1 + 1500 u) while E is finite (x < 710);
      - np.exp is taken within 1 ulp of exp, a factor 1 - 2u: numpy's
        SIMD loops use Tang's table-driven method, analysed to within
        0.54 ulp, and glibc's exp is within 1 ulp (the largest error on
        27000 arguments in [0, 709.8] was 0.67 ulp against 40-digit
        mpmath, numpy 2.4 with AVX-512);
      - the two products, the factor's product and the term's sum lose
        (1 - u)^4.
    The factor rounded to nearest is at least 1 + (2 x + 7) u, which
    covers the 2 x u + 6 u above and their second-order terms.  With
    gradual underflow each of the three products can also lose up to
    2^-1075 (Higham, Accuracy and Stability, 2.1), the first one scaled
    by t: (t + 2) 2^-1075 in all, which the term as rounded covers.  As
    E > 1/2, L E is never 0, so an overflowing E gives inf, not NaN.
    """
    t = _check_args(lambda_norm, t)
    rate = float(_sigma_max_bound(_finite_square(a)[None])[0]) + lambda_norm

    def formula(t):
        x = rate * t
        return (lambda_norm * np.exp(x) * t * (1.0 + (2.0 * x + 8.0) * _UNIT)
                + (t + 2.0) * 2.0 ** -1074)

    return _evaluate(formula, lambda_norm, t)


_BOUNDS = {"kagstrom1": kagstrom1, "kagstrom2": kagstrom2, "loan": loan}
BLOAT_METHODS = tuple(_BOUNDS)
# the methods whose values bound the relative deviation; loan's bound the
# absolute one
_RELATIVE = ("kagstrom1", "kagstrom2")


@dataclass(frozen=True, eq=False)
class BloatSeries:
    """One method's bound on a time grid; lambda_norm is the interval
    2-norm sup of the perturbation family.

    relative, fixed by the method, says what phi bounds: the relative
    deviation ||exp((A+E)t) - exp(At)|| / ||exp(At)|| (kagstrom1,
    kagstrom2), or else the absolute deviation ||exp((A+E)t) - exp(At)||
    (loan).
    """

    method: str
    lambda_norm: float
    times: np.ndarray
    phi: np.ndarray
    relative: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "relative", self.method in _RELATIVE)


def bloat_series(a, lam: IntervalMatrix, times, method: str) -> BloatSeries:
    """Evaluate one bound over an ascending time grid.

    The interval 2-norm sup is computed once and the closed form is
    evaluated over the whole grid at once.  Values are nondecreasing in t
    and saturate at inf.
    """
    a = _finite_square(a)
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError("times must be a 1-d grid")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be nonnegative and ascending")
    if lam.shape != a.shape:
        raise DimensionMismatch("perturbation family must match the matrix shape")
    if method not in BLOAT_METHODS:  # a tuple: an unhashable method is unknown too
        raise ValueError(f"unknown bloat method {method!r}")
    lambda_norm = lam.two_norm_sup()
    return BloatSeries(method=method, lambda_norm=lambda_norm, times=times,
                       phi=_BOUNDS[method](a, lambda_norm, times))
