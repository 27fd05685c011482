"""Closed-form bounds on the relative deviation of a perturbed exponential.

For dynamics matrix A and interval perturbation family Lambda, the bloating
factor at time t is

    phi(t) = sup_{E in Lambda} ||exp((A+E)t) - exp(At)|| / ||exp(At)||.

The three bounds implemented here dominate phi(t) whenever the norm
argument dominates sup ||E||, so instantiating them with the interval
2-norm sup gives a valid 2-norm bound and with the Frobenius sup a valid
(larger) Frobenius bound.  Each bound takes t as a float or as a time
array; a value beyond float range saturates to inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DefectiveMatrix, DimensionMismatch
from .intervals import IntervalMatrix, _frobenius

__all__ = [
    "SpectralData",
    "spectral_data",
    "p_poly",
    "kagstrom1",
    "kagstrom2",
    "loan",
    "bloat_factor",
    "BloatSeries",
    "bloat_series",
    "interval_norm",
    "BLOAT_METHODS",
    "NORM_KINDS",
]

NORM_KINDS = ("two", "frobenius")

# Largest eigenvector condition number kagstrom2 accepts.
_COND_MAX = 1e8


@dataclass(frozen=True)
class SpectralData:
    """Spectral quantities of a point matrix used by the bounds.

    two_norm : spectral norm ||A||_2
    alpha    : spectral abscissa, max real part of the eigenvalues
    eps      : largest eigenvalue modulus
    cond_s   : 2-norm condition number of the eigenvector matrix
               (inf when numerically defective)
    """

    two_norm: float
    alpha: float
    eps: float
    cond_s: float


def _square(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    return a


def spectral_data(a) -> SpectralData:
    a = _square(a)
    two_norm = float(np.linalg.norm(a, 2))
    eigvals, eigvecs = np.linalg.eig(a)
    alpha = float(np.max(eigvals.real))
    eps = float(np.max(np.abs(eigvals)))
    sv = np.linalg.svd(eigvecs, compute_uv=False)
    cond_s = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    return SpectralData(two_norm=two_norm, alpha=alpha, eps=eps, cond_s=cond_s)


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
    a = _square(a)
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
    largest eigenvalue modulus.  Raises DefectiveMatrix when the
    eigenbasis is numerically unusable (cond above _COND_MAX).
    """
    t = _check_args(lambda_norm, t)
    sd = spectral_data(a)
    if not math.isfinite(sd.cond_s) or sd.cond_s > _COND_MAX:
        raise DefectiveMatrix(
            f"kagstrom2 bound unusable: eigenvector condition {sd.cond_s:.3g} "
            f"exceeds {_COND_MAX:.3g}"
        )
    k = sd.cond_s
    return _evaluate(
        lambda t: k * np.exp(sd.eps * t) * np.expm1(k * lambda_norm * t),
        lambda_norm, t)


def loan(a, lambda_norm: float, t):
    """Log-norm style bound t ||Lambda|| exp((||A||_2 - alpha + ||Lambda||) t)."""
    t = _check_args(lambda_norm, t)
    sd = spectral_data(a)
    rate = sd.two_norm - sd.alpha + lambda_norm
    return _evaluate(lambda t: t * lambda_norm * np.exp(rate * t),
                     lambda_norm, t)


_BOUNDS = {"kagstrom1": kagstrom1, "kagstrom2": kagstrom2, "loan": loan}
BLOAT_METHODS = tuple(_BOUNDS)


def bloat_factor(a, lambda_norm: float, t, method: str):
    """phi of one method at a float t (a float) or a time array (an array)."""
    if method not in BLOAT_METHODS:  # a tuple: an unhashable method is unknown too
        raise ValueError(f"unknown bloat method {method!r}")
    return _BOUNDS[method](a, lambda_norm, t)


def interval_norm(lam: IntervalMatrix, kind: str) -> float:
    """The interval norm sup that instantiates the bounds: frobenius_sup
    (exact) or two_norm_sup (an upper bound, exact on zero-centred ones)."""
    if kind == "two":
        return lam.two_norm_sup()
    if kind == "frobenius":
        return lam.frobenius_sup()
    raise ValueError(f"unknown norm kind {kind!r}")


@dataclass(frozen=True, eq=False)
class BloatSeries:
    """Bloating factors phi(t) on a time grid for one method and norm."""

    method: str
    norm_kind: str
    lambda_norm: float
    times: np.ndarray
    phi: np.ndarray


def bloat_series(a, lam: IntervalMatrix, times, method: str,
                 norm_kind: str = "two") -> BloatSeries:
    """Evaluate one bound over an ascending time grid.

    The interval norm is computed once and the closed form is evaluated
    over the whole grid at once.  Values are nondecreasing in t and
    saturate at inf.
    """
    a = _square(a)
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError("times must be a 1-d grid")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be nonnegative and ascending")
    if lam.shape != a.shape:
        raise DimensionMismatch("perturbation family must match the matrix shape")
    lambda_norm = interval_norm(lam, norm_kind)
    phi = bloat_factor(a, lambda_norm, times, method)
    return BloatSeries(method=method, norm_kind=norm_kind,
                       lambda_norm=lambda_norm, times=times, phi=phi)
