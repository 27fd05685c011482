"""Generalized star sets with box predicates (zonotopes) and their operations.

A star <a, G, [lo, hi]> is the set { a + G c : lo <= c <= hi } with anchor
a in R^n, generator matrix G in R^(n x m) and per-coordinate coefficient
bounds.  With box predicates every star is a zonotope, so supports, hulls
and reductions all have closed forms and no linear programming is needed.
No flowpipe runs on them: they are the tests' step-by-step oracle for
engine's recurrence and the benchmark tracer's hooks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionMismatch
from .intervals import Box, IntervalMatrix, _sample

__all__ = [
    "Box",
    "Star",
    "linear_map",
    "minkowski_sum",
    "lambda_box",
    "compact",
    "interval_reduce",
    "zono_reduce",
    "membership_directions",
]


def _vec(x, name: str) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


@dataclass(frozen=True, eq=False)
class Star:
    """Star set { anchor + generators @ c : coeff_lo <= c <= coeff_hi }."""

    anchor: np.ndarray
    generators: np.ndarray
    coeff_lo: np.ndarray
    coeff_hi: np.ndarray

    def __post_init__(self) -> None:
        anchor = _vec(self.anchor, "anchor")
        gens = np.ascontiguousarray(np.asarray(self.generators, dtype=np.float64))
        clo = _vec(self.coeff_lo, "coefficient lower bound")
        chi = _vec(self.coeff_hi, "coefficient upper bound")
        if gens.ndim != 2:
            raise DimensionMismatch("generators must be a (dim, count) matrix")
        if gens.shape[0] != anchor.shape[0]:
            raise DimensionMismatch("generator rows must match anchor length")
        if gens.shape[1] != clo.shape[0] or clo.shape != chi.shape:
            raise DimensionMismatch("coefficient bounds must match generator count")
        if not np.all(np.isfinite(gens)):
            raise ValueError("generators must be finite")
        if np.any(clo > chi):
            raise ValueError("coefficient lower bound exceeds upper bound")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "coeff_lo", clo)
        object.__setattr__(self, "coeff_hi", chi)

    @classmethod
    def from_box(cls, box: Box) -> "Star":
        """Star <0, I, [lo, hi]> with one axis generator per dimension."""
        return cls(np.zeros(box.dim), np.eye(box.dim), box.lo.copy(), box.hi.copy())

    @classmethod
    def point(cls, x) -> "Star":
        x = _vec(x, "point")
        return cls(x, np.zeros((x.shape[0], 0)), np.zeros(0), np.zeros(0))

    @property
    def dim(self) -> int:
        return self.anchor.shape[0]

    @property
    def n_gens(self) -> int:
        return self.generators.shape[1]

    def support(self, direction) -> float:
        """max of direction . x over the star."""
        d = _vec(direction, "direction")
        if d.shape[0] != self.dim:
            raise DimensionMismatch("direction length must match star dimension")
        return float(
            _kernels.support_core(
                self.anchor, self.generators, self.coeff_lo, self.coeff_hi,
                d.reshape(1, -1),
            )[0]
        )

    def support_batch(self, dirs: np.ndarray) -> np.ndarray:
        """Support values for each row of dirs."""
        dirs = np.ascontiguousarray(np.asarray(dirs, dtype=np.float64))
        if dirs.ndim != 2 or dirs.shape[1] != self.dim:
            raise DimensionMismatch("dirs must be (count, dim)")
        return _kernels.support_core(
            self.anchor, self.generators, self.coeff_lo, self.coeff_hi, dirs
        )

    def bounding_box(self) -> Box:
        return Box(*_kernels.box_core(self.anchor, self.generators,
                                      self.coeff_lo, self.coeff_hi))

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """(count, dim) member points from uniform coefficient draws (_sample)."""
        c = _sample(self.coeff_lo, self.coeff_hi, "star", rng, (count, self.n_gens))
        return self.anchor + c @ self.generators.T

    def contains_point(self, x, extra_dirs: int = 100, tol: float = 1e-9) -> bool:
        """Support-inequality membership check (sound for rejection).

        Tests direction . x <= support(direction) over the 2n axis
        directions plus `extra_dirs` fixed-seed random unit directions.
        A False answer proves x is outside; True is a necessary condition.
        """
        x = _vec(x, "point")
        dirs = membership_directions(self.dim, extra_dirs)
        return bool(np.all(dirs @ x <= self.support_batch(dirs) + tol))


@functools.cache
def membership_directions(dim: int, extra: int = 100, seed: int = 20240) -> np.ndarray:
    """2*dim axis directions plus `extra` seeded random unit rows (cached, shared)."""
    eye = np.eye(dim)
    rows = [eye, -eye]
    if extra > 0:
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(extra, dim))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        rows.append(raw / norms)
    return np.ascontiguousarray(np.vstack(rows))


def linear_map(a: np.ndarray, s: Star) -> Star:
    """Image A S = <A a, A G, same coefficient bounds>."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != s.dim:
        raise DimensionMismatch("matrix columns must match star dimension")
    return Star(a @ s.anchor, a @ s.generators, s.coeff_lo, s.coeff_hi)


def minkowski_sum(s1: Star, s2: Star) -> Star:
    """Exact Minkowski sum: anchors add, generator lists concatenate."""
    if s1.dim != s2.dim:
        raise DimensionMismatch("stars must share a dimension")
    return Star(
        s1.anchor + s2.anchor,
        np.hstack((s1.generators, s2.generators)),
        np.concatenate((s1.coeff_lo, s2.coeff_lo)),
        np.concatenate((s1.coeff_hi, s2.coeff_hi)),
    )


def lambda_box(lam: IntervalMatrix, s: Star) -> Star:
    """Box star <0, I, d> covering { E x : E in lam, x in s }.

    d_i is the interval evaluation of lam . anchor plus the coefficient
    intervals times lam . generator, so the result contains every product
    of a member matrix with a member point.
    """
    n, m = lam.shape
    if n != m or m != s.dim:
        raise DimensionMismatch("interval matrix must be square and match the star")
    dlo, dhi = _kernels.lambda_box_core(
        lam.lo, lam.hi, s.anchor, s.generators, s.coeff_lo, s.coeff_hi
    )
    return Star(np.zeros(n), np.eye(n), dlo, dhi)


def compact(s: Star) -> Star:
    """Fold zero-width coefficients into the anchor, dropping their generators."""
    width = s.coeff_hi - s.coeff_lo
    fixed = width == 0.0
    if not np.any(fixed):
        return s
    keep = ~fixed
    anchor = s.anchor + s.generators[:, fixed] @ s.coeff_lo[fixed]
    return Star(anchor, s.generators[:, keep], s.coeff_lo[keep], s.coeff_hi[keep])


def interval_reduce(s: Star) -> Star:
    """Axis-aligned box hull as a star <0, I, d> with exactly dim generators."""
    return Star.from_box(s.bounding_box())


def zono_reduce(s: Star, target_m: int) -> Star:
    """Reduce the generator count to at most target_m, keeping containment.

    Generators are normalized to centered [-1, 1] coefficients, the
    (target_m - dim) largest by Euclidean norm are kept and the rest are
    replaced by the axis-aligned box hull of their interval sum (dim axis
    generators).  Ties keep the lower original index.
    """
    n = s.dim
    if target_m < n:
        raise ValueError(f"target_m={target_m} must be at least the dimension {n}")
    m = s.n_gens
    if m <= target_m:
        return s
    mid = 0.5 * (s.coeff_lo + s.coeff_hi)
    half = 0.5 * (s.coeff_hi - s.coeff_lo)
    anchor = s.anchor + s.generators @ mid
    gens = s.generators * half  # columns scaled to [-1, 1] coefficients
    norms = np.linalg.norm(gens, axis=0)
    order = np.argsort(-norms, kind="stable")
    keep, merge = np.sort(order[: target_m - n]), order[target_m - n:]
    d = np.abs(gens[:, merge]).sum(axis=1)
    out_gens = np.hstack((gens[:, keep], np.diag(d)))
    ones = np.ones(out_gens.shape[1])
    return Star(anchor, out_gens, -ones, ones)
