"""Reachability pipelines for linear systems with interval uncertainty.

Numeric route: discretize to a point matrix Abar plus interval remainder
Lbar, enclose Abar + Lbar in P +- Lr with P = Abar + Lm (Lm the midpoint
of Lbar), then iterate the star recurrence

    R_0 = Theta,    R_k = P R_{k-1}  (+)  box([-Lr, Lr] R_{k-1}),

whose k-th set contains x_k = (Abar + E)^k x_0 for every fixed E in Lbar
and x_0 in Theta.  Each set is a centred zonotope whose centre and
generators P^a e_i follow the point map, the generators scaled by a
history of radii: a table of |P^a| rows, built once per flowpipe, maps
that history to boxes, supports and fresh radii, and a few batched
products advance it by a chunk of steps (see _run_recurrence).  Symbolic
route: the nominal flow exp(At) Theta padded by a bloating radius from a
closed-form bound, for the whole time grid at once (see symbolic_reach).
"""

from __future__ import annotations

import math
import time
import types
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import bounds as _bounds
from ._expm import expm
from .errors import DimensionMismatch
from .intervals import IntervalMatrix, interval_expm
from .stars import Box, Star, zono_reduce

# Both expm calls go through this namespace because the benchmark's tracer
# (perfbench/spans.py) times `engine.scipy.linalg.expm` as `engine.expm`.
# The next benchmark change should wrap `engine.expm` directly and delete
# this shim; scipy itself is not imported.
scipy = types.SimpleNamespace(linalg=types.SimpleNamespace(expm=expm))

__all__ = [
    "CellUncertainty",
    "HalfSpace",
    "ModelSpec",
    "ReachResult",
    "SafetyVerdict",
    "discretize",
    "ors_reach",
    "nominal_reach",
    "symbolic_reach",
    "reach_with_perturbation",
    "safety_check",
    "REDUCTION_METHODS",
]

REDUCTION_METHODS = ("none", "interval", "zonotope")

# Entries per chunk of a stack in _sigma_max_bound and _image_bounds: bounds
# their temporaries whatever the stack length.
_CHUNK_ENTRIES = 4096


@dataclass(frozen=True)
class CellUncertainty:
    """Uncertainty of one dynamics-matrix entry.

    Exactly one of `relative` (symmetric fraction of the entry magnitude)
    or `interval` (explicit entry range) must be given.
    """

    row: int
    col: int
    relative: float | None = None
    interval: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if (self.relative is None) == (self.interval is None):
            raise ValueError("give exactly one of relative or interval")
        if self.relative is not None:
            if not math.isfinite(self.relative) or self.relative < 0:
                raise ValueError("relative fraction must be finite and nonnegative")
        else:
            lo, hi = self.interval
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("interval endpoints must be finite")
            if lo > hi:
                raise ValueError("interval lower endpoint exceeds upper")
            object.__setattr__(self, "interval", (float(lo), float(hi)))


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """Unsafe half-space { x : normal . x >= offset }."""

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        normal = np.asarray(self.normal, dtype=np.float64)
        if normal.ndim != 1 or not np.all(np.isfinite(normal)):
            raise ValueError("normal must be a finite vector")
        if not np.any(normal):
            raise ValueError("normal must be nonzero")
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A linear model with interval uncertainty, initial box and unsafe sets."""

    name: str
    a: np.ndarray
    uncertainty: tuple[CellUncertainty, ...]
    initial: Box
    horizon: int
    continuous: bool = True
    step: float | None = None
    unsafe: tuple[HalfSpace, ...] = ()
    reduction_method: str = "none"
    reduction_period: int = 500

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("dynamics matrix must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("dynamics matrix must be finite")
        n = a.shape[0]
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "uncertainty", tuple(self.uncertainty))
        object.__setattr__(self, "unsafe", tuple(self.unsafe))
        if self.initial.dim != n:
            raise DimensionMismatch("initial box dimension must match the matrix")
        _require_finite(self.initial)
        listed = set()
        for cell in self.uncertainty:
            if not (0 <= cell.row < n and 0 <= cell.col < n):
                raise ValueError(f"uncertainty cell ({cell.row},{cell.col}) out of range")
            if (cell.row, cell.col) in listed:
                raise ValueError(f"uncertainty cell ({cell.row},{cell.col}) listed twice")
            listed.add((cell.row, cell.col))
        for hs in self.unsafe:
            if hs.normal.shape[0] != n:
                raise DimensionMismatch("half-space normal must match the dimension")
        for key in ("horizon", "reduction_period"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            object.__setattr__(self, key, int(value))
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.continuous:
            if self.step is None or not (self.step > 0) or not math.isfinite(self.step):
                raise ValueError("continuous models need a positive step")
        if self.reduction_method not in REDUCTION_METHODS:
            raise ValueError(f"unknown reduction method {self.reduction_method!r}")
        if self.reduction_period < 1:
            raise ValueError("reduction period must be positive")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def lambda_u(self) -> IntervalMatrix:
        """Uncertain dynamics family: point A with the listed cells widened."""
        lo = self.a.copy()
        hi = self.a.copy()
        for cell in self.uncertainty:
            if cell.relative is not None:
                r = cell.relative * abs(self.a[cell.row, cell.col])
                lo[cell.row, cell.col] = self.a[cell.row, cell.col] - r
                hi[cell.row, cell.col] = self.a[cell.row, cell.col] + r
            else:
                lo[cell.row, cell.col], hi[cell.row, cell.col] = cell.interval
        return IntervalMatrix(lo, hi)

    def perturbation(self) -> IntervalMatrix:
        """Perturbation part Lambda = lambda_u - A (zero outside listed cells)."""
        return self.lambda_u().sub_point(self.a)

    def times(self) -> np.ndarray:
        """Time grid 0, h, ..., horizon*h (continuous models)."""
        if not self.continuous:
            raise ValueError("time grid is only defined for continuous models")
        return np.arange(self.horizon + 1) * self.step


@dataclass(eq=False)
class ReachResult:
    """Per-step flowpipe data from either pipeline.

    labels   : step indices (numeric) or times (symbolic)
    lo, hi   : (steps, dim) bounding-box bounds per step, radius applied
    radii    : bloating radius per step (zero on the numeric route; inf
               where a symbolic bound overflows, with lo/hi -inf/inf)
    normals  : (k, dim) directions whose supports the numeric recurrence
               recorded (the model's unsafe normals), or None
    supports : (steps, k) support values in those directions, or None
    flows    : symbolic route: (steps, dim, dim) stack of exp(A t), so the
               nominal set at step k is flows[k] @ initial; else None
    flow_pad : symbolic route: (steps, dim) pad E_k max(|initial.lo|,
               |initial.hi|), E_k an entrywise bound on |exp(A t_k) -
               flows[k]|, by which the nominal box widens (the radius then
               bounds ||exp(A t_k)||_2 by an upper bound on
               sigma_max(flows[k]) plus the entry sum of E_k); else None
    initial  : symbolic route: the initial box Theta; else None
    _recurrence : numeric route: the O(n^2) inputs of the recurrence, which
               `support` replays in directions it did not record; else None
    """

    kind: str
    method: str
    labels: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    radii: np.ndarray
    gen_counts: np.ndarray
    normals: np.ndarray | None = None
    supports: np.ndarray | None = None
    flows: np.ndarray | None = None
    flow_pad: np.ndarray | None = None
    initial: Box | None = None
    wall_time: float = 0.0
    phi: np.ndarray | None = None
    _recurrence: tuple | None = field(default=None, repr=False)

    @cached_property
    def boxes(self) -> list[Box]:
        """Bounding box per step, built from lo/hi on first access."""
        return [Box(lo, hi) for lo, hi in zip(self.lo, self.hi)]

    def __len__(self) -> int:
        return len(self.labels)

    def support(self, dirs) -> np.ndarray:
        """(steps, k) supports of the flowpipe in the k rows of dirs.

        Recorded directions are read from `supports`.  A symbolic result
        gives the support of each flow E Theta, max over the endpoint
        products of (d E)_j with lo_j and hi_j, plus flow_pad @ |d|, plus
        radius * ||d||_2 (inf where the radius is).
        Other directions of a numeric result replay its recurrence once
        with exactly `dirs` as normals: one more pass in O(steps (n + k))
        memory, the same boxes.
        """
        dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        if dirs.ndim != 2 or dirs.shape[1] != self.lo.shape[1]:
            raise DimensionMismatch("directions must match the flowpipe")
        if self.normals is not None:
            match = np.all(dirs[:, None, :] == self.normals[None, :, :], axis=2)
            if np.all(match.any(axis=1)):
                return self.supports[:, np.argmax(match, axis=1)]
        if self.flows is None:
            return _run_recurrence(*self._recurrence, self.method, dirs).supports
        with np.errstate(over="ignore", invalid="ignore"):
            sups = _image_bounds(dirs @ self.flows, self.initial)[1]
            sups += self.flow_pad @ np.abs(dirs).T
            sups += np.multiply.outer(self.radii, np.linalg.norm(dirs, axis=1))
        sups[np.isinf(self.radii)] = np.inf
        return sups


@dataclass(frozen=True)
class SafetyVerdict:
    """Outcome of checking a flowpipe against unsafe half-spaces."""

    safe: bool
    step: int | None = None
    halfspace: int | None = None
    support: float | None = None


def discretize(a, pert: IntervalMatrix, h: float) -> tuple[np.ndarray, IntervalMatrix]:
    """Split exp((A+Lambda) h) into a point matrix and interval remainder.

    Returns (Abar, Lbar) with Abar = expm(A h) and Lbar = M - Abar
    entrywise, M the interval exponential of A + Lambda.  The one-step map
    of every member system lies in Abar + Lbar; the nominal part stays a
    point so all conservatism sits in Lbar.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != pert.shape:
        raise DimensionMismatch("matrix and perturbation shapes differ")
    if not (h > 0) or not math.isfinite(h):
        raise ValueError("step must be positive")
    m = interval_expm(IntervalMatrix.from_point(a) + pert, h)
    abar = scipy.linalg.expm(a * h)
    return abar, m.sub_point(abar)


def _centre_radius(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and radius whose c - r and c + r round to at most lo, at least hi.

    The radius rounded to nearest can fall short of the true distance by
    half an ulp, so every nonzero radius is pushed one ulp outward: then
    c - r < lo and c + r > hi hold exactly, and rounding keeps them as
    <= and >=.  Point entries keep radius zero.
    """
    mid = 0.5 * (lo + hi)
    rad = np.maximum(hi - mid, mid - lo)
    return mid, np.where(rad > 0.0, np.nextafter(rad, np.inf), 0.0)


_UNIT = 2.0 ** -53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _product_error(f: np.ndarray, f_err: np.ndarray, x: np.ndarray,
                   x_err: np.ndarray, out: np.ndarray) -> None:
    """Write into out a bound on |F X - fl(f x)| for |F - f| <= f_err, |X - x| <= x_err.

    F X - fl(f x) = (F - f) X + f (X - x) + (f x - fl(f x)), and the last
    term is at most gamma_n |f| |x| for inner dimension n (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.5), so the bound is
    |f| (x_err + gamma_n |x|) + f_err (|x| + x_err).  Its own evaluation
    rounds each entry by at most a factor 1 - gamma_(n+3), which the
    final scaling by 1 + 2 gamma_(n+3) covers.
    """
    n = f.shape[1]
    ax = np.abs(x)
    tmp = ax * _gamma(n)
    tmp += x_err
    np.matmul(np.abs(f), tmp, out=out)
    ax += x_err
    out += np.matmul(f_err, ax, out=tmp)
    out *= 1.0 + 2.0 * _gamma(n + 3)


# LAPACK bounds the error of each eigenvalue eigvalsh computes for a
# symmetric A by p(n) u ||A||_2, with p(n) "a modestly growing function
# of n" and no constant given (LAPACK Users' Guide, 3rd ed., 4.7).  We
# take p(n) = _EIG_C n, at least 48 for the orders n >= 3 that use it:
# on 18000 random, orthogonal, rank-one, badly scaled and nearly
# singular Gram matrices of order 3 to 8, the largest eigenvalue was
# never more than 15 u ||A||_2 from its 30-digit value (numpy 2.4 with
# OpenBLAS).
_EIG_C = 16
# Covers the roundings of each sigma_max evaluation (see _sigma_max_bound).
_SIGMA_SLACK = 1.0 + 2.0 * _gamma(5)


def _sigma_max_bound(flows: np.ndarray) -> np.ndarray:
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
    in chunks of about _CHUNK_ENTRIES entries, as in _image_bounds.
    """
    n = flows.shape[-1]
    if n == 1:
        f = flows[:, 0, 0]
        return np.where(np.isfinite(f), np.abs(f), np.inf)
    out = np.empty(len(flows))
    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    with np.errstate(over="ignore"):
        for i in range(0, len(flows), chunk):
            big = np.abs(flows[i:i + chunk]).max(axis=(1, 2))
            finite = np.isfinite(big)
            e = np.frexp(big)[1]  # 0 where big is 0, inf or NaN
            fs = np.ldexp(flows[i:i + chunk], -e[:, None, None])
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


def _square(a: np.ndarray, a_err: np.ndarray | None):
    """a @ a, and given a_err >= |A - a| a bound on |A A - a @ a|, else None."""
    err = None
    if a_err is not None:
        err = np.empty_like(a_err)
        _product_error(a, a_err, a, a_err, err)
    return a @ a, err


def _orbit(a: np.ndarray, x0: np.ndarray, count: int,
           a_err: np.ndarray | None = None):
    """a^0 x0, a^1 x0, ..., a^(count-1) x0 side by side, by doubling.

    For x0 of shape (n, w) the result is (n, count * w).  Given a_err, a
    bound on |A - a|, it returns (powers, errors): block k of errors
    bounds |A^k x0 - block k of powers|, each doubled product and each
    squaring carrying its error by _product_error (x0 is exact).
    """
    w = x0.shape[1]
    out = np.empty((x0.shape[0], count * w))
    out[:, :w] = x0
    errs = None if a_err is None else np.zeros_like(out)
    done, step, step_err = 1, a, a_err  # step = a^done, within step_err
    while done < count:
        take = min(done, count - done)
        src, dst = slice(0, take * w), slice(done * w, (done + take) * w)
        np.matmul(step, out[:, src], out=out[:, dst])
        if errs is not None:
            _product_error(step, step_err, out[:, src], errs[:, src], errs[:, dst])
        done += take
        if done < count:
            step, step_err = _square(step, step_err)
    return out if errs is None else (out, errs)


def _chunk_steps(n: int) -> int:
    """Steps one chunk of the recurrence advances: about 64 radii."""
    return max(1, 64 // n)


def _split(abar: np.ndarray, lbar: IntervalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Point map P and radius Lr with Abar + Lbar inside P +- Lr exactly.

    P is Abar + Lm rounded, Lm +- Lr the outward split of Lbar; where the
    exact rounding error e of P (TwoSum) is nonzero, Lr grows to Lr + |e|
    pushed one ulp outward.
    """
    lm, lr = _centre_radius(lbar.lo, lbar.hi)
    p = abar + lm
    back = p - abar
    err = np.abs((abar - (p - back)) + (lm - back))
    return p, np.where(err > 0.0, np.nextafter(lr + err, np.inf), lr)


def _inchunk_table(table: np.ndarray, lr: np.ndarray, n: int, chunk: int) -> np.ndarray:
    """Blocks W_d Lr, W_d = sum_{a+b=d} T_a V_b, for d < chunk - 1.

    T_a is the table block of age a and V_b the first block column of
    (I - K)^-1, the in-chunk coupling of fresh blocks inverted: V_0 = I,
    V_b = sum_{s<b} Lr T_{b-1-s}[:n] V_s = Lr W_{b-1}[:n].  So a chunk
    whose known history gives |c| + q[:n] = v_0, v_1, ... gets
    sum_{s<m} W_{m-1-s} Lr v_s from its own blocks at its step m.  One
    product per block; every entry is a sum of nonnegative products.
    """
    cols = (chunk - 1) * n
    w = (table[:, :cols].reshape(-1, n) @ lr).reshape(len(table), cols)
    v = np.empty((cols, n))  # V_b Lr at rows cols - b n, youngest first
    for d in range(chunk - 1):
        if d:
            w[:, d * n:(d + 1) * n] += table[:, :d * n] @ v[cols - d * n:]
        v[cols - (d + 1) * n:cols - d * n] = lr @ w[:n, d * n:(d + 1) * n]
    return w


def _run_recurrence(abar: np.ndarray, lbar: IntervalMatrix, theta: Box,
                    horizon: int, reduction_method: str,
                    reduction_period: int, method_name: str,
                    normals: np.ndarray) -> ReachResult:
    """Run the recurrence on centred zonotopes (Girard, HSCC 2005).

    Abar + Lbar is enclosed in P +- Lr (_split), Theta split into
    c_0 +- r_0.  Each set is a centre c plus generators P^a e_i r_i with
    coefficients in [-1, 1], one block of radii r per age a, so the fresh
    block box([-Lr, Lr] R) (Althoff, Stursberg & Buss, CDC 2007) has
    radius Lr (|c| + sum |g|) over the generators g, and the next centre
    is P c: a point orbit computed up front, which reductions never move.

    Once per flowpipe, `table` stacks for each age a, youngest first, the
    blocks T_a of rows |P^a| and |N P^a| (N the `normals`).  The radius
    history h lives in one flat buffer, youngest block first, written at
    a decreasing offset.  At step j the row q_j = sum_a T_a h_{j-a} gives
    the box c_j +- q_j[:n], the supports N c_j + q_j[n:] and the next
    fresh block h_{j+1} = Lr (|c_j| + q_j[:n]).

    Between two reductions the steps advance in chunks of _chunk_steps(n)
    steps.  Within a chunk the fresh blocks obey the linear recurrence
    h_{j+1} = Lr (|c_j| + sum_a |P^a| h_{j-a}), so a chunk from step t0
    on takes three batched operations instead of a product per step:
    1. q from the history known before the chunk, h_t0 back to the
       oldest block, times read-only sliding windows of the table: one
       window per step, starting at the age h_t0 has at that step;
    2. q from the chunk's own blocks, (I - K)^-1 Lr v for v = |c| + q[:n]
       from step 1 and the in-chunk coupling K: windows of v times the
       table of _inchunk_table, which folds in (I - K)^-1 Lr;
    3. the chunk's fresh blocks Lr (|c| + q[:n]), into the buffer.
    Every radius stays a sum of nonnegative products.  No chunk crosses
    a reduction step.  There an interval reduction resets the history to
    the hull radius sum_a |P^a| h_{j-a} at age 0, and a zonotope
    reduction (stars.zono_reduce) turns every live generator into a
    carried block C whose rows at each later age, P^a C and N P^a C,
    come from one stacked product; their absolute row sums are added to
    q, and the history restarts from a zero block.

    Generator counts follow the Star operations: n for Theta and for a
    hull, then the nonzero fresh radii, and at most 2n after a zonotope
    reduction.  Inputs and the flowpipe are each validated once.
    """
    start = time.perf_counter()
    n = theta.dim
    abar = np.ascontiguousarray(abar, dtype=np.float64)
    if abar.shape != (n, n) or lbar.shape != (n, n):
        raise DimensionMismatch("matrices must be square and match the box")
    if not np.all(np.isfinite(abar)):
        raise ValueError("discrete dynamics matrix must be finite")
    _require_finite(theta)
    p, lr = _split(abar, lbar)
    c0, r0 = _centre_radius(theta.lo, theta.hi)
    zonotope = reduction_method == "zonotope"
    period = reduction_period if reduction_method != "none" else horizon + 1
    # a reduction leaves one block in the history: the hull, or zero
    span = min(horizon, period)
    chunk = min(_chunk_steps(n), span + 1)
    powers = _orbit(p, np.eye(n), span + 1)
    # rows |P^a| and |N P^a| per age a, then chunk - 1 zero blocks, so
    # every window of span + 1 ages below starts in the table
    width = (span + 1) * n
    table = np.zeros((n + normals.shape[0], width + (chunk - 1) * n))
    table[:n, :width] = powers
    np.matmul(normals, powers, out=table[n:, :width])
    signed = table[:, :width].copy() if zonotope else None
    np.abs(table, out=table)
    if zonotope:
        # generators of every age, oldest first: a live window is a tail
        ages_gens = powers.reshape(n, span + 1, n)[:, ::-1].reshape(n, -1)
    del powers
    centres = _orbit(p, c0[:, None], horizon + 1).T.copy()
    abs_c = np.abs(centres)
    q = np.empty((horizon + 1, table.shape[0]))
    # ages[:, i] is the table from column i on: ages[:, m n, :L] pairs
    # the history h_t0..h_0 (L = (t0 + 1) n) with the ages of step t0 + m
    ages = sliding_window_view(table, width, axis=1)
    inchunk = _inchunk_table(table, lr, n, chunk)
    # a chunk's known |c| + q[:n], youngest first, then chunk - 1 zero
    # blocks: recent[(chunk - m) n, :(b - 1) n] is v_{m-1}, ..., v_0, 0, ...
    known = np.zeros(n * (2 * chunk - 1))
    recent = sliding_window_view(known, (chunk - 1) * n)
    # the history: at most span + 2 blocks, youngest first, ending at `end`
    end = n * (span + 2)
    buf = np.empty(end)
    buf[end - n:] = r0
    base = True  # the oldest block is Theta or a hull, counted in full
    carried = carried_sums = None
    reduced_at = 0
    events = [(0, n)]  # (step, generator count) where the count restarts

    for first_step in range(0, horizon + 1, period):
        # the segment ends before the next reduction step or the horizon
        stop = min(first_step + period, horizon + 1)
        t0 = 0  # steps of the segment done
        while first_step + t0 < stop:
            b = min(chunk, stop - first_step - t0)
            j = first_step + t0
            s = end - (t0 + 1) * n  # h_t0, the youngest known block
            rows = q[j:j + b]
            windows = ages[:, :(b - 1) * n + 1:n, :end - s]  # (row, m, col)
            np.matmul(windows.transpose(1, 0, 2), buf[s:], out=rows)
            if carried is not None:
                rows += carried_sums[j - reduced_at:j - reduced_at + b]
            if b > 1:
                v = known[(chunk - b) * n:chunk * n].reshape(b, n)[::-1]
                np.add(abs_c[j:j + b], rows[:, :n], out=v)
                windows = recent[(chunk - b + 1) * n:chunk * n + 1:n, :(b - 1) * n]
                rows += np.matmul(inchunk[:, :(b - 1) * n],
                                  windows[::-1, :, None])[:, :, 0]
            np.matmul(abs_c[j:j + b] + rows[:, :n], lr.T,
                      out=buf[s - b * n:s].reshape(b, n)[::-1])
            t0 += b
        if stop > horizon:
            break
        s = end - (t0 + 1) * n  # the live history at the reduction step
        if zonotope:
            # the live generators and radii, oldest first: the carried
            # block, then buf[s:] without its zero radii
            gens = ages_gens[:, ages_gens.shape[1] - (end - s):]
            radii = buf[s:].reshape(-1, n)[::-1].ravel()
            keep = radii != 0.0
            keep[:n] |= base
            gens, radii = gens[:, keep], radii[keep]
            if carried is not None:
                block = carried[:, stop - reduced_at]
                gens = np.hstack((block, gens))
                radii = np.concatenate((np.ones(block.shape[1]), radii))
            reduced = zono_reduce(Star(centres[stop], gens, -radii, radii), 2 * n)
            # unit coefficients; the centre stays, as mid = 0
            block = reduced.generators * reduced.coeff_hi
            prods = (signed.reshape(-1, n) @ block).reshape(
                table.shape[0], span + 1, -1)  # (row, age, column)
            carried = prods[:n]
            carried_sums = np.abs(prods).sum(axis=2).T.copy()
            buf[end - n:] = 0.0
            base, reduced_at = False, stop
            events.append((stop, reduced.n_gens))
        else:
            buf[end - n:] = table[:n, :end - s] @ buf[s:]  # the hull
            events.append((stop, n))

    # free the tables first: building the result arrays sets the peak
    del table, ages, signed, inchunk
    lo = centres - q[:, :n]
    hi = centres + q[:, :n]
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("flowpipe is not finite: the recurrence overflowed")
    # generator counts: restart at each event, then add the nonzero radii
    # of every fresh block (the same products the loop wrote into buf)
    added = np.zeros(horizon + 1, dtype=np.int64)
    added[1:] = np.count_nonzero((abs_c[:-1] + q[:-1, :n]) @ lr.T, axis=1)
    added = np.cumsum(added)
    steps, bases = (np.array(v) for v in zip(*events))
    seg = np.searchsorted(steps, np.arange(horizon + 1), side="right") - 1
    counts = bases[seg] + added - added[steps[seg]]
    return ReachResult(
        kind="numeric", method=method_name,
        labels=np.arange(horizon + 1, dtype=np.float64), lo=lo, hi=hi,
        radii=np.zeros(horizon + 1), gen_counts=counts,
        normals=normals, supports=centres @ normals.T + q[:, n:],
        wall_time=time.perf_counter() - start,
        _recurrence=(abar, lbar, theta, horizon, reduction_method,
                     reduction_period))


def reach_with_perturbation(model: ModelSpec, pert: IntervalMatrix) -> ReachResult:
    """Numeric flowpipe of the model with an explicit perturbation family.

    The supports of the model's unsafe normals are recorded at every step,
    so safety_check against model.unsafe reads them; other directions
    replay the recurrence (ReachResult.support).
    """
    if model.continuous:
        abar, lbar = discretize(model.a, pert, model.step)
    else:
        abar, lbar = model.a, pert
    normals = np.array([hs.normal for hs in model.unsafe],
                       dtype=np.float64).reshape(-1, model.dim)
    return _run_recurrence(abar, lbar, model.initial, model.horizon,
                           model.reduction_method, model.reduction_period,
                           method_name="numeric", normals=normals)


def ors_reach(model: ModelSpec) -> ReachResult:
    """Numeric over-approximate flowpipe over the model horizon."""
    return reach_with_perturbation(model, model.perturbation())


def nominal_reach(a_discrete, theta: Box, horizon: int) -> ReachResult:
    """Exact flowpipe of the unperturbed discrete map x -> A x.

    This is the numeric recurrence with a zero perturbation family, so it
    adds no generators and records no supports; ReachResult.support
    replays it in any direction.
    """
    a = np.asarray(a_discrete, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != theta.dim:
        raise DimensionMismatch("matrix must be square and match the box")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    n = theta.dim
    return _run_recurrence(a, IntervalMatrix.zeros(n, n), theta, horizon,
                           "none", 1, method_name="nominal",
                           normals=np.empty((0, n)))


def symbolic_reach(a, pert: IntervalMatrix, theta: Box, times,
                   method: str = "kagstrom1", norm_kind: str = "two") -> ReachResult:
    """Nominal flow exp(At) Theta with a bloating radius per time point.

    The radius delta(t) = phi(t) ||exp(At)||_2 max_{x in Theta} ||x||_2
    makes the padded set contain every perturbed trajectory point, since
    phi bounds the relative deviation of the perturbed exponential.

    times must be bitwise np.arange(K) * h, as ModelSpec.times builds
    it ([0.0] for K = 1), else ValueError.  The flows are the powers F_k
    of one step, each with an error bound E_k >= |exp(A k h) - F_k|
    (_doubling_flows); the nominal box of F_k Theta widens by the pad
    E_k max(|lo|, |hi|), and ||exp(A k h)||_2 <= sigma_max(F_k) plus the
    entry sum of E_k.  The sigma_max bound covers the rounding of its own
    evaluation (_sigma_max_bound: a closed form for n <= 2, the Gram
    matrix's largest eigenvalue above), and the radius is scaled to cover
    the rounding of its own product; phi's own rounding is not covered.
    The nominal box of each flow E Theta takes the endpoint products
    E_ij lo_j, E_ij hi_j of stars.box_core.
    A radius beyond float range (phi saturated, or the flow or its error
    overflowed) is inf, and so are the box bounds from that point on:
    unbounded, not proven safe.  The result keeps the flows, the pad and
    Theta, not one Star per point; safety_check reads its supports.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1:] != (theta.dim,):
        raise DimensionMismatch("initial box dimension must match the matrix")
    _require_finite(theta)
    series = _bounds.bloat_series(a, pert, times, method, norm_kind)
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        flows, pad, err_sums = _doubling_flows(a, series.times, theta)
        norms = _sigma_max_bound(flows) + err_sums
        radii = series.phi * norms * theta.max_norm()
        # phi (sigma + e) ||Theta|| (e the computed entry sum of E_k,
        # ||Theta|| = Box.max_norm a root of n squares) takes M = n/2 + 4
        # roundings to nearest: n/2 through the squares, their sum and the
        # root, then the root, sigma + e and two products; so it is at least
        # (1 - u)^M times its exact value, barring underflow.  The float
        # 1 + 2 j u, for the least j with 2 j > M + 1, covers that and its
        # own product when n < 10^8 (Higham, Accuracy and Stability, 3.1).
        radii *= 1.0 + 2 * ((theta.dim + 10) // 4 + 1) * _UNIT
        unbounded = ~np.isfinite(radii)
        radii[unbounded] = np.inf
        nlo, nhi = _image_bounds(flows, theta)
        nlo -= pad
        nhi += pad
        lo = nlo - radii[:, None]
        hi = nhi + radii[:, None]
    lo[unbounded] = -np.inf
    hi[unbounded] = np.inf
    return ReachResult(
        kind="symbolic", method=method, labels=series.times.copy(), lo=lo,
        hi=hi, radii=radii,
        gen_counts=np.full(series.times.shape, theta.dim, dtype=np.int64),
        flows=flows, flow_pad=pad, initial=theta,
        wall_time=time.perf_counter() - start, phi=series.phi.copy())


# Scaling target theta = ||A||_F h / 2^s of _doubling_flows: interval_expm's
# Taylor tail theta^21 / (21! (1 - theta/22)) is below 2.1e-20 there, so
# the step's error stays at rounding level (unscaled at theta = 8.75, girad1
# with h = 1.5, it is about 2 per entry, while exp(A h) has none above 0.23).
_ORBIT_THETA = 1.0


def _doubling_flows(a: np.ndarray, times: np.ndarray, theta: Box):
    """Flows of the grid times = np.arange(K) * h (else ValueError) as powers.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005):
    for the least s >= 0 with ||A||_F h / 2^s <= _ORBIT_THETA, P_s =
    expm(A h / 2^s) is within E = max(M.hi - P_s, P_s - M.lo), pushed
    one ulp outward, of exp(A h / 2^s), M = interval_expm(A, h / 2^s).
    s squarings (_square) give P and E_1, and _orbit with error rows the
    flows F_k = P^k and E_k >= |exp(A k h) - F_k|.  Returns the (K, n, n)
    flows, the (K, n) pads E_k max(|lo|, |hi|) of Theta and the (K,)
    entry sums of E_k, each at least ||E_k||_2, but not the E_k.
    """
    count = len(times)
    h = float(times[1]) if count > 1 else 0.0
    if not (h > 0.0 or count < 2) or not np.array_equal(times, np.arange(count) * h):
        raise ValueError("symbolic times must be a grid np.arange(K) * h with h > 0")
    lam = IntervalMatrix.from_point(a)
    frac, e = math.frexp(lam.frobenius_sup() * h / _ORBIT_THETA)
    s = max(0, e - (frac == 0.5))  # least s with 2^s >= frac 2^e
    tau = math.ldexp(h, -s)
    m = interval_expm(lam, tau)
    n = a.shape[0]
    step = scipy.linalg.expm(a * tau)
    step_err = np.nextafter(np.maximum(m.hi - step, step - m.lo), np.inf)
    for _ in range(s):
        step, step_err = _square(step, step_err)
    powers, errs = _orbit(step, np.eye(n), count, step_err)
    errs = errs.reshape(n, count, n)  # errs[i, k, j] = E_k[i, j]
    pad = (errs @ np.maximum(np.abs(theta.lo), np.abs(theta.hi))).T.copy()
    err_sums = errs.sum(axis=(0, 2))
    del errs
    flows = np.ascontiguousarray(powers.reshape(n, count, n).transpose(1, 0, 2))
    return flows, pad, err_sums


def _image_bounds(m: np.ndarray, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of m x over x in box, for each row of m.

    m is (..., rows, dim); each bound is a sum of the smaller (larger) of
    the endpoint products m_ij lo_j and m_ij hi_j, as in stars.box_core.
    The rows go in chunks of about _CHUNK_ENTRIES entries, so the
    temporaries stay small whatever the stack; every row is summed as a
    whole, so the bounds do not depend on the chunking.
    """
    dim = m.shape[-1]
    rows = m.reshape(-1, dim)
    lo = np.empty(len(rows))
    hi = np.empty(len(rows))
    chunk = max(1, _CHUNK_ENTRIES // max(1, dim))
    for i in range(0, len(rows), chunk):
        p1 = rows[i:i + chunk] * box.lo
        p2 = rows[i:i + chunk] * box.hi
        np.minimum(p1, p2).sum(axis=-1, out=lo[i:i + chunk])
        np.maximum(p1, p2, out=p1).sum(axis=-1, out=hi[i:i + chunk])
    return lo.reshape(m.shape[:-1]), hi.reshape(m.shape[:-1])


def _require_finite(theta: Box) -> None:
    if not (np.all(np.isfinite(theta.lo)) and np.all(np.isfinite(theta.hi))):
        raise ValueError("initial box must be finite")


def safety_check(result: ReachResult, halfspaces) -> SafetyVerdict:
    """First step whose set meets an unsafe half-space, scanning in order.

    A half-space (normal, offset) is violated at a step iff the support of
    the step's set in direction normal is >= offset; symbolic sets add
    radius * ||normal||_2 on top of the nominal support, so an inf radius
    is a violation (not proven safe).  Supports come from
    ReachResult.support: recorded rows, symbolic flows, or one replay of
    the numeric recurrence in the half-spaces' normals.
    """
    halfspaces = tuple(halfspaces)
    if not halfspaces:
        return SafetyVerdict(safe=True)
    offsets = np.asarray([hs.offset for hs in halfspaces])
    sups = result.support(np.vstack([hs.normal for hs in halfspaces]))
    hit = sups >= offsets
    if not hit.any():
        return SafetyVerdict(safe=True)
    k, j = (int(i) for i in np.argwhere(hit)[0])  # row-major order
    return SafetyVerdict(safe=False, step=k, halfspace=j,
                         support=float(sups[k, j]))
