"""Reachability pipelines for linear systems with interval uncertainty.

Numeric route: discretize to a point matrix Abar plus interval remainder
Lbar, then iterate the star recurrence

    R_0 = Theta,    R_k = Abar R_{k-1}  (+)  box(Lbar R_{k-1}),

whose k-th set contains x_k = (Abar + E)^k x_0 for every fixed E in Lbar
and x_0 in Theta.  Between reductions, each generator of R_k is a column
Abar^a e_i of the block added a steps earlier, so the recurrence reads its
generators from a table of those columns built once per flowpipe instead
of mapping them step by step (see _run_recurrence).  Symbolic route: the
nominal flow exp(At) Theta padded by a bloating radius from a closed-form
bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import _kernels
from . import bounds as _bounds
from .errors import DimensionMismatch
from .intervals import IntervalMatrix, interval_expm
from .stars import Box, Star, linear_map, zono_reduce

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
        for cell in self.uncertainty:
            if not (0 <= cell.row < n and 0 <= cell.col < n):
                raise ValueError(f"uncertainty cell ({cell.row},{cell.col}) out of range")
        for hs in self.unsafe:
            if hs.normal.shape[0] != n:
                raise DimensionMismatch("half-space normal must match the dimension")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.continuous:
            if self.step is None or not (self.step > 0) or not math.isfinite(self.step):
                raise ValueError("continuous models need a positive step")
        if self.reduction_method not in REDUCTION_METHODS:
            raise ValueError(f"unknown reduction method {self.reduction_method!r}")
        if self.reduction_method != "none" and self.reduction_period < 1:
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
    radii    : bloating radius per step (zero on the numeric route)
    stars    : the star at each step (numeric: the reachable set itself,
               kept only with keep_stars=True, else None; symbolic: the
               nominal set, to be padded by radii)
    normals  : (k, dim) directions whose supports the numeric recurrence
               recorded (the model's unsafe normals), or None
    supports : (steps, k) support values in those directions, or None
    """

    kind: str
    method: str
    labels: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    radii: np.ndarray
    gen_counts: np.ndarray
    stars: list[Star] | None = None
    normals: np.ndarray | None = None
    supports: np.ndarray | None = None
    wall_time: float = 0.0
    phi: np.ndarray | None = None

    @cached_property
    def boxes(self) -> list[Box]:
        """Bounding box per step, built from lo/hi on first access."""
        return [Box(lo, hi) for lo, hi in zip(self.lo, self.hi)]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SafetyVerdict:
    """Outcome of checking a flowpipe against unsafe half-spaces."""

    safe: bool
    step: int | None = None
    halfspace: int | None = None
    support: float | None = None


def discretize(a, pert: IntervalMatrix, h: float,
               order: int = 20) -> tuple[np.ndarray, IntervalMatrix]:
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
    m = interval_expm(IntervalMatrix.from_point(a) + pert, h, order=order)
    abar = scipy.linalg.expm(a * h)
    return abar, m.sub_point(abar)


def _age_rows(gens: np.ndarray, llo: np.ndarray, lhi: np.ndarray,
              normals: np.ndarray, out: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
    """Fill `out` with the rows a bound pass multiplies by the coefficients.

    For each generator column g of `gens`, top to bottom: the upper and
    the lower endpoints of Lbar g (the interval products lambda_box takes,
    n rows each), g itself (n rows; `gens` may already be these rows of
    `out`) and normals @ g (k rows).  `scratch` is a free float buffer of
    at least three times the size of `gens`.
    """
    n, w = gens.shape
    gp, gn, tmp = (scratch[i * n * w:(i + 1) * n * w].reshape(n, w)
                   for i in range(3))
    np.maximum(gens, 0.0, out=gp)
    np.subtract(gp, gens, out=gn)  # negative part, nonnegative
    np.matmul(lhi, gp, out=out[:n])
    out[:n] -= np.matmul(llo, gn, out=tmp)
    np.matmul(llo, gp, out=out[n:2 * n])
    out[n:2 * n] -= np.matmul(lhi, gn, out=tmp)
    out[2 * n:3 * n] = gens
    np.matmul(normals, gens, out=out[3 * n:])
    return out


def _run_recurrence(abar: np.ndarray, lbar: IntervalMatrix, theta: Box,
                    horizon: int, reduction_method: str,
                    reduction_period: int, method_name: str,
                    normals: np.ndarray, keep_stars: bool) -> ReachResult:
    """Stream the star recurrence through an age table.

    The live star is <anchor, G, [clo[:m], chi[:m]]>.  Most of its
    generators are columns Abar^a e_i of a fresh lambda_box block of age a
    (or of the initial axis block), so they are never mapped: `table`
    holds the `_age_rows` of Abar^a[:, pattern] for the ages
    min(horizon, period) down to 0, oldest first, `pattern` being the
    columns the fresh blocks keep after compaction, and the live age
    columns are always its last m - mc columns, lined up with the
    coefficients after the first mc.  The first mc generators are the
    carried block, which Abar maps and whose rows are recomputed at every
    step: what a zonotope reduction leaves; an interval reduction's
    <0, I, hull> when the pattern lacks some columns (else that is a fresh
    age-0 block); and every live generator when a fresh block keeps other
    columns than the pattern, after which the table is rebuilt for the new
    pattern.

    Each step makes one pass of products, minima, maxima and row sums over
    the live columns, into preallocated buffers.  It yields the box, the
    supports in `normals` and the lambda_box bounds of the next step's
    fresh block, from the same floats summed in the same order as
    compact(lambda_box(Lbar, S)), linear_map(Abar, S), minkowski_sum and
    the periodic reduction on Star objects.  The one exception is a single
    normal that is not an axis: there the Star operations get normal @ G
    from a BLAS matrix-vector product, whose rounding depends on where a
    column sits in the call, so supports may differ in the last bits.
    Inputs are validated once here and the flowpipe once at the end.
    """
    start = time.perf_counter()
    n = theta.dim
    abar = np.ascontiguousarray(abar, dtype=np.float64)
    if abar.shape != (n, n) or lbar.shape != (n, n):
        raise DimensionMismatch("matrices must be square and match the box")
    if not np.all(np.isfinite(abar)):
        raise ValueError("discrete dynamics matrix must be finite")
    llo, lhi = lbar.lo, lbar.hi
    lstack, lswap = np.vstack((llo, lhi)), np.vstack((lhi, llo))
    reducing = reduction_method != "none"
    # each step appends at most n generators; a reduction leaves n
    # (interval) or at most 2n (zonotope) of them
    span = min(horizon, reduction_period) if reducing else horizon
    capacity = n * (span + (2 if reduction_method == "zonotope" else 1))
    # rows [0, n) and [n, 2n) are the lambda_box endpoints, [2n, 3n) the
    # generators and [3n, 3n + k) their products with the normals
    rows = 3 * n + normals.shape[0]
    # flat storage of the pass's contiguous (rows, m) products with clo and
    # chi and of its (2n, m) minima
    times_lo = np.empty(rows * capacity)
    times_hi = np.empty(rows * capacity)
    minima = np.empty(2 * n * capacity)
    eye = np.eye(n)

    def age_table(pattern: np.ndarray) -> np.ndarray:
        # Abar^a for every age, by n-column matrix products (as the Star
        # operations map n or more columns at once: a one-column product
        # rounds differently), then the pattern's columns of each
        full = n * (span + 1)
        powers = times_hi[:n * full].reshape(n, full)
        powers[:, full - n:] = eye
        for col in range(full - n, 0, -n):
            np.matmul(abar, powers[:, col:col + n], out=powers[:, col - n:col])
        table = np.empty((rows, np.count_nonzero(pattern) * (span + 1)))
        np.compress(np.tile(pattern, span + 1), powers, axis=1,
                    out=table[2 * n:3 * n])
        return _age_rows(table[2 * n:3 * n], llo, lhi, normals, table,
                         times_lo)

    def carried_rows_of(gens: np.ndarray) -> np.ndarray:
        return _age_rows(gens, llo, lhi, normals,
                         np.empty((rows, gens.shape[1])), times_lo)

    pattern = np.ones(n, dtype=bool)
    table = age_table(pattern)
    clo = np.empty(capacity)
    chi = np.empty(capacity)
    clo[:n] = theta.lo
    chi[:n] = theta.hi
    anchor = np.zeros(n)
    carried = eye[:, :0]
    carried_rows = np.empty((rows, 0))
    m, mc = n, 0

    lo = np.empty((horizon + 1, n))
    hi = np.empty((horizon + 1, n))
    supports = np.empty((horizon + 1, normals.shape[0]))
    counts = np.empty(horizon + 1, dtype=np.int64)
    stars: list[Star] | None = [] if keep_stars else None

    def live_gens() -> np.ndarray:
        window = table[2 * n:3 * n, table.shape[1] - m + mc:]
        return np.hstack((carried, window))

    def bound_pass(k: int) -> tuple[np.ndarray, np.ndarray]:
        """Box and supports of step k; lambda_box bounds for step k + 1."""
        c_lo, c_hi = clo[:m], chi[:m]
        p_lo = times_lo[:rows * m].reshape(rows, m)
        p_hi = times_hi[:rows * m].reshape(rows, m)
        least = minima[:2 * n * m].reshape(2 * n, m)
        # np.einsum scales the columns; np.multiply would allocate two
        # 64 KB iteration buffers to broadcast over the strided window
        if mc:
            np.einsum("rj,j->rj", carried_rows, c_lo[:mc], out=p_lo[:, :mc])
            np.einsum("rj,j->rj", carried_rows, c_hi[:mc], out=p_hi[:, :mc])
        window = table[:, table.shape[1] - m + mc:]
        np.einsum("rj,j->rj", window, c_lo[mc:], out=p_lo[:, mc:])
        np.einsum("rj,j->rj", window, c_hi[mc:], out=p_hi[:, mc:])
        # lambda_box: least and greatest of the four endpoint products
        np.minimum(p_lo[:2 * n], p_hi[:2 * n], out=least)
        np.minimum(least[:n], least[n:], out=least[:n])
        np.minimum(p_lo[2 * n:3 * n], p_hi[2 * n:3 * n], out=least[n:])
        np.maximum(p_lo, p_hi, out=p_lo)
        np.maximum(p_lo[:n], p_lo[n:2 * n], out=p_lo[n:2 * n])
        low = least.sum(axis=1)
        high = p_lo[n:].sum(axis=1)
        np.add(anchor, low[n:], out=lo[k])
        np.add(anchor, high[n:2 * n], out=hi[k])
        np.add(normals @ anchor, high[2 * n:], out=supports[k])
        ap = np.maximum(anchor, 0.0)
        an = ap - anchor  # negative part, nonnegative
        ends = lstack @ ap - lswap @ an  # [llo a+ - lhi a-, lhi a+ - llo a-]
        return ends[:n] + low[:n], ends[n:] + high[:n]

    for k in range(horizon + 1):
        if k:
            keep = dhi - dlo != 0.0
            new_pattern = (keep != pattern).any()
            if new_pattern:
                # the fresh block does not fit the table: every live
                # generator joins the carried block
                carried, mc = live_gens(), m
            anchor = abar @ anchor
            if mc:
                carried = abar @ carried
            if not keep.all():
                # compact: zero-width coefficients fold into the anchor
                anchor = anchor + np.where(keep, 0.0, dlo)
                dlo, dhi = dlo[keep], dhi[keep]
            if new_pattern:
                pattern = keep
                del table  # before building the new one
                table = age_table(pattern)
            g = dlo.shape[0]
            clo[m:m + g] = dlo
            chi[m:m + g] = dhi
            m += g
            if reducing and k % reduction_period == 0:
                if reduction_method == "zonotope":
                    r = zono_reduce(Star(anchor, live_gens(), clo[:m],
                                         chi[:m]), 2 * n)
                    anchor, carried = r.anchor, r.generators
                    m = mc = r.n_gens
                    clo[:m] = r.coeff_lo
                    chi[:m] = r.coeff_hi
                else:
                    if mc:
                        carried_rows = carried_rows_of(carried)
                    bound_pass(k)  # the hull, into lo[k] and hi[k]
                    anchor = np.zeros(n)
                    # <0, I, hull> is an age-0 block if the table has
                    # every column
                    carried = eye[:, :0] if pattern.all() else eye
                    m, mc = n, carried.shape[1]
                    clo[:n] = lo[k]
                    chi[:n] = hi[k]
            if mc:
                carried_rows = carried_rows_of(carried)
        dlo, dhi = bound_pass(k)
        counts[k] = m
        if keep_stars:
            stars.append(Star(anchor.copy(), live_gens(), clo[:m].copy(),
                              chi[:m].copy()))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("flowpipe is not finite: the recurrence overflowed")
    wall = time.perf_counter() - start
    return ReachResult(
        kind="numeric",
        method=method_name,
        labels=np.arange(horizon + 1, dtype=np.float64),
        lo=lo,
        hi=hi,
        radii=np.zeros(horizon + 1),
        gen_counts=counts,
        stars=stars,
        normals=normals,
        supports=supports,
        wall_time=wall,
    )


def reach_with_perturbation(model: ModelSpec, pert: IntervalMatrix,
                            order: int = 20,
                            keep_stars: bool = False) -> ReachResult:
    """Numeric flowpipe of the model with an explicit perturbation family.

    The supports of the model's unsafe normals are recorded at every step,
    so safety_check against model.unsafe needs no stored sets; pass
    keep_stars=True to keep the star of every step as well.
    """
    if model.continuous:
        abar, lbar = discretize(model.a, pert, model.step, order=order)
    else:
        abar, lbar = model.a, pert
    normals = np.array([hs.normal for hs in model.unsafe],
                       dtype=np.float64).reshape(-1, model.dim)
    return _run_recurrence(abar, lbar, model.initial, model.horizon,
                           model.reduction_method, model.reduction_period,
                           method_name="numeric", normals=normals,
                           keep_stars=keep_stars)


def ors_reach(model: ModelSpec, order: int = 20,
              keep_stars: bool = False) -> ReachResult:
    """Numeric over-approximate flowpipe over the model horizon."""
    return reach_with_perturbation(model, model.perturbation(), order=order,
                                   keep_stars=keep_stars)


def nominal_reach(a_discrete, theta: Box, horizon: int) -> ReachResult:
    """Exact flowpipe of the unperturbed discrete map x -> A x."""
    a = np.asarray(a_discrete, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != theta.dim:
        raise DimensionMismatch("matrix must be square and match the box")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    start = time.perf_counter()
    stars = [theta.to_star()]
    for _ in range(horizon):
        stars.append(linear_map(a, stars[-1]))
    boxes = [s.bounding_box() for s in stars]
    wall = time.perf_counter() - start
    return ReachResult(
        kind="numeric",
        method="nominal",
        labels=np.arange(horizon + 1, dtype=np.float64),
        lo=np.array([b.lo for b in boxes]),
        hi=np.array([b.hi for b in boxes]),
        radii=np.zeros(horizon + 1),
        gen_counts=np.full(horizon + 1, theta.dim, dtype=np.int64),
        stars=stars,
        wall_time=wall,
    )


def symbolic_reach(a, pert: IntervalMatrix, theta: Box, times,
                   method: str = "kagstrom1", norm_kind: str = "two",
                   cond_max: float = 1e8) -> ReachResult:
    """Nominal flow exp(At) Theta with a bloating radius per time point.

    The radius delta(t) = phi(t) ||exp(At)||_2 max_{x in Theta} ||x||_2
    makes the padded set contain every perturbed trajectory point, since
    phi bounds the relative deviation of the perturbed exponential.
    """
    a = np.asarray(a, dtype=np.float64)
    series = _bounds.bloat_series(a, pert, times, method, norm_kind,
                                  cond_max=cond_max)
    start = time.perf_counter()
    theta_star = theta.to_star()
    theta_norm = theta.max_norm()
    stars: list[Star] = []
    lo = np.empty((series.times.shape[0], theta.dim))
    hi = np.empty_like(lo)
    radii = np.empty(series.times.shape)
    counts = np.full(series.times.shape, theta_star.n_gens, dtype=np.int64)
    for idx, t in enumerate(series.times):
        ea = scipy.linalg.expm(a * t)
        nominal = linear_map(ea, theta_star)
        delta = series.phi[idx] * float(np.linalg.norm(ea, 2)) * theta_norm
        if not math.isfinite(delta):
            # the nominal bounds are finite (the star is validated), so
            # only the radius can make the padded box unbounded
            raise ValueError("box lower bound must be finite")
        radii[idx] = delta
        stars.append(nominal)
        nlo, nhi = _kernels.box_core(nominal.anchor, nominal.generators,
                                     nominal.coeff_lo, nominal.coeff_hi)
        np.subtract(nlo, delta, out=lo[idx])
        np.add(nhi, delta, out=hi[idx])
    wall = time.perf_counter() - start
    return ReachResult(
        kind="symbolic",
        method=method,
        labels=series.times.copy(),
        lo=lo,
        hi=hi,
        radii=radii,
        gen_counts=counts,
        stars=stars,
        wall_time=wall,
        phi=series.phi.copy(),
    )


def safety_check(result: ReachResult, halfspaces) -> SafetyVerdict:
    """First step whose set meets an unsafe half-space, scanning in order.

    A half-space (normal, offset) is violated at a step iff the support of
    the step's set in direction normal is >= offset; symbolic sets add
    radius * ||normal||_2 on top of the nominal support.  Supports come
    from the rows the numeric recurrence recorded for its model's unsafe
    normals, else from the stored stars; a numeric result computed without
    keep_stars=True can only be checked against those recorded normals.
    """
    halfspaces = tuple(halfspaces)
    if not halfspaces:
        return SafetyVerdict(safe=True)
    dirs = np.vstack([hs.normal for hs in halfspaces])
    if dirs.shape[1] != result.lo.shape[1]:
        raise DimensionMismatch("half-space normals must match the flowpipe")
    offsets = np.asarray([hs.offset for hs in halfspaces])
    first = 0
    for sups in _support_blocks(result, dirs):
        hit = sups >= offsets
        if hit.any():
            k, j = (int(i) for i in np.argwhere(hit)[0])  # row-major order
            return SafetyVerdict(safe=False, step=first + k, halfspace=j,
                                 support=float(sups[k, j]))
        first += sups.shape[0]
    return SafetyVerdict(safe=True)


def _support_blocks(result: ReachResult, dirs: np.ndarray):
    """Supports in `dirs`, radii included, as (steps, k) blocks in order.

    Recorded supports come as one block.  Stars are evaluated one step at
    a time, so the scan stops computing at the first violation.
    """
    if result.normals is not None:
        match = np.all(dirs[:, None, :] == result.normals[None, :, :], axis=2)
        if np.all(match.any(axis=1)):
            yield result.supports[:, np.argmax(match, axis=1)]
            return
    if result.stars is None:
        raise ValueError(
            "this flowpipe recorded supports only for its model's unsafe "
            "normals; rerun it with keep_stars=True to check other "
            "half-spaces")
    dir_norms = np.linalg.norm(dirs, axis=1)
    for star, radius in zip(result.stars, result.radii):
        sups = star.support_batch(dirs)
        if radius:
            sups = sups + radius * dir_norms
        yield sups[None, :]
