"""Reachability pipelines for linear systems with interval uncertainty.

Numeric route: discretize to a point matrix Abar plus interval remainder
Lbar, then iterate the star recurrence

    R_0 = Theta,    R_k = Abar R_{k-1}  (+)  box(Lbar R_{k-1}),

whose k-th set contains x_k = (Abar + E)^k x_0 for every fixed E in Lbar
and x_0 in Theta.  Each set is a centred zonotope: its centre follows the
point map Abar + Lm (Lm the midpoint of Lbar), and between reductions its
generators are the columns Abar^a e_i of the blocks added a steps earlier,
scaled by a history of radii.  So the nominal part and the effect of the
uncertainty are computed apart, and each step is one product of a table
of |Abar^a| rows, built once per flowpipe, with that history (see
_run_recurrence).  Symbolic route: the nominal flow exp(At) Theta padded
by a bloating radius from a closed-form bound, computed for the whole
time grid at once (see symbolic_reach).
"""

from __future__ import annotations

import math
import time
import types
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    radii    : bloating radius per step (zero on the numeric route; inf
               where a symbolic bound overflows, with lo/hi -inf/inf)
    stars    : the reachable set at each step, numeric route only and
               only with keep_stars=True, else None
    normals  : (k, dim) directions whose supports the numeric recurrence
               recorded (the model's unsafe normals), or None
    supports : (steps, k) support values in those directions, or None
    flows    : symbolic route: (steps, dim, dim) stack of exp(A t), so the
               nominal set at step k is flows[k] @ initial; else None
    initial  : symbolic route: the initial box Theta; else None
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
    flows: np.ndarray | None = None
    initial: Box | None = None
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


def _orbit(a: np.ndarray, x0: np.ndarray, count: int) -> np.ndarray:
    """a^0 x0, a^1 x0, ..., a^(count-1) x0 side by side, by doubling.

    For x0 of shape (n, w) the result is (n, count * w).
    """
    w = x0.shape[1]
    out = np.empty((x0.shape[0], count * w))
    out[:, :w] = x0
    done, step = 1, a  # step = a^done
    while done < count:
        take = min(done, count - done)
        np.matmul(step, out[:, :take * w], out=out[:, done * w:(done + take) * w])
        done += take
        if done < count:
            step = step @ step
    return out


def _run_recurrence(abar: np.ndarray, lbar: IntervalMatrix, theta: Box,
                    horizon: int, reduction_method: str,
                    reduction_period: int, method_name: str,
                    normals: np.ndarray, keep_stars: bool) -> ReachResult:
    """Run the recurrence on centred zonotopes (Girard, HSCC 2005).

    Lbar is split into Lm +- Lr (Lr rounded outward) and Theta into
    c_0 +- r_0.  Each set is a centre c plus generators Abar^a e_i r_i with
    coefficients in [-1, 1], one block of radii r per age a, so
    box(Lbar R) is the fresh block centred at Lm c with radius
    Lr |c| + sum(|Lm g| + Lr |g|) over the generators g, and the next
    centre is Abar c + Lm c.  Centres therefore follow a point orbit of
    Abar + Lm, computed before the loop; reductions never move them.

    Once per flowpipe, `table` stacks for each age a, youngest first, the
    rows |Abar^a|, |Lm Abar^a| + Lr |Abar^a| and |N Abar^a| (N the
    `normals`).  The radius history lives in one flat buffer, youngest
    block first, written at a decreasing offset, so the live blocks are
    the contiguous tail buf[s:] and one product q = table[:, :m] @ buf[s:]
    per step gives the box c +- q[:n], the supports N c + q[2n:] and the
    next fresh radius Lr |c| + q[n:2n].  An interval reduction resets the
    history to the hull radius q[:n] at age 0.  A zonotope reduction
    (stars.zono_reduce) turns every live generator into a carried block
    C whose rows at each later age, Abar^a C, Lm Abar^a C and N Abar^a C,
    come from one stacked product; their absolute row sums are added to q.

    Generator counts follow the Star operations: n for Theta and for a
    hull, then the nonzero fresh radii, and at most 2n after a zonotope
    reduction.  Kept stars are Star(c, G, -r, r), generators oldest first.
    Inputs are validated once here and the flowpipe once at the end.
    """
    start = time.perf_counter()
    n = theta.dim
    abar = np.ascontiguousarray(abar, dtype=np.float64)
    if abar.shape != (n, n) or lbar.shape != (n, n):
        raise DimensionMismatch("matrices must be square and match the box")
    if not np.all(np.isfinite(abar)):
        raise ValueError("discrete dynamics matrix must be finite")
    _require_finite(theta)
    lm, lr = _centre_radius(lbar.lo, lbar.hi)
    c0, r0 = _centre_radius(theta.lo, theta.hi)
    zonotope = reduction_method == "zonotope"
    reducing = reduction_method != "none"
    # a reduction leaves one block (interval) or none in the history
    span = min(horizon, reduction_period) if reducing else horizon
    powers = _orbit(abar, np.eye(n), span + 1)
    table = np.vstack((powers, lm @ powers, normals @ powers))
    signed = table.copy() if zonotope else None
    np.abs(table, out=table)
    table[n:2 * n] += lr @ table[:n]
    if zonotope or keep_stars:
        # generators of every age, oldest first: a live window is a tail
        ages_gens = powers.reshape(n, span + 1, n)[:, ::-1].reshape(n, -1)
    del powers
    centres = _orbit(abar + lm, c0[:, None], horizon + 1).T.copy()
    lr_c = np.abs(centres) @ lr.T  # the fresh radius each centre adds
    q = np.empty((horizon + 1, table.shape[0]))
    q_fresh = q[:, n:2 * n]
    # at most span + 1 live blocks, plus room for the last fresh block
    buf = np.empty(n * (span + 2))
    s = buf.size - n
    buf[s:] = r0
    base = True  # the oldest block is Theta or a hull, counted in full
    carried = carried_sums = None
    reduced_at = 0
    events = [(0, n)]  # (step, generator count) where the count restarts
    stars: list[Star] | None = [] if keep_stars else None

    def live_set(step: int) -> tuple[np.ndarray, np.ndarray]:
        """Generators and radii of the live set, oldest first."""
        gens = ages_gens[:, ages_gens.shape[1] - (buf.size - s):]
        radii = buf[s:].reshape(-1, n)[::-1].flatten()  # a copy
        keep = radii != 0.0
        if base:
            keep[:n] = True
        if not keep.all():
            gens, radii = gens[:, keep], radii[keep]
        if carried is not None:
            block = carried[:, step - reduced_at]
            gens = np.hstack((block, gens))
            radii = np.concatenate((np.ones(block.shape[1]), radii))
        return gens, radii

    for step in range(horizon + 1):
        if step:
            s -= n
            if reducing and step % reduction_period == 0:
                if zonotope:
                    gens, radii = live_set(step)
                    reduced = zono_reduce(
                        Star(centres[step], gens, -radii, radii), 2 * n)
                    # unit coefficients; the centre stays, as mid = 0
                    block = reduced.generators * reduced.coeff_hi
                    rows = (signed.reshape(-1, n) @ block).reshape(
                        table.shape[0], span + 1, -1)  # (row, age, column)
                    carried = rows[:n]
                    carried_sums = np.abs(rows).sum(axis=2).T.copy()
                    carried_sums[:, n:2 * n] += carried_sums[:, :n] @ lr.T
                    s, base, reduced_at = buf.size, False, step
                    events.append((step, reduced.n_gens))
                else:
                    np.matmul(table[:, :buf.size - s], buf[s:], out=q[step])
                    s = buf.size - n
                    buf[s:] = q[step, :n]
                    events.append((step, n))
        np.matmul(table[:, :buf.size - s], buf[s:], out=q[step])
        if carried is not None:
            q[step] += carried_sums[step - reduced_at]
        np.add(q_fresh[step], lr_c[step], out=buf[s - n:s])
        if keep_stars:
            gens, radii = live_set(step)
            stars.append(Star(centres[step], gens, -radii, radii))

    lo = centres - q[:, :n]
    hi = centres + q[:, :n]
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("flowpipe is not finite: the recurrence overflowed")
    # generator counts: restart at each event, then add the nonzero radii
    # of every fresh block (the same sums the loop wrote into buf)
    added = np.zeros(horizon + 1, dtype=np.int64)
    added[1:] = np.count_nonzero(q_fresh[:-1] + lr_c[:-1], axis=1)
    added = np.cumsum(added)
    steps, bases = (np.array(v) for v in zip(*events))
    seg = np.searchsorted(steps, np.arange(horizon + 1), side="right") - 1
    counts = bases[seg] + added - added[steps[seg]]
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
        supports=centres @ normals.T + q[:, 2 * n:],
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
    """Exact flowpipe of the unperturbed discrete map x -> A x.

    This is the numeric recurrence with a zero perturbation family, so it
    keeps its stars and adds no generators.
    """
    a = np.asarray(a_discrete, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != theta.dim:
        raise DimensionMismatch("matrix must be square and match the box")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    n = theta.dim
    return _run_recurrence(a, IntervalMatrix.zeros(n, n), theta, horizon,
                           "none", 1, method_name="nominal",
                           normals=np.empty((0, n)), keep_stars=True)


def symbolic_reach(a, pert: IntervalMatrix, theta: Box, times,
                   method: str = "kagstrom1", norm_kind: str = "two",
                   cond_max: float = 1e8) -> ReachResult:
    """Nominal flow exp(At) Theta with a bloating radius per time point.

    The radius delta(t) = phi(t) ||exp(At)||_2 max_{x in Theta} ||x||_2
    makes the padded set contain every perturbed trajectory point, since
    phi bounds the relative deviation of the perturbed exponential.

    The whole grid is one stack of flows exp(A t), from one batched expm
    (uncreach._expm) and one batched 2-norm; the nominal box of each flow
    E Theta takes the endpoint products E_ij lo_j, E_ij hi_j of
    stars.box_core.  A radius
    beyond float range (phi saturated, or the flow itself overflowed) is
    inf, and so are the box bounds from that point on: unbounded, not
    proven safe.  The result keeps the flows and Theta, not one Star per
    point; safety_check reads its supports from them.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1:] != (theta.dim,):
        raise DimensionMismatch("initial box dimension must match the matrix")
    _require_finite(theta)
    series = _bounds.bloat_series(a, pert, times, method, norm_kind,
                                  cond_max=cond_max)
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        flows = scipy.linalg.expm(a * series.times[:, None, None])
        norms = np.full(series.times.shape, np.inf)
        finite = np.isfinite(flows).all(axis=(1, 2))
        norms[finite] = np.linalg.norm(flows[finite], 2, axis=(1, 2))
        radii = series.phi * norms * theta.max_norm()
        unbounded = ~np.isfinite(radii)
        radii[unbounded] = np.inf
        nlo, nhi = _image_bounds(flows, theta)
        lo = nlo - radii[:, None]
        hi = nhi + radii[:, None]
    lo[unbounded] = -np.inf
    hi[unbounded] = np.inf
    wall = time.perf_counter() - start
    return ReachResult(
        kind="symbolic",
        method=method,
        labels=series.times.copy(),
        lo=lo,
        hi=hi,
        radii=radii,
        gen_counts=np.full(series.times.shape, theta.dim, dtype=np.int64),
        flows=flows,
        initial=theta,
        wall_time=wall,
        phi=series.phi.copy(),
    )


def _image_bounds(m: np.ndarray, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of m x over x in box, for each row of m.

    m is (..., rows, dim); each bound is a sum of the smaller (larger) of
    the endpoint products m_ij lo_j and m_ij hi_j, as in stars.box_core.
    """
    p1 = m * box.lo
    p2 = m * box.hi
    return np.minimum(p1, p2).sum(axis=-1), np.maximum(p1, p2).sum(axis=-1)


def _require_finite(theta: Box) -> None:
    if not (np.all(np.isfinite(theta.lo)) and np.all(np.isfinite(theta.hi))):
        raise ValueError("initial box must be finite")


def safety_check(result: ReachResult, halfspaces) -> SafetyVerdict:
    """First step whose set meets an unsafe half-space, scanning in order.

    A half-space (normal, offset) is violated at a step iff the support of
    the step's set in direction normal is >= offset; symbolic sets add
    radius * ||normal||_2 on top of the nominal support, so an inf radius
    is a violation (not proven safe).  Supports come from the rows the
    numeric recurrence recorded for its model's unsafe normals, else from
    the flows of a symbolic result or the kept stars of a numeric one; a
    numeric result computed without keep_stars=True can only be checked
    against those recorded normals.
    """
    halfspaces = tuple(halfspaces)
    if not halfspaces:
        return SafetyVerdict(safe=True)
    dirs = np.vstack([hs.normal for hs in halfspaces])
    if dirs.shape[1] != result.lo.shape[1]:
        raise DimensionMismatch("half-space normals must match the flowpipe")
    offsets = np.asarray([hs.offset for hs in halfspaces])
    sups = _supports(result, dirs)
    hit = sups >= offsets
    if not hit.any():
        return SafetyVerdict(safe=True)
    k, j = (int(i) for i in np.argwhere(hit)[0])  # row-major order
    return SafetyVerdict(safe=False, step=k, halfspace=j,
                         support=float(sups[k, j]))


def _supports(result: ReachResult, dirs: np.ndarray) -> np.ndarray:
    """(steps, k) supports of the flowpipe in `dirs`, radii included.

    Recorded supports are read directly.  A symbolic result gives the
    support of each flow E Theta, max over the endpoint products of
    (d E)_j with lo_j and hi_j, plus radius * ||d||_2 (inf where the
    radius is); a numeric result evaluates its kept stars.
    """
    if result.normals is not None:
        match = np.all(dirs[:, None, :] == result.normals[None, :, :], axis=2)
        if np.all(match.any(axis=1)):
            return result.supports[:, np.argmax(match, axis=1)]
    if result.flows is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            sups = _image_bounds(dirs @ result.flows, result.initial)[1]
            sups += np.multiply.outer(result.radii, np.linalg.norm(dirs, axis=1))
        sups[np.isinf(result.radii)] = np.inf
        return sups
    if result.stars is None:
        raise ValueError(
            "this flowpipe recorded supports only for its model's unsafe "
            "normals; rerun it with keep_stars=True to check other "
            "half-spaces")
    return np.array([star.support_batch(dirs) for star in result.stars])
