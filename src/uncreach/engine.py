"""Reachability pipelines for linear systems with interval uncertainty.

Numeric route: the one-step family M is A (+) Lambda, the perturbation
family added to A and pushed outward where the sum rounds, or for a
continuous model interval_expm(A (+) Lambda, h).  M is enclosed in
P +- Lr, P its centre, and the star recurrence

    R_0 = Theta,    R_k = P R_{k-1}  (+)  box([-Lr, Lr] R_{k-1})

has a k-th set that contains x_k = F^k x_0 for every fixed F in M and
x_0 in Theta.  Each set is a centred zonotope whose centre and
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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import bounds as _bounds
from ._expm import expm
from .errors import DimensionMismatch
from .intervals import (_CHUNK_ENTRIES, _UNIT, IntervalMatrix, _centre_radius,
                        _gamma, _sigma_max_bound, interval_expm)
from .stars import Box, Star, zono_reduce

# The symbolic step's expm goes through this namespace because the
# benchmark's tracer (perfbench/spans.py) times `engine.scipy.linalg.expm`
# as `engine.expm`.
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


def _check_cells(cells, n: int) -> tuple[tuple[int, int], ...]:
    """(row, col) pairs as ints, each an integer (not a bool) in range and
    listed once, else ValueError."""
    out = []
    for i, j in cells:
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
               for v in (i, j)):
            raise ValueError(f"cell ({i!r},{j!r}) indices must be integers")
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"cell ({i},{j}) out of range for dimension {n}")
        if (i, j) in out:
            raise ValueError(f"cell ({i},{j}) listed twice")
        out.append((i, j))
    return tuple(out)


def _widen(a: np.ndarray, cells) -> IntervalMatrix:
    """A with each CellUncertainty's entry widened to a -+ relative |a|, or
    set to its interval."""
    lo, hi = a.copy(), a.copy()
    for cell in cells:
        i, j = cell.row, cell.col
        if cell.relative is not None:
            r = cell.relative * abs(a[i, j])
            lo[i, j], hi[i, j] = a[i, j] - r, a[i, j] + r
        else:
            lo[i, j], hi[i, j] = cell.interval
    return IntervalMatrix(lo, hi)


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
        cells = tuple(self.uncertainty)
        pairs = _check_cells([(c.row, c.col) for c in cells], n)
        object.__setattr__(self, "uncertainty", tuple(
            replace(c, row=i, col=j) for c, (i, j) in zip(cells, pairs)))
        object.__setattr__(self, "unsafe", tuple(self.unsafe))
        if self.initial.dim != n:
            raise DimensionMismatch("initial box dimension must match the matrix")
        _require_finite(self.initial)
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
        return _widen(self.a, self.uncertainty)

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
    _recurrence : numeric route: the O(n^2) inputs of the recurrence (the
               one-step family M, Theta, the horizon and the reduction
               policy), which `support` replays in directions it did not
               record; else None
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


def discretize(a, pert: IntervalMatrix, h: float) -> IntervalMatrix:
    """The one-step family M = interval_expm(A (+) Lambda, h).

    M contains exp((A + E) h) for every E in Lambda; A (+) Lambda is the
    sum pushed outward where it rounds (_add_outward).
    """
    lam = _add_outward(a, pert)
    if not (h > 0) or not math.isfinite(h):
        raise ValueError("step must be positive")
    return interval_expm(lam, h)


def _add_outward(a, pert: IntervalMatrix) -> IntervalMatrix:
    """A (+) Lambda: [A + lo, A + hi] rounded to nearest, each bound that
    rounded inward (TwoSum's exact error) pushed one ulp outward, so that
    it contains A + Lambda exactly."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != pert.shape:
        raise DimensionMismatch("matrix and perturbation shapes differ")
    bounds = []
    for b, sign in ((pert.lo, -1.0), (pert.hi, 1.0)):
        s = a + b
        back = s - a
        err = (a - (s - back)) + (b - back)  # a + b = s + err exactly
        bounds.append(np.where(sign * err > 0.0,
                               np.nextafter(s, sign * np.inf), s))
    return IntervalMatrix(*bounds)


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


def _run_recurrence(m: IntervalMatrix, theta: Box, horizon: int,
                    reduction_method: str, reduction_period: int,
                    method_name: str, normals: np.ndarray) -> ReachResult:
    """Run the recurrence on centred zonotopes (Girard, HSCC 2005).

    The one-step family M is enclosed in P +- Lr and Theta in c_0 +- r_0
    (_centre_radius).  Each set is a centre c plus generators P^a e_i r_i
    with coefficients in [-1, 1], one block of radii r per age a, so the
    fresh block box([-Lr, Lr] R) (Althoff, Stursberg & Buss, CDC 2007)
    has radius Lr (|c| + sum |g|) over the generators g, and the next
    centre is P c: a point orbit computed up front, which reductions
    never move.

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
    if m.shape != (n, n):
        raise DimensionMismatch("family must be square and match the box")
    _require_finite(theta)
    p, lr = _centre_radius(m.lo, m.hi)
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
        _recurrence=(m, theta, horizon, reduction_method, reduction_period))


def reach_with_perturbation(model: ModelSpec, pert: IntervalMatrix) -> ReachResult:
    """Numeric flowpipe of the model with an explicit perturbation family.

    The supports of the model's unsafe normals are recorded at every step,
    so safety_check against model.unsafe reads them; other directions
    replay the recurrence (ReachResult.support).
    """
    if model.continuous:
        m = discretize(model.a, pert, model.step)
    else:
        m = _add_outward(model.a, pert)
    normals = np.array([hs.normal for hs in model.unsafe],
                       dtype=np.float64).reshape(-1, model.dim)
    return _run_recurrence(m, model.initial, model.horizon,
                           model.reduction_method, model.reduction_period,
                           method_name="numeric", normals=normals)


def ors_reach(model: ModelSpec) -> ReachResult:
    """Numeric over-approximate flowpipe over the model horizon."""
    return reach_with_perturbation(model, model.perturbation())


def nominal_reach(a_discrete, theta: Box, horizon: int) -> ReachResult:
    """Exact flowpipe of the unperturbed discrete map x -> A x.

    This is the numeric recurrence on the point family A, so it adds no
    generators and records no supports; ReachResult.support replays it in
    any direction.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return _run_recurrence(IntervalMatrix.from_point(a_discrete), theta,
                           horizon, "none", 1, method_name="nominal",
                           normals=np.empty((0, theta.dim)))


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
