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
import numbers
import time
import types
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import bounds as _bounds
from ._expm import expm
from .errors import DimensionMismatch
from .intervals import (_UNIT, Box, IntervalMatrix, _centre_radius,
                        _endpoint_product, _frobenius, _product_error,
                        _require_finite, _row_chunks, _sigma_max_bound,
                        _square, interval_expm)

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


def _real(value, what: str) -> float:
    """value as a float if it is a real number and not a (numpy) bool, else
    ValueError naming what: the one test of a model's scalar values, for
    the API and model files alike."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise ValueError(f"{what} must be a real number, got {value!r}")


def _integer(value, what: str) -> int:
    """value as an int if it is a (numpy) integer and not a bool, else
    ValueError naming what."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


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
            relative = _real(self.relative, "relative")
            if not math.isfinite(relative) or relative < 0:
                raise ValueError("relative fraction must be finite and nonnegative")
            object.__setattr__(self, "relative", relative)
        else:
            lo, hi = (_real(v, "interval endpoint") for v in self.interval)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("interval endpoints must be finite")
            if lo > hi:
                raise ValueError("interval lower endpoint exceeds upper")
            object.__setattr__(self, "interval", (lo, hi))


def _check_cells(cells, n: int,
                 key: str | None = None) -> tuple[tuple[int, int], ...]:
    """(row, col) pairs as ints, each an integer (not a bool) in range and
    listed once, else ValueError; given a key, the message starts with the
    cell's position, as in "uncertainty[2]: "."""
    out = []
    for pos, (i, j) in enumerate(cells):
        where = "" if key is None else f"{key}[{pos}]: "
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
               for v in (i, j)):
            raise ValueError(f"{where}cell ({i!r},{j!r}) indices must be integers")
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{where}cell ({i},{j}) out of range for dimension {n}")
        if (i, j) in out:
            raise ValueError(f"{where}cell ({i},{j}) listed twice")
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
        offset = _real(self.offset, "offset")
        if not math.isfinite(offset):
            raise ValueError("offset must be finite")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A linear model with interval uncertainty, initial box and unsafe sets.

    The one judge of model values, for the API and model files alike (the
    file reader checks only the document's shape).  With CellUncertainty,
    HalfSpace and Box it checks every field: among others a nonempty
    string name, a bool continuous (numpy bools too), a positive finite
    step when continuous and none when discrete, finite numbers (each
    scalar a real number, not a bool: _real), cells in range and listed once.
    A bad value raises ValueError, a bad shape DimensionMismatch.
    """

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
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"name must be a nonempty string, got {self.name!r}")
        if not isinstance(self.continuous, (bool, np.bool_)):
            raise ValueError(f"continuous must be a bool, got {self.continuous!r}")
        object.__setattr__(self, "continuous", bool(self.continuous))
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("dynamics matrix must be square")
        if not np.all(np.isfinite(a)):
            i, j = np.argwhere(~np.isfinite(a))[0]
            raise ValueError(f"dynamics matrix entry ({i},{j}) must be finite, "
                             f"got {float(a[i, j])}")
        n = a.shape[0]
        object.__setattr__(self, "a", a)
        cells = tuple(self.uncertainty)
        pairs = _check_cells([(c.row, c.col) for c in cells], n, "uncertainty")
        object.__setattr__(self, "uncertainty", tuple(
            replace(c, row=i, col=j) for c, (i, j) in zip(cells, pairs)))
        object.__setattr__(self, "unsafe", tuple(self.unsafe))
        if self.initial.dim != n:
            raise DimensionMismatch("initial box dimension must match the matrix")
        _require_finite(self.initial, "initial box must be finite")
        for hs in self.unsafe:
            if hs.normal.shape[0] != n:
                raise DimensionMismatch("half-space normal must match the dimension")
        for key in ("horizon", "reduction_period"):
            object.__setattr__(self, key, _integer(getattr(self, key), key))
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.step is not None:
            object.__setattr__(self, "step", _real(self.step, "step"))
        if self.continuous:
            if self.step is None or not (self.step > 0) or not math.isfinite(self.step):
                raise ValueError("continuous models need a positive step")
        elif self.step is not None:
            raise ValueError("step is only meaningful for continuous models")
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
               |initial.hi|) by which the nominal box widens, E_k the
               error bound of flows[k] (_doubling_flows); else None
    initial  : symbolic route: the initial box Theta; else None
    invariant : numeric route with until_unsafe: (t1, t2), the steps of
               two restart boxes, the box of t2 inside that of t1, when
               the flowpipe stopped at t2 with every step before it safe:
               every trajectory is at step t >= t1 in the box of step
               t1 + (t - t1) mod (t2 - t1), safe for all time; else None
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
    invariant: tuple[int, int] | None = None
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
        gives the upper bounds of its padded images (_padded_image) in the
        rows d E of its flows E, padded by flow_pad @ |d|, a chunk of steps
        at a time into the (steps, k) result: about _CHUNK_ENTRIES image
        entries per chunk, so no (steps, k, n) image exists.
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
            out = self.flow_pad @ np.abs(dirs).T
            norms = _frobenius(dirs, axis=1)
            for k in _row_chunks(len(out), dirs.size):
                out[k] = _padded_image(dirs @ self.flows[k], self.initial,
                                       out[k], self.radii[k], norms)[1]
        return out


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
    sum pushed outward where it rounds (_add_outward).  interval_expm
    scales and squares where ||A (+) Lambda||_F h > 1; an entry that
    leaves float range there is (-inf, inf), and a flowpipe of such an M
    is unbounded from step 1.
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


def _orbit(a: np.ndarray, x0: np.ndarray, count: int,
           a_err: np.ndarray | None = None, out: np.ndarray | None = None):
    """a^0 x0, a^1 x0, ..., a^(count-1) x0 side by side, by doubling.

    For x0 of shape (n, w) the result is (n, count * w), written into
    `out` if given.  Given a_err, a bound on |A - a|, it returns (powers,
    errors): block k of errors bounds |A^k x0 - block k of powers|, each
    doubled product and each squaring carrying its error by
    _product_error (x0 is exact).  A doubling's error rows come before
    its powers, so that the powers' destination block is their scratch.
    numpy copies each strided operand of at most np.getbufsize() entries,
    such as these column blocks, into a buffer of its size; _product_error
    runs with a 16-entry buffer (a size numpy 1.x takes too), which leaves
    the blocks in place.  The squarings and the powers' matmul keep
    numpy's default.
    """
    w = x0.shape[1]
    if out is None:
        out = np.empty((x0.shape[0], count * w))
    out[:, :w] = x0
    errs = None if a_err is None else np.zeros_like(out)
    done, step, step_err = 1, a, a_err  # step = a^done, within step_err
    while done < count:
        take = min(done, count - done)
        src, dst = slice(0, take * w), slice(done * w, (done + take) * w)
        if errs is not None:
            # test_orbit_error_rows_are_the_whole_width_products, whose
            # reference runs with numpy's default buffer, guards the bits
            bufsize = np.setbufsize(16)
            try:
                _product_error(step, step_err, out[:, src], errs[:, src],
                               errs[:, dst], scratch=out[:, dst])
            finally:
                np.setbufsize(bufsize)
        np.matmul(step, out[:, src], out=out[:, dst])
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


@np.errstate(over="ignore", invalid="ignore")
def _run_recurrence(m: IntervalMatrix, theta: Box, horizon: int,
                    reduction_method: str, reduction_period: int,
                    method_name: str, normals: np.ndarray,
                    until: np.ndarray | None = None) -> ReachResult:
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
    reduction (_zono_reduce) turns every live generator into a carried
    block C whose rows at each later age, P^a C and N P^a C, come from
    one stacked product; their absolute row sums are added to q, and the
    history restarts from a zero block.

    A segment is the steps from one reduction (or step 0) up to the next
    reduction step, or to the horizon.  The supports of a segment's
    steps replace their q[n:] by one product per segment, once the
    tables are freed.  Given `until`, one offset per normal, the product
    runs at the segment's end instead, before its reduction, and the
    recurrence stops after the first segment in which a support reaches
    its offset or a step is not finite.  Under interval reduction it
    also stops at a reduction step t2 whose segments all passed, if its
    box c_t2 +- hull lies inside an earlier restart box: Theta's c_0 +-
    r_0 at t1 = 0, or the box of an earlier reduction step t1 (_inside).
    The family is time-invariant, and the recurrence from a restart
    box B encloses F^k B, so every trajectory is at step t >= t1 in the
    set of step t1 + (t - t1) mod (t2 - t1) (Blanchini, Automatica 35,
    1999): steps 0 .. t2 - 1, all checked, hold the flowpipe for all
    time, and `invariant` records (t1, t2).  A zonotope reduction never
    stops there, as its restart is no box.  A result cut at either stop
    ends with its segment, a bitwise prefix of the full flowpipe (the
    same products on the same segments), and its _recurrence records
    the shortened horizon.  From the first step whose centre, radii or
    supports are not finite on, the boxes are -inf/inf and the supports
    inf; a zonotope reduction step whose live set is not finite is such
    a step, and the recurrence stops there.

    Generator counts follow the Star operations: n for Theta and for a
    hull, then the nonzero fresh radii, and at most 2n after a zonotope
    reduction; from a step that is not finite on, no more are added.  The
    fresh radii are read off the history buffer, where the loop wrote
    them: a segment is counted before its reduction resets the buffer,
    the last one after the tables are freed.

    Memory: each O(H n) array exists once.  The peak holds the centres,
    their magnitudes |c|, q, the history buffer and, once a reduction has
    counted a segment, the counts; with them the tables in the loop (an
    unreduced table has H + 1 ages and sets the peak), or the supports'
    copy in the result pass.  That pass writes lo into the buffer of |c|
    and hi into the centres', copies the supports out of q and frees q,
    so a cut result's lo, hi and gen_counts are leading slices of
    horizon-length buffers.  Inputs are validated once.
    """
    start = time.perf_counter()
    n = theta.dim
    if m.shape != (n, n):
        raise DimensionMismatch("family must be square and match the box")
    _require_finite(theta, "initial box must be finite")
    p, lr = _centre_radius(m.lo, m.hi)
    c0, r0 = _centre_radius(theta.lo, theta.hi)
    zonotope = reduction_method == "zonotope"
    period = reduction_period if reduction_method != "none" else horizon + 1
    # a reduction leaves one block in the history: the hull, or zero
    span = min(horizon, period)
    chunk = min(_chunk_steps(n), span + 1)
    # rows |P^a| and |N P^a| per age a, then chunk - 1 zero blocks, so
    # every window of span + 1 ages below starts in the table
    width = (span + 1) * n
    table = np.zeros((n + normals.shape[0], width + (chunk - 1) * n))
    _orbit(p, np.eye(n), span + 1, out=table[:n, :width])
    np.matmul(normals, table[:n, :width], out=table[n:, :width])
    signed = ages_gens = None
    if zonotope:
        signed = table[:, :width].copy()
        # generators of every age, oldest first: a live window is a tail
        ages_gens = signed[:n].reshape(n, span + 1, n)[:, ::-1].reshape(n, -1)
    np.abs(table, out=table)
    centres = _orbit(p, c0[:, None], horizon + 1).T.copy()
    abs_c = np.abs(centres)
    q = np.empty((horizon + 1, table.shape[0]))
    # ages[:, i] is the table from column i on: ages[:, m n, :L] pairs
    # the history h_t0..h_0 (L = (t0 + 1) n) with the ages of step t0 + m
    ages = sliding_window_view(table, width, axis=1)
    inchunk = _inchunk_table(table, lr, n, chunk)
    if not np.all(np.isfinite(inchunk)):
        # a block that overflows would meet the zero blocks of steps not
        # yet run (inf * 0 = nan) and spoil finite steps: one step a chunk
        chunk = 1
    # a chunk's known |c| + q[:n], youngest first, then chunk - 1 zero
    # blocks: recent[(chunk - m) n, :(b - 1) n] is v_{m-1}, ..., v_0, 0, ...
    known = np.zeros(n * (2 * chunk - 1))
    recent = sliding_window_view(known, (chunk - 1) * n)
    # the history: at most span + 2 blocks, youngest first, ending at `end`
    end = n * (span + 2)
    buf = np.empty(end)
    buf[end - n:] = r0
    carried = carried_sums = None
    reduced_at = 0
    restart_count = n  # generators at the segment's first step
    # generator counts per step, allocated by the first _count_segment:
    # not beside an unreduced flowpipe's table, which sets its peak
    counts = None
    last = horizon + 1  # steps run
    bad = None  # a step whose set is unbounded, if the loop met one
    closed = 0  # steps whose supports N c + q[n:] replaced their q[n:]
    invariant = None
    # restart boxes (step, centre, radius) of an interval reduction
    restarts = ([(0, c0, r0)] if until is not None
                and reduction_method == "interval" else None)

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
        if until is not None:
            seg = slice(first_step, stop)
            q[seg, n:] += centres[seg] @ normals.T
            closed = stop
            if (np.any(q[seg, n:] >= until)
                    or _first_unbounded(centres[seg], q[seg]) is not None):
                last = stop
                break
        s = end - (t0 + 1) * n  # the live history at the reduction step
        if zonotope:
            # the live generators and radii, oldest first: the carried
            # block, then buf[s:] without its zero radii
            gens = ages_gens[:, ages_gens.shape[1] - (end - s):]
            radii = buf[s:].reshape(-1, n)[::-1].ravel()
            keep = radii != 0.0
            keep[:n] |= carried is None  # Theta, kept in full until reduced
            gens, radii = gens[:, keep], radii[keep]
            if carried is not None:
                block = carried[:, stop - reduced_at]
                gens = np.hstack((block, gens))
                radii = np.concatenate((np.ones(block.shape[1]), radii))
            block = _zono_reduce(centres[stop], gens * radii)
            if block is None:  # the set at the reduction step is unbounded
                bad, last = stop, min(stop + period, horizon + 1)
                break
            prods = (signed.reshape(-1, n) @ block).reshape(
                table.shape[0], span + 1, -1)  # (row, age, column)
            carried = prods[:n]
            carried_sums = np.abs(prods).sum(axis=2).T.copy()
            restart, next_count = 0.0, block.shape[1]
            reduced_at = stop
        else:
            hull = table[:n, :end - s] @ buf[s:]
            if restarts is not None:
                # restart boxes the step's box lies in, latest first; the
                # hull at a step whose segment fails the next check, say
                # not finite, is never compared against
                t1 = next((t for t, c, r in reversed(restarts)
                           if _inside(centres[stop], hull, c, r)), None)
                if t1 is not None:
                    invariant, last = (t1, stop), stop
                    break
                restarts.append((stop, centres[stop], hull))
            restart, next_count = hull, n
        counts = _count_segment(counts, horizon + 1, first_step, restart_count,
                                buf[s:end - n].reshape(t0, n))
        buf[end - n:] = restart
        restart_count = next_count

    # free the tables: from here on centres, abs_c, q and buf set the peak
    del table, ages, signed, ages_gens, inchunk, restarts, carried, carried_sums
    count = horizon + 1 if until is None else last
    # the same segments as above, so that a prefix is bitwise the same
    for seg_start in range(closed, count, period):
        seg = slice(seg_start, min(seg_start + period, count))
        q[seg, n:] += centres[seg] @ normals.T
    first = _first_unbounded(centres[:count], q[:count])
    if first is not None:
        bad = first if bad is None else min(bad, first)
    lo, hi = abs_c[:count], centres[:count]
    for i in range(n):  # by column: numpy buffers a copy of q[:, :n] whole
        np.subtract(hi[:, i], q[:count, i], out=lo[:, i])
        hi[:, i] += q[:count, i]
    sups = q[:count, n:].copy()
    del q
    s = end - (t0 + 1) * n  # the last segment's history
    counts = _count_segment(counts, horizon + 1, first_step, restart_count,
                            buf[s:end - n].reshape(t0, n))[:count]
    del buf
    if bad is not None:
        lo[bad:], hi[bad:], sups[bad:] = -np.inf, np.inf, np.inf
        # no generators are added to an unbounded set
        counts[bad + 1:] = counts[bad]
    return ReachResult(
        kind="numeric", method=method_name,
        labels=np.arange(count, dtype=np.float64), lo=lo, hi=hi,
        radii=np.zeros(count), gen_counts=counts,
        normals=normals, supports=sups,
        wall_time=time.perf_counter() - start, invariant=invariant,
        _recurrence=(m, theta, count - 1, reduction_method, reduction_period))


def _count_segment(counts: np.ndarray | None, size: int, first: int,
                   restart: int, fresh: np.ndarray) -> np.ndarray:
    """Write a segment's generator counts into counts[first:], allocating
    counts of `size` steps if None, and return counts.

    The segment starts at step `first` with `restart` generators, and each
    later step adds the nonzero radii of its fresh block; `fresh` holds
    those blocks as the history buffer does, youngest first, so its last
    row is the block of step first + 1.  Counts past `size` are dropped.
    """
    if counts is None:
        counts = np.empty(size, dtype=np.int64)
    seg = counts[first:first + len(fresh) + 1]
    seg[0] = restart
    # the count of nonzero radii per block, summed in the counts' int64
    np.add.reduce(fresh[::-1][:len(seg) - 1] != 0.0, axis=1, out=seg[1:])
    np.add.accumulate(seg, out=seg)
    return counts


def _inside(c2: np.ndarray, r2: np.ndarray, c1: np.ndarray,
            r1: np.ndarray) -> bool:
    """Whether the box c2 +- r2 lies inside c1 +- r1: |c2 - c1| + r2 <= r1,
    the difference and the sum each pushed one ulp up, so that rounding
    can refuse a containment but never grant one (NaN refuses too)."""
    d = np.nextafter(np.abs(c2 - c1), np.inf)
    return bool(np.all(np.nextafter(d + r2, np.inf) <= r1))


def _zono_reduce(centre: np.ndarray, gens: np.ndarray) -> np.ndarray | None:
    """Generators of a zonotope reduction of centre + gens c, |c| <= 1, to
    at most 2n columns, or None if the centre or gens are not all finite
    (gens scaled by a radius that is not finite are not finite either).

    Girard's order reduction (HSCC 2005): the n columns of largest
    Euclidean norm stay in index order, ties to the lower index, and the
    box of the rest becomes n axis columns.  Up to 2n columns stay as
    they are.
    """
    if not (np.all(np.isfinite(centre)) and np.all(np.isfinite(gens))):
        return None
    n = gens.shape[0]
    if gens.shape[1] <= 2 * n:
        return gens
    order = np.argsort(-np.linalg.norm(gens, axis=0), kind="stable")
    box = np.abs(gens[:, order[n:]]).sum(axis=1)
    return np.hstack((gens[:, np.sort(order[:n])], np.diag(box)))


def _first_unbounded(centres: np.ndarray, q: np.ndarray) -> int | None:
    """First step whose centre, or radii and supports q, are not all
    finite, else None."""
    # a sum that overflows only sends finite rows to the exact check
    if math.isfinite(centres.sum() + q.sum()):
        return None
    finite = np.isfinite(centres).all(axis=1) & np.isfinite(q).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def reach_with_perturbation(model: ModelSpec, pert: IntervalMatrix,
                            until_unsafe: bool = False) -> ReachResult:
    """Numeric flowpipe of the model with an explicit perturbation family.

    The supports of the model's unsafe normals are recorded at every step,
    so safety_check against model.unsafe reads them; other directions
    replay the recurrence (ReachResult.support).  With until_unsafe the
    flowpipe ends with the first segment (the steps up to a reduction,
    or to the horizon) in which a support reaches its offset or a set is
    unbounded: a bitwise prefix of the full flowpipe, which gives the
    same safety_check verdict against model.unsafe.  Under interval
    reduction it also ends before the first reduction step whose box
    lies inside Theta's or an earlier reduction step's box, every step
    before it safe: then `invariant` holds that pair of steps (t1, t2),
    every trajectory is at each step t >= t1 in the box of step
    t1 + (t - t1) mod (t2 - t1), and the verdict `safe` holds for all
    time, not only to the horizon.
    """
    if model.continuous:
        m = discretize(model.a, pert, model.step)
    else:
        m = _add_outward(model.a, pert)
    normals = np.array([hs.normal for hs in model.unsafe],
                       dtype=np.float64).reshape(-1, model.dim)
    until = (np.array([hs.offset for hs in model.unsafe], dtype=np.float64)
             if until_unsafe else None)
    return _run_recurrence(m, model.initial, model.horizon,
                           model.reduction_method, model.reduction_period,
                           method_name="numeric", normals=normals, until=until)


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
                   method: str = "kagstrom1") -> ReachResult:
    """Nominal flow exp(At) Theta with a bloating radius per time point.

    The radius delta(t) = phi(t) ||exp(At)||_2 max_{x in Theta} ||x||_2
    makes the padded set contain every perturbed trajectory point, since
    phi bounds the relative deviation of the perturbed exponential.

    times must be bitwise np.arange(K) * h, as ModelSpec.times builds
    it ([0.0] for K = 1), else ValueError.  The flows are the powers F_k
    of one step with error bounds E_k (_doubling_flows), and
    ||exp(A k h)||_2 <= sigma_max(F_k) plus the entry sum of E_k.  The
    sigma_max bound covers the rounding of its own evaluation
    (_sigma_max_bound), ||Theta|| is evaluated scaled (Box.max_norm), and
    the radius is scaled to cover the rounding of its own product; phi's
    own rounding is not covered.  The boxes are padded images
    (_padded_image), as ReachResult.support's are, and a radius beyond
    float range (phi saturated, or the flow or its error overflowed) is
    inf: unbounded, not proven safe.  The result keeps the flows, the pad
    and Theta, not one Star per point; safety_check reads its supports.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1:] != (theta.dim,):
        raise DimensionMismatch("initial box dimension must match the matrix")
    _require_finite(theta, "initial box must be finite")
    series = _bounds.bloat_series(a, pert, times, method)
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        flows, pad, err_sums = _doubling_flows(a, series.times, theta)
        radii = series.phi * (_sigma_max_bound(flows) + err_sums) * theta.max_norm()
        # phi (sigma + e) ||Theta|| (e the computed entry sum of E_k,
        # ||Theta|| = Box.max_norm a root of n squares) takes M = n/2 + 4
        # roundings to nearest: n/2 through the squares, their sum and the
        # root, then the root, sigma + e and two products; so it is at least
        # (1 - u)^M times its exact value, barring underflow.  The float
        # 1 + 2 j u, for the least j with 2 j > M + 1, covers that and its
        # own product when n < 10^8 (Higham, Accuracy and Stability, 3.1).
        radii *= 1.0 + 2 * ((theta.dim + 10) // 4 + 1) * _UNIT
        radii[~np.isfinite(radii)] = np.inf
        lo, hi = _padded_image(flows, theta, pad, radii, np.ones(theta.dim))
    return ReachResult(
        kind="symbolic", method=method, labels=series.times.copy(), lo=lo,
        hi=hi, radii=radii,
        gen_counts=np.full(series.times.shape, theta.dim, dtype=np.int64),
        flows=flows, flow_pad=pad, initial=theta,
        wall_time=time.perf_counter() - start, phi=series.phi.copy())


def _doubling_flows(a: np.ndarray, times: np.ndarray, theta: Box):
    """Flows of the grid times = np.arange(K) * h (else ValueError) as powers.

    The step P = expm(A h) is within E = max(M.hi - P, P - M.lo), pushed
    one ulp outward (a zero stays zero), of each member Q of M =
    interval_expm(A, h), and _orbit with error rows gives the flows F_k =
    P^k and E_k >= |Q^k - F_k|; exp(A h) is in M only up to the series'
    uncovered rounding, so E_k can miss |exp(A k h) - F_k|.  Returns the
    (K, n, n) flows, the (K, n) pads E_k max(|lo|, |hi|) of Theta and the
    (K,) entry sums of E_k, each at least ||E_k||_2, but not the E_k.

    Memory: the orbit holds the powers and the error rows, two arrays of
    the flows' size, and while a doubling of t of the K blocks forms its
    error rows one product of t blocks (_product_error).  So it peaks at
    2 + t/K flows arrays for the widest doubling, t <= K/2 (2.49 for
    K = 1001, 2.50 for 2051).  The error rows are reduced to the pads and
    sums and freed before the transposed copy of the powers is made.
    """
    count = len(times)
    h = float(times[1]) if count > 1 else 0.0
    if not (h > 0.0 or count < 2) or not np.array_equal(times, np.arange(count) * h):
        raise ValueError("symbolic times must be a grid np.arange(K) * h with h > 0")
    m = interval_expm(IntervalMatrix.from_point(a), h)
    step = scipy.linalg.expm(a * h)
    dist = np.maximum(m.hi - step, step - m.lo)
    step_err = np.where(dist == 0.0, 0.0, np.nextafter(dist, np.inf))
    n = a.shape[0]
    powers, errs = _orbit(step, np.eye(n), count, step_err)
    errs = errs.reshape(n, count, n)  # errs[i, k, j] = E_k[i, j]
    pad = (errs @ np.maximum(np.abs(theta.lo), np.abs(theta.hi))).T.copy()
    err_sums = errs.sum(axis=(0, 2))
    del errs
    flows = np.ascontiguousarray(powers.reshape(n, count, n).transpose(1, 0, 2))
    return flows, pad, err_sums


def _padded_image(rows, theta: Box, pad, radii, norms):
    """Bounds of rows[k] x over x in Theta, rows (K, r, n): each row, a
    point, times Theta (_endpoint_product), sums of the smaller (larger)
    of m_ij lo_j, m_ij hi_j; widened by pad (K, r) and then by radii[k]
    norms[j], norms (r,) the 2-norms of the directions that the rows look
    along; -inf, inf where radii[k] is inf.  Every entry is summed as a
    whole, so a chunk of steps gets the bits of the whole grid.  Callers
    run it with overflow and invalid ignored."""
    flat = rows.reshape(-1, rows.shape[-1])
    lo, hi = (b.reshape(rows.shape[:-1]) for b in _endpoint_product(
        flat, flat, theta.lo[:, None], theta.hi[:, None]))
    lo -= pad
    hi += pad
    # the ball radii[k] norms[j] line by line along the longer axis: a
    # (K, r) product would take numpy's broadcast buffers besides
    along_steps = len(radii) >= len(norms)
    for i, scale in enumerate(norms if along_steps else radii):
        ball = (radii if along_steps else norms) * scale
        line = (slice(None), i) if along_steps else i
        lo[line] -= ball
        hi[line] += ball
    lo[np.isinf(radii)], hi[np.isinf(radii)] = -np.inf, np.inf
    return lo, hi


def safety_check(result: ReachResult, halfspaces) -> SafetyVerdict:
    """First step whose set meets an unsafe half-space, scanning in order.

    A half-space (normal, offset) is violated at a step unless the support
    of the step's set in direction normal is below offset, so an inf or
    NaN support is a violation (not proven safe).  Supports come from
    ReachResult.support: recorded rows, symbolic padded images, or one
    replay of the numeric recurrence in the half-spaces' normals.
    """
    halfspaces = tuple(halfspaces)
    if not halfspaces:
        return SafetyVerdict(safe=True)
    offsets = np.asarray([hs.offset for hs in halfspaces])
    sups = result.support(np.vstack([hs.normal for hs in halfspaces]))
    hit = ~(sups < offsets)
    if not hit.any():
        return SafetyVerdict(safe=True)
    k, j = (int(i) for i in np.argwhere(hit)[0])  # row-major order
    return SafetyVerdict(safe=False, step=k, halfspace=j,
                         support=float(sups[k, j]))
