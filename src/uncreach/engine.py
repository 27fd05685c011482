"""Reachability pipelines for linear systems with interval uncertainty.

Numeric route: the one-step family M is A (+) Lambda, the perturbation
family added to A and pushed outward where the sum rounds, or for a
continuous model interval_expm(A (+) Lambda, h).  M is enclosed in
P +- Lr, P its centre, and the star recurrence

    R_0 = Theta,    R_k = P R_{k-1}  (+)  box([-Lr, Lr] R_{k-1})

has a k-th set that contains x_k = F^k x_0 for every fixed F in M and
x_0 in Theta.  Each set is a centred zonotope whose centre and
generators P^a e_i follow the point map, the generators scaled by a
history of radii.  For a general family a table of |P^a| rows, built
once per flowpipe, maps that history to boxes, supports and fresh radii,
and a few batched products advance it by a chunk of steps (_Tables).
For a family whose centre P is monotone with respect to an orthant
(_orthant_signature), |P^a| = |P|^a, and the box radii follow one linear
recurrence, run once over every step as a doubling scan with no table
(_Monotone); P alone picks the path.  It runs on S, the components that
can carry a radius; the others keep their centres as their boxes.  Its
phases: _Tables or _Monotone advances a segment and boxes at its end,
_segments picks one and finishes each segment once (its supports, stop
test and generator count), and _flowpipe assembles the boxes.
Symbolic route: the nominal flow exp(At) Theta padded by a bloating
radius from a closed-form bound, the flows a chunk of steps at a time
(see symbolic_reach).
"""

from __future__ import annotations

import math
import numbers
import time
import types
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import bounds as _bounds
from ._expm import expm
from .errors import DimensionMismatch
from .intervals import (_TINY, _UNIT, Box, IntervalMatrix, _add_outward,
                        _centre_radius, _chained, _endpoint_product,
                        _frobenius, _gamma, _product_error, _require_finite,
                        _CHUNK_ENTRIES, _row_chunks, _sigma_max_bound, _square,
                        interval_expm)

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


def _perturbation(a: np.ndarray, cells) -> IntervalMatrix:
    """Lambda from A's CellUncertainty cells, outward: a relative cell's entry
    is [-r, r], r = fl(relative |a|) pushed one ulp up wherever relative
    |a| > 0, even where fl gives 0; an interval cell's is (-a) (+) [lo, hi]
    (_add_outward); every other entry is +0.0."""
    lo, hi, r = a.copy(), a.copy(), np.zeros(a.shape)
    for cell in cells:
        i, j = cell.row, cell.col
        if cell.interval is not None:
            lo[i, j], hi[i, j] = cell.interval
        elif cell.relative and a[i, j]:
            r[i, j] = math.nextafter(cell.relative * abs(float(a[i, j])), math.inf)
    lam = _add_outward(-a, IntervalMatrix(lo, hi))  # +0.0 where lo = hi = a
    return IntervalMatrix(lam.lo - r, lam.hi + r)


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

    def perturbation(self) -> IntervalMatrix:
        """Perturbation part Lambda, +0.0 outside the listed cells (_perturbation)."""
        return _perturbation(self.a, self.uncertainty)

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
               past the symbolic route's bounded prefix, below)
    gen_counts : generator count per step: the numeric set's columns, or
               dim on the symbolic route (F_k Theta has dim)
    normals  : (k, dim) directions whose supports the numeric recurrence
               recorded (the model's unsafe normals), or None
    supports : (steps, k) support values in those directions, or None
    initial  : symbolic route: the initial box Theta; else None
    phi      : symbolic route: the method's bound per step
               (BloatSeries.phi): the relative deviation phi(t) for
               kagstrom1 and kagstrom2, the radius being
               phi ||exp(At)||_2 max ||Theta||, and the absolute
               deviation psi(t) for loan, the radius being
               psi max ||Theta||; else None
    invariant : numeric route with until_unsafe: (t1, t2), the steps of
               two restart boxes, the box of t2 inside that of t1, when
               the flowpipe stopped at t2 with every step before it safe:
               every trajectory is at step t >= t1 in the box of step
               t1 + (t - t1) mod (t2 - t1), safe for all time; else None
    _recurrence : numeric route: the O(n^2) inputs of the recurrence (the
               one-step family M, Theta, the horizon and the reduction
               policy), which `support` replays in directions it did not
               record; else None
    _flows   : symbolic route: the O(n^2) inputs of the flows F_k
               (_flow_chunks: the step P, its error, the error columns v,
               the chunk length and the steps run), which `support`
               replays with `initial` and `radii`; else None, as in a window

    Either route is bounded on a prefix of its steps (_first_unbounded):
    the first step at which a value it computes is not finite (numeric: a
    centre, radius or support; symbolic: phi, a flow, its pad, the radius
    or the padded box) and every later one have box -inf/inf and
    supports inf, and on the symbolic route radius inf.  Neither route
    stores a per-step set or flow: a result holds O(steps n) rows and
    O(n^2) replay inputs.
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
    initial: Box | None = None
    wall_time: float = 0.0
    phi: np.ndarray | None = None
    invariant: tuple[int, int] | None = None
    _recurrence: tuple | None = field(default=None, repr=False)
    _flows: tuple | None = field(default=None, repr=False)

    @cached_property
    def boxes(self) -> list[Box]:
        """Bounding box per step, built from lo/hi on first access."""
        return [Box(lo, hi) for lo, hi in zip(self.lo, self.hi)]

    def __len__(self) -> int:
        return len(self.labels)

    def support(self, dirs) -> np.ndarray:
        """(steps, k) supports of the flowpipe in the k rows of dirs.

        A direction e_i or -e_i is read from hi[:, i] or -lo[:, i] (negated
        into its output column in place), and a recorded direction from
        `supports`; the others are computed once, together
        (_computed_support); a window's result raises ValueError.
        """
        dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        if dirs.ndim != 2 or dirs.shape[1] != self.lo.shape[1]:
            raise DimensionMismatch("directions must match the flowpipe")
        axis, entry = _axes(dirs)
        recorded = np.full(len(dirs), -1)
        if self.normals is not None and len(self.normals):
            match = np.all(dirs[:, None, :] == self.normals[None, :, :], axis=2)
            recorded = np.where(match.any(axis=1), match.argmax(axis=1), -1)
        rest = np.flatnonzero((axis < 0) & (recorded < 0))
        if 0 < len(rest) == len(dirs):
            return self._computed_support(dirs)
        out = np.empty((len(self), len(dirs)))
        for j, (i, r) in enumerate(zip(axis, recorded)):
            if i >= 0 and entry[j] > 0:
                out[:, j] = self.hi[:, i]
            elif i >= 0:  # -lo written in place, not through a fresh column
                np.multiply(self.lo[:, i], -1.0, out=out[:, j])
            elif r >= 0:
                out[:, j] = self.supports[:, r]
        if len(rest):
            out[:, rest] = self._computed_support(dirs[rest])
        return out

    def _computed_support(self, dirs: np.ndarray) -> np.ndarray:
        """(steps, k) supports in the k rows of dirs, none read off.

        Both routes replay their O(n^2) inputs and keep the rule of
        _first_unbounded: from the first step at which one of the
        supports is not finite, every support is inf.  A numeric result
        replays its recurrence once with exactly `dirs` as normals: one
        more pass in O(steps (n + k)) memory, the same boxes.  A symbolic
        result replays its flows F_k chunk by chunk (_flow_chunks) up to
        the last step of finite radius, and gives the upper bounds of the
        images of Theta under the rows d F_k (_endpoint_product), padded by
        pad_k @ |d|: about _CHUNK_ENTRIES image entries at a time, so no
        (steps, k, n) image exists, and each step the bits the boxes get.
        """
        if self._flows is None:
            if self._recurrence is None:
                raise ValueError("a window of a longer run keeps no replay inputs")
            return _run_recurrence(*self._recurrence, self.method, dirs).supports
        out = np.full((len(self), len(dirs)), np.inf)
        end = _first_unbounded(self.radii)
        end = len(self) if end is None else end
        norms, mags = _frobenius(dirs, axis=1), np.abs(dirs).T
        with np.errstate(over="ignore", invalid="ignore"):
            for k, flows, errs in _flow_chunks(*self._flows):
                if k.start >= end:
                    break
                stop = min(len(flows), end - k.start)
                flows, pads = flows[:stop], errs[:stop, :, 0] @ mags
                for j in _row_chunks(len(flows), dirs.size):
                    rows = slice(k.start + j.start, k.start + min(j.stop, len(flows)))
                    images = dirs @ flows[j]
                    np.add(_endpoint_product(images, images, self.initial.lo,
                                             self.initial.hi)[1], pads[j], out=out[rows])
                    out[rows] += np.multiply.outer(self.radii[rows], norms)
            unbounded = _first_unbounded(out)
        if unbounded is not None:
            out[unbounded:] = np.inf
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
    sum pushed outward where it rounds (intervals._add_outward, the
    package's one interval sum).  interval_expm
    scales and squares where ||A (+) Lambda||_F h > 1; an entry that
    leaves float range there is (-inf, inf), and a flowpipe of such an M
    is unbounded from step 1.
    """
    lam = _add_outward(a, pert)
    if not (h > 0) or not math.isfinite(h):
        raise ValueError("step must be positive")
    return interval_expm(lam, h)


def _orbit(a: np.ndarray, x0: np.ndarray, count: int,
           a_err: np.ndarray | None = None, v: np.ndarray | None = None,
           out: np.ndarray | None = None, steps: list | None = None):
    """a^0 x0, a^1 x0, ..., a^(count-1) x0 side by side, by doubling.

    For x0 of shape (n, w) the result is (n, count * w), written into
    `out` if given.  Given a_err, a bound on |A - a|, and v, (w, m) and
    nonnegative, it returns (powers, errs): errs[k], (m, n), holds in row
    c a bound on |A^k x0 - F_k| v_c, F_k block k of powers and v_c
    column c of v (x0 is exact, so errs[0] is zero).  A doubling by the
    step S = fl(a^d), within S_err of A^d, writes F_(d+j) = fl(S F_j) and
    carries
        |A^(d+j) x0 - F_(d+j)| v_c <= |S| e_j + S_err (|F_j| v_c + e_j)
                                      + gamma_n |S| |F_j| v_c,
    e_j >= |A^j x0 - F_j| v_c, for all of its blocks and columns at once
    by _product_error, given sizes x >= |F_j| v (_vector_sizes) and the
    largest column sum of v; each squaring carries S_err (_square).  A
    doubling reads blocks j < count / 2 only, so only those keep sizes:
    the bounds hold 1.5 m n numbers per block besides the powers' n w.
    They are stored block by block, so a doubling's operands are
    contiguous and no ufunc buffers them.  Given a list `steps`, the
    last step taken, a^d with its error (a_err's squarings), d the
    largest power of two below count, is appended to it.
    """
    n, w = x0.shape
    if out is None:
        out = np.empty((n, count * w))
    out[:, :w] = x0
    errs = None
    if a_err is not None:
        m = v.shape[1]
        v_sum = float(v.sum(axis=0).max())
        errs = np.zeros((count, m, n))
        half = count // 2  # a doubling of take <= count / 2 blocks reads these
        sizes = np.empty((half, m, n))
        _vector_sizes(out[:, :w], v, sizes[:1])
    done, step, step_err = 1, a, a_err  # step = a^done, within step_err
    while done < count:
        take = min(done, count - done)
        src, dst = slice(0, take * w), slice(done * w, (done + take) * w)
        np.matmul(step, out[:, src], out=out[:, dst])
        if errs is not None:
            # the blocks' m vectors as the columns of (n, take m) views
            _product_error(step, step_err, sizes[:take].reshape(-1, n).T,
                           errs[:take].reshape(-1, n).T,
                           errs[done:done + take].reshape(-1, n).T, v_sum)
            if done < half:
                stop = min(done + take, half)
                _vector_sizes(out[:, done * w:stop * w], v, sizes[done:stop])
        done += take
        if done < count:
            step, step_err = _square(step, step_err)
    if steps is not None:
        steps.append((step, step_err))
    return out if errs is None else (out, errs)


def _vector_sizes(blocks: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """Write into out[j], (m, n), an upper bound on (|F_j| v)^T for each
    (n, w) block F_j of blocks, (n, b w), and v (w, m) >= 0.

    X = fl(|F_j| v), one product for a chunk of about _CHUNK_ENTRIES
    entries of blocks (_row_chunks), is at least (1 - gamma_w) |F_j| v
    less w etas of at most 2^-1075 each (Higham, Accuracy and Stability
    of Numerical Algorithms, 2.1 and 3.5), however the BLAS orders its
    sums.  X (1 + gamma_(w+4)) + (w + 1) 2^-1074, the constant and both
    operations rounded to nearest, covers that and its own roundings for
    w < 10^7, so it is at least |F_j| v.
    """
    n, (w, m) = blocks.shape[0], v.shape
    grid = blocks.reshape(n, -1, w)
    for j in _row_chunks(grid.shape[1], n * w):
        x = np.abs(grid[:, j])
        out[j] = (x.reshape(-1, w) @ v).reshape(n, -1, m).transpose(1, 2, 0)
    out *= 1.0 + _gamma(w + 4)
    out += (w + 1) * 2.0 ** -1074


def _chunk_steps(k: int) -> int:
    """Steps one chunk of the recurrence advances: about 128 radii, k a
    block."""
    return max(1, 128 // k)


def _inchunk_table(table: np.ndarray, lr: np.ndarray, coupling: np.ndarray,
                   chunk: int) -> np.ndarray:
    """Blocks W_d Lr, W_d = sum_{a+b=d} T_a V_b, for d < chunk - 1.

    T_a is the table block of age a (k box rows, then the normals') and
    V_b the first block column of (I - K)^-1, the in-chunk coupling of
    fresh blocks inverted: V_0 = I, V_b = sum_{s<b} L T_{b-1-s}[:k] V_s
    = L W_{b-1}[:k], L = coupling, Lr's columns of S (Lr itself when S
    holds every component).  So a chunk whose known history gives |c| +
    q = v_0, v_1, ... (n-vectors, q on S) gets sum_{s<m} W_{m-1-s} Lr
    v_s from its own blocks at its step m.  One product per block; every
    entry is a sum of nonnegative products.  The box rows come first in
    products of their own, which give V; the normals' rows follow, so the
    box rows' bits do not depend on the normals.
    """
    k, n = lr.shape
    cols = (chunk - 1) * k
    w = np.empty((len(table), (chunk - 1) * n))
    v = np.empty((cols, n))  # V_b Lr at rows cols - b k, youngest first
    for part in (slice(0, k), slice(k, len(table))):
        rows = table[part]
        if not len(rows):
            continue
        w[part] = (rows[:, :cols].reshape(-1, k) @ lr).reshape(len(rows), -1)
        for d in range(chunk - 1):
            if d:
                w[part, d * n:(d + 1) * n] += rows[:, :d * k] @ v[cols - d * k:]
            if part.start == 0:  # the box rows give V
                v[cols - (d + 1) * k:cols - d * k] = coupling @ w[:k, d * n:(d + 1) * n]
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
    never move.  The phases are _flowpipe, _segments and _Tables or
    _Monotone; each frees what it allocates by returning; its callers
    judge its inputs.
    """
    start = time.perf_counter()
    # labels and radii are allocated once _flowpipe has freed q
    lo, hi, sups, counts, invariant = _flowpipe(
        m, theta, horizon, reduction_method, reduction_period, normals, until)
    count = len(lo)
    return ReachResult(
        kind="numeric", method=method_name,
        labels=np.arange(count, dtype=np.float64), lo=lo, hi=hi,
        radii=np.zeros(count), gen_counts=counts,
        normals=normals, supports=sups,
        wall_time=time.perf_counter() - start, invariant=invariant,
        _recurrence=(m, theta, count - 1, reduction_method, reduction_period))


def _flowpipe(m: IntervalMatrix, theta: Box, horizon: int, reduction_method: str,
              reduction_period: int, normals: np.ndarray, until: np.ndarray | None):
    """lo, hi, supports, generator counts and invariant of the recurrence:
    it sets up S, q and the history, _segments finishes each segment, and
    it assembles the boxes.  From the first step whose centre, radii or
    supports are not finite (a support N c + q can overflow where c and q
    do not), the boxes are -inf/inf, the supports inf, and no generators
    are added.

    The recurrence runs on S, the components that can carry a radius
    (_radius_components, an index: a slice when they are consecutive, as
    every component is): the table (or _Monotone's G), the history, the
    fresh blocks and the counts hold |S| radii a block, and P, Lr,
    Theta's radius and the non-axis normals are cut to S (a radius
    outside S is zero, and no chain of P joins a component outside S to
    one inside, so the rows of S see nothing of the others but their
    centres |c|, which enter the fresh blocks through Lr's columns).  A
    component outside S has q = 0: its box is its centre and an axis
    normal on it reads the centre.

    It owns each array of one row per step, once (the centres, q with
    |S| columns plus one per table row of a non-axis normal, and through
    _segments the counts and the supports) and the history buffer, which
    goes before lo exists.  hi is written over the centres, so a cut
    result's hi, supports and gen_counts are leading slices of
    horizon-length buffers.
    """
    n = theta.dim
    p, lr = _centre_radius(m.lo, m.hi)
    radius = theta.radius
    period = reduction_period if reduction_method != "none" else horizon + 1
    distinct, cols = _table_rows(normals)
    centres = _orbit(p, theta.center[:, None], horizon + 1).T.copy()
    at = _radius_components(p, lr, radius)
    # copies on S: views would keep their bases alive, a peak's few objects
    p, lr, distinct, radius = (p[at][:, at].copy(), lr[at].copy(),
                               distinct[:, at].copy(), radius[at].copy())
    k = len(p)
    # q's column for each component, -1 outside S, then the normals' rows
    place = np.arange(n + len(distinct)) - (n - k)
    place[:n] = -1
    place[at] = np.arange(k)
    cols = place[cols]
    q = np.empty((horizon + 1, k + len(distinct)))
    # the history: at most span + 2 blocks, span = min(horizon, period)
    end = k * (min(horizon, period) + 2)
    buf = np.empty(end)
    buf[end - k:] = radius
    counts, sups, count, bad, invariant = _segments(
        p, lr, at, distinct, centres, q, buf, period, reduction_method,
        normals, cols, until)
    del buf  # the history goes before lo
    counts, sups = counts[:count], sups[:count]
    lo, hi = np.empty((count, n)), centres[:count]
    for i, j in enumerate(place[:n].tolist()):  # by column: numpy buffers a copy of q whole
        if j < 0:  # q = 0, and c + 0 rounds a zero as the supports' sums do
            hi[:, i] += 0.0
            lo[:, i] = hi[:, i]
            continue
        np.subtract(hi[:, i], q[:count, j], out=lo[:, i])
        hi[:, i] += q[:count, j]
    if bad is not None:
        lo[bad:], hi[bad:], sups[bad:] = -np.inf, np.inf, np.inf
        counts[bad + 1:] = counts[bad]
    return lo, hi, sups, counts, invariant


def _radius_components(p: np.ndarray, lr: np.ndarray,
                       radius: np.ndarray) -> slice | np.ndarray:
    """S, the components that can ever carry a radius, in order, as an
    index: a slice when they are consecutive, else their indices.

    A fresh block is Lr (|c| + q), so a fresh radius can be nonzero only
    on a nonzero row of Lr, and Theta's only where Theta is wide.  A
    generator P^a e_j r_j reaches component i only by a chain of nonzero
    entries of P from i to j (_chained), so S is those components and
    every component with such a chain to one of them.  An empty S runs
    on every component, its radii all zero.
    """
    carries = (radius != 0.0) | lr.any(axis=1)
    if carries.all() or not carries.any():
        return slice(0, len(p))
    carries |= _chained(p != 0.0)[:, carries].any(axis=1)
    at = np.flatnonzero(carries)
    first, last = int(at[0]), int(at[-1])
    return slice(first, last + 1) if last - first == len(at) - 1 else at


def _segments(p: np.ndarray, lr: np.ndarray, at: slice | np.ndarray,
              distinct: np.ndarray, centres: np.ndarray, q: np.ndarray,
              buf: np.ndarray, period: int, reduction_method: str,
              normals: np.ndarray, cols: np.ndarray, until: np.ndarray | None):
    """Finish each segment once, from step 0 or a reduction step up to the
    next reduction step or the horizon: advance it, write its supports
    (one product per segment, so that a cut result is a bitwise prefix
    of the full one), test them under `until`, count it (_count_segment)
    and reduce.  A zonotope reduction keeps as many of the live
    generators, counts[stop], as _girard_kept says; the phases only box.
    The phase object goes before the last count, and before the supports
    get their array when the first segment is the last.

    Returns the counts and the supports, of horizon + 1 rows each, the
    steps to keep, the first unbounded step and the invariant.  Given
    `until`, one offset per normal, the recurrence stops after a segment
    that reaches an offset or is not finite, and at an interval reduction
    step whose box lies in an earlier restart box (_restart_inside);
    without it, the rows written are tested once, at the end.  It stops
    at a zonotope reduction step whose live set is not finite.  p, lr,
    distinct and the history are on S, the components `at` (see
    _flowpipe).

    The phases that advance and reduce are picked once, from P on S
    alone: _Monotone where P has an orthant signature
    (_orthant_signature), else _Tables.  Both write the same q, fresh
    blocks and restart boxes up to rounding, so one loop runs and counts
    either; the normals never pick, so the boxes do not depend on them,
    and a replay in other directions takes the result's path.
    """
    (k, n), horizon, end = lr.shape, len(centres) - 1, len(buf)
    span, zonotope = min(horizon, period), reduction_method == "zonotope"
    d = _orthant_signature(p)
    if d is None:
        tables = _Tables(p, lr, distinct, span, zonotope, at)
    else:
        tables = _Monotone(p, lr, distinct, span, zonotope, at, d)
    counts = sups = bad = invariant = None
    restart_count, boxed, last = k, True, horizon + 1  # Theta's box
    restarts = None  # restart boxes (step, centre, radius), from Theta's
    if until is not None and reduction_method == "interval":
        restarts = []
        _restart_inside(restarts, 0, centres[0], buf[end - k:], at)
    for first in range(0, horizon + 1, period):
        stop = min(first + period, horizon + 1)
        tables.advance(centres, q, buf, first, stop)
        if stop > horizon:  # its arrays go before the last count and the supports
            tables = None
        if sups is None:
            sups = np.empty((horizon + 1, len(normals)))
        seg = slice(first, stop)
        _segment_supports(centres[seg], q[seg], normals, cols, sups[seg])
        if until is not None:
            unbounded = _first_unbounded(centres[seg], q[seg], sups[seg])
            if unbounded is not None:
                bad = first + unbounded
            if unbounded is not None or np.any(sups[seg] >= until):
                last = stop
        live = buf[end - (stop - first + 1) * k:]  # the history at step `stop`
        counts = _count_segment(counts, horizon + 1, first, restart_count,
                                live[:len(live) - k].reshape(stop - first, k))
        if stop == last:  # the horizon, or `until` met
            break
        # an interval reduction keeps none and boxes all
        kept, boxes = _girard_kept(int(counts[stop]), n) if zonotope else (0, True)
        box = tables.reduce(live, centres[stop], kept, boxed)
        if box is None:
            bad = stop
            if until is not None:  # a cut result ends with the next segment
                last = min(stop + period, horizon + 1)
            break
        if restarts is not None:
            t1 = _restart_inside(restarts, stop, centres[stop], box, at)
            if t1 is not None:
                invariant, last = (t1, stop), stop
                break
        buf[end - k:], boxed, restart_count = box, boxes, kept + k * boxes
    if until is None:  # every row written is before `stop`, and bad >= stop
        unbounded = _first_unbounded(centres[:stop], q[:stop], sups[:stop])
        if unbounded is not None:
            bad = unbounded
    return counts, sups, last, bad, invariant


def _windows(x: np.ndarray, width: int) -> np.ndarray:
    """Read-only windows of `width` entries along the last axis of a
    C-contiguous x, one starting at each entry, as numpy's
    sliding_window_view gives them; built by the ndarray constructor,
    as that Python wrapper's keyword calls keep about 270 B of traced
    memory each."""
    shape = x.shape[:-1] + (x.shape[-1] - width + 1, width)
    out = np.ndarray(shape, x.dtype, x, 0, x.strides + x.strides[-1:])
    out.flags.writeable = False
    return out


class _Tables:
    """One flowpipe's tables and the phases that read them (advance, reduce),
    for any family; _Monotone serves orthant-monotone ones without a table
    (_segments picks one).

    They work on S, the k components `at` that can carry a radius (see
    _flowpipe): P is P restricted to S, and Lr its rows of S, (k, n).
    `table` stacks for each age a up to the span (the reduction period
    or the horizon), youngest first, the blocks T_a of rows |P^a|, the
    box rows, and |d P^a| for the distinct non-axis normals d
    (_table_rows).
    `ages` holds its windows of span + 2 - chunk ages, one starting at
    each of the chunk's first ages: advance runs a segment's remainder
    chunk first, so every chunk's history fits them and no zero blocks
    pad the table.  The radius history h, k radii a block, lives in one
    flat buffer, youngest block first, written at a decreasing offset.
    Step j's row q_j = sum_a T_a h_{j-a} gives the box c_j +- q_j[:k] on
    S, the supports (_segment_supports) and the next fresh block
    h_{j+1} = Lr (|c_j| + q_j[:k]), q_j[:k] added to |c_j| on S.  The
    box rows are summed in products of their own, whose shapes do not
    depend on the normals, so neither do the boxes' bits.  A zonotope
    reduction's kept block C lives on as `carried`, its (k, c) image at
    the period's age, the (k, 0) block at first, and `carried_sums`.
    """

    # no instance dict beside the tables, which set an unreduced run's peak
    __slots__ = ("table", "lr", "at", "parts", "ages", "inchunk", "chunk",
                 "known", "recent", "signed", "carried", "carried_sums")

    def __init__(self, p: np.ndarray, lr: np.ndarray, distinct: np.ndarray,
                 span: int, zonotope: bool, at: slice | np.ndarray = slice(None)):
        k, n = lr.shape
        chunk = min(_chunk_steps(k), span + 1)
        width = (span + 1) * k
        table = np.empty((k + len(distinct), width))
        # P^0 = I in place, its diagonal a strided slice of the flat table
        eye = table[:k, :k]
        eye.fill(0.0)
        table.reshape(-1)[:k * width:width + 1] = 1.0
        _orbit(p, eye, span + 1, out=table[:k])
        np.matmul(distinct, table[:k], out=table[k:])
        self.signed = table.copy() if zonotope else None
        self.carried, self.carried_sums = np.empty((k, 0)), None
        np.abs(table, out=table)
        self.table, self.lr, self.at = table, lr, at
        # the box rows, then the normals' rows, each part summed alone
        self.parts = ((slice(0, k), slice(k, len(table))) if len(distinct)
                      else (slice(None),))
        self.inchunk = _inchunk_table(table, lr, lr[:, at], chunk)
        if not np.all(np.isfinite(self.inchunk)):
            # a block that overflows would meet the zero blocks of steps not
            # yet run (inf * 0 = nan) and spoil finite steps: one step a chunk
            chunk = 1
        self.chunk = chunk
        # ages[:, i] is the table from column i on: ages[:, m k, :L] pairs
        # the history h_t0..h_0 (L = (t0 + 1) k) with the ages of step t0 + m
        self.ages = _windows(table, width - (chunk - 1) * k)
        # a chunk's |c| + q on S, youngest first, then chunk - 1 zero
        # blocks: recent[(chunk - m) n, :(b - 1) n] is v_{m-1}, ..., v_0, 0, ...
        self.known = np.zeros(n * (2 * chunk - 1))
        self.recent = _windows(self.known, (chunk - 1) * n)

    def advance(self, centres: np.ndarray, q: np.ndarray, buf: np.ndarray,
                first: int, stop: int) -> None:
        """Write q's rows first .. stop - 1 and the fresh blocks after them,
        a chunk of _chunk_steps(k) steps at a time, the remainder chunk
        first: a later chunk of b steps from step t0 has t0 + b <= span +
        1, so its history fits the windows of ages.  The fresh blocks obey
        a linear recurrence, so a chunk from step t0 on takes three batched
        operations, each a sum of nonnegative products, each over the box
        rows and the normals' rows apart:
        1. q from the history known before the chunk, h_t0 back to the
           oldest block, times read-only sliding windows of the table: one
           window per step, starting at the age h_t0 has at that step;
        2. q from the chunk's own blocks, (I - K)^-1 Lr v for v = |c| + q[:k]
           from step 1 and the in-chunk coupling K: windows of v times the
           table of _inchunk_table, which folds in (I - K)^-1 Lr;
        3. the fresh blocks Lr (|c| + q[:k]), |c| taken from the centres.
        q[:k] is added to |c| on S's columns in place.
        """
        ages, inchunk, known, recent = self.ages, self.inchunk, self.known, self.recent
        chunk, lr, sums, parts = self.chunk, self.lr, self.carried_sums, self.parts
        at = self.at
        (k, n), end = lr.shape, len(buf)
        t0, b = 0, (stop - first - 1) % chunk + 1  # steps done, chunk steps
        while first + t0 < stop:
            j = first + t0
            s = end - (t0 + 1) * k  # h_t0, the youngest known block
            rows = q[j:j + b]
            windows = ages[:, :(b - 1) * k + 1:k, :end - s].transpose(1, 0, 2)
            for part in parts:  # (m, row, col) windows
                np.matmul(windows[:, part], buf[s:], out=rows[:, part])
            if sums is not None:
                rows += sums[t0:t0 + b]
            mags = np.abs(centres[j:j + b])
            if b > 1:
                v = known[(chunk - b) * n:chunk * n].reshape(b, n)  # youngest first
                v[...] = mags[::-1]
                v[:, at] += rows[::-1, :k]
                windows = recent[(chunk - b + 1) * n:chunk * n + 1:n, :(b - 1) * n]
                for part in parts:
                    rows[:, part] += np.matmul(inchunk[part, :(b - 1) * n],
                                               windows[::-1, :, None])[:, :, 0]
            mags[:, at] += rows[:, :k]
            np.matmul(mags, lr.T, out=buf[s - b * k:s].reshape(b, k)[::-1])
            t0, b = t0 + b, chunk

    def reduce(self, live: np.ndarray, centre: np.ndarray, kept: int,
               boxed: bool) -> np.ndarray | None:
        """The box the history restarts from at a reduction step with
        history `live`, whose oldest block is a box if `boxed`; None if a
        zonotope reduction's set is not finite.

        Every reduction keeps some of the live generators, the carried
        block C, and boxes the rest: |P^a| times the history radii it
        drops, one table product, plus the absolute row sums of the
        columns of C it drops.  An interval reduction keeps none: its box
        is the hull radius on S.  A zonotope reduction keeps the `kept`
        live generators (_segments decides) of largest Euclidean norm, in
        order, ties to the earlier; if there are no more, all of them,
        and the history restarts from zero.  The live generators, oldest first, are C at the
        period's age, then the history's P^a e_i r_i: its oldest block
        in full if a box, the later ones without their zero radii.  C's
        rows at each later age, P^a C and d P^a C, come from one product
        for the box rows and one for the normals'; advance adds their
        absolute row sums to q.  `carried` keeps a copy of the box rows'
        image at the period's age alone, the C the next reduction reads.
        """
        k = len(self.lr)
        dropped, rest = live, 0.0  # an interval reduction keeps none
        if self.signed is not None:
            # the history's entries with a generator, oldest block first
            cols = np.arange(len(live)).reshape(-1, k)[::-1].ravel()
            live_cols = live[cols] != 0.0
            live_cols[:k] |= boxed
            cols = cols[live_cols]
            carried = self.carried
            gens = np.hstack((carried, self.signed[:k, cols] * live[cols]))
            if not (np.all(np.isfinite(centre)) and np.all(np.isfinite(gens))):
                return None
            keep = np.arange(gens.shape[1])
            if kept < len(keep):
                norms = np.linalg.norm(gens, axis=0)
                keep = np.sort((-norms).argsort(kind="stable")[:kept])
            drop = np.ones(gens.shape[1], dtype=bool)
            drop[keep] = False
            c = carried.shape[1]
            gone = cols[drop[c:]]
            dropped = np.zeros(len(live))
            dropped[gone] = live[gone]
            rest = np.abs(carried[:, drop[:c]]).sum(axis=1)
            block, signed = gens[:, keep], self.signed
            sums = np.empty((signed.shape[1] // k, len(signed)))  # (age, row)
            for i, part in enumerate(self.parts):  # the box rows first
                prods = (signed[part].reshape(-1, k) @ block).reshape(
                    len(signed[part]), -1, block.shape[1])  # (row, age, column)
                if i == 0:  # the next reduction reads the period's age alone
                    self.carried = prods[:, -1].copy()
                np.abs(prods).sum(axis=2, out=sums[:, part].T)
            self.carried_sums = sums
        box = self.table[:k, :len(live)] @ dropped
        box += rest
        return box


def _orthant_signature(p: np.ndarray) -> np.ndarray | None:
    """A signature d in {+-1}^k with d_i d_j P_ij >= 0 for all i, j, or
    None if there is none.

    Such a P is monotone with respect to the orthant of d (Smith, Monotone
    Dynamical Systems, AMS 1995; Angeli & Sontag, IEEE TAC 48, 2003): D P D
    = |P| for D = diag(d), so P^a = D |P|^a D and |P^a| = |P|^a in real
    arithmetic.  Each nonzero entry P_ij links i and j with d_i d_j =
    sign P_ij: one breadth-first 2-colouring of the links finds d (each
    unlinked part from +1), and one check of every entry then refuses a
    negative diagonal entry, a pair P_ij, P_ji of opposite signs or an
    unbalanced cycle.
    """
    k = len(p)
    link = np.sign(p) + np.sign(p.T)  # the sign of d_i d_j where both agree
    d = np.zeros(k)
    for root in range(k):
        if d[root]:
            continue
        d[root], order = 1.0, [root]
        for i in order:  # grows as it runs: breadth first
            for j in np.flatnonzero(link[i]).tolist():
                if not d[j]:
                    d[j] = d[i] * (1.0 if link[i, j] > 0.0 else -1.0)
                    order.append(j)
    signed = np.multiply.outer(d, d)
    signed *= p
    return None if signed.min() < 0.0 else d


def _girard_kept(live: int, n: int) -> tuple[int, bool]:
    """How many of `live` generators a zonotope reduction in order n keeps
    (Girard, HSCC 2005), and whether it boxes the rest: all of them up
    to 2n, else n, the rest boxed into k more.  _segments decides once
    per reduction, for the table path and _Monotone's side run alike."""
    return (live, False) if live <= 2 * n else (n, True)


class _Monotone:
    """The phases of _Tables (advance, reduce) for an orthant-monotone
    family (_orthant_signature), from one linear recurrence and no table.

    As there, they work on S, the k components `at`; P is P restricted to
    S and Lr its rows of S, (k, n).  Since |P^a| = |P|^a, the hull radius
    q_j = sum_a |P|^a h_(j-a) of the history obeys q_j = |P| q_(j-1) + h_j,
    and with the fresh block h_j = Lr (|c_(j-1)| + q_(j-1)) it is
        q_j = G q_(j-1) + Lr |c_(j-1)|,    G = |P| + Lr[:, S] >= 0,
    from Theta's radius q_0.  A zonotope generator g = P^b e_i r has
    |P^a g| = |P|^(a+b) e_i r, so every reduction's box, the dropped
    generators boxed plus the kept ones carried on, is this same hull:
    each reduction method gives the unreduced boxes, and the method
    changes only the generator counts and the invariant stop.  So the
    rows do not restart at a reduction: the first advance scans every
    row once (_scan), each advance writes its segment's fresh blocks,
    and each reduction restarts from the row of its step.  A non-axis
    normal N one-signed after the signature d has support N c + |N| q,
    the table path's sum_a |N P^a| h, as |N P^a| = |N| |P|^a.  A normal
    of two signs after d has no such form, and a reduction's box does not
    give its support: the table path over those normals alone (`side`,
    a _Tables) runs beside, in a q and a history of its own, and writes
    their columns of q; the boxes stay the recurrence's.  Every sum has
    nonnegative terms; its rounding is not covered, as the table's is not
    (ROADMAP item 8).
    """

    __slots__ = ("g", "lr", "at", "norms", "zonotope", "next", "side", "side_cols",
                 "side_q", "side_buf")

    def __init__(self, p: np.ndarray, lr: np.ndarray, distinct: np.ndarray,
                 span: int, zonotope: bool, at: slice | np.ndarray, d: np.ndarray):
        self.g, self.lr, self.at = np.abs(p) + lr[:, at], lr, at
        self.norms, self.zonotope = np.abs(distinct), zonotope
        two = [i for i, row in enumerate(distinct * d) if row.min() < 0.0 < row.max()]
        self.side = _Tables(p, lr, distinct[two], span, zonotope, at) if two else None
        self.side_cols = [len(p) + i for i in two]  # their columns of q
        self.side_q = self.side_buf = self.next = None

    def advance(self, centres: np.ndarray, q: np.ndarray, buf: np.ndarray,
                first: int, stop: int) -> None:
        """Write q's rows, all of them at the first segment, and the fresh
        blocks Lr (|c| + q) of the steps first .. stop - 1 into the
        history, youngest first, |c| taken from the centres a chunk of
        about _CHUNK_ENTRIES entries at a time (_row_chunks), and keep
        step `stop`'s row, the one a reduction there restarts from.  A
        run cut by `until` scans the rows of the full run alike: it is a
        bitwise prefix."""
        lr, at, side = self.lr, self.at, self.side
        (k, n), end, steps = lr.shape, len(buf), stop - first
        if first == 0:
            self._scan(centres, q, buf[end - k:])
            if side is not None:  # its own q and history, from Theta's radius
                self.side_q = np.empty((len(q), k + len(self.side_cols)))
                self.side_buf = np.empty(end)
                self.side_buf[end - k:] = buf[end - k:]
        rows, mags = q[first:stop, :k], centres[first:stop]
        fresh = buf[end - (steps + 1) * k:end - k].reshape(steps, k)[::-1]
        for j in _row_chunks(steps, n + k):
            v = np.abs(mags[j])
            v[:, at] += rows[j]
            np.matmul(v, lr.T, out=fresh[j])
        self.next = q[stop, :k] if stop < len(q) else None
        if side is not None:
            side.advance(centres, self.side_q, self.side_buf, first, stop)
            q[first:stop, self.side_cols] = self.side_q[first:stop, k:]

    def _scan(self, centres: np.ndarray, q: np.ndarray, radius: np.ndarray) -> None:
        """Every row of q from Theta's radius, and the normals' columns |N| q.

        The rows start as Lr |c| of the steps before (step 0's as Theta's
        radius), and a doubling scan (Hillis & Steele, CACM 29, 1986) adds
        G^d times the rows d steps back for d = 1, 2, 4, ...: after the
        stride d each row holds its sum over the 2d latest inputs.  Each
        stride runs from the last row up, so a chunk reads rows that no
        earlier chunk has changed, and every product takes a chunk of
        about _CHUNK_ENTRIES entries.  A power G^d that leaves float range
        would meet a zero radius (inf * 0 = nan) or a tiny one and spoil
        finite steps, so the powers stop before the first that is not
        finite, and the scan runs in blocks that they cover, each block's
        first row carried from the row before: one step a block when G
        itself is not finite.
        """
        lr, g = self.lr, self.g
        k, n = lr.shape
        strides, power = [], g  # G^d for d = 1, 2, 4, ... < len(q)
        while 1 << len(strides) < len(q) and np.isfinite(power).all():
            strides.append(power)
            power = power @ power
        rows = q[:, :k]
        rows[0] = radius
        for j in _row_chunks(len(q) - 1, n + k):  # Lr |c| of the steps before
            np.matmul(np.abs(centres[:-1][j]), lr.T, out=rows[1:][j])
        block, size = 1 << len(strides), max(1, _CHUNK_ENTRIES // (2 * k))
        for start in range(0, len(rows), block):
            part = rows[start:start + block]
            if start:  # the row before, carried one step
                part[0] += g @ rows[start - 1]
            for s, power in enumerate(strides[:(len(part) - 1).bit_length()]):
                d, top = 1 << s, len(part)
                while top > d:  # chunks from the last row up
                    low = max(d, top - size)
                    part[low:top] += part[low - d:top - d] @ power.T
                    top = low
        if len(self.norms):  # a side run writes over its normals' columns
            for j in _row_chunks(len(q), k):
                np.matmul(rows[j], self.norms.T, out=q[j, k:])

    def reduce(self, live: np.ndarray, centre: np.ndarray, kept: int,
               boxed: bool) -> np.ndarray | None:
        """The hull radius at a reduction step with history `live`, q's
        row at the step and the restart box of every reduction here; None
        if a zonotope reduction's set is not finite (to the side run too,
        which keeps and boxes as _Tables.reduce does)."""
        box, side = self.next.copy(), self.side
        if side is not None:  # the side run restarts as the table path does
            end = len(self.side_buf)
            side = side.reduce(self.side_buf[end - len(live):], centre, kept, boxed)
            if side is None:
                return None
            self.side_buf[end - len(box):] = side
        if self.zonotope and not (np.isfinite(centre).all() and np.isfinite(box).all()):
            return None
        return box


def _restart_inside(restarts: list, step: int, centre: np.ndarray,
                    radius: np.ndarray, at: slice | np.ndarray) -> int | None:
    """The latest step t1 of restarts, (step, centre, radius) boxes, whose
    box holds centre +- hull (_inside), hull the radius on S, the
    components `at`, and zero elsewhere; else None, and the box joins them.

    The family is time-invariant, and the recurrence from a restart box
    B encloses F^k B, so every trajectory is at step t >= t1 in the set
    of step t1 + (t - t1) mod (t2 - t1), t2 this step (Blanchini,
    Automatica 35, 1999): steps 0 .. t2 - 1 hold the flowpipe for all
    time.  A zonotope reduction's restart is no box.
    """
    hull = np.zeros(len(centre))
    hull[at] = radius
    for t1, c1, r1 in reversed(restarts):
        if _inside(centre, hull, c1, r1):
            return t1
    restarts.append((step, centre, hull))
    return None


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
    # the count of nonzero radii per block, youngest first, summed in the
    # least unsigned type that holds n (a bool mask would be cast in
    # buffers) and written into seg reversed
    nonzero = fresh[len(fresh) - (len(seg) - 1):] != 0.0
    seg[:0:-1] = np.add.reduce(nonzero.view(np.uint8), axis=1,
                               dtype=np.min_scalar_type(nonzero.shape[1]))
    np.add.accumulate(seg, out=seg)
    return counts


def _inside(c2: np.ndarray, r2: np.ndarray, c1: np.ndarray,
            r1: np.ndarray) -> bool:
    """Whether the box c2 +- r2 lies inside c1 +- r1: |c2 - c1| + r2 <= r1,
    the difference and the sum each pushed one ulp up, so that rounding
    can refuse a containment but never grant one (NaN refuses too).  A
    point component, r2 = 0, whose centre is c1's is inside without the
    push (no rounding is involved), so a component outside S (see
    _flowpipe), of radius 0 in both boxes, is inside where its centre is
    the same."""
    d = np.nextafter(np.abs(c2 - c1), np.inf)
    inside = np.nextafter(d + r2, np.inf) <= r1
    return bool(inside.all()
                or np.all(inside | ((c2 == c1) & (r2 == 0.0) & (r1 >= 0.0))))


def _table_rows(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows a recurrence table needs for normals N beside its box
    rows, and the column of q each normal reads.

    A normal +-e_i reads box row i; any other normal reads the row of the
    first normal equal to it or to its negation, |d P^a| = |-d P^a|, so
    the rows are the distinct non-axis normals up to sign, in order, and
    their columns start at n.
    """
    n = normals.shape[1]
    cols = _axes(normals)[0]
    rows: list[np.ndarray] = []
    for j in np.flatnonzero(cols < 0):
        d = normals[j]
        r = next((r for r, e in enumerate(rows)
                  if np.array_equal(d, e) or np.array_equal(d, -e)), None)
        if r is None:
            r = len(rows)
            rows.append(d)
        cols[j] = n + r
    return np.array(rows).reshape(-1, n), cols


def _axes(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of dirs: i if the row is e_i or -e_i, else -1, and the
    row's entry at its first nonzero (its sign for an axis row)."""
    nonzero = dirs != 0.0
    at = nonzero.argmax(axis=1)
    entry = dirs[np.arange(len(dirs)), at]
    axis = (np.count_nonzero(nonzero, axis=1) == 1) & (np.abs(entry) == 1.0)
    return np.where(axis, at, -1), entry


def _segment_supports(centres: np.ndarray, q: np.ndarray, normals: np.ndarray,
                      cols: np.ndarray, out: np.ndarray) -> None:
    """Write into out the supports N c + q[:, cols] of a segment's steps,
    for normals N and the columns _table_rows gives them: for +-e_i the
    bits of c_i + q_i and -(c_i - q_i), hi_i and -lo_i, as rounding to
    nearest is symmetric about zero.  Each normal's N c is a product of
    its own, so its bits do not depend on the other normals, and a
    replay in some of them gives their recorded supports."""
    for j, col in enumerate(cols):  # by column: no (steps, k) temporary
        np.matmul(centres, normals[j], out=out[:, j])
        if col >= 0:  # else an axis outside S, whose q is zero
            out[:, j] += q[:, col]


@np.errstate(over="ignore", invalid="ignore")
def _first_unbounded(*arrays: np.ndarray) -> int | None:
    """First step k at which one of the arrays, each indexed by step first,
    has an entry that is not finite, else None: the one rule of both
    routes, whose results are bounded on the steps before it."""
    # a sum that overflows only sends finite steps to the exact check; a
    # step's sum runs over its trailing axes, so a strided view (the
    # symbolic chunk bases) is not copied whole
    if math.isfinite(sum(float(a.sum()) for a in arrays)):
        return None
    sums = sum(a.sum(axis=tuple(range(1, a.ndim))) for a in arrays)
    for k in np.flatnonzero(~np.isfinite(sums)):
        if not all(np.isfinite(a[k]).all() for a in arrays):
            return int(k)
    return None


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
    time, not only to the horizon.  The recurrence takes one of two
    implementations, picked from the one-step centre P on S alone: where
    P has a signature D = diag(+-1) with D P D >= 0 (acc4, twocell and
    grow1d), one linear recurrence of the hull radii (engine._Monotone),
    under which every reduction method gives the unreduced boxes up to
    rounding; else a table of |P^a| (engine._Tables), which also gives
    the former's supports in normals of two signs after D.  Both give the
    same flowpipe up to rounding.  Each step takes a fresh member of the
    one-step family (interval_expm), so in real arithmetic the boxes
    enclose, at grid times, every trajectory of a time-varying E(t) in
    pert, not only of one E; robustness_threshold's certified budget
    covers that family too.
    """
    m = (discretize(model.a, pert, model.step) if model.continuous
         else _add_outward(model.a, pert))
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
    horizon = _integer(horizon, "horizon")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    m = IntervalMatrix.from_point(a_discrete)
    if m.shape != (theta.dim, theta.dim):
        raise DimensionMismatch("family must be square and match the box")
    _require_finite(theta, "initial box must be finite")
    return _run_recurrence(m, theta, horizon, "none", 1, method_name="nominal",
                           normals=np.empty((0, theta.dim)))


def symbolic_reach(a, pert: IntervalMatrix, theta: Box, times,
                   method: str = "kagstrom1") -> ReachResult:
    """Nominal flow exp(At) Theta with a bloating radius per time point.

    The radius bounds ||exp((A+E)t) x - exp(At) x||_2 over E in pert and
    x in Theta, so the padded set contains every perturbed trajectory
    point.  With r = max_{x in Theta} ||x||_2 it is
      - psi(t) r for loan, whose bound psi is absolute;
      - phi(t) ||exp(At)||_2 r for kagstrom1 and kagstrom2, whose phi
        bounds the relative deviation (BloatSeries.relative), with
        ||exp(A k h)||_2 <= sigma_max(F_k) plus the entry sum of
        |Q^k - F_k| and the sigma_max bound covering the rounding of its
        own evaluation (_sigma_max_bound).
    Both are phi(t) f(t) r, the flow factor f 1 for loan (no flow read).

    times must be bitwise np.arange(K) * h, as ModelSpec.times builds
    it ([0.0] for K = 1), else ValueError.  The flows are the powers F_k
    of one step with error vectors, a chunk of steps at a time
    (_flow_chunks): each chunk gives its sigma_max bounds (relative
    bounds only), pads, radii and padded boxes (_endpoint_product, as
    ReachResult.support's are) and is dropped, so no (K, n, n) array
    exists; the result keeps the O(n^2) inputs of the flows, which
    `support` replays.  ||Theta|| is evaluated scaled (Box.max_norm), and
    the radius is scaled to cover the rounding of its own product; psi
    covers its own rounding, phi does not.  The result is bounded on a
    prefix of the grid, as the numeric flowpipe is (_first_unbounded):
    from the first step whose phi, flow, pad, radius or padded box is not
    finite (the bound saturated, or a flow, its error or an image
    overflowed), the radius is inf and the box -inf/inf: unbounded, not
    proven safe.  The chunks stop at the first step whose phi is not
    finite and at a chunk base that is not finite, so no flow, sigma_max
    or padded image past that prefix is computed.  The bounds, and so the
    radii, are stated for a constant E in pert; a numeric flowpipe
    (reach_with_perturbation) covers a time-varying E(t) (Althoff, Le
    Guernic & Krogh, HSCC 2011).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-1:] != (theta.dim,):
        raise DimensionMismatch("initial box dimension must match the matrix")
    _require_finite(theta, "initial box must be finite")
    series = _bounds.bloat_series(a, pert, times, method)
    start = time.perf_counter()
    n, count = theta.dim, len(series.times)
    # the error columns: max(|lo|, |hi|) of Theta for the pads, and for a
    # relative bound 1, whose entry sums of |Q^k - F_k| enter the radii
    v = np.maximum(np.abs(theta.lo), np.abs(theta.hi))[:, None]
    if series.relative:
        v = np.hstack((v, np.ones((n, 1))))
    # the chunks stop at the first step whose phi is not finite
    bounded = _first_unbounded(series.phi)
    bounded = count if bounded is None else bounded
    norm = theta.max_norm()
    # phi (sigma + e) ||Theta|| (e the computed entry sum of |Q^k - F_k|,
    # ||Theta|| = Box.max_norm a root of n squares) takes M = n/2 + 4
    # roundings to nearest: n/2 through the squares, their sum and the
    # root, then the root, sigma + e and two products; so it is at least
    # (1 - u)^M times its exact value, barring underflow.  The float
    # 1 + 2 j u, for the least j with 2 j > M + 1, covers that and its
    # own product when n < 10^8 (Higham, Accuracy and Stability, 3.1);
    # psi ||Theta|| takes two roundings fewer.
    scale = 1.0 + 2 * ((n + 10) // 4 + 1) * _UNIT
    radii = np.full(count, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        flows = (*_flow_step(a, series.times), v,
                 _flow_chunk_steps(n, v.shape[1], bounded), bounded)
        pieces = _flow_chunks(*flows)
        # the boxes after the orbits: beside them, rod64's loan peak was 3.89 MB
        lo, hi = np.full((count, n), -np.inf), np.full((count, n), np.inf)
        for k, chunk, errs in pieces:
            # the flow factor a temporary: a name would keep it into the next piece
            radii[k] = series.phi[k] * (
                _sigma_max_bound(chunk) + errs[:, :, 1].sum(axis=1)
                if series.relative else 1.0) * norm  # psi ||Theta|| reads no flow
            radii[k] *= scale
            lo[k], hi[k] = _endpoint_product(chunk, chunk, theta.lo, theta.hi)
            lo[k] -= errs[:, :, 0]
            hi[k] += errs[:, :, 0]
        # the ball, once the chunks are freed; a radius or flow that is not
        # finite leaves its box not finite
        lo -= radii[:, None]
        hi += radii[:, None]
        end = _first_unbounded(lo, hi)
    if end is not None:
        radii[end:], lo[end:], hi[end:] = np.inf, -np.inf, np.inf
    return ReachResult(
        kind="symbolic", method=method, labels=series.times.copy(), lo=lo,
        hi=hi, radii=radii, gen_counts=np.full(count, n, dtype=np.int64),
        initial=theta, wall_time=time.perf_counter() - start,
        phi=series.phi, _flows=flows)


# Numbers a chunk of the symbolic route holds (_flow_chunk_steps)
_FLOW_NUMBERS = 16384


def _flow_chunk_steps(n: int, m: int, count: int) -> int:
    """Steps c per chunk of count symbolic flows of order n with m error
    columns (_flow_chunks): the largest power of two whose steps hold at
    most _FLOW_NUMBERS numbers, n^2 each in the table and in a chunk's
    product and m n in each of three arrays of error columns (the
    table's errors and sizes, a chunk's errors); or where that is
    smaller, the power of two nearest sqrt(1.75 count), which balances
    the table and a chunk, 2 c n^2 numbers, against the orbit of the
    count / c bases, 3.5 n^2 numbers per base while it runs (_orbit)."""
    c = 1 << max(0, (_FLOW_NUMBERS // (2 * n * n + 3 * m * n)).bit_length() - 1)
    return max(c, 1 << round(math.log2(1.75 * max(count, 1)) / 2))


def _flow_step(a: np.ndarray, times: np.ndarray):
    """The step P = expm(A h) of the grid times = np.arange(K) * h (else
    ValueError), and its error E = max(M.hi - P, P - M.lo) pushed one ulp
    outward, so that |Q - P| <= E for each member Q of M =
    interval_expm(A, h); exp(A h) is in M only up to the series'
    uncovered rounding.  E is at least the least normal float: where M
    is exact (a structural zero, interval_expm) an E of 0 leaves the
    error orbit (_orbit) nothing but its underflow terms, subnormals
    that numpy's products run several times slower (0.2 ms more on
    acc4's 1.8 ms loan run)."""
    count = len(times)
    h = float(times[1]) if count > 1 else 0.0
    if not (h > 0.0 or count < 2) or not np.array_equal(times, np.arange(count) * h):
        raise ValueError("symbolic times must be a grid np.arange(K) * h with h > 0")
    m = interval_expm(IntervalMatrix.from_point(a), h)
    step = scipy.linalg.expm(a * h)
    dist = np.maximum(m.hi - step, step - m.lo)
    return step, np.maximum(np.nextafter(dist, np.inf), _TINY)


def _flow_chunks(step: np.ndarray, step_err: np.ndarray, v: np.ndarray,
                 chunk: int, count: int):
    """The flows F_k = P^k of steps 0 .. count - 1 with error columns, a
    chunk of steps at a time: (k, flows, errs) for a slice k of steps,
    flows (len k, n, n) and errs (len k, n, m), errs[j, :, c] a bound on
    |Q^i - F_i| v_c, i = k.start + j, for each member Q of M (|Q - P| <=
    step_err) and each column v_c >= 0 of v.

    The first chunk is a table F_0 .. F_(c-1), c = chunk (a power of
    two), from one doubling orbit of P with the error columns v (_orbit):
    the first c steps of an orbit of the whole grid, bit for bit; count
    <= c steps are that table alone.  Else the chunk bases B_k ~ P^(k c)
    come from one doubling orbit of S = P^c, the last of the table
    orbit's squarings (_square), with matrix errors E_k >= |Q^(k c) -
    B_k| (the identity's columns), and chunk k >= 1 is the product
    F_(k c + j) = fl(B_k F_j) for its steps, bounded by _product_error
    (Higham's gamma_n) with the sizes |F_j| v of the table
    (_vector_sizes); a tail of at most c/4 steps past the last whole
    chunk joins it, the table holding c + tail steps:
        |Q^(k c + j) - F_(k c + j)| v <= |B_k| e_j + E_k (|F_j| v + e_j)
                                         + gamma_n |B_k| |F_j| v,
    e_j the table's error columns.  Both orbits double, so an error
    passes through as many products as in one orbit of the whole grid,
    not one per chunk.  A chunk's bits depend only on these inputs: a
    replay gives those of the first run.  The chunks stop before the
    first base or base error that is not finite, past which every flow
    or error is not finite either.

    The table and the bases are built by the call, which returns an
    iterator over the chunks' pieces: about _FLOW_NUMBERS numbers of flows
    and error columns (one step at least), each one product and one
    _product_error call, and a table alone in n pieces.  The table takes
    up to 1.25 c n^2 numbers, a piece about _FLOW_NUMBERS, and the bases
    about 3.5 (count / c) n^2 while their orbit runs; a piece's arrays
    are reused by the next.  flows is a strided view of an (n, b n)
    array, as an orbit's powers are.
    """
    n, m = v.shape
    if count < 1:
        return iter(())
    c, tail = chunk, count % chunk
    if count <= c:
        last, size = 1, count  # one chunk: the table alone
    elif 0 < tail <= c // 4:
        last, size = count // c, c + tail  # the last chunk takes the tail
    else:
        last, size = -(-count // c), c + 1
    # an orbit of more than c steps squares up to S = P^c
    steps = [] if last > 1 else None
    table, errs = _orbit(step, np.eye(n), size, step_err, v, steps=steps)
    bases = bases_err = None
    if last > 1:
        (power, power_err), = steps
        bases, bases_err = _orbit(power, np.eye(n), last, power_err, np.eye(n))
        del power, power_err, steps
    return _flow_pieces(table, errs, bases, bases_err, v, c, count)


def _flow_pieces(table, errs, bases, bases_err, v, c, count):
    """The pieces of _flow_chunks, whose call builds the table and bases."""
    n, m = v.shape
    size, last = len(errs), 1 if bases is None else len(bases_err)
    # steps per yield: flows and error columns of about _FLOW_NUMBERS
    # numbers; a table alone in n pieces, so that a short grid's images
    # hold no more entries than one box row of every step
    piece = max(1, _FLOW_NUMBERS // (n * (n + m)))
    if last == 1:
        piece = min(piece, -(-count // n))
    first = size if last == 1 else c
    flows, cols = table.reshape(n, size, n).transpose(1, 0, 2), errs.transpose(0, 2, 1)
    for j in range(0, first, piece):
        k = slice(j, min(j + piece, first))
        yield k, flows[k], cols[k]
    if last == 1:
        return
    del flows, cols
    sizes = np.empty(errs.shape)
    _vector_sizes(table, v, sizes)
    bounded = _first_unbounded(bases.reshape(n, last, n).transpose(1, 0, 2), bases_err)
    # the table's m columns per step side by side, as _orbit passes them
    x, x_err = sizes.reshape(-1, n).T, errs.reshape(-1, n).T
    v_sum = float(v.sum(axis=0).max())
    piece = min(piece, size)
    out, out_err = np.empty((n, piece * n)), np.empty((piece, m, n))
    for k in range(1, last if bounded is None else bounded):
        base, base_err = bases[:, k * n:(k + 1) * n], bases_err[k].T
        length = count - k * c if k == last - 1 else c
        for j in range(0, length, piece):
            b = min(piece, length - j)
            np.matmul(base, table[:, j * n:(j + b) * n], out=out[:, :b * n])
            _product_error(base, base_err, x[:, j * m:(j + b) * m],
                           x_err[:, j * m:(j + b) * m],
                           out_err[:b].reshape(-1, n).T, v_sum)
            yield (slice(k * c + j, k * c + j + b),
                   out[:, :b * n].reshape(n, b, n).transpose(1, 0, 2),
                   out_err[:b].transpose(0, 2, 1))


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
