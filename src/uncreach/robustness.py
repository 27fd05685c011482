"""Search for the largest safe uncertainty budget over chosen cells.

Budgets p = 0, step, 2 step, ... are distributed over the selected cells
as symmetric relative radii; a gallop and a bisection over the grid try
a few candidate families to find the first unsafe budget, each by a
contraction certificate first and the numeric pipeline where that fails.
The report carries the last safe family and the Frobenius sup of its
perturbation part, i.e. of the radii matrix, not of the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (CellUncertainty, ModelSpec, _check_cells, _integer,
                     _perturbation, _real, reach_with_perturbation,
                     safety_check)
from .errors import DimensionMismatch
from .intervals import IntervalMatrix, _add_outward, _frobenius, _gamma
from .sensitivity import order_cells

__all__ = [
    "SCHEMES",
    "ThresholdReport",
    "budget_weights",
    "robustness_threshold",
]

SCHEMES = ("equal", "harmonic", "proportional", "proportional-literal")

# floor for harmonic weights so zero-score cells cannot blow up
_SCORE_FLOOR = 1e-12


def budget_weights(cells, scores: np.ndarray, scheme: str) -> np.ndarray:
    """Normalized budget shares (sum 1) for the selected cells, each a
    distinct pair of integer indices into scores (engine._check_cells).

    equal                : 1/k each.
    harmonic             : proportional to 1/max(Ord, floor); low-sensitivity
                           cells absorb more budget.
    proportional         : inverse-rank reading, proportional to
                           1 + #{selected cells with strictly greater Ord},
                           so the most sensitive cell gets the smallest share.
    proportional-literal : literal reading, proportional to the sum of
                           strictly smaller selected Ord values, equal
                           when all such sums vanish.
    The last two read one phrase of the paper; see README on the ambiguity.
    scores must be a finite square matrix (DimensionMismatch for a bad
    shape, ValueError for a score that is not finite).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise DimensionMismatch(
            f"scores must be a square matrix, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    cells = _check_cells(cells, scores.shape[0])
    k = len(cells)
    if k == 0:
        raise ValueError("at least one cell is required")
    if scheme == "equal":
        return np.full(k, 1.0 / k)
    vals = np.asarray([scores[i, j] for i, j in cells], dtype=np.float64)
    if scheme == "harmonic":
        w = 1.0 / np.maximum(vals, _SCORE_FLOOR)
    elif scheme == "proportional":
        w = np.asarray([1.0 + np.sum(vals > v) for v in vals])
    elif scheme == "proportional-literal":
        w = np.asarray([vals[vals < v].sum() for v in vals])
        if not np.any(w):
            w = np.ones(k)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return w / w.sum()


def _budget_cells(cells, w, p) -> list[CellUncertainty]:
    """Budget p's cells: cell (i,j) gets relative p * k * w_ij, multiplied in
    that order, for the k cells and their weights w (budget_weights)."""
    k = len(cells)
    return [CellUncertainty(i, j, relative=p * k * wi)
            for (i, j), wi in zip(cells, w)]


def _ball_misses_unsafe(model: ModelSpec) -> bool:
    """Whether R ||d||_2 < offset for every unsafe half-space (normal d),
    R = max ||x||_2 over Theta (Box.max_norm): the ball ||x||_2 <= R,
    which holds Theta, meets no unsafe half-space.

    Each norm is a root of at most n squares (_frobenius, scaled): the
    squares and their sum are within gamma_n, the root within u, and the
    scaling and underflow of entries far below the largest within one
    more u, so each is at least 1 - gamma_(n+2) times its exact value
    and their rounded product at least 1 - gamma_(2n+5) times R ||d||.
    The factor 1 + 2 gamma_(2n+5) covers that, 2^-1073 the two products'
    roundings below the normal range, and one ulp up the last sum.
    """
    slack = 1.0 + 2.0 * _gamma(2 * model.dim + 5)
    radius = model.initial.max_norm()
    for hs in model.unsafe:
        reach = radius * float(_frobenius(hs.normal)) * slack + 2.0 ** -1073
        if not math.nextafter(reach, math.inf) < hs.offset:
            return False
    return True


@dataclass(frozen=True, eq=False, kw_only=True)
class ThresholdReport:
    """Result of the budget search, its fields in the order of `uncreach
    robust`'s JSON (dataclasses.asdict).

    trace lists every grid budget up to the first unsafe one with its
    verdict; evaluated lists the budgets whose trials ran, in run order,
    and contracted those of them that the contraction certificate proved
    without a flowpipe (safe for all time, at every time, and for every
    time-varying E(t) in the family; robustness_threshold).
    safe_uncertainty is the PERTURBATION family of the last safe budget
    (center zero, radii at the selected cells; zero when none is safe).

    The other five are derived from these once: final_budget is the last
    safe budget in trace (0.0 when none is), norm the Frobenius sup of
    safe_uncertainty, iterations len(trace), already_unsafe whether
    trace's first budget is unsafe and cap_reached whether its last is
    safe.
    """

    scheme: str
    cells: tuple[tuple[int, int], ...]
    step: float
    final_budget: float = field(init=False)
    norm: float = field(init=False)
    iterations: int = field(init=False)
    already_unsafe: bool = field(init=False)
    cap_reached: bool = field(init=False)
    trace: tuple[tuple[float, bool], ...]
    evaluated: tuple[float, ...] = ()
    contracted: tuple[float, ...] = ()
    safe_uncertainty: IntervalMatrix

    def __post_init__(self) -> None:
        for name, value in (
                ("final_budget",
                 next((p for p, ok in reversed(self.trace) if ok), 0.0)),
                ("norm", self.safe_uncertainty.frobenius_sup()),
                ("iterations", len(self.trace)),
                ("already_unsafe", not self.trace[0][1]),
                ("cap_reached", self.trace[-1][1])):
            object.__setattr__(self, name, value)


def robustness_threshold(model: ModelSpec, cells, scheme: str = "equal",
                         step: float = 0.05, cap: int = 200) -> ThresholdReport:
    """Largest safe budget on the grid p = i step, i = 0, ..., cap - 1,
    step a positive finite real number and cap an integer of at least 1
    (numpy numbers accepted, bools in neither).

    Each budget is spread over the cells by the scheme, and its trial
    proves the perturbed family safe by a contraction certificate or,
    where that fails, by the numeric pipeline.  The search gallops over
    the grid index (1, 2, 4, ..., at most cap - 1) to the first unsafe
    probe, then bisects until the last safe index and the next one,
    unsafe, have both run (Bentley & Yao, IPL 5, 1976); index 0 runs
    only when index 1 is unsafe.  The families nest as _budget_cells
    builds them (each cell's relative radius grows with p), so the proof
    at the last safe index covers every trajectory of every smaller
    budget's family: the trace marks those budgets safe without running
    them, and equals a scan's from 0 wherever the verdict is monotone in
    the budget.  It is wherever the trials' one-step families take the
    same number of squarings in interval_expm (none while
    ||A (+) Lambda||_F h <= 1) and the same Taylor order, which is
    inclusion-isotone only then (a step of either can break it at the
    1e-20 level, never soundness), and the certificate's bound grows
    with the family up to rounding; elsewhere the search may report
    another budget than a scan, but every budget it certifies is proven.
    The search stops at the first unsafe budget (returning the previous,
    safe family) or with every grid budget safe (cap_reached flag).  A trial whose flowpipe or
    one-step family overflows is unsafe, and so is a grid budget whose
    cell share p k w_ij (or p itself) overflows; nothing of it runs.  A
    model unsafe at p = 0 reports already_unsafe with norm 0.  The
    search is deterministic.

    The certificate (Soderlind, BIT 46, 2006) applies to a continuous
    model: a trial whose family A (+) Lambda_p has log_norm_sup() <= 0,
    when the ball ||x||_2 <= max ||Theta|| misses every unsafe half-space
    (_ball_misses_unsafe), is safe without a flowpipe.  Every member has
    mu(A + E) <= 0, so d/dt ||x||^2 = 2 x^T (A + E(t)) x <= 0 and every
    trajectory, for every measurable E(t) in Lambda_p, stays in the ball
    at every time t >= 0: safe for all time and dense time, more than a
    flowpipe proves.  Its budgets are listed in contracted.  The ball and
    the point family A are checked once per search; where either fails
    (acc4 and twocell have mu(A) > 0), no trial takes the certificate,
    and a discrete model never does.

    A flowpipe trial runs with until_unsafe: an unsafe one ends with its
    violating segment, and under interval reduction a safe one may end
    at a restart box inside an earlier one, which proves it safe for all
    time, not only to the horizon.
    """
    step = _real(step, "step")
    if step <= 0 or not math.isfinite(step):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    cap = _integer(cap, "cap")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    cells = _check_cells(cells, model.dim)
    w = budget_weights(cells, order_cells(model.a).scores, scheme)
    evaluated: list[float] = []
    contracted: list[float] = []
    contracts = (model.continuous and _ball_misses_unsafe(model)
                 and IntervalMatrix.from_point(model.a).log_norm_sup() <= 0.0)

    def perturbation(i: int) -> IntervalMatrix:
        return _perturbation(model.a, _budget_cells(cells, w, i * step))

    def proven_safe(i: int) -> bool:
        # shares p k w_ij beyond float range (w_ij <= 1, so exactly when
        # p k is) have no family to run: unsafe
        if not math.isfinite(i * step * len(cells)):
            return False
        evaluated.append(i * step)
        pert = perturbation(i)
        if contracts and _add_outward(model.a, pert).log_norm_sup() <= 0.0:
            contracted.append(i * step)
            return True
        res = reach_with_perturbation(model, pert, until_unsafe=True)
        return safety_check(res, model.unsafe).safe

    safe, unsafe = -1, cap  # the last index proven safe, the first unsafe
    while unsafe - safe > 1:
        if unsafe == cap:  # gallop: 1, 2, 4, ..., at most cap - 1
            probe = min(max(1, 2 * safe), cap - 1)
        else:  # bisect
            probe = (safe + unsafe) // 2
        if proven_safe(probe):
            safe = probe
        else:
            unsafe = probe
    trace = [(i * step, True) for i in range(safe + 1)]
    if unsafe < cap:
        trace.append((unsafe * step, False))
    return ThresholdReport(  # budget 0's family is zero when already unsafe
        scheme=scheme, cells=cells, step=step, trace=tuple(trace),
        evaluated=tuple(evaluated), contracted=tuple(contracted),
        safe_uncertainty=perturbation(max(safe, 0)))
