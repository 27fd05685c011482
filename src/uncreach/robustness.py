"""Search for the largest safe uncertainty budget over chosen cells.

Budgets p = 0, step, 2 step, ... are distributed over the selected cells
as symmetric relative radii; a gallop and a bisection over the grid run
the numeric pipeline on a few candidate families to find the first
unsafe budget.  The report carries the last safe family and the
Frobenius sup of its perturbation part, i.e. of the radii matrix, not of
the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (CellUncertainty, ModelSpec, _check_cells, _integer,
                     _perturbation, _real, reach_with_perturbation,
                     safety_check)
from .intervals import IntervalMatrix, _add_outward
from .sensitivity import order_cells

__all__ = [
    "SCHEMES",
    "ThresholdReport",
    "budget_weights",
    "distribute",
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
    """
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


def _budget_perturbation(a, cells, scores, p, scheme) -> IntervalMatrix:
    """Lambda_p of a finite nonnegative real budget p (engine._perturbation),
    cell (i,j) relative p * k * w_ij, in that order."""
    p = _real(p, "budget")
    if not (math.isfinite(p) and p >= 0):
        raise ValueError(f"budget must be finite and nonnegative, got {p!r}")
    cells = _check_cells(cells, a.shape[0])
    w, k = budget_weights(cells, scores, scheme), len(cells)
    return _perturbation(a, [CellUncertainty(i, j, relative=p * k * wi)
                             for (i, j), wi in zip(cells, w)])


def distribute(a, cells, scores: np.ndarray, p: float,
               scheme: str) -> IntervalMatrix:
    """Uncertain dynamics A (+) Lambda_p for budget p: cell (i,j) gets a
    radius of at least p * k * w_ij * |A[i,j]| around A[i,j], the product
    pushed one ulp up; other entries stay points.

    With the equal scheme this is radius p |A[i,j]| per cell.  p = 0
    returns the point matrix A.
    """
    a = np.asarray(a, dtype=np.float64)
    return _add_outward(a, _budget_perturbation(a, cells, scores, p, scheme))


@dataclass(frozen=True, eq=False)
class ThresholdReport:
    """Result of the budget search.

    safe_uncertainty is the PERTURBATION family of the last safe budget
    (center zero, radii at the selected cells); norm is its Frobenius sup,
    which is 0 when the model is already unsafe without perturbation.
    trace lists every grid budget up to the first unsafe one with its
    verdict; evaluated lists the budgets whose flowpipes ran, in run
    order.
    """

    scheme: str
    cells: tuple[tuple[int, int], ...]
    step: float
    final_budget: float
    norm: float
    iterations: int
    trace: tuple[tuple[float, bool], ...]
    safe_uncertainty: IntervalMatrix
    already_unsafe: bool = False
    cap_reached: bool = False
    evaluated: tuple[float, ...] = ()


def robustness_threshold(model: ModelSpec, cells, scheme: str = "equal",
                         step: float = 0.05, cap: int = 200) -> ThresholdReport:
    """Largest safe budget on the grid p = i step, i = 0, ..., cap - 1,
    step a positive finite real number and cap an integer of at least 1
    (numpy numbers accepted, bools in neither).

    Each budget is spread over the cells by the scheme and the numeric
    pipeline runs on the perturbed family.  The search gallops over the
    grid index (1, 2, 4, ..., at most cap - 1) to the first unsafe probe,
    then bisects until the last safe index and the next one, unsafe,
    have both run (Bentley & Yao, IPL 5, 1976); index 0 runs only when
    index 1 is unsafe.  The families nest (distribute), so the safe
    flowpipe at the last safe index encloses every trajectory of every
    smaller budget's family: the trace marks those budgets safe without
    running them, and equals a scan's from 0 wherever the verdict is
    monotone in the budget.  It is wherever the trials' one-step
    families take the same number of squarings in interval_expm (none
    while ||A (+) Lambda||_F h <= 1), which is inclusion-isotone only
    then; elsewhere the search may report another budget than a scan,
    but every budget it certifies is proven.  The search stops at the
    first unsafe budget (returning the previous, safe family) or with
    every grid budget safe (cap_reached flag).  A trial whose flowpipe
    or one-step family overflows is unsafe.  A model unsafe at
    p = 0 reports already_unsafe with norm 0.  The search is
    deterministic.  Each trial runs with until_unsafe: an unsafe one
    ends with its violating segment, and under interval reduction a
    safe one may end at a restart box inside an earlier one, which
    proves it safe for all time, not only to the horizon.
    """
    step = _real(step, "step")
    if step <= 0 or not math.isfinite(step):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    cap = _integer(cap, "cap")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    cells = _check_cells(cells, model.dim)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    scores = order_cells(model.a).scores
    evaluated: list[float] = []

    def perturbation(i: int) -> IntervalMatrix:
        return _budget_perturbation(model.a, cells, scores, i * step, scheme)

    def proven_safe(i: int) -> bool:
        evaluated.append(i * step)
        res = reach_with_perturbation(model, perturbation(i), until_unsafe=True)
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
    pert = (perturbation(safe) if safe >= 0
            else IntervalMatrix.zeros(model.dim, model.dim))
    return ThresholdReport(
        scheme=scheme, cells=cells, step=step,
        final_budget=safe * step if safe >= 0 else 0.0,
        norm=pert.frobenius_sup(),
        iterations=len(trace), trace=tuple(trace), safe_uncertainty=pert,
        already_unsafe=not trace[0][1], cap_reached=trace[-1][1],
        evaluated=tuple(evaluated),
    )
