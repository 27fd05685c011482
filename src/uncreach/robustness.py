"""Search for the largest safe uncertainty budget over chosen cells.

Budgets p = 0, step, 2 step, ... are distributed over the selected cells
as symmetric relative radii; each candidate family runs through the
numeric pipeline and the first unsafe budget ends the search.  The report
carries the last safe family and the Frobenius sup of its perturbation
part, i.e. of the radii matrix, not of the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ModelSpec, reach_with_perturbation, safety_check
from .intervals import IntervalMatrix
from .sensitivity import order_cells

__all__ = [
    "SCHEMES",
    "ThresholdReport",
    "budget_weights",
    "distribute",
    "robustness_threshold",
]

SCHEMES = ("equal", "harmonic", "proportional")

# floor for harmonic weights so zero-score cells cannot blow up
_SCORE_FLOOR = 1e-12


def budget_weights(cells, scores: np.ndarray, scheme: str,
                   proportional_literal: bool = False) -> np.ndarray:
    """Normalized budget shares (sum 1) for the selected cells.

    equal        : 1/k each.
    harmonic     : proportional to 1/max(Ord, floor); low-sensitivity
                   cells absorb more budget.
    proportional : inverse-rank reading, proportional to
                   1 + #{selected cells with strictly greater Ord}, so the
                   most sensitive cell gets the smallest share.  The
                   literal reading (share proportional to the sum of
                   strictly smaller selected Ord values, equal fallback
                   when all such sums vanish) sits behind
                   proportional_literal=True; see README on the ambiguity.
    """
    k = len(cells)
    if k == 0:
        raise ValueError("at least one cell is required")
    if scheme == "equal":
        return np.full(k, 1.0 / k)
    vals = np.asarray([scores[i, j] for i, j in cells], dtype=np.float64)
    if scheme == "harmonic":
        w = 1.0 / np.maximum(vals, _SCORE_FLOOR)
    elif scheme == "proportional":
        if proportional_literal:
            w = np.asarray([vals[vals < v].sum() for v in vals])
            if not np.any(w):
                w = np.ones(k)
        else:
            w = np.asarray([1.0 + np.sum(vals > v) for v in vals])
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return w / w.sum()


def distribute(a, cells, scores: np.ndarray, p: float, scheme: str,
               proportional_literal: bool = False) -> IntervalMatrix:
    """Uncertain dynamics for budget p: cell (i,j) gets radius
    p * k * w_ij * |A[i,j]| around A[i,j]; other entries stay points.

    With the equal scheme this is radius p |A[i,j]| per cell.  p = 0
    returns the point matrix A.
    """
    a = np.asarray(a, dtype=np.float64)
    if p < 0:
        raise ValueError("budget must be nonnegative")
    cells = _check_cells(cells, a.shape[0])
    w = budget_weights(cells, scores, scheme, proportional_literal)
    lo = a.copy()
    hi = a.copy()
    k = len(cells)
    for idx, (i, j) in enumerate(cells):
        r = p * k * w[idx] * abs(a[i, j])
        lo[i, j] = a[i, j] - r
        hi[i, j] = a[i, j] + r
    return IntervalMatrix(lo, hi)


def _check_cells(cells, n: int) -> tuple[tuple[int, int], ...]:
    out = []
    seen = set()
    for cell in cells:
        i, j = int(cell[0]), int(cell[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"cell ({i},{j}) out of range for dimension {n}")
        if (i, j) in seen:
            raise ValueError(f"cell ({i},{j}) listed twice")
        seen.add((i, j))
        out.append((i, j))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ThresholdReport:
    """Result of the budget search.

    safe_uncertainty is the PERTURBATION family of the last safe budget
    (center zero, radii at the selected cells); norm is its Frobenius sup,
    which is 0 when the model is already unsafe without perturbation.
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


def robustness_threshold(model: ModelSpec, cells, scheme: str = "equal",
                         step: float = 0.05, cap: int = 200,
                         proportional_literal: bool = False) -> ThresholdReport:
    """Largest safe budget on a grid p = 0, step, 2 step, ...

    Each budget is spread over the cells by the scheme, the numeric
    pipeline runs on the perturbed family, and the search stops at the
    first unsafe budget (returning the previous, safe family) or after
    `cap` budgets (cap_reached flag).  A model unsafe at p = 0 reports
    already_unsafe with norm 0.  The search is deterministic.
    """
    if step <= 0 or not math.isfinite(step):
        raise ValueError("step must be positive")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    cells = _check_cells(cells, model.dim)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "equal":
        scores = np.zeros(model.a.shape)
    else:
        scores = order_cells(model.a).scores
    trace: list[tuple[float, bool]] = []
    prev_pert = IntervalMatrix.zeros(model.dim, model.dim)
    prev_p = 0.0
    for i in range(cap):
        p = i * step
        assembled = distribute(model.a, cells, scores, p, scheme,
                               proportional_literal)
        pert = assembled.sub_point(model.a)
        verdict = safety_check(reach_with_perturbation(model, pert),
                               model.unsafe)
        trace.append((p, verdict.safe))
        if not verdict.safe:
            break
        prev_pert = pert
        prev_p = p
    return ThresholdReport(
        scheme=scheme, cells=cells, step=step, final_budget=prev_p,
        norm=prev_pert.frobenius_sup(), iterations=len(trace),
        trace=tuple(trace), safe_uncertainty=prev_pert,
        already_unsafe=not trace[0][1], cap_reached=trace[-1][1],
    )
