"""Command-line interface: reach, order, robust, norms.

Flowpipes are written as CSV (one row per step, no header), orderings and
threshold reports as JSON.  Exit status 0 on success; model-file problems
exit 2 and analysis errors exit 1, both with a diagnostic on stderr.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from .bounds import BLOAT_METHODS
from .engine import ors_reach, safety_check, symbolic_reach
from .errors import ModelFileError, ReachError
from .modelfile import load_model
from .robustness import SCHEMES, robustness_threshold
from .sensitivity import order_cells

FMT = "{:.17g}"
_SYMBOLIC_ROWS = ("labels", "lo", "hi", "radii", "gen_counts", "phi")


def _handle_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except ModelFileError as exc:
            click.echo(f"model error: {exc}", err=True)
            sys.exit(2)
        except (ReachError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _write_text(out: str, text: str) -> None:
    if out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


def _echo_summary(out: str, message: str) -> None:
    # keep the summary off the data stream when CSV/JSON goes to stdout
    click.echo(message, err=(out == "-"))


def _verdict_line(verdict, labels, kind: str) -> str:
    if verdict.safe:
        return f"verdict: safe ({len(labels)} sets checked)"
    label = labels[verdict.step]
    where = f"t={FMT.format(label)}" if kind == "symbolic" else f"step {int(label)}"
    return f"verdict: not proven safe at {where}, half-space {verdict.halfspace}"


def _csv(*columns) -> str:
    """One row per step: the (steps,) or (steps, k) columns side by side."""
    rows = np.column_stack(columns).tolist()
    return "".join(",".join(map(FMT.format, row)) + "\n" for row in rows)


def _write_json(out: str, doc: dict) -> None:
    # arrays and numpy scalars alike have tolist
    _write_text(out, json.dumps(doc, indent=2, default=lambda o: o.tolist()) + "\n")


def _parse_cell(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"cell {text!r} must look like ROW,COL")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"cell {text!r} must hold two integers") from None


@click.group()
def main() -> None:
    """Reachability and safety-robustness analysis for uncertain linear systems."""


@main.command("reach")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", default="numeric",
              type=click.Choice(("numeric",) + BLOAT_METHODS),
              help="numeric star recurrence or a symbolic bloating bound")
@click.option("--out", default="-", help="CSV destination ('-' = stdout)")
@click.option("--t-start", type=float, default=None,
              help="symbolic window start (default 0; off the grid, the "
                   "next grid point)")
@click.option("--t-end", type=float, default=None,
              help="symbolic window end, at most horizon*step (the default)")
@_handle_errors
def reach_cmd(model_path: str, method: str, out: str,
              t_start: float | None, t_end: float | None) -> None:
    """Compute a flowpipe and report the safety verdict.

    Numeric rows: step, lo_1, hi_1, ..., lo_n, hi_n, gen_count.
    Symbolic rows: t, phi, radius, lo_1, hi_1, ..., lo_n, hi_n, where phi
    is the method's bound: relative for kagstrom1 and kagstrom2, absolute
    (Van Loan's psi) for loan (ReachResult.phi).  A window prints the rows
    of the grid from 0 to --t-end that lie in the window.
    """
    model = load_model(model_path)
    if method == "numeric":
        if t_start is not None or t_end is not None:
            raise ValueError("--t-start/--t-end apply to symbolic methods only")
        result = ors_reach(model)
    else:
        if not model.continuous:
            raise ValueError("symbolic bounds need a continuous model")
        times, first = _window(model, t_start, t_end)
        full = symbolic_reach(model.a, model.perturbation(), model.initial,
                              times, method=method)
        # the window's rows and the full run's supports in the unsafe normals,
        # so its verdict is the full run's; no flows, which replay from step 0
        normals = np.array([hs.normal for hs in model.unsafe],
                           dtype=np.float64).reshape(-1, model.dim)
        result = dataclasses.replace(
            full, normals=normals, supports=full.support(normals)[first:],
            _flows=None, **{k: getattr(full, k)[first:] for k in _SYMBOLIC_ROWS})
    verdict = safety_check(result, model.unsafe)
    bounds = np.dstack((result.lo, result.hi)).reshape(len(result), -1)
    columns = ((result.labels, bounds, result.gen_counts) if method == "numeric"
               else (result.labels, result.phi, result.radii, bounds))
    _write_text(out, _csv(*columns))
    _echo_summary(out, _verdict_line(verdict, result.labels, result.kind))


def _window(model, t_start: float | None, t_end: float | None):
    """The model's grid (ModelSpec.times) up to t_end, and its first point
    at or past t_start, each end widened by a few ulps, relative to its
    own scale; an end past horizon * step is refused."""
    start = 0.0 if t_start is None else float(t_start)
    end = model.horizon * model.step if t_end is None else float(t_end)
    for flag, value in (("--t-start", start), ("--t-end", end)):
        if not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if start < 0 or end < start:
        raise ValueError("need 0 <= t-start <= t-end")
    slack = 4 * np.finfo(np.float64).eps
    times = model.times()
    if end > times[-1] * (1 + slack):
        raise ValueError(f"--t-end {end:g} lies past the horizon "
                         f"{model.horizon} * {model.step:g} = {times[-1]:g}")
    times = times[times <= end * (1 + slack)]
    first = int(np.searchsorted(times, start * (1 - slack)))
    if first == len(times):
        raise ValueError(f"no grid point lies in [{start:g}, {end:g}]")
    return times, first


@main.command("order")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default="-", help="JSON destination ('-' = stdout)")
@_handle_errors
def order_cmd(model_path: str, out: str) -> None:
    """Rank dynamics cells by sensitivity of the largest singular value."""
    model = load_model(model_path)
    om = order_cells(model.a)
    _write_json(out, {
        "model": model.name,
        "dimension": model.dim,
        "scores": om.scores,
        "ranking": om.ranking,
        "top": om.top(5),
        "bottom": om.bottom(5),
    })


@main.command("robust")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--cell", "cells", multiple=True, required=True,
              help="ROW,COL of a cell to perturb (repeatable)")
@click.option("--scheme", default="equal", type=click.Choice(list(SCHEMES)))
@click.option("--step", default=0.05, type=float, show_default=True,
              help="budget grid spacing")
@click.option("--cap", default=200, type=int, show_default=True,
              help="size of the budget grid 0, step, ..., (cap - 1) step")
@click.option("--out", default="-", help="JSON destination ('-' = stdout)")
@_handle_errors
def robust_cmd(model_path: str, cells: tuple[str, ...], scheme: str,
               step: float, cap: int, out: str) -> None:
    """Search the largest safe uncertainty budget over the given cells."""
    model = load_model(model_path)
    cell_list = [_parse_cell(c) for c in cells]
    report = robustness_threshold(model, cell_list, scheme=scheme, step=step,
                                  cap=cap)
    _write_json(out, {"model": model.name} | dataclasses.asdict(report))
    _echo_summary(out, f"largest safe budget {FMT.format(report.final_budget)} "
                       f"(norm {FMT.format(report.norm)})")


@main.command("norms")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@_handle_errors
def norms_cmd(model_path: str) -> None:
    """Print interval norms of the model's perturbation family."""
    model = load_model(model_path)
    pert = model.perturbation()
    click.echo(f"frobenius_sup {FMT.format(pert.frobenius_sup())}")
    click.echo(f"two_norm_sup {FMT.format(pert.two_norm_sup())}")


if __name__ == "__main__":
    main()
