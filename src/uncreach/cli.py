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

from .engine import ors_reach, safety_check, symbolic_reach
from .errors import ModelFileError, ReachError
from .modelfile import load_model
from .robustness import SCHEMES, robustness_threshold
from .sensitivity import order_cells

FMT = "{:.17g}"
_SYMBOLIC_ROWS = ("labels", "lo", "hi", "radii", "gen_counts", "flows", "flow_pad", "phi")


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
    where = (
        f"t={FMT.format(labels[verdict.step])}"
        if kind == "symbolic"
        else f"step {int(labels[verdict.step])}"
    )
    return f"verdict: unsafe at {where}, half-space {verdict.halfspace}"


def _bounds_cells(result, k: int) -> list[str]:
    return [FMT.format(v) for pair in zip(result.lo[k], result.hi[k]) for v in pair]


def _numeric_csv(result) -> str:
    lines = [
        ",".join([str(int(result.labels[k]))] + _bounds_cells(result, k)
                 + [str(int(result.gen_counts[k]))])
        for k in range(len(result))
    ]
    return "\n".join(lines) + "\n"


def _symbolic_csv(result) -> str:
    lines = [
        ",".join([FMT.format(result.labels[k]), FMT.format(result.phi[k]),
                  FMT.format(result.radii[k])] + _bounds_cells(result, k))
        for k in range(len(result))
    ]
    return "\n".join(lines) + "\n"


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
              type=click.Choice(["numeric", "kagstrom1", "kagstrom2", "loan"]),
              help="numeric star recurrence or a symbolic bloating bound")
@click.option("--norm", default="two", type=click.Choice(["two", "frobenius"]),
              help="interval norm feeding the symbolic bounds")
@click.option("--out", default="-", help="CSV destination ('-' = stdout)")
@click.option("--t-start", type=float, default=None,
              help="symbolic window start (default 0; off the grid, the "
                   "next grid point)")
@click.option("--t-end", type=float, default=None,
              help="symbolic window end (default horizon*step)")
@_handle_errors
def reach_cmd(model_path: str, method: str, norm: str, out: str,
              t_start: float | None, t_end: float | None) -> None:
    """Compute a flowpipe and report the safety verdict.

    Numeric rows: step, lo_1, hi_1, ..., lo_n, hi_n, gen_count.
    Symbolic rows: t, phi, radius, lo_1, hi_1, ..., lo_n, hi_n.  A window
    prints the rows of the grid from 0 to --t-end that lie in the window.
    """
    model = load_model(model_path)
    if method == "numeric":
        if t_start is not None or t_end is not None:
            raise ValueError("--t-start/--t-end apply to symbolic methods only")
        result = ors_reach(model)
        csv_text = _numeric_csv(result)
    else:
        if not model.continuous:
            raise ValueError("symbolic bounds need a continuous model")
        times, first = _window(model, t_start, t_end)
        full = symbolic_reach(model.a, model.perturbation(), model.initial,
                              times, method=method, norm_kind=norm)
        result = dataclasses.replace(full, **{
            k: getattr(full, k)[first:] for k in _SYMBOLIC_ROWS})
        csv_text = _symbolic_csv(result)
    verdict = safety_check(result, model.unsafe)
    _write_text(out, csv_text)
    _echo_summary(out, _verdict_line(verdict, result.labels, result.kind))


def _window(model, t_start: float | None, t_end: float | None):
    """The grid 0, h, ... up to t_end, and its first point at or past t_start."""
    start = 0.0 if t_start is None else float(t_start)
    end = model.horizon * model.step if t_end is None else float(t_end)
    if start < 0 or end < start:
        raise ValueError("need 0 <= t-start <= t-end")
    times = np.arange(int(round(end / model.step)) + 1) * model.step
    times = times[times <= end + 1e-12]
    first = int(np.searchsorted(times, start - 1e-12))
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
    doc = {
        "model": model.name,
        "dimension": model.dim,
        "scores": [[float(v) for v in row] for row in om.scores],
        "ranking": [[i, j] for i, j in om.ranking],
        "top": [[i, j] for i, j in om.top(5)],
        "bottom": [[i, j] for i, j in om.bottom(5)],
    }
    _write_text(out, json.dumps(doc, indent=2) + "\n")


@main.command("robust")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--cell", "cells", multiple=True, required=True,
              help="ROW,COL of a cell to perturb (repeatable)")
@click.option("--scheme", default="equal", type=click.Choice(list(SCHEMES)))
@click.option("--step", default=0.05, type=float, show_default=True,
              help="budget grid spacing")
@click.option("--cap", default=200, type=int, show_default=True,
              help="maximum number of budgets to try")
@click.option("--proportional-literal", is_flag=True,
              help="literal sum-of-smaller-scores weights (see README)")
@click.option("--out", default="-", help="JSON destination ('-' = stdout)")
@_handle_errors
def robust_cmd(model_path: str, cells: tuple[str, ...], scheme: str,
               step: float, cap: int, proportional_literal: bool,
               out: str) -> None:
    """Search the largest safe uncertainty budget over the given cells."""
    model = load_model(model_path)
    cell_list = [_parse_cell(c) for c in cells]
    report = robustness_threshold(model, cell_list, scheme=scheme, step=step,
                                  cap=cap,
                                  proportional_literal=proportional_literal)
    doc = {
        "model": model.name,
        "scheme": report.scheme,
        "cells": [[i, j] for i, j in report.cells],
        "step": report.step,
        "final_budget": report.final_budget,
        "norm": report.norm,
        "iterations": report.iterations,
        "already_unsafe": report.already_unsafe,
        "cap_reached": report.cap_reached,
        "trace": [[p, safe] for p, safe in report.trace],
        "safe_uncertainty": {
            "lo": [[float(v) for v in row] for row in report.safe_uncertainty.lo],
            "hi": [[float(v) for v in row] for row in report.safe_uncertainty.hi],
        },
    }
    _write_text(out, json.dumps(doc, indent=2) + "\n")
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
