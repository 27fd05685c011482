"""Textual model files (YAML): parse, validate, serialize.

A model document carries name, dimension, dynamics (row-major matrix,
continuous flag, step), per-cell uncertainty, initial box, unsafe
half-spaces, horizon and the reduction policy.  All numbers must be
finite; malformed documents raise ModelFileError with the offending key.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

from .engine import CellUncertainty, HalfSpace, ModelSpec, REDUCTION_METHODS
from .errors import DimensionMismatch, ModelFileError
from .stars import Box

__all__ = [
    "load_model",
    "parse_model",
    "model_to_dict",
    "serialize_model",
    "save_model",
]


def _finite(x, key: str) -> float:
    try:
        val = float(x)
    except (TypeError, ValueError):
        raise ModelFileError(f"{key}: expected a number, got {x!r}") from None
    if not math.isfinite(val):
        raise ModelFileError(f"{key}: must be finite, got {x!r}")
    return val


def _int(x, key: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ModelFileError(f"{key}: expected an integer, got {x!r}")
    return x


def _require(doc: dict, key: str):
    if key not in doc:
        raise ModelFileError(f"missing required key {key!r}")
    return doc[key]


def parse_model(text: str) -> ModelSpec:
    """Parse and validate a model document from YAML text."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ModelFileError(f"not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a mapping")

    name = _require(doc, "name")
    if not isinstance(name, str) or not name:
        raise ModelFileError("name: expected a nonempty string")
    n = _int(_require(doc, "dimension"), "dimension")
    if n < 1:
        raise ModelFileError("dimension: must be at least 1")

    dyn = _require(doc, "dynamics")
    if not isinstance(dyn, dict):
        raise ModelFileError("dynamics: expected a mapping")
    flat = _require(dyn, "matrix")
    if not isinstance(flat, list) or len(flat) != n * n:
        raise ModelFileError(
            f"dynamics.matrix: expected a row-major list of {n * n} numbers"
        )
    a = np.asarray(
        [_finite(v, "dynamics.matrix") for v in flat], dtype=np.float64
    ).reshape(n, n)
    continuous = dyn.get("continuous", True)
    if not isinstance(continuous, bool):
        raise ModelFileError("dynamics.continuous: expected a boolean")
    step = None
    if continuous:
        step = _finite(_require(dyn, "step"), "dynamics.step")
        if step <= 0:
            raise ModelFileError("dynamics.step: must be positive")
    elif "step" in dyn and dyn["step"] is not None:
        raise ModelFileError("dynamics.step: only meaningful for continuous models")

    cells = []
    for idx, item in enumerate(doc.get("uncertainty") or []):
        key = f"uncertainty[{idx}]"
        if not isinstance(item, dict):
            raise ModelFileError(f"{key}: expected a mapping")
        row = _int(_require(item, "row"), f"{key}.row")
        col = _int(_require(item, "col"), f"{key}.col")
        has_rel = "relative" in item
        has_iv = "interval" in item
        if has_rel == has_iv:
            raise ModelFileError(f"{key}: give exactly one of relative or interval")
        try:
            if has_rel:
                rel = _finite(item["relative"], f"{key}.relative")
                cells.append(CellUncertainty(row, col, relative=rel))
            else:
                iv = item["interval"]
                if not isinstance(iv, list) or len(iv) != 2:
                    raise ModelFileError(f"{key}.interval: expected [lo, hi]")
                lo = _finite(iv[0], f"{key}.interval")
                hi = _finite(iv[1], f"{key}.interval")
                cells.append(CellUncertainty(row, col, interval=(lo, hi)))
        except ValueError as exc:
            raise ModelFileError(f"{key}: {exc}") from None

    init = _require(doc, "initial")
    if not isinstance(init, dict):
        raise ModelFileError("initial: expected a mapping")
    box_rows = _require(init, "box")
    if not isinstance(box_rows, list) or len(box_rows) != n:
        raise ModelFileError(f"initial.box: expected {n} [lo, hi] pairs")
    lo = np.empty(n)
    hi = np.empty(n)
    for i, pair in enumerate(box_rows):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ModelFileError(f"initial.box[{i}]: expected [lo, hi]")
        lo[i] = _finite(pair[0], f"initial.box[{i}]")
        hi[i] = _finite(pair[1], f"initial.box[{i}]")
        if lo[i] > hi[i]:
            raise ModelFileError(f"initial.box[{i}]: lower bound exceeds upper")

    planes = []
    for idx, item in enumerate(doc.get("unsafe") or []):
        key = f"unsafe[{idx}]"
        if not isinstance(item, dict):
            raise ModelFileError(f"{key}: expected a mapping")
        normal = _require(item, "normal")
        if not isinstance(normal, list) or len(normal) != n:
            raise ModelFileError(f"{key}.normal: expected {n} numbers")
        vec = np.asarray([_finite(v, f"{key}.normal") for v in normal])
        offset = _finite(_require(item, "offset"), f"{key}.offset")
        try:
            planes.append(HalfSpace(vec, offset))
        except ValueError as exc:
            raise ModelFileError(f"{key}: {exc}") from None

    red = doc.get("reduction") or {}
    if not isinstance(red, dict):
        raise ModelFileError("reduction: expected a mapping")
    method = red.get("method", "none")
    if method not in REDUCTION_METHODS:
        raise ModelFileError(
            f"reduction.method: expected one of {REDUCTION_METHODS}, got {method!r}"
        )

    try:
        return ModelSpec(
            name=name,
            a=a,
            uncertainty=tuple(cells),
            initial=Box(lo, hi),
            horizon=_require(doc, "horizon"),
            continuous=continuous,
            step=step,
            unsafe=tuple(planes),
            reduction_method=method,
            reduction_period=red.get("period", 500),
        )
    except (ValueError, DimensionMismatch) as exc:
        raise ModelFileError(str(exc)) from None


def load_model(path) -> ModelSpec:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from None
    return parse_model(text)


def model_to_dict(model: ModelSpec) -> dict:
    """Canonical plain-data form of a model (the serialize target)."""
    doc: dict = {
        "name": model.name,
        "dimension": model.dim,
        "dynamics": {
            "matrix": [float(v) for v in model.a.ravel()],
            "continuous": model.continuous,
        },
    }
    if model.continuous:
        doc["dynamics"]["step"] = float(model.step)
    cells = []
    for c in model.uncertainty:
        item: dict = {"row": c.row, "col": c.col}
        if c.relative is not None:
            item["relative"] = float(c.relative)
        else:
            item["interval"] = [float(c.interval[0]), float(c.interval[1])]
        cells.append(item)
    doc["uncertainty"] = cells
    doc["initial"] = {
        "box": [[float(lo), float(hi)] for lo, hi in zip(model.initial.lo,
                                                         model.initial.hi)]
    }
    doc["unsafe"] = [
        {"normal": [float(v) for v in hs.normal], "offset": float(hs.offset)}
        for hs in model.unsafe
    ]
    doc["horizon"] = model.horizon
    doc["reduction"] = {
        "method": model.reduction_method,
        "period": model.reduction_period,
    }
    return doc


def serialize_model(model: ModelSpec) -> str:
    return yaml.safe_dump(model_to_dict(model), sort_keys=False)


def save_model(model: ModelSpec, path) -> None:
    Path(path).write_text(serialize_model(model))
