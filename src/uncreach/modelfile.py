"""Textual model files (YAML): parse, serialize.

A model document carries name, dimension, dynamics (row-major matrix,
continuous flag, step), per-cell uncertainty, initial box, unsafe
half-spaces, horizon and the reduction policy.  parse_model checks the
document's shape (required keys, mappings, lists and their lengths; an
optional block is empty only when missing or null) and takes YAML 1.2
numbers, not bools or strings, as floats (engine._real); ModelSpec and
its parts (CellUncertainty, HalfSpace, Box) judge every value, among
them a step given to a discrete model.  Any malformed document raises
ModelFileError: a part's error names the document key (uncertainty[1],
initial.box, ...), ModelSpec's names the field, the position of a bad
cell (uncertainty[1]) or the entry (i,j) of a non-finite matrix entry.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import yaml

from .engine import CellUncertainty, HalfSpace, ModelSpec, _real
from .errors import DimensionMismatch, ModelFileError
from .intervals import Box

__all__ = [
    "load_model",
    "parse_model",
    "model_to_dict",
    "serialize_model",
    "save_model",
]


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's YAML 1.1 safe loader, reading YAML 1.2's 1e-3 and 1.0e3 as
    floats: libyaml's (CSafeLoader), about ten times as fast, where PyYAML
    was built with it, else the pure one (SafeLoader).  Both resolve and
    construct alike, so a document gives the same model or error."""


class _Dumper(yaml.SafeDumper):
    """PyYAML's safe dumper, quoting the strings _Loader reads as floats."""


yaml.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"),
    Loader=_Loader, Dumper=_Dumper)


def _require(doc: dict, key: str):
    if key not in doc:
        raise ModelFileError(f"missing required key {key!r}")
    return doc[key]


def _mapping(x, key: str) -> dict:
    if not isinstance(x, dict):
        raise ModelFileError(f"{key}: expected a mapping")
    return x


def _list(x, key: str, length: int | None = None) -> list:
    """x itself, if it is a list (of the given length)."""
    if not isinstance(x, list) or length not in (None, len(x)):
        entries = "" if length is None else f" of {length} entries"
        raise ModelFileError(f"{key}: expected a list{entries}")
    return x


def _number(x, key: str) -> float:
    try:
        return _real(x, key)
    except ValueError:
        raise ModelFileError(f"{key}: expected a number, got {x!r}") from None


def _numbers(x, key: str, length: int) -> list[float]:
    return [_number(v, key) for v in _list(x, key, length)]


def _build(key: str | None, make, *args, **kwargs):
    """make(*args, **kwargs), its errors as a ModelFileError (after key, if any)."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, DimensionMismatch) as exc:
        raise ModelFileError(f"{key}: {exc}" if key else str(exc)) from None


def parse_model(text: str) -> ModelSpec:
    """Parse a model document from YAML text (see the module docstring)."""
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ModelFileError(f"not valid YAML: {exc}") from None
    doc = _mapping(doc, "model document")
    for key, empty in (("uncertainty", []), ("unsafe", []), ("reduction", {})):
        if doc.get(key) is None:
            doc[key] = empty
    name = _require(doc, "name")
    n = _require(doc, "dimension")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ModelFileError(f"dimension: expected a positive integer, got {n!r}")

    dyn = _mapping(_require(doc, "dynamics"), "dynamics")
    a = np.reshape(_numbers(_require(dyn, "matrix"), "dynamics.matrix", n * n), (n, n))
    red = _mapping(doc["reduction"], "reduction")
    # the document's optional keys; ModelSpec holds their defaults
    spec = {field: src[key] for src, key, field in (
        (dyn, "continuous", "continuous"), (red, "method", "reduction_method"),
        (red, "period", "reduction_period")) if key in src}
    if dyn.get("step") is not None:
        spec["step"] = _number(dyn["step"], "dynamics.step")

    cells = []
    for idx, item in enumerate(_list(doc["uncertainty"], "uncertainty")):
        key = f"uncertainty[{idx}]"
        item = _mapping(item, key)
        form = {}
        if "relative" in item:
            form["relative"] = _number(item["relative"], f"{key}.relative")
        if "interval" in item:
            form["interval"] = tuple(_numbers(item["interval"], f"{key}.interval", 2))
        cells.append(_build(key, CellUncertainty, _require(item, "row"),
                            _require(item, "col"), **form))

    init = _mapping(_require(doc, "initial"), "initial")
    pairs = [_numbers(pair, f"initial.box[{i}]", 2)
             for i, pair in enumerate(_list(_require(init, "box"), "initial.box", n))]
    initial = _build("initial.box", Box, *np.array(pairs).T)

    planes = []
    for idx, item in enumerate(_list(doc["unsafe"], "unsafe")):
        key = f"unsafe[{idx}]"
        item = _mapping(item, key)
        normal = _numbers(_require(item, "normal"), f"{key}.normal", n)
        offset = _number(_require(item, "offset"), f"{key}.offset")
        planes.append(_build(key, HalfSpace, normal, offset))

    return _build(None, ModelSpec, name=name, a=a, uncertainty=tuple(cells),
                  initial=initial, horizon=_require(doc, "horizon"),
                  unsafe=tuple(planes), **spec)


def load_model(path) -> ModelSpec:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from None
    return parse_model(text)


def model_to_dict(model: ModelSpec) -> dict:
    """Canonical plain-data form of a model (the serialize target)."""
    dynamics = {"matrix": model.a.ravel().tolist(), "continuous": model.continuous}
    if model.continuous:
        dynamics["step"] = float(model.step)
    return {
        "name": model.name,
        "dimension": model.dim,
        "dynamics": dynamics,
        "uncertainty": [
            {"row": c.row, "col": c.col} | (
                {"interval": list(c.interval)} if c.relative is None
                else {"relative": float(c.relative)})
            for c in model.uncertainty],
        "initial": {"box": np.column_stack((model.initial.lo, model.initial.hi)).tolist()},
        "unsafe": [{"normal": hs.normal.tolist(), "offset": hs.offset}
                   for hs in model.unsafe],
        "horizon": model.horizon,
        "reduction": {"method": model.reduction_method,
                      "period": model.reduction_period},
    }


def serialize_model(model: ModelSpec) -> str:
    return yaml.dump(model_to_dict(model), Dumper=_Dumper, sort_keys=False)


def save_model(model: ModelSpec, path) -> None:
    Path(path).write_text(serialize_model(model))
