"""Over-approximate reachability and safety robustness for linear systems
whose dynamics matrix carries per-cell interval uncertainty."""

from .bounds import (
    BloatSeries,
    bloat_series,
    kagstrom1,
    kagstrom2,
    loan,
    p_poly,
    spectral_data,
)
from .engine import (
    CellUncertainty,
    HalfSpace,
    ModelSpec,
    ReachResult,
    SafetyVerdict,
    discretize,
    nominal_reach,
    ors_reach,
    reach_with_perturbation,
    safety_check,
    symbolic_reach,
)
from .errors import (
    DefectiveMatrix,
    DimensionMismatch,
    ModelFileError,
    ReachError,
)
from .intervals import Box, IntervalMatrix, interval_expm
from .modelfile import load_model, model_to_dict, parse_model, save_model, \
    serialize_model
from .robustness import ThresholdReport, budget_weights, distribute, \
    robustness_threshold
from .sensitivity import OrdMatrix, order_cells, sv_change

__version__ = "0.1.0"

# Every array operation runs in numpy; perfbench/run.py reports this name.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "BloatSeries",
    "Box",
    "CellUncertainty",
    "DefectiveMatrix",
    "DimensionMismatch",
    "HalfSpace",
    "IntervalMatrix",
    "ModelFileError",
    "ModelSpec",
    "OrdMatrix",
    "ReachError",
    "ReachResult",
    "SafetyVerdict",
    "ThresholdReport",
    "bloat_series",
    "budget_weights",
    "discretize",
    "distribute",
    "interval_expm",
    "kagstrom1",
    "kagstrom2",
    "load_model",
    "loan",
    "model_to_dict",
    "nominal_reach",
    "order_cells",
    "ors_reach",
    "p_poly",
    "parse_model",
    "reach_with_perturbation",
    "robustness_threshold",
    "safety_check",
    "save_model",
    "serialize_model",
    "spectral_data",
    "sv_change",
    "symbolic_reach",
]
