"""Over-approximate reachability and safety robustness for linear systems
whose dynamics matrix carries per-cell interval uncertainty."""

from ._kernels import BACKEND
from .bounds import (
    BloatSeries,
    bloat_factor,
    bloat_series,
    interval_norm,
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
    DegenerateSV,
    DimensionMismatch,
    ModelFileError,
    ReachError,
    RemainderDiverges,
)
from .intervals import Interval, IntervalMatrix, interval_expm
from .modelfile import load_model, model_to_dict, parse_model, save_model, \
    serialize_model
from .robustness import ThresholdReport, budget_weights, distribute, \
    robustness_threshold
from .sensitivity import OrdMatrix, max_sv_radius, order_cells, sv_change
from .stars import Box, Star, compact, interval_reduce, lambda_box, linear_map, \
    minkowski_sum, zono_reduce

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BloatSeries",
    "Box",
    "CellUncertainty",
    "DefectiveMatrix",
    "DegenerateSV",
    "DimensionMismatch",
    "HalfSpace",
    "Interval",
    "IntervalMatrix",
    "ModelFileError",
    "ModelSpec",
    "OrdMatrix",
    "ReachError",
    "ReachResult",
    "RemainderDiverges",
    "SafetyVerdict",
    "Star",
    "ThresholdReport",
    "bloat_factor",
    "bloat_series",
    "budget_weights",
    "compact",
    "discretize",
    "distribute",
    "interval_expm",
    "interval_norm",
    "interval_reduce",
    "kagstrom1",
    "kagstrom2",
    "lambda_box",
    "linear_map",
    "load_model",
    "loan",
    "max_sv_radius",
    "minkowski_sum",
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
    "zono_reduce",
]
