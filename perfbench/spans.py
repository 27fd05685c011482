"""Per-layer spans around calls into the `uncreach` modules.

The tracer swaps wrapped versions of public functions into every loaded
`uncreach` module (and methods into their classes) while it is active and
restores the originals on exit; nothing in the package changes.  Each span
records its calls and its self time (its duration minus that of the spans
it caused), so the self times of all spans plus the harness's own time add
up to the traced wall time.  Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import types
from collections import defaultdict

import numpy as np

from uncreach import _kernels, bounds, engine, intervals, robustness, \
    sensitivity, stars

SEARCH_SPAN = "robustness.robustness_threshold"


def _kernel_lambda_box(llo, lhi, anchor, gens, clo, chi):
    """Computed flops and bytes of lambda_box_core (numpy form).

    Flops: 2 per multiply-add of the six matrix products plus one per
    element-wise operation on the (n, m) arrays.  Bytes: operands read and
    results written once; temporaries and cache misses are ignored.
    """
    n, m = gens.shape
    flops = 4 * n * n + 8 * n * n * m + 14 * n * m
    nbytes = 8 * (2 * n * n + n + n * m + 2 * m + 2 * n)
    return flops, nbytes


def _kernel_support(anchor, gens, clo, chi, dirs):
    k = dirs.shape[0]
    n, m = gens.shape
    return 2 * k * n + 2 * k * n * m + 4 * k * m, 8 * (n + n * m + 2 * m + k * n + k)


def _kernel_box(anchor, gens, clo, chi):
    n, m = gens.shape
    return 6 * n * m, 8 * (n + n * m + 2 * m + 2 * n)


KERNEL_COST = {
    "lambda_box_core": _kernel_lambda_box,
    "support_core": _kernel_support,
    "box_core": _kernel_box,
}


class Tracer:
    """Collects spans and counters while installed (use as a context)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.phi_end: list[float] = []
        self._child = [0.0]  # time of finished child spans, per open span
        self._open: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _span(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._child.append(0.0)
            tracer._open.append(name)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                child = tracer._child.pop()
                tracer._open.pop()
                tracer._child[-1] += dt
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - child
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, name: str, fn, after=None) -> None:
        """Replace fn wherever an uncreach module binds it."""
        wrapped = self._span(name, fn, after)
        for modname, mod in list(sys.modules.items()):
            if modname != "uncreach" and not modname.startswith("uncreach."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapped)

    def _patch_method(self, name: str, cls, attr: str, after=None) -> None:
        self._patch(cls, attr, self._span(name, vars(cls)[attr], after))

    # -- counters ---------------------------------------------------------

    def _count_object(self, args, out) -> None:
        self.counts["stars.objects"] += 1

    def _count_generators(self, args, result) -> None:
        self.counts["stars.gen_cols"] += float(np.sum(result.gen_counts))
        self.counts["stars.gens_max"] = max(self.counts["stars.gens_max"],
                                            float(np.max(result.gen_counts)))

    def _count_flowpipe(self, args, result) -> None:
        self._count_generators(args, result)
        if SEARCH_SPAN in self._open:
            self.counts["robustness.flowpipes"] += 1
            self.counts["robustness.steps"] += len(result) - 1

    def _count_search(self, args, report) -> None:
        # the last safe and the first unsafe budget decide the answer
        decisive = 1 if report.cap_reached or report.already_unsafe else 2
        self.counts["robustness.decisive"] += min(decisive, report.iterations)

    def _count_phi(self, args, series) -> None:
        self.phi_end.append(float(series.phi[-1]) if series.phi.size else 0.0)

    def _count_kernel(self, kernel: str):
        cost = KERNEL_COST[kernel]

        def after(args, out) -> None:
            flops, nbytes = cost(*args)
            self.counts["kernels.flops"] += flops
            self.counts["kernels.bytes"] += nbytes

        return after

    def _count_expm(self, args, out) -> None:
        self.counts["engine.expm.calls"] += 1

    # -- install / remove -------------------------------------------------

    def __enter__(self) -> "Tracer":
        for kernel in KERNEL_COST:
            self._patch_function(f"kernels.{kernel}", getattr(_kernels, kernel),
                                 self._count_kernel(kernel))
        for cls in (stars.Star, stars.Box):
            self._patch_method("stars.validate", cls, "__post_init__",
                               self._count_object)
        self._patch_method("stars.bounding_box", stars.Star, "bounding_box")
        self._patch_method("stars.support", stars.Star, "support_batch")
        for fn in ("lambda_box", "linear_map", "minkowski_sum", "compact"):
            self._patch_function(f"stars.{fn}", getattr(stars, fn))
        for fn in ("interval_reduce", "zono_reduce"):
            self._patch_function("stars.reduce", getattr(stars, fn))
        self._patch_function("intervals.interval_expm", intervals.interval_expm)
        self._patch_method("intervals.two_norm_sup", intervals.IntervalMatrix,
                           "two_norm_sup")
        self._patch_function("bounds.bloat_series", bounds.bloat_series,
                             self._count_phi)
        self._patch_function("engine.discretize", engine.discretize)
        self._patch_function("engine.recurrence", engine.reach_with_perturbation,
                             self._count_flowpipe)
        self._patch_function("engine.ors_reach", engine.ors_reach)
        self._patch_function("engine.symbolic_reach", engine.symbolic_reach,
                             self._count_generators)
        self._patch_function("engine.safety_check", engine.safety_check)
        expm = self._span("engine.expm", engine.scipy.linalg.expm,
                          self._count_expm)
        self._patch(engine, "scipy",
                    types.SimpleNamespace(linalg=types.SimpleNamespace(expm=expm)))
        self._patch_function("sensitivity.order_cells", sensitivity.order_cells)
        self._patch_function(SEARCH_SPAN, robustness.robustness_threshold,
                             self._count_search)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# Span name -> reported metric name; every other span reports "<span>.s".
# All times are self times.
SPAN_METRIC = {
    "stars.validate": "stars.validate_s",
    "engine.recurrence": "engine.recurrence.self_s",
    "engine.symbolic_reach": "engine.symbolic_reach.self_s",
}
SPANS = (
    "engine.ors_reach", "engine.recurrence", "engine.discretize",
    "engine.symbolic_reach", "engine.safety_check", "engine.expm",
    "stars.validate", "stars.lambda_box", "stars.linear_map",
    "stars.minkowski_sum", "stars.compact", "stars.reduce",
    "stars.bounding_box", "stars.support",
    "kernels.lambda_box_core", "kernels.support_core", "kernels.box_core",
    "intervals.interval_expm", "intervals.two_norm_sup",
    "bounds.bloat_series", "sensitivity.order_cells", SEARCH_SPAN,
)
COUNTERS = (
    "stars.objects", "stars.gen_cols", "stars.gens_max", "kernels.flops",
    "kernels.bytes", "engine.expm.calls", "robustness.flowpipes",
    "robustness.steps",
)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass self times and counters of the traced passes.

    `stars.gens_max` is the largest generator count seen in any pass.
    `robustness.useful_ratio` is decisive flowpipes (the last safe and the
    first unsafe budget of each search) over flowpipes run, 0 without
    searches.  `bounds.phi_end_log10` is the largest finite log10 phi at
    the end of a bound series (0 without series); series that reach inf
    count in `bounds.phi_saturated`.
    """
    out = {SPAN_METRIC.get(s, f"{s}.s"): tracer.self_s[s] / passes
           for s in SPANS}
    out["intervals.interval_expm.calls"] = (
        tracer.calls["intervals.interval_expm"] / passes)
    for name in COUNTERS:
        out[name] = tracer.counts[name] / (
            1 if name == "stars.gens_max" else passes)
    flowpipes = tracer.counts["robustness.flowpipes"]
    out["robustness.useful_ratio"] = (
        tracer.counts["robustness.decisive"] / flowpipes if flowpipes else 0.0)
    finite = [p for p in tracer.phi_end if 0 < p < math.inf]
    out["bounds.phi_end_log10"] = (
        max(math.log10(p) for p in finite) if finite else 0.0)
    out["bounds.phi_saturated"] = (
        sum(p == math.inf for p in tracer.phi_end) / passes)
    return out

