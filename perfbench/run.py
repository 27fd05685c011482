"""uncreach benchmark: closed-loop passes over fixed lists of analyses.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run every
workload in this one process.  Run from a checkout of the repository; the
package is imported from its `src/` directory.

A run:

1. set-up (untraced runs only): a fresh interpreter runs `import uncreach`
   and `load_model` on the workload's model files, timed from outside;
   SETUP_REPS starts, median at reference speed -> `setup_s`;
2. a first pass, which is the warm-up: each analysis runs under
   `tracemalloc` (untraced runs only; peak -> `peak_mem_mb`) and its
   output is checked;
3. timed passes until `--seconds` have elapsed (at least MIN_PASSES);
   the median pass time at reference speed (see CAL_REF_S) -> `pass_s`.
   With `--trace 1`, untraced and traced passes alternate instead, and
   the per-layer numbers (spans.py) come from the traced ones.

`attempted` is the number of analyses in the workload and `failed` the
number that raised in any pass or failed their output check.  The last
line of stdout is the JSON result; the lines before it record the
environment and a readable summary.
"""

from __future__ import annotations

import os

# Small matrices throughout: one BLAS thread keeps passes steady.  Set
# before numpy is imported, and inherited by the child interpreters.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import uncreach  # noqa: E402

from workloads import WORKLOADS, Workload, build  # noqa: E402

SETUP_REPS = 3
MIN_PASSES = 1
CLI_REPS = 3

# The shared machines this runs on change speed by up to 1.5x over tens of
# seconds, which moves raw pass times of one workload by 13-21% (quartile
# spread over runs).  A fixed numpy loop that does not touch uncreach is
# timed between analyses, and pass times are reported at the speed where
# that loop takes CAL_REF_S.  The raw wall medians are printed alongside.
CAL_REF_S = 0.03
_CAL_M = np.random.default_rng(0).normal(size=(4, 4))


def calibrate() -> float:
    """Wall time of the fixed calibration loop."""
    start = time.perf_counter()
    x = np.ones(4)
    for _ in range(4500):
        x = _CAL_M @ x
        x = x / (np.abs(x).max() + 1.0)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, cal_before: float,
                       cal_after: float) -> float:
    return seconds * 2.0 * CAL_REF_S / (cal_before + cal_after)


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("flops"):
        return "flop"
    if name.endswith("bytes"):
        return "byte"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    if name.endswith("log10"):
        return "log10"
    return "count"


def pin_cpu() -> int:
    """Pin this process, and the children it starts, to one CPU.

    The calibration loop must run on the CPU whose speed it stands for.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": uncreach.BACKEND,
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def timed_child(args: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(args, check=True, env=child_env(), cwd=ROOT,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def setup_seconds(workload: Workload) -> float:
    """Median child start, at reference speed like the passes."""
    code = ("import sys, uncreach; "
            "[uncreach.load_model(p) for p in sys.argv[1:]]")
    args = [sys.executable, "-c", code] + [str(p) for p in workload.model_files]
    times = []
    before = calibrate()
    for _ in range(SETUP_REPS):
        dt = timed_child(args)
        after = calibrate()
        times.append(at_reference_speed(dt, before, after))
        before = after
    return statistics.median(times)


def cli_reach_seconds() -> float:
    """`uncreach reach` on girad1 through `python -m uncreach.cli`."""
    WORK.mkdir(exist_ok=True)
    out = WORK / "reach.csv"
    args = [sys.executable, "-m", "uncreach.cli", "reach",
            str(SRC / "uncreach" / "models" / "girad1.yaml"), "--out", str(out)]
    try:
        return statistics.median(timed_child(args) for _ in range(CLI_REPS))
    finally:
        out.unlink(missing_ok=True)
        WORK.rmdir()


def load_model_seconds(workload: Workload) -> float:
    times = []
    for _ in range(20):
        start = time.perf_counter()
        for path in workload.model_files:
            uncreach.load_model(path)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs one workload's passes and keeps its failures."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = np.random.default_rng([seed, 1])
        self.failures: dict[str, str] = {}
        self.wrong: list[str] = []
        self.width_ratios: list[float] = []
        self.budgets: list[float] = []

    def _run(self, analysis):
        try:
            return analysis.run()
        except Exception as exc:  # a failed analysis must not stop the run
            self.failures.setdefault(analysis.name,
                                     f"{type(exc).__name__}: {exc}")
            return None

    def checked_pass(self, memory: bool) -> float:
        """Warm-up pass with output checks; peak traced memory in MB.

        `tracemalloc` slows the pass about threefold, so traced runs, which
        do not report memory, leave it off (and report 0).
        """
        peak = 0
        for analysis in self.workload.analyses:
            gc.collect()
            if memory:
                tracemalloc.start()
            out = self._run(analysis)
            if memory:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            if out is None:
                continue
            got = analysis.check(out, self.rng)
            del out
            if got.problems:
                self.wrong.append(analysis.name)
                self.failures.setdefault(analysis.name, "; ".join(got.problems))
            if got.width_ratio is not None:
                self.width_ratios.append(got.width_ratio)
            if got.final_budget is not None:
                self.budgets.append(got.final_budget)
        return peak / 1e6

    def timed_pass(self) -> tuple[float, float]:
        """One pass: (wall seconds, seconds at reference speed).

        The calibration loop runs between analyses, outside the timed
        region; each analysis is scaled by the mean of the calibration
        times just before and just after it.
        """
        gc.collect()
        wall = scaled = 0.0
        before = calibrate()
        for analysis in self.workload.analyses:
            start = time.perf_counter()
            self._run(analysis)
            dt = time.perf_counter() - start
            after = calibrate()
            wall += dt
            scaled += at_reference_speed(dt, before, after)
            before = after
        return wall, scaled


def percentile_note(times: list[float]) -> str:
    """Highest percentile with at least ten passes beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(times) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(times, n=100)[p - 1]
            return f"p{p} {q:.4f} s"
    return "no percentile has 10 passes beyond it"


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """One workload's result object, after printing its summary lines."""
    name = workload.name
    runner = Runner(workload, seed)
    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = setup_seconds(workload)
    peak_mb = runner.checked_pass(memory=not trace)
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    if trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        faults = sys_s = 0.0
        while time.perf_counter() < deadline or len(traced) < MIN_PASSES:
            plain.append(runner.timed_pass())
            before = resource.getrusage(resource.RUSAGE_SELF)
            with tracer:
                traced.append(runner.timed_pass())
            after = resource.getrusage(resource.RUSAGE_SELF)
            faults += after.ru_minflt - before.ru_minflt
            sys_s += after.ru_stime - before.ru_stime
        n = len(traced)
        metrics.update(layer_metrics(tracer, n))
        metrics["os.minor_faults"] = faults / n
        metrics["os.sys_s"] = sys_s / n
        metrics["modelfile.load_model.s"] = load_model_seconds(workload)
        metrics["cli.reach.s"] = cli_reach_seconds()
        traced_s = statistics.median(p[1] for p in traced)
        plain_s = statistics.median(p[1] for p in plain)
        metrics["trace.pass_s"] = traced_s
        metrics["trace.untraced_pass_s"] = plain_s
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.coverage"] = (sum(tracer.self_s.values())
                                     / sum(p[0] for p in traced))
    else:
        while time.perf_counter() < deadline or len(plain) < MIN_PASSES:
            plain.append(runner.timed_pass())
        metrics["pass_s"] = statistics.median(p[1] for p in plain)
        metrics["peak_mem_mb"] = peak_mb

    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(plain),
        "pass_s_median": statistics.median(p[1] for p in plain),
        "pass_s_tail": percentile_note([p[1] for p in plain]),
        "wall_pass_s_median": statistics.median(p[0] for p in plain),
        "ops": len(workload.analyses),
        "ops_failed": len(runner.failures),
    }
    if runner.width_ratios:
        summary["width_ratio"] = math.exp(statistics.fmean(
            math.log(r) for r in runner.width_ratios))
    if runner.budgets:
        summary["safe_budget"] = sum(runner.budgets)
    print("summary " + json.dumps(summary))
    for analysis, why in runner.failures.items():
        print(f"failed {name} {analysis}: {why}")
    return {
        "correct": not runner.wrong,
        "attempted": len(workload.analyses),
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(uncreach.__file__).resolve().parent != SRC / "uncreach":
        print(f"uncreach imported from {uncreach.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment()
    env["cpu"] = pin_cpu()
    print("env " + json.dumps(env))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: measure(build(n, ROOT, args.seed), args.seed, args.seconds,
                          bool(args.trace))
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                         for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
