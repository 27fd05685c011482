"""Fast self-test of the benchmark harness on tiny analyses.

    python3 perfbench/selftest.py

Checks that a run emits exactly the metrics BENCHMARK.json names, each with
its unit, and that the output checks catch wrong outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import unittest

import numpy as np

import run
import workloads as W

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_workload() -> W.Workload:
    m = W.load_shipped(run.ROOT)
    short = dataclasses.replace(m["twocell"], horizon=20)
    return W.Workload(
        name="tiny",
        model_files=(W.model_dir(run.ROOT) / "twocell.yaml",),
        analyses=[
            W.numeric_reach("twocell/short", short),
            W.symbolic("twocell/short-loan", short, "loan"),
            W.search("grow1d/equal", m["grow1d"], [(0, 0)], "equal", 0.05, 0.1),
        ],
    )


def quiet_measure(workload: W.Workload, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.measure(workload, seed=3, seconds=0.0, trace=trace)


class HarnessTest(unittest.TestCase):

    def assert_metrics(self, result: dict, spec_key: str) -> None:
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: run.unit_of(k) for k in result["metrics"]}
        self.assertEqual(got, want)
        for name, value in result["metrics"].items():
            self.assertTrue(math.isfinite(value), name)
        self.assertEqual(result["attempted"], 3)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])

    def test_end_to_end_metrics_named_with_units(self):
        self.assert_metrics(quiet_measure(tiny_workload(), False), "end_to_end")

    def test_per_layer_metrics_named_with_units(self):
        self.assert_metrics(quiet_measure(tiny_workload(), True), "per_layer")

    def test_workloads_match_spec(self):
        self.assertEqual({w["name"]: w["why"] for w in SPEC["workloads"]},
                         W.WHY)

    def test_shrunken_box_fails_its_check(self):
        analysis = tiny_workload().analyses[0]
        result, verdict = analysis.run()
        rng = np.random.default_rng(0)
        self.assertEqual(analysis.check((result, verdict), rng).problems, [])
        box = result.boxes[10]
        mid, rad = box.center, box.radius
        result.boxes[10] = W.u.Box(mid - 0.5 * rad, mid + 0.5 * rad)
        self.assertNotEqual(analysis.check((result, verdict), rng).problems, [])

    def test_low_budget_fails_its_check(self):
        m = W.load_shipped(run.ROOT)
        analysis = W.search("grow1d/equal", m["grow1d"], [(0, 0)], "equal",
                            0.05, 0.15)
        got = analysis.check(analysis.run(), np.random.default_rng(0))
        self.assertNotEqual(got.problems, [])

    def test_raising_analysis_counts_as_failed(self):
        workload = tiny_workload()
        workload.analyses.append(
            W.Analysis("raises", lambda: 1 / 0, lambda out, rng: W.Checked()))
        result = quiet_measure(workload, False)
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
