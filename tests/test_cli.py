"""End-to-end tests of the command line interface."""

import importlib.resources
import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from uncreach.cli import main

GROW1D = str(importlib.resources.files("uncreach") / "models" / "grow1d.yaml")
TWOCELL = str(importlib.resources.files("uncreach") / "models" / "twocell.yaml")
GIRAD = str(importlib.resources.files("uncreach") / "models" / "girad1.yaml")
ACC4 = str(importlib.resources.files("uncreach") / "models" / "acc4.yaml")

JORDAN_YAML = """\
name: jordan
dimension: 2
dynamics:
  matrix: [0.0, 1.0, 0.0, 0.0]
  continuous: true
  step: 0.1
uncertainty:
  - {row: 0, col: 0, interval: [-0.1, 0.1]}
initial:
  box:
    - [0.0, 1.0]
    - [0.0, 1.0]
horizon: 5
"""


@pytest.fixture()
def runner():
    return CliRunner()


def parse_csv(text):
    rows = [line.split(",") for line in text.strip().splitlines()]
    return [[float(v) for v in row] for row in rows]


class TestReachNumeric:
    def test_scalar_model_rows(self, runner):
        result = runner.invoke(main, ["reach", GROW1D])
        assert result.exit_code == 0
        rows = parse_csv(result.stdout)
        # step, lo, hi, gen_count for horizon+1 steps
        assert len(rows) == 3
        assert all(len(r) == 4 for r in rows)
        assert rows[0] == [0.0, 1.0, 1.0, 1.0]
        assert rows[2][0] == 2.0
        assert "verdict: safe" in result.stderr

    def test_full_girad_row_count(self, runner):
        result = runner.invoke(main, ["reach", GIRAD])
        assert result.exit_code == 0
        rows = parse_csv(result.stdout)
        assert len(rows) == 2051
        assert all(len(r) == 6 for r in rows)
        steps = [r[0] for r in rows]
        assert steps == list(range(2051))
        # interval reduction every 500 steps caps the generator column
        assert max(r[5] for r in rows) < 2 + 2 * 2050

    def test_zero_uncertainty_matches_between_runs(self, runner, tmp_path):
        model = tmp_path / "nounc.yaml"
        model.write_text(
            "name: nounc\n"
            "dimension: 1\n"
            "dynamics:\n  matrix: [0.5]\n  continuous: false\n"
            "uncertainty: []\n"
            "initial:\n  box:\n    - [1.0, 2.0]\n"
            "horizon: 4\n")
        first = runner.invoke(main, ["reach", str(model)])
        second = runner.invoke(main, ["reach", str(model)])
        assert first.stdout == second.stdout
        rows = parse_csv(first.stdout)
        assert rows[4][1] == pytest.approx(0.0625)
        assert rows[4][2] == pytest.approx(0.125)

    def test_unsafe_verdict_summary(self, runner, tmp_path):
        model = tmp_path / "unsafe.yaml"
        model.write_text(
            "name: unsafe\n"
            "dimension: 1\n"
            "dynamics:\n  matrix: [1.0]\n  continuous: false\n"
            "uncertainty:\n  - {row: 0, col: 0, interval: [0.85, 1.15]}\n"
            "initial:\n  box:\n    - [1.0, 1.0]\n"
            "unsafe:\n  - {normal: [1.0], offset: 1.25}\n"
            "horizon: 2\n")
        result = runner.invoke(main, ["reach", str(model)])
        assert result.exit_code == 0
        assert result.stderr == "verdict: not proven safe at step 2, half-space 0\n"

    def test_out_file_moves_verdict_to_stdout(self, runner, tmp_path):
        out = tmp_path / "flow.csv"
        result = runner.invoke(main, ["reach", GROW1D, "--out", str(out)])
        assert result.exit_code == 0
        assert "verdict: safe" in result.stdout
        rows = parse_csv(out.read_text())
        assert len(rows) == 3

    def test_window_flags_rejected_for_numeric(self, runner):
        result = runner.invoke(main, ["reach", TWOCELL, "--t-start", "0.5"])
        assert result.exit_code == 1
        assert "symbolic" in result.stderr


class TestReachSymbolic:
    def test_columns_and_window(self, runner):
        result = runner.invoke(main, ["reach", TWOCELL, "--method", "loan",
                                      "--t-end", "0.05"])
        assert result.exit_code == 0
        rows = parse_csv(result.stdout)
        # t, phi, radius, then lo/hi per coordinate
        assert len(rows) == 6
        assert all(len(r) == 7 for r in rows)
        assert rows[0][0] == 0.0 and rows[0][1] == 0.0 and rows[0][2] == 0.0
        phi = [r[1] for r in rows]
        assert phi == sorted(phi)
        assert rows[0][3] == pytest.approx(0.9)
        assert rows[0][4] == pytest.approx(1.1)

    def test_t_start_trims_leading_rows(self, runner):
        result = runner.invoke(main, ["reach", TWOCELL, "--method", "kagstrom1",
                                      "--t-start", "0.98"])
        assert result.exit_code == 0
        rows = parse_csv(result.stdout)
        assert len(rows) == 3  # 0.98, 0.99, 1.00
        assert rows[0][0] == pytest.approx(0.98)

    def test_window_rows_are_the_full_grid_rows(self, runner):
        # a window runs the grid from 0 and prints its own rows of it,
        # byte for byte, labels included
        full = runner.invoke(main, ["reach", GIRAD, "--method", "loan",
                                    "--t-end", "2.0"])
        window = runner.invoke(main, ["reach", GIRAD, "--method", "loan",
                                      "--t-start", "0.5", "--t-end", "2.0"])
        assert full.exit_code == 0 and window.exit_code == 0, window.stderr
        rows = window.stdout.splitlines()
        assert len(rows) == 151
        assert rows == full.stdout.splitlines()[-151:]
        assert window.stderr == full.stderr  # the verdict is past t = 0.5

    def test_off_grid_t_start_starts_at_the_next_grid_point(self, runner):
        full = runner.invoke(main, ["reach", TWOCELL, "--method", "loan"])
        window = runner.invoke(main, ["reach", TWOCELL, "--method", "loan",
                                      "--t-start", "0.975"])
        assert window.exit_code == 0
        assert window.stdout.splitlines() == full.stdout.splitlines()[-3:]
        assert parse_csv(window.stdout)[0][0] == pytest.approx(0.98)
        # a window between two grid points holds none of them
        empty = runner.invoke(main, ["reach", TWOCELL, "--method", "loan",
                                     "--t-start", "0.975", "--t-end", "0.978"])
        assert empty.exit_code == 1
        assert "no grid point" in empty.stderr

    def test_window_at_a_tiny_step_is_its_grid_points(self, runner, tmp_path):
        # the window's tolerance scales with the times: at step 1e-14, an
        # absolute 1e-12 took in every grid point up to the next past t-end
        model = tmp_path / "tiny-step.yaml"
        model.write_text(open(GIRAD).read().replace("step: 0.01", "step: 1.0e-14"))
        result = runner.invoke(main, ["reach", str(model), "--method", "loan",
                                      "--t-start", "2e-14", "--t-end", "2.6e-14"])
        assert result.exit_code == 0, result.stderr
        rows = parse_csv(result.stdout)
        assert [row[0] for row in rows] == [2e-14]

    def test_symbolic_requires_continuous_model(self, runner):
        result = runner.invoke(main, ["reach", GROW1D, "--method", "loan"])
        assert result.exit_code == 1
        assert "continuous" in result.stderr

    def test_bound_overflow_prints_inf(self, runner):
        # kagstrom1 on acc4 leaves float range at t = 7.09: the rows from
        # there on are unbounded, and the verdict comes from earlier rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["reach", ACC4, "--method", "kagstrom1"])
        assert result.exit_code == 0, result.stderr
        rows = parse_csv(result.stdout)
        assert len(rows) == 2051
        assert all(np.isfinite(r[2]) for r in rows[:709])
        assert rows[709][2:] == [np.inf] + [-np.inf, np.inf] * 4
        assert ",inf,-inf,inf" in result.stdout.splitlines()[-1]
        assert ("verdict: not proven safe at t=1.0900000000000001, half-space 0"
                in result.stderr)

    def test_defective_matrix_names_the_bound(self, runner, tmp_path):
        model = tmp_path / "jordan.yaml"
        model.write_text(JORDAN_YAML)
        result = runner.invoke(main, ["reach", str(model), "--method", "kagstrom2"])
        assert result.exit_code == 1
        assert "kagstrom2" in result.stderr


class TestOrder:
    def test_twocell_json(self, runner):
        result = runner.invoke(main, ["order", TWOCELL])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["model"] == "twocell"
        assert doc["dimension"] == 2
        assert doc["ranking"][0] == [1, 1]
        assert len(doc["ranking"]) == 4
        assert doc["top"] == doc["ranking"]      # only 4 cells, top-5 is all
        assert doc["bottom"] == doc["ranking"]
        scores = np.array(doc["scores"])
        assert scores.shape == (2, 2)
        assert scores[1, 0] == 0.0

    def test_ranking_matches_library(self, runner):
        from uncreach import load_model, order_cells
        result = runner.invoke(main, ["order", TWOCELL])
        doc = json.loads(result.stdout)
        om = order_cells(load_model(TWOCELL).a)
        assert [tuple(c) for c in doc["ranking"]] == list(om.ranking)

    def test_repeated_singular_value_girad1(self, runner):
        # the rotation-decay matrix has sigma_1 = sigma_2 = sqrt(17): each
        # score is the larger one-sided rise of sigma_1
        result = runner.invoke(main, ["order", GIRAD])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert np.allclose(doc["scores"], [[0.6213, 3.9403], [3.9403, 0.6213]],
                           atol=1e-4, rtol=0.0)
        assert doc["ranking"] == [[0, 1], [1, 0], [0, 0], [1, 1]]

    def test_identity_matrix_scores(self, runner, tmp_path):
        model = tmp_path / "eye.yaml"
        model.write_text(
            "name: eye\n"
            "dimension: 2\n"
            "dynamics:\n  matrix: [1.0, 0.0, 0.0, 1.0]\n  continuous: false\n"
            "uncertainty: []\n"
            "initial:\n  box:\n    - [0.0, 1.0]\n    - [0.0, 1.0]\n"
            "horizon: 2\n")
        result = runner.invoke(main, ["order", str(model)])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert np.allclose(doc["scores"], np.eye(2), rtol=1e-14, atol=0.0)
        assert doc["ranking"] == [[0, 0], [1, 1], [0, 1], [1, 0]]


class TestRobust:
    def test_scalar_worked_example(self, runner):
        result = runner.invoke(main, ["robust", GROW1D, "--cell", "0,0"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["scheme"] == "equal"
        assert doc["final_budget"] == pytest.approx(0.1, abs=1e-12)
        assert abs(doc["norm"] - 0.1) < 1e-12
        assert doc["iterations"] == 4
        assert not doc["already_unsafe"] and not doc["cap_reached"]
        assert [s for _, s in doc["trace"]] == [True, True, True, False]
        assert doc["safe_uncertainty"]["lo"][0][0] == pytest.approx(-0.1, abs=1e-12)
        assert doc["safe_uncertainty"]["hi"][0][0] == pytest.approx(0.1, abs=1e-12)
        assert "largest safe budget" in result.stderr
        # budgets 0.05, 0.1 and 0.2 ran, then 0.15 between the last two;
        # a discrete model takes no contraction certificate
        assert doc["evaluated"] == pytest.approx([0.05, 0.1, 0.2, 0.15], abs=1e-15)
        assert doc["contracted"] == []

    def test_contraction_certificate(self, runner):
        # girad1's benchmark search: every safe trial proven by contraction,
        # the one flowpipe at the unsafe 0.4
        result = runner.invoke(main, ["robust", GIRAD, "--cell", "0,0",
                                      "--cell", "1,0"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        assert doc["final_budget"] == 7 * 0.05
        assert doc["evaluated"] == [i * 0.05 for i in (1, 2, 4, 8, 6, 7)]
        assert doc["contracted"] == [i * 0.05 for i in (1, 2, 4, 6, 7)]

    def test_overflowing_trial_is_unsafe(self, runner):
        # budget 50 overflows the flowpipe: not proven safe, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = runner.invoke(main, ["robust", GIRAD, "--cell", "0,0",
                                          "--cell", "1,1", "--step", "50"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        assert doc["final_budget"] == 0.0
        assert doc["trace"] == [[0.0, True], [50.0, False]]
        assert doc["evaluated"] == [50.0, 0.0]

    def test_multiple_cells_and_scheme(self, runner):
        result = runner.invoke(main, ["robust", TWOCELL, "--cell", "0,0",
                                      "--cell", "1,1", "--scheme", "harmonic",
                                      "--step", "0.02", "--cap", "5"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["scheme"] == "harmonic"
        assert doc["cells"] == [[0, 0], [1, 1]]

    def test_literal_proportional_scheme(self, runner):
        # acc4's cell (0,0) has the larger score, so the literal reading
        # gives it the whole budget: radius 2 p |-0.5| = p there, pushed
        # one ulp up, and +0.0 (never -0.0) at (2,3).  Budgets to 0.6 are
        # safe, 0.65 is not
        result = runner.invoke(main, ["robust", ACC4, "--cell", "0,0",
                                      "--cell", "2,3", "--scheme",
                                      "proportional-literal"])
        assert result.exit_code == 0, result.output
        final = 12 * 0.05
        r = math.nextafter(final * 2 * 1.0 * 0.5, math.inf)
        corner = [[r, 0.0, 0.0, 0.0]] + [[0.0] * 4] * 3
        assert json.loads(result.stdout) == {
            "model": "acc-4", "scheme": "proportional-literal",
            "cells": [[0, 0], [2, 3]], "step": 0.05, "final_budget": final,
            "norm": r, "iterations": 14, "already_unsafe": False,
            "cap_reached": False,
            "trace": [[i * 0.05, i < 13] for i in range(14)],
            "evaluated": [i * 0.05 for i in (1, 2, 4, 8, 16, 12, 14, 13)],
            "contracted": [],
            "safe_uncertainty": {"lo": [[-r, 0.0, 0.0, 0.0]] + corner[1:],
                                 "hi": corner},
        }
        assert "-0.0" not in result.stdout

    def test_cell_out_of_range(self, runner):
        result = runner.invoke(main, ["robust", GROW1D, "--cell", "5,0"])
        assert result.exit_code == 1
        # a --cell is no model file entry: no uncertainty[i] position
        assert "cell (5,0) out of range for dimension 1" in result.stderr
        assert "uncertainty[" not in result.stderr

    def test_cell_must_parse(self, runner):
        result = runner.invoke(main, ["robust", GROW1D, "--cell", "x"])
        assert result.exit_code == 1
        assert "ROW,COL" in result.stderr

    def test_already_unsafe_flag(self, runner, tmp_path):
        model = tmp_path / "hot.yaml"
        model.write_text(
            "name: hot\n"
            "dimension: 1\n"
            "dynamics:\n  matrix: [1.0]\n  continuous: false\n"
            "uncertainty: []\n"
            "initial:\n  box:\n    - [1.0, 1.0]\n"
            "unsafe:\n  - {normal: [1.0], offset: 0.5}\n"
            "horizon: 2\n")
        result = runner.invoke(main, ["robust", str(model), "--cell", "0,0"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["already_unsafe"]
        assert doc["final_budget"] == 0.0

    def test_cap_reached_flag(self, runner, tmp_path):
        model = tmp_path / "calm.yaml"
        model.write_text(
            "name: calm\n"
            "dimension: 1\n"
            "dynamics:\n  matrix: [0.1]\n  continuous: false\n"
            "uncertainty: []\n"
            "initial:\n  box:\n    - [1.0, 1.0]\n"
            "unsafe:\n  - {normal: [1.0], offset: 100.0}\n"
            "horizon: 3\n")
        result = runner.invoke(main, ["robust", str(model), "--cell", "0,0",
                                      "--cap", "4"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["cap_reached"]
        assert doc["iterations"] == 4

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["robust", GROW1D, "--cell", "0,0",
                                      "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["final_budget"] == pytest.approx(0.1, abs=1e-12)
        assert "largest safe budget" in result.stdout


class TestNorms:
    def test_girad_norms(self, runner):
        result = runner.invoke(main, ["norms", GIRAD])
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0].startswith("frobenius_sup ")
        assert lines[1].startswith("two_norm_sup ")
        fro = float(lines[0].split()[1])
        two = float(lines[1].split()[1])
        # both cells sit in one column, so the two norms agree: sqrt(0.0068)
        assert fro == pytest.approx(np.sqrt(0.0068), rel=1e-14)
        assert two == pytest.approx(np.sqrt(0.0068), rel=1e-12)

    def test_zero_family(self, runner):
        result = runner.invoke(main, ["norms", GROW1D])
        assert result.exit_code == 0
        assert "frobenius_sup 0" in result.stdout
        assert "two_norm_sup 0" in result.stdout


class TestErrorExits:
    def test_invalid_yaml_is_exit_two(self, runner, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("dynamics: [")
        for cmd in (["reach"], ["order"], ["robust", "--cell", "0,0"],
                    ["norms"]):
            result = runner.invoke(main, cmd[:1] + [str(bad)] + cmd[1:])
            assert result.exit_code == 2
            assert "model error" in result.stderr

    def test_cell_that_is_not_two_integers_is_exit_one(self, runner):
        result = runner.invoke(main, ["robust", GIRAD, "--cell", "1,x"])
        assert result.exit_code == 1
        assert result.stderr == "error: cell '1,x' must hold two integers\n"

    def test_window_ending_before_its_start_is_exit_one(self, runner):
        result = runner.invoke(main, ["reach", GIRAD, "--method", "loan",
                                      "--t-start", "1", "--t-end", "0.5"])
        assert result.exit_code == 1
        assert result.stderr == "error: need 0 <= t-start <= t-end\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("flag, value", [
        ("--t-end", "inf"), ("--t-end", "nan"), ("--t-start", "nan")])
    def test_non_finite_window_is_exit_one(self, runner, flag, value):
        # an infinite end would size the grid from inf, a NaN end or start
        # would fall through to numpy's or the grid's own errors
        result = runner.invoke(main, ["reach", GIRAD, "--method", "loan",
                                      flag, value])
        assert result.exit_code == 1
        assert result.stderr == f"error: {flag} must be finite, got {value}\n"
        assert result.stdout == ""

    def test_cell_listed_twice_is_exit_two(self, runner, tmp_path):
        bad = tmp_path / "twice.yaml"
        bad.write_text(JORDAN_YAML.replace(
            "uncertainty:\n", "uncertainty:\n  - {row: 0, col: 0, relative: 0.5}\n"))
        result = runner.invoke(main, ["reach", str(bad)])
        assert result.exit_code == 2
        assert "(0,0) listed twice" in result.stderr

    def test_model_errors_name_the_position(self, runner, tmp_path):
        # a cell's index error names its entry of the uncertainty list,
        # and a non-finite matrix entry its (row, col)
        bad = tmp_path / "bad.yaml"
        for old, new, message in (
                ("- {row: 0, col: 0,", "- {row: x, col: 0,",
                 "uncertainty[0]: cell ('x',0) indices must be integers"),
                ("matrix: [0.0, 1.0, 0.0, 0.0]", "matrix: [0.0, 1.0, .inf, 0.0]",
                 "dynamics matrix entry (1,0) must be finite, got inf")):
            bad.write_text(JORDAN_YAML.replace(old, new))
            result = runner.invoke(main, ["reach", str(bad)])
            assert result.exit_code == 2
            assert result.stderr == f"model error: {message}\n"

    def test_scalar_for_a_list_is_exit_two(self, runner, tmp_path):
        # these used to escape the reader as a TypeError, exit 1
        no_cells = JORDAN_YAML.replace(
            "uncertainty:\n  - {row: 0, col: 0, interval: [-0.1, 0.1]}\n", "")
        bad = tmp_path / "scalar.yaml"
        for edit in ("uncertainty: 3", "unsafe: true"):
            bad.write_text(no_cells + edit + "\n")
            result = runner.invoke(main, ["reach", str(bad)])
            assert result.exit_code == 2, edit
            assert result.stderr.startswith("model error: "), edit

    def test_falsy_unsafe_block_is_exit_two(self, runner, tmp_path):
        # x -> 2x from [1, 1] is unsafe at step 1 against x >= 1.5;
        # `unsafe: false` used to mean no unsafe sets, verdict safe
        model = tmp_path / "double.yaml"
        text = ("name: double\ndimension: 1\n"
                "dynamics:\n  matrix: [2.0]\n  continuous: false\n"
                "initial:\n  box:\n    - [1.0, 1.0]\nhorizon: 2\n")
        model.write_text(text + "unsafe: [{normal: [1.0], offset: 1.5}]\n")
        result = runner.invoke(main, ["reach", str(model)])
        assert result.exit_code == 0
        assert "verdict: not proven safe at step 1, half-space 0" in result.stderr
        model.write_text(text + "unsafe: false\n")
        result = runner.invoke(main, ["reach", str(model)])
        assert result.exit_code == 2
        assert result.stderr.startswith("model error: unsafe: ")

    def test_missing_file_is_exit_two(self, runner, tmp_path):
        result = runner.invoke(main, ["reach", str(tmp_path / "nope.yaml")])
        assert result.exit_code == 2
