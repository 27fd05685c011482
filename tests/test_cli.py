"""End-to-end tests of the command line interface."""

import importlib.resources
import json
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
        assert "unsafe" in result.stderr
        assert "step 2" in result.stderr

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

    def test_norm_choice_changes_radius(self, runner):
        two = runner.invoke(main, ["reach", TWOCELL, "--method", "loan",
                                   "--norm", "two", "--t-end", "0.1"])
        fro = runner.invoke(main, ["reach", TWOCELL, "--method", "loan",
                                   "--norm", "frobenius", "--t-end", "0.1"])
        r_two = parse_csv(two.stdout)
        r_fro = parse_csv(fro.stdout)
        # single uncertain column: the two norms coincide here
        for a, b in zip(r_two, r_fro):
            assert a[2] == pytest.approx(b[2], rel=1e-12)

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
        assert ("verdict: unsafe at t=1.0900000000000001, half-space 0"
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

    def test_equal_singular_values_fail_cleanly(self, runner):
        # the rotation-decay matrix has a repeated top singular value
        result = runner.invoke(main, ["order", GIRAD])
        assert result.exit_code == 1
        assert "singular value" in result.stderr

    def test_degenerate_matrix_fails_cleanly(self, runner, tmp_path):
        model = tmp_path / "eye.yaml"
        model.write_text(
            "name: eye\n"
            "dimension: 2\n"
            "dynamics:\n  matrix: [1.0, 0.0, 0.0, 1.0]\n  continuous: false\n"
            "uncertainty: []\n"
            "initial:\n  box:\n    - [0.0, 1.0]\n    - [0.0, 1.0]\n"
            "horizon: 2\n")
        result = runner.invoke(main, ["order", str(model)])
        assert result.exit_code == 1
        assert "singular value" in result.stderr


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

    def test_multiple_cells_and_scheme(self, runner):
        result = runner.invoke(main, ["robust", TWOCELL, "--cell", "0,0",
                                      "--cell", "1,1", "--scheme", "harmonic",
                                      "--step", "0.02", "--cap", "5"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["scheme"] == "harmonic"
        assert doc["cells"] == [[0, 0], [1, 1]]

    def test_cell_out_of_range(self, runner):
        result = runner.invoke(main, ["robust", GROW1D, "--cell", "5,0"])
        assert result.exit_code == 1
        assert "out of range" in result.stderr

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

    def test_cell_listed_twice_is_exit_two(self, runner, tmp_path):
        bad = tmp_path / "twice.yaml"
        bad.write_text(JORDAN_YAML.replace(
            "uncertainty:\n", "uncertainty:\n  - {row: 0, col: 0, relative: 0.5}\n"))
        result = runner.invoke(main, ["reach", str(bad)])
        assert result.exit_code == 2
        assert "(0,0) listed twice" in result.stderr

    def test_missing_file_is_exit_two(self, runner, tmp_path):
        result = runner.invoke(main, ["reach", str(tmp_path / "nope.yaml")])
        assert result.exit_code == 2
