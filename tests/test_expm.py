"""Tests for the numpy matrix exponential behind both routes."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import uncreach
from uncreach._expm import expm

GIRAD_A = np.array([[-1.0, -4.0], [4.0, -1.0]])
ACC4_A = np.array([[-0.5, 0.0, 0.0, 0.5],
                   [-1.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0],
                   [0.0, 0.0, 0.0, 0.0]])
TWOCELL_A = np.array([[1.0, -1.0], [0.0, 2.0]])
GRID = np.arange(2051) * 0.01  # the shipped models' 2050-step grid


def largest_error(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestAccuracy:
    @pytest.mark.parametrize("a", [GIRAD_A, ACC4_A, TWOCELL_A],
                             ids=["girad1", "acc4", "twocell"])
    def test_matches_mpmath_on_shipped_grids(self, a):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k in range(0, len(GRID), 41):
                m = a * GRID[k]  # the same float input
                ref = np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(),
                               dtype=np.float64)
                assert largest_error(expm(m), ref) <= 1e-13, GRID[k]

    def test_matches_scipy_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = rng.normal(size=(n, n)) * rng.uniform(0.001, 3.0)
            assert largest_error(expm(a), scipy.linalg.expm(a)) <= 1e-11

    def test_every_pade_degree(self):
        # 1-norms inside each theta_m band, and far past theta_13
        rng = np.random.default_rng(5)
        base = rng.normal(size=(3, 3))
        base /= np.abs(base).sum(axis=0).max()
        for norm in (0.01, 0.2, 0.9, 2.0, 5.0, 40.0, 300.0):
            a = base * norm
            ref = scipy.linalg.expm(a)
            assert largest_error(expm(a), ref) <= 1e-11 * max(1.0, norm)


class TestExactCases:
    def test_zero_gives_identity(self):
        for n in (1, 2, 5):
            assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))

    def test_diagonal_is_exp_of_diagonal(self):
        d = np.array([-3.0, 0.0, 0.5, 2.0])
        assert np.array_equal(expm(np.diag(d)), np.diag(np.exp(d)))

    def test_zero_row_gives_unit_row(self):
        # acc4's constant input dimension: row 3 of exp(A t) is e_3 exactly
        for t in GRID:
            assert np.all(expm(ACC4_A * t)[3] == [0.0, 0.0, 0.0, 1.0]), t
        rng = np.random.default_rng(3)
        for row in range(3):
            a = rng.normal(size=(3, 3)) * 4.0
            a[row] = 0.0
            assert np.array_equal(expm(a)[row], np.eye(3)[row])


class TestStack:
    def test_shapes(self):
        # one square matrix only: a stack of them is refused too
        assert expm(np.zeros((4, 4))).shape == (4, 4)
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            expm(np.zeros(3))
        with pytest.raises(ValueError):
            expm(np.zeros((3, 4, 4)))

    def test_non_finite_entries_give_non_finite_flows(self):
        for i, j, bad in ((0, 1, np.inf), (1, 1, np.nan), (1, 0, -np.inf)):
            a = GIRAD_A.copy()
            a[i, j] = bad
            assert np.isnan(expm(a)).all()

    def test_overflow_is_not_an_error(self):
        with np.errstate(over="ignore", invalid="ignore"):
            got = expm(np.array([[800.0, 1.0], [0.0, 1.0]]))
        assert not np.isfinite(got).all()


def test_import_loads_no_scipy():
    # a fresh interpreter, importing the same uncreach as this one
    root = os.path.dirname(os.path.dirname(uncreach.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH")))))
    code = "import sys, uncreach; sys.exit('scipy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
