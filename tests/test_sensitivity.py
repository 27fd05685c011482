"""Tests for singular-value sensitivity scores and the cell ordering."""

import numpy as np
import pytest

from uncreach import (
    DegenerateSV,
    DimensionMismatch,
    DimensionTooLarge,
    IntervalMatrix,
    max_sv_radius,
    order_cells,
    sv_change,
)


def sigma_max(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


class TestSvChange:
    def test_diagonal_direction(self):
        a = np.diag([2.0, 1.0])
        b = np.zeros((2, 2))
        b[0, 0] = 2.0
        # u1 = v1 = e1, so the score is just |b[0,0]|
        assert sv_change(a, b) == pytest.approx(2.0, rel=1e-14)

    def test_zero_direction(self):
        assert sv_change(np.diag([2.0, 1.0]), np.zeros((2, 2))) == 0.0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(91)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n))
            s = np.linalg.svd(a, compute_uv=False)
            if s[0] - s[1] < 0.05 * s[0]:
                continue
            b = rng.normal(size=(n, n))
            eps = 1e-7
            fd = abs(sigma_max(a + eps * b) - sigma_max(a)) / eps
            assert sv_change(a, b) == pytest.approx(fd, abs=1e-5)

    def test_first_order_residual_shrinks_quadratically(self):
        # residual(eps) ~ C eps^2, so shrinking eps 100x drops it ~1e4x
        rng = np.random.default_rng(2718)
        used = 0
        for _ in range(60):
            a = rng.normal(size=(4, 4))
            s = np.linalg.svd(a, compute_uv=False)
            if s[0] - s[1] < 0.05 * s[0]:
                continue
            b = rng.normal(size=(4, 4))
            b /= np.linalg.norm(b, 2)
            k = sv_change(a, b)

            def resid(eps):
                return abs(abs(sigma_max(a + eps * b) - sigma_max(a)) - eps * k)

            small = resid(1e-6)
            if small < 1e-13:  # below rounding noise, ratio meaningless
                continue
            ratio = resid(1e-4) / small
            assert 3e3 < ratio < 3e4
            used += 1
        assert used >= 20

    def test_degenerate_top_value_rejected(self):
        with pytest.raises(DegenerateSV):
            sv_change(np.eye(2), np.ones((2, 2)))

    def test_default_gap_tolerance(self):
        # sigma_1 is simple when sigma_1 - sigma_2 >= 1e-10 sigma_1
        with pytest.raises(DegenerateSV):
            sv_change(np.diag([1.0, 1.0 - 1e-12]), np.ones((2, 2)))
        assert sv_change(np.diag([1.0, 1.0 - 1e-8]), np.ones((2, 2))) == 1.0

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            sv_change(np.eye(2), np.eye(3))


class TestOrderCells:
    def test_diagonal_example(self):
        ord_m = order_cells(np.diag([2.0, 1.0]))
        assert ord_m.scores[0, 0] == pytest.approx(2.0, rel=1e-14)
        assert ord_m.scores[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert ord_m.ranking[0] == (0, 0)
        # zero-score cells keep row-major order
        assert ord_m.ranking[1:] == ((0, 1), (1, 0), (1, 1))

    def test_top_bottom_slices(self):
        ord_m = order_cells(np.diag([2.0, 1.0]))
        assert ord_m.top(1) == ((0, 0),)
        assert ord_m.bottom(2) == ((1, 0), (1, 1))
        # asking for more cells than exist returns the whole ranking
        assert ord_m.top(9) == ord_m.ranking
        assert ord_m.bottom(9) == ord_m.ranking

    def test_ranking_is_permutation(self):
        rng = np.random.default_rng(5150)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n))
            s = np.linalg.svd(a, compute_uv=False)
            if s[0] - s[1] < 0.01 * s[0]:
                continue
            ord_m = order_cells(a)
            assert sorted(ord_m.ranking) == [(i, j) for i in range(n) for j in range(n)]
            scores = [ord_m.scores[i, j] for i, j in ord_m.ranking]
            assert all(x >= y - 1e-15 for x, y in zip(scores, scores[1:]))

    def test_scaling_leaves_ranking_alone(self):
        rng = np.random.default_rng(63)
        a = rng.normal(size=(4, 4))
        ord_1 = order_cells(a)
        ord_3 = order_cells(3.0 * a)
        assert ord_1.ranking == ord_3.ranking
        assert np.allclose(ord_3.scores, 3.0 * ord_1.scores, rtol=1e-12)

    def test_identity_rejected(self):
        with pytest.raises(DegenerateSV):
            order_cells(np.eye(3))

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionMismatch):
            order_cells(np.zeros((2, 3)))

    def test_top_cells_match_finite_difference(self):
        # quick spot check; the full 50-matrix sweep runs in the acceptance suite
        rng = np.random.default_rng(61814)
        done = 0
        while done < 5:
            a = rng.normal(size=(4, 4))
            s = np.linalg.svd(a, compute_uv=False)
            if s[0] - s[1] < 0.05 * s[0]:
                continue
            eps = 1e-6
            base = sigma_max(a)
            fd = np.zeros((4, 4))
            for i in range(4):
                for j in range(4):
                    b = np.zeros((4, 4))
                    b[i, j] = a[i, j]
                    fd[i, j] = abs(sigma_max(a + eps * b) - base) / eps
            fd_rank = sorted(((i, j) for i in range(4) for j in range(4)),
                             key=lambda c: (-fd[c], c[0], c[1]))
            got = order_cells(a)
            margins = np.sort(fd.ravel())[::-1]
            if margins[2] - margins[3] < 1e-3:  # FD ranking itself is fragile
                continue
            assert got.top(3) == tuple(fd_rank[:3])
            done += 1


class TestMaxSvRadius:
    def test_point_family(self):
        a = np.array([[1.0, -1.0], [0.0, 2.0]])
        assert max_sv_radius(IntervalMatrix.from_point(a)) == pytest.approx(
            np.linalg.norm(a, 2), rel=1e-14)

    def test_unit_diagonal_radius(self):
        lam = IntervalMatrix.from_center_radius(np.zeros((2, 2)), np.eye(2))
        assert max_sv_radius(lam) == pytest.approx(1.0, rel=1e-13)

    def test_bounds_sampled_members(self):
        rng = np.random.default_rng(21)
        lam = IntervalMatrix.from_center_radius(rng.uniform(-1, 1, (3, 3)),
                                                rng.uniform(0, 1, (3, 3)))
        r = max_sv_radius(lam)
        for _ in range(1000):
            assert np.linalg.norm(lam.sample(rng), 2) <= r + 1e-9

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            max_sv_radius(IntervalMatrix.zeros(9, 9))
