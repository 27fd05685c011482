"""Tests for singular-value sensitivity scores and the cell ordering."""

import numpy as np
import pytest

from uncreach import (
    DimensionMismatch,
    IntervalMatrix,
    order_cells,
    sv_change,
)


def sigma_max(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


def one_sided_rise(a, b, eps=1e-7):
    """The larger forward difference of sigma_1 along +b and -b."""
    base = sigma_max(a)
    return max(sigma_max(a + eps * b), sigma_max(a - eps * b)) - base


def repeated_top_value(rng):
    """A random n x n matrix, n <= 5, whose top k >= 2 singular values are
    all 2, and its n."""
    n = int(rng.integers(2, 6))
    k = int(rng.integers(2, n + 1))
    q1 = np.linalg.qr(rng.normal(size=(n, n)))[0]
    q2 = np.linalg.qr(rng.normal(size=(n, n)))[0]
    s = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
    s[:k] = 2.0
    return q1 @ np.diag(s) @ q2.T, n


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

    def test_repeated_top_value_derivative(self):
        # sigma_1(I + eps ones) = 1 + 2 eps: the identity's top value is
        # repeated, and the rise along ones is its largest eigenvalue, 2
        assert sv_change(np.eye(2), np.ones((2, 2))) == pytest.approx(2.0, rel=1e-14)
        # along -ones, sigma_1(I - eps ones) = 1 for small eps, so the
        # larger rise of the two directions is again the one along ones
        assert sv_change(np.eye(2), -np.ones((2, 2))) == pytest.approx(2.0, rel=1e-14)

    def test_default_gap_tolerance(self):
        # sigma_2 counts as sigma_1 when sigma_1 - sigma_2 <= 1e-10 sigma_1
        assert sv_change(np.diag([1.0, 1.0 - 1e-12]), np.ones((2, 2))) == \
            pytest.approx(2.0, rel=1e-14)
        assert sv_change(np.diag([1.0, 1.0 - 1e-8]), np.ones((2, 2))) == 1.0

    def test_repeated_top_value_matches_finite_difference(self):
        rng = np.random.default_rng(3217)
        for _ in range(100):
            a, n = repeated_top_value(rng)
            b = rng.normal(size=(n, n))
            fd = one_sided_rise(a, b) / 1e-7
            assert sv_change(a, b) == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_zero_matrix(self):
        # at A = 0 every unit pair is singular: sigma_1(eps B) = eps ||B||_2
        zero = np.zeros((2, 2))
        assert sv_change(zero, np.ones((2, 2))) == pytest.approx(2.0, rel=1e-14)
        assert sv_change(zero, np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0

    def test_non_finite_rejected(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                sv_change(np.array([[bad, 0.0], [0.0, 1.0]]), np.ones((2, 2)))
            with pytest.raises(ValueError, match="finite"):
                sv_change(np.eye(2), np.array([[bad, 0.0], [0.0, 1.0]]))

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

    def test_identity_scores(self):
        # every sigma_i is 1: a diagonal cell moves sigma_1 by its own
        # entry, an off-diagonal one (entry 0) not at all
        assert np.allclose(order_cells(np.eye(3)).scores, np.eye(3),
                           rtol=1e-14, atol=0.0)

    def test_zero_matrix_scores(self):
        om = order_cells(np.zeros((2, 2)))
        assert np.array_equal(om.scores, np.zeros((2, 2)))
        assert om.ranking == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_girad1_scores(self):
        # A = -I + 4J has sigma_1 = sigma_2 = sqrt(17)
        a = np.array([[-1.0, -4.0], [4.0, -1.0]])
        om = order_cells(a)
        assert np.allclose(om.scores, [[0.6213, 3.9403], [3.9403, 0.6213]],
                           atol=1e-4, rtol=0.0)
        assert om.ranking == ((0, 1), (1, 0), (0, 0), (1, 1))
        for i in range(2):
            for j in range(2):
                b = np.zeros((2, 2))
                b[i, j] = abs(a[i, j])
                fd = one_sided_rise(a, b, eps=1e-8) / 1e-8
                assert om.scores[i, j] == pytest.approx(fd, abs=1e-7)

    def test_repeated_top_value_scores_match_finite_difference(self):
        # each score is the larger one-sided rise of sigma_1 when the cell
        # moves by -+|A[i, j]|
        rng = np.random.default_rng(4423)
        for _ in range(50):
            a, n = repeated_top_value(rng)
            scores = order_cells(a).scores
            for i in range(n):
                for j in range(n):
                    b = np.zeros((n, n))
                    b[i, j] = abs(a[i, j])
                    fd = one_sided_rise(a, b) / 1e-7
                    assert scores[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_non_finite_rejected(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                order_cells(np.array([[bad, 0.0], [0.0, 1.0]]))

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
    """sup sigma_1 over an interval family, read as its two_norm_sup."""

    def test_point_family(self):
        a = np.array([[1.0, -1.0], [0.0, 2.0]])
        assert IntervalMatrix.from_point(a).two_norm_sup() == pytest.approx(
            np.linalg.norm(a, 2), rel=1e-14)

    def test_unit_diagonal_radius(self):
        lam = IntervalMatrix.from_center_radius(np.zeros((2, 2)), np.eye(2))
        assert lam.two_norm_sup() == pytest.approx(1.0, rel=1e-13)

    def test_bounds_sampled_members(self):
        rng = np.random.default_rng(21)
        lam = IntervalMatrix.from_center_radius(rng.uniform(-1, 1, (3, 3)),
                                                rng.uniform(0, 1, (3, 3)))
        r = lam.two_norm_sup()
        for _ in range(1000):
            assert np.linalg.norm(lam.sample(rng), 2) <= r + 1e-9

    def test_zero_centred_family_past_order_eight(self):
        # sup sigma_1 over |E| <= R is sigma_1(R), at any order
        rng = np.random.default_rng(22)
        r = rng.uniform(0, 1, (12, 12))
        want = np.linalg.norm(r, 2)
        assert want <= IntervalMatrix(-r, r).two_norm_sup() <= (1 + 1e-13) * want
