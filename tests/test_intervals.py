"""Tests for interval scalars, interval matrices, norms and the exponential."""

import importlib.resources
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from uncreach import (
    DimensionMismatch,
    DimensionTooLarge,
    Interval,
    IntervalMatrix,
    RemainderDiverges,
    interval_expm,
    load_model,
)

# analytic values, frozen independently of the library
SQRT_621 = 2.4919871588754225        # sqrt(6.21)


class TestInterval:
    def test_creation_and_accessors(self):
        iv = Interval(1.0, 3.0)
        assert iv.lo == 1.0 and iv.hi == 3.0
        assert iv.center == 2.0
        assert iv.radius == 1.0
        assert iv.width == 2.0

    def test_invalid_endpoints(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_add(self):
        c = Interval(1.0, 2.0) + Interval(3.0, 4.0)
        assert c.lo == 4.0 and c.hi == 6.0

    def test_add_scalar(self):
        c = Interval(0.0, 1.0) + 1.5
        assert c.lo == 1.5 and c.hi == 2.5

    def test_sub(self):
        c = Interval(3.0, 5.0) - Interval(1.0, 2.0)
        assert c.lo == 1.0 and c.hi == 4.0

    def test_mul_mixed_signs(self):
        c = Interval(-1.0, 1.0) * Interval(-1.0, 1.0)
        assert c.lo == -1.0 and c.hi == 1.0

    def test_mul_zero_annihilates(self):
        c = Interval(0.0, 0.0) * Interval(5.0, 9.0)
        assert c.lo == 0.0 and c.hi == 0.0

    def test_contains(self):
        iv = Interval(1.0, 3.0)
        assert iv.contains(1.0) and iv.contains(3.0) and iv.contains(2.0)
        assert not iv.contains(0.999)
        assert iv.contains(0.999, tol=0.01)

    def test_mul_contains_pointwise_products(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            a, b = sorted(rng.uniform(-3, 3, size=2))
            c, d = sorted(rng.uniform(-3, 3, size=2))
            x = Interval(a, b)
            y = Interval(c, d)
            prod = x * y
            for _ in range(10):
                p = rng.uniform(a, b) * rng.uniform(c, d)
                assert prod.contains(p, tol=1e-12)


class TestIntervalMatrix:
    def test_from_point_is_point(self):
        m = IntervalMatrix.from_point(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert m.is_point()
        assert m.shape == (2, 2)
        assert np.all(m.radius == 0.0)

    def test_from_center_radius(self):
        m = IntervalMatrix.from_center_radius(np.zeros((2, 2)), np.full((2, 2), 0.5))
        assert np.all(m.lo == -0.5) and np.all(m.hi == 0.5)
        with pytest.raises(ValueError):
            IntervalMatrix.from_center_radius(np.zeros((2, 2)), -np.ones((2, 2)))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            IntervalMatrix(np.ones((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            IntervalMatrix(np.full((1, 1), np.nan), np.ones((1, 1)))
        with pytest.raises(DimensionMismatch):
            IntervalMatrix(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            IntervalMatrix(np.zeros(3), np.zeros(3))

    def test_getitem(self):
        m = IntervalMatrix(np.array([[0.0, 1.0]]), np.array([[0.5, 1.0]]))
        iv = m[0, 0]
        assert isinstance(iv, Interval)
        assert iv.lo == 0.0 and iv.hi == 0.5

    def test_add_sub_scale(self):
        m = IntervalMatrix(np.array([[0.0]]), np.array([[1.0]]))
        s = m + m
        assert s.lo[0, 0] == 0.0 and s.hi[0, 0] == 2.0
        d = m - m
        assert d.lo[0, 0] == -1.0 and d.hi[0, 0] == 1.0
        neg = m.scale(-2.0)
        assert neg.lo[0, 0] == -2.0 and neg.hi[0, 0] == 0.0
        with pytest.raises(DimensionMismatch):
            m + IntervalMatrix.zeros(2, 2)

    def test_sub_point(self):
        m = IntervalMatrix(np.array([[0.9]]), np.array([[1.1]]))
        p = m.sub_point(np.array([[1.0]]))
        assert p.lo[0, 0] == pytest.approx(-0.1) and p.hi[0, 0] == pytest.approx(0.1)

    def test_contains_and_sample(self):
        rng = np.random.default_rng(7)
        m = IntervalMatrix(np.array([[-1.0, 0.0]]), np.array([[1.0, 2.0]]))
        for _ in range(50):
            assert m.contains(m.sample(rng))
        assert not m.contains(np.array([[2.0, 0.0]]))


class TestIntervalMatmul:
    def test_identity(self):
        eye = IntervalMatrix.from_point(np.eye(2))
        m = IntervalMatrix(np.array([[0.0, -1.0], [1.0, 2.0]]),
                           np.array([[0.5, -0.5], [1.0, 3.0]]))
        out = eye @ m
        assert np.array_equal(out.lo, m.lo) and np.array_equal(out.hi, m.hi)

    def test_scalar_case(self):
        a = IntervalMatrix(np.array([[-1.0]]), np.array([[1.0]]))
        b = IntervalMatrix.from_point(np.array([[2.0]]))
        out = a @ b
        assert out.lo[0, 0] == -2.0 and out.hi[0, 0] == 2.0

    def test_upper_block_square(self):
        # [[ [0,1],[0,1] ],[ 0, 0 ]] squared reproduces itself
        m = IntervalMatrix(np.zeros((2, 2)), np.array([[1.0, 1.0], [0.0, 0.0]]))
        out = m @ m
        assert np.array_equal(out.lo, m.lo)
        assert np.array_equal(out.hi, m.hi)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            IntervalMatrix.zeros(2, 3) @ IntervalMatrix.zeros(2, 2)

    def test_contains_member_products(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            r, k, c = rng.integers(1, 4, size=3)
            l1 = IntervalMatrix.from_center_radius(
                rng.uniform(-2, 2, (r, k)), rng.uniform(0, 1, (r, k)))
            l2 = IntervalMatrix.from_center_radius(
                rng.uniform(-2, 2, (k, c)), rng.uniform(0, 1, (k, c)))
            prod = l1 @ l2
            for _ in range(5):
                e1 = l1.sample(rng)
                e2 = l2.sample(rng)
                assert prod.contains(e1 @ e2, tol=1e-9)


class TestNorms:
    def test_frobenius_sup_zero(self):
        assert IntervalMatrix.zeros(3, 2).frobenius_sup() == 0.0

    def test_frobenius_sup_point(self):
        m = np.array([[3.0, -4.0], [0.0, 12.0]])
        assert IntervalMatrix.from_point(m).frobenius_sup() == pytest.approx(
            np.linalg.norm(m, "fro"), rel=1e-15)

    def test_frobenius_sup_worked(self):
        m = IntervalMatrix(np.array([[1.0, -1.1], [0.0, 2.0]]),
                           np.array([[1.0, -0.9], [0.0, 2.0]]))
        assert m.frobenius_sup() == pytest.approx(SQRT_621, rel=1e-15)

    def test_frobenius_sup_scales_without_overflow(self):
        # the power-of-two scaling is exact: bitwise the unscaled norm in
        # the normal range, and finite past sqrt(float max)
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = rng.normal(size=(n, n)) * np.exp(rng.normal(size=(n, n)) * 5)
            lam = IntervalMatrix.from_center_radius(m, np.abs(rng.normal(size=(n, n))))
            worst = np.abs(lam.center) + lam.radius
            assert lam.frobenius_sup() == float(np.linalg.norm(worst, "fro"))
        big = IntervalMatrix.from_point(np.array([[3e200, -4e200], [0.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert big.frobenius_sup() == pytest.approx(5e200, rel=1e-15)

    def test_two_norm_sup_point(self):
        m = np.array([[1.0, -1.0], [0.0, 2.0]])
        assert IntervalMatrix.from_point(m).two_norm_sup() == pytest.approx(
            np.linalg.norm(m, 2), rel=1e-15)

    def test_two_norm_sup_scalar(self):
        m = IntervalMatrix(np.array([[-2.0]]), np.array([[3.0]]))
        assert m.two_norm_sup() == pytest.approx(3.0, abs=1e-15)

    def test_two_norm_sup_diag_radius(self):
        # zero center, radius = identity: every sign vertex is diag(+-1, +-1)
        m = IntervalMatrix.from_center_radius(np.zeros((2, 2)), np.eye(2))
        assert m.two_norm_sup() == pytest.approx(1.0, rel=1e-14)

    def test_two_norm_sup_rejects_large(self):
        with pytest.raises(DimensionTooLarge):
            IntervalMatrix.zeros(9, 9).two_norm_sup()
        with pytest.raises(DimensionMismatch):
            IntervalMatrix.zeros(2, 3).two_norm_sup()

    def test_norm_ordering(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = IntervalMatrix.from_center_radius(
                rng.uniform(-2, 2, (n, n)), rng.uniform(0, 1, (n, n)))
            assert m.two_norm_sup() <= m.frobenius_sup() + 1e-12

    def test_two_norm_sup_dominates_samples_and_is_attained(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            m = IntervalMatrix.from_center_radius(
                rng.uniform(-2, 2, (n, n)), rng.uniform(0, 1, (n, n)))
            sup = m.two_norm_sup()
            for _ in range(20):
                assert np.linalg.norm(m.sample(rng), 2) <= sup + 1e-12
            best = max(np.linalg.norm(v, 2) for v in m.two_norm_vertices())
            assert best >= sup - 1e-9  # some sign vertex attains the sup


    def test_two_norm_vertices_enumerate_sign_patterns(self):
        # y outer with y[0] = +1, z inner, a set bit giving -1; n = 6 spans
        # several batches
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 6):
            c = rng.normal(size=(n, n))
            r = rng.uniform(0, 1, (n, n))
            m = IntervalMatrix.from_center_radius(c, r)
            want = []
            for ybits in range(2 ** (n - 1)):
                y = np.array([1.0] + [-1.0 if ybits >> i & 1 else 1.0
                                      for i in range(n - 1)])
                for zbits in range(2 ** n):
                    z = np.array([-1.0 if zbits >> i & 1 else 1.0
                                  for i in range(n)])
                    want.append(m.center + (y[:, None] * m.radius) * z[None, :])
            got = list(m.two_norm_vertices())
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_two_norm_sup_equals_per_vertex_norms(self):
        # batched SVDs give bitwise the largest per-vertex spectral norm
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            m = IntervalMatrix.from_center_radius(
                rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3),
                rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6))
            if not np.any(m.radius):
                continue
            want = max(float(np.linalg.norm(v, 2)) for v in m.two_norm_vertices())
            assert m.two_norm_sup() == want


TAYLOR_ORDER = 20  # the Taylor terms interval_expm sums


class TestIntervalExpm:
    def test_zero_matrix_is_identity(self):
        out = interval_expm(IntervalMatrix.zeros(3, 3), 5.0)
        assert np.array_equal(out.lo, np.eye(3))
        assert np.array_equal(out.hi, np.eye(3))

    def test_nilpotent_terminates(self):
        m = IntervalMatrix.from_point(np.array([[0.0, 1.0], [0.0, 0.0]]))
        out = interval_expm(m, 0.1)
        expected = np.array([[1.0, 0.1], [0.0, 1.0]])
        assert np.allclose(out.center, expected, atol=1e-15)
        assert np.all(out.radius <= 1e-20)  # only the series tail remains

    def test_scalar_exp(self):
        out = interval_expm(IntervalMatrix.from_point(np.array([[1.0]])), 1.0)
        assert out.lo[0, 0] == pytest.approx(math.e, rel=1e-15)
        assert out.hi[0, 0] == pytest.approx(math.e, rel=1e-15)
        assert out.hi[0, 0] - out.lo[0, 0] < 1e-12

    def test_remainder_diverges(self):
        with pytest.raises(RemainderDiverges):
            interval_expm(IntervalMatrix.from_point(np.array([[30.0]])), 1.0)

    def test_argument_validation(self):
        m = IntervalMatrix.zeros(2, 2)
        with pytest.raises(ValueError):
            interval_expm(m, -1.0)
        with pytest.raises(DimensionMismatch):
            interval_expm(IntervalMatrix.zeros(2, 3), 1.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_time_up_front(self, t):
        point = IntervalMatrix.zeros(2, 2)
        family = IntervalMatrix(-np.ones((2, 2)), np.ones((2, 2)))
        for m in (point, family):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="time must be finite"):
                    interval_expm(m, t)

    @staticmethod
    def four_way_reference(lo, hi, t):
        """The series with every scalar product the hull of its four
        endpoint products, whatever the family's widths."""
        n, order = lo.shape[0], TAYLOR_ORDER
        lt_lo, lt_hi = lo * t, hi * t
        acc_lo, acc_hi = np.eye(n), np.eye(n)
        term_lo, term_hi = np.eye(n), np.eye(n)
        for k in range(1, order + 1):
            a, b = term_lo[:, :, None], term_hi[:, :, None]
            c, d = lt_lo[None], lt_hi[None]
            products = np.stack((a * c, a * d, b * c, b * d))
            term_lo = products.min(axis=0).sum(axis=1) * (1.0 / k)
            term_hi = products.max(axis=0).sum(axis=1) * (1.0 / k)
            acc_lo = acc_lo + term_lo
            acc_hi = acc_hi + term_hi
        theta = IntervalMatrix(lo, hi).frobenius_sup() * t
        tail = theta ** (order + 1) / (
            math.factorial(order + 1) * (1.0 - theta / (order + 2)))
        return acc_lo - tail, acc_hi + tail

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.01, 0.5])
    def test_point_family_bitwise_equal_to_four_way_series(self, t):
        rng = np.random.default_rng(int(t * 1e4))
        for n in range(1, 9):
            for _ in range(3):
                a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.8)
                out = interval_expm(IntervalMatrix.from_point(a), t)
                lo, hi = self.four_way_reference(a, a, t)
                assert np.array_equal(out.lo, lo) and np.array_equal(out.hi, hi)
                # one entry of nonzero width: the interval series
                i, j = rng.integers(0, n, 2)
                wide = a.copy()
                wide[i, j] += 0.01
                out = interval_expm(IntervalMatrix(a, wide), t)
                lo, hi = self.four_way_reference(a, wide, t)
                assert np.array_equal(out.lo, lo) and np.array_equal(out.hi, hi)

    def test_contains_member_exponentials(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = IntervalMatrix.from_center_radius(
                rng.uniform(-1, 1, (n, n)), rng.uniform(0, 0.3, (n, n)))
            for t in (0.3, 1.0):
                out = interval_expm(m, t)
                for _ in range(4):
                    e = scipy.linalg.expm(m.sample(rng) * t)
                    assert out.contains(e, tol=1e-9)

    @staticmethod
    def taylor_oracle(lam, t):
        """The series summed with IntervalMatrix operators, term by term."""
        n, order = lam.shape[0], TAYLOR_ORDER
        theta = lam.frobenius_sup() * t
        lt = lam.scale(t)
        acc = IntervalMatrix.from_point(np.eye(n))
        term = IntervalMatrix.from_point(np.eye(n))
        for k in range(1, order + 1):
            term = (term @ lt).scale(1.0 / k)
            acc = acc + term
        tail = theta ** (order + 1) / (
            math.factorial(order + 1) * (1.0 - theta / (order + 2)))
        return acc.lo - tail, acc.hi + tail

    @pytest.mark.parametrize("name", ["girad1", "acc4", "twocell", "grow1d"])
    def test_bitwise_equal_to_operator_series_on_shipped_models(self, name):
        model = load_model(
            importlib.resources.files("uncreach") / "models" / f"{name}.yaml")
        lam = IntervalMatrix.from_point(model.a) + model.perturbation()
        t = model.step if model.continuous else 0.05
        out = interval_expm(lam, t)
        lo, hi = self.taylor_oracle(lam, t)
        assert np.array_equal(out.lo, lo) and np.array_equal(out.hi, hi)

    def test_bitwise_equal_to_operator_series_on_random_families(self):
        rng = np.random.default_rng(1817)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            lo = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.8)
            lam = IntervalMatrix(lo, lo + rng.uniform(0, 0.5, (n, n))
                                 * (rng.random((n, n)) < 0.6))
            t = float(rng.uniform(0, 2)) / max(1.0, lam.frobenius_sup())
            out = interval_expm(lam, t)
            want_lo, want_hi = self.taylor_oracle(lam, t)
            assert np.array_equal(out.lo, want_lo)
            assert np.array_equal(out.hi, want_hi)
