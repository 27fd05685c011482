"""Tests for interval matrices, their norms and the exponential."""

import importlib.resources
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from uncreach import (
    Box,
    DimensionMismatch,
    IntervalMatrix,
    interval_expm,
    load_model,
)
from uncreach import intervals
from uncreach.intervals import _add_outward, _endpoint_product, _product_error

from conftest import centred
from endpoint_reference import broadcast_product, padded_image

# analytic values, frozen independently of the library
SQRT_621 = 2.4919871588754225        # sqrt(6.21)


def product(a, b):
    """The interval product of two IntervalMatrix families (_endpoint_product)."""
    return IntervalMatrix(*_endpoint_product(a.lo, a.hi, b.lo, b.hi))


class TestIntervalMatrix:
    def test_from_point_is_point(self):
        m = IntervalMatrix.from_point(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert m.is_point()
        assert m.shape == (2, 2)
        assert np.all(m.radius == 0.0)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            IntervalMatrix(np.ones((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            IntervalMatrix(np.full((1, 1), np.nan), np.ones((1, 1)))
        with pytest.raises(DimensionMismatch):
            IntervalMatrix(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            IntervalMatrix(np.zeros(3), np.zeros(3))

    def test_infinite_bounds_are_a_family(self):
        # an entry out of float range is (-inf, inf), as on a Box
        m = IntervalMatrix(np.array([[-np.inf, 0.0]]), np.array([[np.inf, 1.0]]))
        assert m.contains(np.array([[1e308, 0.5]]))
        with pytest.raises(ValueError, match="NaN"):
            IntervalMatrix(np.array([[-np.inf]]), np.array([[np.nan]]))

    def test_add_sub_scale(self):
        # the sum is intervals._add_outward, a point's difference the sum
        # with its negation, and a scaling the product with a point 1x1
        # factor; IntervalMatrix has no +, - or scale of its own
        m = IntervalMatrix(np.array([[0.0]]), np.array([[1.0]]))
        s = _add_outward(np.array([[1.0]]), m)
        assert s.lo[0, 0] == 1.0 and s.hi[0, 0] == 2.0
        d = _add_outward(np.array([[-0.5]]), m)
        assert d.lo[0, 0] == -0.5 and d.hi[0, 0] == 0.5
        neg = product(m, IntervalMatrix.from_point(np.array([[-2.0]])))
        assert neg.lo[0, 0] == -2.0 and neg.hi[0, 0] == 0.0
        with pytest.raises(DimensionMismatch):
            _add_outward(np.zeros((2, 2)), m)
        with pytest.raises(DimensionMismatch, match="shapes differ"):
            _add_outward(-np.eye(2), m)

    def test_sub_point(self):
        m = IntervalMatrix(np.array([[0.9]]), np.array([[1.1]]))
        p = _add_outward(np.array([[-1.0]]), m)
        assert p.lo[0, 0] == pytest.approx(-0.1) and p.hi[0, 0] == pytest.approx(0.1)

    def test_empty_bounds_are_refused(self):
        # a zero-size box or matrix is no model: ModelSpec took a 0x0
        # matrix with Box([], []), and every analysis then crashed
        for lo in (np.zeros(0), np.zeros((0, 0)), np.zeros((2, 0)), np.zeros((0, 3))):
            cls = Box if lo.ndim == 1 else IntervalMatrix
            with pytest.raises(DimensionMismatch, match="must not be empty"):
                cls(lo, lo.copy())
        with pytest.raises(DimensionMismatch, match="must not be empty"):
            IntervalMatrix.zeros(0, 0)

    def test_contains_and_sample(self):
        rng = np.random.default_rng(7)
        m = IntervalMatrix(np.array([[-1.0, 0.0]]), np.array([[1.0, 2.0]]))
        for _ in range(50):
            assert m.contains(m.sample(rng))
        assert not m.contains(np.array([[2.0, 0.0]]))

    def test_sample_rejects_unbounded(self):
        # as Box.sample does: (-inf, inf) used to give [[inf]], [0, inf] 0
        rng = np.random.default_rng(0)
        for lo, hi in ((-np.inf, np.inf), (0.0, np.inf), (-np.inf, 0.0)):
            m = IntervalMatrix(np.array([[lo, 0.0]]), np.array([[hi, 1.0]]))
            with pytest.raises(ValueError, match="unbounded"):
                m.sample(rng)

    def test_radius_and_sample_past_half_float_max(self):
        # hi - lo = 2.5e308 is past the float maximum, every member is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = IntervalMatrix(np.array([[-1.5e308]]), np.array([[1e308]]))
            assert m.radius[0, 0] == np.nextafter(1.25e308, np.inf)
            rng = np.random.default_rng(8)
            draws = np.array([m.sample(rng) for _ in range(200)])
        assert np.all(np.isfinite(draws))
        assert np.all(draws >= -1.5e308) and np.all(draws <= 1e308)
        assert draws.min() < -1e308 and draws.max() > 0.5e308


def exact(x):
    """A float bound as an exact rational, -inf and inf as themselves."""
    return Fraction(x) if math.isfinite(x) else x


def assert_encloses(got, lo, hi):
    """got's bounds contain the exact bounds lo and hi entry by entry."""
    for glo, ghi, want_lo, want_hi in zip(got.lo.ravel(), got.hi.ravel(), lo, hi):
        assert exact(glo) <= want_lo and want_hi <= exact(ghi)


def signed_magnitudes(rng, shape, low, high):
    """Entries of random sign whose magnitudes are log-uniform in [10^low, 10^high]."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(low, high, shape)


class TestOneSum:
    # A (+) Lambda, a point's difference (-m) (+) L and a centre-radius
    # family c (+) [-r, r] are one sum, _add_outward, which contains its
    # exact sum; checked in rationals, with intervals drawn independently
    # of the nominal entries, where the old nearest-rounded differences
    # lost members of the family

    def test_sub_point_round_trip_contains_family_exactly(self):
        rng = np.random.default_rng(4)
        nearest_misses = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            a = signed_magnitudes(rng, (n, n), -5, 5)
            ends = np.sort(signed_magnitudes(rng, (2, n, n), -20, 5), axis=0)
            fam = IntervalMatrix(*ends)
            pert = _add_outward(-a, fam)
            back = _add_outward(a, pert)
            want_lo = [Fraction(x) for x in fam.lo.ravel()]
            want_hi = [Fraction(x) for x in fam.hi.ravel()]
            assert_encloses(back, want_lo, want_hi)
            assert_encloses(pert, [x - Fraction(m) for x, m in zip(want_lo, a.ravel())],
                            [x - Fraction(m) for x, m in zip(want_hi, a.ravel())])
            near_lo, near_hi = (fam.lo - a) + a, (fam.hi - a) + a
            nearest_misses += np.count_nonzero((near_lo > fam.lo) | (near_hi < fam.hi))
        # rounded to nearest, the round trip drops members somewhere
        assert nearest_misses > 0

    def test_from_center_radius_contains_exactly(self):
        rng = np.random.default_rng(5)
        nearest_misses = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            c = signed_magnitudes(rng, (n, n), -5, 5)
            r = np.abs(signed_magnitudes(rng, (n, n), -20, 5))
            m = _add_outward(c, IntervalMatrix(-r, r))
            assert_encloses(m, [Fraction(x) - Fraction(y) for x, y in zip(c.ravel(), r.ravel())],
                            [Fraction(x) + Fraction(y) for x, y in zip(c.ravel(), r.ravel())])
            nearest_misses += sum(Fraction(x) - Fraction(y) < Fraction(x - y)
                                  or Fraction(x + y) < Fraction(x) + Fraction(y)
                                  for x, y in zip(c.ravel(), r.ravel()))
        assert nearest_misses > 0

    def test_overflowing_sum_stays_outward(self):
        # a bound whose exact sum passes the float maximum: outward it is
        # -inf or inf, inward the float maximum itself (rounded to nearest
        # it was inf or -inf, which excludes every member); no warning
        big = np.finfo(np.float64).max
        a = np.array([[1.5e308, -1.5e308]])
        fam = IntervalMatrix(np.array([[1e308, -1.5e308]]), np.array([[1.5e308, -1e308]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _add_outward(a, fam)
            wide = _add_outward(np.array([[1e308]]),
                                IntervalMatrix(np.array([[-1e308]]), np.array([[1e308]])))
        want_lo, want_hi = ([Fraction(x) + Fraction(y) for x, y in zip(a.ravel(), b.ravel())]
                            for b in (fam.lo, fam.hi))
        assert np.array_equal(got.lo, [[big, -np.inf]])
        assert np.array_equal(got.hi, [[np.inf, -big]])
        assert_encloses(got, want_lo, want_hi)
        assert wide.lo[0, 0] == 0.0 and wide.hi[0, 0] == np.inf


class TestBox:
    def test_sample_stays_inside_past_half_float_max(self):
        # lo + u (hi - lo) overflowed to inf here, outside the box
        b = Box(np.array([-1e308, 0.0]), np.array([1e308, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = b.sample(np.random.default_rng(3), 100)
        assert pts.shape == (100, 2)
        assert all(b.contains(p) for p in pts)

    def test_center_and_radius_past_half_float_max(self):
        # 0.5 (lo + hi) and 0.5 (hi - lo) overflow here, every member is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Box(np.array([0.9e308]), np.array([1e308])).center[0] == 0.95e308
            assert (Box(np.array([-1.5e308]), np.array([1e308])).radius[0]
                    == np.nextafter(1.25e308, np.inf))
            both = Box(np.array([-np.inf, -np.inf, 1.0]), np.array([np.inf, 2.0, np.inf]))
            assert np.array_equal(both.center, [0.0, 0.0, 0.0])
            assert np.array_equal(both.radius, [np.inf, np.inf, np.inf])

    def test_half_infinite_axes_have_a_finite_centre(self):
        # an axis with any infinite bound has centre 0 and radius inf, for
        # Box and IntervalMatrix alike: centre -+ radius encloses the
        # bounds (a centre of -inf or inf made centre - radius NaN), and
        # bounds at the float maximum raise no warning
        big = np.finfo(np.float64).max
        lo = np.array([0.0, -np.inf, -np.inf, 1.0, -big])
        hi = np.array([np.inf, 5.0, np.inf, 2.0, big])
        for b in (Box(lo, hi), IntervalMatrix(lo[None], hi[None])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mid, rad = b.center, b.radius
            assert np.all(np.isfinite(mid))
            assert np.array_equal(mid.ravel(), [0.0, 0.0, 0.0, 1.5, 0.0])
            assert np.all(mid - rad <= b.lo) and np.all(mid + rad >= b.hi)

    def test_point_box_center_is_the_point(self):
        # each half of an odd subnormal rounds to even: 0.5 lo + 0.5 hi is 0
        tiny = np.array([5e-324, -5e-324, 3 * 5e-324, 1.0])
        b = Box(tiny, tiny.copy())
        assert np.array_equal(b.center, tiny) and b.contains(b.center)
        assert np.array_equal(b.radius, np.zeros(4))

    def test_center_and_radius_bitwise_on_normal_numbers(self):
        # the overflow-free forms round as the old ones wherever those are
        # finite and no half falls below the normal range
        rng = np.random.default_rng(20)
        lo = rng.normal(size=5000) * 10.0 ** rng.integers(-300, 300, 5000)
        hi = lo + np.abs(rng.normal(size=5000)) * 10.0 ** rng.integers(-300, 300, 5000)
        keep = np.isfinite(lo + hi) & np.isfinite(hi - lo)
        keep &= np.minimum(np.abs(lo), np.abs(hi)) > 4.0 * np.finfo(np.float64).tiny
        b = Box(lo[keep], hi[keep])
        assert keep.sum() > 4000
        assert np.array_equal(b.center, 0.5 * (b.lo + b.hi))
        assert np.array_equal(b.radius, intervals._centre_radius(b.lo, b.hi)[1])

    def test_center_and_radius_cover_the_box(self):
        # a radius rounded to nearest, 0.5 hi - 0.5 lo, can fall half an ulp
        # short, so center -+ radius missed [lo, hi] on about a quarter of
        # these axes
        rng = np.random.default_rng(0)
        lo = rng.uniform(-1e5, 1e5, 20000)
        hi = lo + 10.0 ** rng.uniform(-20, 5, 20000)
        for b in (Box(lo, hi), IntervalMatrix(lo.reshape(100, 200), hi.reshape(100, 200))):
            mid, rad = b.center, b.radius
            assert np.all(mid - rad <= b.lo) and np.all(mid + rad >= b.hi)


class TestIntervalMatmul:
    def test_identity(self):
        eye = IntervalMatrix.from_point(np.eye(2))
        m = IntervalMatrix(np.array([[0.0, -1.0], [1.0, 2.0]]),
                           np.array([[0.5, -0.5], [1.0, 3.0]]))
        out = product(eye, m)
        assert np.array_equal(out.lo, m.lo) and np.array_equal(out.hi, m.hi)

    def test_scalar_case(self):
        a = IntervalMatrix(np.array([[-1.0]]), np.array([[1.0]]))
        b = IntervalMatrix.from_point(np.array([[2.0]]))
        out = product(a, b)
        assert out.lo[0, 0] == -2.0 and out.hi[0, 0] == 2.0

    def test_upper_block_square(self):
        # [[ [0,1],[0,1] ],[ 0, 0 ]] squared reproduces itself
        m = IntervalMatrix(np.zeros((2, 2)), np.array([[1.0, 1.0], [0.0, 0.0]]))
        out = product(m, m)
        assert np.array_equal(out.lo, m.lo)
        assert np.array_equal(out.hi, m.hi)

    def test_contains_member_products(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            r, k, c = rng.integers(1, 4, size=3)
            l1 = centred(rng.uniform(-2, 2, (r, k)), rng.uniform(0, 1, (r, k)))
            l2 = centred(rng.uniform(-2, 2, (k, c)), rng.uniform(0, 1, (k, c)))
            prod = product(l1, l2)
            for _ in range(5):
                e1 = l1.sample(rng)
                e2 = l2.sample(rng)
                assert prod.contains(e1 @ e2, tol=1e-9)

    def test_endpoint_hull_is_the_stacked_hull_bitwise(self):
        # the endpoint products' min and max, taken pairwise in the order
        # ac, ad, bc, bd, equal the hull over a stack of all four, signed
        # zeros included
        rng = np.random.default_rng(1717)
        for _ in range(300):
            r, k, c = rng.integers(1, 9, size=3)
            mats = []
            for shape in ((r, k), (k, c)):
                lo = rng.normal(size=shape) * rng.choice([1.0, 1e-3, 1e3])
                lo[rng.random(shape) < 0.2] = 0.0
                lo[rng.random(shape) < 0.1] = -0.0
                mats.append((lo, lo + rng.choice([0.0, 1e-3, 0.5])
                             * rng.random(shape)))
            (alo, ahi), (blo, bhi) = mats
            a, b = alo[:, :, None], ahi[:, :, None]
            cc, d = blo[None], bhi[None]
            pr = np.stack((a * cc, a * d, b * cc, b * d))
            got = product(IntervalMatrix(alo, ahi), IntervalMatrix(blo, bhi))
            assert got.lo.tobytes() == pr.min(axis=0).sum(axis=1).tobytes()
            assert got.hi.tobytes() == pr.max(axis=0).sum(axis=1).tobytes()

    def test_point_factors_are_the_four_product_hull(self, monkeypatch):
        # a factor whose bounds are one array is a point, and the kernel
        # forms its equal endpoint products once: point @ point one per
        # entry, returning one array as both bounds, a point and an
        # interval two.  Each combination is bitwise the four products on
        # copies of the same bounds and the hull of their stack, with
        # signed zeros and infinities (so NaN from 0 * inf), inner
        # dimensions past numpy's 8-wide pairwise-sum block, and any chunk
        rng = np.random.default_rng(2323)
        special = np.array([0.0, -0.0, np.inf, -np.inf])

        def draw(shape):
            x = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3])
            pick = rng.random(shape) < 0.25
            x[pick] = rng.choice(special, size=pick.sum())
            return x

        def bounds(shape):
            x, y = draw(shape), draw(shape)
            point = draw(shape)
            return (point, point), (np.minimum(x, y), np.maximum(x, y))

        for entries in (1, intervals._CHUNK_ENTRIES, 10 ** 9):
            monkeypatch.setattr(intervals, "_CHUNK_ENTRIES", entries)
            for inner in range(1, 13):
                for rows, cols in ((1, 1), (5, 1), (3, 4)):
                    for (alo, ahi) in bounds((rows, inner)):
                        for (blo, bhi) in bounds((inner, cols)):
                            with np.errstate(invalid="ignore"):
                                lo, hi = intervals._endpoint_product(alo, ahi, blo, bhi)
                                want = intervals._endpoint_product(
                                    alo.copy(), ahi.copy(), blo.copy(), bhi.copy())
                                a, b = alo[:, :, None], ahi[:, :, None]
                                pr = np.stack((a * blo, a * bhi, b * blo, b * bhi))
                                stacked = (pr.min(axis=0).sum(axis=1),
                                           pr.max(axis=0).sum(axis=1))
                            got = (lo.tobytes(), hi.tobytes())
                            assert got == tuple(w.tobytes() for w in want)
                            assert got == tuple(w.tobytes() for w in stacked)
                            assert (lo is hi) == (alo is ahi and blo is bhi)


class TestEndpointKernel:
    """_endpoint_product, the package's one endpoint product, against the
    two kernels it replaced (endpoint_reference), bit for bit, under the
    callers' errstate: matrix factors as interval_expm's series passes
    them, and strided stacks of point rows times a box as the symbolic
    boxes and replayed supports pass them."""

    ORDERS = (1, 2, 3, 4, 8, 16, 64, 128)

    @staticmethod
    def draw(rng, shape, special):
        """Entries over many magnitudes, a tenth of them signed zeros and
        infinities if special."""
        x = rng.normal(size=shape) * np.exp(rng.normal(size=shape) * 3)
        if special:
            pick = rng.random(shape) < 0.1
            x[pick] = rng.choice([0.0, -0.0, np.inf, -np.inf], size=pick.sum())
        return x

    def factors(self, rng, shape, special):
        """A point (one array as both bounds) and an interval."""
        point = self.draw(rng, shape, special)
        x, y = self.draw(rng, shape, special), self.draw(rng, shape, special)
        return (point, point), (np.minimum(x, y), np.maximum(x, y))

    def test_matrix_factors_are_the_broadcast_kernel(self):
        rng = np.random.default_rng(4401)
        for n in self.ORDERS:
            for special in (False, True):
                lefts = self.factors(rng, (n + 1, n), special)
                rights = (*self.factors(rng, (n, n + 2), special),
                          *self.factors(rng, (n, 1), special))
                for (alo, ahi), (blo, bhi) in itertools.product(lefts, rights):
                    with np.errstate(over="ignore", invalid="ignore"):
                        lo, hi = _endpoint_product(alo, ahi, blo, bhi)
                        want = broadcast_product(alo, ahi, blo, bhi)
                    assert lo.tobytes() == want[0].tobytes(), (n, special)
                    assert hi.tobytes() == want[1].tobytes(), (n, special)
                    assert (lo is hi) == (want[0] is want[1])

    def test_flow_stacks_are_the_padded_image(self):
        # a strided (K, n, n) view of an (n, K n) array, as the flows of
        # engine._flow_chunks are, and the (K, 3, n) images of three
        # directions, times boxes with some point entries and a point box
        # (one array as both bounds), widened by a pad
        rng = np.random.default_rng(4402)
        for n in self.ORDERS:
            steps = 2051 if n <= 4 else 257 if n <= 16 else 9
            for special in (False, True):
                table = self.draw(rng, (n, steps * n), special)
                flows = table.reshape(n, steps, n).transpose(1, 0, 2)
                with np.errstate(over="ignore", invalid="ignore"):
                    images = self.draw(rng, (3, n), special) @ flows
                lo = rng.normal(size=n)
                hi = np.where(rng.random(n) < 0.3, lo, lo + rng.uniform(0, 2, n))
                point = rng.normal(size=n)
                for rows in (flows, images):
                    pad = rng.uniform(0, 1e-10, rows.shape[:-1])
                    for box in (Box(lo, hi), Box(point, point)):
                        with np.errstate(over="ignore", invalid="ignore"):
                            want = padded_image(rows, box, pad)
                            got = _endpoint_product(rows, rows, box.lo, box.hi)
                            got = (got[0] - pad, got[1] + pad)
                        assert got[0].tobytes() == want[0].tobytes(), (n, special)
                        assert got[1].tobytes() == want[1].tobytes(), (n, special)

    def test_peak_is_at_most_the_padded_images(self):
        # the left factor is read in place, and a point stack times a box
        # takes two product-sized temporaries in chunks of _CHUNK_ENTRIES
        # products in all, where the padded image took two of the whole
        # stack: the peak is the two bounds, a chunk's products and its
        # sums (4 KB) within 4 KB, where a copy of a chunk of the stack
        # (16 KB) would not fit
        rng = np.random.default_rng(4403)
        table = rng.normal(size=(4, 256 * 4))
        flows = table.reshape(4, 256, 4).transpose(1, 0, 2)
        lo = rng.normal(size=4)
        box = Box(lo, lo + rng.uniform(0.0, 2.0, 4))
        pad = np.zeros((256, 4))

        def peak(f):
            f()
            tracemalloc.start()
            try:
                f()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        kernel = peak(lambda: _endpoint_product(flows, flows, box.lo, box.hi))
        assert kernel <= peak(lambda: padded_image(flows, box, pad))
        assert kernel < 2 * pad.nbytes + intervals._CHUNK_ENTRIES * 8 + 8e3


class TestProductError:
    def test_covers_underflow(self):
        # products below the float range round to subnormals or zero, which
        # the relative gamma_n term cannot see: each bound must still hold
        # against the exact product, taken in Fractions
        rng = np.random.default_rng(11)
        # (1e10, 1e-300): the products are normal, gamma_n |x| is not
        for f_scale, x_scale in ((1e-160, 1e-160), (1e-170, 1e-170),
                                 (1e-200, 1e-200), (1e10, 1e-300), (1.0, 1.0)):
            for _ in range(20):
                n = int(rng.integers(1, 5))
                f = rng.normal(size=(n, n)) * f_scale
                x = rng.normal(size=(n, 3)) * x_scale
                out = np.empty((n, 3))
                _product_error(f, np.zeros((n, n)), x, np.zeros((n, 3)), out)
                got = f @ x
                for i in range(n):
                    for j in range(3):
                        exact = sum(Fraction(f[i, k]) * Fraction(x[k, j])
                                    for k in range(n))
                        assert abs(exact - Fraction(got[i, j])) <= Fraction(out[i, j])

    def test_bits_are_the_whole_width_evaluation(self, monkeypatch):
        # the bound, with x, x_err and out as column blocks of two shared
        # arrays, is bytewise the evaluation on whole contiguous
        # temporaries (the matrix bound as interval_expm's squarings take
        # it, V = I); the chunk size of the other products does not enter
        rng = np.random.default_rng(2026)
        for entries in (1, 7, 4096):
            monkeypatch.setattr(intervals, "_CHUNK_ENTRIES", entries)
            for n in (1, 2, 3, 5, 33):
                f = rng.normal(size=(n, n))
                f_err = rng.uniform(0, 1e-12, (n, n)) * (rng.random((n, n)) < 0.8)
                for width in (1, 7, 2048 // n, 8192 // n + 3, 5000):
                    powers = rng.normal(size=(n, 3 * width))
                    errs = rng.uniform(0, 1e-9, (n, 3 * width))
                    x, x_err = powers[:, :width], errs[:, :width]
                    want = product_error_reference(f, f_err, x, x_err).tobytes()
                    out = np.empty((n, width))
                    _product_error(f, f_err, x.copy(), x_err.copy(), out)
                    assert out.tobytes() == want, (entries, n, width)
                    dst = slice(2 * width, 3 * width)
                    _product_error(f, f_err, x, x_err, errs[:, dst])
                    assert errs[:, dst].tobytes() == want, (entries, n, width)

    def test_column_sums_weigh_the_underflow_term(self):
        # for V with columns summing to at most v_sum the n etas of each
        # entry of fl(f y) count n v_sum times: on zero operands the bound
        # is the underflow term alone, (2n + n v_sum + sum_k |f_ik|) 2^-1074
        f = np.array([[1.0, -2.0], [0.5, 0.0]])
        zeros = np.zeros((2, 3))
        for v_sum, rows in ((1.0, [9.0, 6.5]), (4.0, [15.0, 12.5]), (0.0, [7.0, 4.5])):
            out = np.empty((2, 3))
            _product_error(f, np.zeros((2, 2)), zeros, zeros, out, v_sum)
            want = np.ldexp(np.repeat(np.array(rows)[:, None], 3, axis=1), -1074)
            assert np.array_equal(out, want), v_sum

    def test_block_major_bounds_take_two_temporaries(self):
        # engine._orbit stores the error vectors block by block and passes
        # (n, take m) transposed views: in out's memory order no ufunc
        # buffers a strided operand, so the peak is the two out-sized
        # temporaries (a 64 KB buffer per strided operand added up to
        # three more)
        n, take, m = 4, 2048, 2
        rng = np.random.default_rng(9)
        sizes = rng.uniform(0, 1, (take, m, n))
        errs = rng.uniform(0, 1e-9, (2 * take, m, n))
        f, f_err = rng.normal(size=(n, n)), np.full((n, n), 1e-12)
        views = [arr.reshape(-1, n).T for arr in (sizes, errs[:take], errs[take:])]
        tracemalloc.start()
        try:
            _product_error(f, f_err, *views, v_sum=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * n * take * m * 8


def product_error_reference(f, f_err, x, x_err):
    """_product_error's bound evaluated on whole contiguous temporaries."""
    n = f.shape[1]
    af, ax = np.abs(f), np.abs(x)
    tmp = ax * intervals._gamma(n)
    tmp += x_err
    out = af @ tmp
    ax += x_err
    out += f_err @ ax
    out *= 1.0 + 2.0 * intervals._gamma(n + 3)
    out += (af.sum(axis=1, keepdims=True) + 3 * n) * 2.0 ** -1074
    return out


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
            lam = centred(m, np.abs(rng.normal(size=(n, n))))
            worst = np.maximum(np.abs(lam.lo), np.abs(lam.hi))
            assert lam.frobenius_sup() == float(np.linalg.norm(worst, "fro"))
        big = IntervalMatrix.from_point(np.array([[3e200, -4e200], [0.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert big.frobenius_sup() == pytest.approx(5e200, rel=1e-15)

    def test_frobenius_sup_past_half_float_max(self):
        # entries above 8.99e307, where a centre 0.5 (lo + hi) overflows:
        # the norm is in range and exact; a norm beyond it is inf, and
        # neither warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = IntervalMatrix.from_point(np.diag([-1e308, 0.0]))
            assert point.frobenius_sup() == pytest.approx(1e308, rel=1e-15)
            wide = IntervalMatrix(np.array([[0.9e308, -1e308]]),
                                  np.array([[1e308, -0.9e308]]))
            assert wide.frobenius_sup() == pytest.approx(math.sqrt(2) * 1e308,
                                                         rel=1e-15)
            over = IntervalMatrix(np.full((2, 2), -1.5e308), np.full((2, 2), 1e308))
            assert over.frobenius_sup() == math.inf

    def test_vector_and_row_norms_are_scaled(self):
        # bitwise np.linalg.norm along an axis in the normal range, and
        # finite past sqrt(float max) = 1.34e154, where the squares overflow
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(200, 5)) * 10.0 ** rng.integers(-100, 100, (200, 1))
        assert np.array_equal(intervals._frobenius(dirs, axis=1),
                              np.linalg.norm(dirs, axis=1))
        for lo, hi in zip(dirs[::2], dirs[1::2]):
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
            assert Box(lo, hi).max_norm() == np.sqrt(np.sum(np.maximum(lo**2, hi**2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = intervals._frobenius(np.array([[3e200, -4e200], [0.0, 0.0],
                                                  [3e-200, 4e-200]]), axis=1)
            box = Box(np.array([0.9e200, -0.1]), np.array([1.1e200, 0.1]))
            assert box.max_norm() == 1.1e200
            assert intervals._frobenius(np.array([1.5e308, 1.5e308]), axis=0) == np.inf
        assert rows[1] == 0.0
        assert rows[[0, 2]] == pytest.approx([5e200, 5e-200], rel=1e-15)

    def test_two_norm_sup_point(self):
        m = np.array([[1.0, -1.0], [0.0, 2.0]])
        assert IntervalMatrix.from_point(m).two_norm_sup() == pytest.approx(
            np.linalg.norm(m, 2), rel=1e-15)

    def test_two_norm_sup_scalar(self):
        m = IntervalMatrix(np.array([[-2.0]]), np.array([[3.0]]))
        assert m.two_norm_sup() == pytest.approx(3.0, abs=1e-15)

    def test_two_norm_sup_diag_radius(self):
        # zero center, radius = identity: every sign vertex is diag(+-1, +-1)
        m = centred(np.zeros((2, 2)), np.eye(2))
        assert m.two_norm_sup() == pytest.approx(1.0, rel=1e-14)

    def test_two_norm_sup_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            IntervalMatrix.zeros(2, 3).two_norm_sup()

    def test_norm_ordering(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = centred(rng.uniform(-2, 2, (n, n)), rng.uniform(0, 1, (n, n)))
            assert m.two_norm_sup() <= m.frobenius_sup() + 1e-12

    def test_two_norm_sup_dominates_samples_and_is_attained(self):
        # above sampled members of any family; on zero-centred and point
        # families the member R or C attains it up to the sigma_max cover
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            c = rng.uniform(-2, 2, (n, n))
            r = rng.uniform(0, 1, (n, n))
            m = _add_outward(c, IntervalMatrix(-r, r))
            sup = m.two_norm_sup()
            for _ in range(20):
                assert np.linalg.norm(m.sample(rng), 2) <= sup + 1e-12
            for member, fam in ((r, IntervalMatrix(-r, r)),
                                (c, IntervalMatrix.from_point(c))):
                assert np.linalg.norm(member, 2) >= fam.two_norm_sup() / (1 + 1e-13)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_two_norm_sup_closed_form(self, n):
        # zero-centred |E| <= R: sup = ||R||_2; a point family C: ||C||_2.
        # Orders above 8 used to be refused
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            r = rng.uniform(0, 1, (n, n)) * 10.0 ** rng.uniform(-3, 3)
            c = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
            for fam, want in ((IntervalMatrix(-r, r), r),
                              (IntervalMatrix.from_point(c), c)):
                exact = np.linalg.norm(want, 2)
                assert exact <= fam.two_norm_sup() <= (1 + 1e-13) * exact

    def test_two_norm_sup_dominates_sign_vertex_oracle(self):
        # non-centred families: at least the exact sup, which some sign
        # vertex C + (y z^T) o R attains, and above sampled members
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            m = centred(
                rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3),
                rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6))
            sup = m.two_norm_sup()
            exact = sign_vertex_sup(m.lo, m.hi)
            assert sup >= exact
            # C + R and C - R are members, so ||C||_2 + ||R||_2 <= 2 exact
            assert sup <= 2.0 * (1 + 1e-13) * exact
            members = m.lo + (m.hi - m.lo) * rng.random((50, n, n))
            assert np.linalg.norm(members, 2, axis=(1, 2)).max() <= sup

    def test_two_norm_sup_past_half_float_max(self):
        # entries above 8.99e307, where a centre 0.5 (lo + hi) overflows:
        # the centre and the bound stay finite, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = IntervalMatrix(np.array([[0.9e308, 0.0], [0.0, 0.0]]),
                               np.array([[1e308, 0.0], [0.0, 0.0]]))
            assert np.all(np.isfinite(m.center))
            assert m.center[0, 0] == pytest.approx(0.95e308, rel=1e-15)
            sup = m.two_norm_sup()
            assert math.isfinite(sup) and sup >= 1e308


def log_norm_vertex_sup(lo, hi):
    """sup of lambda_max((E + E^T) / 2) over [lo, hi] to 50 digits, exact
    up to the last of them: the function is convex in E, so the sup is at
    a vertex, and every vertex of the entries whose bounds differ runs."""
    mpmath = pytest.importorskip("mpmath")
    free = [tuple(ij) for ij in np.argwhere(lo != hi)]
    best = None
    with mpmath.workdps(50):
        for ends in itertools.product((lo, hi), repeat=len(free)):
            v = lo.copy()
            for ij, bound in zip(free, ends):
                v[ij] = bound[ij]
            m = mpmath.matrix(v.tolist())
            top = max(mpmath.eigsy((m + m.T) / 2, eigvals_only=True))
            best = top if best is None else max(best, top)
    return best


def certificate_case(rng, kind):
    """A random family of order 1 to 4 with at most three interval
    entries, by kind: random, badly scaled, near the boundary (the
    centre's mu within about 1e-15 of 0 and radii below 1e-12),
    skew-symmetric, or a point family with mu exactly 0."""
    n = int(rng.integers(1, 5))
    c = rng.normal(size=(n, n))
    scale = 1e-13
    if kind == "random":
        c *= 10.0 ** rng.uniform(-3, 3)
        scale = float(np.abs(c).max())
    elif kind == "scaled":
        c *= 10.0 ** rng.uniform(-8, 8, (n, n))
        scale = float(np.abs(c).max())
    elif kind == "boundary":
        c -= np.linalg.eigvalsh(0.5 * (c + c.T))[-1] * np.eye(n)
    elif kind == "skew":
        c -= c.T
    elif kind == "zero":
        c = c - c.T - np.diag(np.r_[0.0, rng.uniform(0, 2, n - 1)])
        scale = 0.0
    r = np.zeros((n, n))
    free = rng.choice(n * n, size=int(rng.integers(0, min(3, n * n) + 1)),
                      replace=False)
    r.flat[free] = rng.uniform(0, 1, len(free)) * scale
    return centred(c, r)


class TestLogNormSup:
    @pytest.mark.parametrize("kind", ["random", "scaled", "boundary", "skew",
                                      "zero"])
    def test_covers_the_exact_sup(self, kind):
        # at zero tolerance, above the 50-digit sup over the vertices
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(["random", "scaled", "boundary", "skew",
                                     "zero"].index(kind) + 230)
        for trial in range(40):
            fam = certificate_case(rng, kind)
            exact = log_norm_vertex_sup(fam.lo, fam.hi)
            if kind == "boundary":
                assert abs(exact) < 1e-12, trial
            elif kind == "zero":
                assert exact == 0, trial
            assert mpmath.mpf(fam.log_norm_sup()) >= exact, (kind, trial)

    def test_attained_when_the_centre_is_a_multiple_of_i(self):
        # sym C = c I: the vertex C + R attains c + ||sym R||_2, and the
        # bound is it up to its rounding cover; girad1's family at budget
        # p over cells (0, 0) and (1, 0) is -1 + (1 + sqrt 17) p / 2
        rng = np.random.default_rng(238)
        for trial in range(30):
            n = int(rng.integers(1, 5))
            k = rng.normal(size=(n, n))
            c = rng.uniform(-2, 2) * np.eye(n) + k - k.T
            r = np.zeros((n, n))
            free = rng.choice(n * n, size=min(3, n * n), replace=False)
            r.flat[free] = rng.uniform(0, 1, len(free))
            fam = centred(c, r)
            exact = float(log_norm_vertex_sup(fam.lo, fam.hi))
            assert 0.0 <= fam.log_norm_sup() - exact <= 1e-13 * (3.0 + n), trial
        a = np.array([[-1.0, -4.0], [4.0, -1.0]])
        for p in (0.05, 0.35, 0.4):
            fam = centred(a, np.array([[p, 0.0], [4.0 * p, 0.0]]))
            assert fam.log_norm_sup() == pytest.approx(
                -1.0 + (1.0 + math.sqrt(17.0)) * p / 2.0, abs=1e-14)

    def test_extreme_families(self):
        # an infinite bound gives inf; entries past half the float maximum
        # and below the normal range stay covered, without a warning
        mpmath = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = IntervalMatrix(np.array([[-1.0, -np.inf], [0.0, -1.0]]),
                                  np.array([[-1.0, 0.0], [0.0, -1.0]]))
            assert wide.log_norm_sup() == math.inf
            for c in (np.array([[-1.7e308, 1.6e308], [-1.5e308, -1.2e308]]),
                      np.array([[-3e-310, 5e-324], [2e-320, -1e-323]]),
                      np.array([[1e-300, -1e300], [1e300, -1e-300]])):
                fam = centred(c, np.abs(c) * 1e-3)
                got = fam.log_norm_sup()
                assert mpmath.mpf(got) >= log_norm_vertex_sup(fam.lo, fam.hi)
                assert math.isfinite(got)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            IntervalMatrix.zeros(2, 3).log_norm_sup()


def sign_vertex_sup(lo, hi):
    """Exact sup ||E||_2 over [lo, hi] up to the SVD's rounding, by
    enumeration: it is attained on a vertex C + (y z^T) o R for sign
    vectors y, z, whose entries are hi where y_i z_j = +1 and lo
    elsewhere; (y, z) and (-y, -z) agree, so y[0] = +1: 2^(2n-1) norms."""
    n = lo.shape[0]
    signs = 1.0 - 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    y = signs[signs[:, 0] > 0]
    yz = y[:, None, :, None] * signs[None, :, None, :]
    vertices = np.where(yz > 0, hi, lo).reshape(-1, n, n)
    return float(np.linalg.norm(vertices, 2, axis=(1, 2)).max())


TAYLOR_ORDER = 20  # the most Taylor terms interval_expm sums


def taylor_tail(theta, order):
    """Higham's bound on the Taylor remainder of exp after order N."""
    return theta ** (order + 1) / (
        math.factorial(order + 1) * (1.0 - theta / (order + 2)))


def taylor_order(theta):
    """The order interval_expm sums at a scaled theta <= 1: the least
    N <= 20 whose tail is at most the tail of order 20 at theta = 1."""
    bound = taylor_tail(1.0, TAYLOR_ORDER)
    return next(order for order in range(TAYLOR_ORDER + 1)
                if taylor_tail(theta, order) <= bound)


def chained(nonzero):
    """Pairs (i, j) joined by a chain of 1 to n entries of the pattern."""
    n = len(nonzero)
    step, power = nonzero.astype(float), np.eye(n)
    reach = np.zeros((n, n), dtype=bool)
    for _ in range(n):
        power = (power @ step > 0.0).astype(float)
        reach |= power > 0.0
    return reach


def exact_entries(lo, hi, out_lo, out_hi):
    """out_lo and out_hi with the identity's value, and no tail, on every
    entry that no chain of nonzero entries of [lo, hi] joins."""
    exact = ~chained((lo != 0.0) | (hi != 0.0))
    out_lo[exact] = out_hi[exact] = np.eye(len(lo))[exact]
    return out_lo, out_hi


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

    @pytest.mark.parametrize("theta", [1.5, 30.0, 1e3])
    def test_scaled_series_encloses_members(self, theta):
        # past theta = 1 the series runs at t / 2^s and is squared s times:
        # stable random families, and a rotation whose exponential stays
        # of norm 1, enclose sampled and vertex members' exponentials up to
        # the relative rounding of the series, which the squarings amplify
        rng = np.random.default_rng(int(theta * 10))
        families = [IntervalMatrix.from_point(np.array([[0.0, 1.0], [-1.0, 0.0]]))]
        for n in (1, 2, 3, 4, 6):
            for wide in (False, True):
                c = rng.normal(size=(n, n))
                c -= (np.linalg.eigvals(c).real.max() + 0.5) * np.eye(n)
                r = rng.uniform(0, 0.02, (n, n)) * (rng.random((n, n)) < 0.5)
                families.append(centred(c, wide * r))
        for lam in families:
            t = theta / lam.frobenius_sup()
            out = interval_expm(lam, t)
            assert np.all(np.isfinite(out.lo)) and np.all(np.isfinite(out.hi))
            for k in range(8):
                member = (lam.sample(rng) if k % 2
                          else np.where(rng.random(lam.shape) < 0.5, lam.lo, lam.hi))
                e = scipy.linalg.expm(member * t)
                assert out.contains(e, tol=1e-11 * np.abs(e).max()), (theta, lam)
        # the rotation's enclosure stays at rounding level
        rotation = interval_expm(families[0], theta / math.sqrt(2))
        assert np.all(rotation.hi - rotation.lo < 1e-11)

    @pytest.mark.parametrize("scaled", [False, True], ids=["s=0", "s>0"])
    def test_structural_zeros_stay_exact(self, scaled):
        # families with zero rows, zero columns or a triangular pattern,
        # summed unscaled (theta <= 1) or scaled and squared: every entry
        # that no chain of nonzero entries joins is the identity's value,
        # lo = hi, with no tail and no squaring error, and sampled and
        # vertex members' exponentials lie inside
        rng = np.random.default_rng([43, scaled])
        masked = 0
        for trial in range(60):
            n = int(rng.integers(1, 7))
            zero = np.zeros((n, n), dtype=bool)
            if trial % 3 == 0:
                zero[rng.random(n) < 0.4] = True
            elif trial % 3 == 1:
                zero[:, rng.random(n) < 0.4] = True
            else:
                zero = np.tri(n, k=-1, dtype=bool)
                zero = zero if trial % 2 else zero.T
            c = rng.normal(size=(n, n)) * ~zero
            r = rng.uniform(0, 0.05, (n, n)) * (rng.random((n, n)) < 0.5) * ~zero
            lam = centred(c, r)
            if lam.frobenius_sup() == 0.0:
                continue
            theta = rng.uniform(1.5, 40.0) if scaled else rng.uniform(0.05, 1.0)
            t = theta / lam.frobenius_sup()
            out = interval_expm(lam, t)
            exact = ~chained((lam.lo != 0.0) | (lam.hi != 0.0))
            masked += np.count_nonzero(exact)
            assert np.array_equal(out.lo[exact], np.eye(n)[exact]), trial
            assert np.array_equal(out.hi[exact], np.eye(n)[exact]), trial
            for k in range(6):
                member = (lam.sample(rng) if k % 2
                          else np.where(rng.random(lam.shape) < 0.5, lam.lo, lam.hi))
                e = scipy.linalg.expm(member * t)
                assert out.contains(e, tol=1e-11 * np.abs(e).max()), (trial, k)
        assert masked > 100

    def test_squaring_overflow_is_unbounded(self):
        # exp(1000) is past the float maximum: the squarings overflow, and
        # the entries are (-inf, inf), without a RuntimeWarning; so is
        # every entry of a family whose theta is not finite
        grow = IntervalMatrix.from_point(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = interval_expm(grow, 1000.0)
            wild = interval_expm(IntervalMatrix.from_point(np.full((2, 2), 1e308)), 10.0)
        assert out.lo[0, 0] == -np.inf and out.hi[0, 0] == np.inf
        assert out.lo[1, 1] <= 0.0 <= out.hi[1, 1]  # exp(-1000) underflows
        assert np.all(wild.lo == -np.inf) and np.all(wild.hi == np.inf)
        # such a family has centre 0 and radius inf there, as a Box has
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(wild.center, np.zeros((2, 2)))
            assert wild.two_norm_sup() == np.inf and wild.frobenius_sup() == np.inf

    def test_exact_entries_survive_a_theta_past_float_range(self):
        # theta = ||M||_F t is inf, so there is no series, but the entries
        # that no chain of nonzero entries joins stay the identity's: the
        # pinned third row is e_3 and the zeros of rows 1 and 2 outside
        # the chains stay 0, without a RuntimeWarning; the chained entries
        # (0, 0), (0, 1) and (1, 1) are (-inf, inf)
        m = np.array([[1e308, 1e308, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = interval_expm(IntervalMatrix.from_point(m), 10.0)
        chain = chained(m != 0.0)
        assert np.array_equal(chain, [[1, 1, 0], [0, 1, 0], [0, 0, 0]])
        assert np.all(out.lo[chain] == -np.inf) and np.all(out.hi[chain] == np.inf)
        assert np.array_equal(out.lo[~chain], np.eye(3)[~chain])
        assert np.array_equal(out.hi[~chain], np.eye(3)[~chain])
        assert np.array_equal(out.lo[2], [0.0, 0.0, 1.0])
        assert np.array_equal(out.hi[2], [0.0, 0.0, 1.0])

    def test_argument_validation(self):
        m = IntervalMatrix.zeros(2, 2)
        with pytest.raises(ValueError):
            interval_expm(m, -1.0)
        with pytest.raises(DimensionMismatch):
            interval_expm(IntervalMatrix.zeros(2, 3), 1.0)

    def test_entries_past_half_float_max(self):
        # theta comes from frobenius_sup, which no longer forms a centre
        # 0.5 (lo + hi) that overflows above 8.99e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = interval_expm(IntervalMatrix.from_point(-1e308 * np.eye(2)), 1e-310)
        assert m.contains(np.exp(-1e308 * 1e-310) * np.eye(2), tol=1e-15)

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
        theta = IntervalMatrix(lo, hi).frobenius_sup() * t
        n, order = lo.shape[0], taylor_order(theta)
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
        tail = taylor_tail(theta, order)
        return exact_entries(lo, hi, acc_lo - tail, acc_hi + tail)

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.01, 0.5])
    def test_point_family_bitwise_equal_to_four_way_series(self, t):
        rng = np.random.default_rng(int(t * 1e4))
        for n in range(1, 9):
            for _ in range(3):
                a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.8)
                # only unscaled steps, theta <= 1, are the series alone
                a *= min(1.0, 0.5 / max(t * np.linalg.norm(a), 1e-300))
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

    def test_row_chunks_are_the_unchunked_product(self, monkeypatch):
        # interval_expm's series and _endpoint_product go in row chunks of
        # about _CHUNK_ENTRIES endpoint products.  Whatever the chunk
        # (single rows, the default, or one chunk: the whole (n, n, n)
        # tensors), the results are bitwise the same, scaled steps
        # included, and equal the stacked hull of the full tensors
        rng = np.random.default_rng(4096)
        chunks = (1, intervals._CHUNK_ENTRIES, 10 ** 9)
        for n in (1, 2, 5, 16, 17, 33, 40):
            c = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.8)
            r = rng.uniform(0, 0.05, (n, n)) * (rng.random((n, n)) < 0.5)
            fams = (IntervalMatrix.from_point(c), IntervalMatrix(c - r, c + r))
            b = IntervalMatrix(c.T - r, c.T + r + 0.1)
            got = {}
            for entries in chunks:
                monkeypatch.setattr(intervals, "_CHUNK_ENTRIES", entries)
                got[entries] = [(m.lo.tobytes(), m.hi.tobytes()) for m in (
                    *(interval_expm(f, t) for f in fams for t in (0.01, 2.0)),
                    product(fams[1], b))]
            assert got[chunks[0]] == got[chunks[1]] == got[chunks[2]], n
            a, d = fams[1].lo[:, :, None], fams[1].hi[:, :, None]
            pr = np.stack((a * b.lo[None], a * b.hi[None],
                           d * b.lo[None], d * b.hi[None]))
            assert got[1][-1] == (pr.min(axis=0).sum(axis=1).tobytes(),
                                  pr.max(axis=0).sum(axis=1).tobytes())
        monkeypatch.undo()
        # at n = 64 a chunk is one row, 4096 products per tensor: the
        # whole tensors peaked at 10.8 MB (2.4 MB for a point family)
        c = rng.normal(size=(64, 64)) / 8
        for fam in (IntervalMatrix.from_point(c),
                    IntervalMatrix(c - 0.01, c + 0.01)):
            tracemalloc.start()
            try:
                interval_expm(fam, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6

    def test_contains_member_exponentials(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = centred(rng.uniform(-1, 1, (n, n)), rng.uniform(0, 0.3, (n, n)))
            for t in (0.3, 1.0):
                out = interval_expm(m, t)
                for _ in range(4):
                    e = scipy.linalg.expm(m.sample(rng) * t)
                    assert out.contains(e, tol=1e-9)

    @staticmethod
    def taylor_oracle(lam, t):
        """The series summed term by term with plain interval operations:
        a sum, a nonnegative scale and the product (product), on separate
        lo and hi arrays."""
        def add(x, y):
            return IntervalMatrix(x.lo + y.lo, x.hi + y.hi)

        def scale(x, c):  # c >= 0
            return IntervalMatrix(x.lo * c, x.hi * c)

        theta = lam.frobenius_sup() * t
        n, order = lam.shape[0], taylor_order(theta)
        lt = scale(lam, t)
        acc = IntervalMatrix.from_point(np.eye(n))
        term = IntervalMatrix.from_point(np.eye(n))
        for k in range(1, order + 1):
            term = scale(product(term, lt), 1.0 / k)
            acc = add(acc, term)
        tail = taylor_tail(theta, order)
        return exact_entries(lam.lo, lam.hi, acc.lo - tail, acc.hi + tail)

    @pytest.mark.parametrize("name", ["girad1", "acc4", "twocell", "grow1d"])
    def test_bitwise_equal_to_operator_series_on_shipped_models(self, name):
        model = load_model(
            importlib.resources.files("uncreach") / "models" / f"{name}.yaml")
        pert = model.perturbation()
        lam = IntervalMatrix(model.a + pert.lo, model.a + pert.hi)
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
            # theta <= 1: only unscaled steps are the series alone
            t = float(rng.uniform(0, 1)) / max(1.0, lam.frobenius_sup())
            out = interval_expm(lam, t)
            want_lo, want_hi = self.taylor_oracle(lam, t)
            assert np.array_equal(out.lo, want_lo)
            assert np.array_equal(out.hi, want_hi)

    def test_order_rule_keeps_the_tail_bound(self):
        # the series stops at the least order whose tail is at most the
        # tail of order 20 at theta = 1, 2.0505e-20: on a dense grid of
        # theta in (0, 1] the order is the rule's, its tail within that
        # bound, and it never falls as theta grows, up to 20 at theta = 1
        bound = taylor_tail(1.0, TAYLOR_ORDER)
        assert 2.05e-20 < bound < 2.051e-20
        grid = np.concatenate((np.geomspace(1e-300, 1e-3, 3000),
                               np.linspace(0.0, 1.0, 20001)[1:]))
        grid.sort()
        orders = []
        for theta in grid.tolist():
            order, tail = intervals._taylor_order(theta)
            assert order == taylor_order(theta), theta
            assert tail == taylor_tail(theta, order) <= bound, theta
            orders.append(order)
        assert np.all(np.diff(orders) >= 0)
        assert orders[-1] == TAYLOR_ORDER
        # the shipped steps: acc4 and twocell at 0.020 and 0.025, girad1
        # at 0.059
        assert [taylor_order(x) for x in (0.02, 0.025, 0.059)] == [8, 8, 10]

    @pytest.mark.parametrize("theta", [1e-6, 0.02, 0.058, 0.3, 1.0])
    def test_cut_series_encloses_the_exponential(self, theta):
        # point and interval families whose unscaled theta is just below
        # the given one, each summed to its own order, enclose the 50-digit
        # exponential of their centre and of vertex members, up to the
        # series' uncovered rounding; a point family's bounds stay within
        # rounding of each other
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(theta * 1e6))
        for n in (1, 2, 3):
            c = rng.normal(size=(n, n))
            r = rng.uniform(0, 0.05, (n, n)) * np.abs(c)
            for fam in (IntervalMatrix.from_point(c), centred(c, r)):
                t = theta * (1.0 - 2.0 ** -40) / fam.frobenius_sup()
                assert fam.frobenius_sup() * t <= 1.0  # no squaring
                out = interval_expm(fam, t)
                members = [c] + [np.where(rng.random((n, n)) < 0.5, fam.lo, fam.hi)
                                 for _ in range(0 if fam.is_point() else 6)]
                for member in members:
                    with mpmath.workdps(50):
                        e = mpmath.expm(mpmath.matrix(member.tolist()) * mpmath.mpf(t))
                        e = np.array(e.tolist(), dtype=np.float64)
                    assert out.contains(e, tol=1e-11 * np.abs(e).max()), (n, theta)
                if fam.is_point():
                    assert np.all(out.hi - out.lo <= 1e-15 * np.abs(out.hi).max())
