"""Tests for the closed-form bloating factors and the symbolic reach pipeline."""

import importlib.resources
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from uncreach import (
    Box,
    CellUncertainty,
    DefectiveMatrix,
    DimensionMismatch,
    HalfSpace,
    IntervalMatrix,
    ModelSpec,
    bloat_series,
    kagstrom1,
    kagstrom2,
    load_model,
    loan,
    ors_reach,
    p_poly,
    safety_check,
    spectral_data,
    symbolic_reach,
)
from uncreach._expm import expm
from uncreach._kernels import box_core
from uncreach.stars import Star, linear_map
from uncreach.engine import _doubling_flows, _padded_image
from uncreach.intervals import _sigma_max_bound
from uncreach.bounds import BLOAT_METHODS

BOUNDS = {"kagstrom1": kagstrom1, "kagstrom2": kagstrom2, "loan": loan}
GIRAD_A = np.array([[-1.0, -4.0], [4.0, -1.0]])
TWOCELL_A = np.array([[1.0, -1.0], [0.0, 2.0]])
TWOCELL_FRO_NORM = 2.449489742783178       # sqrt(6)


def random_interval_matrix(rng, n, scale=0.3):
    return IntervalMatrix.from_center_radius(
        rng.uniform(-0.5, 0.5, (n, n)), rng.uniform(0, scale, (n, n)))


def heat_rod(n, horizon):
    """1-D heat rod: the tridiagonal Laplacian scaled by (n+1)^2 / 100,
    2% relative uncertainty on four diagonal cells, h = 0.01."""
    a = (n + 1) ** 2 / 100 * (np.diag(np.full(n, -2.0)) + np.eye(n, k=1)
                              + np.eye(n, k=-1))
    cells = tuple(CellUncertainty(i, i, relative=0.02)
                  for i in range(n // 8, n, n // 4))
    return ModelSpec(name=f"heat-rod-{n}", a=a, uncertainty=cells,
                     initial=Box(np.full(n, 0.9), np.full(n, 1.1)),
                     horizon=horizon, continuous=True, step=0.01)


def measured_relative_error(a, e, t):
    base = scipy.linalg.expm(a * t)
    return np.linalg.norm(scipy.linalg.expm((a + e) * t) - base, 2) / np.linalg.norm(base, 2)


class TestPPoly:
    def test_single_term(self):
        for x in (0.0, 1.0, -3.0, 100.0):
            assert p_poly(1, x) == 1.0

    def test_three_terms(self):
        assert p_poly(3, 1.0) == 2.5

    def test_two_terms(self):
        assert p_poly(2, 0.0228825) == pytest.approx(1.0228825, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            p_poly(0, 1.0)


class TestSpectralData:
    def test_rotation_plus_decay(self):
        sd = spectral_data(GIRAD_A)
        assert sd.two_norm == pytest.approx(math.sqrt(17), rel=1e-14)
        assert sd.alpha == pytest.approx(-1.0, abs=1e-12)
        assert sd.eps == pytest.approx(math.sqrt(17), rel=1e-12)
        assert sd.cond_s == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        sd = spectral_data(np.diag([-1.0, -2.0]))
        assert sd.two_norm == 2.0
        assert sd.alpha == -1.0
        assert sd.eps == 2.0
        assert sd.cond_s == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DimensionMismatch):
            spectral_data(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            spectral_data(np.array([[np.nan]]))


class TestKagstrom1:
    def test_zero_time(self):
        assert kagstrom1(GIRAD_A, 0.5, 0.0) == 0.0

    def test_scalar_system(self):
        # n=1 makes the polynomial factor identically 1
        assert kagstrom1(np.array([[0.0]]), 1.0, 1.0) == pytest.approx(
            math.expm1(1.0), rel=1e-15)

    def test_worked_two_by_two(self):
        # x = ||A||_F t, which dominates the Schur nilpotent part
        got = kagstrom1(TWOCELL_A, 0.1, 0.01)
        p = 1.0 + TWOCELL_FRO_NORM * 0.01
        assert got == pytest.approx(p * math.expm1(p * 0.1 * 0.01), rel=1e-14)
        assert got == pytest.approx(1.05013e-3, rel=1e-3)

    def test_argument_dominates_schur_nilpotent_part(self):
        # the bound is stated for x = ||N||_2 t, N the strict upper triangle
        # of the complex Schur form; on this matrix ||N||_2 > ||A||_2, so
        # x = ||A||_2 t would fall short of it
        a = np.array([[1.1, -0.6, 0.6], [-0.2, -0.3, -0.1], [-0.5, -1.3, 0.1]])
        schur, _ = scipy.linalg.schur(a, output="complex")
        nil = np.linalg.norm(np.triu(schur, 1), 2)
        assert nil > 1.04 * np.linalg.norm(a, 2)
        for t in (0.1, 0.5, 1.0, 3.0):
            p = p_poly(3, nil * t)
            assert kagstrom1(a, 0.2, t) >= p * math.expm1(p * 0.2 * t)

    def test_rejects_negative_args(self):
        with pytest.raises(ValueError):
            kagstrom1(GIRAD_A, -0.1, 1.0)
        with pytest.raises(ValueError):
            kagstrom1(GIRAD_A, 0.1, -1.0)

    def test_frobenius_norm_past_sqrt_of_float_range(self):
        # ||A||_F = sqrt(2) 1e160: its sum of squares leaves float range,
        # the norm itself does not, and neither does phi at a tiny ||Lambda||
        a = -1e160 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kagstrom1(a, 1e-170, 1.0)
            p = 1.0 + math.sqrt(2.0) * 1e160
            assert got == pytest.approx(p * math.expm1(p * 1e-170), rel=1e-12)
            res = symbolic_reach(a, IntervalMatrix.zeros(2, 2),
                                 Box(np.zeros(2), np.ones(2)),
                                 np.arange(3) * 0.01, method="kagstrom1")
        assert np.array_equal(res.phi, np.zeros(3))


class TestKagstrom2:
    def test_zero_time(self):
        assert kagstrom2(np.diag([-1.0, -2.0]), 0.5, 0.0) == 0.0

    def test_diagonal_worked(self):
        got = kagstrom2(np.diag([-1.0, -2.0]), 0.1, 1.0)
        assert got == pytest.approx(math.exp(2.0) * math.expm1(0.1), rel=1e-12)
        assert got == pytest.approx(0.77716, rel=1e-3)

    def test_jordan_block_rejected(self):
        with pytest.raises(DefectiveMatrix) as exc:
            kagstrom2(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1, 1.0)
        assert "kagstrom2" in str(exc.value)

    def test_default_condition_threshold(self):
        # eigenvector condition about 2 / d for [[1, 1], [0, 1 + d]]: a
        # finite condition above 1e8 is refused, one far below it is not
        near = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-10]])
        assert 1e8 < spectral_data(near).cond_s < math.inf
        with pytest.raises(DefectiveMatrix, match="exceeds 1e"):
            kagstrom2(near, 0.1, 1.0)
        far = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-3]])
        assert spectral_data(far).cond_s < 1e4
        assert kagstrom2(far, 0.1, 1.0) > 0.0


class TestLoan:
    def test_zero_time(self):
        assert loan(GIRAD_A, 0.5, 0.0) == 0.0

    def test_zero_perturbation(self):
        assert loan(GIRAD_A, 0.0, 2.0) == 0.0

    def test_scalar_system(self):
        assert loan(np.array([[0.0]]), 1.0, 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_saturates_instead_of_overflowing(self):
        # a bound beyond float range is reported as inf, which is still
        # sound, and no overflow warning is raised on the way
        for t in (2.0, np.array([0.0, 2.0, 2.0])):
            inf = np.where(np.asarray(t) > 0, math.inf, 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(loan(GIRAD_A, 1e3, t), inf)
                assert np.array_equal(kagstrom1(GIRAD_A, 1e6, t), inf)
                assert np.array_equal(kagstrom2(np.diag([-1.0, -2.0]), 1e6, t), inf)
                # zero perturbation stays exactly zero even when exp would
                # overflow
                assert np.array_equal(loan(1000.0 * GIRAD_A, 0.0, t),
                                      np.zeros_like(inf))


class TestBloatFactor:
    def test_dispatch(self):
        assert BLOAT_METHODS == tuple(BOUNDS)
        lam = IntervalMatrix.from_center_radius(np.zeros((2, 2)), np.full((2, 2), 0.05))
        times = np.array([0.0, 0.5])
        for method in BLOAT_METHODS:
            out = bloat_series(GIRAD_A, lam, times, method)
            assert out.method == method
            assert out.lambda_norm == lam.two_norm_sup()
            assert np.array_equal(
                out.phi, [0.0, BOUNDS[method](GIRAD_A, out.lambda_norm, 0.5)])

    def test_unknown_method(self):
        for bad in ("tight", ["loan"]):
            with pytest.raises(ValueError, match=r"unknown bloat method"):
                bloat_series(GIRAD_A, IntervalMatrix.zeros(2, 2), [0.5], bad)


def ragged_grid(rng, count=40, end=3.0):
    """Nonuniform ascending grid with t = 0 and some repeated times."""
    times = np.sort(np.concatenate(([0.0, 0.0], rng.uniform(0.0, end, count))))
    times[5:8] = times[5]
    return times


class TestVectorisedBounds:
    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(8)
        times = ragged_grid(rng)
        for method in BLOAT_METHODS:
            got = BOUNDS[method](GIRAD_A, 0.08, times)
            assert isinstance(got, np.ndarray) and got.shape == times.shape
            ref = [BOUNDS[method](GIRAD_A, 0.08, float(t)) for t in times]
            assert all(isinstance(v, float) for v in ref)
            assert np.array_equal(got, ref)
            assert got[0] == 0.0

    def test_bloat_series_is_the_bound(self):
        lam = IntervalMatrix.from_center_radius(
            np.zeros((2, 2)), np.array([[0.02, 0.0], [0.08, 0.0]]))
        times = np.linspace(0.0, 2.0, 201)
        for method in BLOAT_METHODS:
            out = bloat_series(GIRAD_A, lam, times, method)
            assert np.array_equal(
                out.phi, BOUNDS[method](GIRAD_A, out.lambda_norm, times))

    def test_rejects_negative_times_in_array(self):
        for bound in BOUNDS.values():
            with pytest.raises(ValueError):
                bound(GIRAD_A, 0.1, np.array([0.0, -1.0]))


class TestBoundValidity:
    def test_measured_error_below_bounds(self):
        rng = np.random.default_rng(314)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-1, 1, (n, n))
            lam = random_interval_matrix(rng, n, scale=0.2)
            lam_norm = lam.two_norm_sup()
            sd = spectral_data(a)
            use_k2 = sd.cond_s < 1e6
            for t in (0.1, 0.5, 1.0, 2.0):
                k1 = kagstrom1(a, lam_norm, t)
                lo_bound = loan(a, lam_norm, t)
                k2 = kagstrom2(a, lam_norm, t) if use_k2 else None
                for _ in range(20):
                    err = measured_relative_error(a, lam.sample(rng), t)
                    assert err <= k1 + 1e-9
                    assert err <= lo_bound + 1e-9
                    if k2 is not None:
                        assert err <= k2 + 1e-9
                    checked += 1
        assert checked == 100 * 4 * 20

    def test_frobenius_variant_dominates(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-1, 1, (n, n))
            lam = random_interval_matrix(rng, n)
            two = lam.two_norm_sup()
            fro = lam.frobenius_sup()
            sd = spectral_data(a)
            for t in (0.1, 1.0, 2.0):
                assert kagstrom1(a, fro, t) >= kagstrom1(a, two, t) - 1e-12
                assert loan(a, fro, t) >= loan(a, two, t) - 1e-12
                if sd.cond_s < 1e6:
                    assert kagstrom2(a, fro, t) >= kagstrom2(a, two, t) - 1e-12

    def test_monotone_in_time_and_norm(self):
        times = np.linspace(0.0, 2.0, 21)
        norms = np.linspace(0.0, 0.5, 11)
        for bound in BOUNDS.values():
            in_t = [bound(GIRAD_A, 0.1, t) for t in times]
            assert all(b >= a - 1e-12 for a, b in zip(in_t, in_t[1:]))
            in_norm = [bound(GIRAD_A, v, 1.0) for v in norms]
            assert all(b >= a - 1e-12 for a, b in zip(in_norm, in_norm[1:]))


class TestBloatSeries:
    def test_empty_times(self):
        out = bloat_series(GIRAD_A, IntervalMatrix.zeros(2, 2), np.array([]), "loan")
        assert out.times.size == 0 and out.phi.size == 0

    def test_zero_perturbation_family(self):
        out = bloat_series(GIRAD_A, IntervalMatrix.zeros(2, 2),
                           np.linspace(0, 2, 11), "loan")
        assert np.all(out.phi == 0.0)
        assert out.lambda_norm == 0.0

    def test_grid_is_monotone(self):
        lam = IntervalMatrix.from_center_radius(
            np.zeros((2, 2)), np.array([[0.02, 0.0], [0.08, 0.0]]))
        times = np.linspace(0.0, 2.0, 201)
        for method in BLOAT_METHODS:
            out = bloat_series(GIRAD_A, lam, times, method)
            assert out.phi.shape == (201,)
            assert out.phi[0] == 0.0
            assert np.all(np.diff(out.phi) >= -1e-12)
            # spot-check the pointwise formula on a few grid points
            for idx in (1, 100, 200):
                ref = BOUNDS[method](GIRAD_A, out.lambda_norm, times[idx])
                assert out.phi[idx] == pytest.approx(ref, rel=1e-12)

    def test_validation(self):
        lam = IntervalMatrix.zeros(2, 2)
        with pytest.raises(ValueError):
            bloat_series(GIRAD_A, lam, np.array([1.0, 0.5]), "loan")
        with pytest.raises(ValueError):
            bloat_series(GIRAD_A, lam, np.array([-1.0, 0.5]), "loan")
        with pytest.raises(DimensionMismatch):
            bloat_series(GIRAD_A, IntervalMatrix.zeros(3, 3), np.array([0.0]), "loan")
        with pytest.raises(ValueError):
            bloat_series(GIRAD_A, lam, np.array([0.0]), "best")
        with pytest.raises(DefectiveMatrix):
            bloat_series(np.array([[0.0, 1.0], [0.0, 0.0]]),
                         IntervalMatrix.zeros(2, 2), np.array([0.0, 1.0]), "kagstrom2")
        with pytest.raises(ValueError, match="1-d grid"):
            bloat_series(GIRAD_A, lam, np.zeros((2, 2)), "loan")

    def test_two_norm_is_looked_up_on_the_class(self, monkeypatch):
        # a tracer that patches IntervalMatrix.two_norm_sup must see the
        # 2-norm call; a function taken at import would bypass the patch
        calls = []
        original = IntervalMatrix.two_norm_sup

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(IntervalMatrix, "two_norm_sup", counted)
        lam = IntervalMatrix.from_center_radius(
            np.zeros((2, 2)), np.array([[0.02, 0.0], [0.08, 0.0]]))
        out = bloat_series(GIRAD_A, lam, np.array([0.0, 0.5]), "loan")
        assert calls == [lam]
        assert out.lambda_norm == original(lam)


class TestSymbolicReach:
    def test_zero_family_keeps_nominal(self):
        theta = Box(np.array([0.9, -0.1]), np.array([1.1, 0.1]))
        res = symbolic_reach(GIRAD_A, IntervalMatrix.zeros(2, 2), theta,
                             np.linspace(0, 1, 11), method="kagstrom1")
        assert res.kind == "symbolic"
        # linspace(0, 1, 11) is bitwise arange(11) * 0.1, a grid it accepts
        assert res.flow_pad.shape == (11, 2)
        assert np.all(res.radii == 0.0)
        assert np.all(res.phi == 0.0)

    def test_time_zero_returns_initial_box(self):
        theta = Box(np.array([0.9, -0.1]), np.array([1.1, 0.1]))
        lam = IntervalMatrix.from_center_radius(np.zeros((2, 2)), np.full((2, 2), 0.01))
        res = symbolic_reach(GIRAD_A, lam, theta, np.array([0.0]), method="loan")
        # the one-point grid arange(1) * h: F_0 = I with a zero pad
        assert res.radii[0] == 0.0
        assert np.array_equal(res.flows, [np.eye(2)])
        assert np.array_equal(res.flow_pad, np.zeros((1, 2)))
        assert np.array_equal(res.boxes[0].lo, theta.lo)
        assert np.array_equal(res.boxes[0].hi, theta.hi)

    def test_scalar_worked_example(self):
        theta = Box(np.array([1.0]), np.array([1.0]))
        lam = IntervalMatrix(np.array([[-1.0]]), np.array([[1.0]]))
        res = symbolic_reach(np.array([[0.0]]), lam, theta,
                             np.array([0.0, 1.0]), method="loan")
        # the nominal set at t = 1 is exp(0) Theta, anchored at E 0 = 0
        assert np.array_equal(res.flows[1], [[1.0]])
        assert res.initial is theta
        assert res.radii[1] == pytest.approx(math.e, rel=1e-14)
        assert res.boxes[1].lo[0] == pytest.approx(1.0 - math.e, rel=1e-14)
        assert res.boxes[1].hi[0] == pytest.approx(1.0 + math.e, rel=1e-14)

    def test_contains_sampled_trajectories(self):
        rng = np.random.default_rng(555)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            a = rng.uniform(-1, 1, (n, n))
            lam = random_interval_matrix(rng, n, scale=0.05)
            lo = rng.uniform(-1, 0, n)
            theta = Box(lo, lo + rng.uniform(0, 1, n))
            times = np.array([0.0, 0.5, 1.0])
            res = symbolic_reach(a, lam, theta, times, method="kagstrom1")
            for _ in range(10):
                e = lam.sample(rng)
                x0 = theta.sample(rng)[0]
                for idx, t in enumerate(times):
                    pt = scipy.linalg.expm((a + e) * t) @ x0
                    nominal = scipy.linalg.expm(a * t) @ x0
                    assert np.linalg.norm(pt - nominal, 2) <= res.radii[idx] + 1e-9

    def test_matches_per_point_reference(self):
        # one expm, one linear map and one box per time point, as the
        # route was first written, on uniform grids, some with
        # ||A||_F h > 1; the package's expm called one point at a time (its
        # accuracy is checked against mpmath in test_expm.py)
        rng = np.random.default_rng(2024)
        compared = 0
        for _ in range(30):
            n = int(rng.integers(1, 6))
            a = rng.uniform(-1, 1, (n, n))
            lam = random_interval_matrix(rng, n, scale=0.05)
            lo = rng.uniform(-1, 1, n)
            theta = Box(lo, lo + rng.uniform(0, 1, n))
            times = np.arange(25) * rng.uniform(0.02, 0.5)
            for method in BLOAT_METHODS:
                if method == "kagstrom2" and spectral_data(a).cond_s > 1e8:
                    continue
                res = symbolic_reach(a, lam, theta, times, method=method)
                phi = bloat_series(a, lam, times, method).phi
                assert np.array_equal(res.phi, phi)
                ref_lo, ref_hi, ref_radii = [], [], []
                for idx, t in enumerate(times):
                    ea = expm(a * t)
                    nominal = linear_map(ea, Star.from_box(theta))
                    nlo, nhi = box_core(nominal.anchor, nominal.generators,
                                        nominal.coeff_lo, nominal.coeff_hi)
                    with np.errstate(over="ignore"):
                        delta = phi[idx] * np.linalg.norm(ea, 2) * theta.max_norm()
                    ref_radii.append(delta)
                    ref_lo.append(nlo - delta)
                    ref_hi.append(nhi + delta)
                    np.testing.assert_allclose(
                        res.flows[idx], ea, rtol=1e-13,
                        atol=1e-13 * max(1.0, np.abs(ea).max()))
                # kagstrom1 can leave float range on the later points:
                # those radii must be inf on both sides.  The route bounds
                # sigma_max from above and adds the flow's error, the
                # reference takes the SVD's: the radius is never below it,
                # and at most 1e-10 above it (the error's entry sum)
                ref_radii = np.array(ref_radii)
                over = np.isinf(ref_radii)
                assert np.array_equal(np.isinf(res.radii), over)
                assert np.all(res.radii[~over] >= ref_radii[~over])
                assert np.all(res.radii[~over] <= ref_radii[~over] * (1 + 1e-10))
                # the boxes hold the reference's up to the rounding of the
                # box bounds themselves, two ulps, and stay close to them
                ref_lo, ref_hi = np.array(ref_lo)[~over], np.array(ref_hi)[~over]
                ulps = 2 * np.spacing(np.maximum(np.abs(ref_lo), np.abs(ref_hi)))
                assert np.all(res.lo[~over] <= ref_lo + ulps)
                assert np.all(res.hi[~over] >= ref_hi - ulps)
                scale = 1e-11 * np.max(np.abs(ref_hi))
                np.testing.assert_allclose(res.lo[~over], ref_lo, rtol=1e-13, atol=scale)
                np.testing.assert_allclose(res.hi[~over], ref_hi, rtol=1e-13, atol=scale)
                assert np.array_equal(res.gen_counts, np.full(times.shape, n))
                compared += 1
        assert compared >= 80

    @pytest.mark.parametrize("name", ["girad1", "twocell", "acc4"])
    def test_radii_cover_their_own_rounding(self, name):
        # every radius is at least the exact product of its factors: phi,
        # the sigma_max bound plus the entry sum of the flow's error, and
        # the exact max-norm of Theta (rounded to nearest, 1818 of girad1's
        # 2051 radii fell below it), and at most 2e-15 above it: the factor
        # 1 + 8 u and the roundings it covers
        mpmath = pytest.importorskip("mpmath")
        model = load_model(importlib.resources.files("uncreach.models") / f"{name}.yaml")
        times = model.times()
        res = symbolic_reach(model.a, model.perturbation(), model.initial,
                             times, method="loan")
        flows, _, err_sums = _doubling_flows(model.a, times, model.initial)
        sigma = _sigma_max_bound(flows)
        with mpmath.workdps(50):
            ends = zip(model.initial.lo, model.initial.hi)
            theta_norm = mpmath.sqrt(sum(max(mpmath.mpf(lo) ** 2, mpmath.mpf(hi) ** 2)
                                         for lo, hi in ends))
            for k in range(len(times)):
                exact = (mpmath.mpf(res.phi[k]) * theta_norm
                         * (mpmath.mpf(sigma[k]) + mpmath.mpf(err_sums[k])))
                assert mpmath.mpf(res.radii[k]) >= exact, k
                assert res.radii[k] <= exact * (1 + mpmath.mpf(2e-15)), k

    def test_bound_overflow_gives_unbounded_steps(self):
        path = importlib.resources.files("uncreach") / "models" / "acc4.yaml"
        model = load_model(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = symbolic_reach(model.a, model.perturbation(), model.initial,
                                 model.times(), method="kagstrom1")
            verdict = safety_check(res, model.unsafe)
            boxes = res.boxes
        over = np.isinf(res.radii)
        first = int(np.argmax(over))
        assert first == 709 and np.all(over[first:])
        assert np.all(np.isfinite(res.radii[:first]))
        assert np.all(res.lo[first:] == -np.inf) and np.all(res.hi[first:] == np.inf)
        assert np.all(np.isfinite(res.lo[:first])) and not np.isnan(res.hi).any()
        assert boxes[-1].lo[0] == -np.inf
        assert not verdict.safe and verdict.step == 109 and verdict.halfspace == 0
        assert verdict.support == pytest.approx(3062.53, abs=0.01)
        # past the overflow every half-space is violated: not proven safe
        far = HalfSpace(np.array([1.0, 0.0, 0.0, 0.0]), np.finfo(float).max)
        late = safety_check(res, (far,))
        assert late.step == first and late.support == math.inf

    @staticmethod
    def minus_identity(first_axis, normal, offset, cells=()):
        """A = -I, h = 0.01, 10 steps, Theta = first_axis x [-0.1, 0.1]
        and one unsafe half-space; past 1.34e154 a sum of squares of the
        normal or of Theta's corner overflows while the norm does not."""
        return ModelSpec(name="minus-identity", a=-np.eye(2), uncertainty=cells,
                         initial=Box(np.array([first_axis[0], -0.1]),
                                     np.array([first_axis[1], 0.1])),
                         horizon=10, step=0.01,
                         unsafe=(HalfSpace(np.array(normal), offset),))

    @pytest.mark.parametrize("cells", [(), (CellUncertainty(0, 0, relative=0.01),)])
    def test_huge_normal_is_violated_at_step_zero(self, cells):
        # Theta violates normal . x >= 1e199 at t = 0; radius 0 times an
        # overflowed ||normal||_2 used to give a NaN support, read as safe
        model = self.minus_identity((0.9, 1.1), [1e200, 0.0], 1e199, cells)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = [safety_check(ors_reach(model), model.unsafe)]
            for method in BLOAT_METHODS:
                res = symbolic_reach(model.a, model.perturbation(), model.initial,
                                     model.times(), method=method)
                verdicts.append(safety_check(res, model.unsafe))
        for verdict in verdicts:
            assert not verdict.safe and verdict.step == 0
            assert verdict.support == pytest.approx(1.1e200, rel=1e-12)

    @pytest.mark.parametrize("cells", [(), (CellUncertainty(0, 0, relative=0.01),)])
    def test_huge_box_has_finite_radii(self, cells):
        # ||Theta|| = 1.1e200 used to overflow, so phi = 0 gave a NaN radius
        # (unbounded, not proven safe at t = 0); both routes prove it safe
        model = self.minus_identity((0.9e200, 1.1e200), [1.0, 0.0], 2e200, cells)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert safety_check(ors_reach(model), model.unsafe).safe
            for method in BLOAT_METHODS:
                res = symbolic_reach(model.a, model.perturbation(), model.initial,
                                     model.times(), method=method)
                assert np.all(np.isfinite(res.radii)), method
                assert np.all(np.isfinite(res.lo)) and np.all(np.isfinite(res.hi))
                assert (res.radii[1:] > 0.0).all() == bool(cells)
                assert res.hi[0, 0] >= 1.1e200 and res.lo[0, 0] <= 0.9e200
                assert safety_check(res, model.unsafe).safe, method

    @pytest.mark.parametrize("method", ["loan", "kagstrom1"])
    def test_entries_past_half_float_max(self, method):
        # ||A||_F h = 1.4e306 needs about 1018 squarings; the scaling comes
        # from frobenius_sup, which used to overflow to inf here
        theta = Box(np.array([0.9, -0.1]), np.array([1.1, 0.1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = symbolic_reach(-1e308 * np.eye(2), IntervalMatrix.zeros(2, 2),
                                 theta, np.arange(3) * 0.01, method=method)
        assert np.array_equal(res.lo[0], theta.lo)
        assert np.all(np.isfinite(res.radii))
        assert np.all(res.lo[1:] <= 0.0) and np.all(res.hi[1:] >= 0.0)

    def test_flow_overflow_gives_unbounded_steps(self):
        # exp(2t) leaves float range near t = 355 on this unstable matrix.
        # On coarse steps (||A||_F h = 612 and 980, ten squarings) the orbit
        # overflows at t = 500, or the squarings themselves do
        theta = Box(np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        lam = IntervalMatrix.from_center_radius(np.zeros((2, 2)),
                                                np.full((2, 2), 1e-3))
        for step, finite in ((250.0, 2), (400.0, 1)):
            times = np.arange(5) * step
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = symbolic_reach(TWOCELL_A, lam, theta, times, method="loan")
                verdict = safety_check(res, (HalfSpace(np.array([0.0, 1.0]), 1e300),))
            assert np.all(np.isfinite(res.radii[:finite]))
            assert np.all(res.radii[finite:] == np.inf)
            assert np.all(res.lo[finite:] == -np.inf) and np.all(res.hi[finite:] == np.inf)
            assert not verdict.safe and verdict.step == finite
            # phi = 0 times an overflowed norm is unbounded too, not NaN
            nominal = symbolic_reach(TWOCELL_A, IntervalMatrix.zeros(2, 2), theta,
                                     times, method="loan")
            assert np.array_equal(nominal.radii[:finite], np.zeros(finite))
            assert np.all(nominal.radii[finite:] == np.inf)
            assert np.all(nominal.hi[finite:] == np.inf)

    @pytest.mark.parametrize("method", ["loan", "kagstrom1"])
    def test_heat_rod_past_order_eight(self, method):
        # a 12-cell heat rod; the interval 2-norm used to refuse n > 8.
        # Trajectories of vertex members from corners of Theta stay inside
        rod = heat_rod(12, horizon=20)
        res = symbolic_reach(rod.a, rod.perturbation(), rod.initial,
                             rod.times(), method=method)
        assert np.all(np.isfinite(res.radii))
        rng = np.random.default_rng(31)
        lam = rod.lambda_u()
        for _ in range(4):
            member = np.where(rng.random(lam.shape) < 0.5, lam.lo, lam.hi)
            step = scipy.linalg.expm(member * rod.step)
            x = np.where(rng.random((rod.dim, 8)) < 0.5,
                         rod.initial.lo[:, None], rod.initial.hi[:, None])
            for k in range(rod.horizon + 1):
                assert np.all(x >= res.lo[k][:, None] - 1e-9), k
                assert np.all(x <= res.hi[k][:, None] + 1e-9), k
                x = step @ x

    def test_huge_matrix_is_scaled_not_diverging(self):
        # ||A||_F h = 1.4e158: interval_expm takes 526 squarings, and
        # exp(-1e158) underflows to a zero flow; the true state is
        # positive, so the pad covers the underflow (a few subnormals)
        # and every box from t = 0.01 on holds 0 and the values above it
        theta = Box(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        res = symbolic_reach(-1e160 * np.eye(2), IntervalMatrix.zeros(2, 2),
                             theta, np.arange(3) * 0.01, method="loan")
        assert np.array_equal(res.flows[1:], np.zeros((2, 2, 2)))
        assert np.all(res.flow_pad[1:] > 0) and np.all(res.flow_pad < 1e-300)
        assert np.all(res.lo[1:] <= 0) and np.all(res.hi[1:] > 0)

    def test_rejects_infinite_initial_box(self):
        theta = Box(np.array([0.0, -np.inf]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            symbolic_reach(GIRAD_A, IntervalMatrix.zeros(2, 2), theta,
                           np.array([0.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            symbolic_reach(GIRAD_A, IntervalMatrix.zeros(2, 2),
                           Box(np.zeros(1), np.ones(1)), np.array([0.0, 1.0]))


SHIPPED_A = {
    "girad1": GIRAD_A,
    "twocell": TWOCELL_A,
    "acc4": np.array([[-0.5, 0.0, 0.0, 0.5],
                      [-1.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0, 0.0]]),
}
SHIPPED_GRID = np.arange(2051) * 0.01  # the shipped models' 2050-step grid


def oracle_matrices():
    """(a, times): a Jordan block, an unstable matrix and random matrices
    of order 1 to 6, each on a uniform grid of 300 points."""
    rng = np.random.default_rng(4242)
    cases = [(np.array([[-0.5, 1.0, 0.0], [0.0, -0.5, 1.0],
                        [0.0, 0.0, -0.5]]), 0.03),
             (rng.normal(size=(4, 4)) * 0.5 + 0.8 * np.eye(4), 0.02)]
    for n in range(1, 7):
        cases.append((rng.uniform(-1, 1, (n, n)), float(rng.uniform(0.005, 0.05))))
    return [(a, np.arange(300) * h) for a, h in cases]


def image_bounds_reference(flows, theta):
    """The nominal box of each flow, unchunked: the endpoint products."""
    p1 = flows * theta.lo
    p2 = flows * theta.hi
    return np.minimum(p1, p2).sum(axis=-1), np.maximum(p1, p2).sum(axis=-1)


def per_point_reference(a, lam, theta, times, method):
    """lo, hi and radii of the per-point reference: one expm of A t per
    time point, no error pad, and the SVD's sigma_max in the radii."""
    flows = np.array([expm(a * t) for t in times])
    phi = bloat_series(a, lam, times, method).phi
    radii = phi * np.linalg.svd(flows, compute_uv=False)[:, 0] * theta.max_norm()
    nlo, nhi = image_bounds_reference(flows, theta)
    return flows, nlo - radii[:, None], nhi + radii[:, None], radii


class TestDoublingFlows:
    """Uniform grids 0, h, 2h, ...: flows as powers of expm(A h) with an
    error pad, checked against a 40-digit mpmath exponential."""

    @staticmethod
    def check_against_mpmath(a, times, steps):
        mpmath = pytest.importorskip("mpmath")
        n = a.shape[0]
        zero = IntervalMatrix.zeros(n, n)
        # with Theta = {e_j} the pad is column j of the error bound E_k
        columns = []
        for j in range(n):
            e = np.eye(n)[j]
            res = symbolic_reach(a, zero, Box(e, e), times, method="loan")
            assert res.flow_pad.shape == (len(times), n)
            columns.append(res)
        rng = np.random.default_rng(n)
        lo = rng.uniform(-1, 1, n)
        theta = Box(lo, lo + rng.uniform(0, 1, n))
        boxed = symbolic_reach(a, zero, theta, times, method="loan")
        worst = 0.0
        with mpmath.workdps(40):
            big_a = mpmath.matrix(a.tolist())
            for k in steps:
                ref = mpmath.expm(big_a * mpmath.mpf(times[k]))
                for j, res in enumerate(columns):
                    assert np.array_equal(res.flows[k], boxed.flows[k])
                    for i in range(n):
                        miss = abs(ref[i, j] - mpmath.mpf(res.flows[k][i, j]))
                        bound = mpmath.mpf(res.flow_pad[k][i])
                        assert miss <= bound, (k, i, j)
                        if bound > 0:  # F_0 = I is exact
                            worst = max(worst, float(miss / bound))
                # the padded nominal box holds the box of exp(A t_k) Theta
                for i in range(n):
                    ends = [(ref[i, j] * mpmath.mpf(theta.lo[j]),
                             ref[i, j] * mpmath.mpf(theta.hi[j])) for j in range(n)]
                    assert mpmath.mpf(boxed.lo[k, i]) <= sum(min(e) for e in ends)
                    assert mpmath.mpf(boxed.hi[k, i]) >= sum(max(e) for e in ends)
        return worst

    @pytest.mark.parametrize("name", sorted(SHIPPED_A))
    def test_error_rows_hold_on_shipped_grids(self, name):
        worst = self.check_against_mpmath(SHIPPED_A[name], SHIPPED_GRID,
                                          range(0, len(SHIPPED_GRID), 186))
        assert worst <= 0.75  # a bound, and not a loose one

    def test_error_rows_hold_on_random_matrices(self):
        for a, times in oracle_matrices():
            self.check_against_mpmath(a, times, (1, 2, 7, 64, 150, 299))

    # girad1 steps with ||A||_F h past 1: an unscaled series would have
    # no tail bound at 23.3 >= 22, and at 8.75 a tail of about 2 per entry
    # while no entry of exp(A h) exceeds 0.23; interval_expm scales by 2^-s
    COARSE_GRIDS = {
        "cutoff": np.arange(40) * (1.01 / np.linalg.norm(GIRAD_A)),
        "coarse": np.arange(15) * 1.5,
        "theta": np.arange(6) * 4.0,
    }

    @pytest.mark.parametrize("name", sorted(COARSE_GRIDS))
    def test_coarse_grids_are_padded(self, name):
        times = self.COARSE_GRIDS[name]
        self.check_against_mpmath(GIRAD_A, times, range(len(times)))
        # the padded boxes hold the per-point ones, within 1e-11 of their
        # widths, and every verdict on the model's half-space x_1 >= 2 holds
        model = load_model(importlib.resources.files("uncreach.models") / "girad1.yaml")
        (unsafe,) = model.unsafe
        assert np.array_equal(unsafe.normal, [1.0, 0.0])
        for method in BLOAT_METHODS:
            res = symbolic_reach(model.a, model.perturbation(), model.initial,
                                 times, method=method)
            assert res.flow_pad.shape == (len(times), 2)
            _, lo, hi, radii = per_point_reference(
                model.a, model.perturbation(), model.initial, times, method)
            assert np.all(res.radii >= radii)
            assert np.all(res.lo <= lo) and np.all(res.hi >= hi)
            np.testing.assert_allclose(res.hi - res.lo, hi - lo, rtol=1e-11)
            verdict = safety_check(res, model.unsafe)
            hit = np.flatnonzero(hi[:, 0] >= unsafe.offset)
            assert verdict.safe == (len(hit) == 0), method
            assert verdict.safe or verdict.step == hit[0], method

    @pytest.mark.parametrize("times", [
        ragged_grid(np.random.default_rng(31), count=25),
        np.array([0.0, 0.5, 0.5, 1.0]),                # repeated
        np.zeros(3),                                   # h = 0
        0.5 + np.arange(151) * 0.01,                   # a window after 0
        np.array([0.5]),
        # 0.1 summed: 6 of its points are 1 ulp off np.arange(11) * 0.1
        np.concatenate(([0.0], np.cumsum(np.full(10, 0.1)))),
    ], ids=["ragged", "repeated", "zero-step", "window", "single-late", "summed"])
    def test_other_grids_raise(self, times):
        lam = IntervalMatrix.from_center_radius(np.zeros((2, 2)),
                                                np.full((2, 2), 0.01))
        theta = Box(np.array([0.9, -0.1]), np.array([1.1, 0.1]))
        with pytest.raises(ValueError, match="grid"):
            symbolic_reach(GIRAD_A, lam, theta, times, method="loan")

    def test_orbit_below_theta_one_keeps_widths_and_verdicts(self):
        # ||A||_F h = 0.99 on girad1: the orbit with a pad; its boxes stay
        # within 1e-10 of the per-point widths and every verdict holds
        model = load_model(importlib.resources.files("uncreach.models") / "girad1.yaml")
        times = np.arange(140) * (0.99 / np.linalg.norm(model.a))
        for method in BLOAT_METHODS:
            res = symbolic_reach(model.a, model.perturbation(), model.initial,
                                 times, method=method)
            assert res.flow_pad is not None
            _, lo, hi, _ = per_point_reference(
                model.a, model.perturbation(), model.initial, times, method)
            assert np.all(res.lo <= lo) and np.all(res.hi >= hi)
            np.testing.assert_allclose(res.hi - res.lo, hi - lo, rtol=1e-10)
            verdict = safety_check(res, model.unsafe)
            # the model's one half-space is x_1 >= 2: support hi[:, 0]
            (unsafe,) = model.unsafe
            assert np.array_equal(unsafe.normal, [1.0, 0.0])
            hit = np.flatnonzero(hi[:, 0] >= unsafe.offset)
            assert not verdict.safe and verdict.step == hit[0], method

    def test_uniform_grid_pads_the_per_point_boxes(self):
        lam = IntervalMatrix.from_center_radius(np.zeros((2, 2)),
                                                np.full((2, 2), 0.01))
        theta = Box(np.array([0.9, -0.1]), np.array([1.1, 0.1]))
        for method in BLOAT_METHODS:
            res = symbolic_reach(GIRAD_A, lam, theta, SHIPPED_GRID, method=method)
            flows, lo, hi, radii = per_point_reference(
                GIRAD_A, lam, theta, SHIPPED_GRID, method)
            assert res.flow_pad.shape == (len(SHIPPED_GRID), 2)
            assert np.all(res.flow_pad[0] == 0.0) and np.all(res.flow_pad[1:] > 0)
            np.testing.assert_allclose(res.flows, flows, rtol=0, atol=1e-13)
            assert np.all(res.radii >= radii)
            assert np.all(res.lo <= lo) and np.all(res.hi >= hi)
            np.testing.assert_allclose(res.hi - res.lo, hi - lo, rtol=1e-10)

    def test_image_bounds_chunks_are_bitwise_whole(self):
        rng = np.random.default_rng(8)
        for shape in ((2051, 2, 2), (2051, 4, 4), (5000, 3, 7), (3, 9)):
            m = rng.normal(size=shape) * np.exp(rng.normal(size=shape) * 5)
            lo = rng.normal(size=shape[-1])
            box = Box(lo, lo + rng.uniform(0, 2, shape[-1]))
            rows = m.reshape(-1, *m.shape[-2:])  # (K, r, n)
            # zero pad and radius: the endpoint image alone
            got = _padded_image(rows, box, np.zeros(rows.shape[:-1]),
                                np.zeros(len(rows)), np.ones(rows.shape[1]))
            ref = image_bounds_reference(rows, box)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_flow_overflow_gives_unbounded_steps(self):
        # exp(2t) leaves float range near t = 355; the fine-step twin of
        # TestSymbolicReach.test_flow_overflow_gives_unbounded_steps, on a
        # step with ||A||_F h = 0.61, taken without squarings
        theta = Box(np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        times = np.arange(1601) * 0.25
        for lam, overflow in (
                (IntervalMatrix.from_center_radius(np.zeros((2, 2)),
                                                   np.full((2, 2), 1e-3)), 1239),
                (IntervalMatrix.zeros(2, 2), 1419)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = symbolic_reach(TWOCELL_A, lam, theta, times, method="loan")
                verdict = safety_check(res, (HalfSpace(np.array([0.0, 1.0]), 1e300),))
                boxes = res.boxes
            assert res.flow_pad is not None
            over = np.isinf(res.radii)
            first = int(np.argmax(over))
            # phi times the norm leaves float range first with a
            # perturbation (t = 309.75), ||F_k||_2 without (t = 354.75):
            # the steps of the per-point reference
            assert first == overflow and np.all(over[first:])
            assert np.all(np.isfinite(res.radii[:first]))
            assert np.all(res.lo[first:] == -np.inf) and np.all(res.hi[first:] == np.inf)
            assert np.all(np.isfinite(res.lo[:first])) and np.all(np.isfinite(res.hi[:first]))
            assert not np.isnan(res.radii).any() and boxes[-1].hi[1] == np.inf
            assert not verdict.safe and verdict.step <= first

    def test_support_along_axes_matches_box(self):
        # bitwise: the boxes and the supports are one padded image
        lam = IntervalMatrix.from_center_radius(np.zeros((2, 2)),
                                                np.full((2, 2), 0.01))
        theta = Box(np.array([0.9, -0.1]), np.array([1.1, 0.1]))
        cases = [(GIRAD_A, lam, theta, times)
                 for times in (SHIPPED_GRID, np.arange(15) * 1.5)]
        cases.append((TWOCELL_A, lam, theta, np.arange(1601) * 0.25))
        for name in ("girad1", "acc4", "twocell"):
            model = load_model(importlib.resources.files("uncreach.models") / f"{name}.yaml")
            cases.append((model.a, model.perturbation(), model.initial, model.times()))
        for a, lam, theta, times in cases:
            n = a.shape[0]
            for method in BLOAT_METHODS:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        res = symbolic_reach(a, lam, theta, times, method)
                    except DefectiveMatrix:  # kagstrom2 on acc4
                        continue
                    sups = res.support(np.vstack((np.eye(n), -np.eye(n))))
                assert np.array_equal(sups[:, :n], res.hi)
                assert np.array_equal(sups[:, n:], -res.lo)


def sigma_max_reference(f):
    """sigma_max of one matrix from a 40-digit mpmath SVD."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return max(mpmath.svd_r(mpmath.matrix(f.tolist()), compute_uv=False))


class TestSigmaMaxBound:
    """_sigma_max_bound against a 40-digit SVD: never below sigma_max, at
    most 1e-14 above it, relative, and no RuntimeWarning."""

    @staticmethod
    def check(stack):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigma_max_bound(stack)
        assert got.shape == (len(stack),)
        mpmath = pytest.importorskip("mpmath")
        for f, bound in zip(stack, got):
            ref = sigma_max_reference(f)
            assert ref <= mpmath.mpf(bound) <= ref * (1 + mpmath.mpf(1e-14)), f
        return got

    @staticmethod
    def cases(rng, n):
        """Random matrices of spread magnitudes, rotations (every singular
        value equal), rank-one matrices and entries near 1e+-300."""
        cases = [rng.normal(size=(n, n)) * np.exp(rng.normal(size=(n, n)) * k)
                 for k in (0, 1, 3) for _ in range(4)]
        for scale in (1.0, 3e-7, 5e9):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            cases.append(scale * q)
        cases += [np.outer(rng.normal(size=n), rng.normal(size=n)) for _ in range(3)]
        cases += [rng.normal(size=(n, n)) * s for s in (1e300, 1e-300, 3e-290)]
        return np.array(cases)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_encloses_the_svd_tightly(self, n):
        self.check(self.cases(np.random.default_rng(n), n))

    def test_scaled_rotations(self):
        angles = np.linspace(0.0, 2 * np.pi, 13)
        c, s = np.cos(angles), np.sin(angles)
        rot = np.stack((np.stack((c, -s), axis=1), np.stack((s, c), axis=1)), axis=1)
        for scale in (1.0, 0.37, 1e150, 1e-150):
            self.check(rot * scale)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_empty_and_subnormal(self, n):
        rng = np.random.default_rng(100 + n)
        zero = self.check(np.zeros((1, n, n)))
        assert zero[0] == 0.0
        assert self.check(np.empty((0, n, n))).shape == (0,)
        # every entry subnormal, at least 2^-1024 in magnitude so that the
        # float grid there is finer than 1e-14 relative
        tiny = np.ldexp(rng.uniform(1.0, 4.0, (4, n, n)), -1024)
        tiny *= rng.choice((-1.0, 1.0), tiny.shape)
        mixed = rng.normal(size=(4, n, n))
        mixed[:, 0] = np.ldexp(rng.uniform(-1.0, 1.0, (4, n)), -1060)
        self.check(np.concatenate((tiny, mixed)))
        # a few units of the smallest subnormal: there the float grid is
        # coarser than 1e-14 relative, and the bound is at most 2 steps up
        eta = np.nextafter(0.0, 1.0)
        deep = rng.integers(-3, 4, (6, n, n)) * eta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigma_max_bound(deep)
        for f, bound in zip(deep, got):
            ref = sigma_max_reference(f)
            assert ref <= bound <= ref + 2 * eta

    def test_non_finite_and_overflowing_matrices_give_inf(self):
        for n in (1, 2, 3):
            stack = np.ones((4, n, n))
            stack[0, -1, 0] = np.inf
            stack[1, 0, -1] = np.nan
            stack[2] *= 1e308  # sigma_max = n 1e308, past float range for n > 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _sigma_max_bound(stack)
            assert got[0] == np.inf and got[1] == np.inf
            assert got[2] == (1e308 if n == 1 else np.inf)
            assert n <= got[3] <= n * (1 + 1e-14)
