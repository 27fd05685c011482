"""Tests for the closed-form bloating factors and the symbolic reach pipeline."""

import importlib.resources
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from uncreach import (
    Box,
    DefectiveMatrix,
    DimensionMismatch,
    DimensionTooLarge,
    HalfSpace,
    IntervalMatrix,
    bloat_factor,
    bloat_series,
    interval_norm,
    kagstrom1,
    kagstrom2,
    linear_map,
    load_model,
    loan,
    p_poly,
    safety_check,
    spectral_data,
    symbolic_reach,
)
from uncreach._expm import expm
from uncreach._kernels import box_core
from uncreach.bounds import BLOAT_METHODS, NORM_KINDS

GIRAD_A = np.array([[-1.0, -4.0], [4.0, -1.0]])
TWOCELL_A = np.array([[1.0, -1.0], [0.0, 2.0]])
TWOCELL_FRO_NORM = 2.449489742783178       # sqrt(6)


def random_interval_matrix(rng, n, scale=0.3):
    return IntervalMatrix.from_center_radius(
        rng.uniform(-0.5, 0.5, (n, n)), rng.uniform(0, scale, (n, n)))


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

    def test_cond_max_is_configurable(self):
        a = np.array([[1.0, 5.0], [0.0, 1.1]])
        sd = spectral_data(a)
        assert sd.cond_s > 10.0
        with pytest.raises(DefectiveMatrix):
            kagstrom2(a, 0.1, 1.0, cond_max=sd.cond_s / 2)
        assert kagstrom2(a, 0.1, 1.0, cond_max=sd.cond_s * 2) > 0.0


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
        for method in BLOAT_METHODS:
            direct = {"kagstrom1": kagstrom1, "kagstrom2": kagstrom2, "loan": loan}[method]
            assert bloat_factor(GIRAD_A, 0.1, 0.5, method) == direct(GIRAD_A, 0.1, 0.5)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            bloat_factor(GIRAD_A, 0.1, 0.5, "tight")


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
            got = bloat_factor(GIRAD_A, 0.08, times, method)
            assert isinstance(got, np.ndarray) and got.shape == times.shape
            ref = [bloat_factor(GIRAD_A, 0.08, float(t), method) for t in times]
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
                out.phi, bloat_factor(GIRAD_A, out.lambda_norm, times, method))

    def test_rejects_negative_times_in_array(self):
        for method in BLOAT_METHODS:
            with pytest.raises(ValueError):
                bloat_factor(GIRAD_A, 0.1, np.array([0.0, -1.0]), method)


class TestIntervalNorm:
    def test_kinds(self):
        lam = IntervalMatrix(np.array([[1.0, -1.1], [0.0, 2.0]]),
                             np.array([[1.0, -0.9], [0.0, 2.0]]))
        assert interval_norm(lam, "frobenius") == lam.frobenius_sup()
        assert interval_norm(lam, "two") == lam.two_norm_sup()
        with pytest.raises(ValueError):
            interval_norm(lam, "one")
        with pytest.raises(DimensionTooLarge):
            interval_norm(IntervalMatrix.zeros(9, 9), "two")


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
        for method in BLOAT_METHODS:
            in_t = [bloat_factor(GIRAD_A, 0.1, t, method) for t in times]
            assert all(b >= a - 1e-12 for a, b in zip(in_t, in_t[1:]))
            in_norm = [bloat_factor(GIRAD_A, v, 1.0, method) for v in norms]
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
            for kind in NORM_KINDS:
                out = bloat_series(GIRAD_A, lam, times, method, norm_kind=kind)
                assert out.phi.shape == (201,)
                assert out.phi[0] == 0.0
                assert np.all(np.diff(out.phi) >= -1e-12)
                # spot-check the pointwise formula on a few grid points
                for idx in (1, 100, 200):
                    ref = bloat_factor(GIRAD_A, out.lambda_norm, times[idx], method)
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


class TestSymbolicReach:
    def test_zero_family_keeps_nominal(self):
        theta = Box(np.array([0.9, -0.1]), np.array([1.1, 0.1]))
        res = symbolic_reach(GIRAD_A, IntervalMatrix.zeros(2, 2), theta,
                             np.linspace(0, 1, 11), method="kagstrom1")
        assert res.kind == "symbolic"
        assert np.all(res.radii == 0.0)
        assert np.all(res.phi == 0.0)

    def test_time_zero_returns_initial_box(self):
        theta = Box(np.array([0.9, -0.1]), np.array([1.1, 0.1]))
        lam = IntervalMatrix.from_center_radius(np.zeros((2, 2)), np.full((2, 2), 0.01))
        res = symbolic_reach(GIRAD_A, lam, theta, np.array([0.0]), method="loan")
        assert res.radii[0] == 0.0
        assert np.allclose(res.boxes[0].lo, theta.lo)
        assert np.allclose(res.boxes[0].hi, theta.hi)

    def test_scalar_worked_example(self):
        theta = Box(np.array([1.0]), np.array([1.0]))
        lam = IntervalMatrix(np.array([[-1.0]]), np.array([[1.0]]))
        res = symbolic_reach(np.array([[0.0]]), lam, theta,
                             np.array([0.0, 1.0]), method="loan")
        # the nominal set at t = 1 is exp(0) Theta, anchored at E 0 = 0
        assert res.stars is None
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
        # route was first written, on nonuniform grids with repeats; the
        # package's expm called one point at a time (its accuracy is
        # checked against mpmath in test_expm.py)
        rng = np.random.default_rng(2024)
        compared = 0
        for _ in range(30):
            n = int(rng.integers(1, 6))
            a = rng.uniform(-1, 1, (n, n))
            lam = random_interval_matrix(rng, n, scale=0.05)
            lo = rng.uniform(-1, 1, n)
            theta = Box(lo, lo + rng.uniform(0, 1, n))
            times = ragged_grid(rng, count=25)
            for method in BLOAT_METHODS:
                if method == "kagstrom2" and spectral_data(a).cond_s > 1e8:
                    continue
                res = symbolic_reach(a, lam, theta, times, method=method)
                phi = bloat_series(a, lam, times, method).phi
                assert np.array_equal(res.phi, phi)
                ref_lo, ref_hi, ref_radii = [], [], []
                for idx, t in enumerate(times):
                    ea = expm(a * t)
                    nominal = linear_map(ea, theta.to_star())
                    nlo, nhi = box_core(nominal.anchor, nominal.generators,
                                        nominal.coeff_lo, nominal.coeff_hi)
                    delta = phi[idx] * np.linalg.norm(ea, 2) * theta.max_norm()
                    ref_radii.append(delta)
                    ref_lo.append(nlo - delta)
                    ref_hi.append(nhi + delta)
                    np.testing.assert_allclose(res.flows[idx], ea, rtol=1e-13,
                                               atol=1e-15)
                # kagstrom1 can leave float range on the later points:
                # those radii must be inf on both sides
                ref_radii = np.array(ref_radii)
                over = np.isinf(ref_radii)
                assert np.array_equal(np.isinf(res.radii), over)
                assert np.all(np.abs(res.radii[~over] - ref_radii[~over])
                              <= 4 * np.spacing(ref_radii[~over]))
                scale = 1e-13 * np.max(np.abs(np.array(ref_hi)[~over]))
                np.testing.assert_allclose(res.lo, ref_lo, rtol=1e-13, atol=scale)
                np.testing.assert_allclose(res.hi, ref_hi, rtol=1e-13, atol=scale)
                assert np.array_equal(res.gen_counts, np.full(times.shape, n))
                compared += 1
        assert compared >= 80

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

    def test_flow_overflow_gives_unbounded_steps(self):
        # exp(2t) leaves float range near t = 355 on this unstable matrix
        theta = Box(np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        lam = IntervalMatrix.from_center_radius(np.zeros((2, 2)),
                                                np.full((2, 2), 1e-3))
        times = np.array([0.0, 1.0, 100.0, 400.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = symbolic_reach(TWOCELL_A, lam, theta, times, method="loan")
            verdict = safety_check(res, (HalfSpace(np.array([0.0, 1.0]), 1e300),))
        assert np.all(np.isfinite(res.radii[:2]))
        assert np.all(res.radii[3:] == np.inf)
        assert np.all(res.lo[3:] == -np.inf) and np.all(res.hi[3:] == np.inf)
        assert not verdict.safe and verdict.step == 3
        # phi = 0 times an overflowed norm is unbounded too, not NaN
        nominal = symbolic_reach(TWOCELL_A, IntervalMatrix.zeros(2, 2), theta,
                                 times, method="loan")
        assert np.array_equal(nominal.radii, [0.0, 0.0, 0.0, np.inf, np.inf])
        assert np.all(nominal.hi[3:] == np.inf)

    def test_rejects_infinite_initial_box(self):
        theta = Box(np.array([0.0, -np.inf]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            symbolic_reach(GIRAD_A, IntervalMatrix.zeros(2, 2), theta,
                           np.array([0.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            symbolic_reach(GIRAD_A, IntervalMatrix.zeros(2, 2),
                           Box(np.zeros(1), np.ones(1)), np.array([0.0, 1.0]))
