"""Tests for budget weighting, distribution and the robustness threshold search."""

import numpy as np
import pytest

from uncreach import (
    Box,
    CellUncertainty,
    HalfSpace,
    ModelSpec,
    budget_weights,
    distribute,
    ors_reach,
    robustness_threshold,
    safety_check,
)
from uncreach.robustness import SCHEMES


def scalar_model(horizon=2, offset=1.25, cap_entry=1.0):
    return ModelSpec(
        name="scalar",
        a=np.array([[cap_entry]]),
        uncertainty=(),
        initial=Box(np.array([1.0]), np.array([1.0])),
        horizon=horizon,
        continuous=False,
        unsafe=(HalfSpace(np.array([1.0]), offset),),
    )


class TestBudgetWeights:
    def test_equal(self):
        w = budget_weights(((0, 0), (0, 1), (1, 1)), np.zeros((2, 2)), "equal")
        assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3])

    def test_harmonic_worked(self):
        scores = np.array([[1.0, 0.0], [0.0, 3.0]])
        w = budget_weights(((0, 0), (1, 1)), scores, "harmonic")
        assert np.allclose(w, [0.75, 0.25], atol=1e-15)

    def test_harmonic_floors_zero_scores(self):
        scores = np.array([[0.0, 2.0], [0.0, 0.0]])
        w = budget_weights(((0, 0), (0, 1)), scores, "harmonic")
        # the zero-score cell takes essentially the whole budget
        assert w[0] > 0.999999
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_proportional_inverse_rank(self):
        scores = np.array([[5.0, 2.0], [9.0, 0.0]])
        w = budget_weights(((0, 0), (0, 1), (1, 0)), scores, "proportional")
        # ranks: 9 first, 5 second, 2 third -> weights 1:2:3 over cells
        assert np.allclose(w, [2 / 6, 3 / 6, 1 / 6], atol=1e-15)

    def test_proportional_literal_sum_of_smaller(self):
        scores = np.array([[5.0, 2.0], [9.0, 0.0]])
        w = budget_weights(((0, 0), (0, 1), (1, 0)), scores, "proportional",
                           proportional_literal=True)
        assert np.allclose(w, [2 / 9, 0.0, 7 / 9], atol=1e-15)

    def test_proportional_literal_equal_fallback(self):
        scores = np.full((2, 2), 4.0)
        w = budget_weights(((0, 0), (1, 1)), scores, "proportional",
                           proportional_literal=True)
        assert np.allclose(w, [0.5, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(44)
        for scheme in SCHEMES:
            for _ in range(20):
                n = int(rng.integers(2, 5))
                scores = rng.uniform(0, 5, (n, n))
                k = int(rng.integers(1, n * n + 1))
                flat = rng.choice(n * n, size=k, replace=False)
                cells = tuple((int(f) // n, int(f) % n) for f in flat)
                w = budget_weights(cells, scores, scheme)
                assert w.shape == (k,)
                assert np.all(w >= 0)
                assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            budget_weights((), np.zeros((2, 2)), "equal")
        with pytest.raises(ValueError):
            budget_weights(((0, 0),), np.zeros((2, 2)), "max")


class TestDistribute:
    def test_zero_budget_is_point(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        lam = distribute(a, ((0, 0), (1, 1)), np.zeros((2, 2)), 0.0, "equal")
        assert lam.is_point()
        assert np.array_equal(lam.center, a)

    def test_equal_worked(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        lam = distribute(a, ((0, 0), (1, 1)), np.zeros((2, 2)), 0.1, "equal")
        # radius = p * k * w * |a| with w = 1/k
        assert lam.radius[0, 0] == pytest.approx(0.2, abs=1e-15)
        assert lam.radius[1, 1] == pytest.approx(0.4, abs=1e-15)
        assert lam.radius[0, 1] == 0.0 and lam.radius[1, 0] == 0.0

    def test_harmonic_worked(self):
        a = np.eye(2)
        scores = np.array([[1.0, 0.0], [0.0, 3.0]])
        lam = distribute(a, ((0, 0), (1, 1)), scores, 0.1, "harmonic")
        assert lam.radius[0, 0] == pytest.approx(0.15, abs=1e-15)
        assert lam.radius[1, 1] == pytest.approx(0.05, abs=1e-15)

    def test_zero_entry_gets_zero_radius(self):
        a = np.array([[0.0, 1.0], [0.0, 2.0]])
        lam = distribute(a, ((0, 0), (0, 1)), np.zeros((2, 2)), 0.3, "equal")
        assert lam.radius[0, 0] == 0.0
        assert lam.radius[0, 1] > 0.0

    def test_budget_monotone(self):
        a = np.array([[2.0, -1.0], [0.5, 4.0]])
        cells = ((0, 0), (1, 0))
        small = distribute(a, cells, np.zeros((2, 2)), 0.05, "equal")
        big = distribute(a, cells, np.zeros((2, 2)), 0.2, "equal")
        assert np.all(big.radius >= small.radius)
        assert np.all(big.lo <= small.lo) and np.all(big.hi >= small.hi)

    def test_validation(self):
        a = np.eye(2)
        with pytest.raises(ValueError):
            distribute(a, ((0, 0),), np.zeros((2, 2)), -0.1, "equal")
        with pytest.raises(ValueError):
            distribute(a, ((0, 0), (0, 0)), np.zeros((2, 2)), 0.1, "equal")
        with pytest.raises(ValueError):
            distribute(a, ((2, 0),), np.zeros((2, 2)), 0.1, "equal")


class TestRobustnessThreshold:
    def test_scalar_worked_example(self):
        report = robustness_threshold(scalar_model(), ((0, 0),), scheme="equal",
                                      step=0.05)
        assert report.final_budget == pytest.approx(0.1, abs=1e-15)
        assert abs(report.norm - 0.1) < 1e-12
        assert report.iterations == 4
        assert not report.already_unsafe and not report.cap_reached
        budgets = [b for b, _ in report.trace]
        safes = [s for _, s in report.trace]
        assert budgets == pytest.approx([0.0, 0.05, 0.1, 0.15], abs=1e-12)
        assert safes == [True, True, True, False]
        # the reported family is the perturbation part, centered at zero
        lam = report.safe_uncertainty
        assert lam.lo[0, 0] == pytest.approx(-0.1, abs=1e-12)
        assert lam.hi[0, 0] == pytest.approx(0.1, abs=1e-12)

    def test_reported_family_is_safe(self):
        model = scalar_model()
        report = robustness_threshold(model, ((0, 0),), step=0.05)
        entry = float(model.a[0, 0])
        safe_model = ModelSpec(
            name="safe", a=model.a,
            uncertainty=(CellUncertainty(0, 0, interval=(
                entry + float(report.safe_uncertainty.lo[0, 0]),
                entry + float(report.safe_uncertainty.hi[0, 0]))),),
            initial=model.initial, horizon=model.horizon,
            continuous=False, unsafe=model.unsafe)
        assert safety_check(ors_reach(safe_model), model.unsafe).safe

    def test_already_unsafe(self):
        report = robustness_threshold(scalar_model(offset=0.5), ((0, 0),))
        assert report.already_unsafe
        assert report.final_budget == 0.0
        assert report.norm == 0.0
        assert report.iterations == 1
        assert report.trace == ((0.0, False),)
        assert report.safe_uncertainty.is_point()
        assert np.all(report.safe_uncertainty.lo == 0.0)

    def test_cap_reached(self):
        # decaying scalar system never becomes unsafe at these budgets
        model = ModelSpec(
            name="decay", a=np.array([[0.1]]), uncertainty=(),
            initial=Box(np.array([1.0]), np.array([1.0])),
            horizon=3, continuous=False,
            unsafe=(HalfSpace(np.array([1.0]), 100.0),))
        report = robustness_threshold(model, ((0, 0),), step=0.05, cap=5)
        assert report.cap_reached
        assert report.iterations == 5
        assert report.final_budget == pytest.approx(0.2, abs=1e-12)

    def test_norm_is_monotone_in_trace(self):
        model = scalar_model(offset=3.0, horizon=4)
        report = robustness_threshold(model, ((0, 0),), step=0.1, cap=30)
        budgets = [b for b, _ in report.trace]
        assert budgets == sorted(budgets)

    def test_deterministic(self):
        model = scalar_model()
        r1 = robustness_threshold(model, ((0, 0),), step=0.05)
        r2 = robustness_threshold(model, ((0, 0),), step=0.05)
        assert r1.final_budget == r2.final_budget
        assert r1.norm == r2.norm
        assert r1.trace == r2.trace

    def test_equal_scheme_skips_svd(self):
        # identity dynamics have a degenerate top singular value, but the
        # equal scheme never looks at the scores
        model = ModelSpec(
            name="eye", a=np.eye(2), uncertainty=(),
            initial=Box(np.zeros(2), np.ones(2)),
            horizon=2, continuous=False,
            unsafe=(HalfSpace(np.array([1.0, 0.0]), 5.0),))
        report = robustness_threshold(model, ((0, 0), (1, 1)), scheme="equal",
                                      step=0.5, cap=10)
        assert report.iterations >= 1

    def test_validation(self):
        model = scalar_model()
        with pytest.raises(ValueError):
            robustness_threshold(model, ())
        with pytest.raises(ValueError):
            robustness_threshold(model, ((0, 0),), scheme="max")
        with pytest.raises(ValueError):
            robustness_threshold(model, ((0, 0),), step=0.0)
        with pytest.raises(ValueError):
            robustness_threshold(model, ((0, 0),), cap=0)
        with pytest.raises(ValueError):
            robustness_threshold(model, ((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            robustness_threshold(model, ((3, 0),))
