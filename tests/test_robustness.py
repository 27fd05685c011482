"""Tests for budget weighting, the budget families and the robustness
threshold search."""

import dataclasses
import importlib.resources
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from uncreach import (
    Box,
    CellUncertainty,
    HalfSpace,
    IntervalMatrix,
    ModelSpec,
    ThresholdReport,
    budget_weights,
    load_model,
    order_cells,
    ors_reach,
    reach_with_perturbation,
    robustness_threshold,
    safety_check,
)
from uncreach import robustness
from uncreach.engine import _check_cells, _perturbation
from uncreach.intervals import _add_outward
from uncreach.robustness import SCHEMES, _budget_cells

from test_engine import greedy, switching_trajectories


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
        w = budget_weights(((0, 0), (0, 1), (1, 0)), scores, "proportional-literal")
        assert np.array_equal(w, [2 / 9, 0.0, 7 / 9])

    def test_proportional_literal_equal_fallback(self):
        scores = np.full((2, 2), 4.0)
        w = budget_weights(((0, 0), (1, 1)), scores, "proportional-literal")
        assert np.array_equal(w, [0.5, 0.5])

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

    def test_cells_checked(self):
        # a negative index read s[1, 0], an index past the order raised
        # IndexError, a bool one numpy's "inhomogeneous shape" error, and
        # the equal scheme took each of them
        scores = np.arange(4.0).reshape(2, 2)
        for scheme in SCHEMES:
            for cell, match in (((-1, 0), r"cell \(-1,0\) out of range"),
                                ((5, 0), r"cell \(5,0\) out of range"),
                                ((True, 0), r"cell \(True,0\) indices must be integers")):
                with pytest.raises(ValueError, match=match):
                    budget_weights([cell], scores, scheme)
            with pytest.raises(ValueError, match=r"cell \(0,1\) listed twice"):
                budget_weights([(0, 1), (0, 1)], scores, scheme)


def search_family(a, cells, scores, p, scheme):
    """Lambda_p as the search builds it for budget p."""
    w = budget_weights(cells, scores, scheme)
    return _perturbation(a, _budget_cells(cells, w, p))


def contains(outer, inner):
    return bool(np.all(outer.lo <= inner.lo) and np.all(inner.hi <= outer.hi))


class TestDistribute:
    # how the search distributes a budget p over its cells: Lambda_p,
    # built by engine._perturbation from _budget_cells
    def test_zero_budget_is_point(self):
        a = np.array([[2.0, -0.0], [0.0, 4.0]])
        lam = search_family(a, ((0, 0), (1, 1)), np.zeros((2, 2)), 0.0, "equal")
        zero = IntervalMatrix.zeros(2, 2)
        assert lam.lo.tobytes() == zero.lo.tobytes()
        assert lam.hi.tobytes() == zero.hi.tobytes()

    def test_equal_worked(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        lam = search_family(a, ((0, 0), (1, 1)), np.zeros((2, 2)), 0.1, "equal")
        # radius = p * k * w * |a| with w = 1/k
        assert lam.hi[0, 0] == pytest.approx(0.2, abs=1e-15)
        assert lam.hi[1, 1] == pytest.approx(0.4, abs=1e-15)
        assert np.array_equal(lam.lo, -lam.hi)
        assert lam.hi[0, 1] == 0.0 and lam.hi[1, 0] == 0.0

    def test_harmonic_worked(self):
        a = np.eye(2)
        scores = np.array([[1.0, 0.0], [0.0, 3.0]])
        lam = search_family(a, ((0, 0), (1, 1)), scores, 0.1, "harmonic")
        assert lam.hi[0, 0] == pytest.approx(0.15, abs=1e-15)
        assert lam.hi[1, 1] == pytest.approx(0.05, abs=1e-15)

    def test_zero_entry_gets_zero_radius(self):
        a = np.array([[0.0, 1.0], [0.0, 2.0]])
        lam = search_family(a, ((0, 0), (0, 1)), np.zeros((2, 2)), 0.3, "equal")
        assert lam.lo[0, 0] == 0.0 and lam.hi[0, 0] == 0.0
        assert lam.hi[0, 1] > 0.0

    def test_budget_monotone(self):
        # the gallop marks budgets below a safe one safe without running
        # them: Lambda_p and A (+) Lambda_p lie in those of any p' > p
        rng = np.random.default_rng(146)
        for trial in range(400):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-5, 5, (n, n))
            a[rng.random((n, n)) < 0.2] = 0.0
            scores = rng.uniform(size=(n, n))
            flat = rng.choice(n * n, size=int(rng.integers(1, n * n + 1)),
                              replace=False)
            cells = tuple(divmod(int(f), n) for f in flat)
            scheme = SCHEMES[trial % len(SCHEMES)]
            p = float(rng.choice([0.0, rng.uniform(0, 2)]))
            q = float(rng.choice([np.nextafter(p, np.inf),
                                  p + rng.uniform(0, 2)]))
            small = search_family(a, cells, scores, p, scheme)
            big = search_family(a, cells, scores, q, scheme)
            assert contains(big, small), trial
            assert contains(_add_outward(a, big), _add_outward(a, small)), trial

    def test_validation(self):
        # the search judges its cells and scheme once, before any trial
        model = scalar_model()
        for cells, scheme, match in (
                (((0, 0), (0, 0)), "equal", r"cell \(0,0\) listed twice"),
                (((2, 0),), "equal", r"cell \(2,0\) out of range"),
                (((0, 0),), "max", "unknown scheme 'max'")):
            with pytest.raises(ValueError, match=match):
                robustness_threshold(model, cells, scheme)

    def test_radius_is_p_k_w_abs_a_bitwise(self):
        # the radius of cell (i, j) is ((p k) w_ij) |A[i, j]|, in this
        # order, pushed one ulp up
        rng = np.random.default_rng(70)
        a = rng.normal(size=(3, 3))
        scores = rng.uniform(size=(3, 3))
        cells = ((0, 1), (2, 2), (1, 0))
        for scheme in SCHEMES:
            for p in (0.0, 0.05, 0.3, 1.7):
                lam = search_family(a, cells, scores, p, scheme)
                want = budget_lambda(a, cells, scores, p, scheme)
                assert lam.lo.tobytes() == want.lo.tobytes()
                assert lam.hi.tobytes() == want.hi.tobytes()


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

    def test_already_unsafe_reports_the_zero_family(self):
        # budget 0's family, from the builder every trial uses: +0.0
        # everywhere, bitwise the zeros family, whatever A's entries
        rng = np.random.default_rng(92)
        for trial in range(40):
            n = int(rng.integers(1, 4))
            a = rng.choice([0.0, -0.0, 1.0, -3.5, 1e300, -1e-300], (n, n))
            model = ModelSpec(
                name="unsafe", a=a, uncertainty=(),
                initial=Box(np.ones(n), np.ones(n)), horizon=3,
                continuous=False,
                unsafe=(HalfSpace(np.eye(n)[0], 0.5),))
            flat = rng.choice(n * n, size=int(rng.integers(1, n * n + 1)),
                              replace=False)
            cells = [divmod(int(f), n) for f in flat]
            scheme = SCHEMES[trial % len(SCHEMES)]
            report = robustness_threshold(model, cells, scheme)
            zero = IntervalMatrix.zeros(n, n)
            assert report.already_unsafe and report.norm == 0.0
            assert report.safe_uncertainty.lo.tobytes() == zero.lo.tobytes()
            assert report.safe_uncertainty.hi.tobytes() == zero.hi.tobytes()

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

    def test_equal_scheme_on_repeated_top_value(self):
        # identity dynamics have a repeated top singular value: the scores
        # are computed, and the equal scheme ignores them
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

    def test_cap_must_be_an_integer(self):
        # ModelSpec's rule for horizon: 2.5 used to raise a TypeError from
        # the trace loop, and True ran as cap 1
        model = scalar_model()
        for bad in (2.5, True, np.True_, "3", None, 0, -2):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                robustness_threshold(model, ((0, 0),), cap=bad)
        want = robustness_threshold(model, ((0, 0),), cap=3)
        got = robustness_threshold(model, ((0, 0),), cap=np.int64(3))
        assert got.trace == want.trace and got.evaluated == want.evaluated

    def test_step_must_be_a_positive_real_number(self):
        # ModelSpec's rule for step: True used to run as step 1, and "0.1"
        # raised a TypeError from the comparison with 0
        model = scalar_model()
        for bad in (True, np.True_, "0.1", None, math.nan, math.inf, -math.inf,
                    0.0, -0.05):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                robustness_threshold(model, ((0, 0),), step=bad)
        want = robustness_threshold(model, ((0, 0),), step=0.25)
        for good in (np.float64(0.25), np.float32(0.25), Fraction(1, 4)):
            got = robustness_threshold(model, ((0, 0),), step=good)
            assert type(got.step) is float
            assert got.trace == want.trace and got.evaluated == want.evaluated

    def test_cell_indices_must_be_integers(self):
        # a float index used to be truncated, so (0.5, 0) analysed cell
        # (0, 0), and a bool one read as 0 or 1
        model = load_model(
            importlib.resources.files("uncreach") / "models" / "grow1d.yaml")
        for cells in ([(0.5, 0)], [(True, False)], [(0, np.float64(0.0))]):
            with pytest.raises(ValueError, match="integers"):
                robustness_threshold(model, cells, step=0.05)
        report = robustness_threshold(model, [(np.int64(0), np.int32(0))],
                                      step=0.05)
        assert report.cells == ((0, 0),)
        assert all(type(v) is int for v in report.cells[0])
        assert report.final_budget == 0.1


def budget_lambda(a, cells, scores, p, scheme):
    """Lambda_p by its rule: cell (i, j) gets [-r, r], r = ((p k) w_ij)
    |A[i, j]| pushed one ulp up where p k w_ij and A[i, j] are nonzero;
    every other entry is +0.0."""
    lo, hi = np.zeros(a.shape), np.zeros(a.shape)
    for (i, j), wi in zip(cells, budget_weights(cells, scores, scheme)):
        rho = p * len(cells) * wi
        r = rho * abs(a[i, j])
        if rho and a[i, j]:
            r = math.nextafter(r, math.inf)
        lo[i, j], hi[i, j] = -r if r else 0.0, r
    return IntervalMatrix(lo, hi)


def shipped(name):
    return load_model(
        importlib.resources.files("uncreach") / "models" / f"{name}.yaml")


def contraction_certified(model: ModelSpec, pert: IntervalMatrix) -> bool:
    """The certificate a search tries before a trial's flowpipe: a
    continuous model whose family A (+) Lambda has a logarithmic norm
    bound <= 0 and whose ball max ||Theta|| misses every unsafe set."""
    return (model.continuous and robustness._ball_misses_unsafe(model)
            and _add_outward(model.a, pert).log_norm_sup() <= 0.0)


def scan_threshold(model: ModelSpec, cells, scheme: str = "equal",
                   step: float = 0.05, cap: int = 200) -> ThresholdReport:
    """The linear scan robustness_threshold replaced, as its reference:
    one trial per grid budget, from 0 up to the first unsafe one, each
    safe by the contraction certificate or else by a full flowpipe."""
    if step <= 0 or not math.isfinite(step):
        raise ValueError("step must be positive")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    cells = _check_cells(cells, model.dim)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    scores = order_cells(model.a).scores
    trace: list[tuple[float, bool]] = []
    prev_pert = IntervalMatrix.zeros(model.dim, model.dim)
    prev_p = 0.0
    for i in range(cap):
        p = i * step
        pert = budget_lambda(model.a, cells, scores, p, scheme)
        safe = contraction_certified(model, pert) or safety_check(
            reach_with_perturbation(model, pert), model.unsafe).safe
        trace.append((p, safe))
        if not safe:
            break
        prev_pert = pert
        prev_p = p
    return ThresholdReport(
        scheme=scheme, cells=cells, step=step, final_budget=prev_p,
        norm=prev_pert.frobenius_sup(), iterations=len(trace),
        trace=tuple(trace), safe_uncertainty=prev_pert,
        already_unsafe=not trace[0][1], cap_reached=trace[-1][1],
    )


def random_search_case(rng, reduction):
    """A random model with n <= 4, discrete or continuous, a few uncertain
    cells and one unsafe half-space placed from just below to well above
    the nominal flowpipe's largest support; and a scheme, step and cap."""
    n = int(rng.integers(1, 5))
    a = rng.uniform(-1, 1, (n, n))
    continuous = bool(rng.random() < 0.5)
    if not continuous:
        a /= 1.05 * max(1.0, float(np.max(np.abs(np.linalg.eigvals(a)))))
    flat = rng.choice(n * n, size=int(rng.integers(1, min(3, n * n) + 1)),
                      replace=False)
    cells = [(int(f) // n, int(f) % n) for f in flat]
    lo = rng.uniform(-1, 1, n)
    model = ModelSpec(
        name="random", a=a, uncertainty=(),
        initial=Box(lo, lo + rng.uniform(0, 0.5, n)),
        horizon=int(rng.integers(5, 30)), continuous=continuous,
        step=0.1 if continuous else None,
        unsafe=(HalfSpace(rng.normal(size=n), 0.0),),
        reduction_method=reduction, reduction_period=int(rng.integers(1, 12)))
    top = float(ors_reach(model).supports.max())
    margin = float(rng.choice([-0.1, 0.005, 0.02, 0.05, 0.1, 0.3, 2.0]))
    model = dataclasses.replace(model, unsafe=(
        HalfSpace(model.unsafe[0].normal, top + margin * (abs(top) + 0.1)),))
    scheme = SCHEMES[int(rng.integers(len(SCHEMES)))]
    step = float(rng.choice([0.002, 0.01, 0.05, 0.2]))
    cap = int(rng.choice([1, 2, 3, 7, 16, 40, 100, 100]))
    return model, cells, scheme, step, cap


FIELDS = ("scheme", "cells", "step", "final_budget", "norm", "iterations",
          "trace", "already_unsafe", "cap_reached")


class TestSearchAgainstScan:
    @pytest.mark.parametrize("reduction", ["none", "interval"])
    def test_matches_brute_force_scan(self, reduction):
        rng = np.random.default_rng(160 + len(reduction))
        seen = set()
        for trial in range(60):
            model, cells, scheme, step, cap = random_search_case(rng, reduction)
            want = scan_threshold(model, cells, scheme, step, cap)
            got = robustness_threshold(model, cells, scheme, step, cap)
            for name in FIELDS:
                assert getattr(got, name) == getattr(want, name), (trial, name)
            for bound in ("lo", "hi"):
                assert np.array_equal(getattr(got.safe_uncertainty, bound),
                                      getattr(want.safe_uncertainty, bound))
            assert len(got.evaluated) <= want.iterations + want.already_unsafe
            assert got.evaluated and set(got.evaluated) <= {
                i * step for i in range(cap)}
            seen.add("already unsafe" if want.already_unsafe else
                     "cap reached" if want.cap_reached else "bracketed")
            seen.add(("continuous" if model.continuous else "discrete", scheme))
        assert {"already unsafe", "cap reached", "bracketed"} <= seen
        assert {(kind, scheme) for kind in ("continuous", "discrete")
                for scheme in SCHEMES} <= seen

    def test_zonotope_reduction_certifies_its_budget(self):
        # zonotope reduction need not be monotone in the budget: the search
        # only promises a proven-safe final budget, bracketed by an
        # evaluated unsafe one
        rng = np.random.default_rng(163)
        for trial in range(30):
            model, cells, scheme, step, cap = random_search_case(rng, "zonotope")
            got = robustness_threshold(model, cells, scheme, step, cap)
            if not got.already_unsafe:
                own = reach_with_perturbation(model, got.safe_uncertainty)
                assert safety_check(own, model.unsafe).safe, trial
            if not got.cap_reached:
                budget = got.trace[-1][0]
                assert budget in got.evaluated
                pert = budget_lambda(model.a, cells,
                                     order_cells(model.a).scores, budget, scheme)
                assert not safety_check(reach_with_perturbation(model, pert),
                                        model.unsafe).safe, trial

    def test_shipped_searches_gallop(self):
        # the benchmark's two searches and acc4 at the finer step: the
        # budgets a scan certifies, from a few trials each; girad1's are
        # certified by contraction but for the unsafe 0.4
        for name, cells, scheme, step, final, runs, contracted in (
                ("girad1", [(0, 0), (1, 0)], "equal", 0.05, 7 * 0.05,
                 (1, 2, 4, 8, 6, 7), (1, 2, 4, 6, 7)),
                ("acc4", [(0, 0), (2, 3)], "proportional", 0.8, 1.6,
                 (1, 2, 4, 3), ()),
                ("acc4", [(0, 0), (2, 3)], "equal", 0.05, 1.2000000000000002,
                 (1, 2, 4, 8, 16, 32, 24, 28, 26, 25), ())):
            report = robustness_threshold(shipped(name), cells, scheme, step)
            assert report.final_budget == final
            assert report.evaluated == tuple(i * step for i in runs)
            assert report.contracted == tuple(i * step for i in contracted)

    def test_girad1_score_schemes(self):
        # girad1's sigma_1 is repeated, and the score schemes run on it:
        # each certifies the budget a scan with the same trials certifies,
        # where mu(A (+) Lambda_p) = -1 + c p turns positive (c = 2.56 for
        # the equal share) or past it by a flowpipe
        model = shipped("girad1")
        for scheme, least in (("equal", 0.35), ("harmonic", 0.5),
                              ("proportional", 0.45),
                              ("proportional-literal", 0.2)):
            got = robustness_threshold(model, [(0, 0), (1, 0)], scheme, 0.05)
            want = scan_threshold(model, [(0, 0), (1, 0)], scheme, 0.05)
            assert got.final_budget >= least - 1e-12, scheme
            assert got.trace == want.trace, scheme
        assert robustness_threshold(model, [(0, 0), (1, 0)]).final_budget == 7 * 0.05

    def test_safe_trials_end_at_an_invariant_box(self, monkeypatch):
        # girad1's one flowpipe, at the unsafe 0.4, ends with its violating
        # segment.  With the unsafe set moved to x1 >= 1.102, inside the
        # ball max ||Theta|| = 1.1045, no trial takes the certificate: the
        # safe ones stop at step 1000, whose hull lies in the hull at step
        # 500, and the report is the scan's
        runs = []

        def recording(*args, **kwargs):
            res = reach_with_perturbation(*args, **kwargs)
            runs.append((len(res), res.invariant))
            return res

        monkeypatch.setattr(robustness, "reach_with_perturbation", recording)
        model = shipped("girad1")
        report = robustness_threshold(model, [(0, 0), (1, 0)], "equal", 0.05)
        assert report.final_budget == 7 * 0.05
        assert runs == [(500, None)]
        runs.clear()
        near = dataclasses.replace(
            model, unsafe=(HalfSpace(np.array([1.0, 0.0]), 1.102),))
        report = robustness_threshold(near, [(0, 0), (1, 0)], "equal", 0.05)
        want = scan_threshold(near, [(0, 0), (1, 0)], "equal", 0.05)
        assert report.final_budget == 0.25 and report.trace == want.trace
        assert report.evaluated == tuple(i * 0.05 for i in (1, 2, 4, 8, 6, 5))
        assert report.contracted == ()
        assert runs == [(1000, (500, 1000))] * 3 + [
            (500, None), (1500, None), (1000, (500, 1000))]


def rotation_model():
    """x' = [[0, 1], [-1, 0]] x: mu(A) = 0, and 0.1% on cell (0, 1) gives
    members with mu = |e| / 2 > 0.  Unsafe x2 >= 1.5, past the ball
    max ||Theta|| = 1.001 (README's grid-time example has x2 >= 0.95)."""
    return ModelSpec(
        name="rotation", a=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        uncertainty=(CellUncertainty(0, 1, relative=0.001),),
        initial=Box(np.array([0.999, -0.001]), np.array([1.001, 0.001])),
        horizon=6, step=2 * math.pi / 3,
        unsafe=(HalfSpace(np.array([0.0, 1.0]), 1.5),))


class TestContractionCertificate:
    def test_ball_check(self):
        # max ||Theta|| = sqrt(1.1^2 + 0.1^2) = 1.1045 for girad1; the
        # check is strict and covers its rounding
        model = shipped("girad1")
        assert robustness._ball_misses_unsafe(model)
        for offset, misses in ((1.104, False), (1.105, True), (-3.0, False)):
            moved = dataclasses.replace(
                model, unsafe=(HalfSpace(np.array([1.0, 0.0]), offset),))
            assert robustness._ball_misses_unsafe(moved) == misses, offset
        point = dataclasses.replace(
            model, initial=Box(np.array([3.0, 4.0]), np.array([3.0, 4.0])),
            unsafe=(HalfSpace(np.array([0.0, 2.0]), 10.0),))
        assert not robustness._ball_misses_unsafe(point)
        assert robustness._ball_misses_unsafe(dataclasses.replace(
            point, unsafe=(HalfSpace(np.array([0.0, 2.0]), 10.0 + 1e-12),)))
        assert robustness._ball_misses_unsafe(dataclasses.replace(point, unsafe=()))

    def test_girad1_members_stay_in_the_ball(self):
        # girad1's benchmark cells under the equal scheme at 0.35: from each
        # corner of Theta, every constant vertex member and greedy
        # switching, at 20 points per step of 0.01 over t <= 3, stay in
        # ||x|| <= max ||Theta||; at 0.6 greedy switching leaves it
        model = shipped("girad1")
        radius = model.initial.max_norm()
        for budget, inside in ((0.35, True), (0.6, False)):
            spec = dataclasses.replace(
                model, step=model.step / 20, horizon=20 * 300,
                uncertainty=tuple(CellUncertainty(i, j, relative=budget)
                                  for i, j in ((0, 0), (1, 0))))
            assert contraction_certified(spec, spec.perturbation()) == inside
            members = [greedy] if not inside else [greedy] + [
                lambda gain, m=m: np.full(gain.shape[1], m) for m in range(4)]
            for choose in members:
                peak = max(float(np.linalg.norm(x, axis=0).max())
                           for x in switching_trajectories(spec, choose))
                assert (peak <= radius * (1 + 1e-15)) == inside, budget

    def test_models_that_do_not_contract_get_no_certificate(self, monkeypatch):
        # acc4 (a defective eigenvalue 0), twocell (eigenvalues 1 and 2)
        # and the rotation example: the point family A fails once per
        # search, and no trial takes the certificate
        calls = []
        original = IntervalMatrix.log_norm_sup

        def counted(self):
            calls.append(original(self))
            return calls[-1]

        monkeypatch.setattr(IntervalMatrix, "log_norm_sup", counted)
        rotation = rotation_model()
        family = _add_outward(rotation.a, rotation.perturbation())
        assert original(family) > 0.0
        for model, cells, scheme, step in (
                (shipped("acc4"), [(0, 0), (2, 3)], "proportional", 0.8),
                (shipped("acc4"), [(0, 0), (2, 3)], "equal", 0.05),
                (shipped("twocell"), [(0, 0), (1, 1)], "harmonic", 0.02),
                (rotation, [(0, 1)], "equal", 0.0005)):
            calls.clear()
            report = robustness_threshold(model, cells, scheme, step, cap=40)
            assert report.contracted == (), model.name
            assert len(calls) == 1 and calls[0] > 0.0, (model.name, calls)
        calls.clear()
        robustness_threshold(shipped("grow1d"), [(0, 0)])
        assert calls == []

    def test_girad1_certifies_with_one_flowpipe(self, monkeypatch):
        # the benchmark's girad1 search: 0.35 and every budget below it
        # proven without a flowpipe, one flowpipe at the unsafe 0.4
        runs = []

        def counted(*args, **kwargs):
            runs.append(args[1])
            return reach_with_perturbation(*args, **kwargs)

        monkeypatch.setattr(robustness, "reach_with_perturbation", counted)
        model = shipped("girad1")
        report = robustness_threshold(model, [(0, 0), (1, 0)], "equal", 0.05)
        assert report.final_budget >= 0.35 and not report.cap_reached
        assert len(runs) == 1
        assert report.trace[-1] == (8 * 0.05, False)
        assert set(report.contracted) == set(report.evaluated) - {8 * 0.05}

    def test_acc4_report_is_unchanged(self):
        # the benchmark's acc4 search, field by field as before the
        # certificate, with an empty contracted
        report = robustness_threshold(shipped("acc4"), [(0, 0), (2, 3)],
                                      "proportional", 0.8)
        assert (report.scheme, report.cells, report.step) == (
            "proportional", ((0, 0), (2, 3)), 0.8)
        assert report.final_budget == 1.6 and report.norm == 2.198989666996086
        assert report.iterations == 4
        assert report.trace == ((0.0, True), (0.8, True), (1.6, True),
                                (2.4000000000000004, False))
        assert not report.already_unsafe and not report.cap_reached
        assert report.evaluated == (0.8, 1.6, 3.2, 2.4000000000000004)
        assert report.contracted == ()
        corner = np.zeros((4, 4))
        corner[0, 0], corner[2, 3] = 0.5333333333333334, 2.1333333333333337
        assert report.safe_uncertainty.hi.tobytes() == corner.tobytes()
        assert report.safe_uncertainty.lo.tobytes() == (0.0 - corner).tobytes()


class TestTrialsThatOverflow:
    @pytest.mark.parametrize("step", [50.0, 5000.0])
    def test_overflow_and_divergence_are_unsafe(self, step):
        # at budget 50 the flowpipe overflows, and at 5000 interval_expm
        # scales and squares a one-step family 1e22 wide, whose flowpipe
        # overflows by step 15: both trials are "not proven safe", so
        # budget 0 (which is safe) is the answer
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = robustness_threshold(shipped("girad1"), [(0, 0), (1, 1)],
                                          step=step)
        assert report.final_budget == 0.0
        assert report.trace == ((0.0, True), (step, False))
        assert report.evaluated == (step, 0.0)
        assert not report.already_unsafe and not report.cap_reached

    @pytest.mark.parametrize("scheme", ["equal", "harmonic"])
    def test_budget_beyond_float_range_is_unsafe(self, scheme):
        # the cell's A entry is 0, so every finite budget is safe; grid
        # budget 2 * 1e308 overflows to inf (and its share with it), which
        # has no family: that probe is unsafe without a flowpipe
        model = ModelSpec(
            name="diag", a=np.diag([-1.0, -1.0]),
            uncertainty=(CellUncertainty(0, 1, relative=0.1),),
            initial=Box(np.array([0.9, 0.9]), np.array([1.1, 1.1])),
            horizon=20, step=0.1,
            unsafe=(HalfSpace(np.array([1.0, 0.0]), 5.0),))
        report = robustness_threshold(model, [(0, 1)], scheme=scheme,
                                      step=1e308, cap=3)
        assert report.final_budget == 1e308
        assert report.trace == ((0.0, True), (1e308, True), (math.inf, False))
        assert report.evaluated == (1e308,)
        assert not report.already_unsafe and not report.cap_reached
        assert np.array_equal(report.safe_uncertainty.lo, np.zeros((2, 2)))

    def test_share_beyond_float_range_is_unsafe(self):
        # two equal cells: the budget 1e308 is finite, but its share
        # p k w = 1e308 * 2 * 0.5 overflows at p k
        model = ModelSpec(
            name="diag", a=np.diag([-1.0, -1.0]),
            uncertainty=(), initial=Box(np.array([0.9, 0.9]), np.array([1.1, 1.1])),
            horizon=20, step=0.1,
            unsafe=(HalfSpace(np.array([1.0, 0.0]), 5.0),))
        report = robustness_threshold(model, [(0, 1), (1, 0)], step=1e308, cap=3)
        assert report.final_budget == 0.0
        assert report.trace == ((0.0, True), (1e308, False))
        assert report.evaluated == (0.0,)


class TestGallopCounts:
    def test_index_zero_runs_only_when_index_one_fails(self):
        for offset, evaluated in ((1.25, (0.05, 0.1, 0.2, 0.15)),
                                  (1.02, (0.05, 0.0)), (0.5, (0.05, 0.0))):
            report = robustness_threshold(scalar_model(offset=offset),
                                          ((0, 0),), step=0.05)
            assert report.evaluated == pytest.approx(evaluated, abs=1e-15)

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 6, 9, 200])
    def test_cap_bounds_the_grid(self, cap):
        # never unsafe: every probe up to index cap - 1 is safe
        model = ModelSpec(
            name="decay", a=np.array([[0.1]]), uncertainty=(),
            initial=Box(np.array([1.0]), np.array([1.0])),
            horizon=3, continuous=False,
            unsafe=(HalfSpace(np.array([1.0]), 100.0),))
        report = robustness_threshold(model, ((0, 0),), step=0.05, cap=cap)
        probes = sorted({min(2 ** e, cap - 1) for e in range(10)})
        assert report.cap_reached and report.iterations == cap
        assert report.evaluated == tuple(i * 0.05 for i in probes)
