"""Tests for discretization, the uncertain reach recurrence and safety checks."""

import dataclasses
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
    CellUncertainty,
    DimensionMismatch,
    HalfSpace,
    IntervalMatrix,
    ModelSpec,
    discretize,
    load_model,
    nominal_reach,
    ors_reach,
    reach_with_perturbation,
    robustness_threshold,
    safety_check,
    symbolic_reach,
)
from uncreach import bounds, engine, intervals
from uncreach.engine import (
    _axes, _centre_radius, _chunk_steps, _count_segment, _first_unbounded,
    _inside, _orbit, _perturbation, _run_recurrence, _table_rows)
from uncreach.intervals import _add_outward
from uncreach.robustness import SCHEMES, budget_weights
from uncreach.stars import (Star, compact, interval_reduce, lambda_box,
                            linear_map, minkowski_sum, zono_reduce)

from conftest import centred, replayed_flows
from endpoint_reference import broadcast_product, padded_image

GIRAD_A = np.array([[-1.0, -4.0], [4.0, -1.0]])


def scalar_growth_model(entry_lo=0.9, entry_hi=1.1, horizon=2, unsafe=()):
    # discrete x' = a x with the single entry known only up to an interval
    return ModelSpec(
        name="scalar",
        a=np.array([[1.0]]),
        uncertainty=(CellUncertainty(0, 0, interval=(entry_lo, entry_hi)),),
        initial=Box(np.array([1.0]), np.array([1.0])),
        horizon=horizon,
        continuous=False,
        unsafe=unsafe,
    )


def girad_model(horizon=50, reduction="none", period=500):
    return ModelSpec(
        name="girad",
        a=GIRAD_A,
        uncertainty=(CellUncertainty(0, 0, relative=0.02),
                     CellUncertainty(1, 0, relative=0.02)),
        initial=Box(np.array([0.9, -0.1]), np.array([1.1, 0.1])),
        horizon=horizon,
        continuous=True,
        step=0.01,
        unsafe=(HalfSpace(np.array([1.0, 0.0]), 2.0),),
        reduction_method=reduction,
        reduction_period=period,
    )


class TestCellUncertainty:
    def test_requires_exactly_one_spec(self):
        with pytest.raises(ValueError):
            CellUncertainty(0, 0)
        with pytest.raises(ValueError):
            CellUncertainty(0, 0, relative=0.1, interval=(0.0, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            CellUncertainty(0, 0, relative=-0.1)
        with pytest.raises(ValueError):
            CellUncertainty(0, 0, interval=(1.0, 0.0))
        with pytest.raises(ValueError):
            CellUncertainty(0, 0, interval=(0.0, np.inf))

    def test_values_must_be_real_numbers(self):
        # a bool used to be stored as given, and a string gave a TypeError
        for kw, what in (({"relative": True}, "relative"),
                         ({"relative": np.bool_(False)}, "relative"),
                         ({"relative": "0.1"}, "relative"),
                         ({"interval": (True, 2.0)}, "interval endpoint"),
                         ({"interval": (0.0, "1")}, "interval endpoint")):
            with pytest.raises(ValueError, match=f"{what} must be a real number"):
                CellUncertainty(0, 0, **kw)
        # numpy numbers, as a budget search passes them, are stored as floats
        assert type(CellUncertainty(0, 0, relative=np.float64(0.1)).relative) is float
        interval = CellUncertainty(0, 0, interval=(np.float32(0.5), 1)).interval
        assert interval == (0.5, 1.0) and all(type(v) is float for v in interval)


class TestHalfSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            HalfSpace(np.array([np.inf, 0.0]), 1.0)
        with pytest.raises(ValueError):
            HalfSpace(np.array([1.0]), np.nan)

    def test_offset_must_be_a_real_number(self):
        # True used to become the offset 1.0, and a string a TypeError
        for bad in (True, np.bool_(False), "1.0", None):
            with pytest.raises(ValueError, match="offset must be a real number"):
                HalfSpace(np.array([1.0]), bad)
        assert type(HalfSpace(np.array([1.0]), np.float64(2.0)).offset) is float


class TestModelSpec:
    def test_lambda_u_relative(self):
        m = ModelSpec(name="m", a=np.array([[2.0]]),
                      uncertainty=(CellUncertainty(0, 0, relative=0.5),),
                      initial=Box(np.zeros(1), np.ones(1)),
                      horizon=1, continuous=False)
        lam = _add_outward(m.a, m.perturbation())
        assert lam.lo[0, 0] == pytest.approx(1.0)
        assert lam.hi[0, 0] == pytest.approx(3.0)
        pert = m.perturbation()
        assert pert.lo[0, 0] == pytest.approx(-1.0)
        assert pert.hi[0, 0] == pytest.approx(1.0)

    def test_lambda_u_interval_is_entry_range(self):
        m = scalar_growth_model()
        lam = _add_outward(m.a, m.perturbation())
        assert lam.lo[0, 0] == 0.9 and lam.hi[0, 0] == 1.1
        pert = m.perturbation()
        assert pert.lo[0, 0] == pytest.approx(-0.1)
        assert pert.hi[0, 0] == pytest.approx(0.1)

    def test_times(self):
        cont = girad_model(horizon=4)
        assert np.allclose(cont.times(), [0.0, 0.01, 0.02, 0.03, 0.04])
        with pytest.raises(ValueError):
            scalar_growth_model(horizon=3).times()

    def test_validation(self):
        good = dict(name="m", a=np.eye(2),
                    uncertainty=(), initial=Box(np.zeros(2), np.ones(2)),
                    horizon=5, continuous=False)
        ModelSpec(**good)
        with pytest.raises(ValueError):
            ModelSpec(**{**good, "horizon": 0})
        with pytest.raises(ValueError):
            ModelSpec(**{**good, "continuous": True})  # needs a step
        with pytest.raises(ValueError):
            ModelSpec(**{**good, "continuous": True, "step": -0.1})
        with pytest.raises(ValueError):
            ModelSpec(**{**good, "reduction_method": "lp"})
        with pytest.raises(ValueError):
            ModelSpec(**{**good, "reduction_method": "interval",
                         "reduction_period": 0})
        with pytest.raises(DimensionMismatch):
            ModelSpec(**{**good, "initial": Box(np.zeros(3), np.ones(3))})
        with pytest.raises(DimensionMismatch, match="must be square"):
            ModelSpec(**{**good, "a": np.ones((2, 3))})
        with pytest.raises(DimensionMismatch, match="normal must match"):
            ModelSpec(**{**good, "unsafe": (HalfSpace(np.ones(3), 1.0),)})
        with pytest.raises(ValueError):
            ModelSpec(**{**good, "uncertainty": (CellUncertainty(2, 0, relative=0.1),)})
        with pytest.raises(ValueError):
            ModelSpec(**{**good, "uncertainty": (CellUncertainty(-1, 0, relative=0.1),)})
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(**{**good, "initial": Box(np.zeros(2),
                                                np.array([1.0, np.inf]))})

    def test_step_must_be_a_real_number(self):
        # step=True used to give the integer grid [0 1 2 3], and a string a
        # TypeError
        for bad in (True, np.bool_(True), "0.01"):
            with pytest.raises(ValueError, match="step must be a real number"):
                dataclasses.replace(girad_model(horizon=3), step=bad)
        m = dataclasses.replace(girad_model(horizon=3), step=1)
        assert type(m.step) is float and m.times().dtype == np.float64

    def test_discrete_model_takes_no_step(self):
        # model_to_dict writes no step for a discrete model, so a model
        # holding one would change in a save/load round trip
        with pytest.raises(ValueError, match="step is only meaningful"):
            dataclasses.replace(scalar_growth_model(), step=0.1)

    def test_name_and_continuous_are_checked(self):
        # the model file used to be the only place checking these, so the
        # API accepted continuous="no" and ran the model as continuous
        good = dict(name="m", a=np.eye(1), uncertainty=(),
                    initial=Box(np.zeros(1), np.ones(1)), horizon=2,
                    continuous=False)
        for bad in ({"name": ""}, {"name": 3}, {"name": None},
                    {"continuous": "no", "step": 0.1},
                    {"continuous": 1, "step": 0.1},
                    {"continuous": None, "step": 0.1}):
            with pytest.raises(ValueError, match="(name|continuous) must be"):
                ModelSpec(**{**good, **bad})
        m = ModelSpec(**{**good, "continuous": np.bool_(True), "step": 0.1})
        assert m.continuous is True

    def test_rejects_cell_listed_twice(self):
        # a second entry must not narrow the family the model lists
        cells = (CellUncertainty(0, 0, relative=0.1),
                 CellUncertainty(0, 0, interval=(0.0, 0.5)))
        with pytest.raises(ValueError, match=r"\(0,0\) listed twice"):
            dataclasses.replace(scalar_growth_model(), uncertainty=cells)

    def test_cell_indices_must_be_integers(self):
        # a float index used to pass the check and fail in the recurrence,
        # and a bool one to widen a whole row through numpy indexing
        for row, col in [(0.5, 0), (1.0, 0), (True, 0), (0, False),
                         (np.float64(1.0), 0)]:
            with pytest.raises(ValueError, match="integers"):
                dataclasses.replace(
                    girad_model(), uncertainty=(
                        CellUncertainty(row, col, relative=0.1),))
        m = dataclasses.replace(girad_model(), uncertainty=(
            CellUncertainty(np.int64(1), np.int32(0), relative=0.1),))
        cell = m.uncertainty[0]
        assert type(cell.row) is int and type(cell.col) is int
        assert (cell.row, cell.col) == (1, 0)
        lam = _add_outward(m.a, m.perturbation())
        assert np.array_equal(lam.lo == lam.hi, [[True, True], [False, True]])

    def test_horizon_and_period_must_be_integers(self):
        for key, bad in [("horizon", 3.5), ("horizon", 3.0), ("horizon", True),
                         ("reduction_period", 2.5),
                         ("reduction_period", False)]:
            with pytest.raises(ValueError, match=key):
                dataclasses.replace(scalar_growth_model(), **{key: bad})
        m = dataclasses.replace(scalar_growth_model(), horizon=np.int64(3),
                                reduction_method="interval",
                                reduction_period=np.int32(2))
        assert type(m.horizon) is int and type(m.reduction_period) is int
        assert len(ors_reach(m)) == 4


def exact_family(a, cells):
    """The exact bounds of each entry of the family A and its
    CellUncertainty cells state, as Fractions: [a - rho |a|, a + rho |a|]
    with rho the exact value of its float, [lo, hi], or [a, a]."""
    lo = [[Fraction(v) for v in row] for row in a]
    hi = [row[:] for row in lo]
    for c in cells:
        x = Fraction(a[c.row, c.col])
        if c.relative is not None:
            r = Fraction(c.relative) * abs(x)
            lo[c.row][c.col], hi[c.row][c.col] = x - r, x + r
        else:
            lo[c.row][c.col], hi[c.row][c.col] = map(Fraction, c.interval)
    return lo, hi


def assert_holds(m, lo, hi, shift=None):
    """m's bounds contain the exact bounds lo and hi, less shift if given,
    entry by entry."""
    for (i, j), glo in np.ndenumerate(m.lo):
        s = 0 if shift is None else Fraction(shift[i, j])
        assert Fraction(glo) <= lo[i][j] - s, (i, j)
        assert hi[i][j] - s <= Fraction(m.hi[i, j]), (i, j)


def random_cells(rng, n):
    """A few distinct cells of an n x n matrix, each relative, rho
    log-uniform in [1e-20, 10], or an interval drawn apart from A."""
    flat = rng.choice(n * n, size=int(rng.integers(1, n * n + 1)), replace=False)
    cells = []
    for f in flat:
        i, j = divmod(int(f), n)
        if rng.random() < 0.6:
            rho = float(10.0 ** rng.uniform(-20, 1))
            cells.append(CellUncertainty(i, j, relative=rho))
        else:
            ends = np.sort(rng.choice([-1.0, 1.0], 2)
                           * 10.0 ** rng.uniform(-310, 300, 2))
            cells.append(CellUncertainty(i, j, interval=tuple(ends)))
    return cells


class TestPerturbationFamily:
    # Lambda is built once from the cells, outward, and the family is
    # A (+) Lambda.  Checked in rationals: a relative cell's a -+ rho |a|
    # rounded to nearest lost members, and a product rho |a| below 2^-1074
    # collapsed the cell to a point

    def test_random_cells_hold_their_exact_family(self):
        rng = np.random.default_rng(30)
        tiny = 0
        for trial in range(300):
            n = int(rng.integers(1, 4))
            kind = rng.integers(0, 4, (n, n))
            mag = np.where(kind == 0, 0.0, 10.0 ** np.where(
                kind == 1, rng.uniform(-310, -300, (n, n)),
                rng.uniform(-310, 300, (n, n))))
            a = rng.choice([-1.0, 1.0], (n, n)) * mag
            cells = random_cells(rng, n)
            model = ModelSpec(name="corpus", a=a, uncertainty=tuple(cells),
                              initial=Box(np.zeros(n), np.zeros(n)),
                              horizon=1, continuous=False)
            lo, hi = exact_family(a, cells)
            pert = model.perturbation()
            assert_holds(pert, lo, hi, shift=a)
            assert_holds(_add_outward(a, pert), lo, hi)
            listed = np.zeros((n, n), dtype=bool)
            for c in cells:
                listed[c.row, c.col] = True
                if c.relative is not None:
                    r = Fraction(c.relative) * abs(Fraction(a[c.row, c.col]))
                    tiny += 0 < r < Fraction(2) ** -1074
            for bound in (pert.lo, pert.hi):
                assert np.all(bound[~listed] == 0.0)
                assert not np.any(np.signbit(bound[~listed]))
            # a budget's family, each rho the float p k w_ij
            scheme = SCHEMES[int(rng.integers(len(SCHEMES)))]
            scores = rng.uniform(size=(n, n))
            pairs = [(c.row, c.col) for c in cells]
            p = float(10.0 ** rng.uniform(-20, 1))
            w = budget_weights(pairs, scores, scheme)
            budget = [CellUncertainty(i, j, relative=p * len(pairs) * wi)
                      for (i, j), wi in zip(pairs, w)]
            assert_holds(_add_outward(a, _perturbation(a, budget)),
                         *exact_family(a, budget))
        assert tiny > 0

    def test_shipped_families_hold_their_exact_cells(self):
        # acc4's 20% cells were a -+ 0.2 |a| rounded to nearest, which
        # excluded their exact bounds by 2.8e-17 and 5.6e-17
        for name in ("girad1", "acc4", "twocell", "grow1d"):
            model = shipped(name)
            lo, hi = exact_family(model.a, model.uncertainty)
            assert_holds(_add_outward(model.a, model.perturbation()), lo, hi)

    def test_cancellation_below_the_entry_ulp_is_not_proven_safe(self):
        # x2 at step 1 is e x1 - x3 = e - 1 for e in [1 - rho, 1 + rho],
        # rho = 1e-17, so it fills [-rho, rho] and meets x2 >= 5e-18.
        # 1 -+ rho rounded to nearest is 1: the family was a point, the
        # step-1 box [0, 0] and the verdict safe
        model = ModelSpec(
            name="cancellation",
            a=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, -1.0], [0.0, 0.0, 0.0]]),
            uncertainty=(CellUncertainty(1, 0, relative=1e-17),),
            initial=Box(np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0])),
            horizon=1, continuous=False,
            unsafe=(HalfSpace(np.array([0.0, 1.0, 0.0]), 5e-18),))
        res = ors_reach(model)
        verdict = safety_check(res, model.unsafe)
        assert not verdict.safe and verdict.step == 1
        rho = Fraction(1e-17)
        assert Fraction(res.lo[1, 1]) <= -rho and rho <= Fraction(res.hi[1, 1])


class TestDiscretize:
    def test_zero_matrix_zero_family(self):
        m = discretize(np.zeros((2, 2)), IntervalMatrix.zeros(2, 2), 0.5)
        assert isinstance(m, IntervalMatrix)
        assert m.contains(np.eye(2))
        assert np.all(m.hi - m.lo <= 1e-18)

    def test_structural_zeros_are_exact(self):
        # acc4's input x4' = 0 gives the unit row, and twocell's lower
        # left entry, which no chain of nonzero entries reaches, is 0
        acc4 = one_step_family(shipped("acc4"))
        assert np.array_equal(acc4.lo[3], [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(acc4.hi[3], [0.0, 0.0, 0.0, 1.0])
        twocell = one_step_family(shipped("twocell"))
        assert twocell.lo[1, 0] == twocell.hi[1, 0] == 0.0
        assert twocell.hi[0, 1] > twocell.lo[0, 1]

    def test_nominal_matches_dense_expm(self):
        m = discretize(GIRAD_A, IntervalMatrix.zeros(2, 2), 0.1)
        want = scipy.linalg.expm(GIRAD_A * 0.1)
        assert m.contains(want, tol=1e-15)
        assert np.allclose(m.center, want, atol=1e-13)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            discretize(GIRAD_A, IntervalMatrix.zeros(2, 2), 0.0)
        with pytest.raises(ValueError):
            discretize(GIRAD_A, IntervalMatrix.zeros(2, 2), -0.1)
        with pytest.raises(ValueError):
            discretize(GIRAD_A, IntervalMatrix.zeros(2, 2), np.inf)
        with pytest.raises(DimensionMismatch):
            discretize(GIRAD_A, IntervalMatrix.zeros(3, 3), 0.1)

    def test_contains_sampled_exponentials(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            a = rng.uniform(-1, 1, (n, n))
            pert = centred(np.zeros((n, n)), rng.uniform(0, 0.1, (n, n)))
            m = discretize(a, pert, 0.1)
            for _ in range(10):
                e = pert.sample(rng)
                assert m.contains(scipy.linalg.expm((a + e) * 0.1), tol=1e-9)


def heat_rod(n):
    """The ROADMAP scaling probe's heat rod: the tridiagonal Laplacian
    scaled by (n+1)^2 / 100, 2% relative uncertainty on four diagonal
    cells, h = 0.01, 1000 steps, interval reduction every 100, unsafe
    x_0 >= 2."""
    a = (n + 1) ** 2 / 100 * (np.diag(np.full(n, -2.0)) + np.eye(n, k=1)
                              + np.eye(n, k=-1))
    return ModelSpec(
        name=f"heat-rod-{n}", a=a,
        uncertainty=tuple(CellUncertainty(i, i, relative=0.02)
                          for i in range(n // 8, n, n // 4)),
        initial=Box(np.full(n, 0.9), np.full(n, 1.1)), horizon=1000,
        continuous=True, step=0.01, unsafe=(HalfSpace(np.eye(n)[0], 2.0),),
        reduction_method="interval", reduction_period=100)


class TestScaledDiscretization:
    """One-step families with ||A (+) Lambda||_F h > 1: interval_expm
    scales and squares them, and an overflow is an unbounded flowpipe."""

    def test_heat_rod_128_is_finite_and_safe(self):
        # theta = 46.1 used to raise; the family now takes s = 6 squarings
        rod = heat_rod(128)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = ors_reach(rod)
            verdict = safety_check(res, rod.unsafe)
        assert len(res) == 1001 and verdict.safe
        assert np.all(np.isfinite(res.lo)) and np.all(np.isfinite(res.hi))
        assert_contains_vertex_trajectories(np.random.default_rng(128), rod,
                                            res.lo, res.hi, "rod128")

    def test_overflowing_family_is_unbounded_from_step_one(self):
        # exp(A h) = diag(e^1000, e^-1000): the squarings leave float
        # range, discretize's entries there are (-inf, inf), and the
        # flowpipe is unbounded from step 1, without a RuntimeWarning
        model = ModelSpec(
            name="overflow", a=np.diag([100.0, -100.0]),
            uncertainty=(CellUncertainty(0, 0, relative=0.01),),
            initial=Box(np.array([0.9, -0.1]), np.array([1.1, 0.1])),
            horizon=5, continuous=True, step=10.0,
            unsafe=(HalfSpace(np.array([1.0, 0.0]), 2.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m = discretize(model.a, model.perturbation(), model.step)
            res = ors_reach(model)
            verdict = safety_check(res, model.unsafe)
        assert m.lo[0, 0] == -np.inf and m.hi[0, 0] == np.inf
        assert np.all(np.isfinite(res.lo[0])) and np.all(np.isfinite(res.hi[0]))
        assert np.all(res.lo[0] <= model.initial.lo)
        assert np.all(model.initial.hi <= res.hi[0])
        assert np.all(res.lo[1:] == -np.inf) and np.all(res.hi[1:] == np.inf)
        assert np.all(res.supports[1:] == np.inf)
        assert not verdict.safe and verdict.step == 1


class TestOrsReach:
    def test_scalar_worked_example(self):
        res = ors_reach(scalar_growth_model())
        assert res.kind == "numeric"
        assert len(res.boxes) == 3
        assert np.allclose(res.boxes[0].lo, [1.0]) and np.allclose(res.boxes[0].hi, [1.0])
        assert res.boxes[1].lo[0] == pytest.approx(0.9, abs=1e-12)
        assert res.boxes[1].hi[0] == pytest.approx(1.1, abs=1e-12)
        assert res.boxes[2].lo[0] == pytest.approx(0.79, abs=1e-12)
        assert res.boxes[2].hi[0] == pytest.approx(1.21, abs=1e-12)

    def test_generator_counts_grow_linearly(self):
        res = ors_reach(girad_model(horizon=10))
        assert res.gen_counts[0] == 2
        # one box of fresh generators per step in 2-D
        assert list(res.gen_counts) == [2 + 2 * k for k in range(11)]

    def test_zero_uncertainty_discrete_is_exact_nominal(self):
        m = ModelSpec(name="m", a=np.array([[0.0, -1.0], [1.0, 0.0]]),
                      uncertainty=(),
                      initial=Box(np.array([0.9, -0.1]), np.array([1.1, 0.1])),
                      horizon=20, continuous=False)
        res = ors_reach(m)
        # the perturbation box is exactly zero, so no generators are added
        assert all(g == 2 for g in res.gen_counts)
        ref = nominal_reach(m.a, m.initial, 20)
        for got, want in zip(res.boxes, ref.boxes):
            assert np.array_equal(got.lo, want.lo)
            assert np.array_equal(got.hi, want.hi)

    def test_zero_uncertainty_continuous_matches_nominal(self):
        # the series and Pade exponentials differ at rounding level only
        m = ModelSpec(name="m", a=GIRAD_A, uncertainty=(),
                      initial=Box(np.array([0.9, -0.1]), np.array([1.1, 0.1])),
                      horizon=50, continuous=True, step=0.01)
        res = ors_reach(m)
        ref = nominal_reach(scipy.linalg.expm(GIRAD_A * 0.01), m.initial, 50)
        for got, want in zip(res.boxes, ref.boxes):
            assert np.allclose(got.lo, want.lo, atol=1e-12)
            assert np.allclose(got.hi, want.hi, atol=1e-12)

    def test_labels_are_steps(self):
        res = ors_reach(scalar_growth_model(horizon=3))
        assert np.array_equal(res.labels, np.array([0.0, 1.0, 2.0, 3.0]))

    def test_contains_sampled_trajectories(self):
        # the central soundness property: per-step sampled dynamics stay inside
        rng = np.random.default_rng(20240)
        for trial in range(30):
            n = int(rng.integers(1, 4))
            entries = rng.uniform(-1, 1, (n, n)) * 0.8
            cells = tuple(CellUncertainty(i, j, relative=0.05)
                          for i in range(n) for j in range(n)
                          if rng.random() < 0.3)
            continuous = bool(rng.random() < 0.5)
            lo = rng.uniform(-1, 0, n)
            model = ModelSpec(
                name=f"rand{trial}", a=entries, uncertainty=cells,
                initial=Box(lo, lo + rng.uniform(0.1, 1.0, n)),
                horizon=int(rng.integers(5, 30)),
                continuous=continuous,
                step=0.05 if continuous else None,
            )
            lam = _add_outward(model.a, model.perturbation())
            res = ors_reach(model)
            for _ in range(5):
                x = model.initial.sample(rng)[0]
                m_true = lam.sample(rng)
                step_m = scipy.linalg.expm(m_true * model.step) if continuous else m_true
                for k in range(model.horizon + 1):
                    assert res.boxes[k].contains(x, tol=1e-9), (trial, k)
                    x = step_m @ x

    def test_interval_reduction_still_contains(self):
        rng = np.random.default_rng(606)
        m_none = girad_model(horizon=40, reduction="none")
        m_red = girad_model(horizon=40, reduction="interval", period=10)
        res_none = ors_reach(m_none)
        res_red = ors_reach(m_red)
        assert max(res_red.gen_counts) < max(res_none.gen_counts)
        lam = _add_outward(m_none.a, m_none.perturbation())
        for _ in range(10):
            x = m_none.initial.sample(rng)[0]
            step_m = scipy.linalg.expm(lam.sample(rng) * m_none.step)
            for k in range(41):
                assert res_red.boxes[k].contains(x, tol=1e-9)
                x = step_m @ x

    def test_zonotope_reduction_contains_unreduced(self):
        m_none = girad_model(horizon=40, reduction="none")
        m_red = girad_model(horizon=40, reduction="zonotope", period=10)
        dirs = np.random.default_rng(9).normal(size=(50, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sup_none = ors_reach(m_none).support(dirs)
        sup_red = ors_reach(m_red).support(dirs)
        for k in (10, 20, 40):
            assert np.all(sup_red[k] >= sup_none[k] - 1e-9)

    def test_uncertainty_widens_with_budget(self):
        # growing the entry range can only widen every step's box
        narrow = ors_reach(scalar_growth_model(0.95, 1.05, horizon=5))
        wide = ors_reach(scalar_growth_model(0.9, 1.1, horizon=5))
        for b_n, b_w in zip(narrow.boxes, wide.boxes):
            assert b_w.lo[0] <= b_n.lo[0] + 1e-12
            assert b_w.hi[0] >= b_n.hi[0] - 1e-12


class TestReachWithPerturbation:
    def test_matches_ors_reach_on_model_family(self):
        m = girad_model(horizon=10)
        res = reach_with_perturbation(m, m.perturbation())
        ref = ors_reach(m)
        for got, want in zip(res.boxes, ref.boxes):
            assert np.allclose(got.lo, want.lo, atol=1e-12)
            assert np.allclose(got.hi, want.hi, atol=1e-12)

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            reach_with_perturbation(girad_model(horizon=2), IntervalMatrix.zeros(3, 3))
        with pytest.raises(DimensionMismatch):
            reach_with_perturbation(scalar_growth_model(), IntervalMatrix.zeros(2, 2))

    def test_numeric_route_takes_no_expm(self, monkeypatch):
        # the one-step family is enclosed by its own centre and radius, so
        # no flowpipe takes a Pade exponential; the symbolic step still does
        expm, calls = engine.scipy.linalg.expm, []
        monkeypatch.setattr(engine.scipy.linalg, "expm",
                            lambda x: calls.append(x) or expm(x))
        for name in ("girad1", "acc4", "twocell", "grow1d"):
            ors_reach(shipped(name))
        robustness_threshold(shipped("girad1"), [(0, 0), (1, 0)], step=0.05)
        robustness_threshold(shipped("acc4"), [(0, 0), (2, 3)],
                             scheme="proportional", step=0.8)
        assert calls == []
        m = shipped("girad1")
        symbolic_reach(m.a, m.perturbation(), m.initial, np.arange(3) * m.step)
        assert len(calls) == 1


class TestNominalReach:
    def test_identity_is_constant(self):
        theta = Box(np.array([-1.0, 0.5]), np.array([1.0, 2.0]))
        res = nominal_reach(np.eye(2), theta, 5)
        for box in res.boxes:
            assert np.allclose(box.lo, theta.lo) and np.allclose(box.hi, theta.hi)

    def test_scalar_doubling(self):
        res = nominal_reach(np.array([[2.0]]), Box(np.ones(1), np.ones(1)), 3)
        assert [b.hi[0] for b in res.boxes] == [1.0, 2.0, 4.0, 8.0]

    def test_rotation_keeps_square(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        theta = Box(-np.ones(2), np.ones(2))
        res = nominal_reach(rot, theta, 4)
        for box in res.boxes:
            assert np.allclose(box.lo, [-1.0, -1.0]) and np.allclose(box.hi, [1.0, 1.0])

    def test_rejects_infinite_initial_box(self):
        theta = Box(np.array([-np.inf, 0.0]), np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            nominal_reach(np.eye(2), theta, 3)

    def test_rejects_mismatched_box_and_negative_horizon(self):
        with pytest.raises(DimensionMismatch, match="match the box"):
            nominal_reach(np.eye(2), Box(np.zeros(3), np.ones(3)), 3)
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            nominal_reach(np.eye(2), Box(np.zeros(2), np.ones(2)), -1)
        # a float horizon raised numpy's TypeError from the table, a string
        # one TypeError from <, and True ran as horizon 1
        for horizon in (3.0, "3", True):
            with pytest.raises(ValueError, match="horizon must be an integer"):
                nominal_reach(np.eye(2), Box(np.zeros(2), np.ones(2)), horizon)


class TestSafetyCheck:
    def test_safe_when_no_halfspaces(self):
        verdict = safety_check(ors_reach(scalar_growth_model()), ())
        assert verdict.safe and verdict.step is None and verdict.halfspace is None

    def test_scalar_worked_example_unsafe_at_step_two(self):
        model = scalar_growth_model(0.85, 1.15,
                                    unsafe=(HalfSpace(np.array([1.0]), 1.25),))
        verdict = safety_check(ors_reach(model), model.unsafe)
        assert not verdict.safe
        assert verdict.step == 2
        assert verdict.halfspace == 0
        assert verdict.support == pytest.approx(1.3225, abs=1e-12)

    def test_safe_below_threshold(self):
        model = scalar_growth_model(unsafe=(HalfSpace(np.array([1.0]), 1.25),))
        verdict = safety_check(ors_reach(model), model.unsafe)
        assert verdict.safe
        assert verdict.step is None and verdict.support is None

    def test_violation_at_initial_step(self):
        model = scalar_growth_model(unsafe=(HalfSpace(np.array([1.0]), 0.5),))
        verdict = safety_check(ors_reach(model), model.unsafe)
        assert not verdict.safe and verdict.step == 0

    def test_first_halfspace_index_reported(self):
        model = scalar_growth_model(
            unsafe=(HalfSpace(np.array([-1.0]), 10.0),      # never violated
                    HalfSpace(np.array([1.0]), 0.5)))
        verdict = safety_check(ors_reach(model), model.unsafe)
        assert verdict.halfspace == 1

    def test_nan_support_is_a_violation(self):
        # a support that is not below its offset is not proven safe
        class Supports:
            def support(self, dirs):
                return np.array([[0.0], [np.nan], [2.0]])

        verdict = safety_check(Supports(), (HalfSpace(np.array([1.0]), 1.0),))
        assert not verdict.safe and verdict.step == 1 and math.isnan(verdict.support)

    def test_symbolic_result_adds_bloat_radius(self):
        from uncreach import symbolic_reach
        theta = Box(np.array([1.0]), np.array([1.0]))
        lam = IntervalMatrix(np.array([[-1.0]]), np.array([[1.0]]))
        res = symbolic_reach(np.array([[0.0]]), lam, theta,
                             np.array([0.0, 1.0]), method="loan")
        verdict = safety_check(res, (HalfSpace(np.array([1.0]), 3.0),))
        # support 1 + e exceeds 3 only because the bloat radius is added
        assert not verdict.safe and verdict.step == 1
        assert verdict.support == pytest.approx(1.0 + np.e, rel=1e-12)

    def test_symbolic_supports_match_star_supports(self):
        # the supports of each flow E Theta, read off the stacked flows,
        # against Star.support_batch of linear_map(E, Theta) plus the radius,
        # with E from the package's expm called one time point at a time
        from uncreach import symbolic_reach
        from uncreach._expm import expm
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a = rng.uniform(-1, 1, (n, n))
            lam = centred(np.zeros((n, n)), rng.uniform(0, 0.05, (n, n)))
            lo = rng.uniform(-1, 1, n)
            theta = Box(lo, lo + rng.uniform(0, 1, n))
            times = np.arange(31) * rng.uniform(0.02, 0.1)
            res = symbolic_reach(a, lam, theta, times, method="loan")
            dirs = rng.normal(size=(3, n))
            ref = np.array([
                linear_map(expm(a * t), Star.from_box(theta))
                .support_batch(dirs) + r * np.linalg.norm(dirs, axis=1)
                for t, r in zip(times, res.radii)])
            # offsets crossed part way along the grid, one per normal
            offsets = ref[rng.integers(5, len(times), 3), [0, 1, 2]]
            halfspaces = [HalfSpace(d, c) for d, c in zip(dirs, offsets)]
            hit = np.argwhere(ref >= offsets)[0]
            verdict = safety_check(res, halfspaces)
            assert not verdict.safe
            assert (verdict.step, verdict.halfspace) == tuple(hit)
            assert verdict.support == pytest.approx(ref[tuple(hit)], rel=1e-13)
            for j, hs in enumerate(halfspaces):
                far = safety_check(res, (HalfSpace(hs.normal,
                                                   ref[:, j].max() * 1.01 + 1.0),))
                assert far.safe

    def test_safety_monotone_in_uncertainty(self):
        unsafe = (HalfSpace(np.array([1.0]), 1.25),)
        safe_small = safety_check(
            ors_reach(scalar_growth_model(0.95, 1.05, unsafe=unsafe)), unsafe)
        unsafe_big = safety_check(
            ors_reach(scalar_growth_model(0.7, 1.3, unsafe=unsafe)), unsafe)
        assert safe_small.safe and not unsafe_big.safe


def shipped_girad(horizon=120, reduction="none", period=50):
    path = importlib.resources.files("uncreach") / "models" / "girad1.yaml"
    return dataclasses.replace(load_model(path), horizon=horizon,
                               reduction_method=reduction,
                               reduction_period=period)


def discrete_model(reduction="none", period=25):
    # row 1 of the perturbation is zero and the initial box is flat in
    # coordinate 2, so some lambda_box coefficients have zero width and
    # fold into the anchor
    return ModelSpec(
        name="discrete3",
        a=np.array([[0.9, 0.2, 0.0], [-0.1, 0.8, 0.1], [0.0, 0.05, 0.95]]),
        uncertainty=(CellUncertainty(0, 1, relative=0.1),
                     CellUncertainty(2, 2, interval=(0.96, 0.96))),
        initial=Box(np.array([0.5, -0.2, 1.0]), np.array([0.7, 0.2, 1.0])),
        horizon=60,
        continuous=False,
        unsafe=(HalfSpace(np.array([1.0, 0.0, 0.0]), 5.0),
                HalfSpace(np.array([0.0, -1.0, 1.0]), 5.0)),
        reduction_method=reduction,
        reduction_period=period,
    )


def short_acc4(reduction="none"):
    # the shipped acc4 model over 60 steps; the periods do not divide the
    # horizon, and a zonotope reduction leaves a carried block
    period = {"interval": 7, "zonotope": 13}.get(reduction, 500)
    path = importlib.resources.files("uncreach") / "models" / "acc4.yaml"
    return dataclasses.replace(load_model(path), horizon=60,
                               reduction_method=reduction,
                               reduction_period=period)


def compaction_once(reduction="none", period=9):
    # the initial box is flat in coordinate 1, and only coordinate 1 feeds
    # row 0 of the perturbation, so step 1 drops half of the fresh block;
    # the rotation then spreads the set and no later block is dropped
    return ModelSpec(
        name="rotate2",
        a=np.array([[0.9, -0.4], [0.4, 0.9]]),
        uncertainty=(CellUncertainty(0, 1, relative=0.1),
                     CellUncertainty(1, 0, relative=0.1)),
        initial=Box(np.array([0.5, 0.0]), np.array([1.0, 0.0])),
        horizon=40,
        continuous=False,
        unsafe=(HalfSpace(np.array([1.0, 1.0]), 5.0),),
        reduction_method=reduction,
        reduction_period=period,
    )


def one_column_blocks(reduction="none", period=11):
    # row 0 of the perturbation is zero, so every fresh block keeps only
    # column 1: one-column matrix products round differently from the
    # Star operations' wider ones
    return ModelSpec(
        name="rotate2-row1",
        a=np.array([[0.9, -0.4], [0.4, 0.9]]),
        uncertainty=(CellUncertainty(1, 0, relative=0.1),
                     CellUncertainty(1, 1, relative=0.05)),
        initial=Box(np.array([0.5, -0.3]), np.array([1.0, 0.2])),
        horizon=50,
        continuous=False,
        unsafe=(HalfSpace(np.array([1.0, 0.0]), 5.0),),
        reduction_method=reduction,
        reduction_period=period,
    )


def no_uncertainty(reduction="none", period=8):
    # every fresh generator has zero width and folds into the anchor
    return dataclasses.replace(discrete_model(reduction, period),
                               uncertainty=())


def period_one(reduction="none"):
    return shipped_girad(horizon=30, reduction=reduction, period=1)


def period_beyond_horizon(reduction="none"):
    return shipped_girad(horizon=40, reduction=reduction, period=500)


GROW2_A = np.array([[1.0, -1.0], [0.0, 2.0]])
GROW2_CELLS = tuple(CellUncertainty(i, j, interval=(GROW2_A[i, j] - 1e-3,
                                                    GROW2_A[i, j] + 1e-3))
                    for i in range(2) for j in range(2))


def grow2_model(cells=GROW2_CELLS, reduction="none", period=500):
    # twocell's unstable matrix on 1600 steps of 0.25: the flow leaves
    # float range near t = 355
    return ModelSpec(
        name="grow2", a=GROW2_A, uncertainty=cells,
        initial=Box(np.array([1.0, 0.0]), np.array([2.0, 1.0])),
        horizon=1600, continuous=True, step=0.25,
        unsafe=(HalfSpace(np.array([0.0, 1.0]), 1e300),),
        reduction_method=reduction, reduction_period=period)


def blowup_model(reduction="none", period=7, horizon=40, a=1e10):
    # x' = a x, a within 10% of 1e10 or of -1e10: the box leaves float
    # range at step 31.  1e10 takes the recurrence of an orthant-monotone
    # family, -1e10, whose diagonal is negative, the table path
    return ModelSpec(name="blowup", a=np.array([[a]]),
                     uncertainty=(CellUncertainty(0, 0, relative=0.1),),
                     initial=Box(np.array([1.0]), np.array([2.0])),
                     horizon=horizon, continuous=False,
                     unsafe=(HalfSpace(np.array([1.0]), 1.0),),
                     reduction_method=reduction, reduction_period=period)


def shipped(name):
    return load_model(
        importlib.resources.files("uncreach") / "models" / f"{name}.yaml")


def one_step_family(model):
    """The one-step family M as the numeric route forms it."""
    if model.continuous:
        return discretize(model.a, model.perturbation(), model.step)
    return _add_outward(model.a, model.perturbation())


def recentre(s):
    """The same star with coefficients centred on zero."""
    mid = 0.5 * (s.coeff_lo + s.coeff_hi)
    half = 0.5 * (s.coeff_hi - s.coeff_lo)
    return Star(s.anchor + s.generators @ mid, s.generators, -half, half)


def reference_flowpipe(model):
    """Stars, boxes, supports and generator counts of the model's flowpipe
    from the public star operations (see reference_run)."""
    normals = np.vstack([hs.normal for hs in model.unsafe])
    return reference_run(one_step_family(model), model.initial, model.horizon,
                         model.reduction_method, model.reduction_period,
                         normals)


def radius_components(m, initial):
    """S recomputed from its definition: the components with a nonzero
    row of Lr or a wide Theta, and every component from which a chain of
    nonzero entries of P (M split as engine._centre_radius) leads to one;
    every component when none carries a radius."""
    p, lr = _centre_radius(m.lo, m.hi)
    n = len(p)
    seed = np.any(lr != 0.0, axis=1) | (initial.lo != initial.hi)
    if not seed.any():
        return np.arange(n)
    step, power = (p != 0.0).astype(float), np.eye(n)
    reach = np.eye(n, dtype=bool)  # chains of 0 to n entries
    for _ in range(n):
        power = (power @ step > 0.0).astype(float)
        reach |= power > 0.0
    return np.flatnonzero(reach[:, seed].any(axis=1))


def keep_columns(s, cols):
    return Star(s.anchor, s.generators[:, cols], s.coeff_lo[cols], s.coeff_hi[cols])


def reference_run(m, initial, horizon, reduction, period, normals):
    """Stars, boxes, supports and generator counts from the public star
    operations, each set kept centred: the set moves by P and gains the
    lambda_box block of [-Lr, Lr] (M split as engine._centre_radius),
    and Theta and every interval hull are re-centred.  Theta, an
    interval hull and a zonotope reduction's box hold one axis generator
    per component of S (radius_components); outside S their widths are
    exactly zero, so dropping those generators leaves every set as it
    is."""
    p, lr = _centre_radius(m.lo, m.hi)
    n, at = initial.dim, radius_components(m, initial)
    s = keep_columns(recentre(Star.from_box(initial)), at)
    stars = [s]
    for k in range(1, horizon + 1):
        u = compact(lambda_box(IntervalMatrix(-lr, lr), s))
        s = minkowski_sum(linear_map(p, s), u)
        if reduction != "none" and k % period == 0:
            if reduction == "interval":
                s = keep_columns(recentre(interval_reduce(s)), at)
            elif s.n_gens > 2 * n:  # the n largest, then n axis columns
                s = keep_columns(zono_reduce(s, 2 * n), np.r_[:n, n + at])
        stars.append(s)
    boxes = [s.bounding_box() for s in stars]
    return (stars, np.array([b.lo for b in boxes]),
            np.array([b.hi for b in boxes]),
            np.array([s.support_batch(normals) for s in stars]),
            np.array([s.n_gens for s in stars]))


def assert_replay_matches(res):
    """A replay in the recorded normals gives the recorded supports
    bitwise.  A replay in +-e_i records its own hi and -lo bitwise (a
    zero may take the other sign in -lo), and its boxes are those of res
    bitwise, as the box rows are summed apart from res's rows of other
    normals; support reads +-e_i off res's own hi and lo."""
    n = res.lo.shape[1]
    blank = dataclasses.replace(res, normals=None, supports=None)
    assert np.array_equal(blank.support(res.normals), res.supports)
    dirs = np.vstack((np.eye(n), -np.eye(n)))
    replay = _run_recurrence(*res._recurrence, res.method, dirs)
    assert replay.supports[:, :n].tobytes() == replay.hi.tobytes()
    assert np.array_equal(replay.supports[:, n:], -replay.lo)
    assert replay.lo.tobytes() == res.lo.tobytes()
    assert replay.hi.tobytes() == res.hi.tobytes()
    read = res.support(dirs)
    assert read[:, :n].tobytes() == res.hi.tobytes()
    assert (-read[:, n:]).tobytes() == res.lo.tobytes()


def assert_close(got, want):
    # relative 1e-12, and 1e-12 of the largest magnitude for entries that
    # cancel to about zero (acc4's lower bounds cross zero)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * float(np.max(np.abs(want))))


class TestStreamingRecurrence:
    @pytest.mark.parametrize("make", [shipped_girad, discrete_model,
                                      short_acc4, compaction_once,
                                      one_column_blocks, no_uncertainty,
                                      period_one,
                                      period_beyond_horizon])
    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_identical_to_star_operations(self, make, reduction):
        model = make(reduction=reduction)
        res = ors_reach(model)
        _, lo, hi, supports, counts = reference_flowpipe(model)
        assert_close(res.lo, lo)
        assert_close(res.hi, hi)
        assert_close(res.supports, supports)
        assert np.array_equal(res.gen_counts, counts)
        assert len(res) == model.horizon + 1

    @pytest.mark.parametrize("model", [
        *(pytest.param(discrete_model(reduction=r, period=10), id=r)
          for r in ("none", "interval", "zonotope")),
        *(pytest.param(short_acc4(reduction=r), id=f"acc4-{r}")
          for r in ("none", "interval", "zonotope"))])
    def test_kept_stars_match_recorded_rows(self, model):
        # no stars are kept: a replay in any direction stands in for them
        res = ors_reach(model)
        normals = np.vstack([hs.normal for hs in model.unsafe])
        assert np.array_equal(res.normals, normals)
        assert_replay_matches(res)
        # a replay in other directions against the star operations
        dirs = np.random.default_rng(5).normal(size=(4, model.dim))
        want = reference_run(one_step_family(model), model.initial,
                             model.horizon,
                             model.reduction_method, model.reduction_period,
                             dirs)[3]
        assert_close(res.support(dirs), want)

    def test_boxes_are_built_from_bounds(self):
        res = ors_reach(discrete_model())
        assert res.boxes is res.boxes
        for k, box in enumerate(res.boxes):
            assert np.array_equal(box.lo, res.lo[k])
            assert np.array_equal(box.hi, res.hi[k])

    def test_foreign_halfspace_needs_kept_stars(self):
        # it no longer does: a normal the model does not list is replayed,
        # and gives the verdict of a model that lists it
        for reduction, offset in itertools.product(
                ("none", "interval", "zonotope"), (5.0, 0.3)):
            model = discrete_model(reduction=reduction, period=7)
            other = (HalfSpace(np.array([0.0, 1.0, 1.0]), offset),)
            listed = ors_reach(dataclasses.replace(model,
                                                   unsafe=model.unsafe + other))
            want = safety_check(listed, other)
            got = safety_check(ors_reach(model), other)
            assert (got.safe, got.step, got.halfspace) == (
                want.safe, want.step, want.halfspace)
            assert want.safe == (offset == 5.0)
            if not got.safe:
                assert got.support == pytest.approx(want.support, rel=1e-14)
        with pytest.raises(DimensionMismatch):
            safety_check(ors_reach(model), (HalfSpace(np.ones(2), 1.0),))

    def test_recorded_normals_serve_other_offsets(self):
        model = discrete_model()
        res = ors_reach(model)
        replayed = dataclasses.replace(res, normals=None, supports=None)
        tight = (HalfSpace(model.unsafe[1].normal, 0.5),)
        assert safety_check(res, tight) == safety_check(replayed, tight)
        assert not safety_check(res, tight).safe

    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_overflow_gives_unbounded_steps(self, reduction):
        # the numeric twin of TestSymbolicReach's test of the same name in
        # tests/test_bounds.py: exp(2t) leaves float range near t = 355,
        # step 1420 of h = 0.25, and the perturbed family one step earlier.
        # From there the boxes are -inf/inf and the supports inf, without a
        # warning or a NaN, whatever the reduction
        for cells, overflow in ((GROW2_CELLS, 1419), ((), 1420)):
            model = grow2_model(cells, reduction)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = ors_reach(model)
                verdict = safety_check(res, model.unsafe)
            assert len(res) == model.horizon + 1
            for bound in (res.lo, res.hi, res.supports):
                assert not np.isnan(bound).any()
                assert np.all(np.isfinite(bound[:overflow]))
            assert np.all(res.lo[overflow:] == -np.inf)
            assert np.all(res.hi[overflow:] == np.inf)
            assert np.all(res.supports[overflow:] == np.inf)
            assert not verdict.safe and verdict.step < overflow
            # no generators are added to an unbounded set
            assert np.all(res.gen_counts[overflow:] == res.gen_counts[overflow])
        # the discrete blowup overflows at step 31: within a chunk of the
        # recurrence, and (period 31) at a reduction step, on either path
        for period, a in itertools.product((7, 31), (1e10, -1e10)):
            model = blowup_model(reduction, period, a=a)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = ors_reach(model)
            assert np.all(np.isfinite(res.hi[:31])) and np.all(res.hi[31:] == np.inf)
            assert np.all(res.lo[31:] == -np.inf)

    def test_memory_does_not_grow_with_stored_sets(self):
        # unreduced: 4102 generators at the last step; keeping every star
        # would take about 137 MB
        model = shipped_girad(horizon=2050)
        tracemalloc.start()
        try:
            ors_reach(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_foreign_halfspace_replays_in_linear_memory(self):
        # unreduced 2050-step girad1: the replay keeps O(H (n + k)) radii
        # and table rows; a copy of the live generators per step would
        # take about 136 MB
        model = shipped_girad(horizon=2050)
        res = ors_reach(model)
        other = (HalfSpace(np.array([1.0, 1.0]), 100.0),)
        tracemalloc.start()
        try:
            verdict = safety_check(res, other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.safe
        assert peak < 2e6

    def test_unreduced_acc4_peak_memory(self):
        # acc4 is orthant-monotone on S (its pinned input x4 is outside),
        # so its recurrence holds no table: it peaks at 0.218 MB, the
        # centres, q, the counts, the supports and lo, as the reduced runs
        # do.  On the table path, whose table holds 3 x 3 entries an age,
        # it peaked at 0.332 MB; with every component in the recurrence at
        # 0.476 MB; a row for -e_2 and a stored |centres| took 0.622 MB; a
        # table with 2n + k rows (generators moved by Abar, each age boxed
        # through Lm) or a chunk-by-window temporary would lift the peak
        # above 0.8 MB, and counting the generators beside the table to
        # 0.71 MB
        model = dataclasses.replace(shipped("acc4"), reduction_method="none")
        assert ors_reach_peak(model) < 0.228e6

    @pytest.mark.parametrize("reduction,period,bound", [
        ("interval", 500, 0.265e6), ("zonotope", 50, 0.25e6)],
        ids=["interval-500", "zonotope-50"])
    def test_reduced_acc4_peak_memory(self, reduction, period, bound):
        # the benchmark's reduced acc4 runs peak at 0.218 MB both (0.230 and
        # 0.219 MB with the history kept to the end, 0.251 and 0.237 MB
        # with x4 in the recurrence): one (H + 1)-row array each for the
        # centres, q and the counts with the history in the loop, then the
        # supports and lo once the loop and the history are done, hi
        # written over the centres; q is freed before the result
        # allocates its labels and radii.  A q kept alive by a view of it
        # to the end, and a zonotope reduction's temporaries kept to the
        # end, peaked at 0.272 and 0.303 MB; a stored |centres| and a row
        # for -e_2 at 0.358 and 0.324 MB
        model = dataclasses.replace(shipped("acc4"), reduction_method=reduction,
                                    reduction_period=period)
        assert ors_reach_peak(model) < bound

    def test_acc4_verdict_peak_memory(self):
        # acc4 as shipped with its verdict peaks at 0.220 MB: the verdict
        # reads its normal -e_2 off lo, written into the supports in place;
        # -lo as a fresh column copied in took it to 0.234 MB
        model = shipped("acc4")
        assert warm_peak(lambda: safety_check(ors_reach(model), model.unsafe)) < 0.228e6

    @pytest.mark.parametrize("until,bound", [(False, 0.15e6), (True, 0.14e6)],
                             ids=["shipped", "until-unsafe"])
    def test_girad1_peak_memory(self, until, bound):
        # girad1 as shipped peaks at 0.144 MB, and its until_unsafe trial,
        # which stops at the invariant (1000, 1500), at 0.131 MB; with q
        # kept alive to the end they took 0.172 and 0.151 MB
        model = shipped("girad1")
        tracemalloc.start()
        try:
            res = reach_with_perturbation(model, model.perturbation(),
                                          until_unsafe=until)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res) == (1500 if until else 2051)
        assert peak < bound

    def test_grow1d_peak_memory(self):
        # a 1-D flowpipe's peak is mostly fixed costs: run after a first
        # call it reads about 5.3 kB on the recurrence of an orthant-
        # monotone family, 5.8 kB on the table path with P^0 written into
        # the table in place (a first call, alone, up to 8.8 kB), and an
        # np.eye(n) copied in, whose strided .flat write allocates its
        # iterators, added 1.4 kB
        assert ors_reach_peak(shipped("grow1d")) < 7800


def normal_set(rng, n, kind):
    """Unsafe normals of one kind: every e_i, every -e_i, d and -d, d
    twice, or a mix of an axis, its negation, d, -d, another f and d."""
    e, d = np.eye(n), rng.normal(size=n)
    i = int(rng.integers(n))
    return {"e": e, "-e": -e, "d,-d": np.vstack([d, -d]),
            "d,d": np.vstack([d, d]),
            "mix": np.vstack([e[i], d, -e[i], -d, rng.normal(size=n), d])}[kind]


class TestSharedRows:
    """A normal +-e_i reads box row i, a normal equal to +- an earlier
    one that one's row, and every normal the one formula N c + q."""

    def test_table_rows(self):
        e = np.eye(3)
        d, f = np.array([1.0, 2.0, 0.0]), np.array([0.0, -1.0, 0.5])
        negzero = np.array([-0.0, 1.0, -0.0])  # e_1 with negative zeros
        normals = np.vstack([e[1], -e[0], d, -d, f, d, -e[1], negzero,
                             2 * e[0], -f])
        rows, cols = _table_rows(normals)
        assert np.array_equal(rows, [d, f, 2 * e[0]])
        assert cols.tolist() == [1, 0, 3, 3, 4, 3, 1, 1, 5, 4]
        axis, entry = _axes(normals)
        assert axis.tolist() == [1, 0, -1, -1, -1, -1, 1, 1, -1, -1]
        assert np.array_equal(entry[axis >= 0], [1.0, -1.0, -1.0, 1.0])
        rows, cols = _table_rows(np.empty((0, 3)))
        assert rows.shape == (0, 3) and cols.shape == (0,)

    def test_support_reads_axes_and_records(self):
        # +-e_i off the box, recorded normals off supports, and the rest
        # replayed together; also on a result that records no normals
        e, d = np.eye(3), np.array([0.3, -0.2, 0.5])
        dirs = np.vstack([-e[1], [0.0, -1.0, 1.0], d, e[0], 2 * d])
        model = discrete_model(reduction="interval", period=7)
        res = ors_reach(model)
        nominal = nominal_reach(model.a, model.initial, 30)
        for flowpipe, rest in ((res, [2, 4]), (nominal, [1, 2, 4])):
            got = flowpipe.support(dirs)
            assert got.shape == (len(flowpipe), 5)
            assert (-got[:, 0]).tobytes() == flowpipe.lo[:, 1].tobytes()
            assert got[:, 3].tobytes() == flowpipe.hi[:, 0].tobytes()
            assert got[:, rest].tobytes() == flowpipe._computed_support(
                dirs[rest]).tobytes()
        assert res.support(dirs)[:, 1].tobytes() == res.supports[:, 1].tobytes()

    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_random_models(self, reduction):
        # axis supports are the box bitwise, every support is the star
        # operations', repeated normals record the same bits, and a run
        # cut by until_unsafe is a bitwise prefix of the full run
        rng = np.random.default_rng([28, len(reduction)])
        cut = 0
        for trial in range(12):
            model = random_model(rng, reduction, f"rows{trial}")
            for kind in ("e", "-e", "d,-d", "d,d", "mix"):
                normals = normal_set(rng, model.dim, kind)
                m = dataclasses.replace(model, unsafe=tuple(
                    HalfSpace(d, 1.0) for d in normals))
                full = ors_reach(m)
                axis, entry = _axes(normals)
                for j in np.flatnonzero(axis >= 0):
                    sup, i = full.supports[:, j], axis[j]
                    if entry[j] > 0:
                        assert sup.tobytes() == full.hi[:, i].tobytes()
                    else:
                        assert np.array_equal(sup, -full.lo[:, i])
                if kind in ("d,d", "mix"):
                    twice = [1, 5] if kind == "mix" else [0, 1]
                    assert np.array_equal(*full.supports[:, twice].T)
                assert_close(full.supports, reference_flowpipe(m)[3])
                k = int(rng.integers(len(full)))
                offsets = np.where(np.arange(len(normals)) == k % len(normals),
                                   full.supports[k], np.finfo(float).max)
                o = with_offsets(m, offsets)
                res = reach_with_perturbation(o, o.perturbation(),
                                              until_unsafe=True)
                cut += len(res) < len(full)
                for got, ref in ((res.lo, full.lo), (res.hi, full.hi),
                                 (res.supports, full.supports),
                                 (res.gen_counts, full.gen_counts)):
                    assert got.tobytes() == ref[:len(res)].tobytes(), (trial, kind)
        assert cut >= 5 or reduction == "none"


class TestBoxesIgnoreTheNormals:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_boxes_do_not_depend_on_the_normals(self, monkeypatch, n, reduction):
        # the box rows are summed in products of their own, so a flowpipe
        # that records 1 to 5 non-axis normals has the boxes of one that
        # records none, bit for bit, across chunks and reductions, on the
        # path picked (orders 1 and 2 take the recurrence) and the table's
        m, theta, _ = chunk_case(n)
        horizon = 3 * _chunk_steps(n) + 2
        for path in paths(monkeypatch, m, theta):
            rng = np.random.default_rng([28, n])
            bare = _run_recurrence(m, theta, horizon, reduction, 7, "numeric",
                                   np.empty((0, n)))
            for count in range(1, 6):
                res = _run_recurrence(m, theta, horizon, reduction, 7, "numeric",
                                      rng.normal(size=(count, n)))
                assert res.hi.tobytes() == bare.hi.tobytes(), (path, count)
                assert res.lo.tobytes() == bare.lo.tobytes(), (path, count)


def warm_peak(call):
    """tracemalloc's largest peak in bytes over three calls, after one
    untraced call: a first call's caches would count, and a warm peak
    drifts down over repeated calls, so one call would give a peak that
    depends on which tests ran first."""
    call()
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks)


def ors_reach_peak(model):
    """warm_peak of the model's ors_reach."""
    return warm_peak(lambda: ors_reach(model))


def chunk_case(n):
    """Discrete one-step family, box and normals for the chunk-edge tests.

    The family is centred on a matrix of spectral radius about 0.95, so
    that long horizons stay finite, plus a small nonzero offset; it has
    point entries and a point row, Theta a flat coordinate.  The families
    of order 1 and 2 are orthant-monotone (engine._orthant_signature) and
    take the recurrence; the tests of the table path force it on them.
    """
    rng = np.random.default_rng([2005, n])
    abar = rng.uniform(-1, 1, (n, n))
    abar *= 0.95 / max(np.max(np.abs(np.linalg.eigvals(abar))), 1e-3)
    centre = abar + rng.normal(scale=0.01, size=(n, n))
    rad = rng.uniform(0, 0.02, (n, n)) * (rng.random((n, n)) < 0.7)
    rad[0] = 0.0
    lo = rng.uniform(-1, 1, n)
    hi = lo + rng.uniform(0.1, 1, n)
    hi[n - 1] = lo[n - 1]
    return (IntervalMatrix(centre - rad, centre + rad), Box(lo, hi),
            rng.normal(size=(2, n)))


def with_offsets(model, offsets):
    return dataclasses.replace(model, unsafe=tuple(
        HalfSpace(hs.normal, float(o)) for hs, o in zip(model.unsafe, offsets)))


def invariant_step(res, model):
    """The first interval reduction step whose box, read from the
    flowpipe's bounds, lies inside Theta's or an earlier reduction step's
    box, or None."""
    if model.reduction_method != "interval":
        return None
    restarts = [0]
    for t in range(model.reduction_period, model.horizon + 1,
                   model.reduction_period):
        if any(np.all(res.lo[t] >= res.lo[s]) and np.all(res.hi[t] <= res.hi[s])
               for s in restarts):
            return t
        restarts.append(t)
    return None


class TestUntilUnsafe:
    @pytest.mark.parametrize("make", [
        lambda r: discrete_model(reduction=r, period=7),
        short_acc4,
        lambda r: shipped_girad(reduction=r, period=50),
        lambda r: grow2_model(reduction=r, period=300),
        lambda r: shipped_girad(horizon=1000, reduction=r, period=37),
    ], ids=["discrete", "acc4", "girad", "grow2", "girad-invariant"])
    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_truncation_is_a_prefix(self, make, reduction):
        # the flowpipe ends with the segment (up to a reduction step, or
        # to the horizon) of the first violation, and equals the first K
        # steps of the full flowpipe bitwise; a safe model runs in full,
        # or under interval reduction up to the first restart box inside
        # an earlier one
        model = make(reduction)
        period = (model.reduction_period if reduction != "none"
                  else model.horizon + 1)
        sups = ors_reach(model).supports
        finite = np.isfinite(sups).all(axis=1)
        last = int(np.count_nonzero(finite)) - 1
        big = np.full(sups.shape[1], np.finfo(float).max)
        cases = [big]  # safe, unless a set overflows
        for k in (0, 1, last // 3, last // 2, last):
            cases.append(np.where(np.arange(len(big)) == k % len(big),
                                  sups[k], big))
        for offsets in cases:
            m = with_offsets(model, offsets)
            full = reach_with_perturbation(m, m.perturbation())
            cut = reach_with_perturbation(m, m.perturbation(),
                                          until_unsafe=True)
            verdict = safety_check(full, m.unsafe)
            if verdict.safe:
                t2 = invariant_step(full, m)
                want = model.horizon + 1 if t2 is None else min(
                    model.horizon + 1, t2)
                assert (cut.invariant is None) == (t2 is None)
                if t2 is not None:
                    assert cut.invariant[1] == t2
            else:
                want = min(model.horizon + 1,
                           (verdict.step // period + 1) * period)
            assert len(cut) == want and cut._recurrence[2] == want - 1
            for got, ref in ((cut.lo, full.lo), (cut.hi, full.hi),
                             (cut.supports, full.supports),
                             (cut.gen_counts, full.gen_counts),
                             (cut.labels, full.labels)):
                assert np.array_equal(got, ref[:want])
            assert safety_check(cut, m.unsafe) == verdict

    def test_unbounded_set_ends_the_flowpipe(self):
        # no offset is reached before the overflow: grow2's at step 1419,
        # in the fifth segment of 300 steps, and the blowup's at step 31,
        # a zonotope reduction step, which starts the segment up to 62
        for model, overflow, length in (
                (grow2_model(reduction="interval", period=300), 1419, 1500),
                (blowup_model("zonotope", 31, horizon=80), 31, 62)):
            model = with_offsets(model, [np.finfo(float).max])
            full = ors_reach(model)
            cut = reach_with_perturbation(model, model.perturbation(),
                                          until_unsafe=True)
            assert len(full) == model.horizon + 1 and len(cut) == length
            for got, ref in ((cut.lo, full.lo), (cut.hi, full.hi),
                             (cut.supports, full.supports),
                             (cut.gen_counts, full.gen_counts)):
                assert np.array_equal(got, ref[:length])
            assert np.all(np.isfinite(cut.hi[:overflow]))
            assert np.all(cut.hi[overflow:] == np.inf)
            assert safety_check(cut, model.unsafe).step == overflow


def vertex_steps(family, model):
    """One-step matrices of the vertex members of a dynamics family: each
    uncertain cell at one end of its interval."""
    cells = np.argwhere(family.lo != family.hi)
    for ends in itertools.product((False, True), repeat=len(cells)):
        e = family.lo.copy()
        for (i, j), end in zip(cells, ends):
            if end:
                e[i, j] = family.hi[i, j]
        yield scipy.linalg.expm(e * model.step) if model.continuous else e


def assert_invariant_encloses(res, family, model, periods=5):
    """Vertex-member trajectories from Theta's corners over `periods`
    horizons lie, at every step t >= t1, in the box of step
    t1 + (t - t1) mod (t2 - t1) of the certified flowpipe (before t1 in
    their own step's box), within a relative 1e-9."""
    t1, t2 = res.invariant
    assert 0 <= t1 < t2 == len(res)
    steps = np.arange(periods * model.horizon + 1)
    box = np.where(steps < t2, steps, t1 + (steps - t1) % (t2 - t1))
    lo, hi = res.lo[box][:, :, None], res.hi[box][:, :, None]
    tol = 1e-9 * np.maximum(np.abs(lo), np.abs(hi))
    corners = np.array(list(itertools.product(
        *zip(model.initial.lo, model.initial.hi)))).T
    for f in vertex_steps(family, model):
        x = np.empty((len(steps),) + corners.shape)
        x[0] = corners
        for t in steps[1:]:
            x[t] = f @ x[t - 1]
        assert np.all(x >= lo - tol) and np.all(x <= hi + tol)


def random_contracting_model(rng, continuous):
    n = int(rng.integers(1, 4))
    a = rng.uniform(-1, 1, (n, n))
    if continuous:
        a -= (np.max(np.linalg.eigvals(a).real) + rng.uniform(0.2, 1.0)) * np.eye(n)
    else:
        a *= rng.uniform(0.5, 0.95) / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-3)
    cells = rng.permutation([(i, j) for i in range(n) for j in range(n)])
    lo = rng.uniform(-1, 1, n)
    return ModelSpec(
        name="contracting", a=a,
        uncertainty=tuple(CellUncertainty(int(i), int(j),
                                          relative=float(rng.uniform(0, 0.05)))
                          for i, j in cells[:int(rng.integers(1, 4))]),
        initial=Box(lo, lo + rng.uniform(0.05, 0.5, n)),
        horizon=int(rng.integers(40, 120)), continuous=continuous,
        step=float(rng.uniform(0.05, 0.3)) if continuous else None,
        unsafe=(HalfSpace(rng.normal(size=n), 5.0 * n),),
        reduction_method="interval", reduction_period=int(rng.integers(1, 13)))


class TestInvariantStop:
    @pytest.mark.parametrize("budget", [0.05, 0.1, 0.2, 0.25])
    def test_shipped_budgets_are_safe_for_all_time(self, budget):
        # girad1's safe trials in the benchmark's search, with the search's
        # own Lambda_p bit for bit: the hull at step 1000 lies in the hull
        # at 500, so the flowpipe ends at step 1000
        model = shipped("girad1")
        pert = dataclasses.replace(model, uncertainty=tuple(
            CellUncertainty(i, j, relative=budget)
            for i, j in ((0, 0), (1, 0)))).perturbation()
        family = _add_outward(model.a, pert)
        cut = reach_with_perturbation(model, pert, until_unsafe=True)
        full = reach_with_perturbation(model, pert)
        assert cut.invariant == (500, 1000) and len(cut) == 1000
        assert cut._recurrence[2] == 999
        assert safety_check(cut, model.unsafe).safe
        assert safety_check(full, model.unsafe).safe and full.invariant is None
        for got, ref in ((cut.lo, full.lo), (cut.hi, full.hi),
                         (cut.supports, full.supports),
                         (cut.gen_counts, full.gen_counts)):
            assert np.array_equal(got, ref[:1000])
        assert_invariant_encloses(cut, family, model)

    @pytest.mark.parametrize("continuous", [False, True])
    def test_random_contracting_models(self, continuous):
        rng = np.random.default_rng(17 + continuous)
        certified = 0
        for trial in range(25):
            model = random_contracting_model(rng, continuous)
            cut = reach_with_perturbation(model, model.perturbation(),
                                          until_unsafe=True)
            if cut.invariant is None:
                continue
            certified += 1
            assert len(cut) <= model.horizon
            assert safety_check(ors_reach(model), model.unsafe).safe, trial
            assert_invariant_encloses(
                cut, _add_outward(model.a, model.perturbation()), model)
        assert certified >= 3

    def test_only_interval_reduction_certifies(self):
        # a zonotope reduction would need zonotope-in-zonotope containment,
        # no reduction has no restarts, and ors_reach never stops early
        model = shipped("girad1")
        assert reach_with_perturbation(model, model.perturbation(),
                                       until_unsafe=True).invariant == (1000, 1500)
        full = ors_reach(model)
        assert full.invariant is None and len(full) == model.horizon + 1
        for reduction in ("none", "zonotope"):
            other = dataclasses.replace(model, reduction_method=reduction)
            cut = reach_with_perturbation(other, other.perturbation(),
                                          until_unsafe=True)
            assert cut.invariant is None and len(cut) == model.horizon + 1
        # without until_unsafe no step is checked, so none is certified
        assert reach_with_perturbation(model, model.perturbation()).invariant is None

    def test_containment_rounds_against_itself(self):
        # _inside grants only what exact arithmetic grants: boxes at an ulp
        # from the boundary against Fractions, and a tie refused
        rng = np.random.default_rng(171)
        granted = 0
        for _ in range(3000):
            n = int(rng.integers(1, 4))
            c1 = rng.uniform(-2, 2, n) * 10.0 ** rng.integers(-3, 4)
            r1 = rng.uniform(0, 1, n) * 10.0 ** rng.integers(-3, 4)
            c2 = c1 + rng.uniform(-1, 1, n) * r1 * rng.choice([1e-16, 1e-8, 0.5])
            r2 = np.nextafter(r1 - np.abs(c2 - c1),
                              rng.choice([-np.inf, np.inf], n))
            r2 = np.maximum(r2, 0.0)
            exact = all(abs(Fraction(x) - Fraction(y)) + Fraction(r) <= Fraction(s)
                        for x, y, r, s in zip(c2, c1, r2, r1))
            got = _inside(c2, r2, c1, r1)
            assert not got or exact
            granted += got
        assert granted > 100
        c, r = np.array([0.3]), np.array([0.2])
        assert not _inside(c, r, c, r)
        assert _inside(c, 0.5 * r, c, r)
        # 1 - 2^-53 + 1.5 2^-53 rounds to 1 = r1, yet exceeds it
        assert not _inside(np.array([1.5 * 2.0 ** -53]), np.array([1 - 2.0 ** -53]),
                           np.array([0.0]), np.array([1.0]))
        assert not _inside(np.array([np.nan]), r, c, r)
        # a point component at the same centre is inside, as in exact
        # arithmetic, unless the outer box is NaN there
        c, z = np.array([0.3, 1.0]), np.array([0.2, 0.0])
        assert _inside(c, 0.5 * z, c, z)
        assert not _inside(c, 0.5 * z, c, np.array([0.2, np.nan]))
        assert not _inside(c + [0.0, 2.0 ** -52], 0.5 * z, c, z)

    def test_heat_rod_64_peak_memory(self):
        # the rod is orthant-monotone (exp of a Metzler matrix), so its
        # recurrence holds no table: 1.76 MB.  On the table path it took
        # 4.7 MB, 3.4 MB of it the table of 101 ages of |P^a|; a separate
        # powers array would add 3.3 MB, and interval_expm's (n, n, n)
        # endpoint products without row chunks 5.7 MB
        assert ors_reach_peak(heat_rod(64)) < 2.2e6

    def test_heat_rod_64_discretize_peak(self, monkeypatch):
        # the endpoint products of interval_expm's series take at most three
        # temporaries, of _CHUNK_ENTRIES products a chunk, where the
        # broadcast kernel took five and numpy's operand buffers: the peak
        # of discretize (0.53 MB, set by the squarings) is at most that
        # with the broadcast kernel.  Each is its least warm peak over
        # three alternations, as the interpreter's free lists settle (the
        # first differ by up to 72 bytes either way)
        rod = heat_rod(64)
        pert = rod.perturbation()
        peaks = {intervals._endpoint_product: [], broadcast_product: []}
        for _ in range(3):
            for kernel, got in peaks.items():
                monkeypatch.setattr(intervals, "_endpoint_product", kernel)
                got.append(warm_peak(lambda: discretize(rod.a, pert, rod.step)))
        kernel, broadcast = (min(got) for got in peaks.values())
        assert kernel <= broadcast

    def test_heat_rod_64_is_finite_and_safe(self):
        # the 64-cell heat rod of the scaling probe: its one-step family,
        # at ||A (+) Lambda||_F h = 8.26, is scaled and squared, where the
        # unscaled series gave a family so wide that the flowpipe left
        # float range at step 196; now every step is finite, the verdict
        # safe, without a RuntimeWarning
        rod = heat_rod(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = ors_reach(rod)
            verdict = safety_check(res, rod.unsafe)
        assert len(res) == 1001 and verdict.safe
        assert np.all(np.isfinite(res.lo)) and np.all(np.isfinite(res.hi))
        assert_contains_vertex_trajectories(np.random.default_rng(64), rod,
                                            res.lo, res.hi, "rod64")


def switching_trajectories(model, choose):
    """From each corner of Theta (one column each), the state at every grid
    step when each step takes the floating-point expm of the vertex member
    of A (+) Lambda over the model's cells that choose(gain) picks per
    column, gain[m, c] = x_c^T V_m x_c."""
    family = _add_outward(model.a, model.perturbation())
    cells = [(c.row, c.col) for c in model.uncertainty]
    vertices = []
    for ends in itertools.product((False, True), repeat=len(cells)):
        up = np.zeros(family.shape, dtype=bool)
        for (i, j), end in zip(cells, ends):
            up[i, j] = end
        vertices.append(np.where(up, family.hi, family.lo))
    vertices = np.array(vertices)
    steps = np.array([scipy.linalg.expm(v * model.step) for v in vertices])
    x = np.array(list(itertools.product(
        *zip(model.initial.lo, model.initial.hi)))).T
    for _ in range(model.horizon + 1):
        yield x
        gain = np.einsum("ic,mij,jc->mc", x, vertices, x)
        x = np.einsum("cij,jc->ic", steps[choose(gain)], x)


def greedy(gain):
    # the member whose A + E most raises d|x|^2/dt = 2 x^T (A + E) x
    return gain.argmax(axis=0)


class TestTimeVaryingFamily:
    # one numeric flowpipe encloses every trajectory of a time-varying
    # E(t) in Lambda at grid times, not only of a constant E (Althoff,
    # Le Guernic & Krogh, HSCC 2011)
    def test_greedy_switching_stays_inside(self):
        # girad1's benchmark cells under the equal scheme, switching
        # greedily from each corner of Theta
        model = shipped("girad1")
        peaks = {}
        for budget in (0.25, 0.6):
            spec = dataclasses.replace(model, uncertainty=tuple(
                CellUncertainty(i, j, relative=budget) for i, j in ((0, 0), (1, 0))))
            res = reach_with_perturbation(spec, spec.perturbation())
            peak = -np.inf
            for k, x in enumerate(switching_trajectories(spec, greedy)):
                assert np.all(x >= res.lo[k][:, None] - 1e-9), (budget, k)
                assert np.all(x <= res.hi[k][:, None] + 1e-9), (budget, k)
                peak = max(peak, x[0].max())
            peaks[budget] = peak
        # at 0.6 switching crosses the unsafe x1 = 2, so no flowpipe can
        # prove that budget safe; at 0.25 it never leaves Theta's x1 <= 1.1
        assert peaks[0.25] < 2.0 < peaks[0.6]

    def test_random_families_switching_stays_inside(self):
        # continuous 2 x 2 and 3 x 3 families with relative and interval
        # cells, unreduced and under interval reduction: from each corner
        # of Theta, switching at random and greedily per step stays in the
        # flowpipe's boxes
        rng = np.random.default_rng(17)
        seen = set()
        for trial in range(48):
            n = 2 + trial % 2
            reduction = ("none", "interval")[trial // 2 % 2]
            a = rng.uniform(-1, 1, (n, n))
            a -= (np.max(np.linalg.eigvals(a).real)
                  + rng.uniform(-0.1, 0.5)) * np.eye(n)
            flat = rng.choice(n * n, size=int(rng.integers(1, 4)), replace=False)
            cells = []
            for f in flat:
                i, j = divmod(int(f), n)
                if rng.random() < 0.5:
                    cells.append(CellUncertainty(
                        i, j, relative=float(rng.uniform(0, 0.3))))
                else:
                    ends = a[i, j] + np.sort(rng.uniform(-0.2, 0.2, 2))
                    cells.append(CellUncertainty(i, j, interval=tuple(ends)))
                seen.add("relative" if cells[-1].relative is not None
                         else "interval")
            lo = rng.uniform(-1, 1, n)
            model = ModelSpec(
                name="switching", a=a, uncertainty=tuple(cells),
                initial=Box(lo, lo + rng.uniform(0.05, 0.5, n)),
                horizon=int(rng.integers(20, 60)), continuous=True,
                step=float(rng.uniform(0.05, 0.2)),
                reduction_method=reduction,
                reduction_period=int(rng.integers(1, 13)))
            res = reach_with_perturbation(model, model.perturbation())
            for choose in (greedy, lambda gain: rng.integers(
                    len(gain), size=gain.shape[1])):
                for k, x in enumerate(switching_trajectories(model, choose)):
                    tol = 1e-9 * (1.0 + np.abs(x))
                    assert np.all(x >= res.lo[k][:, None] - tol), (trial, k)
                    assert np.all(x <= res.hi[k][:, None] + tol), (trial, k)
            seen.add((n, reduction))
        assert seen == {"relative", "interval", (2, "none"), (3, "none"),
                        (2, "interval"), (3, "interval")}


class TestChunkBoundaries:
    """Horizons and reduction periods on both sides of the chunk length B."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("reduction,period", [
        ("none", "beyond"),
        *((r, p) for r in ("interval", "zonotope")
          for p in (1, 7, "B", "B+3", "beyond"))])
    def test_matches_star_operations(self, monkeypatch, n, reduction, period):
        # orders 1 and 2 on the recurrence as picked, then on the table path
        b = _chunk_steps(n)
        m, theta, normals = chunk_case(n)
        for path in paths(monkeypatch, m, theta):
            for horizon in (0, 1, b - 1, b, b + 1, 3 * b + 2):
                per = {"B": b, "B+3": b + 3, "beyond": horizon + 5}.get(
                    period, period)
                res = _run_recurrence(m, theta, horizon, reduction, per,
                                      "numeric", normals)
                _, lo, hi, supports, counts = reference_run(
                    m, theta, horizon, reduction, per, normals)
                assert_close(res.lo, lo)
                assert_close(res.hi, hi)
                assert_close(res.supports, supports)
                assert np.array_equal(res.gen_counts, counts), (path, horizon)
                assert_replay_matches(res)


# one step a chunk, the shipped rule, and one chunk a span (a chunk is at
# most span + 1 steps)
CHUNK_RULES = {"one": lambda n: 1, "shipped": _chunk_steps,
               "span": lambda n: 10 ** 9}


class TestChunkRule:
    """Every chunk length gives the star operations' flowpipe: the same
    boxes and supports up to rounding, the same generator counts, and
    runs cut by `until` that are bitwise prefixes of the full runs."""

    @staticmethod
    def assert_rules_agree(monkeypatch, m, theta, horizon, reduction, period,
                           normals, rng):
        _, lo, hi, supports, counts = reference_run(m, theta, horizon,
                                                    reduction, period, normals)
        k = int(rng.integers(horizon + 1))
        for rule, steps in CHUNK_RULES.items():
            monkeypatch.setattr(engine, "_chunk_steps", steps)
            res = _run_recurrence(m, theta, horizon, reduction, period,
                                  "numeric", normals)
            assert_close(res.lo, lo)
            assert_close(res.hi, hi)
            assert_close(res.supports, supports)
            assert np.array_equal(res.gen_counts, counts), rule
            # stop with the segment in which normal 0 reaches its support
            # at step k
            until = np.full(len(normals), np.finfo(float).max)
            until[0] = res.supports[k, 0]
            cut = _run_recurrence(m, theta, horizon, reduction, period,
                                  "numeric", normals, until)
            assert len(cut) <= len(res)
            for got, ref in ((cut.lo, res.lo), (cut.hi, res.hi),
                             (cut.supports, res.supports),
                             (cut.gen_counts, res.gen_counts)):
                assert got.tobytes() == ref[:len(cut)].tobytes(), rule

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_chunk_cases(self, monkeypatch, n, reduction):
        # the chunk rules are the table path's: orders 1 and 2, which take
        # the recurrence as picked, run the table here
        table_path(monkeypatch)
        b = _chunk_steps(n)
        m, theta, normals = chunk_case(n)
        rng = np.random.default_rng([39, n])
        for horizon, period in ((b - 1, 7), (b + 1, b), (3 * b + 2, b + 3),
                                (3 * b + 2, 3 * b + 7)):
            self.assert_rules_agree(monkeypatch, m, theta, horizon, reduction,
                                    period, normals, rng)

    @pytest.mark.parametrize("name", ["acc4", "girad1", "twocell", "grow1d"])
    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_shipped_models(self, monkeypatch, name, reduction):
        # acc4, twocell and grow1d take the recurrence of an orthant-monotone
        # family as shipped: every shipped model runs the table path here
        table_path(monkeypatch)
        model = dataclasses.replace(shipped(name), reduction_method=reduction)
        normals = np.vstack([hs.normal for hs in model.unsafe])
        self.assert_rules_agree(
            monkeypatch, one_step_family(model), model.initial, model.horizon,
            reduction, model.reduction_period, normals,
            np.random.default_rng(len(name)))

    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_overflow_falls_back_to_one_step_a_chunk(self, monkeypatch, reduction):
        # the blowup's table reaches 1e10^a at age a: over a span of 7 its
        # in-chunk table is finite, over 31 or 80 it overflows and every
        # rule falls back to one step a chunk, whose window spans the whole
        # table, so the runs are bitwise alike.  Every run is unbounded
        # from step 31 and counts its generators as the product recount.
        # a = -1e10 keeps the table path
        model = blowup_model(reduction, horizon=80, a=-1e10)
        m = one_step_family(model)
        p, lr = _centre_radius(m.lo, m.hi)
        for period in (7, 31):
            span = period if reduction != "none" else 80
            o = with_offsets(dataclasses.replace(model, reduction_period=period),
                             [np.finfo(float).max])
            runs = {}
            for rule, steps in CHUNK_RULES.items():
                monkeypatch.setattr(engine, "_chunk_steps", steps)
                with np.errstate(over="ignore", invalid="ignore"):
                    tables = engine._Tables(p, lr, np.empty((0, 1)), span, False)
                chunk = 1 if span > 7 else min(steps(1), span + 1)
                assert tables.chunk == chunk, rule
                assert tables.ages.shape == (1, chunk, span + 2 - chunk)
                runs[rule] = [reach_with_perturbation(o, o.perturbation(),
                                                      until_unsafe=until)
                              for until in (False, True)]
                for res in runs[rule]:
                    assert np.all(np.isfinite(res.hi[:31]))
                    assert np.all(res.hi[31:] == np.inf)
                    assert np.array_equal(res.gen_counts, product_recount(res, o))
            if span > 7:
                for rule in ("shipped", "span"):
                    for got, want in zip(runs[rule], runs["one"]):
                        assert got.lo.tobytes() == want.lo.tobytes(), rule
                        assert got.hi.tobytes() == want.hi.tobytes(), rule


def product_recount(res, model):
    """Generator counts recounted as one product over the flowpipe: |S|
    (radius_components) at step 0 and at an interval reduction step, at
    a zonotope reduction step the count so far up to 2n and n + |S|
    past it, and at every other step the count
    before plus the nonzero entries of Lr (|c_j| + q_j[:n]), the fresh
    block the step receives; from the first unbounded step on, none.
    |c_j| + q_j[:n] is max(hi_j, -lo_j) bitwise, as c + q and c - q
    round alike.  A zonotope reduction at an unbounded step does not
    run, so it restarts nothing."""
    n, count = model.dim, len(res)
    family = one_step_family(model)
    lr = _centre_radius(family.lo, family.hi)[1]
    finite = np.isfinite(res.lo).all(axis=1) & np.isfinite(res.hi).all(axis=1)
    bad = count if finite.all() else int(np.argmin(finite))
    added = np.zeros(count, dtype=np.int64)
    v = np.maximum(res.hi, -res.lo)[:bad]
    with np.errstate(over="ignore"):  # a block may overflow before bad
        added[1:bad + 1] = np.count_nonzero(v @ lr.T, axis=1)[:count - 1]
    s = len(radius_components(family, model.initial))
    counts = np.empty(count, dtype=np.int64)
    counts[0] = s
    for k in range(1, count):
        counts[k] = counts[k - 1] + added[k]
        if model.reduction_method != "none" and k % model.reduction_period == 0:
            if model.reduction_method == "interval" and k <= bad:
                counts[k] = s
            elif model.reduction_method == "zonotope" and k < bad:
                counts[k] = counts[k] if counts[k] <= 2 * n else n + s
    return counts


def pinned_model(rng, reduction, name):
    """random_model with one or more pinned inputs, n >= 2: zero rows of
    A, x_p' = 0 (x_p = x_p on a discrete model, whose row is e_p), no
    uncertain cell in them, and Theta a point there; the other
    components read them (A[free, pins] != 0), but no radius reaches
    them, so they are outside S."""
    while True:
        model = random_model(rng, reduction, name)
        if model.dim >= 2:
            break
    n = model.dim
    pins = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
    a = model.a.copy()
    a[pins] = 0.0 if model.continuous else np.eye(n)[pins]
    free = np.setdiff1d(np.arange(n), pins)
    a[np.ix_(free, pins)] += rng.uniform(0.1, 0.5, (len(free), len(pins)))
    cells = tuple(c for c in model.uncertainty if c.row not in pins)
    cells = tuple(dataclasses.replace(c, interval=(a[c.row, c.col] - 0.01,
                                                   a[c.row, c.col] + 0.01))
                  for c in cells)
    lo, hi = model.initial.lo.copy(), model.initial.hi.copy()
    lo[pins] = hi[pins] = rng.choice([1.0, -0.5, 0.0])
    return dataclasses.replace(model, a=a, uncertainty=cells,
                               initial=Box(lo, hi)), pins


def family_signature(m, theta):
    """engine._orthant_signature of the one-step family m's centre on S,
    from the box theta: None where the family takes the table path."""
    p, lr = _centre_radius(m.lo, m.hi)
    at = engine._radius_components(p, lr, theta.radius)
    return engine._orthant_signature(p[at][:, at])


def signature_on_s(model):
    """family_signature of the model's one-step family from Theta."""
    return family_signature(one_step_family(model), model.initial)


def table_path(monkeypatch):
    """Run every flowpipe on the table path (engine._Tables)."""
    monkeypatch.setattr(engine, "_orthant_signature", lambda p: None)


def paths(monkeypatch, m, theta):
    """The paths a test of the family m from theta runs its loop body on:
    the one picked, then, where that is the recurrence, the table path,
    forced from then on."""
    yield "picked"
    if family_signature(m, theta) is not None:
        table_path(monkeypatch)
        yield "table"


def every_component(monkeypatch):
    """Run the recurrence on every component: S as the whole state."""
    monkeypatch.setattr(engine, "_radius_components",
                        lambda p, lr, r: slice(0, len(p)))


def permuted(model, perm):
    """The model in the coordinates x[perm]: component i is perm[i]."""
    where = np.argsort(perm)  # the new index of each old component
    return dataclasses.replace(
        model, a=model.a[np.ix_(perm, perm)],
        uncertainty=tuple(dataclasses.replace(c, row=int(where[c.row]),
                                              col=int(where[c.col]))
                          for c in model.uncertainty),
        initial=Box(model.initial.lo[perm], model.initial.hi[perm]),
        unsafe=tuple(HalfSpace(h.normal[perm], h.offset) for h in model.unsafe))


class TestRadiusComponents:
    """The recurrence on S, the components that can carry a radius."""

    def test_shipped_models(self):
        # S is a slice on every shipped model: all components, or acc4's
        # first three; x4 moved to the middle makes it an index array
        want = {"acc4": slice(0, 3), "girad1": slice(0, 2), "twocell": slice(0, 2),
                "grow1d": slice(0, 1)}
        for name, components in want.items():
            model = shipped(name)
            p, lr = _centre_radius(*vars(one_step_family(model)).values())
            assert engine._radius_components(p, lr, model.initial.radius) == components
        model = permuted(shipped("acc4"), [0, 3, 1, 2])
        p, lr = _centre_radius(*vars(one_step_family(model)).values())
        got = engine._radius_components(p, lr, model.initial.radius)
        assert isinstance(got, np.ndarray) and got.tolist() == [0, 2, 3]

    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_pinned_acc4_input_stays_exact(self, reduction):
        # x4 is 1 at every step, exactly: no tail of interval_expm reaches
        # it, so no radius does; unreduced, 3 generators a step
        model = dataclasses.replace(shipped("acc4"), reduction_method=reduction,
                                    reduction_period=50)
        res = ors_reach(model)
        assert np.all(res.lo[:, 3] == 1.0) and np.all(res.hi[:, 3] == 1.0)
        if reduction == "none":
            assert res.gen_counts[-1] == 3 + 3 * model.horizon == 6153

    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_pinned_models_match_star_operations(self, reduction):
        # boxes and supports within 1e-12 of the star operations', equal
        # generator counts, pinned components exactly their value, and
        # within 1e-12 of the recurrence on every component; the normals
        # mix axes on pinned components with directions that mix pinned
        # and free ones.  Models with a signature on S run the recurrence,
        # the others the table path
        rng = np.random.default_rng([43, len(reduction)])
        outside = monotone = 0
        for trial in range(30):
            model, pins = pinned_model(rng, reduction, f"pinned{trial}")
            monotone += signature_on_s(model) is not None
            n = model.dim
            mixed = rng.normal(size=n)
            normals = np.vstack([np.eye(n)[pins[0]], -np.eye(n)[pins[-1]], mixed,
                                 rng.normal(size=n) * np.isin(np.arange(n), pins)])
            normals = normals[normals.any(axis=1)]
            model = dataclasses.replace(model, unsafe=tuple(
                HalfSpace(d, 1.0) for d in normals))
            res = ors_reach(model)
            _, lo, hi, supports, counts = reference_flowpipe(model)
            assert_close(res.lo, lo)
            assert_close(res.hi, hi)
            assert_close(res.supports, supports)
            assert np.array_equal(res.gen_counts, counts), trial
            value = model.initial.lo[pins]
            assert np.all(res.lo[:, pins] == value) and np.all(res.hi[:, pins] == value)
            at = radius_components(one_step_family(model), model.initial)
            outside += n - len(at)
            assert res.gen_counts[0] == len(at)
            assert_replay_matches(res)
        assert outside >= 30 and 0 < monotone < 30

    def test_every_component_is_the_plain_recurrence_bitwise(self, monkeypatch):
        # S given as every component by index takes the code path of a
        # proper S, and gives the bits of the recurrence on the whole state
        rng = np.random.default_rng(4301)
        for trial in range(24):
            reduction = ("none", "interval", "zonotope")[trial % 3]
            model = random_model(rng, reduction, f"all{trial}")
            model = dataclasses.replace(model, unsafe=(
                HalfSpace(rng.normal(size=model.dim), 1.0),
                HalfSpace(np.eye(model.dim)[0], 1.0)))
            every_component(monkeypatch)
            plain = ors_reach(model)
            monkeypatch.setattr(engine, "_radius_components",
                                lambda p, lr, r: np.arange(len(p)))
            indexed = ors_reach(model)
            for got, want in ((indexed.lo, plain.lo), (indexed.hi, plain.hi),
                              (indexed.supports, plain.supports),
                              (indexed.gen_counts, plain.gen_counts)):
                assert got.tobytes() == want.tobytes(), trial

    @pytest.mark.parametrize("reduction,period", [
        ("none", 500), ("interval", 500), ("zonotope", 50)])
    def test_scattered_s_matches_its_consecutive_permutation(self, reduction, period):
        # S as an index array (components not consecutive) against S as a
        # slice on the same model with its components reordered: acc4 with
        # x4 in the middle, and pinned models with a pinned input between
        # free components.  Boxes and supports within 1e-12, pinned
        # components exactly their value, counts and verdicts (safe, step
        # and half-space) equal
        def pair(model, scattered, consecutive):
            runs = []
            for perm in (scattered, consecutive):
                m = permuted(model, perm)
                p, lr = _centre_radius(*vars(one_step_family(m)).values())
                runs.append((engine._radius_components(p, lr, m.initial.radius),
                             ors_reach(m), m))
            (at, res, m), (at_c, res_c, m_c) = runs
            assert isinstance(at, np.ndarray) and isinstance(at_c, slice)
            back, back_c = np.argsort(scattered), np.argsort(consecutive)
            assert_close(res.lo[:, back], res_c.lo[:, back_c])
            assert_close(res.hi[:, back], res_c.hi[:, back_c])
            assert_close(res.supports, res_c.supports)
            assert np.array_equal(res.gen_counts, res_c.gen_counts)
            got, want = safety_check(res, m.unsafe), safety_check(res_c, m_c.unsafe)
            assert (got.safe, got.step, got.halfspace) == (want.safe, want.step,
                                                          want.halfspace)
            return res

        acc4 = dataclasses.replace(shipped("acc4"), reduction_method=reduction,
                                   reduction_period=period)
        res = pair(acc4, [0, 3, 1, 2], [0, 1, 2, 3])
        assert np.all(res.lo[:, 1] == 1.0) and np.all(res.hi[:, 1] == 1.0)
        rng = np.random.default_rng([4502, len(reduction)])
        pairs = 0
        while pairs < 12:
            model, pins = pinned_model(rng, reduction, f"scattered{pairs}")
            at = radius_components(one_step_family(model), model.initial)
            free = np.setdiff1d(np.arange(model.dim), pins)
            if len(at) < 2 or not np.array_equal(at, free):
                continue
            model = dataclasses.replace(model, unsafe=(
                HalfSpace(rng.normal(size=model.dim), 1.0),
                HalfSpace(-np.eye(model.dim)[pins[0]], 1.0)))
            scattered = np.r_[free[:1], pins, free[1:]]
            res = pair(model, scattered, np.r_[free, pins])
            value = model.initial.lo[pins]
            inner = np.isin(scattered, pins)
            assert np.all(res.lo[:, inner] == value) and np.all(res.hi[:, inner] == value)
            pairs += 1

    def test_empty_s_is_the_point_orbit(self):
        # no uncertainty and a point Theta: no component carries a radius,
        # so the recurrence runs on every component with zero radii; the
        # sets are the nominal orbit's points, and a 90-degree rotation
        # returns to Theta at step 4, where an interval reduction with
        # until_unsafe certifies the invariant (0, 4)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        theta = Box(np.array([1.0, 0.5]), np.array([1.0, 0.5]))
        for reduction, period in (("none", 500), ("interval", 4), ("zonotope", 3)):
            model = ModelSpec(name="spin", a=rot, uncertainty=(), initial=theta,
                              horizon=12, continuous=False,
                              unsafe=(HalfSpace(np.array([1.0, 1.0]), 5.0),
                                      HalfSpace(np.array([0.0, -1.0]), 5.0)),
                              reduction_method=reduction, reduction_period=period)
            res = ors_reach(model)
            assert np.array_equal(res.lo, res.hi)
            x = theta.lo
            for k in range(len(res)):
                assert np.array_equal(res.hi[k], x)
                x = rot @ x
            _, lo, hi, supports, counts = reference_flowpipe(model)
            assert_close(res.supports, supports)
            assert np.array_equal(res.gen_counts, counts)
            cut = reach_with_perturbation(model, model.perturbation(),
                                          until_unsafe=True)
            assert cut.invariant == ((0, 4) if reduction == "interval" else None)
        assert len(cut) == 13

    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_overflow_is_unbounded_from_the_same_step(self, monkeypatch, reduction):
        # grow2 with a pinned input feeding both states leaves float range
        # where the recurrence on every component does
        a = np.array([[1.0, -1.0, 0.5], [0.0, 2.0, 1.0], [0.0, 0.0, 0.0]])
        model = ModelSpec(
            name="grow2-input", a=a,
            uncertainty=tuple(CellUncertainty(i, j, interval=(a[i, j] - 1e-3,
                                                              a[i, j] + 1e-3))
                              for i in range(2) for j in range(3)),
            initial=Box(np.array([1.0, 0.0, 1.0]), np.array([2.0, 1.0, 1.0])),
            horizon=1600, continuous=True, step=0.25,
            unsafe=(HalfSpace(np.array([0.0, 1.0, 0.0]), 1e300),),
            reduction_method=reduction, reduction_period=300)
        firsts = []
        for whole in (False, True):
            if whole:
                every_component(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = ors_reach(model)
            bad = ~np.isfinite(res.hi).all(axis=1)
            assert bad.any() and np.all(bad[np.argmax(bad):])
            firsts.append(int(np.argmax(bad)))
            assert not np.isnan(res.lo).any() and not np.isnan(res.supports).any()
        assert firsts[0] == firsts[1]
        assert 1300 < firsts[0] < 1600


class TestGeneratorCounts:
    """Counts read off the history buffer against a product recount."""

    def test_segment_counts(self):
        # blocks youngest first, as the loop writes them: steps 3, 2, 1
        fresh = np.array([[0.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
        counts = _count_segment(None, 6, 1, 5, fresh)
        assert counts.dtype == np.int64 and len(counts) == 6
        assert np.array_equal(counts[1:5], [5, 7, 7, 8])
        # a later segment from step 4 overwrites step 4, and counts past
        # the size are dropped
        assert _count_segment(counts, 6, 4, 2, fresh) is counts
        assert np.array_equal(counts[1:], [5, 7, 7, 2, 4])

    def test_segment_count_temporaries(self):
        # a 500-step segment of n = 4, as acc4's: the mask and its row sums
        # in uint8 take 3.7 KB; an int64 sum of the mask of the reversed
        # blocks took 19.5 KB, which set acc4's peak.  Blocks of 300 radii
        # are summed in a wider type
        rng = np.random.default_rng(500)
        fresh = rng.random((500, 4)) * (rng.random((500, 4)) < 0.7)
        counts = np.empty(501, dtype=np.int64)
        _count_segment(counts, 501, 0, 4, fresh)
        tracemalloc.start()
        try:
            _count_segment(counts, 501, 0, 4, fresh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e3
        assert np.array_equal(counts, np.cumsum(np.concatenate(
            ([4], np.count_nonzero(fresh[::-1], axis=1)))))
        wide = np.ones((3, 300))
        wide[1, :7] = 0.0
        assert np.array_equal(_count_segment(None, 4, 0, 1, wide), [1, 301, 594, 894])

    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_random_models_match_product_recount(self, reduction):
        rng = np.random.default_rng([2021, len(reduction)])
        cut = 0
        for trial in range(30):
            model = random_model(rng, reduction, f"counts{trial}")
            model = dataclasses.replace(model, unsafe=(
                HalfSpace(rng.normal(size=model.dim), 1.0),))
            full = ors_reach(model)
            assert np.array_equal(full.gen_counts,
                                  product_recount(full, model)), trial
            # until_unsafe stops at the segment of a support at step k,
            # which without reduction ends at the horizon
            k = int(rng.integers(0, len(full)))
            m = with_offsets(model, full.supports[k])
            res = reach_with_perturbation(m, m.perturbation(), until_unsafe=True)
            cut += len(res) < len(full)
            assert np.array_equal(res.gen_counts, product_recount(res, m)), trial
        assert cut >= 5 or reduction == "none"

    def test_invariant_stops_match_product_recount(self):
        rng = np.random.default_rng(2105)
        certified = 0
        for continuous in (False, True):
            for trial in range(25):
                model = random_contracting_model(rng, continuous)
                res = reach_with_perturbation(model, model.perturbation(),
                                              until_unsafe=True)
                certified += res.invariant is not None
                assert np.array_equal(res.gen_counts,
                                      product_recount(res, model)), trial
        assert certified >= 3

    def test_one_girard_decision_per_reduction(self):
        # the segment loop decides once per zonotope reduction, from its
        # count, and _Tables.reduce keeps what it is told: on the table
        # path (girad1, seeded mixed-sign families) and in the side run of
        # a monotone family with a normal of two signs after D, the kept
        # count a call receives is Girard's rule on the live generators it
        # holds, the carried block, the oldest block in full if a box (else
        # zero) and the later blocks' nonzero radii
        calls, decisions = [], []
        reduce, girard = engine._Tables.reduce, engine._girard_kept

        def spy(tables, live, centre, kept, boxed):
            k, n = tables.lr.shape
            assert boxed or not live[len(live) - k:].any()
            count = (tables.carried.shape[1] + k * boxed
                     + np.count_nonzero(live[:len(live) - k]))
            calls.append((kept, count if count <= 2 * n else n))
            return reduce(tables, live, centre, kept, boxed)

        def decided(live, n):
            decisions.append(live)
            return girard(live, n)

        rng = np.random.default_rng(4901)
        models = [shipped("girad1")]
        while len(models) < 13:
            model = random_model(rng, "zonotope", f"mixed{len(models)}")
            if signature_on_s(model) is None:
                models.append(dataclasses.replace(model, unsafe=(
                    HalfSpace(rng.normal(size=model.dim), 1.0),)))
        sides = 0
        while sides < 4:
            model = monotone_model(rng, bool(sides % 2), f"two{sides}")
            d, n = signature_on_s(model), model.dim
            if d is None or n < 2 or len(d) < n:
                continue
            v = rng.uniform(0.1, 1.0, n)
            v[int(rng.integers(n))] *= -1.0
            models.append(dataclasses.replace(model, unsafe=model.unsafe + (
                HalfSpace(d * v, 1e6),)))
            sides += 1
        boxing = set()
        for i, base in enumerate(models):
            for period in (3, 7, 13):
                model = dataclasses.replace(base, reduction_method="zonotope",
                                            reduction_period=period)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(engine._Tables, "reduce", spy)
                    mp.setattr(engine, "_girard_kept", decided)
                    calls.clear()
                    decisions.clear()
                    res = ors_reach(model)
                assert len(calls) == len(decisions), (i, period)
                assert all(kept == rule for kept, rule in calls), (i, period)
                assert np.array_equal(res.gen_counts, product_recount(res, model))
                assert len(calls) == (len(res) - 1) // period, (i, period)
                if any(kept < live for (kept, _), live in zip(calls, decisions)):
                    boxing.add(i > 12)  # a side run's reduction boxed
        assert boxing == {False, True}

    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_overflow_matches_product_recount(self, reduction):
        # the blowup leaves float range at step 31: in a chunk (period 7)
        # and at a reduction step (period 31), run in full and cut, on the
        # recurrence (a = 1e10) and the table path (a = -1e10)
        for period, a in itertools.product((7, 31), (1e10, -1e10)):
            model = with_offsets(blowup_model(reduction, period, horizon=80, a=a),
                                 [np.finfo(float).max])
            for until in (False, True):
                res = reach_with_perturbation(model, model.perturbation(),
                                              until_unsafe=until)
                assert np.all(res.hi[31:] == np.inf)
                assert np.array_equal(res.gen_counts,
                                      product_recount(res, model))


def rand8_model(seed):
    """The benchmark's rand-8 model (perfbench/workloads.py rand_model):
    a stable random 8 x 8 continuous model with three uncertain cells."""
    rng = np.random.default_rng([seed, 8])
    m = rng.normal(size=(8, 8)) / math.sqrt(8)
    a = m - (np.linalg.eigvals(m).real.max() + 1.0) * np.eye(8)
    cells = rng.choice(64, size=3, replace=False)
    centre = rng.uniform(-1.0, 1.0, 8)
    return ModelSpec(
        name="rand-8", a=a,
        uncertainty=tuple(CellUncertainty(int(c) // 8, int(c) % 8, relative=0.05)
                          for c in cells),
        initial=Box(centre - 0.05, centre + 0.05), horizon=300, continuous=True,
        step=0.01, unsafe=(HalfSpace(np.eye(8)[0], 10.0),))


def huge308_model():
    """CI's model whose entries pass half the float maximum."""
    return ModelSpec(
        name="huge308", a=np.diag([-1e308, -1e308]),
        uncertainty=(CellUncertainty(0, 0, relative=0.01),),
        initial=Box(np.array([0.9, -0.1]), np.array([1.1, 0.1])), horizon=2,
        continuous=True, step=0.01, unsafe=(HalfSpace(np.array([1.0, 0.0]), 2.0),))


def monotone_model(rng, continuous, name):
    """A random orthant-monotone model of order n <= 6: A = D B D for a
    random signature D and B >= 0 off the diagonal (Metzler, continuous)
    or B >= 0 (discrete, spectral radius 0.6 to 1.05), 1 to 3 uncertain
    cells, a reduction drawn from all three, and normals that are axes or
    one-signed after the signature, with far offsets."""
    n = int(rng.integers(1, 7))
    b = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
    if continuous:
        b -= np.diag(rng.uniform(0.5, 2.0, n) + b.sum(axis=1))
    else:
        b *= rng.uniform(0.6, 1.05) / max(np.max(np.abs(np.linalg.eigvals(b))), 1e-3)
    d = rng.choice([-1.0, 1.0], n)
    a = d[:, None] * b * d
    cells = rng.permutation([(i, j) for i in range(n) for j in range(n)])
    cells = tuple(CellUncertainty(int(i), int(j),
                                  interval=(a[i, j] - w, a[i, j] + w))
                  for (i, j), w in zip(cells[:int(rng.integers(1, 4))],
                                       rng.uniform(0.0, 0.05, 3)))
    normals = [s * np.eye(n)[i] for s, i in zip(rng.choice([-1.0, 1.0], 2),
                                                 rng.integers(0, n, 2))]
    for _ in range(int(rng.integers(0, 3))):
        v = rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.8)
        if v.any():
            normals.append(rng.choice([-1.0, 1.0]) * d * v)
    lo = rng.uniform(-1, 1, n)
    horizon = int(rng.integers(20, 90))
    reduction = ("none", "interval", "zonotope")[int(rng.integers(3))]
    return ModelSpec(
        name=name, a=a, uncertainty=cells,
        initial=Box(lo, lo + rng.uniform(0, 1, n) * (rng.random(n) < 0.8)),
        horizon=horizon, continuous=continuous,
        step=float(rng.uniform(0.02, 0.2)) if continuous else None,
        unsafe=tuple(HalfSpace(v, 1e6) for v in normals),
        reduction_method=reduction,
        reduction_period=int(rng.integers(1, horizon + 5)))


class TestSegmentsFinishedOnce:
    """_segments advances each segment, writes its supports and counts it
    once, whichever way the run ends; _flowpipe only assembles the boxes."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        # none of these runs has a normal of two signs, whose side run
        # would advance a _Tables inside _Monotone.advance
        calls = {"advance": 0, "supports": 0, "count": 0}

        def counted(name, f):
            def spy(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return spy

        monkeypatch.setattr(engine, "_segment_supports",
                            counted("supports", engine._segment_supports))
        monkeypatch.setattr(engine, "_count_segment",
                            counted("count", engine._count_segment))
        for phases in (engine._Tables, engine._Monotone):
            monkeypatch.setattr(phases, "advance", counted("advance", phases.advance))
        return calls

    def test_benchmark_search(self, calls):
        # acc4's budgets 0, 0.8, 1.6 and 2.4 under until_unsafe: 15
        # segments, whose supports were written 28 times, once on the
        # stop test and again for the result
        report = robustness_threshold(shipped("acc4"), [(0, 0), (2, 3)],
                                      scheme="proportional", step=0.8)
        assert report.final_budget == 1.6
        assert calls == {"advance": 15, "supports": 15, "count": 15}

    def test_invariant_stop(self, calls):
        # a stable family under interval reduction every 20 steps stops at
        # the invariant (140, 160) after 8 segments, the last of which was
        # counted twice
        model = ModelSpec(
            name="stable", a=np.array([[-1.0, 0.5], [-0.5, -1.0]]),
            uncertainty=(CellUncertainty(0, 0, relative=0.05),),
            initial=Box(np.array([0.9, -0.1]), np.array([1.1, 0.1])),
            horizon=400, continuous=True, step=0.05,
            unsafe=(HalfSpace(np.array([1.0, 0.0]), 5.0),),
            reduction_method="interval", reduction_period=20)
        res = reach_with_perturbation(model, model.perturbation(), until_unsafe=True)
        assert res.invariant == (140, 160) and len(res) == 160
        assert calls == {"advance": 8, "supports": 8, "count": 8}

    def test_failed_zonotope_reduction(self, calls):
        # the blowup leaves float range at step 31, and the zonotope
        # reduction at step 35 fails after 5 segments: the last was counted
        # twice, and supports were written over rows past the failure
        # that no segment wrote
        res = ors_reach(blowup_model("zonotope", 7, a=1e10))
        assert np.all(np.isfinite(res.hi[:31])) and np.all(res.hi[31:] == np.inf)
        assert np.all(res.supports[31:] == np.inf)
        assert calls == {"advance": 5, "supports": 5, "count": 5}


class TestMonotoneRecurrence:
    """Orthant-monotone families take one linear recurrence (engine._Monotone)
    in place of the table (engine._Tables), with the same flowpipe."""

    def test_paths_of_the_benchmark_models(self, monkeypatch):
        # a spy on _Tables.__init__: girad1 (a rotation) and rand-8 take
        # the table path; acc4, twocell and grow1d have a signature on S.
        # So has huge308: A's diagonal is negative, but its one-step
        # centre underflows to P = 0, whose powers are exact for any d
        built, init = [], engine._Tables.__init__

        def spy(tables, *args, **kwargs):
            built.append(1)
            init(tables, *args, **kwargs)

        monkeypatch.setattr(engine._Tables, "__init__", spy)
        cases = [(shipped("girad1"), True), (rand8_model(1), True),
                 (rand8_model(2), True), (huge308_model(), False),
                 (shipped("acc4"), False), (shipped("twocell"), False),
                 (shipped("grow1d"), False)]
        for model, table in cases:
            built.clear()
            ors_reach(model)
            assert bool(built) == table, model.name
            assert (signature_on_s(model) is None) == table, model.name
        for name, d in (("acc4", [1, -1, -1]), ("twocell", [1, -1]), ("grow1d", [1])):
            assert signature_on_s(shipped(name)).tolist() == d

    def test_signature_rules(self):
        sig = engine._orthant_signature
        assert sig(np.array([[1.0, -2.0, 0.0], [0.0, 1.0, 3.0],
                             [0.0, 0.0, 0.5]])).tolist() == [1, -1, -1]
        # a negative diagonal entry, a pair of opposite signs and an
        # unbalanced cycle (three negative links) have none
        assert sig(np.array([[-0.1]])) is None
        assert sig(np.array([[1.0, 0.2], [-0.3, 1.0]])) is None
        cycle = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
        assert sig(cycle) is None
        assert sig(-cycle + 2 * np.eye(3)).tolist() == [1, 1, 1]
        # unlinked parts each start from +1
        p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
        assert sig(p).tolist() == [1, 1, -1]
        assert sig(np.diag([0.5, 2.0, 1.0])).tolist() == [1, 1, 1]
        assert sig(np.zeros((2, 2))).tolist() == [1, 1]

    def test_no_table(self):
        # the recurrence holds G, Lr and |N| on S, its scan G's powers for
        # its strides, and its pass over every step takes chunks of about
        # 4096 entries: acc4's unreduced run over 2050 or 20000 steps
        # peaks about 50 kB above its inputs, where a table of 3 x 3
        # entries an age would take 148 kB or 1.4 MB
        m = one_step_family(shipped("acc4"))
        p, lr = _centre_radius(m.lo, m.hi)
        peaks = []
        for horizon in (2050, 20000):
            centres = _orbit(p, shipped("acc4").initial.center[:, None],
                             horizon + 1).T.copy()
            q, buf = np.empty((horizon + 1, 3)), np.ones(3 * (horizon + 2))
            phases = engine._Monotone(p[:3, :3], lr[:3], np.empty((0, 3)),
                                      horizon, False, slice(0, 3),
                                      np.array([1.0, -1.0, -1.0]))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                phases.advance(centres, q, buf, 0, horizon + 1)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert not hasattr(phases, "__dict__")
        assert max(peaks) < 64e3

    @staticmethod
    def assert_paths_agree(model, rng, tag):
        """The recurrence against the table path (the predicate patched),
        in full and cut by until_unsafe at far offsets, at offsets reached
        at a drawn step, and at the model's own offsets: equal lengths,
        counts, invariants and verdicts; boxes and supports within 1e-13
        of each width; the cut run a bitwise prefix of the full one; and
        vertex-member trajectories inside the boxes.  Returns, per cut
        run, whether it is shorter than the full one, certified an
        invariant, and is not safe."""
        def both(call):
            """call() on the recurrence, then on the table path."""
            got = call()
            with pytest.MonkeyPatch.context() as mp:
                table_path(mp)
                return got, call()

        assert signature_on_s(model) is not None, tag
        normals = np.vstack([hs.normal for hs in model.unsafe])
        full, table = both(lambda: ors_reach(model))
        assert len(full) == len(table) and np.array_equal(full.gen_counts,
                                                          table.gen_counts), tag
        width = table.hi - table.lo
        tol = 1e-13 * width
        assert np.all(np.abs(full.lo - table.lo) <= tol), tag
        assert np.all(np.abs(full.hi - table.hi) <= tol), tag
        assert np.all(np.abs(full.supports - table.supports)
                      <= 1e-13 * width @ np.abs(normals).T), tag
        assert_contains_vertex_trajectories(rng, model, full.lo, full.hi, tag)
        # an offset reached about a drawn step: in the middle of a gap of
        # the sorted supports wider than the rounding both paths may differ
        # by, so that neither verdict rests on a tie
        k, j = int(rng.integers(len(full))), int(rng.integers(len(normals)))
        far = np.full(len(normals), np.finfo(float).max)
        reached = far.copy()
        col = np.sort(full.supports[:, j])
        gaps = np.flatnonzero(np.diff(col) > 1e-9 * np.max(np.abs(col)))
        if len(gaps):
            g = gaps[np.argmin(np.abs(col[gaps] - full.supports[k, j]))]
            reached[j] = 0.5 * (col[g] + col[g + 1])
        stops = []
        for offsets in (far, reached, [hs.offset for hs in model.unsafe]):
            m = with_offsets(model, offsets)
            got, want = both(lambda: reach_with_perturbation(
                m, m.perturbation(), until_unsafe=True))
            verdicts = [safety_check(r, m.unsafe) for r in (got, want)]
            assert len(got) == len(want) and got.invariant == want.invariant, tag
            assert np.array_equal(got.gen_counts, want.gen_counts), tag
            assert len({(v.safe, v.step, v.halfspace) for v in verdicts}) == 1, tag
            for a, b in ((got.lo, full.lo), (got.hi, full.hi),
                         (got.supports, full.supports),
                         (got.gen_counts, full.gen_counts)):
                assert a.tobytes() == b[:len(got)].tobytes(), tag
            stops.append((len(got) < len(full), got.invariant is not None,
                          not verdicts[1].safe))
        return stops

    @pytest.mark.parametrize("name", ["acc4", "twocell", "grow1d"])
    @pytest.mark.parametrize("reduction,period", [
        ("none", 500), ("interval", 500), ("interval", 50), ("zonotope", 50),
        ("zonotope", 13)])
    def test_shipped_models_match_the_table_path(self, name, reduction, period):
        model = dataclasses.replace(shipped(name), reduction_method=reduction,
                                    reduction_period=period)
        self.assert_paths_agree(model, np.random.default_rng([len(name), period]),
                                name)

    @pytest.mark.parametrize("name", ["acc4", "twocell", "grow1d"])
    @pytest.mark.parametrize("reduction,period", [
        ("none", 500), ("interval", 500), ("interval", 50), ("zonotope", 50),
        ("zonotope", 13)])
    def test_shipped_models_match_star_operations(self, name, reduction, period):
        # as picked, no patch: the recurrence's flowpipe against the star
        # operations', boxes and supports within 1e-12 and equal counts
        model = dataclasses.replace(shipped(name), reduction_method=reduction,
                                    reduction_period=period)
        assert signature_on_s(model) is not None
        res = ors_reach(model)
        _, lo, hi, supports, counts = reference_flowpipe(model)
        assert_close(res.lo, lo)
        assert_close(res.hi, hi)
        assert_close(res.supports, supports)
        assert np.array_equal(res.gen_counts, counts)
        assert_replay_matches(res)

    def test_normals_of_two_signs(self):
        # P alone picks the path, so a normal of two signs after the
        # signature keeps a monotone family on the recurrence, whose boxes
        # are those of the run without it bit for bit, and a replay in
        # +-e_i gives them too.  That normal's support is the table path's,
        # from a _Tables over it alone run beside: the flowpipe agrees with
        # the table path's as a one-signed one's does
        built, init = [], engine._Tables.__init__

        def spy(tables, p, lr, distinct, *args):
            built.append(len(distinct))
            init(tables, p, lr, distinct, *args)

        rng = np.random.default_rng(4804)
        tried = 0
        for trial in range(30):
            model = monotone_model(rng, bool(trial % 2), f"two{trial}")
            d, n = signature_on_s(model), model.dim
            if n < 2 or len(d) < n:
                continue
            tried += 1
            v = rng.uniform(0.1, 1.0, n)
            v[int(rng.integers(n))] *= -1.0
            mixed = dataclasses.replace(model, unsafe=model.unsafe + (
                HalfSpace(d * v, 1e6),))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine._Tables, "__init__", spy)
                built.clear()
                res, bare = ors_reach(mixed), ors_reach(model)
            assert built == [1], trial  # the side run, over the new normal
            assert res.lo.tobytes() == bare.lo.tobytes(), trial
            assert res.hi.tobytes() == bare.hi.tobytes(), trial
            assert_replay_matches(res)
            self.assert_paths_agree(mixed, rng, trial)
        assert tried >= 10

    @pytest.mark.parametrize("continuous", [False, True])
    def test_random_monotone_models_match_the_table_path(self, continuous):
        rng = np.random.default_rng([4801, continuous])
        reductions, non_axis, stops = set(), 0, []
        for trial in range(40):
            model = monotone_model(rng, continuous, f"monotone{trial}")
            stops += self.assert_paths_agree(model, rng, trial)
            reductions.add(model.reduction_method)
            non_axis += len(model.unsafe) > 2
        assert reductions == {"none", "interval", "zonotope"} and non_axis >= 10
        cut, certified, unsafe = np.sum(stops, axis=0)
        assert cut >= 10 and certified >= 1 and unsafe >= 20

    def test_zonotope_count_at_twice_the_order(self):
        # x3 is a pinned input outside S, so k = 2 < n = 3: at step 4 the
        # live generators are Theta's 2 and one fresh radius a step, 6 =
        # 2n, all kept (6, not n + k = 5); at step 8 there are 6 + 4 > 2n
        model = ModelSpec(
            name="twice", a=np.array([[0.9, 0.1, 0.5], [0.05, 0.8, 0.0],
                                      [0.0, 0.0, 1.0]]),
            uncertainty=(CellUncertainty(0, 0, relative=0.05),),
            initial=Box(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0])),
            horizon=20, continuous=False,
            unsafe=(HalfSpace(np.array([1.0, 0.0, 0.0]), 1e6),),
            reduction_method="zonotope", reduction_period=4)
        self.assert_paths_agree(model, np.random.default_rng(4803), "twice")
        res = ors_reach(model)
        assert res.gen_counts[[4, 8, 12]].tolist() == [6, 5, 5]
        assert np.array_equal(res.gen_counts, product_recount(res, model))

    def test_boxes_do_not_depend_on_one_signed_normals(self):
        # on the recurrence too the box rows come first, so recording
        # one-signed normals leaves the boxes' bits as they are
        rng = np.random.default_rng(4802)
        for trial in range(20):
            model = monotone_model(rng, bool(trial % 2), f"bits{trial}")
            axes = dataclasses.replace(model, unsafe=(
                HalfSpace(np.eye(model.dim)[0], 1e6),))
            assert signature_on_s(axes) is not None
            for got, want in ((ors_reach(model), ors_reach(axes)),):
                assert got.lo.tobytes() == want.lo.tobytes(), trial
                assert got.hi.tobytes() == want.hi.tobytes(), trial

    @pytest.mark.parametrize("reduction", ["none", "interval", "zonotope"])
    def test_powers_that_overflow_before_the_radii(self, monkeypatch, reduction):
        # x' = a x, a in [0, 2], from [-1e-300, 1e-300]: P = 1 and G = 2,
        # so G^1024 leaves float range while the radii 2^j 1e-300 stay
        # finite up to step 2020.  The scan runs in blocks of 1024 steps,
        # which its finite strides cover: no NaN, no RuntimeWarning, and
        # the table path's first unbounded step
        model = ModelSpec(
            name="double", a=np.array([[1.0]]),
            uncertainty=(CellUncertainty(0, 0, interval=(0.0, 2.0)),),
            initial=Box(np.array([-1e-300]), np.array([1e-300])),
            horizon=2100, continuous=False,
            unsafe=(HalfSpace(np.array([1.0]), 1.0),),
            reduction_method=reduction, reduction_period=1500)
        firsts = []
        for path in ("recurrence", "table"):
            if path == "table":
                table_path(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = ors_reach(model)
            for bound in (res.lo, res.hi, res.supports):
                assert not np.isnan(bound).any()
            bad = ~np.isfinite(res.hi).all(axis=1)
            assert bad.any() and np.all(bad[np.argmax(bad):])
            firsts.append(int(np.argmax(bad)))
            assert np.all(np.isfinite(res.hi[:2021]))
        assert firsts == [2021, 2021]


def dyadic(x):
    """A float as (m, e), x = m / 2^e exactly, m an int and e >= 0."""
    m, d = float(x).as_integer_ratio()
    return m, d.bit_length() - 1


def vertex_powers(a, a_err, signs, count):
    """Q^0, ..., Q^(count-1) of the sign vertex Q = a + signs o a_err in
    exact arithmetic, each as (P, e): Q^k = P / 2^e, P rows of ints."""
    n = len(a)
    s = max(dyadic(x)[1] for x in np.concatenate((a.ravel(), a_err.ravel())))

    def scaled(x):  # x 2^s, an int
        m, e = dyadic(x)
        return m << (s - e)

    q = [[scaled(a[i, j]) + int(signs[i, j]) * scaled(a_err[i, j])
          for j in range(n)] for i in range(n)]
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(count):
        yield p, s * k
        p = [[sum(p[i][l] * q[l][j] for l in range(n)) for j in range(n)]
             for i in range(n)]


class TestOrbit:
    """The one doubling: powers a^k x0, with or without error vectors."""

    def test_error_vectors_leave_the_powers_bitwise(self):
        rng = np.random.default_rng(404)
        for n in (1, 2, 3, 5):
            a = rng.normal(size=(n, n)) / n
            a_err = rng.uniform(0, 1e-12, (n, n))
            for x0 in (np.eye(n), rng.normal(size=(n, 2))):
                w = x0.shape[1]
                v = np.stack((rng.uniform(0, 2, w), np.ones(w)), axis=1)
                for count in (1, 2, 3, 7, 64):
                    plain = _orbit(a, x0, count)
                    powers, errs = _orbit(a, x0, count, a_err, v)
                    assert np.array_equal(powers, plain)
                    assert errs.shape == (count, 2, n)
                    assert not errs[0].any() and np.all(errs[1:] > 0)

    def test_error_vectors_bound_every_member_power(self):
        # every sign vertex A = a + S o a_err: |A^k - F_k| v, in exact
        # integer arithmetic, is at most row c of errs[k] for both
        # columns v of the symbolic route, max|Theta| and 1, at zero
        # tolerance.  The steps: a scalar, random 2x2 and 3x3 matrices,
        # a 3x3 Jordan block, acc4's step expm(A h) (a Jordan block of
        # a zero eigenvalue beside a decaying mode) and a step of order
        # 1e-90, whose powers underflow
        rng = np.random.default_rng(405)
        acc4 = np.array([[-0.5, 0.0, 0.0, 0.5], [-1.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        cases = [
            (np.array([[0.97]]), np.array([[3e-4]]), 300),
            (rng.normal(size=(2, 2)) * 0.7, rng.uniform(0, 1e-3, (2, 2)), 300),
            (rng.normal(size=(3, 3)) * 0.5,
             np.diag(rng.uniform(0, 1e-9, 3)), 300),
            (0.98 * np.eye(3) + np.eye(3, k=1),
             np.array([[1e-12, 0, 0], [0, 0, 1e-15], [0, 0, 0]]), 300),
            (scipy.linalg.expm(acc4 * 0.01),
             np.array([[2e-17, 0, 0, 0], [0, 0, 1e-16, 0],
                       [0, 0, 0, 3e-17], [0, 0, 0, 1e-16]]), 300),
            (rng.normal(size=(2, 2)) * 1e-90, np.full((2, 2), 1e-106), 7),
        ]
        for a, a_err, longest in cases:
            n = len(a)
            v = np.stack((rng.uniform(0.5, 2.0, n), np.ones(n)), axis=1)
            v[0, 0] = 0.0
            v_bits = [[dyadic(x) for x in col] for col in v.T]
            cells = np.flatnonzero(a_err)
            for count in (c for c in (1, 2, 3, 7, 64, 300) if c <= longest):
                powers, errs = _orbit(a, np.eye(n), count, a_err, v)
                flows = powers.reshape(n, count, n).transpose(1, 0, 2)
                for vertex in itertools.product((-1, 1), repeat=len(cells)):
                    signs = np.zeros(n * n, dtype=int)
                    signs[cells] = vertex
                    powers_k = vertex_powers(a, a_err, signs.reshape(n, n), count)
                    for k, (p, e) in enumerate(powers_k):
                        for i in range(n):
                            # |Q^k - F_k| on row i, over 2^d
                            f = [dyadic(x) for x in flows[k, i]]
                            d = max([e] + [fe for _, fe in f])
                            miss = [abs((p[i][l] << (d - e)) - (fm << (d - fe)))
                                    for l, (fm, fe) in enumerate(f)]
                            for c, col in enumerate(v_bits):
                                dv = max(ve for _, ve in col)
                                got = sum(mi * (vm << (dv - ve))
                                          for mi, (vm, ve) in zip(miss, col))
                                bm, be = dyadic(errs[k, c, i])
                                # got / 2^(d + dv) <= bm / 2^be
                                assert got << be <= bm << (d + dv), (n, count, k, i, c)

    @staticmethod
    def assert_vectors_hold(a, a_err, x0, v, count):
        """|Q^k x0 - F_k| v <= errs[k] for every sign vertex Q of a +- a_err,
        in integers: each float times 2^1074 is one, so a product of k + 2
        of them is exact at scale 2^(1074 (k + 2))."""
        powers, errs = _orbit(a, x0, count, a_err, v)
        n, w = x0.shape

        def ints(m):
            return [[(mi << (1074 - e)) for mi, e in map(dyadic, row)] for row in m]

        flows = powers.reshape(n, count, w).transpose(1, 0, 2)
        x, v_int, lo, hi = ints(x0), ints(v.T), ints(a - a_err), ints(a + a_err)
        cells = np.flatnonzero(a_err)
        for vertex in itertools.product((0, 1), repeat=len(cells)):
            pick = np.zeros(n * n, dtype=int)
            pick[cells] = vertex
            q = [[(hi if pick[i * n + j] else lo)[i][j] for j in range(n)]
                 for i in range(n)]
            p = x  # Q^k x0 at scale 2^(1074 (k + 1))
            for k in range(count):
                f = ints(flows[k])
                for i in range(n):
                    miss = [abs(p[i][l] - (f[i][l] << (1074 * k))) for l in range(w)]
                    for c, col in enumerate(v_int):
                        got = sum(mi * vl for mi, vl in zip(miss, col))
                        bound = ints([[errs[k, c, i]]])[0][0]
                        assert got <= bound << (1074 * (k + 1)), (k, i, c)
                p = [[sum(q[i][l] * p[l][j] for l in range(n)) for j in range(w)]
                     for i in range(n)]

    def test_underflow_and_rounding_terms_of_the_vectors(self):
        # cases that reach the terms which cover underflow and the sizes'
        # own rounding, each at zero tolerance
        eta = 2.0 ** -1074
        # fl(a x0) underflows: each 0.5 eta rounds to 0 (ties to even), so
        # F_1 = 0 where A x0 = eta, and |A x0 - F_1| v = 8 w eta takes the
        # n v_sum etas of _product_error's underflow term (3 n falls short)
        self.assert_vectors_hold(np.full((2, 2), 0.5), np.zeros((2, 2)),
                                 np.full((2, 3), eta), np.full((3, 1), 8.0), 2)
        # |x0| v underflows: eta 2.5 rounds to 2 eta, so fl(|x0| v) is w
        # eta / 2 short, which _vector_sizes' (w + 1) eta covers, and
        # a_err = 16 carries the shortfall into the bound
        self.assert_vectors_hold(np.zeros((1, 1)), np.full((1, 1), 16.0),
                                 np.full((1, 4), eta), np.full((4, 1), 2.5), 2)
        # |x0| v rounds: 1 plus 1023 terms just under half an ulp of 1, so
        # the sum loses up to 1023 u wherever 1 comes first among its
        # partial sums (30 u in OpenBLAS 0.3.31's order on AVX-512), which
        # _vector_sizes' 1 + gamma_(w+4) covers
        x0 = np.full((1, 1024), 2.0 ** -53 * (1 - 2.0 ** -10))
        x0[0, 0] = 1.0
        self.assert_vectors_hold(np.zeros((1, 1)), np.ones((1, 1)), x0,
                                 np.ones((1024, 1)), 2)


class TestSymbolicChunks:
    """Symbolic supports in chunks of steps, and the symbolic route's peaks."""

    def test_first_unbounded_step_of_any_array(self):
        # one rule for both routes: the first step at which any of the
        # arrays, each indexed by step first, has an entry that is not
        # finite.  A step whose entries are finite but whose sum overflows
        # is bounded, and a strided view is read as it is
        big = np.finfo(np.float64).max
        flows = np.ones((3, 6, 3)).transpose(1, 0, 2)  # (6, 3, 3), strided
        phi, pad = np.zeros(6), np.ones((6, 3))
        assert _first_unbounded(phi, flows, pad) is None
        pad[1] = big  # a sum past float range, every entry finite
        assert _first_unbounded(phi, flows, pad) is None
        flows[4, 2, 1] = -np.inf
        assert _first_unbounded(phi, flows, pad) == 4
        phi[3] = np.nan
        assert _first_unbounded(phi, flows, pad) == 3
        assert _first_unbounded(pad, phi) == 3

    def test_axis_supports_are_the_box_bitwise(self, monkeypatch):
        # support(e_i) of a symbolic result is read off hi[:, i], and
        # support(-e_i) off -lo[:, i].  The padded images in the same
        # directions give hi[:, i] to the bit and -lo[:, i] (a zero may
        # take the other sign), bytewise the same whatever the chunk of
        # steps.  acc4's kagstrom1 bound is inf from t = 1.09 on, and its
        # kagstrom2 bound, its eigenbasis being defective, from t = 0.01
        cases = ((shipped("acc4"), "loan"), (shipped("acc4"), "kagstrom1"),
                 (shipped("acc4"), "kagstrom2"), (shipped("girad1"), "kagstrom2"),
                 (heat_rod(8), "loan"))
        for model, method in cases:
            res = symbolic_reach(model.a, model.perturbation(), model.initial,
                                 model.times(), method=method)
            n = model.dim
            dirs = np.vstack([np.eye(n), -np.eye(n)])
            read = res.support(dirs)
            assert read[:, :n].tobytes() == res.hi.tobytes()
            assert (-read[:, n:]).tobytes() == res.lo.tobytes()
            whole = res._computed_support(dirs)
            assert whole[:, :n].tobytes() == res.hi.tobytes()
            assert np.array_equal(whole[:, n:], -res.lo)
            for entries in (1, 7, 10 ** 9):
                monkeypatch.setattr(intervals, "_CHUNK_ENTRIES", entries)
                got = res._computed_support(dirs)
                assert got.tobytes() == whole.tobytes(), (model.name, method, entries)
            monkeypatch.undo()

    def test_short_grids_and_no_directions(self):
        # one cell, grids of one to three points: supports of (k, 1)
        # directions are (K, k), of none (K, 0)
        theta = Box(np.array([0.5]), np.array([1.0]))
        lam = IntervalMatrix(np.array([[-0.1]]), np.array([[0.1]]))
        for count in (1, 2, 3):
            res = symbolic_reach(np.array([[-1.0]]), lam, theta,
                                 np.arange(count) * 0.1, method="loan")
            sup = res.support(np.array([[1.0], [-1.0]]))
            assert sup.shape == (count, 2)
            assert np.array_equal(sup, np.hstack([res.hi, -res.lo]))
            assert res.support(np.empty((0, 1))).shape == (count, 0)
            assert safety_check(res, (HalfSpace(np.array([1.0]), 2.0),)).safe
        rod = heat_rod(5)
        res = symbolic_reach(rod.a, rod.perturbation(), rod.initial,
                             rod.times(), method="loan")
        assert res.support(np.empty((0, 5))).shape == (1001, 0)

    def test_unbounded_steps_take_no_sigma(self, monkeypatch):
        # acc4's kagstrom1 phi is inf from t = 1.09 on, where the radius is
        # inf whatever sigma is: the chunks stop there, so _sigma_max_bound
        # reads only the steps of finite phi, and the radii are bytewise
        # those of sigma and the error sums of the replayed flows
        model = shipped("acc4")
        times = model.times()
        original, read = engine._sigma_max_bound, []

        def counting(stack):
            read.append(len(stack))
            return original(stack)

        monkeypatch.setattr(engine, "_sigma_max_bound", counting)
        res = symbolic_reach(model.a, model.perturbation(), model.initial,
                             times, method="kagstrom1")
        finite = np.isfinite(res.phi)
        assert sum(read) == finite.sum() < len(times)
        flows, errs = replayed_flows(res)
        assert len(flows) == finite.sum()
        want = np.full(len(times), np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            want[finite] = (res.phi[finite] * (original(flows) + errs[:, :, 1].sum(axis=1))
                            * model.initial.max_norm())
            want *= 1.0 + 2 * ((model.dim + 10) // 4 + 1) * intervals._UNIT
        want[~np.isfinite(want)] = np.inf
        assert res.radii.tobytes() == want.tobytes()
        assert np.all(np.isinf(res.radii[~finite]))
        assert np.all(res.lo[~finite] == -np.inf) and np.all(res.hi[~finite] == np.inf)

    def test_loan_radii_are_psi_times_the_box_norm(self):
        # loan's flow factor is 1: at every step whose box is finite its
        # radius is bytewise psi ||Theta|| scaled, psi the series' own, on
        # the shipped models and on a flowpipe whose flows overflow, where
        # every step from the first unbounded box on has an inf radius
        cases = [(m.a, m.perturbation(), m.initial, m.times())
                 for m in map(shipped, ("girad1", "acc4", "twocell"))]
        cases.append((np.array([[1.0, -1.0], [0.0, 2.0]]), IntervalMatrix.zeros(2, 2),
                      Box(np.array([1.0, 0.0]), np.array([2.0, 1.0])),
                      np.arange(1601) * 0.25))
        for a, pert, theta, times in cases:
            res = symbolic_reach(a, pert, theta, times, method="loan")
            psi = bounds.bloat_series(a, pert, times, "loan").phi
            assert res.phi.tobytes() == psi.tobytes()
            boxed = np.isfinite(res.lo).all(axis=1) & np.isfinite(res.hi).all(axis=1)
            end = int(boxed.sum())
            assert boxed[:end].all()
            want = psi[:end] * theta.max_norm()
            want *= 1.0 + 2 * ((theta.dim + 10) // 4 + 1) * intervals._UNIT
            assert res.radii[:end].tobytes() == want.tobytes()
            assert np.all(res.radii[end:] == np.inf)
        assert 0 < end < len(times)  # the overflowing grid

    def test_loan_takes_no_eigenvalues_and_no_sigma(self, monkeypatch):
        # loan's radius is psi ||Theta||: bounds.loan calls neither
        # np.linalg.eig nor eigvals, and symbolic_reach no _sigma_max_bound
        # of a flow, on the shipped models and a flowpipe whose flows
        # overflow (those steps are inf, as sigma made them)
        def refuse(*args, **kwargs):
            raise AssertionError("an eigenvalue routine was called")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        read = []
        monkeypatch.setattr(engine, "_sigma_max_bound", read.append)
        for name in ("girad1", "acc4", "twocell"):
            model = shipped(name)
            res = symbolic_reach(model.a, model.perturbation(), model.initial,
                                 model.times(), method="loan")
            safety_check(res, model.unsafe)
            assert np.all(np.isfinite(res.radii)), name
        theta = Box(np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        res = symbolic_reach(np.array([[1.0, -1.0], [0.0, 2.0]]),
                             IntervalMatrix.zeros(2, 2), theta,
                             np.arange(1601) * 0.25, method="loan")
        # the replayed flows stop with the chunk past the first that is not
        # finite; every later step is unbounded too
        flows = replayed_flows(res)[0]
        over = np.ones(len(res), dtype=bool)
        over[:len(flows)] = ~np.isfinite(flows).all(axis=(1, 2))
        assert over.any() and np.array_equal(np.isinf(res.radii), over)
        assert np.all(res.hi[over] == np.inf) and np.all(res.lo[over] == -np.inf)
        assert read == []

    def test_supports_skip_unbounded_steps(self, monkeypatch):
        # the padded images of the steps of finite radius only, whatever
        # the chunk of steps: bytewise one evaluation of the replayed flows
        # at every such step, and inf after
        model = shipped("acc4")
        res = symbolic_reach(model.a, model.perturbation(), model.initial,
                             model.times(), method="kagstrom1")
        bounded = int(np.isfinite(res.radii).sum())
        assert 0 < bounded < len(res) and np.all(np.isfinite(res.radii[:bounded]))
        dirs = np.random.default_rng(73).normal(size=(3, model.dim))
        flows, errs = replayed_flows(res)
        with np.errstate(over="ignore", invalid="ignore"):
            want = padded_image(
                dirs @ flows[:bounded], res.initial,
                errs[:bounded, :, 0] @ np.abs(dirs).T)[1]
            want += np.multiply.outer(res.radii[:bounded],
                                      intervals._frobenius(dirs, axis=1))
        original, read = engine._endpoint_product, []

        def counting(alo, ahi, blo, bhi):
            read.append(len(alo))
            return original(alo, ahi, blo, bhi)

        monkeypatch.setattr(engine, "_endpoint_product", counting)
        for entries in (1, 7, 10 ** 9):
            monkeypatch.setattr(intervals, "_CHUNK_ENTRIES", entries)
            read.clear()
            got = res.support(dirs)
            assert got[:bounded].tobytes() == want.tobytes(), entries
            assert np.all(got[bounded:] == np.inf), entries
            assert sum(read) == bounded, entries

    def test_chunk_error_columns_bound_every_member_power(self, monkeypatch):
        # the chunks' error columns, as the table's (TestOrbit), bound
        # |Q^k - F_k| v for every sign vertex Q = P + S o E at every step,
        # in exact integer arithmetic at zero tolerance: grids of one chunk,
        # with a tail that joins the last chunk (9, 13: tail 1 of c = 4),
        # with a tail of its own (6, 14), with none (8), chunks of 2 and 4
        # steps and pieces of 3 steps (_FLOW_NUMBERS = 24), and a step
        # whose powers underflow
        monkeypatch.setattr(engine, "_FLOW_NUMBERS", 24)
        rng = np.random.default_rng(406)
        cases = [
            (rng.normal(size=(2, 2)) * 0.7, rng.uniform(0, 1e-3, (2, 2))),
            (0.98 * np.eye(2) + np.eye(2, k=1), np.array([[1e-12, 0], [1e-15, 0]])),
            (rng.normal(size=(2, 2)) * 1e-40, np.full((2, 2), 1e-56)),
        ]
        for a, a_err in cases:
            n = len(a)
            v = np.stack((rng.uniform(0.5, 2.0, n), np.ones(n)), axis=1)
            v[0, 0] = 0.0
            v_bits = [[dyadic(x) for x in col] for col in v.T]
            cells = np.flatnonzero(a_err)
            for chunk, count in ((4, 1), (4, 3), (4, 4), (4, 6), (4, 8), (4, 9),
                                 (4, 13), (4, 14), (2, 9)):
                # a piece's arrays are reused by the next: copies
                pieces = [(k, f.copy(), e.copy()) for k, f, e
                          in engine._flow_chunks(a, a_err, v, chunk, count)]
                assert [k.start for k, _, _ in pieces] == sorted(
                    k.start for k, _, _ in pieces)
                assert sum(len(f) for _, f, _ in pieces) == count
                flows = np.concatenate([f for _, f, _ in pieces])
                errs = np.concatenate([e for _, _, e in pieces])
                for vertex in itertools.product((-1, 1), repeat=len(cells)):
                    signs = np.zeros(n * n, dtype=int)
                    signs[cells] = vertex
                    powers_k = vertex_powers(a, a_err, signs.reshape(n, n), count)
                    for k, (p, e) in enumerate(powers_k):
                        for i in range(n):
                            f = [dyadic(x) for x in flows[k, i]]
                            d = max([e] + [fe for _, fe in f])
                            miss = [abs((p[i][l] << (d - e)) - (fm << (d - fe)))
                                    for l, (fm, fe) in enumerate(f)]
                            for c, col in enumerate(v_bits):
                                dv = max(ve for _, ve in col)
                                got = sum(mi * (vm << (dv - ve))
                                          for mi, (vm, ve) in zip(miss, col))
                                bm, be = dyadic(errs[k, i, c])
                                assert got << be <= bm << (d + dv), (chunk, count, k, i, c)

    def test_replayed_supports_are_unbounded_from_the_first_unbounded_one(self):
        # the prefix rule of both routes: from the first step at which one of
        # the requested supports is not finite, each is inf.  A rotation
        # from Theta = [1, 2]^2: along d = (6e307, -6e307) the padded image
        # sums past the float maximum from t = 4 and is finite again later
        # in the turn, while the boxes stay finite; (1, 2), finite alone, is
        # inf with it, and the numeric route's replay, whose supports
        # overflow sooner, does the same
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        theta = Box(np.ones(2), np.full(2, 2.0))
        model = ModelSpec(name="rotation", a=a, uncertainty=(), initial=theta,
                          horizon=99, step=0.1)
        dirs = np.array([[6e307, -6e307], [1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = symbolic_reach(a, IntervalMatrix.zeros(2, 2), theta,
                                 model.times(), method="loan")
            sups = res.support(dirs)
            numeric = ors_reach(model).support(dirs)
        assert np.all(np.isfinite(res.lo)) and np.all(np.isfinite(res.hi))
        # the padded images along d step by step, no rule applied
        flows, errs = replayed_flows(res)
        with np.errstate(over="ignore", invalid="ignore"):
            each = padded_image(dirs[:1] @ flows, theta,
                                errs[:, :, 0] @ np.abs(dirs[:1]).T)[1][:, 0]
        first = int(np.argmax(~np.isfinite(each)))
        assert first == 40 and np.isfinite(each[first:]).any()
        assert np.all(np.isfinite(sups[:first])) and np.all(sups[first:] == np.inf)
        assert np.all(np.isfinite(res.support(dirs[1:])))
        stop = int(np.argmax(~np.isfinite(numeric).all(axis=1)))
        assert 0 < stop < first and np.all(numeric[stop:] == np.inf)
        assert np.all(np.isfinite(numeric[:stop]))

    def test_step_error_is_exact_and_normal(self):
        # acc4's pinned row is exact in interval_expm, so the step error
        # there is the floor, the least normal float: an error of 0 gave
        # the error orbit subnormal underflow terms, several times slower
        m = shipped("acc4")
        step, err = engine._flow_step(m.a, m.times())
        tiny = np.finfo(np.float64).tiny
        assert np.array_equal(step[3], [0.0, 0.0, 0.0, 1.0])
        assert np.all(err[3] == tiny) and np.all(err >= tiny)
        flows = (step, err, np.ones((4, 1)), 256, len(m.times()))
        for _, chunk, errs in engine._flow_chunks(*flows):
            assert not np.any((errs > 0.0) & (errs < tiny))

    def test_acc4_peak_memory(self):
        # the benchmark's acc4 loan run peaks at 0.334 MB (0.336 MB run
        # first in a process): the boxes and radii of 2051 steps (0.16 MB),
        # a table of 259 flows (the last chunk takes the 3-step tail), a
        # chunk and its endpoint image in chunks of _CHUNK_ENTRIES products
        # (0.347 MB with an image of the whole chunk); the stored (K, n, n)
        # flows alone were 0.263 MB and took it to 0.650 MB
        model = shipped("acc4")
        tracemalloc.start()
        try:
            res = symbolic_reach(model.a, model.perturbation(), model.initial,
                                 model.times(), method="loan")
            safety_check(res, model.unsafe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.36e6

    def test_acc4_kagstrom1_peak_memory(self):
        # sigma_max of a chunk of 256 4x4 flows sets the peak: 0.383 MB warm
        # with the one copy of each chunk scaled and squared in place, 0.419
        # MB when symbolic_reach copied the chunk and the kernel scaled it
        # into a second array
        model = shipped("acc4")

        def run():
            res = symbolic_reach(model.a, model.perturbation(), model.initial,
                                 model.times(), method="kagstrom1")
            safety_check(res, model.unsafe)

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.40e6

    def test_heat_rod_32_peak_memory(self):
        # 1001 steps of order 32: 6.87 (K, n) arrays at the peak, the boxes,
        # a table of 32 flows, the orbit of 32 chunk bases and a chunk; the
        # stored (K, n, n) flows were 32 such arrays, and the peak 35.6
        rod = heat_rod(32)
        tracemalloc.start()
        try:
            res = symbolic_reach(rod.a, rod.perturbation(), rod.initial,
                                 rod.times(), method="loan")
            safety_check(res, rod.unsafe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.2 * res.lo.nbytes

    def test_heat_rod_128_peak_memory(self):
        # 1001 steps of order 128, psi finite on the first 106 and the
        # radius on the first 105: the chunks stop at psi's end, and the
        # boxes, a table of 16 flows and the orbit of 7 bases peak at 7.1 MB,
        # where the stored flows took 135 MB
        rod = heat_rod(128)
        tracemalloc.start()
        try:
            res = symbolic_reach(rod.a, rod.perturbation(), rod.initial,
                                 rod.times(), method="loan")
            verdict = safety_check(res, rod.unsafe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(res.phi[:106])) and np.all(np.isinf(res.phi[106:]))
        assert np.all(np.isfinite(res.radii[:105])) and np.all(np.isinf(res.radii[105:]))
        assert not verdict.safe
        assert peak < 10e6

    def test_axis_supports_of_heat_rod_32_memory(self):
        # the 64 rows +-e_i: their padded images replay the flows a chunk
        # of steps at a time, 6.98 (K, n) arrays at the peak beside the
        # (K, 64) result (two of them), where the stored flows were 32;
        # support reads them off the box, in little more than the result
        rod = heat_rod(32)
        res = symbolic_reach(rod.a, rod.perturbation(), rod.initial,
                             rod.times(), method="loan")
        dirs = np.vstack([np.eye(32), -np.eye(32)])
        for support, bound in ((res._computed_support, 7.2 * res.lo.nbytes),
                               (res.support, 1.1 * res.lo.nbytes * 2)):
            tracemalloc.start()
            try:
                support(dirs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


class TestCentredZonotopes:
    def test_split_never_shrinks_random_intervals(self):
        rng = np.random.default_rng(4711)
        lo = rng.normal(size=(200, 5, 5)) * 10.0 ** rng.integers(-8, 8, (200, 5, 5))
        hi = lo + np.abs(lo) * 10.0 ** rng.uniform(-16, 0, lo.shape)
        hi[:, 0] = lo[:, 0]  # point entries
        mid, rad = _centre_radius(lo, hi)
        assert np.all(mid - rad <= lo) and np.all(mid + rad >= hi)
        assert np.all(rad[:, 0] == 0.0)
        # the round-to-nearest split does shrink some of these
        naive = 0.5 * (hi - lo)
        assert np.any((mid - naive > lo) | (mid + naive < hi))

    @pytest.mark.parametrize("name", ["girad1", "acc4", "twocell", "grow1d"])
    def test_split_never_shrinks_shipped_remainders(self, name):
        m = one_step_family(shipped(name))
        mid, rad = _centre_radius(m.lo, m.hi)
        assert np.all(mid - rad <= m.lo) and np.all(mid + rad >= m.hi)
        assert np.array_equal(rad == 0.0, m.lo == m.hi)

    def test_centred_fresh_block_matches_lambda_box(self):
        rng = np.random.default_rng(2005)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(0, 12))
            lo = rng.normal(size=(n, n))
            lam = IntervalMatrix(lo, lo + rng.uniform(0, 0.5, (n, n))
                                 * (rng.random((n, n)) < 0.7))
            c = rng.normal(size=n)
            gens = rng.normal(size=(n, m))
            r = rng.uniform(0, 2, m)
            _, lr = _centre_radius(lam.lo, lam.hi)
            # the engine's fresh radius Lr (|c| + q[:n]), q[:n] = sum |g r|
            rad = lr @ (np.abs(c) + np.abs(gens * r).sum(axis=1))
            want = lambda_box(IntervalMatrix(-lr, lr), Star(c, gens, -r, r))
            scale = np.abs(want.coeff_lo) + np.abs(want.coeff_hi)
            assert np.all(np.abs(-rad - want.coeff_lo) <= 1e-12 * scale)
            assert np.all(np.abs(rad - want.coeff_hi) <= 1e-12 * scale)

    def test_reduction_matches_star_reduction(self):
        # _Tables.reduce on a carried block and a history of its own
        # powers, its oldest block a box, told to keep what _girard_kept
        # gives on the live count: the columns it keeps, ties included, are
        # those stars.zono_reduce keeps of the Star of the live generators
        # (the history's oldest block in full, the later ones without their
        # zero radii), its restart box is the row sums of zono_reduce's box
        # columns to 1e-12, and it gives None where a Star refuses the set;
        # it carries those columns' image at the period's age alone, (n, c),
        # bitwise the age's slice of the product it takes
        rng = np.random.default_rng(1705)
        for trial in range(300):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(0, 4 * n + 3))
            gens = rng.normal(size=(n, m))
            r = rng.uniform(0, 2, m) * (rng.random(m) < 0.9)
            if m > 2 and rng.random() < 0.3:
                gens[:, 1] = gens[:, 0]  # tied norms
                r[1] = r[0]
            c = rng.normal(size=n)
            span = int(rng.integers(0, 3))
            tables = engine._Tables(rng.normal(size=(n, n)), np.zeros((n, n)),
                                    np.empty((0, n)), span, True)
            tables.carried = gens * r  # C at the period's age
            blocks = int(rng.integers(1, span + 2))
            live = rng.uniform(0, 2, blocks * n) * (rng.random(blocks * n) < 0.5)
            live[rng.random(blocks * n) < 0.1] = live[0]  # more ties
            # the history's generators, oldest block first
            hist = [tables.signed[:, b * n + j] * live[b * n + j]
                    for b in reversed(range(blocks)) for j in range(n)
                    if live[b * n + j] != 0.0 or b == blocks - 1]
            columns = np.column_stack([gens * r] + hist) if hist else gens * r
            ones = np.ones(columns.shape[1])
            want = zono_reduce(Star(c, columns, -ones, ones), 2 * n)
            kept, boxed = engine._girard_kept(columns.shape[1], n)
            box = tables.reduce(live, c, kept, True)
            count = kept + n * boxed
            kept = columns if columns.shape[1] <= 2 * n else want.generators[:, :n]
            image = (tables.signed[:n].reshape(-1, n) @ kept).reshape(n, -1, kept.shape[1])
            assert tables.carried.shape == (n, kept.shape[1]), trial
            assert tables.carried.tobytes() == image[:, span].tobytes(), trial
            if columns.shape[1] <= 2 * n:
                assert np.all(box == 0.0) and count == columns.shape[1], trial
            else:
                sums = want.generators[:, n:].sum(axis=1)
                assert np.all(np.abs(box - sums) <= 1e-12 * sums), trial
                assert count == want.n_gens == 2 * n, trial
        # a Star refuses a centre or radius that is not finite
        tables = engine._Tables(np.eye(2), np.zeros((2, 2)), np.empty((0, 2)), 1, True)
        live = np.array([0.0, 1.0, 1.0, 0.0])
        assert tables.reduce(live, np.array([np.inf, 0.0]), 3, True) is None
        with np.errstate(invalid="ignore"):  # 0 * inf
            for bad in (np.inf, np.nan):
                assert tables.reduce(live * bad, np.zeros(2), 3, True) is None
                tables.carried = np.array([[bad], [0.0]])
                assert tables.reduce(np.zeros(2), np.zeros(2), 3, True) is None
                tables.carried = np.empty((2, 0))

    def test_restart_box_with_a_zero_entry_counts_in_full(self):
        # x1 is kept in the carried block at each zonotope reduction and no
        # other generator reaches it, so the box the history restarts from
        # has x1's entry exactly zero; that block still counts its k
        # generators in full at the next reduction, as the star operations'
        # axis columns do, and the counts are the product recount's.  The
        # negative entry A[1, 1] keeps the table path, whose reduce this is
        model = ModelSpec(
            name="zero-box", a=np.array([[0.9, 0.0], [0.3, -0.8]]),
            uncertainty=(CellUncertainty(1, 1, relative=0.02),),
            initial=Box(np.array([-10.0, 0.0]), np.array([10.0, 0.1])),
            horizon=30, continuous=False,
            unsafe=(HalfSpace(np.array([1.0, 1.0]), 50.0),),
            reduction_method="zonotope", reduction_period=2)
        boxes, reduce = [], engine._Tables.reduce

        def recorded(tables, live, centre, kept, boxed):
            out = reduce(tables, live, centre, kept, boxed)
            boxes.append(out.copy())
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._Tables, "reduce", recorded)
            res = ors_reach(model)
        assert len(boxes) == 15 and all(b[0] == 0.0 < b[1] for b in boxes[1:])
        assert np.array_equal(res.gen_counts, product_recount(res, model))
        _, lo, hi, supports, counts = reference_flowpipe(model)
        assert_close(res.lo, lo)
        assert_close(res.hi, hi)
        assert np.array_equal(res.gen_counts, counts)

    def test_family_far_below_its_nominal_ulp_is_kept(self):
        # A[1, 0] = 1 with interval [1e-17, 2e-17]: every trajectory from
        # (1, 0) has x2 in [1e-17, 2e-17] at step 1, inside x2 >= 5e-18.
        # Lambda = L - A rounded to nearest was [-1, -1], so A (+) Lambda
        # was {0}, the step-1 box [0, 0] and the verdict safe
        model = ModelSpec(
            name="below-ulp", a=np.array([[0.0, 0.0], [1.0, 0.0]]),
            continuous=False, horizon=1,
            initial=Box(np.array([1.0, 0.0]), np.array([1.0, 0.0])),
            uncertainty=(CellUncertainty(1, 0, interval=(1e-17, 2e-17)),),
            unsafe=(HalfSpace(np.array([0.0, 1.0]), 5e-18),))
        res = ors_reach(model)
        assert res.lo[1, 1] <= 1e-17 and res.hi[1, 1] >= 2e-17
        verdict = safety_check(res, model.unsafe)
        assert not verdict.safe and verdict.step == 1

    def test_outward_sum_contains_exact_sum(self):
        # A (+) Lambda contains A + Lambda in exact rational arithmetic,
        # also where the sum rounds away an entry far below A's ulp
        rng = np.random.default_rng(1848)
        one = np.ones((1, 1))
        cases = [(one, IntervalMatrix(1e-17 * one, 1e-17 * one)),
                 (one, IntervalMatrix(0.9e-17 * one, 1.1e-17 * one)),
                 (1e8 * one, IntervalMatrix(-1e-8 * one, 1e-8 * one)),
                 (1e8 * one, IntervalMatrix(1e-8 * one, 3e-8 * one))]
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 9, (n, n))
            mid = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-20, 2, (n, n))
            rad = (np.abs(mid) * 10.0 ** rng.uniform(-17, 0, (n, n))
                   * (rng.random((n, n)) < 0.7))
            cases.append((a, IntervalMatrix(mid - rad, mid + rad)))
        naive_misses = 0
        for a, lam in cases:
            got = _add_outward(a, lam)
            for x, lo, hi, glo, ghi in zip(*(np.ravel(v) for v in (
                    a, lam.lo, lam.hi, got.lo, got.hi))):
                x, lo, hi, glo, ghi = map(Fraction, (x, lo, hi, glo, ghi))
                assert glo <= x + lo and x + hi <= ghi
            near_lo, near_hi = a + lam.lo, a + lam.hi  # rounded to nearest
            naive_misses += np.count_nonzero((near_lo != got.lo) | (near_hi != got.hi))
        # the sum rounded to nearest falls short somewhere
        assert naive_misses > 0
        # an exact sum keeps its bounds, so a point family stays a point
        a = np.array([[0.3, -1.7], [2.0, 0.1]])
        exact = _add_outward(a, IntervalMatrix.zeros(2, 2))
        assert np.array_equal(exact.lo, a) and np.array_equal(exact.hi, a)

    @pytest.mark.parametrize("name", ["girad1", "acc4", "twocell", "grow1d"])
    def test_centre_radius_contains_family_exactly(self, name):
        # M lies inside P +- Lr in exact rational arithmetic: for the
        # shipped one-step families and for random ones
        rng = np.random.default_rng([1849, len(name)])
        lo = rng.normal(size=(40, 3, 3)) * 10.0 ** rng.integers(-8, 8, (40, 3, 3))
        hi = lo + np.abs(lo) * 10.0 ** rng.uniform(-16, 0, lo.shape)
        hi[:, 0] = lo[:, 0]
        m = one_step_family(shipped(name))
        for flo, fhi in [(m.lo, m.hi), *zip(lo, hi)]:
            p, lr = _centre_radius(flo, fhi)
            for fl, fh, c, r in zip(*(np.ravel(v) for v in (flo, fhi, p, lr))):
                fl, fh, c, r = map(Fraction, (fl, fh, c, r))
                assert c - r <= fl and fh <= c + r

    def test_zero_family_adds_no_radius(self):
        # a point family's centre is the point itself, also above half the
        # float maximum and below the normal range, and its radius is zero
        a = np.array([[0.3, -1.7], [1.7e308, -np.finfo(float).max],
                      [5e-324, -3e-320]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, lr = _centre_radius(a, a)
        assert np.array_equal(p, a) and not np.any(lr)

    def test_random_models_contain_vertex_trajectories(self):
        rng = np.random.default_rng(31337)
        for trial in range(200):
            model = random_model(rng, ("none", "interval", "zonotope")[trial % 3],
                                 f"sweep{trial}")
            res = ors_reach(model)
            assert_contains_vertex_trajectories(rng, model, res.lo, res.hi, trial)

    def test_never_looser_than_abar_recurrence(self):
        # moving by the centre P of M and boxing [-Lr, Lr] gives boxes
        # inside those of the recurrence that moves by Abar = expm(A h) (A
        # for a discrete model) and boxes Lbar = M - Abar
        rng = np.random.default_rng(2007)
        for trial in range(100):
            model = random_model(rng, ("none", "interval")[trial % 2],
                                 f"looser{trial}")
            res = ors_reach(model)
            abar = (scipy.linalg.expm(model.a * model.step)
                    if model.continuous else model.a)
            lbar = _add_outward(-abar, one_step_family(model))
            lo, hi = abar_recurrence_boxes(abar, lbar, model)
            slack = 1e-12 * np.maximum(np.abs(lo), np.abs(hi)).max(
                axis=1, keepdims=True)
            assert np.all(res.lo >= lo - slack), trial
            assert np.all(res.hi <= hi + slack), trial
            assert_contains_vertex_trajectories(rng, model, res.lo, res.hi, trial)


def random_model(rng, reduction, name):
    """A random model with n <= 5, continuous or discrete, zero cells in
    A, exact zero rows of Lbar, zero-width cells and flat initial
    coordinates, reduced with a period of 1, in the horizon, or beyond it."""
    n = int(rng.integers(1, 6))
    a = rng.uniform(-1, 1, (n, n)) * (rng.random((n, n)) < 0.7)
    continuous = bool(rng.random() < 0.5)
    if not continuous:
        a /= max(1.0, float(np.max(np.abs(np.linalg.eigvals(a)))))
    rows = rng.random(n) < 0.6  # the other rows stay exact
    cells = []
    for i, j in zip(*np.nonzero(rows[:, None] & (rng.random((n, n)) < 0.5))):
        if rng.random() < 0.2:
            cells.append(CellUncertainty(int(i), int(j),
                                         interval=(a[i, j], a[i, j])))
        else:
            w = float(rng.uniform(0, 0.1))
            cells.append(CellUncertainty(int(i), int(j),
                                         interval=(a[i, j] - w, a[i, j] + w)))
    lo = rng.uniform(-1, 1, n)
    horizon = int(rng.integers(1, 40))
    period = int(rng.choice([1, int(rng.integers(1, horizon + 1)),
                             horizon + 5]))
    return ModelSpec(
        name=name, a=a, uncertainty=tuple(cells),
        initial=Box(lo, lo + rng.uniform(0, 1, n) * (rng.random(n) < 0.8)),
        horizon=horizon, continuous=continuous,
        step=0.05 if continuous else None,
        reduction_method=reduction, reduction_period=period)


def assert_contains_vertex_trajectories(rng, model, lo, hi, trial):
    """Trajectories of vertex members from corners of Theta stay inside."""
    n = model.dim
    lam = _add_outward(model.a, model.perturbation())
    for _ in range(4):
        member = np.where(rng.random((n, n)) < 0.5, lam.lo, lam.hi)
        step_m = (scipy.linalg.expm(member * model.step) if model.continuous
                  else member)
        x = np.where(rng.random((n, 8)) < 0.5, model.initial.lo[:, None],
                     model.initial.hi[:, None])
        for k in range(model.horizon + 1):
            assert np.all(x >= lo[k][:, None] - 1e-9), (trial, k)
            assert np.all(x <= hi[k][:, None] + 1e-9), (trial, k)
            x = step_m @ x


def abar_recurrence_boxes(abar, lbar, model):
    """Boxes of the recurrence R_k = Abar R_{k-1} (+) lambda_box(Lbar,
    R_{k-1}), the fresh block re-centred, with the model's interval
    reductions."""
    s = recentre(Star.from_box(model.initial))
    boxes = [s.bounding_box()]
    for k in range(1, model.horizon + 1):
        u = compact(recentre(lambda_box(lbar, s)))
        s = minkowski_sum(linear_map(abar, s), u)
        if (model.reduction_method == "interval"
                and k % model.reduction_period == 0):
            s = recentre(interval_reduce(s))
        boxes.append(s.bounding_box())
    return np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])
