"""Tests for discretization, the uncertain reach recurrence and safety checks."""

import dataclasses
import importlib.resources
import itertools
import tracemalloc
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
    Star,
    compact,
    discretize,
    interval_reduce,
    lambda_box,
    linear_map,
    load_model,
    minkowski_sum,
    nominal_reach,
    ors_reach,
    reach_with_perturbation,
    safety_check,
    zono_reduce,
)
from uncreach.engine import (
    _centre_radius, _chunk_steps, _orbit, _run_recurrence, _split)

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


class TestHalfSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            HalfSpace(np.array([np.inf, 0.0]), 1.0)
        with pytest.raises(ValueError):
            HalfSpace(np.array([1.0]), np.nan)


class TestModelSpec:
    def test_lambda_u_relative(self):
        m = ModelSpec(name="m", a=np.array([[2.0]]),
                      uncertainty=(CellUncertainty(0, 0, relative=0.5),),
                      initial=Box(np.zeros(1), np.ones(1)),
                      horizon=1, continuous=False)
        lam = m.lambda_u()
        assert lam.lo[0, 0] == pytest.approx(1.0)
        assert lam.hi[0, 0] == pytest.approx(3.0)
        pert = m.perturbation()
        assert pert.lo[0, 0] == pytest.approx(-1.0)
        assert pert.hi[0, 0] == pytest.approx(1.0)

    def test_lambda_u_interval_is_entry_range(self):
        m = scalar_growth_model()
        lam = m.lambda_u()
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
        with pytest.raises(ValueError):
            ModelSpec(**{**good, "uncertainty": (CellUncertainty(2, 0, relative=0.1),)})
        with pytest.raises(ValueError):
            ModelSpec(**{**good, "uncertainty": (CellUncertainty(-1, 0, relative=0.1),)})
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(**{**good, "initial": Box(np.zeros(2),
                                                np.array([1.0, np.inf]))})

    def test_rejects_cell_listed_twice(self):
        # a second entry must not narrow the family the model lists
        cells = (CellUncertainty(0, 0, relative=0.1),
                 CellUncertainty(0, 0, interval=(0.0, 0.5)))
        with pytest.raises(ValueError, match=r"\(0,0\) listed twice"):
            dataclasses.replace(scalar_growth_model(), uncertainty=cells)

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


class TestDiscretize:
    def test_zero_matrix_zero_family(self):
        abar, lambar = discretize(np.zeros((2, 2)), IntervalMatrix.zeros(2, 2), 0.5)
        assert np.allclose(abar, np.eye(2), atol=1e-15)
        assert np.all(np.abs(lambar.lo) <= 1e-18)
        assert np.all(np.abs(lambar.hi) <= 1e-18)

    def test_nominal_matches_dense_expm(self):
        abar, _ = discretize(GIRAD_A, IntervalMatrix.zeros(2, 2), 0.1)
        assert np.allclose(abar, scipy.linalg.expm(GIRAD_A * 0.1), atol=1e-13)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            discretize(GIRAD_A, IntervalMatrix.zeros(2, 2), 0.0)
        with pytest.raises(ValueError):
            discretize(GIRAD_A, IntervalMatrix.zeros(2, 2), -0.1)

    def test_contains_sampled_exponentials(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            a = rng.uniform(-1, 1, (n, n))
            pert = IntervalMatrix.from_center_radius(np.zeros((n, n)),
                                                     rng.uniform(0, 0.1, (n, n)))
            abar, lambar = discretize(a, pert, 0.1)
            hull = lambar + IntervalMatrix.from_point(abar)
            for _ in range(10):
                e = pert.sample(rng)
                assert hull.contains(scipy.linalg.expm((a + e) * 0.1), tol=1e-9)


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
            lam = model.lambda_u()
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
        lam = m_none.lambda_u()
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
            lam = IntervalMatrix.from_center_radius(
                np.zeros((n, n)), rng.uniform(0, 0.05, (n, n)))
            lo = rng.uniform(-1, 1, n)
            theta = Box(lo, lo + rng.uniform(0, 1, n))
            times = np.arange(31) * rng.uniform(0.02, 0.1)
            res = symbolic_reach(a, lam, theta, times, method="loan")
            dirs = rng.normal(size=(3, n))
            ref = np.array([
                linear_map(expm(a * t), theta.to_star())
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


def one_step_maps(model):
    """(Abar, Lbar) as the numeric route uses them."""
    if model.continuous:
        return discretize(model.a, model.perturbation(), model.step)
    return model.a, model.perturbation()


def recentre(s):
    """The same star with coefficients centred on zero."""
    mid = 0.5 * (s.coeff_lo + s.coeff_hi)
    half = 0.5 * (s.coeff_hi - s.coeff_lo)
    return Star(s.anchor + s.generators @ mid, s.generators, -half, half)


def reference_flowpipe(model):
    """Stars, boxes, supports and generator counts of the model's flowpipe
    from the public star operations (see reference_run)."""
    abar, lbar = one_step_maps(model)
    normals = np.vstack([hs.normal for hs in model.unsafe])
    return reference_run(abar, lbar, model.initial, model.horizon,
                         model.reduction_method, model.reduction_period,
                         normals)


def reference_run(abar, lbar, initial, horizon, reduction, period, normals):
    """Stars, boxes, supports and generator counts from the public star
    operations, each set kept centred: the set moves by P and gains the
    lambda_box block of [-Lr, Lr] (Abar + Lbar split as engine._split),
    and Theta and every interval hull are re-centred."""
    p, lr = _split(abar, lbar)
    s = recentre(initial.to_star())
    stars = [s]
    for k in range(1, horizon + 1):
        u = compact(lambda_box(IntervalMatrix(-lr, lr), s))
        s = minkowski_sum(linear_map(p, s), u)
        if reduction != "none" and k % period == 0:
            if reduction == "interval":
                s = recentre(interval_reduce(s))
            else:
                s = zono_reduce(s, 2 * initial.dim)
        stars.append(s)
    boxes = [s.bounding_box() for s in stars]
    return (stars, np.array([b.lo for b in boxes]),
            np.array([b.hi for b in boxes]),
            np.array([s.support_batch(normals) for s in stars]),
            np.array([s.n_gens for s in stars]))


def assert_replay_matches(res):
    """A replay in the recorded normals gives the recorded supports
    bitwise; one in +-e_i gives hi and -lo."""
    n = res.lo.shape[1]
    blank = dataclasses.replace(res, normals=None, supports=None)
    assert np.array_equal(blank.support(res.normals), res.supports)
    axes = res.support(np.vstack((np.eye(n), -np.eye(n))))
    assert_close(axes[:, :n], res.hi)
    assert_close(axes[:, n:], -res.lo)


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
        abar, lbar = one_step_maps(model)
        want = reference_run(abar, lbar, model.initial, model.horizon,
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

    def test_overflow_raises(self):
        model = ModelSpec(name="blowup", a=np.array([[1e10]]),
                          uncertainty=(CellUncertainty(0, 0, relative=0.1),),
                          initial=Box(np.array([1.0]), np.array([2.0])),
                          horizon=40, continuous=False)
        with pytest.raises(ValueError), np.errstate(all="ignore"):
            ors_reach(model)

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
        # the chunked recurrence reads windows of its n + k row table in
        # place: a table with 2n + k rows (generators moved by Abar, each
        # age boxed through Lm) or a chunk-by-window temporary would lift
        # this peak above 0.8 MB
        model = dataclasses.replace(load_model(
            importlib.resources.files("uncreach") / "models" / "acc4.yaml"),
            reduction_method="none")
        tracemalloc.start()
        try:
            ors_reach(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8e6


def chunk_case(n):
    """Discrete one-step maps, box and normals for the chunk-edge tests.

    Abar is scaled to spectral radius 0.95 so that long horizons stay
    finite; Lbar has a nonzero midpoint, exact entries and an exact row,
    Theta a flat coordinate.
    """
    rng = np.random.default_rng([2005, n])
    abar = rng.uniform(-1, 1, (n, n))
    abar *= 0.95 / max(np.max(np.abs(np.linalg.eigvals(abar))), 1e-3)
    mid = rng.normal(scale=0.01, size=(n, n))
    rad = rng.uniform(0, 0.02, (n, n)) * (rng.random((n, n)) < 0.7)
    rad[0] = 0.0
    lo = rng.uniform(-1, 1, n)
    hi = lo + rng.uniform(0.1, 1, n)
    hi[n - 1] = lo[n - 1]
    return (abar, IntervalMatrix(mid - rad, mid + rad), Box(lo, hi),
            rng.normal(size=(2, n)))


class TestChunkBoundaries:
    """Horizons and reduction periods on both sides of the chunk length B."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("reduction,period", [
        ("none", "beyond"),
        *((r, p) for r in ("interval", "zonotope")
          for p in (1, 7, "B", "B+3", "beyond"))])
    def test_matches_star_operations(self, n, reduction, period):
        b = _chunk_steps(n)
        abar, lbar, theta, normals = chunk_case(n)
        for horizon in (0, 1, b - 1, b, b + 1, 3 * b + 2):
            per = {"B": b, "B+3": b + 3, "beyond": horizon + 5}.get(
                period, period)
            res = _run_recurrence(abar, lbar, theta, horizon, reduction, per,
                                  "numeric", normals)
            _, lo, hi, supports, counts = reference_run(
                abar, lbar, theta, horizon, reduction, per, normals)
            assert_close(res.lo, lo)
            assert_close(res.hi, hi)
            assert_close(res.supports, supports)
            assert np.array_equal(res.gen_counts, counts), horizon
            assert_replay_matches(res)


class TestOrbit:
    """The one doubling: powers a^k x0, with or without error rows."""

    def test_error_rows_leave_the_powers_bitwise(self):
        rng = np.random.default_rng(404)
        for n in (1, 2, 3, 5):
            a = rng.normal(size=(n, n)) / n
            a_err = rng.uniform(0, 1e-12, (n, n))
            for x0 in (np.eye(n), rng.normal(size=(n, 2))):
                for count in (1, 2, 3, 7, 64):
                    plain = _orbit(a, x0, count)
                    powers, errs = _orbit(a, x0, count, a_err)
                    assert np.array_equal(powers, plain)
                    assert errs.shape == plain.shape
                    w = x0.shape[1]
                    assert not errs[:, :w].any() and np.all(errs >= 0)

    def test_error_rows_bound_every_member_power(self):
        # A = a + S o a_err at sign vertices S: A^k x0 in exact rational
        # arithmetic lies within block k of the error rows
        rng = np.random.default_rng(405)
        n, count = 2, 9
        a = rng.normal(size=(n, n)) * 0.7
        a_err = rng.uniform(0, 1e-3, (n, n))
        x0 = rng.normal(size=(n, 1))
        powers, errs = _orbit(a, x0, count, a_err)
        for signs in itertools.product((-1, 1), repeat=n * n):
            member = a + np.reshape(signs, (n, n)) * a_err
            exact = [[Fraction(v) for v in row] for row in member]
            x = [Fraction(v) for v in x0[:, 0]]
            for k in range(count):
                for i in range(n):
                    assert abs(x[i] - Fraction(powers[i, k])) <= Fraction(errs[i, k])
                x = [sum(exact[i][j] * x[j] for j in range(n)) for i in range(n)]


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
        _, lbar = one_step_maps(load_model(
            importlib.resources.files("uncreach") / "models" / f"{name}.yaml"))
        mid, rad = _centre_radius(lbar.lo, lbar.hi)
        assert np.all(mid - rad <= lbar.lo) and np.all(mid + rad >= lbar.hi)
        assert np.array_equal(rad == 0.0, lbar.lo == lbar.hi)

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
            _, lr = _split(rng.normal(size=(n, n)), lam)
            # the engine's fresh radius Lr (|c| + q[:n]), q[:n] = sum |g r|
            rad = lr @ (np.abs(c) + np.abs(gens * r).sum(axis=1))
            want = lambda_box(IntervalMatrix(-lr, lr), Star(c, gens, -r, r))
            scale = np.abs(want.coeff_lo) + np.abs(want.coeff_hi)
            assert np.all(np.abs(-rad - want.coeff_lo) <= 1e-12 * scale)
            assert np.all(np.abs(rad - want.coeff_hi) <= 1e-12 * scale)

    def test_split_contains_remainder_exactly(self):
        # [Abar + Lbar.lo, Abar + Lbar.hi] lies inside [P - Lr, P + Lr] in
        # exact rational arithmetic, also where Abar + Lm rounds away a
        # midpoint far below Abar's ulp
        rng = np.random.default_rng(1848)
        one = np.ones((1, 1))
        cases = [(one, IntervalMatrix(1e-17 * one, 1e-17 * one)),
                 (one, IntervalMatrix(0.9e-17 * one, 1.1e-17 * one)),
                 (1e8 * one, IntervalMatrix(-1e-8 * one, 1e-8 * one)),
                 (1e8 * one, IntervalMatrix(1e-8 * one, 3e-8 * one))]
        for _ in range(200):
            n = int(rng.integers(1, 5))
            abar = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 9, (n, n))
            mid = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-20, 2, (n, n))
            rad = (np.abs(mid) * 10.0 ** rng.uniform(-17, 0, (n, n))
                   * (rng.random((n, n)) < 0.7))
            cases.append((abar, IntervalMatrix(mid - rad, mid + rad)))
        naive_misses = 0
        for abar, lbar in cases:
            p, lr = _split(abar, lbar)
            _, rad = _centre_radius(lbar.lo, lbar.hi)
            for a, lo, hi, pi, ri, r0 in zip(*(np.ravel(x) for x in (
                    abar, lbar.lo, lbar.hi, p, lr, rad))):
                a, lo, hi, pi, ri, r0 = map(Fraction, (a, lo, hi, pi, ri, r0))
                assert pi - ri <= a + lo and a + hi <= pi + ri
                naive_misses += pi - r0 > a + lo or a + hi > pi + r0
        # without the rounding error, Lbar's own radius falls short
        assert naive_misses > 0

    def test_zero_family_adds_no_radius(self):
        abar = np.array([[0.3, -1.7], [2.0, 0.1]])
        p, lr = _split(abar, IntervalMatrix.zeros(2, 2))
        assert np.array_equal(p, abar) and not np.any(lr)

    def test_random_models_contain_vertex_trajectories(self):
        rng = np.random.default_rng(31337)
        for trial in range(200):
            model = random_model(rng, ("none", "interval", "zonotope")[trial % 3],
                                 f"sweep{trial}")
            res = ors_reach(model)
            assert_contains_vertex_trajectories(rng, model, res.lo, res.hi, trial)

    def test_never_looser_than_abar_recurrence(self):
        # moving by P = Abar + Lm and boxing [-Lr, Lr] gives boxes inside
        # those of the recurrence that moves by Abar and boxes Lbar
        rng = np.random.default_rng(2007)
        for trial in range(100):
            model = random_model(rng, ("none", "interval")[trial % 2],
                                 f"looser{trial}")
            res = ors_reach(model)
            abar, lbar = one_step_maps(model)
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
    lam = model.lambda_u()
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
    s = recentre(model.initial.to_star())
    boxes = [s.bounding_box()]
    for k in range(1, model.horizon + 1):
        u = compact(recentre(lambda_box(lbar, s)))
        s = minkowski_sum(linear_map(abar, s), u)
        if (model.reduction_method == "interval"
                and k % model.reduction_period == 0):
            s = recentre(interval_reduce(s))
        boxes.append(s.bounding_box())
    return np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])
