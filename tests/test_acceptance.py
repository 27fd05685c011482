"""Acceptance suite: nine numbered criteria, one visible PASS/FAIL line each.

Verdict lines accumulate in VERDICTS and are echoed after the run by the
conftest terminal-summary hook, so they stay visible through pytest's
capture. The randomized criteria use fixed seeds; tolerances are stated
inline next to each assertion.
"""

import functools
import time

import numpy as np
import pytest
import scipy.linalg

from uncreach import (
    Box,
    CellUncertainty,
    HalfSpace,
    IntervalMatrix,
    ModelSpec,
    kagstrom1,
    kagstrom2,
    loan,
    nominal_reach,
    order_cells,
    ors_reach,
    robustness_threshold,
    spectral_data,
)
from uncreach.stars import membership_directions

GIRAD_A = np.array([[-1.0, -4.0], [4.0, -1.0]])
GIRAD_INIT = Box(np.array([0.9, -0.1]), np.array([1.1, 0.1]))

VERDICTS: list[str] = []


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                VERDICTS.append(f"criterion {num}: FAIL - {type(exc).__name__}: {exc}")
                raise
            VERDICTS.append(f"criterion {num}: PASS - {detail}")
        return wrapper
    return deco


def girad_model(reduction="none"):
    return ModelSpec(
        name="girad", a=GIRAD_A,
        uncertainty=(CellUncertainty(0, 0, relative=0.02),
                     CellUncertainty(1, 0, relative=0.02)),
        initial=GIRAD_INIT, horizon=2050, continuous=True, step=0.01,
        reduction_method=reduction, reduction_period=500)


@criterion(1)
def test_numeric_reach_soundness():
    """100 random scenarios, 20 trajectories each, membership at 1e-9."""
    rng = np.random.default_rng(1001)
    worst = -np.inf
    for trial in range(100):
        n = int(rng.integers(1, 5))
        a = rng.uniform(-1, 1, (n, n)) * 0.8
        cells = tuple(CellUncertainty(i, j, relative=0.05)
                      for i in range(n) for j in range(n)
                      if rng.random() < 0.3)
        continuous = bool(rng.random() < 0.5)
        lo = rng.uniform(-1, 0, n)
        model = ModelSpec(
            name=f"r{trial}", a=a, uncertainty=cells,
            initial=Box(lo, lo + rng.uniform(0.1, 1.0, n)),
            horizon=int(rng.integers(5, 51)),
            continuous=continuous, step=0.05 if continuous else None)
        lam = model.lambda_u()
        res = ors_reach(model)
        dirs = membership_directions(n, extra=60)
        sups = res.support(dirs)
        for _ in range(20):
            x = model.initial.sample(rng)[0]
            e = lam.sample(rng)
            step_m = scipy.linalg.expm(e * model.step) if continuous else e
            for k in range(model.horizon + 1):
                excess = float(np.max(dirs @ x - sups[k]))
                worst = max(worst, excess)
                assert excess <= 1e-9, (trial, k)
                x = step_m @ x
    return f"100 scenarios, 2000 trajectories, max membership excess {worst:.3g}"


@criterion(2)
def test_bound_validity():
    """Measured relative error under each closed form, slack 1e-9."""
    rng = np.random.default_rng(1002)
    checked = kag2_checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a = rng.uniform(-1, 1, (n, n))
        lam = IntervalMatrix.from_center_radius(
            np.zeros((n, n)), rng.uniform(0, 0.2, (n, n)))
        lam_norm = lam.two_norm_sup()
        e = lam.sample(rng)
        use_k2 = spectral_data(a).cond_s < 1e6
        for t in (0.1, 0.5, 1.0, 2.0):
            base = scipy.linalg.expm(a * t)
            err = (np.linalg.norm(scipy.linalg.expm((a + e) * t) - base, 2)
                   / np.linalg.norm(base, 2))
            assert err <= kagstrom1(a, lam_norm, t) + 1e-9
            assert err <= loan(a, lam_norm, t) + 1e-9
            checked += 1
            if use_k2:
                assert err <= kagstrom2(a, lam_norm, t) + 1e-9
                kag2_checked += 1
    return f"{checked} (A,E,t) checks, kagstrom2 on {kag2_checked} of them"


@criterion(3)
def test_norm_lattice():
    """Sampled 2-norms under the interval sups; Frobenius variants dominate."""
    rng = np.random.default_rng(1003)
    for trial in range(1000):
        n = int(rng.integers(1, 6))
        lam = IntervalMatrix.from_center_radius(
            rng.uniform(-1, 1, (n, n)), rng.uniform(0, 1, (n, n)))
        two = lam.two_norm_sup()
        fro = lam.frobenius_sup()
        assert two <= fro + 1e-12
        for _ in range(3):
            assert np.linalg.norm(lam.sample(rng), 2) <= two + 1e-9
        a = rng.uniform(-1, 1, (n, n))
        use_k2 = spectral_data(a).cond_s < 1e6
        for t in (0.1, 0.5, 1.0, 2.0):
            assert kagstrom1(a, fro, t) >= kagstrom1(a, two, t) - 1e-12
            assert loan(a, fro, t) >= loan(a, two, t) - 1e-12
            if use_k2:
                assert kagstrom2(a, fro, t) >= kagstrom2(a, two, t) - 1e-12
    return "1000 interval matrices, lattice and domination hold"


@criterion(4)
def test_zero_uncertainty_equivalence():
    """Lambda = 0 flowpipe equals the nominal one within 1e-9 over 2050 steps."""
    model = ModelSpec(name="girad0", a=GIRAD_A, uncertainty=(),
                      initial=GIRAD_INIT, horizon=2050,
                      continuous=True, step=0.01)
    res = ors_reach(model)
    ref = nominal_reach(scipy.linalg.expm(GIRAD_A * 0.01), GIRAD_INIT, 2050)
    dev = 0.0
    for got, want in zip(res.boxes, ref.boxes):
        dev = max(dev, float(np.max(np.abs(got.lo - want.lo))),
                  float(np.max(np.abs(got.hi - want.hi))))
    assert dev <= 1e-9
    return f"2051 boxes, max endpoint deviation {dev:.3g}"


@criterion(5)
def test_reduction_contract_and_speed():
    """Reduced run contains the unreduced sets and is strictly faster."""
    ors_reach(girad_model())  # untimed first run: no first-call cost timed
    res_plain = min((ors_reach(girad_model(reduction="none"))
                     for _ in range(2)), key=lambda r: r.wall_time)
    res_red = min((ors_reach(girad_model(reduction="interval"))
                   for _ in range(2)), key=lambda r: r.wall_time)
    rng = np.random.default_rng(77)
    dirs = rng.normal(size=(100, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sup_red, sup_plain = res_red.support(dirs), res_plain.support(dirs)
    margin = np.inf
    for k in (500, 1000, 2000):
        gap = sup_red[k] - sup_plain[k]
        margin = min(margin, float(np.min(gap)))
    assert margin >= -1e-9
    assert res_red.wall_time < res_plain.wall_time
    ratio = res_plain.wall_time / res_red.wall_time
    return (f"containment margin {margin:.3g}, "
            f"wall {res_plain.wall_time:.2f}s -> {res_red.wall_time:.2f}s "
            f"({ratio:.1f}x)")


@criterion(6)
def test_ordering_matches_finite_difference():
    """Top-3 cells agree with a brute-force finite-difference ranking, 50/50."""
    rng = np.random.default_rng(61814)
    eps = 1e-6
    agree = done = attempts = 0
    while done < 50:
        attempts += 1
        a = rng.normal(size=(4, 4))
        s = np.linalg.svd(a, compute_uv=False)
        if s[0] - s[1] < 0.05 * s[0]:
            continue  # gap comfortably above the 1e-3 floor
        base = float(s[0])
        fd = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                b = np.zeros((4, 4))
                b[i, j] = a[i, j]
                fd[i, j] = abs(float(np.linalg.svd(a + eps * b,
                                                   compute_uv=False)[0]) - base) / eps
        ordered = np.sort(fd.ravel())[::-1]
        if ordered[2] - ordered[3] <= 1e-3:
            continue  # finite-difference ranking itself is ill-separated
        fd_rank = sorted(((i, j) for i in range(4) for j in range(4)),
                         key=lambda c: (-fd[c], c[0], c[1]))
        done += 1
        if order_cells(a).top(3) == tuple(fd_rank[:3]):
            agree += 1
    assert agree == 50
    return f"50/50 top-3 agreement ({attempts} draws)"


@criterion(7)
def test_interval_two_norm_bounds_action():
    """||A x|| <= two_norm_sup for sampled members and unit vectors."""
    rng = np.random.default_rng(1007)
    worst = -np.inf
    for _ in range(100):
        n = int(rng.integers(1, 5))
        lam = IntervalMatrix.from_center_radius(
            rng.uniform(-1, 1, (n, n)), rng.uniform(0, 1, (n, n)))
        radius = lam.two_norm_sup()
        u = rng.uniform(size=(1000, n, n))
        members = lam.lo + (lam.hi - lam.lo) * u
        x = rng.normal(size=(1000, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        norms = np.linalg.norm(np.einsum("kij,kj->ki", members, x), axis=1)
        excess = float(np.max(norms - radius))
        worst = max(worst, excess)
        assert excess <= 1e-9
    return f"100 families x 1000 samples, max excess {worst:.3g}"


@criterion(8)
def test_robustness_search_worked_example():
    """1-D map from {1}, unsafe at 1.25: threshold norm 0.1, trace as derived."""
    model = ModelSpec(
        name="grow", a=np.array([[1.0]]), uncertainty=(),
        initial=Box(np.array([1.0]), np.array([1.0])),
        horizon=2, continuous=False,
        unsafe=(HalfSpace(np.array([1.0]), 1.25),))
    report = robustness_threshold(model, ((0, 0),), scheme="equal", step=0.05)
    assert abs(report.norm - 0.1) < 1e-12
    budgets = [round(b, 10) for b, _ in report.trace]
    safes = [s for _, s in report.trace]
    assert budgets == [0.0, 0.05, 0.1, 0.15]
    assert safes == [True, True, True, False]
    return f"norm {report.norm!r}, trace safe/safe/safe/unsafe"


@criterion(9)
def test_sensitivity_asymmetry():
    """Perturbing the top-ranked cell inflates step-100 volume more."""
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, (5, 5))
    a /= np.linalg.norm(a, 2)
    om = order_cells(a)
    top = om.ranking[0]
    bottom = next(c for c in reversed(om.ranking) if abs(a[c]) > 0)

    def volume_at_100(cell):
        model = ModelSpec(
            name="probe", a=a,
            uncertainty=(CellUncertainty(cell[0], cell[1], relative=0.02),),
            initial=Box(np.full(5, 0.9), np.full(5, 1.1)),
            horizon=100, continuous=False)
        return ors_reach(model).boxes[100].volume()

    v_top = volume_at_100(top)
    v_bottom = volume_at_100(bottom)
    assert v_top > v_bottom
    return (f"top cell {top} vol {v_top:.3g} > "
            f"bottom nonzero cell {bottom} vol {v_bottom:.3g}")


@criterion("suite-timing")
def test_acceptance_runtime_budget():
    """The heavy runs above must stay within desk scale; spot-check one."""
    start = time.perf_counter()
    ors_reach(girad_model(reduction="interval"))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    return f"2050-step reduced run in {elapsed:.2f}s"
