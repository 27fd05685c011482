"""Tests for boxes, generator-form star sets and the reduction operators."""

import importlib.resources
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import uncreach
from uncreach import Box, DimensionMismatch, IntervalMatrix
from uncreach.stars import (
    Star,
    compact,
    interval_reduce,
    lambda_box,
    linear_map,
    membership_directions,
    minkowski_sum,
    zono_reduce,
)

from conftest import centred


def unit_square():
    # anchor 0, generators e1/e2, coefficients [-1,1]^2
    return Star(np.zeros(2), np.eye(2), -np.ones(2), np.ones(2))


def rotated_square():
    g = np.array([[1.0, 1.0], [1.0, -1.0]])
    return Star(np.zeros(2), g, -np.ones(2), np.ones(2))


def random_star(rng, n, m):
    return Star(rng.uniform(-1, 1, n), rng.uniform(-1, 1, (n, m)),
                -rng.uniform(0, 1, m), rng.uniform(0, 1, m))


class TestBox:
    def test_accessors(self):
        b = Box(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
        assert b.dim == 2
        assert np.array_equal(b.center, np.array([0.0, 2.0]))
        # pushed one ulp outward, so that center -+ radius covers the box
        assert np.array_equal(b.radius, np.nextafter([1.0, 2.0], np.inf))
        assert np.array_equal(b.widths(), np.array([2.0, 4.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Box(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            Box(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            Box(np.zeros(2), np.zeros(3))

    def test_unbounded_axes(self):
        # an overflowed flowpipe step is a box with infinite bounds
        b = Box(np.array([-np.inf, 0.0]), np.array([np.inf, 1.0]))
        assert b.contains(np.array([1e308, 0.5]))
        assert b.max_norm() == np.inf
        with pytest.raises(ValueError):
            Box(np.array([np.nan, 0.0]), np.array([np.inf, 1.0]))
        with pytest.raises(ValueError):
            Box(np.array([np.inf]), np.array([-np.inf]))

    def test_unbounded_center(self):
        # an axis with an infinite bound centres at 0, without a NaN or a warning
        b = Box(np.array([-np.inf, 0.0, -np.inf, 1.0]),
                np.array([np.inf, 1.0, 2.0, np.inf]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mid = b.center
        assert np.array_equal(mid, [0.0, 0.5, 0.0, 0.0])
        assert np.array_equal(b.lo, [-np.inf, 0.0, -np.inf, 1.0])

    def test_sample_rejects_unbounded(self):
        rng = np.random.default_rng(0)
        for lo, hi in (([-np.inf, 0.0], [np.inf, 1.0]),
                       ([0.0, 0.0], [1.0, np.inf]),
                       ([-np.inf, 0.0], [0.0, 1.0])):
            with pytest.raises(ValueError, match="unbounded"):
                Box(np.array(lo), np.array(hi)).sample(rng)

    def test_contains(self):
        b = Box(np.zeros(2), np.ones(2))
        assert b.contains(np.array([0.5, 1.0]))
        assert not b.contains(np.array([0.5, 1.1]))
        assert b.contains(np.array([0.5, 1.1]), tol=0.2)

    def test_max_norm(self):
        b = Box(np.array([-2.0, 1.0]), np.array([1.0, 3.0]))
        # farthest corner is (-2, 3)
        assert b.max_norm() == pytest.approx(math.sqrt(13), rel=1e-15)

    def test_sample_inside(self):
        rng = np.random.default_rng(3)
        b = Box(np.array([-1.0, 2.0]), np.array([0.0, 5.0]))
        pts = b.sample(rng, 200)
        assert pts.shape == (200, 2)
        assert all(b.contains(p) for p in pts)

    def test_to_star_roundtrip(self):
        b = Box(np.array([-1.0, 2.0]), np.array([0.0, 5.0]))
        s = Star.from_box(b)
        back = s.bounding_box()
        assert np.allclose(back.lo, b.lo) and np.allclose(back.hi, b.hi)


class TestStar:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            Star(np.zeros(2), np.eye(3), -np.ones(3), np.ones(3))
        with pytest.raises(DimensionMismatch):
            Star(np.zeros(2), np.eye(2), -np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            Star(np.zeros(2), np.eye(2), np.ones(2), -np.ones(2))

    def test_point(self):
        s = Star.point(np.array([1.0, -2.0]))
        assert s.n_gens == 0
        box = s.bounding_box()
        assert np.array_equal(box.lo, np.array([1.0, -2.0]))
        assert np.array_equal(box.hi, np.array([1.0, -2.0]))

    def test_support_axis_directions(self):
        s = unit_square()
        assert s.support(np.array([1.0, 0.0])) == 1.0
        assert s.support(np.array([0.0, -1.0])) == 1.0
        assert s.support(np.array([1.0, 1.0])) == 2.0

    def test_support_shifted_anchor(self):
        s = Star(np.array([3.0, 0.0]), np.eye(2), -np.ones(2), np.ones(2))
        assert s.support(np.array([1.0, 0.0])) == 4.0
        assert s.support(np.array([-1.0, 0.0])) == -2.0

    def test_support_batch_matches_loop(self):
        rng = np.random.default_rng(17)
        s = random_star(rng, 3, 5)
        dirs = rng.normal(size=(40, 3))
        batch = s.support_batch(dirs)
        for i, d in enumerate(dirs):
            assert batch[i] == pytest.approx(s.support(d), rel=1e-13, abs=1e-13)

    def test_support_is_linear_in_generators(self):
        # support of A s in direction l equals support of s in direction A^T l
        rng = np.random.default_rng(23)
        for _ in range(50):
            s = random_star(rng, 3, 4)
            a = rng.normal(size=(3, 3))
            mapped = linear_map(a, s)
            d = rng.normal(size=3)
            assert mapped.support(d) == pytest.approx(s.support(a.T @ d), abs=1e-12)

    def test_bounding_box_diamond(self):
        box = rotated_square().bounding_box()
        assert np.allclose(box.lo, [-2.0, -2.0])
        assert np.allclose(box.hi, [2.0, 2.0])

    def test_contains_point(self):
        s = rotated_square()
        assert s.contains_point(np.array([2.0, 0.0]))
        assert s.contains_point(np.array([0.0, 0.0]))
        assert not s.contains_point(np.array([2.1, 0.0]))

    def test_sample_inside(self):
        rng = np.random.default_rng(5)
        s = random_star(rng, 2, 6)
        for p in s.sample(rng, 100):
            assert s.contains_point(p)

    def test_sample_near_float_range_and_point(self):
        # lo + u (hi - lo) overflowed to inf for coefficients in
        # [-1e308, 1e308]; draws are centre + (2u - 1) radius, clipped
        rng = np.random.default_rng(6)
        s = Star(np.zeros(1), np.eye(1), [-1e308], [1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = s.sample(rng, 100)
        assert pts.shape == (100, 1)
        assert np.all(np.isfinite(pts))
        assert np.all((pts >= -1e308) & (pts <= 1e308))
        x = np.array([1.5, -2.0])
        assert np.array_equal(Star.point(x).sample(rng, 3), np.tile(x, (3, 1)))


class TestMembershipDirections:
    def test_shape_and_axes(self):
        dirs = membership_directions(3, extra=10)
        assert dirs.shape == (2 * 3 + 10, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)

    def test_deterministic(self):
        assert np.array_equal(membership_directions(2), membership_directions(2))

    def test_seed_is_part_of_the_cache_key(self):
        # the cache used to be keyed on (dim, extra) and returned the first seed's rows
        first = membership_directions(2, 5, seed=1)
        assert not np.array_equal(membership_directions(2, 5, seed=2), first)


class TestLinearMap:
    def test_identity(self):
        s = unit_square()
        out = linear_map(np.eye(2), s)
        assert np.array_equal(out.generators, s.generators)
        assert np.array_equal(out.anchor, s.anchor)

    def test_scaling(self):
        out = linear_map(2.0 * np.eye(2), unit_square())
        box = out.bounding_box()
        assert np.allclose(box.lo, [-2.0, -2.0]) and np.allclose(box.hi, [2.0, 2.0])

    def test_rotation_moves_generators(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        out = linear_map(rot, unit_square())
        assert np.allclose(out.generators[:, 0], [0.0, 1.0])
        assert np.allclose(out.generators[:, 1], [-1.0, 0.0])

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            linear_map(np.eye(3), unit_square())


class TestMinkowskiSum:
    def test_point_shift(self):
        s = unit_square()
        out = minkowski_sum(s, Star.point(np.array([5.0, -1.0])))
        box = out.bounding_box()
        assert np.allclose(box.lo, [4.0, -2.0]) and np.allclose(box.hi, [6.0, 0.0])

    def test_support_adds(self):
        rng = np.random.default_rng(71)
        s1 = random_star(rng, 2, 3)
        s2 = random_star(rng, 2, 4)
        out = minkowski_sum(s1, s2)
        assert out.n_gens == 7
        for _ in range(30):
            d = rng.normal(size=2)
            assert out.support(d) == pytest.approx(s1.support(d) + s2.support(d),
                                                   abs=1e-12)

    def test_dim_check(self):
        with pytest.raises(DimensionMismatch):
            minkowski_sum(unit_square(), Star.point(np.array([1.0])))


class TestLambdaBox:
    def test_zero_family_gives_origin(self):
        out = lambda_box(IntervalMatrix.zeros(2, 2), unit_square())
        box = out.bounding_box()
        assert np.all(box.lo == 0.0) and np.all(box.hi == 0.0)

    def test_scalar(self):
        s = Star(np.zeros(1), np.ones((1, 1)), np.array([-1.0]), np.array([1.0]))
        lam = IntervalMatrix(np.array([[-1.0]]), np.array([[1.0]]))
        box = lambda_box(lam, s).bounding_box()
        assert box.lo[0] == pytest.approx(-1.0) and box.hi[0] == pytest.approx(1.0)

    def test_point_star_positive_entry(self):
        s = Star.point(np.array([2.0]))
        lam = IntervalMatrix(np.array([[1.0]]), np.array([[1.0]]))
        box = lambda_box(lam, s).bounding_box()
        assert box.lo[0] == pytest.approx(2.0) and box.hi[0] == pytest.approx(2.0)

    def test_result_is_axis_aligned(self):
        rng = np.random.default_rng(29)
        lam = centred(rng.uniform(-1, 1, (2, 2)), rng.uniform(0, 1, (2, 2)))
        out = lambda_box(lam, random_star(rng, 2, 4))
        assert np.all(out.anchor == 0.0)
        assert out.generators.shape == (2, 2)
        assert np.allclose(out.generators, np.eye(2))

    def test_covers_member_products(self):
        # E x must land in the box for every E in the family, x in the star
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            lam = centred(rng.uniform(-1, 1, (n, n)), rng.uniform(0, 1, (n, n)))
            s = random_star(rng, n, 3)
            box = lambda_box(lam, s).bounding_box()
            for _ in range(25):
                pt = lam.sample(rng) @ s.sample(rng)[0]
                assert box.contains(pt, tol=1e-9)


class TestCompact:
    def test_folds_fixed_coefficients(self):
        s = Star(np.zeros(2), np.array([[1.0, 3.0], [0.0, 1.0]]),
                 np.array([-1.0, 2.0]), np.array([1.0, 2.0]))
        out = compact(s)
        assert out.n_gens == 1
        assert np.allclose(out.anchor, [6.0, 2.0])
        assert s.support(np.array([1.0, 0.0])) == pytest.approx(
            out.support(np.array([1.0, 0.0])))

    def test_no_op_when_all_vary(self):
        s = unit_square()
        out = compact(s)
        assert out.n_gens == 2
        assert np.array_equal(out.generators, s.generators)

    def test_all_fixed_becomes_point(self):
        s = Star(np.ones(2), np.eye(2), np.array([0.5, -0.5]), np.array([0.5, -0.5]))
        out = compact(s)
        assert out.n_gens == 0
        assert np.allclose(out.anchor, [1.5, 0.5])


class TestIntervalReduce:
    def test_box_hull(self):
        out = interval_reduce(rotated_square())
        assert out.n_gens == 2
        box = out.bounding_box()
        assert np.allclose(box.lo, [-2.0, -2.0]) and np.allclose(box.hi, [2.0, 2.0])

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        s = random_star(rng, 3, 7)
        once = interval_reduce(s)
        twice = interval_reduce(once)
        assert np.allclose(once.bounding_box().lo, twice.bounding_box().lo)
        assert np.allclose(once.bounding_box().hi, twice.bounding_box().hi)

    def test_contains_original(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            s = random_star(rng, 2, 6)
            out = interval_reduce(s)
            for d in membership_directions(2, extra=30):
                assert out.support(d) >= s.support(d) - 1e-10


class TestZonoReduce:
    def test_unchanged_when_small(self):
        s = unit_square()
        out = zono_reduce(s, 2)
        assert out.n_gens == 2
        assert np.array_equal(out.generators, s.generators)

    def test_target_below_dimension_rejected(self):
        with pytest.raises(ValueError):
            zono_reduce(unit_square(), 1)

    def test_merge_all_is_box_hull(self):
        s = rotated_square()
        out = zono_reduce(s, 2)
        ref = interval_reduce(s)
        assert np.allclose(out.bounding_box().lo, ref.bounding_box().lo)
        assert np.allclose(out.bounding_box().hi, ref.bounding_box().hi)

    def test_keeps_largest_generators(self):
        # norms 5, 5, 1 with a tie: the earliest large column is kept
        g = np.array([[5.0, 0.0, 1.0], [0.0, 5.0, 0.0]])
        s = Star(np.zeros(2), g, -np.ones(3), np.ones(3))
        out = zono_reduce(s, 3)
        kept = out.generators[:, 0]
        assert np.allclose(np.abs(kept), [5.0, 0.0])

    def test_contains_original(self):
        rng = np.random.default_rng(41)
        dirs = membership_directions(3, extra=100)
        for _ in range(15):
            s = random_star(rng, 3, 12)
            out = zono_reduce(s, 6)
            assert out.n_gens <= 6
            for d in dirs:
                assert out.support(d) >= s.support(d) - 1e-10


class TestLeafLayer:
    # no package module imports the Star layer: it is the tests' oracle
    STAR_LAYER = {"uncreach.stars", "uncreach._kernels"}

    def test_package_and_cli_load_no_star_layer(self):
        # fresh interpreters, importing the same uncreach as this one
        root = os.path.dirname(os.path.dirname(uncreach.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (root, os.environ.get("PYTHONPATH")))))
        code = ("import sys, uncreach; "
                f"sys.exit(bool({self.STAR_LAYER!r} & set(sys.modules)))")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        girad = importlib.resources.files("uncreach") / "models" / "girad1.yaml"
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "uncreach.cli", "norms",
             str(girad)], capture_output=True, text=True, check=True, env=env)
        assert run.stdout.startswith("frobenius_sup ")
        loaded = {line.rsplit("|", 1)[-1].strip()
                  for line in run.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "uncreach.engine" in loaded
        assert not self.STAR_LAYER & loaded

    def test_box_is_one_class(self):
        assert uncreach.Box is uncreach.stars.Box is uncreach.intervals.Box
