"""Tests of the star-set kernels against brute force and each other."""

import numpy as np

from uncreach import _kernels as K


def random_star_parts(rng, n, m):
    anchor = rng.uniform(-1, 1, n)
    gens = rng.uniform(-1, 1, (n, m))
    clo = -rng.uniform(0, 1, m)
    chi = rng.uniform(0, 1, m)
    return anchor, gens, clo, chi


class TestNumpyTwins:
    def test_box_bounds_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            anchor, gens, clo, chi = random_star_parts(rng, n, m)
            lo, hi = K.box_core(anchor, gens, clo, chi)
            for _ in range(200):
                c = rng.uniform(clo, chi)
                pt = anchor + gens @ c
                assert np.all(pt >= lo - 1e-12) and np.all(pt <= hi + 1e-12)

    def test_support_matches_box_on_axes(self):
        rng = np.random.default_rng(321)
        for _ in range(30):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            anchor, gens, clo, chi = random_star_parts(rng, n, m)
            lo, hi = K.box_core(anchor, gens, clo, chi)
            eye = np.eye(n)
            up = K.support_core(anchor, gens, clo, chi, eye)
            down = K.support_core(anchor, gens, clo, chi, -eye)
            assert np.allclose(up, hi, atol=1e-12)
            assert np.allclose(down, -lo, atol=1e-12)
