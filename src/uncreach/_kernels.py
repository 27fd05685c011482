"""Star-set kernels in numpy: interval image bounds, supports and box hulls.

* ``lambda_box_core`` -- interval image bounds  L*a + sum_j [c_j] * (L*g_j)
* ``support_core``    -- batched support function over direction rows
* ``box_core``        -- axis-aligned hull of a star

All three take a star as its parts <anchor, gens, [clo, chi]> and compute
exact interval arithmetic on endpoints (tight endpoint products, no
outward slack).  The numeric reach recurrence in ``engine`` evaluates the
same formulas over its own buffers; these serve the Star operations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lambda_box_core",
    "support_core",
    "box_core",
]


def lambda_box_core(llo, lhi, anchor, gens, clo, chi):
    """Interval bounds of L*x over a star <anchor, gens, [clo, chi]>.

    Returns (dlo, dhi) with d_i = [L a]_i + sum_j [clo_j, chi_j] [L g_j]_i
    evaluated in exact interval arithmetic.
    """
    ap = np.maximum(anchor, 0.0)
    an = ap - anchor  # negative part, nonnegative
    dlo = llo @ ap - lhi @ an
    dhi = lhi @ ap - llo @ an
    if gens.shape[1]:
        gp = np.maximum(gens, 0.0)
        gn = gp - gens
        wlo = llo @ gp - lhi @ gn  # (n, m) lower bounds of L g_j
        whi = lhi @ gp - llo @ gn
        p1 = wlo * clo
        p2 = wlo * chi
        p3 = whi * clo
        p4 = whi * chi
        dlo = dlo + np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)).sum(axis=1)
        dhi = dhi + np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)).sum(axis=1)
    return dlo, dhi


def support_core(anchor, gens, clo, chi, dirs):
    """Support values max_{x in star} d.x for each direction row of dirs."""
    vals = dirs @ anchor
    if gens.shape[1]:
        t = dirs @ gens  # (k, m)
        vals = vals + np.maximum(t * clo, t * chi).sum(axis=1)
    return vals


def box_core(anchor, gens, clo, chi):
    """Axis-aligned bounds (lo, hi) of a star."""
    lo = anchor.copy()
    hi = anchor.copy()
    if gens.shape[1]:
        p1 = gens * clo
        p2 = gens * chi
        lo = lo + np.minimum(p1, p2).sum(axis=1)
        hi = hi + np.maximum(p1, p2).sum(axis=1)
    return lo, hi
