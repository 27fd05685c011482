"""Matrix exponential of one square matrix, in numpy alone.

Scaling and squaring with a diagonal Pade approximant r_m (Higham, "The
scaling and squaring method for the matrix exponential revisited", SIAM J.
Matrix Anal. Appl. 26, 2005).  The matrix gets the lowest degree m in
3, 5, 7, 9 whose theta_m bounds its 1-norm; otherwise m = 13 and it is
scaled by 2^-s so that its 1-norm is at most theta_13, and r_13 is squared
s times.  A diagonal matrix takes exp of its diagonal (so exp(0) = I
exactly), a zero row i gives the exact unit row e_i, and a matrix with a
non-finite entry gives NaN rather than an error.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expm"]

# Largest 1-norm for which r_m meets unit roundoff in double (Higham's
# Table 2.3), and the coefficients b_0..b_m of r_m's numerator.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}
_PADE = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
        2162160., 110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600.,
         670442572800., 33522128640., 1323241920., 40840800., 960960.,
         16380., 182., 1.),
}

def expm(a) -> np.ndarray:
    """exp(a) for one square float matrix a of shape (n, n)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm needs one square matrix")
    n = a.shape[0]
    norm = np.abs(a).sum(axis=0).max()  # inf or NaN if an entry is
    if not np.isfinite(norm):
        return np.full((n, n), np.nan)
    diag = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        return np.diag(np.exp(diag))
    m = next((m for m in (3, 5, 7, 9) if norm <= _THETA[m]), 13)
    s = max(0, int(np.ceil(np.log2(norm / _THETA[13])))) if m == 13 else 0
    x = _pade(np.ldexp(a, -s), m)
    # a zero row i of a leaves x_i = x_i(0) constant, so exp(a)_i = e_i;
    # the solve can miss that by an ulp, and squaring keeps it exact
    zero = ~a.any(axis=1)
    x[zero] = np.eye(n)[zero]
    for _ in range(s):
        x = x @ x
    return x


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """r_m(a) = (V - U)^-1 (V + U)."""
    b = _PADE[m]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) \
            + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
            + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    else:
        u = b[1] * eye
        v = b[0] * eye
        power = eye
        for k in range(1, m // 2 + 1):
            power = a2 if k == 1 else power @ a2
            u = u + b[2 * k + 1] * power
            v = v + b[2 * k] * power
    u = a @ u
    return np.linalg.solve(v - u, v + u)
