"""Matrix exponential of a stack of matrices, in numpy alone.

Scaling and squaring with a diagonal Pade approximant r_m (Higham, "The
scaling and squaring method for the matrix exponential revisited", SIAM J.
Matrix Anal. Appl. 26, 2005).  Each matrix gets the lowest degree m in
3, 5, 7, 9 whose theta_m bounds its 1-norm; otherwise m = 13 and it is
scaled by 2^-s so that its 1-norm is at most theta_13, and r_13 is squared
s times.  Degree and s depend on the matrix alone, so a matrix gets the
same bits whether it comes alone or in a stack.  A diagonal matrix takes
exp of its diagonal (so exp(0) = I exactly), a zero row i gives the exact
unit row e_i, and a matrix with a non-finite entry gives NaN rather than
an error.
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

# Entries per chunk of the stack: bounds the Pade temporaries whatever the
# stack length.
_CHUNK_ENTRIES = 4096


def expm(a) -> np.ndarray:
    """exp(a) for a float array of shape (..., n, n)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expm needs square matrices in the last two axes")
    n = a.shape[-1]
    out = np.empty_like(a)
    flat, flat_out = a.reshape(-1, n, n), out.reshape(-1, n, n)
    chunk = max(1, _CHUNK_ENTRIES // max(1, n * n))
    for i in range(0, len(flat), chunk):
        _expm_chunk(flat[i:i + chunk], flat_out[i:i + chunk])
    return out


def _expm_chunk(a: np.ndarray, out: np.ndarray) -> None:
    """exp of each matrix of the (k, n, n) stack a, written into out."""
    n = a.shape[-1]
    norm = np.abs(a).sum(axis=1).max(axis=1)  # inf or NaN if an entry is
    finite = np.isfinite(norm)
    diag = np.diagonal(a, axis1=1, axis2=2)
    plain = finite & (np.count_nonzero(a, axis=(1, 2))
                      == np.count_nonzero(diag, axis=1))
    out[~finite] = np.nan
    out[plain] = 0.0
    np.einsum("kii->ki", out)[plain] = np.exp(diag[plain])
    general = np.flatnonzero(finite & ~plain)
    degree = np.full(general.size, 13)
    for m in (9, 7, 5, 3):
        degree[norm[general] <= _THETA[m]] = m
    for m in _PADE:
        pick = general[degree == m]
        if pick.size == 0:
            continue
        x = a[pick]
        s = np.zeros(pick.size, dtype=np.int64)
        if m == 13:
            s = np.ceil(np.log2(norm[pick] / _THETA[13]))
            s = np.maximum(s, 0).astype(np.int64)
            x = np.ldexp(x, -s[:, None, None])
        x = _pade(x, m)
        # a zero row i of a leaves x_i = x_i(0) constant, so exp(a)_i = e_i;
        # the solve can miss that by an ulp, and squaring keeps it exact
        zero = ~a[pick].any(axis=2)
        x[zero] = np.eye(n)[np.nonzero(zero)[1]]
        for k in range(int(s.max())):
            sq = s > k
            x[sq] = x[sq] @ x[sq]
        out[pick] = x


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """r_m(a) = (V - U)^-1 (V + U) for a stack a."""
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
