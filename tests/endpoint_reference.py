"""The two endpoint-product kernels the package had before
intervals._endpoint_product served every caller, kept as references the
merged kernel must match bit for bit: broadcast_product, the interval
product laid out (rows, inner, cols) and summed over its middle axis, and
padded_image, a stack of point rows times a box laid out (K, r, n) and
summed along each row."""

import numpy as np

from uncreach.intervals import _row_chunks


def broadcast_product(alo, ahi, blo, bhi):
    """Bounds of [alo, ahi] @ [blo, bhi]: the hull of the endpoint products
    ac, ad, bc, bd, in that order, a point factor (alo is ahi) forming its
    equal products once, in row chunks of (rows, inner, cols) tensors."""
    lo = np.empty((alo.shape[0], blo.shape[1]))
    hi = lo if alo is ahi and blo is bhi else np.empty_like(lo)
    for rows in _row_chunks(lo.shape[0], blo.size):
        a, b = alo[rows, :, None], ahi[rows, :, None]
        plo = a * blo
        if hi is not lo:
            prods = (a * bhi,) if ahi is alo else (a * bhi, b * blo, b * bhi)
            phi = plo.copy()
            for pr in prods:
                np.minimum(plo, pr, out=plo)
                np.maximum(phi, pr, out=phi)
            phi.sum(axis=1, out=hi[rows])
            del prods, pr, phi
        plo.sum(axis=1, out=lo[rows])
        del plo
    return lo, hi


def padded_image(rows, theta, pad, out=None):
    """Bounds of rows[k] x over x in the box theta, rows (K, r, n), widened
    by pad (K, r): the sums along each row of the smaller (larger) of
    m_ij lo_j, m_ij hi_j, written into out if given, whose lo may be None
    for the upper bounds alone."""
    lo, hi = (np.empty(rows.shape[:-1]), np.empty(rows.shape[:-1])) if out is None else out
    low = np.einsum("kij,j->kij", rows, theta.lo, out=np.empty(rows.shape))
    high = np.einsum("kij,j->kij", rows, theta.hi, out=np.empty(rows.shape))
    np.maximum(low, high, out=high).sum(axis=-1, out=hi)
    hi += pad
    if lo is not None:
        np.einsum("kij,j->kij", rows, theta.hi, out=high)
        np.minimum(low, high, out=low).sum(axis=-1, out=lo)
        lo -= pad
    return lo, hi
