"""Dense linear algebra on integer-encoding matrices over a Field.

Matrices are numpy arrays of encodings.  The Gram matrix runs on float64
BLAS over GF(p) coefficient planes, which is exact because every matmul
entry is an integer below 2**53 (asserted before the matmuls).  The
Gram and the rank read the shape of a GRS generator matrix, rows
v_j * a_j**i, off the matrix entry by entry.  Where it holds, G @ G.T is
Hankel and two of its rows give all of it, and a leading square block
with every v_j nonzero and the a_j distinct has the nonzero determinant
prod v_j * prod_{i<j} (a_j - a_i).  Any other matrix takes the general
path: the blocked upper triangle of the Gram, or Gaussian elimination,
as do the systematic form and the batched minor test, all in Zech
arithmetic.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import TableLimitExceeded

# float64 holds every integer below this exactly
_EXACT = 2 ** 53
# target size of one row block's plane product, in bytes
_BLOCK_BYTES = 1 << 21


def _coeff_planes(field, g, chunks, width):
    """Coefficient planes of g as float64, shape (chunks, k, m, width).

    Plane s holds the coefficient of x**s of every entry; the column
    axis is cut into chunks of the given width, zero-padded at the end.
    """
    p, m = field.p, field.m
    k, n = g.shape
    vals = np.zeros((k, chunks * width), dtype=np.int64)
    nz = g != 0
    vals[:, :n][nz] = field._exp_int[g[nz] - 1]
    vals = vals.reshape(k, chunks, width).transpose(1, 0, 2)
    planes = np.empty((chunks, k, m, width), dtype=np.float64)
    for s in range(m):
        planes[:, :, s, :] = vals % p
        vals = vals // p
    return planes


def _products(field, left, right):
    """Encodings of L @ R.T over the field, from the planes of L and R.

    Entry (i, j) is sum_u x**u sum_{s+t=u} <c_s(L_i), c_t(R_j)>, with
    each inner product from one exact float64 matmul per column chunk;
    the 2m-1 sums are folded through the modulus and reduced mod p."""
    p, m = field.p, field.m
    (chunks, r, _, width), r2 = left.shape, right.shape[1]
    # acc[u] adds at most m products below 2**53 per chunk, each
    # reduced mod p first when there are several: no int64 overflow
    acc = np.zeros((2 * m - 1, r, r2), dtype=np.int64)
    for c in range(chunks):
        prod = (left[c].reshape(-1, width)
                @ right[c].reshape(-1, width).T).astype(np.int64)
        if chunks > 1:
            prod %= p
        prod = prod.reshape(r, m, r2, m)
        for s in range(m):
            acc[s:s + m] += prod[:, s].transpose(2, 0, 1)
    # x**u = x**(u-m) * x**m and x**m = -sum_i modulus[i] x**i
    low = np.array(field.modulus[:m], dtype=np.int64)[:, None, None]
    for u in range(2 * m - 2, m - 1, -1):
        acc[u - m:u] -= low * (acc[u] % p)
    coeffs = acc[:m] % p
    vals = coeffs[0]
    for s in range(1, m):
        vals = vals + coeffs[s] * p ** s
    return np.where(vals == 0, 0, field._log[vals] + 1)


def _grs_nodes(field, g):
    """a = row 1 / row 0 if g has the shape of an (extended) GRS
    generator matrix, else None: every column with a nonzero row 0 is
    [v_j * a_j**i], and every other column is zero above its last row.
    Checked entry by entry, in row blocks of about _BLOCK_BYTES."""
    k, n = g.shape
    head = g[0] != 0
    # a_j = g[1, j] where g[0, j] = 0, so rows 1..k-2 there must be 0
    a = field.vmul(g[min(1, k - 1)], field.vinv(np.where(head, g[0], 1)))
    rows = max(1, _BLOCK_BYTES // (8 * n))
    for r0 in range(0, k - 1, rows):
        r1 = min(k - 1, r0 + rows)
        step = field.vmul(g[r0:r1], a)
        if r1 == k - 1:  # the last row is free where row 0 is zero
            step[-1] = np.where(head, step[-1], g[-1])
        if not np.array_equal(step, g[r0 + 1:r1 + 1]):
            return None
    return a


def gram(field, g):
    """G @ G.T over the field; rows of g are codeword generators.

    Products are exact float64 matmuls of coefficient planes over column
    chunks of width w with w * (p-1)**2 < 2**53.  If g has the GRS shape
    of _grs_nodes, with c_j in the last row of its other columns, entry
    (i, l) is S_{i+l}, S_u = sum_j v_j**2 a_j**u + [u = 2k-2] sum_j c_j**2:
    rows 0 and k-1 hold every S_u, and only they are computed, against
    the planes of one row block of g at a time.  Any other g gets the
    upper triangle, in row blocks whose products stay near _BLOCK_BYTES."""
    g = np.asarray(g, dtype=np.int64)
    k, n = g.shape
    p, m = field.p, field.m
    if k == 0 or n == 0:
        return np.zeros((k, k), dtype=np.int64)
    most = (_EXACT - 1) // (p - 1) ** 2  # widest exact chunk
    if most == 0:
        raise TableLimitExceeded(
            f"p = {p} is too large for an exact float64 Gram")
    chunks = -(-n // most)
    width = -(-n // chunks)
    assert width * (p - 1) ** 2 < _EXACT, "float64 Gram would be inexact"
    if _grs_nodes(field, g) is not None:
        ends = _coeff_planes(field, g[[0, k - 1]], chunks, width)
        edge = np.empty((2, k), dtype=np.int64)
        rows = max(1, _BLOCK_BYTES // (8 * m * chunks * width))
        for r0 in range(0, k, rows):
            block = _coeff_planes(field, g[r0:r0 + rows], chunks, width)
            edge[:, r0:r0 + rows] = _products(field, ends, block)
        hankel = np.concatenate([edge[0], edge[1, 1:]])
        return as_strided(hankel, (k, k), hankel.strides * 2).copy()
    planes = _coeff_planes(field, g, chunks, width)
    out = np.empty((k, k), dtype=np.int64)
    rows = max(1, _BLOCK_BYTES // (8 * m * m * k))
    for r0 in range(0, k, rows):
        enc = _products(field, planes[:, r0:r0 + rows], planes[:, r0:])
        out[r0:r0 + rows, r0:] = enc
        out[r0:, r0:r0 + rows] = enc.T
    return out


def _eliminate(field, a):
    """Rank of a, which is overwritten.

    Each pivot updates only the rows below it and the columns right of
    it, and the pivot row is not normalized: nothing reads the rest
    again.
    """
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv], c:] = a[[piv, r], c:]
        # the swapped-down row was zero in column c, so these are the rest
        below = nz[1:] + r
        if below.size and c + 1 < cols:
            factors = field.vmul(field.vneg(a[below, c]),
                                 field.inv(int(a[r, c])))
            a[below, c + 1:] = field.vadd(
                a[below, c + 1:],
                field.vmul(factors[:, None], a[r, c + 1:][None, :]))
        r += 1
    return r


def rank(field, mat):
    """Rank over the field.

    If rows <= cols and the leading square block has the shape of
    _grs_nodes with no zero in row 0 and distinct a_j, that block is
    Vandermonde(a) * diag(v), with determinant prod_j v_j *
    prod_{i<j} (a_j - a_i) != 0, and the rank is rows.  Any other
    matrix is reduced whole."""
    mat = np.asarray(mat, dtype=np.int64)
    if mat.size == 0:
        return 0
    rows, cols = mat.shape
    if rows <= cols and mat[0, :rows].all():
        a = _grs_nodes(field, mat[:, :rows])
        if a is not None and len(set(a.tolist())) == rows:
            return rows
    return _eliminate(field, mat.copy())


def systematic(field, g, order):
    """Gauss-Jordan form of g with pivots taken greedily in column order.

    Returns (rows, pivots): one row per pivot, pivots[i] the column
    where row i holds 1 and every other row holds 0.  Over the given
    order, the pivots are the lexicographically first maximal
    independent set of columns, so len(pivots) is the rank.
    """
    a = np.array(g, dtype=np.int64)
    rows = a.shape[0]
    pivots = []
    for c in order:
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = field.vmul(a[r], field.inv(int(a[r, c])))
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        if others.size:
            a[others] = field.vadd(
                a[others],
                field.vmul(field.vneg(a[others, c])[:, None], a[r][None, :]))
        pivots.append(int(c))
    return a[:len(pivots)], pivots


def nonsingular(field, stack):
    """One bool per square matrix of a (B, k, k) stack: nonsingular?

    Elimination runs on the whole stack at once: at each column every
    matrix takes its first nonzero entry at or below the diagonal as
    pivot, found by one argmax, and matrices with none are singular and
    drop out of the stack.
    """
    a = np.array(stack, dtype=np.int64)
    count, k = a.shape[0], a.shape[1]
    ok = np.ones(count, dtype=bool)
    live = np.arange(count)
    for c in range(k):
        nz = a[:, c:, c] != 0
        has = nz.any(axis=1)
        if not has.all():
            ok[live[~has]] = False
            a, live, nz = a[has], live[has], nz[has]
            if not live.size:
                break
        piv = c + np.argmax(nz, axis=1)
        at = np.arange(live.size)
        top = a[at, piv, c:]
        a[at, piv, c:] = a[:, c, c:]
        a[:, c, c:] = top
        if c + 1 < k:
            factors = field.vmul(field.vneg(a[:, c + 1:, c]),
                                 field.vinv(a[:, c, c])[:, None])
            a[:, c + 1:, c + 1:] = field.vadd(
                a[:, c + 1:, c + 1:],
                field.vmul(factors[:, :, None], a[:, c, None, c + 1:]))
    return ok
