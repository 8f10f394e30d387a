"""Dense linear algebra on integer-encoding matrices over a Field.

Matrices are numpy arrays of encodings.  The Gram matrix runs on float64
BLAS over GF(p) coefficient planes, which is exact because every matmul
entry is an integer below 2**53 (asserted before the matmuls).  Rank is
proved without elimination when the leading square block has the shape
of a GRS generator matrix, v_j * a_j**i with every v_j nonzero and the
a_j distinct, whose determinant prod v_j * prod_{i<j} (a_j - a_i) is
then nonzero; any other matrix falls back to Gaussian elimination, as
do the systematic form and the batched minor test, all in Zech
arithmetic.
"""

from __future__ import annotations

import numpy as np

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


def gram(field, g):
    """G @ G.T over the field; rows of g are codeword generators.

    With entries written as polynomials sum_s c_s x**s over GF(p), entry
    (i, j) is sum_u x**u sum_{s+t=u} <c_s(row i), c_t(row j)>.  Every
    such inner product comes out of one float64 matmul of coefficient
    planes over a column chunk of width w with w * (p-1)**2 < 2**53, so
    it is an exact integer.  The 2m-1 sums are folded through the
    modulus, reduced mod p and mapped back to encodings.  Only the upper
    triangle is computed, in row blocks, so no block product exceeds
    about _BLOCK_BYTES.
    """
    g = np.asarray(g, dtype=np.int64)
    k, n = g.shape
    p, m = field.p, field.m
    out = np.zeros((k, k), dtype=np.int64)
    if k == 0 or n == 0:
        return out
    most = (_EXACT - 1) // (p - 1) ** 2  # widest exact chunk
    if most == 0:
        raise TableLimitExceeded(
            f"p = {p} is too large for an exact float64 Gram")
    chunks = -(-n // most)
    width = -(-n // chunks)
    assert width * (p - 1) ** 2 < _EXACT, "float64 Gram would be inexact"
    planes = _coeff_planes(field, g, chunks, width)
    low = np.array(field.modulus[:m], dtype=np.int64)[:, None, None]
    rows = max(1, _BLOCK_BYTES // (8 * m * m * k))
    for r0 in range(0, k, rows):
        r1 = min(k, r0 + rows)
        # acc[u] adds at most m products below 2**53 per chunk, each
        # reduced mod p first when there are several: no int64 overflow
        acc = np.zeros((2 * m - 1, r1 - r0, k - r0), dtype=np.int64)
        for c in range(chunks):
            left = planes[c, r0:r1].reshape(-1, width)
            right = planes[c, r0:].reshape(-1, width)
            prod = (left @ right.T).astype(np.int64)
            if chunks > 1:
                prod %= p
            prod = prod.reshape(r1 - r0, m, k - r0, m)
            for s in range(m):
                acc[s:s + m] += prod[:, s].transpose(2, 0, 1)
        # x**u = x**(u-m) * x**m and x**m = -sum_i modulus[i] x**i
        for u in range(2 * m - 2, m - 1, -1):
            acc[u - m:u] -= low * (acc[u] % p)
        coeffs = acc[:m] % p
        vals = coeffs[0]
        for s in range(1, m):
            vals = vals + coeffs[s] * p ** s
        enc = np.where(vals == 0, 0, field._log[vals] + 1)
        out[r0:r1, r0:] = enc
        out[r0:, r0:r1] = enc.T
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

    A matrix with rows <= cols whose leading square block is
    [v_j * a_j**i] has full row rank: that block is a Vandermonde matrix
    times diag(v), with determinant prod_j v_j * prod_{i<j} (a_j - a_i),
    nonzero exactly when every v_j is nonzero and the a_j are distinct.
    The block is tested entry by entry: row 0 has no zero, every later
    row is the row above times a = row 1 / row 0, and the a_j are
    distinct.  Any other matrix is reduced whole.
    """
    mat = np.asarray(mat, dtype=np.int64)
    if mat.size == 0:
        return 0
    rows, cols = mat.shape
    lead = mat[:, :rows]
    if rows <= cols and lead[0].all():
        a = field.vmul(lead[1], field.vinv(lead[0])) if rows > 1 else lead[0]
        if (np.array_equal(lead[1:], field.vmul(lead[:-1], a))
                and len(set(a.tolist())) == rows):
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
