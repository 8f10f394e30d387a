"""Dense linear algebra on integer-encoding matrices over a Field.

Matrices are numpy arrays of encodings.  The Gram matrix runs on BLAS
over GF(p) coefficient planes, exact because every matmul entry is an
integer below 2**24 in float32, else 2**53 in float64 (asserted).  No
function here reads a GRS shape: the caller says, by gram's hankel
flag, that g is the generator matrix of some (extended) GRS code
(grs.GrsRows, or a bare G that grs._grs_eval_set has read as one), so
that G @ G.T is Hankel and O(sqrt k) of its rows give all of it.  Any
other matrix takes the general path: the row-block Gram loop against
the planes of all of it.  The rank is that of the systematic form, in
Zech arithmetic; every k x k minor of G comes from one Laplace
expansion along rows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TableLimitExceeded

# float64 and float32 hold every integer below these exactly
_EXACT, _EXACT32 = 2 ** 53, 2 ** 24
# bytes per row block of G, of its planes at their itemsize, or of products
_BLOCK_BYTES = 1 << 18


def _coeff_planes(field, g, chunks, width):
    """Coefficient planes of g, shape (chunks, k, m, width).

    Plane s holds the coefficient of x**s of every entry, read from the
    field's digit table; the column axis is cut into chunks of the given
    width, zero-padded at the end; float64, or float32 where every partial
    sum of a matmul of two, at most width * (p-1)**2, is below 2**24."""
    k, n = g.shape
    if chunks * width > n:
        g = np.pad(g, ((0, 0), (0, chunks * width - n)))
    idx = g.reshape(k, chunks, width).transpose(1, 0, 2)
    dtype = np.float32 if width * (field.p - 1) ** 2 < _EXACT32 else np.float64
    planes = np.empty((chunks, k, field.m, width), dtype=dtype)
    for s, digit in enumerate(field.digits()):
        planes[:, :, s, :] = digit[idx]
    return planes


def _products(field, left, right):
    """Encodings of L @ R.T over the field, from the planes of L and R.

    Entry (i, j) is sum_u x**u sum_{s+t=u} <c_s(L_i), c_t(R_j)>, with
    each inner product from one exact matmul per column chunk;
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
    return _encode(field, acc[:m])


def _encode(field, coeffs):
    """Encodings of the elements with x**s coefficients coeffs[s] (mod p)."""
    vals = (field.p ** np.arange(field.m)
            @ np.moveaxis(coeffs % field.p, 0, -2))
    return field._log[vals] + 1  # _log[0] is -1, so 0 stays 0


def _sumset_rows(k, rows):
    """(baby, giant) rows whose sums cover 0..2k-2: 0..b-1, k-b..k-1 and
    b's multiples below k-1, and k-1, for b = min(isqrt(k // 2), rows),
    or the least b <= rows past it whose giant rows fit in one block."""
    b, fit = max(1, math.isqrt(k // 2)), -(-(k - 1) // max(1, rows - 1))
    b = fit if b < fit <= rows else min(b, rows)
    baby = np.concatenate([np.arange(b), np.arange(max(b, k - b), k)])
    return baby, np.append(np.arange(0, k - 1, b), k - 1)


def gram(field, g, hankel=False):
    """G @ G.T over the field; rows of g are codeword generators.

    Products are exact matmuls of coefficient planes (_coeff_planes)
    over column chunks of width w with w * (p-1)**2 < 2**53: held rows
    against one block of streamed rows at a time, _BLOCK_BYTES of planes
    at their itemsize.  hankel says that g is an (extended) GRS
    generator matrix, rows v_j * a_j**i and the unit column e_{k-1}, and
    may then be a row source: entry (i, l) is S_{i+l}, S_u = sum_j
    v_j**2 a_j**u + [u = 2k-2 and extended], so the O(sqrt k) rows of
    _sumset_rows give every S_u from about 2k row pairs, in one round if
    the giant rows fit one block, and the result is a read-only (k, k)
    view of the 2k-1 S_u, not a copy; the first block's planes are
    formed in one call with the held rows'.  Otherwise every row of the
    array g is held, its planes formed once, and each block is a slice
    of them."""
    g = g if hankel else np.asarray(g[:], dtype=np.int64)
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
    # at least 8 rows where G has 16 m of them: one-row blocks of a long
    # G cost a round each, and 8 rows of planes stay below half of G
    size = 4 if width * (p - 1) ** 2 < _EXACT32 else 8  # as _coeff_planes
    rows = max(1, _BLOCK_BYTES // (size * m * chunks * width),
               min(8, k // (2 * m)))
    # entry (i, l) goes to out[i * stride + l]: G G^T flat, or S_{i+l}
    stride = 1 if hankel else k
    if hankel:  # the held rows and the first streamed block: one call
        held, streamed = _sumset_rows(k, rows)
        first = _coeff_planes(
            field, g[np.concatenate([held, streamed[:rows]])], chunks, width)
        left, formed = first[:, :held.size], first[:, held.size:]
    else:  # every row is held, and every block is a slice of its planes
        held = streamed = np.arange(k)
        left = formed = _coeff_planes(field, g, chunks, width)
    out = np.empty(stride * (k - 1) + k, dtype=np.int64)
    for r0 in range(0, streamed.size, rows):
        idx = streamed[r0:r0 + rows]
        block = (formed[:, r0:r0 + rows] if r0 < formed.shape[1]
                 else _coeff_planes(field, g[idx], chunks, width))
        out[held[:, None] * stride + idx] = _products(field, left, block)
    if hankel:
        out.flags.writeable = False  # and so the (k, k) view of the S_u
        return np.ndarray((k, k), np.int64, out, strides=out.strides * 2)
    return out.reshape(k, k)


def rank(field, mat):
    """Rank over the field: the pivot count of mat's systematic form."""
    return len(systematic(field, mat, range(np.shape(mat)[1]))[1])


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


def minors_nonzero(field, g, block):
    """Whether det G[:, S] != 0 for every k-subset S of the columns.

    Laplace expansion along rows, each sub-minor formed once: D_1[{j}] is
    g[0, j] and D_{r+1}[S] = sum_t (-1)**(r+t) g[r, S_t] D_r[S - S_t].  A
    level lists its subsets in colex order (level r's first C(j, r), plus
    j, for each largest j), so S - S_t has rank sum_{i<t} C(S_i, i+1) +
    sum_{i>t} C(S_i, i).  Levels below k are kept; level k is formed in
    blocks of about `block` terms, and its first zero minor ends the test.
    """
    k, n = g.shape
    if k < 2:
        return k == 0 or bool(g[0].all())
    binom = np.array([[math.comb(x, i) for i in range(k + 1)]
                      for x in range(n + 1)], dtype=np.int64)
    signed = np.stack([g, field.vneg(g)], axis=1).reshape(k, 2 * n)
    kept = g[0], np.arange(n, dtype=np.min_scalar_type(n))[None]
    for r in range(1, k):
        vals, elems = kept
        size, total = r + 1, int(binom[n, r + 1])
        col = np.arange(size)[:, None]
        if r < k - 1:
            kept = (np.empty(total, np.int32),
                    np.empty((size, total), np.min_scalar_type(n)))
        step = max(1, block // size)
        for a in range(0, total, step):
            rank = np.arange(a, min(a + step, total))
            top = np.searchsorted(binom[:, size], rank, side="right") - 1
            sub = np.vstack([elems[:, rank - binom[top, size]], top])
            at = sub * (k + 1) + col
            down, up = binom.take(at), binom.take(at + 1)
            drop = np.cumsum(up - down, axis=0) - up + down.sum(axis=0)
            terms = field.vmul(signed[r].take(sub + (r + col) % 2 * n),
                               vals.take(drop))
            det = _encode(field, field.digits().take(terms, axis=1)
                          .sum(axis=1, dtype=np.int64))
            if r < k - 1:
                kept[0][a:a + step], kept[1][:, a:a + step] = det, sub
            elif not det.all():
                return False
    return True
